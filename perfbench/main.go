// Command perfbench is the repository benchmark: it starts a phomgate in
// front of two phomserve replicas in its own process, drives one named
// workload over loopback HTTP, checks every answer, and prints each
// end-to-end metric by name and unit. With -trace 1 it instead replays
// the workload with one client and times each layer's public functions
// on every request's inputs, printing the per-layer metrics and writing
// the spans to a file.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload reweight_narrow --seed 1 --seconds 24 --trace 0
//
// Workloads: reweight_narrow, reweight_wide, solve_cold, live_delta (see
// BENCHMARK.json for why each exists). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	sc       scale
	spans    string // directory of the traced run's span file
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := config{clients: runtime.NumCPU(), sc: fullScale, spans: filepath.Join(".bench_build", "spans")}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || cfg.seconds > 120 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need 0 < -seconds <= 120 and -trace 0 or 1")
		os.Exit(2)
	}
	// Bound the run's wall clock: set-up, the phases and the answer
	// checks normally take -seconds plus a few seconds.
	limit := time.Duration(cfg.seconds*float64(time.Second)) + 45*time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded its %v wall-clock bound\n", limit)
		os.Exit(3)
	})
	res, err := run(context.Background(), cfg, os.Stdout)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupReps is how many times an untraced run sets up its tier; setup_s
// is the median. The last set-up is the one measured.
const setupReps = 7

// rounds is how many latency/throughput phase pairs an untraced run
// alternates through, so both phases see the same slow drifts (caches
// filling, outside load). latency_p50_ms takes the median round: a burst
// of outside load that spoils one round moves it little.
const rounds = 5

// tailPct is the percentile latency_p99_ms reads from the latency
// sample of all rounds pooled. It is fixed per workload, so a change in
// speed cannot move the metric to another percentile, and at full scale
// at least 25 samples lie beyond it. reweight_wide reads p95: its slowest
// few percent are requests that overlap a garbage collection, and their
// latency swings with load from outside the process (on a 2-vCPU VM, an
// intermittent CPU hog moved p98 and p99 by a fifth to a third, p95 by
// 5%).
var tailPct = map[string]float64{"reweight_narrow": 99, "reweight_wide": 95, "solve_cold": 99, "live_delta": 99}

// run executes one benchmark run, printing its report to out.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	if _, err := newWorkload(cfg.workload, cfg.seed, cfg.sc, cfg.clients); err != nil {
		return nil, err
	}
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var (
		w      workload
		t      *tier
		setups []float64
		digest string
	)
	for k := 0; k < reps; k++ {
		if t != nil {
			t.close()
		}
		start := time.Now()
		var err error
		if w, t, err = setUp(ctx, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %v", err)
		}
		digest = w.digest()
		setups = append(setups, time.Since(start).Seconds())
	}
	defer t.close()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g clients=%d trace=%v corpus_digest=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.clients, cfg.trace, digest)
	fmt.Fprintf(out, "setup: %d runs %s s\n", len(setups), fmtFloats(setups))
	if cfg.trace {
		return runTraced(ctx, cfg, w, t, out)
	}

	l := &loop{t: t, w: w, runID: fmt.Sprintf("pb%d", cfg.seed)}
	l.sample, l.maxCheck = sampler(cfg)
	l.maxCheck = max(1, l.maxCheck/rounds)
	slot := time.Duration(cfg.seconds * float64(time.Second) / (2 * rounds))
	before, err := t.counters(ctx)
	if err != nil {
		return nil, fmt.Errorf("healthz: %v", err)
	}
	var lats, thrs []*phaseResult
	var p50s, rps []float64
	for k := 1; k <= rounds; k++ {
		lat := l.run(ctx, fmt.Sprintf("latency-%d", k), 1, slot)
		thr := l.run(ctx, fmt.Sprintf("throughput-%d", k), cfg.clients, slot)
		lats, thrs = append(lats, lat), append(thrs, thr)
		p50s = append(p50s, ms(p50(lat.lats)))
		rps = append(rps, float64(thr.ops)/thr.elapsed.Seconds())
	}
	lat, thr := mergePhases("latency", lats), mergePhases("throughput", thrs)
	pct := tailPct[cfg.workload]
	tail, beyond := percentile(lat.lats, pct/100)
	after, err := t.counters(ctx)
	if err != nil {
		return nil, fmt.Errorf("healthz: %v", err)
	}
	d := after.sub(before)
	obs := newObserved()
	obs.merge(lat.obs)
	obs.merge(thr.obs)

	res := &result{Metrics: map[string]metric{}}
	res.Attempted = lat.ops + thr.ops
	res.Failed = lat.failed + thr.failed
	for _, p := range []*phaseResult{lat, thr} {
		reportPhase(out, p)
	}
	res.Failed += verifySample(ctx, out, append(lat.sampled, thr.sampled...), res.Attempted)
	fmt.Fprintf(out, "answers_digest=%s\n", answerDigest(lat.first))
	bad := w.mechanism(d, obs)
	reportMechanism(out, d, bad)
	res.Correct = res.Failed == 0 && len(bad) == 0

	var rss syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &rss) // cannot fail for RUSAGE_SELF
	res.Metrics["throughput_rps"] = metric{float64(thr.ops) / thr.elapsed.Seconds(), "1/s"}
	res.Metrics["answers_per_s"] = metric{float64(thr.lanes) / thr.elapsed.Seconds(), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{median(p50s), "ms"}
	res.Metrics["latency_p99_ms"] = metric{ms(tail), "ms"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{float64(rss.Maxrss) / 1024, "MB"}
	fmt.Fprintf(out, "rounds: latency p50 %s ms (latency_p50_ms is their median), throughput %s ops/s\n", fmtFloats(p50s), fmtFloats(rps))
	fmt.Fprintf(out, "latency sample: %d ops; latency_p99_ms is their p%g, with %d samples beyond it\n", len(lat.lats), pct, beyond)
	printMetrics(out, res.Metrics)
	fmt.Fprintf(out, "metric failed_share = %g share (%d of %d ops)\n",
		float64(res.Failed)/float64(max(1, res.Attempted)), res.Failed, res.Attempted)
	return res, nil
}

// setUp generates the corpus, starts a tier and warms it: warm
// compiles, memo fills and live-instance creation.
func setUp(ctx context.Context, cfg config) (workload, *tier, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.sc, cfg.clients)
	if err != nil {
		return nil, nil, err
	}
	t, err := startTier(tierReplicas, cfg.clients)
	if err != nil {
		return nil, nil, err
	}
	for i, o := range w.warm() {
		id := fmt.Sprintf("pb%d-warm-%d", cfg.seed, i)
		rs, err := send(ctx, t.client, t.gateURL, id, o)
		if err == nil {
			_, err = checkOp(o, rs, id, newObserved())
		}
		if err != nil {
			t.close()
			return nil, nil, fmt.Errorf("warm-up %s: %v", o.kind, err)
		}
	}
	return w, t, nil
}

// sampler picks the fixed seeded sample of ops whose answers are
// re-derived with the library, sized so the checks stay well below the
// cost of the run itself.
func sampler(cfg config) (func(c, i int) bool, int) {
	every, maxPerClient := 16, 24
	switch cfg.workload {
	case "reweight_wide":
		every, maxPerClient = 16, 12
	case "live_delta":
		every, maxPerClient = 8, 12
	}
	return func(c, i int) bool {
		return streamSeed(cfg.seed, "sample", strconv.Itoa(c), strconv.Itoa(i))%int64(every) == 0
	}, maxPerClient
}

// verifySample checks the sampled answers and returns how many failed.
func verifySample(ctx context.Context, out io.Writer, sample []done, attempted int) int {
	failed := 0
	for _, d := range sample {
		if err := verify(ctx, d); err != nil {
			failed++
			fmt.Fprintf(out, "WRONG ANSWER %s: %v\n", d.o.kind, err)
		}
	}
	fmt.Fprintf(out, "verified %d of %d ops against the library (fixed seeded sample), %d wrong\n", len(sample), attempted, failed)
	return failed
}

func reportPhase(out io.Writer, p *phaseResult) {
	kinds := make([]string, 0, len(p.byKind))
	for k, v := range p.byKind {
		kinds = append(kinds, fmt.Sprintf("%s=%d(p50 %.3f ms)", k, v, ms(p50(p.kindLats[k]))))
	}
	sort.Strings(kinds)
	fmt.Fprintf(out, "%s phase: %d ops (%d answers) in %.2f s, %d failed; kinds %s\n",
		p.name, p.ops, p.lanes, p.elapsed.Seconds(), p.failed, strings.Join(kinds, " "))
	for _, f := range p.failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}

func reportMechanism(out io.Writer, d counters, bad []string) {
	fmt.Fprintf(out, "window counters: submitted=%d cache_hits=%d plan_hits=%d plan_compiles=%d batch_runs=%d batch_lanes=%d float_fast=%d approx_runs=%d deltas_applied=%d incremental_recompiles=%d full_recompiles=%d shed=%d retries=%d\n",
		d.Submitted, d.CacheHits, d.PlanHits, d.PlanCompiles, d.BatchRuns, d.BatchLanes, d.FloatFast, d.ApproxRuns,
		d.DeltasApplied, d.IncrementalRecompiles, d.FullRecompiles, d.Shed, d.Retries)
	if len(bad) == 0 {
		fmt.Fprintln(out, "mechanism checks: ok")
	}
	for _, b := range bad {
		fmt.Fprintf(out, "MECHANISM CHECK FAILED: %s\n", b)
	}
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %s = %g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
