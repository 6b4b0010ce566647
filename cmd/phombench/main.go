// Command phombench is the experiment harness: for every table and
// figure of the paper it regenerates the corresponding artifact
// empirically (see EXPERIMENTS.md for the index E1–E27). For PTIME
// cells it measures runtime scaling of the dispatched algorithm over
// growing instances; for #P-hard cells it executes the paper's
// reduction, checks the exact counting identity, and measures the
// exponential growth of the exact baseline. E19 drives the concurrent
// engine of internal/engine over a mixed batch workload and measures
// the speedup over sequential solving; E20 measures the
// compile/evaluate split of the solver plans (internal/plan); E21
// measures the flattened evaluation IR and warm-start snapshot serving;
// E22 measures the dual-precision substrates (certified float64
// interval kernel vs exact big.Rat); E23 runs the phomgen workload
// families (Erdős–Rényi, Barabási–Albert, power-law) across the
// dispatch lattice: class membership, graphio round-trips, verdict
// census, and needle-query throughput through the public request API;
// E24 measures end-to-end reweight throughput against batch width
// (1/8/64/256) through the engine's vectorized same-structure batching;
// E25 runs the sharded serving tier end to end: a phomgate over 1/2/4
// in-process phomserve replicas against one process, with the
// per-process plan cache as the resource replication multiplies; E26
// runs the Karp–Luby (ε,δ) estimator on #P-hard cells: calibration
// against the brute-force oracle across fixed seeds, then needles
// beyond the brute-force horizon where exact evaluation refuses and the
// seeded sampler answers with statistical bounds, byte-reproducibly;
// E27 streams typed deltas into a live named instance
// (internal/instance through the engine registry) and measures
// incremental plan maintenance — probability drift reweights without
// recompiling, sparse edge deltas splice through core.PatchCompile —
// against from-scratch recompilation at every version, asserting
// byte-identical answers throughout.
//
// Experiments are selected with -run, an unanchored regular expression
// over experiment ids (like go test -run): -run 'E2[0-7]' runs
// E20–E27. Every experiment embeds correctness assertions; a failing
// assertion marks that experiment FAILED and the process exits nonzero
// after all selected experiments have run.
//
// Results are printed as aligned tables; -csv emits machine-readable
// rows, and -json DIR persists one schema-versioned
// BENCH_<experiment>.json per experiment (see internal/benchrec): the
// machine-readable perf trajectory. Two runs with the same seed and
// flags produce byte-identical JSON up to the volatile fields
// (timestamp, go version, timings). -diff compares two such files
// metric by metric.
//
// Usage:
//
//	phombench [-run 'E2[0-7]'] [-seed 1] [-maxn 4096] [-csv]
//	          [-json out/] [-workers 0] [-batchjobs 128] [-reweights 64]
//	phombench -diff out/BENCH_E20.json old/BENCH_E20.json
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"

	"phom"
	"phom/internal/benchrec"
	"phom/internal/core"
	"phom/internal/counting"
	"phom/internal/engine"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/phomerr"
	"phom/internal/plan"
	"phom/internal/reductions"
)

var (
	runFilter = flag.String("run", "", "run only experiments whose id matches this regexp (unanchored, like go test -run)")
	seed      = flag.Int64("seed", 1, "random seed")
	maxN      = flag.Int("maxn", 4096, "largest instance size for scaling sweeps")
	csvOut    = flag.Bool("csv", false, "emit CSV rows instead of aligned text")
	jsonDir   = flag.String("json", "", "write one BENCH_<experiment>.json per experiment into this directory")
	diffMode  = flag.Bool("diff", false, "compare two BENCH_*.json files: phombench -diff a.json b.json")
	workers   = flag.Int("workers", 0, "E19: fixed engine worker count (0 = sweep 1, 2, 4, NumCPU)")
	batchJobs = flag.Int("batchjobs", 128, "E19: number of jobs in the engine batch workload")
	reweights = flag.Int("reweights", 64, "E20–E25: reweighted evaluations per compiled plan")
)

// E is the per-experiment context handed to every experiment function:
// a fresh seeded rand (so each experiment's workload is independent of
// which other experiments ran), the shared recorder, and the assertion
// helpers. A failed assertion panics a benchFailure, which the runner
// recovers: the experiment is marked FAILED, the remaining experiments
// still run, and the process exits nonzero at the end.
type E struct {
	id      string
	r       *rand.Rand
	rec     *benchrec.Recorder
	metrics *int
}

type benchFailure struct{ err error }

func (e *E) fatalf(format string, args ...any) {
	panic(benchFailure{fmt.Errorf(format, args...)})
}

func (e *E) check(err error) {
	if err != nil {
		panic(benchFailure{err})
	}
}

// emit records one metric in the experiment's JSON run and prints the
// human-readable line. Metric.Value and Metric.Counters must be stable
// (pure functions of seed and flags); timings go in the volatile
// ElapsedUS/OpsPerSec/Speedup fields.
func (e *E) emit(m benchrec.Metric) {
	e.rec.Add(e.id, m)
	*e.metrics++
	text := m.Value
	if len(m.Counters) > 0 {
		keys := make([]string, 0, len(m.Counters))
		for k := range m.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if text != "" {
				text += " "
			}
			text += fmt.Sprintf("%s=%d", k, m.Counters[k])
		}
	}
	if m.Speedup > 0 {
		text += fmt.Sprintf(" ×%.2f", m.Speedup)
	}
	if m.OpsPerSec > 0 {
		text += fmt.Sprintf(" %.0f/s", m.OpsPerSec)
	}
	elapsed := time.Duration(m.ElapsedUS) * time.Microsecond
	if *csvOut {
		fmt.Printf("%s,%s,%s,%d\n", e.id, m.Name, text, m.ElapsedUS)
	} else {
		fmt.Printf("  %-34s %-28s %12s\n", m.Name, text, elapsed.Round(time.Microsecond))
	}
}

// metric builds a Metric with the elapsed time filled in.
func metric(name, value string, d time.Duration) benchrec.Metric {
	return benchrec.Metric{Name: name, Value: value, ElapsedUS: d.Microseconds()}
}

type experimentDef struct {
	id, title string
	fn        func(*E)
}

func experiments() []experimentDef {
	defs := []experimentDef{
		{"E1", "Table 1 (unlabeled, disconnected queries)", tableExp(tableSpecs[0])},
		{"E2", "Table 2 (labeled, connected queries)", tableExp(tableSpecs[1])},
		{"E3", "Table 3 (unlabeled, connected queries)", tableExp(tableSpecs[2])},
		{"E4", "Figure 1 + Example 2.2 (Pr = 0.574)", runExample22},
		{"E5", "Figure 2 (class inclusion lattice)", runLattice},
		{"E6", "Figures 3/4 (class examples)", runShapes},
		{"E7", "Figure 5 + Prop 3.3 (#Bipartite-Edge-Cover reduction)", runEdgeCover},
		{"E8", "Figure 6 (graded DAG levels)", runGradedDAGs},
		{"E9", "Figure 7 + Prop 4.1 (#PP2DNF labeled reduction)", func(e *E) { runPP2DNF(e, reductions.PP2DNFLabeled) }},
		{"E10", "Figure 8 + Prop 5.6 (#PP2DNF unlabeled reduction)", func(e *E) { runPP2DNF(e, reductions.PP2DNFUnlabeled) }},
		{"E11", "Prop 3.4 (label simulation by two-wayness)", runLabelSimulation},
	}
	for _, s := range scalingSpecs {
		defs = append(defs, experimentDef{s.id, s.name + " — runtime scaling", scalingExp(s)})
	}
	defs = append(defs,
		experimentDef{"E18", "Ablations (d-DNNF vs direct DP; baselines)", runAblations},
		experimentDef{"E19", "Engine batch throughput (workers, dedup, memoization)", runEngineBatch},
		experimentDef{"E20", "Plan compile/evaluate amortization (structure-keyed reweighting)", runPlanReweight},
		experimentDef{"E21", "Evaluation IR (interpreter throughput, warm-start snapshots)", runPlanSnapshot},
		experimentDef{"E22", "Dual-precision: float64 interval kernel vs exact interpreter", runFloatPath},
		experimentDef{"E23", "phomgen workload families on the dispatch lattice", runWorkloadFamilies},
		experimentDef{"E24", "Vectorized reweight throughput vs batch width", runBatchedReweight},
		experimentDef{"E25", "Sharded serving tier: aggregate throughput vs replicas (phomgate)", runGateTier},
		experimentDef{"E26", "Karp–Luby (ε,δ) approximation on #P-hard cells beyond the exact horizon", runApproxHardCells},
		experimentDef{"E27", "Live-instance delta streams: incremental plan maintenance vs from-scratch", runDeltaStream},
	)
	return defs
}

func main() {
	flag.Parse()
	if *diffMode {
		os.Exit(runDiff(flag.Args(), os.Stdout, os.Stderr))
	}
	var re *regexp.Regexp
	if *runFilter != "" {
		var err error
		if re, err = regexp.Compile(*runFilter); err != nil {
			fmt.Fprintf(os.Stderr, "phombench: bad -run regexp: %v\n", err)
			os.Exit(2)
		}
	}
	if *csvOut {
		fmt.Println("experiment,params,value,elapsed_us")
	}
	rec := benchrec.NewRecorder(*seed, map[string]string{
		"maxn":      strconv.Itoa(*maxN),
		"workers":   strconv.Itoa(*workers),
		"batchjobs": strconv.Itoa(*batchJobs),
		"reweights": strconv.Itoa(*reweights),
	})
	var failed []string
	metrics, ran := 0, 0
	for _, def := range experiments() {
		if re != nil && !re.MatchString(def.id) {
			continue
		}
		ran++
		if !*csvOut {
			fmt.Printf("\n%s — %s\n", def.id, def.title)
		}
		rec.Begin(def.id, def.title)
		e := &E{id: def.id, r: rand.New(rand.NewSource(*seed)), rec: rec, metrics: &metrics}
		if err := runOne(def.fn, e); err != nil {
			failed = append(failed, def.id)
			fmt.Fprintf(os.Stderr, "phombench: %s FAILED: %v\n", def.id, err)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "phombench: no experiments match %q\n", *runFilter)
	}
	if *jsonDir != "" {
		paths, err := rec.WriteDir(*jsonDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "phombench:", err)
			os.Exit(1)
		}
		if !*csvOut {
			fmt.Printf("\nwrote %d BENCH_*.json files to %s\n", len(paths), *jsonDir)
		}
	}
	if !*csvOut {
		fmt.Printf("\n%d measurements.\n", metrics)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "phombench: FAILED experiments: %v\n", failed)
		os.Exit(1)
	}
}

// runOne runs an experiment, converting assertion panics into an error
// so one failing experiment cannot stop the rest.
func runOne(fn func(*E), e *E) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if bf, ok := p.(benchFailure); ok {
				err = bf.err
				return
			}
			panic(p)
		}
	}()
	fn(e)
	return nil
}

// runDiff prints the comparison of two BENCH records and returns the
// process exit code: 0 when the records agree on every stable field
// (timing deltas are advisory), 1 when a value, counter or metric set
// differs or a record cannot be read, 2 on a usage error.
func runDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: phombench -diff a.json b.json")
		return 2
	}
	a, err := benchrec.Load(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "phombench:", err)
		return 1
	}
	b, err := benchrec.Load(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "phombench:", err)
		return 1
	}
	if err := benchrec.FormatDiff(stdout, a, b); err != nil {
		fmt.Fprintln(stderr, "phombench:", err)
		return 1
	}
	stable := 0
	for _, d := range benchrec.Diff(a, b) {
		if d.Stable() {
			stable++
		}
	}
	if stable > 0 {
		fmt.Fprintf(stderr, "phombench: %d stable deltas\n", stable)
		return 1
	}
	return 0
}

// sizes yields a doubling sweep up to maxN.
func sizes() []int {
	var out []int
	for n := 64; n <= *maxN; n *= 2 {
		out = append(out, n)
	}
	if len(out) == 0 {
		out = []int{*maxN}
	}
	return out
}

// timeSolve runs the dispatched solver and fails the experiment if a
// tractable cell is refused.
func (e *E) timeSolve(q *graph.Graph, h *graph.ProbGraph) (time.Duration, *core.Result) {
	start := time.Now()
	res, err := core.Solve(q, h, &core.Options{DisableFallback: true})
	if err != nil {
		e.fatalf("solver refused a tractable cell: %v", err)
	}
	return time.Since(start), res
}

// E1–E3: for each tractable cell of each table, a scaling sweep of the
// PTIME algorithm; for each hard border cell, an exponential sweep of
// the brute-force baseline on reduction outputs.
type tableSpec struct {
	rows    []graph.Class
	cols    []graph.Class
	labeled bool
}

var (
	connClasses = []graph.Class{graph.Class1WP, graph.Class2WP, graph.ClassDWT, graph.ClassPT, graph.ClassConnected}
	discClasses = []graph.Class{graph.ClassU1WP, graph.ClassU2WP, graph.ClassUDWT, graph.ClassUPT, graph.ClassAll}
	tableSpecs  = []tableSpec{
		{discClasses, connClasses, false},
		{connClasses, connClasses, true},
		{connClasses, connClasses, false},
	}
)

func tableExp(spec tableSpec) func(*E) {
	return func(e *E) {
		labels := []graph.Label{graph.Unlabeled}
		if spec.labeled {
			labels = []graph.Label{"R", "S"}
		}
		for _, qc := range spec.rows {
			for _, ic := range spec.cols {
				v := core.Predict(qc, ic, spec.labeled)
				cellName := fmt.Sprintf("%v/%v", qc, ic)
				if v.Tractable {
					r := rand.New(rand.NewSource(*seed))
					for _, n := range sizes() {
						q := gen.RandInClass(r, qc, 6, labels)
						h := gen.RandProb(r, gen.RandInClass(r, ic, n, labels), 0.5)
						d, res := e.timeSolve(q, h)
						e.emit(metric(fmt.Sprintf("%s n=%d", cellName, n),
							fmt.Sprintf("PTIME/%v", res.Method), d))
					}
				} else {
					// Exponential baseline on small instances only.
					r := rand.New(rand.NewSource(*seed))
					for k := 8; k <= 14; k += 2 {
						q := gen.RandInClass(r, qc, 4, labels)
						h := gen.RandProb(r, gen.RandInClass(r, ic, k, labels), 0)
						start := time.Now()
						_, err := core.BruteForceLimit(q, h, 0)
						d := time.Since(start)
						val := "#P-hard/brute"
						if err != nil {
							val = "#P-hard/skipped"
						}
						e.emit(metric(fmt.Sprintf("%s k=%d coins", cellName, k), val, d))
					}
				}
			}
		}
	}
}

func runExample22(e *E) {
	q := graph.New(4)
	q.MustAddEdge(0, 1, "R")
	q.MustAddEdge(1, 2, "S")
	q.MustAddEdge(3, 2, "S")
	g := graph.New(4)
	g.MustAddEdge(0, 1, "R")
	g.MustAddEdge(0, 2, "R")
	g.MustAddEdge(1, 2, "R")
	g.MustAddEdge(1, 3, "R")
	g.MustAddEdge(0, 3, "R")
	g.MustAddEdge(2, 3, "S")
	h := graph.NewProbGraph(g)
	h.MustSetEdgeProb(0, 2, graph.Rat("0.1"))
	h.MustSetEdgeProb(1, 2, graph.Rat("0.8"))
	h.MustSetEdgeProb(1, 3, graph.Rat("0.1"))
	h.MustSetEdgeProb(0, 3, graph.Rat("0.05"))
	h.MustSetEdgeProb(2, 3, graph.Rat("0.7"))
	start := time.Now()
	p := core.BruteForce(q, h)
	e.emit(metric("example 2.2", "Pr="+p.RatString(), time.Since(start)))
}

func runLattice(e *E) {
	start := time.Now()
	violations := 0
	for trial := 0; trial < 2000; trial++ {
		g := gen.RandInClass(e.r, graph.AllClasses[e.r.Intn(len(graph.AllClasses))], 1+e.r.Intn(8), []graph.Label{"R", "S"})
		for _, a := range graph.AllClasses {
			for _, b := range graph.AllClasses {
				if graph.ClassIncluded(a, b) && g.InClass(a) && !g.InClass(b) {
					violations++
				}
			}
		}
	}
	e.emit(metric("2000 random graphs × 100 pairs", fmt.Sprintf("violations=%d", violations), time.Since(start)))
	if violations != 0 {
		e.fatalf("lattice inclusion violated %d times", violations)
	}
}

func runShapes(e *E) {
	start := time.Now()
	fig3top := graph.Path1WP("R", "S", "S", "T")
	fig3bot := graph.Path2WP(graph.Fwd("R"), graph.Bwd("S"), graph.Fwd("S"), graph.Bwd("T"), graph.Fwd("R"))
	ok := fig3top.Is1WP() && fig3bot.Is2WP() && !fig3bot.Is1WP()
	e.emit(metric("figure 3 shapes", fmt.Sprintf("recognized=%v", ok), time.Since(start)))
	if !ok {
		e.fatalf("figure 3 shapes misclassified")
	}
}

func runEdgeCover(e *E) {
	for m := 4; m <= 16; m += 4 {
		bg := gen.RandBipartite(e.r, 3, 3, m)
		red, err := reductions.EdgeCoverLabeled(bg)
		e.check(err)
		want, err := bg.CountEdgeCovers()
		e.check(err)
		start := time.Now()
		p := core.BruteForce(red.Query, red.Instance)
		got := red.CountFromProb(p)
		d := time.Since(start)
		if got.Cmp(want) != 0 {
			e.fatalf("edge-cover count mismatch at |E|=%d: got %s want %s", len(bg.Edges), got, want)
		}
		e.emit(metric(fmt.Sprintf("|E|=%d", len(bg.Edges)),
			fmt.Sprintf("#EC=%s match=true", got), d))
	}
}

func runGradedDAGs(e *E) {
	start := time.Now()
	graded, total := 0, 500
	for trial := 0; trial < total; trial++ {
		g := gen.RandGradedDAG(e.r, 10, 20, 4, nil)
		if g.IsGradedDAG() {
			graded++
		}
	}
	e.emit(metric("500 constructed graded DAGs", fmt.Sprintf("graded=%d/%d", graded, total), time.Since(start)))
	if graded != total {
		e.fatalf("%d/%d constructed DAGs are not graded", total-graded, total)
	}
}

func runPP2DNF(e *E, build func(*counting.PP2DNF) (*reductions.Reduction, error)) {
	for n := 2; n <= 5; n++ {
		f := gen.RandPP2DNF(e.r, n, n, n+2)
		red, err := build(f)
		e.check(err)
		want, err := f.CountSatisfying()
		e.check(err)
		start := time.Now()
		p := core.BruteForce(red.Query, red.Instance)
		got := red.CountFromProb(p)
		d := time.Since(start)
		if got.Cmp(want) != 0 {
			e.fatalf("#PP2DNF mismatch at n=%d: got %s want %s", n, got, want)
		}
		e.emit(metric(fmt.Sprintf("n1=n2=%d m=%d", n, len(f.Clauses)),
			fmt.Sprintf("#SAT=%s match=true", got), d))
	}
}

func runLabelSimulation(e *E) {
	for m := 2; m <= 4; m++ {
		bg := gen.RandBipartite(e.r, 2, 2, m)
		red, err := reductions.EdgeCoverUnlabeled(bg)
		e.check(err)
		want, _ := bg.CountEdgeCovers()
		start := time.Now()
		p := core.BruteForce(red.Query, red.Instance)
		got := red.CountFromProb(p)
		if got.Cmp(want) != 0 {
			e.fatalf("unlabeled edge-cover mismatch at |E|=%d", len(bg.Edges))
		}
		e.emit(metric(fmt.Sprintf("|E|=%d unlabeled", len(bg.Edges)),
			fmt.Sprintf("#EC=%s match=true", got), time.Since(start)))
	}
}

// E12–E17: runtime scaling of the tractable propositions.
type scalingSpec struct {
	id, name string
	qc, ic   graph.Class
	labeled  bool
	qSize    int
}

var scalingSpecs = []scalingSpec{
	{"E12", "Prop 3.6 (arbitrary queries on ⊔DWT)", graph.ClassAll, graph.ClassUDWT, false, 8},
	{"E13", "Prop 4.10 (labeled 1WP on DWT)", graph.Class1WP, graph.ClassDWT, true, 5},
	{"E14", "Prop 4.11 (connected on 2WP)", graph.ClassConnected, graph.Class2WP, true, 5},
	{"E15", "Prop 5.4 (unlabeled 1WP on PT)", graph.Class1WP, graph.ClassPT, false, 6},
	{"E16", "Prop 5.5 (DWT queries on PT)", graph.ClassDWT, graph.ClassPT, false, 8},
	{"E17", "Lemma 3.7 (disconnected instances)", graph.Class1WP, graph.ClassUPT, false, 4},
}

func scalingExp(s scalingSpec) func(*E) {
	return func(e *E) {
		labels := []graph.Label{graph.Unlabeled}
		if s.labeled {
			labels = []graph.Label{"R", "S"}
		}
		var prev time.Duration
		for _, n := range sizes() {
			q := gen.RandInClass(e.r, s.qc, s.qSize, labels)
			h := gen.RandProb(e.r, gen.RandInClass(e.r, s.ic, n, labels), 0.5)
			d, res := e.timeSolve(q, h)
			m := metric(fmt.Sprintf("n=%d", n), fmt.Sprintf("%v", res.Method), d)
			if prev > 0 {
				m.Speedup = float64(d) / float64(prev) // step-growth ratio (volatile)
			}
			prev = d
			e.emit(m)
		}
	}
}

func runAblations(e *E) {
	// Brute force vs lineage+Shannon on a sparse-match instance.
	q := gen.Rand1WP(e.r, 4, []graph.Label{"R", "S"})
	h := gen.RandProb(e.r, gen.RandDWT(e.r, 18, []graph.Label{"R", "S"}), 0)
	start := time.Now()
	pb, err := core.BruteForceLimit(q, h, 0)
	e.check(err)
	dBrute := time.Since(start)
	start = time.Now()
	pl, err := core.LineageShannon(q, h, 0)
	e.check(err)
	dLin := time.Since(start)
	if pb.Cmp(pl) != 0 {
		e.fatalf("brute force and lineage disagree: %s vs %s", pb.RatString(), pl.RatString())
	}
	m := metric("brute vs lineage (18 coins)", "agree=true", dBrute+dLin)
	m.Speedup = float64(dBrute) / float64(dLin)
	e.emit(m)
}

// runEngineBatch covers E19: a mixed workload of tractable jobs (with
// duplicates, shuffled) solved sequentially and then through the engine
// at increasing worker counts. Every engine result is checked
// byte-identical to the sequential one. The dedup counter (cache hits +
// coalesced jobs) is stable under the seed; the hit/coalesce split is
// scheduling-dependent and stays out of the JSON record.
func runEngineBatch(e *E) {
	r := e.r
	rs := []graph.Label{"R", "S"}
	un := []graph.Label{graph.Unlabeled}
	n := *maxN / 16
	if n < 32 {
		n = 32
	}
	var distinct []engine.Job
	for len(distinct)*4 < *batchJobs {
		distinct = append(distinct,
			engine.Job{ // Prop 4.10
				Query:    gen.Rand1WP(r, 5, rs),
				Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, rs), 0.5),
			},
			engine.Job{ // Prop 4.11
				Query:    gen.RandConnected(r, 5, 1, rs),
				Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, n, rs), 0.5),
			},
			engine.Job{ // Prop 3.6
				Query:    gen.RandGraph(r, 6, 9, un),
				Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, un), 0.5),
			},
			engine.Job{ // Props 5.4/5.5
				Query:    gen.RandDWT(r, 4, un),
				Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassUPT, n/2, un), 0.5),
			},
		)
	}
	jobs := make([]engine.Job, 0, len(distinct)*4)
	for _, j := range distinct {
		jobs = append(jobs, j, j, j, j)
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	if *batchJobs > 0 && len(jobs) > *batchJobs {
		jobs = jobs[:*batchJobs] // honor -batchjobs exactly
	}

	// Sequential baseline.
	seq := make([]*big.Rat, len(jobs))
	start := time.Now()
	for i, j := range jobs {
		res, err := core.Solve(j.Query, j.Instance, nil)
		e.check(err)
		seq[i] = res.Prob
	}
	dSeq := time.Since(start)
	e.emit(metric(fmt.Sprintf("sequential jobs=%d", len(jobs)), "baseline", dSeq))

	sweep := []int{1, 2, 4, runtime.NumCPU()}
	if *workers > 0 {
		sweep = []int{*workers}
	}
	seen := map[int]bool{}
	for _, w := range sweep {
		if seen[w] {
			continue // NumCPU may coincide with a fixed sweep entry
		}
		seen[w] = true
		eng := engine.New(engine.Options{Workers: w})
		start = time.Now()
		out := eng.SolveBatch(jobs)
		d := time.Since(start)
		st := eng.Stats()
		e.check(eng.Close())
		for i := range jobs {
			e.check(out[i].Err)
			if out[i].Result.Prob.Cmp(seq[i]) != 0 {
				e.fatalf("workers=%d: engine result %d differs from sequential", w, i)
			}
		}
		m := metric(fmt.Sprintf("workers=%d jobs=%d", w, len(jobs)), "match=true", d)
		m.Counters = map[string]int64{"dedup": int64(st.CacheHits + st.Coalesced)}
		m.Speedup = float64(dSeq) / float64(d)
		e.emit(m)
	}
}

// reweightWorkloads builds the fixed-structure workloads shared by E20
// and E21.
type reweightWorkload struct {
	name string
	q    *graph.Graph
	h    *graph.ProbGraph
}

// runPlanReweight covers E20: the compile/evaluate amortization of the
// solver plans. For each tractable workload it measures (a) the cold
// path — a full core.Solve per probability assignment, recompiling the
// structure every time; (b) one core.Compile; (c) plan evaluation per
// assignment; and (d) the same reweight stream through the engine,
// where every job after the first hits the structure-keyed plan cache.
// Every plan evaluation is checked byte-identical to its cold solve.
func runPlanReweight(e *E) {
	r := e.r
	rs := []graph.Label{"R", "S"}
	un := []graph.Label{graph.Unlabeled}
	n := *maxN / 4
	if n < 64 {
		n = 64
	}
	workloads := []reweightWorkload{
		{"2WP (Prop 4.11)", gen.RandConnected(r, 5, 1, rs),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, n, rs), 0.5)},
		{"DWT (Prop 4.10)", gen.Rand1WP(r, 7, rs),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, rs), 0.5)},
		{"DWT (Prop 3.6)", gen.RandGradedDAG(r, 8, 12, 3, nil),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, un), 0.5)},
	}
	for _, wl := range workloads {
		// One probability assignment per reweight, over the fixed structure.
		assignments := make([][]*big.Rat, *reweights)
		for i := range assignments {
			probs := make([]*big.Rat, wl.h.G.NumEdges())
			for ei := range probs {
				probs[ei] = big.NewRat(int64(r.Intn(17)), 16)
			}
			assignments[i] = probs
		}
		// Reweighted instances are prebuilt: the measurements below time
		// the solving/serving stack, not test-data construction.
		variants := make([]*graph.ProbGraph, len(assignments))
		for i, probs := range assignments {
			h2 := graph.NewProbGraph(wl.h.G)
			for ei, p := range probs {
				e.check(h2.SetProb(ei, p))
			}
			variants[i] = h2
		}

		// (a) Cold: full solve per assignment.
		cold := make([]*big.Rat, len(assignments))
		start := time.Now()
		for i, h2 := range variants {
			res, err := core.Solve(wl.q, h2, &core.Options{DisableFallback: true})
			e.check(err)
			cold[i] = res.Prob
		}
		dCold := time.Since(start)

		// (b) Compile once.
		start = time.Now()
		cp, err := core.Compile(wl.q, wl.h, &core.Options{DisableFallback: true})
		e.check(err)
		dCompile := time.Since(start)

		// (c) Evaluate per assignment, checking exactness.
		start = time.Now()
		for i, probs := range assignments {
			res, err := cp.Evaluate(context.Background(), probs, nil)
			e.check(err)
			if res.Prob.Cmp(cold[i]) != 0 {
				e.fatalf("%s: plan evaluation %d differs from cold solve", wl.name, i)
			}
		}
		dEval := time.Since(start)

		// (d) The same stream through the engine, plan cache off vs on:
		// both sides pay the serving overhead (canonical hashing, result
		// cache), so the ratio isolates what the plan cache saves.
		runEngine := func(planCacheSize int) (time.Duration, int) {
			eng := engine.New(engine.Options{Workers: 1, PlanCacheSize: planCacheSize})
			defer eng.Close()
			if res := eng.Do(engine.Job{Query: wl.q, Instance: wl.h}); res.Err != nil {
				e.check(res.Err)
			}
			hits := 0
			start := time.Now()
			for _, h2 := range variants {
				res := eng.Do(engine.Job{Query: wl.q, Instance: h2})
				e.check(res.Err)
				if res.PlanHit {
					hits++
				}
			}
			return time.Since(start), hits
		}
		dEngineCold, _ := runEngine(-1)
		dEngineHot, planHits := runEngine(0)

		k := len(assignments)
		e.emit(metric(fmt.Sprintf("%s n=%d compile", wl.name, n), "1 compilation", dCompile))
		e.emit(metric(fmt.Sprintf("%s n=%d cold x%d", wl.name, n, k), "baseline", dCold))
		mEval := metric(fmt.Sprintf("%s n=%d eval x%d", wl.name, n, k), "match=true", dEval)
		mEval.Speedup = float64(dCold) / float64(dEval)
		e.emit(mEval)
		e.emit(metric(fmt.Sprintf("%s n=%d engine-nocache x%d", wl.name, n, k), "engine baseline", dEngineCold))
		mHot := metric(fmt.Sprintf("%s n=%d engine-plan x%d", wl.name, n, k),
			fmt.Sprintf("plan_hits=%d/%d", planHits, k), dEngineHot)
		mHot.Speedup = float64(dEngineCold) / float64(dEngineHot)
		e.emit(mHot)
	}
}

// runPlanSnapshot covers E21: the flattened evaluation IR. Part one
// compares the throughput of the Program interpreter (what the solver
// serves with) against the PR 2 plan-tree evaluators over the same
// reweight stream, checking byte-identical results. Part two measures
// warm-start serving: a cold engine pays one compilation per structure,
// while a fresh engine restored from the first engine's plan snapshot
// serves the entire stream as plan hits with zero compilations.
func runPlanSnapshot(e *E) {
	r := e.r
	rs := []graph.Label{"R", "S"}
	un := []graph.Label{graph.Unlabeled}
	n := *maxN / 4
	if n < 64 {
		n = 64
	}
	workloads := []reweightWorkload{
		{"2WP (Prop 4.11)", gen.RandConnected(r, 5, 1, rs),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, n, rs), 0.5)},
		{"DWT (Prop 4.10)", gen.Rand1WP(r, 7, rs),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, rs), 0.5)},
		{"PT (Prop 5.4)", gen.RandDWT(r, 4, un),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUPT, n/2, un), 0.5)},
	}
	opts := &core.Options{DisableFallback: true}
	for _, wl := range workloads {
		variants := make([]*graph.ProbGraph, *reweights)
		for i := range variants {
			h2 := graph.NewProbGraph(wl.h.G)
			for ei := 0; ei < wl.h.G.NumEdges(); ei++ {
				e.check(h2.SetProb(ei, big.NewRat(int64(r.Intn(17)), 16)))
			}
			variants[i] = h2
		}
		k := len(variants)

		// Part one: interpreter vs tree evaluation on one compiled plan.
		cp, err := core.Compile(wl.q, wl.h, opts)
		e.check(err)
		prog := cp.Program()
		start := time.Now()
		treeRes := make([]*big.Rat, k)
		for i, h2 := range variants {
			res, err := cp.EvaluateTree(h2.Probs())
			e.check(err)
			treeRes[i] = res.Prob
		}
		dTree := time.Since(start)
		// Raw interpreter against raw tree: probe ExecCtx directly so
		// both sides skip the serving path's probability validation.
		ctx := context.Background()
		start = time.Now()
		for i, h2 := range variants {
			pr, err := prog.ExecCtx(ctx, h2.Probs())
			e.check(err)
			if pr.Cmp(treeRes[i]) != 0 {
				e.fatalf("%s: interpreter diverged from tree evaluation", wl.name)
			}
		}
		dExec := time.Since(start)
		e.emit(metric(fmt.Sprintf("%s n=%d tree x%d", wl.name, n, k),
			fmt.Sprintf("%d ops baseline", prog.NumOps()), dTree))
		mExec := metric(fmt.Sprintf("%s n=%d exec x%d", wl.name, n, k), "match=true", dExec)
		mExec.Speedup = float64(dTree) / float64(dExec)
		e.emit(mExec)

		// Part two: cold serving vs warm-start from a snapshot.
		serve := func(eng *engine.Engine) (time.Duration, int) {
			hits := 0
			start := time.Now()
			for _, h2 := range variants {
				res := eng.Do(engine.Job{Query: wl.q, Instance: h2, Opts: opts})
				e.check(res.Err)
				if res.PlanHit {
					hits++
				}
			}
			return time.Since(start), hits
		}
		cold := engine.New(engine.Options{Workers: 1})
		dCold, _ := serve(cold)
		var snap bytes.Buffer
		saved, err := cold.SavePlans(&snap)
		e.check(err)
		e.check(cold.Close())
		warm := engine.New(engine.Options{Workers: 1})
		_, err = warm.LoadPlans(bytes.NewReader(snap.Bytes()))
		e.check(err)
		dWarm, warmHits := serve(warm)
		st := warm.Stats()
		e.check(warm.Close())
		mCold := metric(fmt.Sprintf("%s n=%d cold x%d", wl.name, n, k),
			fmt.Sprintf("snapshot=%d plans", saved), dCold)
		mCold.Counters = map[string]int64{"snapshot_bytes": int64(snap.Len())}
		e.emit(mCold)
		mWarm := metric(fmt.Sprintf("%s n=%d warm x%d", wl.name, n, k),
			fmt.Sprintf("plan_hits=%d/%d compiles=%d", warmHits, k, st.PlanCompiles), dWarm)
		mWarm.Speedup = float64(dCold) / float64(dWarm)
		e.emit(mWarm)
		if st.PlanCompiles != 0 {
			e.fatalf("warm-started engine compiled %d plans, want 0", st.PlanCompiles)
		}
		if warmHits != k {
			e.fatalf("warm-started engine served %d/%d plan hits", warmHits, k)
		}
	}
}

// runFloatPath covers E22: the dual-precision evaluation of the Program
// IR. Part one measures raw substrate throughput over a reweight stream
// on the 2WP and DWT workloads — the exact interpreter
// (Program.ExecCtx) against the certified float64 interval kernel run
// one vector at a time (Program.ExecFloatBatchCtx, one lane) — asserting for every evaluation that the exact
// answer lies inside the kernel's reported enclosure (the containment
// guarantee is a hard invariant, so its violation fails the
// experiment). Part two sweeps the auto-mode tolerance and reports the
// fallback rate: how many evaluations the engine would answer from the
// float path at each tolerance, checking that every fallback answer is
// byte-identical to the exact one.
func runFloatPath(e *E) {
	r := e.r
	one := []graph.Label{"R"}
	un := []graph.Label{graph.Unlabeled}
	n := *maxN / 4
	if n < 64 {
		n = 64
	}
	// Single-label workloads, so the query matches densely across the
	// instance and the lowered programs are genuinely linear-size (a
	// sparse-matching query prunes to a handful of ops, which would
	// benchmark per-call overhead instead of the substrates).
	workloads := []reweightWorkload{
		{"2WP (Prop 4.11)", graph.Path2WP(graph.Fwd("R"), graph.Bwd("R"), graph.Fwd("R"), graph.Bwd("R"), graph.Fwd("R")),
			gen.RandProb(r, gen.RandInClass(r, graph.Class2WP, n, one), 0.5)},
		{"DWT (Prop 3.6)", graph.UnlabeledPath(3),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, un), 0.5)},
	}
	opts := &core.Options{DisableFallback: true}
	for _, wl := range workloads {
		// Probabilities with four decimal digits, the shape of real
		// traffic ("0.8437"): non-dyadic, so the float path genuinely
		// rounds and the enclosure is exercised, and with denominators
		// that make exact products grow the way production reweights do.
		assignments := make([][]*big.Rat, *reweights)
		for i := range assignments {
			probs := make([]*big.Rat, wl.h.G.NumEdges())
			for ei := range probs {
				probs[ei] = big.NewRat(int64(r.Intn(10001)), 10000)
			}
			assignments[i] = probs
		}
		k := len(assignments)
		cp, err := core.Compile(wl.q, wl.h, opts)
		e.check(err)
		prog := cp.Program()

		// Part one: substrate throughput, with containment checked on
		// every single evaluation.
		ctx := context.Background()
		exact := make([]*big.Rat, k)
		start := time.Now()
		for i, probs := range assignments {
			exact[i], err = prog.ExecCtx(ctx, probs)
			e.check(err)
		}
		dExact := time.Since(start)
		enclosures := make([]plan.Enclosure, k)
		start = time.Now()
		for i, probs := range assignments {
			lane, err := prog.ExecFloatBatchCtx(ctx, [][]*big.Rat{probs})
			e.check(err)
			enclosures[i] = lane[0]
		}
		dFloat := time.Since(start)
		// Containment is verified outside the timed loop (the check
		// itself runs rational arithmetic).
		var maxWidth float64
		for i, iv := range enclosures {
			if !iv.Contains(exact[i]) {
				e.fatalf("%s: exact answer %s outside certified enclosure [%g, %g]",
					wl.name, exact[i].RatString(), iv.Lo, iv.Hi)
			}
			if iv.Width() > maxWidth {
				maxWidth = iv.Width()
			}
		}
		e.emit(metric(fmt.Sprintf("%s n=%d exact x%d", wl.name, n, k),
			fmt.Sprintf("%d ops baseline", prog.NumOps()), dExact))
		mFloat := metric(fmt.Sprintf("%s n=%d float x%d", wl.name, n, k),
			fmt.Sprintf("contained=%d/%d width≤%.1e", k, k, maxWidth), dFloat)
		mFloat.Speedup = float64(dExact) / float64(dFloat)
		e.emit(mFloat)

		// The batched kernel over the same vectors: one dispatch per
		// instruction for all lanes. Its contract is bitwise equality
		// with the one-lane runs, so the enclosures are compared
		// exactly, not within a tolerance.
		start = time.Now()
		batched, err := prog.ExecFloatBatchCtx(ctx, assignments)
		e.check(err)
		dBatch := time.Since(start)
		for i, iv := range batched {
			if iv != enclosures[i] {
				e.fatalf("%s: batched lane %d enclosure [%g, %g] != one-lane [%g, %g]",
					wl.name, i, iv.Lo, iv.Hi, enclosures[i].Lo, enclosures[i].Hi)
			}
		}
		mBatch := metric(fmt.Sprintf("%s n=%d float batched x%d", wl.name, n, k),
			fmt.Sprintf("lanes=%d bitwise-equal", k), dBatch)
		mBatch.Speedup = float64(dFloat) / float64(dBatch)
		e.emit(mBatch)

		// Part two: auto-mode fallback rate across tolerances. A
		// tolerance below the kernel's actual width forces exact
		// fallback on every job; anything above it serves pure float.
		for _, tol := range []float64{1e-6, 1e-9, 1e-12, 1e-15} {
			aopts := &core.Options{DisableFallback: true, Precision: core.PrecisionAuto, FloatTolerance: tol}
			fast, fallbacks := 0, 0
			start = time.Now()
			for i, probs := range assignments {
				res, err := cp.Evaluate(ctx, probs, aopts)
				e.check(err)
				if res.Precision == core.PrecisionFast {
					fast++
				} else {
					fallbacks++
					if res.Prob.Cmp(exact[i]) != 0 {
						e.fatalf("%s: auto fallback diverged from exact", wl.name)
					}
				}
			}
			d := time.Since(start)
			e.emit(metric(fmt.Sprintf("%s n=%d auto tol=%.0e", wl.name, n, tol),
				fmt.Sprintf("fast=%d fallback=%d (%.0f%%)", fast, fallbacks, 100*float64(fallbacks)/float64(k)), d))
		}
	}
}

// runBatchedReweight covers E24: end-to-end reweight throughput through
// the engine as a function of batch width. One tractable structure
// (dense 2WP and DWT workloads, as in E22), many distinct probability
// vectors; width 1 loops Engine.Do per vector — paying
// canonicalization, key hashing and scheduling per job — while widths
// 8/64/256 submit the vectors in SolveBatch chunks, which the engine's
// same-structure grouping routes through the vectorized kernel as one
// keying pass and one dispatch per chunk. Results must be
// byte-identical across widths (the batched kernel is bitwise equal to
// per-vector evaluation), the BatchRuns/BatchLanes counters must
// account for every lane, and the width-64 speedup over width-1 has a
// hard floor. The probability vectors are all distinct on purpose:
// identical lanes would be coalesced by the engine's in-group dedup and
// the measurement would collapse.
func runBatchedReweight(e *E) {
	r := e.r
	one := []graph.Label{"R"}
	un := []graph.Label{graph.Unlabeled}
	// Mid-sized instances: large enough that the lowered programs are
	// real work, small enough that the per-job fixed costs the batched
	// path amortizes stay visible next to the per-lane arithmetic.
	n := *maxN / 32
	if n < 48 {
		n = 48
	}
	vectors := 4 * (*reweights)
	workloads := []reweightWorkload{
		{"2WP (Prop 4.11)", graph.Path2WP(graph.Fwd("R"), graph.Bwd("R"), graph.Fwd("R"), graph.Bwd("R"), graph.Fwd("R")),
			gen.RandProb(r, gen.RandInClass(r, graph.Class2WP, n, one), 0.5)},
		{"DWT (Prop 3.6)", graph.UnlabeledPath(3),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, un), 0.5)},
	}
	opts := &core.Options{DisableFallback: true, Precision: core.PrecisionFast}
	for _, wl := range workloads {
		numEdges := wl.h.G.NumEdges()
		makeLane := func() *graph.ProbGraph {
			inst := wl.h.CloneProbs()
			for ei := 0; ei < numEdges; ei++ {
				e.check(inst.SetProb(ei, big.NewRat(int64(r.Intn(10001)), 10000)))
			}
			return inst
		}
		jobs := make([]engine.Job, vectors)
		for i := range jobs {
			jobs[i] = engine.Job{Query: wl.q, Instance: makeLane(), Opts: opts}
		}
		warmup := engine.Job{Query: wl.q, Instance: makeLane(), Opts: opts}

		var baseline []string
		var d1 time.Duration
		for _, w := range []int{1, 8, 64, 256} {
			if w > vectors {
				continue
			}
			// Each width runs three times on a fresh engine with
			// memoization off — every vector is genuinely evaluated, the
			// warmup job pre-compiles the structure so each rep measures
			// evaluation rather than the one-off compile, and the best of
			// the three reps is recorded (per-width elapsed is a few
			// milliseconds, where scheduler noise would otherwise dominate
			// the width-to-width ratios).
			var d time.Duration
			var st engine.Stats
			var got []string
			for rep := 0; rep < 3; rep++ {
				eng := engine.New(engine.Options{CacheSize: -1})
				if res := eng.Do(warmup); res.Err != nil {
					e.check(res.Err)
				}
				got = make([]string, vectors)
				start := time.Now()
				if w == 1 {
					for i, j := range jobs {
						res := eng.Do(j)
						e.check(res.Err)
						got[i] = res.Result.Prob.RatString()
					}
				} else {
					for lo := 0; lo < vectors; lo += w {
						hi := lo + w
						if hi > vectors {
							hi = vectors
						}
						for i, res := range eng.SolveBatch(jobs[lo:hi]) {
							e.check(res.Err)
							got[lo+i] = res.Result.Prob.RatString()
						}
					}
				}
				dr := time.Since(start)
				st = eng.Stats()
				e.check(eng.Close())
				if rep == 0 || dr < d {
					d = dr
				}
			}

			if w == 1 {
				baseline, d1 = got, d
			} else {
				for i := range got {
					if got[i] != baseline[i] {
						e.fatalf("%s width=%d: lane %d diverged from width-1 (%s vs %s)",
							wl.name, w, i, got[i], baseline[i])
					}
				}
				wantRuns := uint64((vectors + w - 1) / w)
				if st.BatchRuns != wantRuns || st.BatchLanes != uint64(vectors) {
					e.fatalf("%s width=%d: batch_runs=%d batch_lanes=%d, want %d/%d",
						wl.name, w, st.BatchRuns, st.BatchLanes, wantRuns, vectors)
				}
			}
			m := metric(fmt.Sprintf("%s n=%d width=%d", wl.name, n, w),
				fmt.Sprintf("vectors=%d", vectors), d)
			m.Counters = map[string]int64{
				"batch_runs":    int64(st.BatchRuns),
				"batch_lanes":   int64(st.BatchLanes),
				"plan_compiles": int64(st.PlanCompiles),
			}
			m.OpsPerSec = float64(vectors) / d.Seconds()
			if w > 1 {
				m.Speedup = float64(d1) / float64(d)
				// The conservative in-code floor; the recorded artifact
				// carries the actual ratio (well above this on an idle
				// machine — see EXPERIMENTS.md E24).
				if w == 64 && m.Speedup < 2 {
					e.fatalf("%s: width-64 speedup %.2fx below the 2x floor", wl.name, m.Speedup)
				}
			}
			e.emit(m)
		}
	}
}

// runWorkloadFamilies covers E23: the phomgen random-graph families
// (Erdős–Rényi, Barabási–Albert, power-law) as instances across the
// dispatch lattice. For each family it asserts (1) class membership of
// the generated instance, (2) a lossless graphio wire round-trip,
// (3) the dispatch-lattice verdict census over a graded query ladder
// plus a reachability UCQ — these random models land in #P-hard cells,
// which is exactly why they matter: they exercise the fallback path —
// and (4) needle-query throughput through the public request API
// (phom.SolveContext) with a match limit: walk-derived 1WP queries over
// fresh probability assignments, every outcome accounted as ok or
// limit — plus (5) a hard-cell row on a 4× larger instance, past where
// the lineage fallback's match enumeration is affordable, answered by
// the seeded Karp–Luby estimator with statistical bounds and a
// byte-identical same-seed twin.
func runWorkloadFamilies(e *E) {
	r := e.r
	rs := []graph.Label{"R", "S"}
	// E23 is a coverage-and-accounting experiment, not a scaling sweep:
	// the instance size is pinned (modulo very small -maxn overrides) so
	// the needle phase keeps a mix of completed and limit-bounded
	// outcomes on every family. On hub-heavy BA instances the match
	// count grows sharply with n, and much past ~48 vertices every
	// needle exceeds any affordable match limit, which would make the
	// ok/limit split degenerate.
	n := 48
	if *maxN/64 < n {
		n = *maxN / 64
	}
	if n < 16 {
		n = 16
	}
	const matchLimit = 48
	for _, f := range []gen.Family{gen.FamER, gen.FamBA, gen.FamPLaw} {
		// (1) Generation + class membership.
		start := time.Now()
		g := gen.RandFamily(r, f, n, rs)
		if !g.InClass(f.Class()) {
			e.fatalf("%v instance left its claimed class %v", f, f.Class())
		}
		h := gen.RandProb(r, g, 0.5)
		dGen := time.Since(start)
		mGen := metric(fmt.Sprintf("%s n=%d membership", f, n),
			fmt.Sprintf("class=%v", f.Class()), dGen)
		mGen.Counters = map[string]int64{
			"vertices":  int64(g.NumVertices()),
			"edges":     int64(g.NumEdges()),
			"uncertain": int64(len(h.UncertainEdges())),
		}
		e.emit(mGen)

		// (2) graphio wire round-trip.
		start = time.Now()
		var buf bytes.Buffer
		e.check(graphio.WriteProbGraph(&buf, h))
		wire := buf.Len()
		parsed, err := graphio.ParseProbGraph(&buf)
		e.check(err)
		dRT := time.Since(start)
		if parsed.G.NumVertices() != g.NumVertices() || parsed.G.NumEdges() != g.NumEdges() {
			e.fatalf("%v round-trip changed the graph", f)
		}
		for i := 0; i < g.NumEdges(); i++ {
			if parsed.Prob(i).Cmp(h.Prob(i)) != 0 {
				e.fatalf("%v round-trip changed probability of edge %d", f, i)
			}
		}
		mRT := metric(fmt.Sprintf("%s n=%d graphio round-trip", f, n), "match=true", dRT)
		mRT.Counters = map[string]int64{"wire_bytes": int64(wire)}
		e.emit(mRT)

		// (3) Verdict census: where does this family land in Tables 1–3
		// for a graded query ladder + reachability UCQ? Random models are
		// class-All/Connected instances, so most cells are #P-hard — the
		// census records the lattice's answer rather than assuming it.
		start = time.Now()
		var queries []*graph.Graph
		for _, qc := range []graph.Class{graph.Class1WP, graph.Class2WP, graph.ClassDWT, graph.ClassPT} {
			queries = append(queries, gen.QueryLadder(r, qc, 3, 5, rs)...)
		}
		queries = append(queries, gen.ReachabilityUCQ(3, "R")...)
		var tractable, hard int64
		for _, q := range queries {
			_, _, _, v := core.PredictInput(q, h)
			if v.Tractable {
				tractable++
			} else {
				hard++
			}
		}
		dCensus := time.Since(start)
		mCensus := metric(fmt.Sprintf("%s n=%d verdict census", f, n),
			fmt.Sprintf("queries=%d", len(queries)), dCensus)
		mCensus.Counters = map[string]int64{"tractable": tractable, "hard": hard}
		e.emit(mCensus)

		// (4) Needle throughput through the public request API: the hard
		// cells are served by the lineage fallback, kept cheap by walk
		// queries (guaranteed matches) under a match limit. The brute
		// force limit is lowered so world enumeration only runs when it
		// is genuinely cheap (≤ 2^8 worlds) — at the default limit these
		// instances sit just under it and would enumerate 2^20 worlds.
		// Every outcome must be accounted ok or limit; anything else
		// fails.
		needles := make([]*graph.Graph, 0, 8)
		for len(needles) < 8 {
			q := gen.RandWalkQuery(r, g, 1+len(needles)%3)
			if q == nil {
				break
			}
			needles = append(needles, q)
		}
		if len(needles) == 0 {
			e.fatalf("%v instance has no edges to derive needle queries from", f)
		}
		var ok, limit int64
		ctx := context.Background()
		start = time.Now()
		for i := 0; i < *reweights; i++ {
			h2 := gen.RandProb(r, g, 0.5)
			req := phom.NewRequest(needles[i%len(needles)], h2,
				phom.WithMatchLimit(matchLimit), phom.WithBruteForceLimit(8))
			_, err := phom.SolveContext(ctx, req)
			switch {
			case err == nil:
				ok++
			case phomerr.CodeOf(err) == phomerr.CodeLimit:
				limit++
			default:
				e.fatalf("%v needle %d: unaccounted outcome: %v", f, i, err)
			}
		}
		dNeedle := time.Since(start)
		if ok == 0 {
			e.fatalf("%v: no needle query completed under match limit %d", f, matchLimit)
		}
		mNeedle := metric(fmt.Sprintf("%s n=%d needles x%d", f, n, *reweights), "accounted=true", dNeedle)
		mNeedle.Counters = map[string]int64{"ok": ok, "limit": limit}
		if s := dNeedle.Seconds(); s > 0 {
			mNeedle.OpsPerSec = float64(*reweights) / s
		}
		e.emit(mNeedle)

		// (5) The hard-cell size unpinned: the pinned n above exists
		// because the lineage fallback's match enumeration outgrows any
		// affordable limit — the reason the needle phase caps n at ~48.
		// On a 4× larger twin of the family the same public API answers
		// a hard cell through the seeded Karp–Luby estimator instead: no
		// match limit, no brute-force horizon, statistical bounds, and a
		// same-seed twin byte-identical (the serving tier's caching
		// contract). The needle is the first walk query whose verdict is
		// #P-hard, so the row genuinely exercises the approx path.
		nBig := 4 * n
		gBig := gen.RandFamily(r, f, nBig, rs)
		// Interior probabilities k/16 ∈ (0,1) on every edge: a single
		// probability-1 edge would let the estimator short-circuit a
		// one-variable clause exactly and record a degenerate zero-sample
		// row instead of a sampling run.
		hBig := graph.NewProbGraph(gBig)
		for i := 0; i < gBig.NumEdges(); i++ {
			e.check(hBig.SetProb(i, big.NewRat(int64(1+r.Intn(15)), 16)))
		}
		var qBig *graph.Graph
		for _, wl := range []int{1, 2, 3} {
			q := gen.RandWalkQuery(r, gBig, wl)
			if q == nil {
				continue
			}
			if _, _, _, v := core.PredictInput(q, hBig); !v.Tractable {
				qBig = q
				break
			}
		}
		if qBig == nil {
			e.fatalf("%v n=%d: no walk query landed in a hard cell", f, nBig)
		}
		req := phom.NewRequest(qBig, hBig,
			phom.WithPrecision(phom.PrecisionApprox),
			phom.WithEpsilon(0.3), phom.WithDelta(0.2), phom.WithSeed(uint64(*seed)))
		start = time.Now()
		res, err := phom.SolveContext(ctx, req)
		e.check(err)
		dBig := time.Since(start)
		if res.Method != core.MethodKarpLuby || res.Bounds == nil {
			e.fatalf("%v n=%d: hard cell served by %v without bounds", f, nBig, res.Method)
		}
		p, _ := res.Prob.Float64()
		if p < res.Bounds.Lo || p > res.Bounds.Hi || res.Bounds.Lo < 0 || res.Bounds.Hi > 1 {
			e.fatalf("%v n=%d: approx estimate %v outside its bounds %+v", f, nBig, p, res.Bounds)
		}
		twin, err := phom.SolveContext(ctx, req)
		e.check(err)
		if twin.Prob.Cmp(res.Prob) != 0 || twin.ApproxSamples != res.ApproxSamples {
			e.fatalf("%v n=%d: same-seed approx twin diverged", f, nBig)
		}
		if res.ApproxSamples <= 0 {
			e.fatalf("%v n=%d: approx needle drew no samples", f, nBig)
		}
		mBig := metric(fmt.Sprintf("%s n=%d approx needle", f, nBig),
			fmt.Sprintf("method=%v twin=equal", res.Method), dBig)
		mBig.Counters = map[string]int64{"samples": res.ApproxSamples}
		mBig.OpsPerSec = float64(res.ApproxSamples) / dBig.Seconds()
		e.emit(mBig)
	}
}
