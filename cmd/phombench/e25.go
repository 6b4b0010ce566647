package main

// e25.go — E25: the sharded serving tier (phomgate) end to end.
//
// The experiment measures what ROADMAP item 2 claims: sharding jobs by
// structure key multiplies the per-process plan cache instead of
// diluting it. Every replica runs with the same per-process resource
// ceiling — one engine worker and a fixed plan-cache budget smaller
// than the workload's structure set — exactly the regime where a single
// phomserve thrashes: with S structures cycling round-robin through an
// LRU of K < S plans, every request evicts before it can hit, so the
// single process pays a fresh compile per request forever. A gate over
// four replicas consistent-hashes the same S structures into slices of
// about S/4 ≤ K, so after one warm pass every replica serves its whole
// slice as plan hits and the steady-state compile count is zero. The
// compile/evaluate asymmetry (E20) turns that cache effect into
// aggregate throughput — which is why the ≥2x floor below holds even
// on a single-core host, where a parallelism-only tier could never
// beat one process.
//
// Phases, all over the same seeded workload (S structures, a
// 2WP-heavy mix with DWT cells interleaved, fast precision with the
// certified float64 kernel — the regime where a compile costs many
// times an evaluation, as in E24):
//
//   - aggregate reweight: multi-vector /reweight (probs_batch) requests
//     round-robin over the structures, fired at a direct single
//     backend, then through the gate at 1, 2 and 4 replicas. Answers
//     must be byte-identical across all tiers; the compile counts must
//     show the mechanism (one process: one compile per request on an
//     in-order replay; 4 replicas: zero in the timed phase); the
//     4-replica speedup has a hard 2x floor.
//   - mixed stream batch: /batch?stream=1 batches mixing solves across
//     the structure set, stream-merged by the gate. Verifies one line
//     per job and one trailer at every tier and that multi-replica
//     tiers actually fan batches out across shards.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"phom/internal/engine"
	"phom/internal/gateway"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/serve"
)

// e25Workload is the seeded request material shared by every tier.
type e25Workload struct {
	n          int
	structures []e25Structure
	reweights  [][]byte   // R prebuilt probs_batch bodies, round-robin over structures
	vectors    int        // probability vectors per reweight request
	batches    [][]byte   // prebuilt stream-batch bodies
	batchJobs  int        // jobs per batch
	warm       [][]byte   // one single-vector reweight per structure
	expect     [][]string // baseline probs per reweight request (filled by the direct tier)
}

type e25Structure struct {
	queryText string
	instText  string
	edges     []graph.Edge
}

const (
	e25Structures = 32
	// e25PlanCache is each process's plan-cache budget: above a
	// 4-replica shard slice even under ring skew (fair share ~8 of 32
	// structures, observed worst case 16), below the full set — the
	// "per-process ceiling" every tier gets one unit of.
	e25PlanCache   = 20
	e25Concurrency = 16
)

// e25Opts pins every request to the certified fast path: the workload
// measures serving-tier dispatch and plan-cache economics, so per-lane
// arithmetic is the cheap float64 kernel, as in E24.
var e25Opts = map[string]any{"precision": "fast", "disable_fallback": true}

func e25Text(p *graph.ProbGraph) string {
	var buf bytes.Buffer
	_ = graphio.WriteProbGraph(&buf, p)
	return buf.String()
}

func buildE25Workload(e *E) *e25Workload {
	r := e.r
	n := *maxN / 16
	if n < 40 {
		n = 40
	}
	if n > 192 {
		n = 192
	}
	w := &e25Workload{n: n, vectors: 4, batchJobs: 8}
	one := []graph.Label{"R"}
	un := []graph.Label{graph.Unlabeled}
	q2wp := graph.Path2WP(graph.Fwd("R"), graph.Bwd("R"), graph.Fwd("R"))
	qdwt := graph.UnlabeledPath(3)
	for s := 0; s < e25Structures; s++ {
		var q *graph.Graph
		var inst *graph.ProbGraph
		if s%4 != 3 {
			q = q2wp
			inst = gen.RandProb(r, gen.RandInClass(r, graph.Class2WP, n, one), 0.5)
		} else {
			q = qdwt
			inst = gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, un), 0.5)
		}
		var qb bytes.Buffer
		e.check(graphio.WriteGraph(&qb, q))
		w.structures = append(w.structures, e25Structure{
			queryText: qb.String(),
			instText:  e25Text(inst),
			edges:     inst.G.Edges(),
		})
	}
	probsVec := func(st e25Structure) map[string]string {
		vec := map[string]string{}
		for i := 0; i < 3; i++ {
			ed := st.edges[r.Intn(len(st.edges))]
			vec[fmt.Sprintf("%d>%d", ed.From, ed.To)] = fmt.Sprintf("%d/17", 1+r.Intn(16))
		}
		return vec
	}
	rounds := 1 + *reweights/16
	if rounds < 2 {
		rounds = 2
	}
	requests := e25Structures * rounds
	for i := 0; i < requests; i++ {
		st := w.structures[i%e25Structures]
		vecs := make([]map[string]string, w.vectors)
		for v := range vecs {
			vecs[v] = probsVec(st)
		}
		body, err := json.Marshal(map[string]any{
			"query_text": st.queryText, "instance_text": st.instText, "probs_batch": vecs,
			"options": e25Opts,
		})
		e.check(err)
		w.reweights = append(w.reweights, body)
	}
	for s, st := range w.structures {
		body, err := json.Marshal(map[string]any{
			"query_text": st.queryText, "instance_text": st.instText,
			"probs_batch": []map[string]string{probsVec(w.structures[s])},
			"options":     e25Opts,
		})
		e.check(err)
		w.warm = append(w.warm, body)
	}
	for b := 0; b < requests/4; b++ {
		jobs := make([]map[string]any, w.batchJobs)
		for j := range jobs {
			st := w.structures[(b*w.batchJobs+j)%e25Structures]
			jobs[j] = map[string]any{"query_text": st.queryText, "instance_text": st.instText, "options": e25Opts}
		}
		body, err := json.Marshal(map[string]any{"jobs": jobs})
		e.check(err)
		w.batches = append(w.batches, body)
	}
	return w
}

// e25Tier is one deployment under test: replicas plus (optionally) a
// gate in front.
type e25Tier struct {
	name    string
	base    string
	engines []*engine.Engine
	gate    *gateway.Gateway
	gateURL string
	closers []func()
}

func startE25Tier(e *E, name string, replicas int, withGate bool) *e25Tier {
	t := &e25Tier{name: name}
	urls := make([]string, replicas)
	for i := 0; i < replicas; i++ {
		eng := engine.New(engine.Options{Workers: 1, CacheSize: -1, PlanCacheSize: e25PlanCache})
		srv := httptest.NewServer(serve.New(eng).Handler())
		t.engines = append(t.engines, eng)
		t.closers = append(t.closers, srv.Close, func() { _ = eng.Close() })
		urls[i] = srv.URL
	}
	t.base = urls[0]
	if withGate {
		g, err := gateway.New(gateway.Config{Backends: urls})
		e.check(err)
		gsrv := httptest.NewServer(g.Handler())
		t.closers = append(t.closers, gsrv.Close, g.Close)
		t.base, t.gate, t.gateURL = gsrv.URL, g, gsrv.URL
	}
	return t
}

func (t *e25Tier) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

func (t *e25Tier) planCompiles() uint64 {
	var n uint64
	for _, eng := range t.engines {
		n += eng.Stats().PlanCompiles
	}
	return n
}

// e25Client is a pooled keep-alive client sized for the firing pool.
func e25Client() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * e25Concurrency,
		MaxIdleConnsPerHost: e25Concurrency,
	}}
}

// fireReweights posts every prebuilt reweight body from a pool of
// workers (1 replays the bodies in order) and returns the wall-clock
// and the per-request prob strings (in request order).
func fireReweights(e *E, client *http.Client, base string, bodies [][]byte, workers int) (time.Duration, [][]string) {
	out := make([][]string, len(bodies))
	errs := make(chan error, workers)
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				resp, err := client.Post(base+"/reweight", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					errs <- err
					return
				}
				var rr struct {
					Results []struct {
						ProbFloat *float64 `json:"prob_float"`
						Err       string   `json:"error"`
					} `json:"results"`
				}
				derr := json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil {
					errs <- fmt.Errorf("reweight %d: status %d (%v)", i, resp.StatusCode, derr)
					return
				}
				probs := make([]string, len(rr.Results))
				for v, res := range rr.Results {
					if res.Err != "" || res.ProbFloat == nil {
						errs <- fmt.Errorf("reweight %d vector %d: no prob_float (%s)", i, v, res.Err)
						return
					}
					probs[v] = strconv.FormatFloat(*res.ProbFloat, 'g', -1, 64)
				}
				out[i] = probs
			}
		}()
	}
	for i := range bodies {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		e.check(err)
	}
	return elapsed, out
}

// fireStreams posts every prebuilt batch with ?stream=1, verifying one
// indexed line per job and exactly one trailer per stream.
func fireStreams(e *E, client *http.Client, base string, bodies [][]byte, jobsPer int) time.Duration {
	errs := make(chan error, e25Concurrency)
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < e25Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				resp, err := client.Post(base+"/batch?stream=1", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					errs <- err
					return
				}
				lines, trailers := 0, 0
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 64<<10), 8<<20)
				for sc.Scan() {
					var m struct {
						Done  bool   `json:"done"`
						Index *int   `json:"index"`
						Code  string `json:"code"`
					}
					if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
						errs <- fmt.Errorf("batch %d: bad line: %v", i, err)
						resp.Body.Close()
						return
					}
					switch {
					case m.Done:
						trailers++
					case m.Index != nil:
						if m.Code != "" {
							errs <- fmt.Errorf("batch %d job %d: error code %q", i, *m.Index, m.Code)
							resp.Body.Close()
							return
						}
						lines++
					}
				}
				scanErr := sc.Err()
				resp.Body.Close()
				if scanErr != nil || resp.StatusCode != http.StatusOK || lines != jobsPer || trailers != 1 {
					errs <- fmt.Errorf("batch %d: status %d, %d lines for %d jobs, %d trailers (%v)",
						i, resp.StatusCode, lines, jobsPer, trailers, scanErr)
					return
				}
			}
		}()
	}
	for i := range bodies {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		e.check(err)
	}
	return elapsed
}

func (t *e25Tier) crossShardBatches(e *E) uint64 {
	if t.gate == nil {
		return 0
	}
	resp, err := http.Get(t.gateURL + "/healthz")
	e.check(err)
	var h gateway.Health
	derr := json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	e.check(derr)
	return h.CrossShardBatches
}

// runGateTier covers E25.
func runGateTier(e *E) {
	w := buildE25Workload(e)
	client := e25Client()
	tiers := []struct {
		name     string
		replicas int
		gate     bool
	}{
		{"direct replicas=1", 1, false},
		{"gate replicas=1", 1, true},
		{"gate replicas=2", 2, true},
		{"gate replicas=4", 4, true},
	}
	var d1 time.Duration
	var s1 time.Duration
	for ti, spec := range tiers {
		tier := startE25Tier(e, spec.name, spec.replicas, spec.gate)

		// Warm pass: compile each structure once wherever the ring puts
		// it. Steady state, not compile cost, is what the tiers are
		// being compared on — and a thrashing cache shows up precisely
		// as steady-state compiles.
		_, _ = fireReweights(e, client, tier.base, w.warm, e25Concurrency)
		warmCompiles := tier.planCompiles()

		d, got := fireReweights(e, client, tier.base, w.reweights, e25Concurrency)
		timedCompiles := tier.planCompiles() - warmCompiles
		if ti == 0 {
			w.expect = got
		} else {
			for i := range got {
				for v := range got[i] {
					if got[i][v] != w.expect[i][v] {
						e.fatalf("%s: request %d vector %d answered %s, direct baseline %s",
							spec.name, i, v, got[i][v], w.expect[i][v])
					}
				}
			}
		}
		// The mechanism, pinned: four shard slices fit their caches and
		// never compile again. (The single-process thrash is pinned on
		// a sequential replay below: concurrent arrival reorders the
		// round-robin, so a timed request can hit.)
		if spec.replicas == 4 && timedCompiles != 0 {
			e.fatalf("%s: %d steady-state compiles, want 0 (shard slices must fit the per-process cache)",
				spec.name, timedCompiles)
		}

		m := metric(fmt.Sprintf("reweight %s", spec.name),
			fmt.Sprintf("structures=%d requests=%d vectors=%d n=%d", e25Structures, len(w.reweights), w.vectors, w.n), d)
		m.OpsPerSec = float64(len(w.reweights)*w.vectors) / d.Seconds()
		if spec.replicas == 4 {
			m.Counters = map[string]int64{"timed_plan_compiles": int64(timedCompiles)}
		}
		if ti == 0 {
			d1 = d
		} else {
			m.Speedup = float64(d1) / float64(d)
			// The hard floor applies at full scale, where a compile
			// costs many times a request's parse+evaluate overhead (2WP
			// compilation is superlinear — see E20). At smoke scale
			// (-maxn ≤ 2560 → n < 160) compiles shrink toward the fixed
			// costs and the tier only records the ratio.
			if spec.replicas == 4 && w.n >= 160 && m.Speedup < 2 {
				e.fatalf("4-replica aggregate reweight speedup %.2fx below the 2x floor", m.Speedup)
			}
		}
		e.emit(m)

		sd := fireStreams(e, client, tier.base, w.batches, w.batchJobs)
		cross := tier.crossShardBatches(e)
		if spec.replicas > 1 && cross == 0 {
			e.fatalf("%s: no stream batch crossed shards", spec.name)
		}
		sm := metric(fmt.Sprintf("mixed stream batch %s", spec.name),
			fmt.Sprintf("batches=%d jobs=%d", len(w.batches), w.batchJobs), sd)
		sm.OpsPerSec = float64(len(w.batches)*w.batchJobs) / sd.Seconds()
		if spec.gate {
			sm.Counters = map[string]int64{"cross_shard_batches": int64(cross)}
		}
		if ti == 0 {
			s1 = sd
		} else {
			sm.Speedup = float64(s1) / float64(sd)
		}
		e.emit(sm)

		// A single process over S structures with a K<S LRU plan cache
		// must compile on every request of an in-order round-robin: the
		// warm bodies replay structures 0..S-1, so each timed request's
		// K predecessors are the K structures before it in the cycle,
		// never itself.
		if spec.replicas == 1 {
			_, _ = fireReweights(e, client, tier.base, w.warm, 1)
			before := tier.planCompiles()
			_, _ = fireReweights(e, client, tier.base, w.reweights, 1)
			if n := tier.planCompiles() - before; n != uint64(len(w.reweights)) {
				e.fatalf("%s: %d compiles replaying %d requests in order (the per-process cache must thrash)",
					spec.name, n, len(w.reweights))
			}
		}

		tier.close()
	}

	// Sanity anchor: the fast path's certified answers are genuine
	// probabilities.
	for _, probs := range w.expect[:1] {
		for _, p := range probs {
			f, err := strconv.ParseFloat(p, 64)
			if err != nil || f < 0 || f > 1 {
				e.fatalf("baseline prob %q is not a probability", p)
			}
		}
	}
}
