package engine

import (
	"errors"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"phom/internal/core"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/phomerr"
)

// mixedWorkload builds distinct jobs spanning the tractable cells of
// Tables 1–3 (plus small brute-force and UCQ jobs), duplicates each dup
// times, and returns the shuffled list.
func mixedWorkload(t *testing.T, seed int64, dup int) []Job {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rs := []graph.Label{"R", "S"}
	un := []graph.Label{graph.Unlabeled}
	var distinct []Job
	for i := 0; i < 6; i++ {
		// Prop 4.10: labeled 1WP query on a ⊔DWT instance.
		distinct = append(distinct, Job{
			Query:    gen.Rand1WP(r, 4, rs),
			Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 40, rs), 0.5),
		})
		// Prop 4.11: connected query on a ⊔2WP instance.
		distinct = append(distinct, Job{
			Query:    gen.RandConnected(r, 4, 1, rs),
			Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, 40, rs), 0.5),
		})
		// Prop 3.6: arbitrary unlabeled query on a ⊔DWT instance.
		distinct = append(distinct, Job{
			Query:    gen.RandGraph(r, 5, 7, un),
			Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 40, un), 0.5),
		})
		// Props 5.4/5.5: unlabeled DWT query on a ⊔PT instance.
		distinct = append(distinct, Job{
			Query:    gen.RandDWT(r, 4, un),
			Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassUPT, 30, un), 0.5),
		})
		// Exponential baseline on a small general instance.
		distinct = append(distinct, Job{
			Query:    gen.Rand1WP(r, 3, rs),
			Instance: gen.RandProb(r, gen.RandGraph(r, 5, 8, rs), 0.3),
		})
		// A union of conjunctive queries on a ⊔2WP instance.
		distinct = append(distinct, Job{
			Queries:  []*graph.Graph{gen.Rand1WP(r, 3, rs), gen.Rand1WP(r, 4, rs)},
			Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, 30, rs), 0.5),
		})
	}
	var jobs []Job
	for _, j := range distinct {
		for d := 0; d < dup; d++ {
			jobs = append(jobs, j)
		}
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

func solveSequential(t *testing.T, jobs []Job) []*core.Result {
	t.Helper()
	out := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		var err error
		if len(j.Queries) > 0 {
			out[i], err = core.SolveUCQ(j.Queries, j.Instance, j.Opts)
		} else {
			out[i], err = core.Solve(j.Query, j.Instance, j.Opts)
		}
		if err != nil {
			t.Fatalf("sequential job %d: %v", i, err)
		}
	}
	return out
}

// TestBatchMatchesSequential is the acceptance stress test: a 100+ job
// mixed workload with shuffled duplicates must produce byte-identical
// *big.Rat results to sequential core.Solve, under any worker count
// (run with -race in CI).
func TestBatchMatchesSequential(t *testing.T) {
	jobs := mixedWorkload(t, 1, 4)
	if len(jobs) < 100 {
		t.Fatalf("workload too small: %d jobs", len(jobs))
	}
	want := solveSequential(t, jobs)

	for _, workers := range []int{1, 4, 8} {
		e := New(Options{Workers: workers})
		got := e.SolveBatch(jobs)
		st := e.Stats()
		if err := e.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
		for i := range jobs {
			if got[i].Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, got[i].Err)
			}
			if got[i].Result.Prob.RatString() != want[i].Prob.RatString() {
				t.Errorf("workers=%d job %d: engine %s, sequential %s",
					workers, i, got[i].Result.Prob.RatString(), want[i].Prob.RatString())
			}
			if got[i].Result.Method != want[i].Method {
				t.Errorf("workers=%d job %d: engine method %v, sequential %v",
					workers, i, got[i].Result.Method, want[i].Method)
			}
		}
		if st.Submitted != uint64(len(jobs)) {
			t.Errorf("workers=%d: Submitted = %d, want %d", workers, st.Submitted, len(jobs))
		}
		// Each distinct job must be solved exactly once; its three
		// duplicates are served by the cache or coalesced in flight.
		if st.Solved != uint64(len(jobs)/4) {
			t.Errorf("workers=%d: Solved = %d, want %d", workers, st.Solved, len(jobs)/4)
		}
		if st.CacheHits+st.Coalesced != uint64(len(jobs)-len(jobs)/4) {
			t.Errorf("workers=%d: CacheHits+Coalesced = %d+%d, want %d",
				workers, st.CacheHits, st.Coalesced, len(jobs)-len(jobs)/4)
		}
		if st.CacheHits == 0 {
			t.Errorf("workers=%d: expected a cache hit rate > 0 on duplicate jobs", workers)
		}
	}
}

// TestCanonicalDeduplication checks that jobs whose graphs were built
// with different edge insertion orders still share one cache entry.
func TestCanonicalDeduplication(t *testing.T) {
	build := func(reversed bool) Job {
		g := graph.New(3)
		if reversed {
			g.MustAddEdge(1, 2, "S")
			g.MustAddEdge(0, 1, "R")
		} else {
			g.MustAddEdge(0, 1, "R")
			g.MustAddEdge(1, 2, "S")
		}
		h := graph.New(4)
		if reversed {
			h.MustAddEdge(1, 2, "S")
			h.MustAddEdge(0, 1, "R")
			h.MustAddEdge(2, 3, "S")
		} else {
			h.MustAddEdge(0, 1, "R")
			h.MustAddEdge(1, 2, "S")
			h.MustAddEdge(2, 3, "S")
		}
		pg := graph.NewProbGraph(h)
		pg.MustSetEdgeProb(1, 2, graph.Rat("1/2"))
		return Job{Query: g, Instance: pg}
	}
	e := New(Options{Workers: 2})
	defer e.Close()
	a := e.Do(build(false))
	b := e.Do(build(true))
	if a.Err != nil || b.Err != nil {
		t.Fatalf("solve failed: %v / %v", a.Err, b.Err)
	}
	if !b.CacheHit {
		t.Error("insertion-order variant missed the cache")
	}
	if a.Result.Prob.RatString() != b.Result.Prob.RatString() {
		t.Errorf("variants disagree: %s vs %s", a.Result.Prob.RatString(), b.Result.Prob.RatString())
	}
}

// TestOptionsAffectKey checks that solver options take part in the cache
// key, with defaults normalized.
func TestOptionsAffectKey(t *testing.T) {
	job := mixedWorkload(t, 7, 1)[0]
	e := New(Options{Workers: 1})
	defer e.Close()
	if r := e.Do(job); r.Err != nil {
		t.Fatal(r.Err)
	}
	// nil options and explicit defaults share a cache entry.
	withDefaults := job
	withDefaults.Opts = &core.Options{BruteForceLimit: core.DefaultBruteForceLimit, MatchLimit: core.DefaultMatchLimit}
	if r := e.Do(withDefaults); r.Err != nil || !r.CacheHit {
		t.Errorf("explicit default options missed the cache (err=%v, hit=%v)", r.Err, r.CacheHit)
	}
	// Distinct options do not.
	withOther := job
	withOther.Opts = &core.Options{BruteForceLimit: 3}
	if r := e.Do(withOther); r.Err == nil && r.CacheHit {
		t.Error("distinct options hit the cache")
	}
}

func TestCacheHitAccounting(t *testing.T) {
	job := mixedWorkload(t, 2, 1)[0]
	e := New(Options{Workers: 2})
	defer e.Close()
	first := e.Do(job)
	second := e.Do(job)
	if first.Err != nil || second.Err != nil {
		t.Fatalf("solve failed: %v / %v", first.Err, second.Err)
	}
	if first.CacheHit || first.Shared {
		t.Error("first submission should execute, not hit")
	}
	if !second.CacheHit {
		t.Error("second submission should be a cache hit")
	}
	st := e.Stats()
	if st.Solved != 1 || st.CacheHits != 1 || st.Submitted != 2 || st.CacheLen != 1 {
		t.Errorf("stats = %+v, want Solved=1 CacheHits=1 Submitted=2 CacheLen=1", st)
	}
	// Mutating a returned result must not poison the cache.
	second.Result.Prob.SetInt64(42)
	third := e.Do(job)
	if third.Result.Prob.RatString() != first.Result.Prob.RatString() {
		t.Error("cache entry was mutated through a returned result")
	}
}

func TestCacheDisabled(t *testing.T) {
	job := mixedWorkload(t, 3, 1)[0]
	e := New(Options{Workers: 1, CacheSize: -1})
	defer e.Close()
	e.Do(job)
	r := e.Do(job)
	if r.CacheHit {
		t.Error("cache hit with memoization disabled")
	}
	if st := e.Stats(); st.Solved != 2 || st.CacheHits != 0 || st.CacheLen != 0 {
		t.Errorf("stats = %+v, want Solved=2 CacheHits=0 CacheLen=0", st)
	}
}

func TestLRUEviction(t *testing.T) {
	jobs := mixedWorkload(t, 4, 1)[:3]
	e := New(Options{Workers: 1, CacheSize: 2})
	defer e.Close()
	for _, j := range jobs { // fill: cache ends holding jobs[1], jobs[2]
		if r := e.Do(j); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if st := e.Stats(); st.CacheLen != 2 {
		t.Fatalf("CacheLen = %d, want 2", st.CacheLen)
	}
	if r := e.Do(jobs[0]); r.CacheHit {
		t.Error("oldest entry should have been evicted")
	}
	if r := e.Do(jobs[2]); !r.CacheHit {
		// jobs[2] was most recently used before jobs[0] re-entered.
		t.Error("recently used entry was evicted")
	}
}

// TestResultCacheWordBudget: the result memo evicts least recently used
// results once their answers' limbs exceed CacheSize·memoWordsPerEntry,
// keeps its weight in step through replacements and removals, and never
// retains an answer wider than the whole budget.
func TestResultCacheWordBudget(t *testing.T) {
	wide := func(words int) *core.Result {
		// (2^(64·words−1) − 1) / 2^(64·words−1): words limbs each.
		den := new(big.Int).Lsh(big.NewInt(1), uint(64*words-1))
		return &core.Result{Prob: new(big.Rat).SetFrac(new(big.Int).Sub(den, big.NewInt(1)), den)}
	}
	c := newResultCache(4) // budget 4·memoWordsPerEntry words
	half := memoWordsPerEntry / 2
	for _, k := range []string{"a", "b", "c"} {
		c.Add(k, wide(half)) // weighs memoWordsPerEntry
	}
	c.Get("a")                 // "b" is now the least recently used
	c.Add("d", wide(2*half-1)) // within the count bound, over the budget by 62 words
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used result survived an over-budget add")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("result %q evicted, want only the least recently used gone", k)
		}
	}
	if budget := 4 * memoWordsPerEntry; c.Len() != 3 || c.Weight() > budget {
		t.Fatalf("len %d weight %d budget %d after eviction", c.Len(), c.Weight(), budget)
	}
	c.Add("a", wide(1)) // replacement reweighs the entry
	c.Remove("c")
	if want := 2 + 2*(2*half-1); c.Weight() != want {
		t.Fatalf("weight %d after replace and remove, want %d", c.Weight(), want)
	}
	c.Add("huge", wide(3*memoWordsPerEntry))
	if _, ok := c.Get("huge"); ok || c.Len() != 0 || c.Weight() != 0 {
		t.Fatalf("an answer wider than the budget was kept (len %d, weight %d)", c.Len(), c.Weight())
	}
}

// holdSlots takes n of the engine's execution slots until the returned
// release is called, so a job submitted meanwhile stays in flight —
// registered, not yet executed — for as long as a test needs. release
// is idempotent; defer it after Close so it runs first.
func holdSlots(e *Engine, n int) (release func()) {
	for i := 0; i < n; i++ {
		e.slots <- struct{}{}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := 0; i < n; i++ {
				<-e.slots
			}
		})
	}
}

// awaitEngine polls the engine until cond holds of its in-flight call
// count and counters, failing the test after a generous deadline
// instead of hanging when the state never comes.
func awaitEngine(t *testing.T, e *Engine, what string, cond func(inflight int, s Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		e.mu.Lock()
		n := len(e.inflight)
		e.mu.Unlock()
		if cond(n, e.Stats()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestSingleflightCoalescing holds the only slot, so the leader's call
// stays in flight while the followers arrive: coalescing is
// deterministic rather than timing-dependent.
func TestSingleflightCoalescing(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	release := holdSlots(e, 1)
	defer release()
	h := graph.NewProbGraph(graph.Path1WP("R"))
	h.MustSetEdgeProb(0, 1, graph.Rat("1/3"))
	job := Job{Query: graph.Path1WP("R"), Instance: h}

	var leader JobResult
	var leaderWG sync.WaitGroup
	leaderWG.Add(1)
	go func() {
		defer leaderWG.Done()
		leader = e.Do(job)
	}()
	awaitEngine(t, e, "the leader's call", func(n int, _ Stats) bool { return n == 1 })

	const followers = 3
	results := make([]JobResult, followers)
	var wg sync.WaitGroup
	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = e.Do(job)
		}(i)
	}
	// Wait until every follower is registered as coalesced, then release.
	awaitEngine(t, e, "the followers to coalesce", func(_ int, s Stats) bool { return s.Coalesced == followers })
	release()
	leaderWG.Wait()
	wg.Wait()

	if leader.Shared || leader.CacheHit {
		t.Errorf("leader flags = %+v, want executed", leader)
	}
	for i, r := range results {
		if !r.Shared {
			t.Errorf("follower %d not marked shared", i)
		}
		if r.Result.Prob.RatString() != "1/3" {
			t.Errorf("follower %d got %s", i, r.Result.Prob.RatString())
		}
	}
	if st := e.Stats(); st.Solved != 1 || st.Coalesced != followers {
		t.Errorf("stats = %+v, want Solved=1 Coalesced=%d", st, followers)
	}
}

// TestErrorsNotCached checks that failing jobs are counted and retried,
// never memoized.
func TestErrorsNotCached(t *testing.T) {
	// A labeled ⊔1WP query on a 1WP instance is #P-hard (Prop 3.3); with
	// the fallback disabled the solver must error.
	q, _ := graph.DisjointUnion(graph.Path1WP("R"), graph.Path1WP("S"))
	h := graph.NewProbGraph(graph.Path1WP("R", "S", "R"))
	h.MustSetEdgeProb(0, 1, graph.Rat("1/2"))
	job := Job{Query: q, Instance: h, Opts: &core.Options{DisableFallback: true}}

	e := New(Options{Workers: 1})
	defer e.Close()
	for i := 0; i < 2; i++ {
		if r := e.Do(job); r.Err == nil {
			t.Fatal("expected an error on a hard cell with fallback disabled")
		}
	}
	if st := e.Stats(); st.Errors != 2 || st.Solved != 2 || st.CacheLen != 0 {
		t.Errorf("stats = %+v, want Errors=2 Solved=2 CacheLen=0", st)
	}
}

func TestInvalidJobs(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	h := graph.NewProbGraph(graph.Path1WP("R"))
	for name, job := range map[string]Job{
		"no query":    {Instance: h},
		"nil query":   {Queries: []*graph.Graph{nil}, Instance: h},
		"no instance": {Query: graph.Path1WP("R")},
	} {
		if r := e.Do(job); r.Err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	// Rejections are counted apart from solver errors.
	if st := e.Stats(); st.Rejected != 3 || st.Errors != 0 || st.Solved != 0 {
		t.Errorf("stats = %+v, want Rejected=3 Errors=0 Solved=0", st)
	}
}

func TestCloseSemantics(t *testing.T) {
	e := New(Options{Workers: 2})
	job := mixedWorkload(t, 5, 1)[0]
	if r := e.Do(job); r.Err != nil {
		t.Fatal(r.Err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close not idempotent: %v", err)
	}
	if r := e.Do(job); r.Err != ErrClosed {
		t.Errorf("Do after Close: err = %v, want ErrClosed", r.Err)
	}
	if _, err := e.Solve(job.Query, job.Instance, nil); err != ErrClosed {
		t.Errorf("Solve after Close: err = %v, want ErrClosed", err)
	}
	for _, r := range e.SolveBatch([]Job{job}) {
		if r.Err != ErrClosed {
			t.Errorf("SolveBatch after Close: err = %v, want ErrClosed", r.Err)
		}
	}
}

// TestPlanCacheReweight: jobs sharing a structure but differing in edge
// probabilities must hit the compiled-plan cache, produce results
// byte-identical to sequential core.Solve, and be counted in PlanHits.
func TestPlanCacheReweight(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	base := mixedWorkload(t, 21, 1)[0] // Prop 4.10 job
	variants := make([]Job, 8)
	for i := range variants {
		inst := base.Instance.Clone()
		for ei := 0; ei < inst.G.NumEdges(); ei++ {
			if err := inst.SetProb(ei, big.NewRat(int64(r.Intn(17)), 16)); err != nil {
				t.Fatal(err)
			}
		}
		variants[i] = Job{Query: base.Query, Instance: inst}
	}
	want := solveSequential(t, variants)

	e := New(Options{Workers: 2})
	defer e.Close()
	if r := e.Do(base); r.Err != nil {
		t.Fatal(r.Err)
	} else if r.PlanHit {
		t.Error("first job of a structure cannot be a plan hit")
	}
	for i, v := range variants {
		res := e.Do(v)
		if res.Err != nil {
			t.Fatalf("variant %d: %v", i, res.Err)
		}
		if !res.PlanHit {
			t.Errorf("variant %d missed the plan cache", i)
		}
		if res.CacheHit {
			t.Errorf("variant %d hit the result cache despite fresh probabilities", i)
		}
		if res.Result.Prob.RatString() != want[i].Prob.RatString() {
			t.Errorf("variant %d: plan-evaluated %s, sequential %s",
				i, res.Result.Prob.RatString(), want[i].Prob.RatString())
		}
		if res.Result.Method != want[i].Method {
			t.Errorf("variant %d: method %v vs %v", i, res.Result.Method, want[i].Method)
		}
	}
	st := e.Stats()
	if st.PlanHits != uint64(len(variants)) {
		t.Errorf("PlanHits = %d, want %d", st.PlanHits, len(variants))
	}
	if st.PlanCompiles != 1 {
		t.Errorf("PlanCompiles = %d, want 1", st.PlanCompiles)
	}
	if st.PlanCacheLen != 1 {
		t.Errorf("PlanCacheLen = %d, want 1", st.PlanCacheLen)
	}
}

// TestPlanCacheReweightConcurrent race-tests the plan path: a batch of
// reweightings of a handful of structures, solved concurrently, must
// stay byte-identical to sequential solving (run with -race in CI).
func TestPlanCacheReweightConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	bases := mixedWorkload(t, 23, 1)[:4]
	var jobs []Job
	for round := 0; round < 8; round++ {
		for _, b := range bases {
			inst := b.Instance.Clone()
			for ei := 0; ei < inst.G.NumEdges(); ei++ {
				if err := inst.SetProb(ei, big.NewRat(int64(r.Intn(17)), 16)); err != nil {
					t.Fatal(err)
				}
			}
			j := b
			j.Instance = inst
			jobs = append(jobs, j)
		}
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	want := solveSequential(t, jobs)

	e := New(Options{Workers: 8})
	defer e.Close()
	got := e.SolveBatch(jobs)
	for i := range jobs {
		if got[i].Err != nil {
			t.Fatalf("job %d: %v", i, got[i].Err)
		}
		if got[i].Result.Prob.RatString() != want[i].Prob.RatString() {
			t.Errorf("job %d: engine %s, sequential %s",
				i, got[i].Result.Prob.RatString(), want[i].Prob.RatString())
		}
	}
	st := e.Stats()
	if st.PlanHits == 0 {
		t.Error("expected plan-cache hits across reweighted duplicates")
	}
	if st.PlanHits+st.PlanCompiles != st.Solved {
		t.Errorf("PlanHits+PlanCompiles = %d+%d, want Solved = %d",
			st.PlanHits, st.PlanCompiles, st.Solved)
	}
}

// TestPlanCacheEdgeOrderIndependent: a reweighted instance whose edges
// were inserted in a different order must still hit the plan cache and
// evaluate correctly through the canonical edge-order transport.
func TestPlanCacheEdgeOrderIndependent(t *testing.T) {
	build := func(reversed bool, p1, p2 string) Job {
		h := graph.New(4)
		if reversed {
			h.MustAddEdge(2, 3, "S")
			h.MustAddEdge(1, 2, "S")
			h.MustAddEdge(0, 1, "R")
		} else {
			h.MustAddEdge(0, 1, "R")
			h.MustAddEdge(1, 2, "S")
			h.MustAddEdge(2, 3, "S")
		}
		pg := graph.NewProbGraph(h)
		pg.MustSetEdgeProb(1, 2, graph.Rat(p1))
		pg.MustSetEdgeProb(2, 3, graph.Rat(p2))
		return Job{Query: graph.Path1WP("R", "S"), Instance: pg}
	}
	e := New(Options{Workers: 1})
	defer e.Close()
	if r := e.Do(build(false, "1/2", "1/3")); r.Err != nil {
		t.Fatal(r.Err)
	}
	// Same structure, permuted insertion order, fresh probabilities.
	r2 := e.Do(build(true, "1/5", "1/7"))
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if !r2.PlanHit {
		t.Error("permuted reweighted instance missed the plan cache")
	}
	seq, err := core.Solve(graph.Path1WP("R", "S"), build(true, "1/5", "1/7").Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Result.Prob.RatString() != seq.Prob.RatString() {
		t.Errorf("plan transport: engine %s, sequential %s",
			r2.Result.Prob.RatString(), seq.Prob.RatString())
	}
}

// TestPlanCacheDisabled: PlanCacheSize < 0 turns the plan layer off.
func TestPlanCacheDisabled(t *testing.T) {
	base := mixedWorkload(t, 29, 1)[0]
	inst := base.Instance.Clone()
	for ei := 0; ei < inst.G.NumEdges(); ei++ {
		if err := inst.SetProb(ei, graph.RatHalf); err != nil {
			t.Fatal(err)
		}
	}
	e := New(Options{Workers: 1, PlanCacheSize: -1})
	defer e.Close()
	e.Do(base)
	r := e.Do(Job{Query: base.Query, Instance: inst})
	if r.PlanHit {
		t.Error("plan hit with plan caching disabled")
	}
	if st := e.Stats(); st.PlanHits != 0 || st.PlanCacheLen != 0 {
		t.Errorf("stats = %+v, want no plan activity", st)
	}
}

// TestPlanCacheInvalidProbs: a plan-cache hit must report the same
// validation error a fresh solve would on out-of-range probabilities.
func TestPlanCacheInvalidProbs(t *testing.T) {
	job := Job{Query: graph.Path1WP("R"), Instance: graph.NewProbGraph(graph.Path1WP("R", "R"))}
	e := New(Options{Workers: 1})
	defer e.Close()
	if r := e.Do(job); r.Err != nil {
		t.Fatal(r.Err)
	}
	bad := graph.NewProbGraph(graph.Path1WP("R", "R"))
	// Corrupt a probability past SetProb's validation.
	badProbs := bad.Probs()
	badProbs[0].SetFrac64(3, 2)
	r := e.Do(Job{Query: graph.Path1WP("R"), Instance: bad})
	if r.Err == nil {
		t.Fatal("expected a validation error for an out-of-range probability")
	}
	want, wantErr := core.Solve(graph.Path1WP("R"), bad, nil)
	if wantErr == nil {
		t.Fatalf("sequential solve unexpectedly succeeded: %v", want)
	}
	if r.Err.Error() != wantErr.Error() {
		t.Errorf("engine error %q, sequential error %q", r.Err, wantErr)
	}
}

// TestMisshapedProbGraphRejected: a ProbGraph whose vector no longer
// fits its graph — the graph grew after it was wrapped, or the vector
// was never built — fails its own lane with the typed bad-input error
// a sequential solve reports, through Do and SolveBatch, on a plan miss
// and on a plan hit; its valid batch neighbours still answer. Keying
// such a lane used to read past its vector and panic.
func TestMisshapedProbGraphRejected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, "R")
	g.MustAddEdge(1, 2, "R")
	short := graph.NewProbGraph(g)
	g.MustAddEdge(2, 3, "R")
	valid := graph.NewProbGraph(g)
	valid.MustSetEdgeProb(1, 2, big.NewRat(1, 2))
	q := graph.Path1WP("R", "R")
	bad := []*graph.ProbGraph{short, {G: g}}
	want, err := core.Solve(q, valid, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		e := New(Options{Workers: 1})
		if warm {
			// Prime the plan cache with the structure, under other
			// probabilities so the result memo cannot answer.
			if r := e.Do(Job{Query: q, Instance: graph.NewProbGraph(g)}); r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		for _, h := range bad {
			_, wantErr := core.Solve(q, h, nil)
			if r := e.Do(Job{Query: q, Instance: h}); !errors.Is(r.Err, phomerr.ErrBadInput) || wantErr == nil || r.Err.Error() != wantErr.Error() {
				t.Errorf("warm=%v Do: err %v, sequential %v", warm, r.Err, wantErr)
			}
		}
		// The bad lanes share the valid lane's graph, so they group with
		// it; one leads the group.
		jobs := []Job{{Query: q, Instance: short}, {Query: q, Instance: valid}, {Query: q, Instance: bad[1]}}
		for i, r := range e.SolveBatch(jobs) {
			switch {
			case i == 1 && (r.Err != nil || r.Result.Prob.RatString() != want.Prob.RatString()):
				t.Errorf("warm=%v SolveBatch: valid lane %v, want %s", warm, r, want.Prob.RatString())
			case i != 1 && !errors.Is(r.Err, phomerr.ErrBadInput):
				t.Errorf("warm=%v SolveBatch: lane %d err %v, want bad input", warm, i, r.Err)
			}
		}
		if st := e.Stats(); st.Rejected != 4 {
			t.Errorf("warm=%v: Rejected = %d, want 4", warm, st.Rejected)
		}
		e.Close()
	}
}

// TestPlanCacheOpaqueErrorNotRetried: when a cached opaque plan's
// evaluation fails (both baselines exceed their limits), the error is
// returned directly — the job must not be recompiled and re-run through
// the exponential baselines a second time.
func TestPlanCacheOpaqueErrorNotRetried(t *testing.T) {
	// A hard cell (1WP query on a connected non-polytree instance) with
	// tiny limits: with 4 uncertain edges and 4 matches, both baselines
	// exceed their caps.
	g := graph.New(4)
	g.MustAddEdge(0, 2, "R")
	g.MustAddEdge(1, 2, "R")
	g.MustAddEdge(0, 3, "R")
	g.MustAddEdge(1, 3, "R")
	q := graph.Path1WP("R")
	base := graph.NewProbGraph(g)
	opts := &core.Options{BruteForceLimit: 1, MatchLimit: 1}

	e := New(Options{Workers: 1})
	defer e.Close()
	// Prime the plan cache with a succeeding evaluation (no uncertainty).
	if res := e.Do(Job{Query: q, Instance: base, Opts: opts}); res.Err != nil {
		t.Fatal(res.Err)
	}
	st0 := e.Stats()
	// Reweight to many uncertain edges: both baselines must fail.
	bad := base.Clone()
	for i := 0; i < bad.G.NumEdges(); i++ {
		if err := bad.SetProb(i, graph.RatHalf); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Do(Job{Query: q, Instance: bad, Opts: opts})
	if res.Err == nil {
		t.Fatal("expected both baselines to exceed their limits")
	}
	if !res.PlanHit {
		t.Error("failing evaluation still served by the cached plan must report PlanHit")
	}
	st := e.Stats()
	if st.PlanCompiles != st0.PlanCompiles {
		t.Errorf("failing plan hit triggered a recompile: PlanCompiles %d -> %d", st0.PlanCompiles, st.PlanCompiles)
	}
	if st.PlanHits != st0.PlanHits+1 {
		t.Errorf("PlanHits = %d, want %d", st.PlanHits, st0.PlanHits+1)
	}
	if st.Errors != st0.Errors+1 {
		t.Errorf("Errors = %d, want %d", st.Errors, st0.Errors+1)
	}
}
