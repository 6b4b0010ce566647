package engine

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"phom/internal/core"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/phomerr"
)

// reweightWorkload builds the canonical batchable workload: one query,
// one instance structure, lanes probability vectors produced by
// CloneProbs + SetProb — exactly how a reweight producer (the server's
// multi-vector endpoint, phomgen -replay) constructs jobs.
func reweightWorkload(t *testing.T, seed int64, lanes int, opts *core.Options) []Job {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rs := []graph.Label{"R", "S"}
	q := gen.Rand1WP(r, 4, rs)
	base := gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, 40, rs), 0.5)
	jobs := make([]Job, lanes)
	for k := range jobs {
		inst := base.CloneProbs()
		for i := 0; i < inst.G.NumEdges(); i++ {
			if err := inst.SetProb(i, big.NewRat(int64(r.Intn(18)), 17)); err != nil {
				t.Fatal(err)
			}
		}
		jobs[k] = Job{Query: q, Instance: inst, Opts: opts}
	}
	return jobs
}

// TestBatchedReweightMatchesPerJob: a same-structure reweight batch must
// route through the vectorized kernel (BatchRuns/BatchLanes), compile
// its plan exactly once, and return results byte-identical to
// per-lane core.Solve.
func TestBatchedReweightMatchesPerJob(t *testing.T) {
	jobs := reweightWorkload(t, 41, 24, nil)
	want := solveSequential(t, jobs)

	for _, workers := range []int{1, 4} {
		e := New(Options{Workers: workers})
		got := e.SolveBatch(jobs)
		st := e.Stats()
		if err := e.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
		for i := range jobs {
			if got[i].Err != nil {
				t.Fatalf("workers=%d lane %d: %v", workers, i, got[i].Err)
			}
			if got[i].Result.Prob.RatString() != want[i].Prob.RatString() {
				t.Errorf("workers=%d lane %d: batched %s, sequential %s",
					workers, i, got[i].Result.Prob.RatString(), want[i].Prob.RatString())
			}
			if got[i].Result.Method != want[i].Method {
				t.Errorf("workers=%d lane %d: method %v, want %v", workers, i, got[i].Result.Method, want[i].Method)
			}
		}
		if st.BatchRuns != 1 {
			t.Errorf("workers=%d: BatchRuns = %d, want 1", workers, st.BatchRuns)
		}
		if st.BatchLanes != uint64(len(jobs)) {
			t.Errorf("workers=%d: BatchLanes = %d, want %d", workers, st.BatchLanes, len(jobs))
		}
		if st.Solved != uint64(len(jobs)) {
			t.Errorf("workers=%d: Solved = %d, want %d", workers, st.Solved, len(jobs))
		}
		if st.PlanCompiles != 1 {
			t.Errorf("workers=%d: PlanCompiles = %d, want 1 (one structure)", workers, st.PlanCompiles)
		}
	}
}

// TestBatchedReweightFloatAccounting: a fast/auto batch updates the
// dual-precision counters per lane, exactly as the per-job path does
// (both go through Stats.countPrecision).
func TestBatchedReweightFloatAccounting(t *testing.T) {
	jobs := reweightWorkload(t, 43, 12, &core.Options{Precision: core.PrecisionAuto})
	want := solveSequential(t, jobs)

	e := New(Options{Workers: 2})
	defer e.Close()
	got := e.SolveBatch(jobs)
	st := e.Stats()
	for i := range jobs {
		if got[i].Err != nil {
			t.Fatalf("lane %d: %v", i, got[i].Err)
		}
		if got[i].Result.Prob.RatString() != want[i].Prob.RatString() {
			t.Errorf("lane %d: batched %s, sequential %s", i, got[i].Result.Prob.RatString(), want[i].Prob.RatString())
		}
		if got[i].Result.Precision != want[i].Precision {
			t.Errorf("lane %d: precision %v, want %v", i, got[i].Result.Precision, want[i].Precision)
		}
	}
	if st.FloatFast+st.FloatFallbacks != st.Solved {
		t.Errorf("FloatFast+FloatFallbacks = %d+%d, want Solved = %d", st.FloatFast, st.FloatFallbacks, st.Solved)
	}
}

// TestBatchInGroupDedup: identical lanes inside one group are executed
// once. The duplicates coalesce onto the call their first lane
// registered (Shared), by the same rule as a duplicate job from any
// other caller, and none of them is a cache hit.
func TestBatchInGroupDedup(t *testing.T) {
	distinct := reweightWorkload(t, 47, 8, nil)
	var jobs []Job
	for _, j := range distinct {
		for d := 0; d < 3; d++ {
			jobs = append(jobs, j)
		}
	}
	want := solveSequential(t, jobs)

	e := New(Options{Workers: 4})
	defer e.Close()
	got := e.SolveBatch(jobs)
	st := e.Stats()
	shared := 0
	for i := range jobs {
		if got[i].Err != nil {
			t.Fatalf("lane %d: %v", i, got[i].Err)
		}
		if got[i].Result.Prob.RatString() != want[i].Prob.RatString() {
			t.Errorf("lane %d: batched %s, sequential %s", i, got[i].Result.Prob.RatString(), want[i].Prob.RatString())
		}
		if got[i].Shared {
			shared++
		}
	}
	if st.Solved != 8 {
		t.Errorf("Solved = %d, want 8 (one per distinct vector)", st.Solved)
	}
	if st.Coalesced != 16 || shared != 16 {
		t.Errorf("Coalesced = %d (flagged %d), want 16", st.Coalesced, shared)
	}
	if st.CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0", st.CacheHits)
	}
	if st.BatchLanes != 24 {
		t.Errorf("BatchLanes = %d, want 24", st.BatchLanes)
	}
}

// TestBatchInGroupDedupWithoutCache: with memoization disabled the
// in-group dedup still holds — duplicates coalesce onto their primary
// lane (Shared), the in-group analogue of singleflight.
func TestBatchInGroupDedupWithoutCache(t *testing.T) {
	distinct := reweightWorkload(t, 53, 6, nil)
	var jobs []Job
	for _, j := range distinct {
		jobs = append(jobs, j, j)
	}
	want := solveSequential(t, jobs)

	e := New(Options{Workers: 2, CacheSize: -1})
	defer e.Close()
	got := e.SolveBatch(jobs)
	st := e.Stats()
	shared := 0
	for i := range jobs {
		if got[i].Err != nil {
			t.Fatalf("lane %d: %v", i, got[i].Err)
		}
		if got[i].Result.Prob.RatString() != want[i].Prob.RatString() {
			t.Errorf("lane %d: batched %s, sequential %s", i, got[i].Result.Prob.RatString(), want[i].Prob.RatString())
		}
		if got[i].Shared {
			shared++
		}
	}
	if st.Solved != 6 {
		t.Errorf("Solved = %d, want 6", st.Solved)
	}
	if st.CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0 with memoization disabled", st.CacheHits)
	}
	if st.Coalesced != 6 || shared != 6 {
		t.Errorf("Coalesced = %d (flagged %d), want 6", st.Coalesced, shared)
	}
}

// TestBatchMemoInterop: the batched path and the per-job path share the
// memo cache in both directions.
func TestBatchMemoInterop(t *testing.T) {
	jobs := reweightWorkload(t, 59, 8, nil)

	// Per-job first, batch second: the batch's memo pass serves the
	// pre-solved lanes without occupying kernel lanes.
	e := New(Options{Workers: 2})
	for _, j := range jobs[:4] {
		if r := e.Do(j); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	got := e.SolveBatch(jobs)
	st := e.Stats()
	for i := range jobs {
		if got[i].Err != nil {
			t.Fatalf("lane %d: %v", i, got[i].Err)
		}
		if i < 4 && !got[i].CacheHit {
			t.Errorf("lane %d: pre-solved lane not served from memo cache", i)
		}
	}
	if st.CacheHits != 4 {
		t.Errorf("CacheHits = %d, want 4", st.CacheHits)
	}
	if st.Solved != 8 {
		t.Errorf("Solved = %d, want 8 (4 per-job + 4 kernel lanes; memo hits are not executions)", st.Solved)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Batch first, per-job second: the batch populates the memo cache
	// for the per-job path.
	e2 := New(Options{Workers: 2})
	defer e2.Close()
	if got := e2.SolveBatch(jobs); got[0].Err != nil {
		t.Fatal(got[0].Err)
	}
	r := e2.Do(jobs[0])
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !r.CacheHit {
		t.Error("per-job Do after a batch did not hit the memo cache")
	}
}

// TestBatchPlanHitAcrossBatches: a second batch over the same structure
// (fresh probability vectors) is served by the cached compiled plan —
// no recompile, PlanHit set on every lane.
func TestBatchPlanHitAcrossBatches(t *testing.T) {
	first := reweightWorkload(t, 61, 6, nil)
	second := reweightWorkload(t, 61, 6, nil)
	r := rand.New(rand.NewSource(67))
	for _, j := range second {
		for i := 0; i < j.Instance.G.NumEdges(); i++ {
			if err := j.Instance.SetProb(i, big.NewRat(int64(r.Intn(18)), 17)); err != nil {
				t.Fatal(err)
			}
		}
	}

	e := New(Options{Workers: 2, CacheSize: -1}) // memoization off isolates the plan cache
	defer e.Close()
	if got := e.SolveBatch(first); got[0].Err != nil {
		t.Fatal(got[0].Err)
	}
	if st := e.Stats(); st.PlanCompiles != 1 {
		t.Fatalf("PlanCompiles after first batch = %d, want 1", st.PlanCompiles)
	}
	got := e.SolveBatch(second)
	st := e.Stats()
	for i := range second {
		if got[i].Err != nil {
			t.Fatalf("lane %d: %v", i, got[i].Err)
		}
		if !got[i].PlanHit {
			t.Errorf("lane %d: second batch did not report a plan hit", i)
		}
	}
	if st.PlanCompiles != 1 {
		t.Errorf("PlanCompiles = %d, want 1 (second batch reuses the plan)", st.PlanCompiles)
	}
	if st.PlanHits != uint64(len(second)) {
		t.Errorf("PlanHits = %d, want %d", st.PlanHits, len(second))
	}
	if st.BatchRuns != 2 {
		t.Errorf("BatchRuns = %d, want 2", st.BatchRuns)
	}
}

// TestStreamCoalescesWithDoContext: a Stream lane and a DoContext job
// with the same key share one execution, whichever arrives first. The
// only slot is held until both sides are registered, so the overlap
// is deterministic: the late side reports Shared, and Solved counts the
// shared key once.
func TestStreamCoalescesWithDoContext(t *testing.T) {
	for _, doFirst := range []bool{true, false} {
		name := "stream joins do"
		if !doFirst {
			name = "do joins stream"
		}
		t.Run(name, func(t *testing.T) {
			jobs := reweightWorkload(t, 89, 2, nil) // one group of two lanes
			want := solveSequential(t, jobs)
			e := New(Options{Workers: 1})
			defer e.Close()
			release := holdSlots(e, 1)
			defer release()

			single := make(chan JobResult, 1)
			batch := make(chan []JobResult, 1)
			runDo := func() { single <- e.Do(jobs[0]) }
			runStream := func() { batch <- e.SolveBatch(jobs) }
			first, second, firstCalls := runDo, runStream, 1
			if !doFirst {
				first, second, firstCalls = runStream, runDo, 2
			}
			go first()
			awaitEngine(t, e, "the first side's calls", func(n int, _ Stats) bool { return n == firstCalls })
			go second()
			awaitEngine(t, e, "the second side to coalesce", func(_ int, s Stats) bool { return s.Coalesced == 1 })
			release()
			d, lanes := <-single, <-batch

			for i, r := range append([]JobResult{d}, lanes...) {
				if r.Err != nil {
					t.Fatalf("result %d: %v", i, r.Err)
				}
			}
			for i, r := range lanes {
				if r.Result.Prob.RatString() != want[i].Prob.RatString() {
					t.Errorf("lane %d: %s, want %s", i, r.Result.Prob.RatString(), want[i].Prob.RatString())
				}
			}
			if d.Result.Prob.RatString() != want[0].Prob.RatString() {
				t.Errorf("DoContext: %s, want %s", d.Result.Prob.RatString(), want[0].Prob.RatString())
			}
			early, late := d, lanes[0]
			if !doFirst {
				early, late = lanes[0], d
			}
			if early.Shared || !late.Shared {
				t.Errorf("Shared: early side %v, late side %v; want false, true", early.Shared, late.Shared)
			}
			if st := e.Stats(); st.Solved != 2 || st.Coalesced != 1 {
				t.Errorf("Solved = %d, Coalesced = %d; want 2 and 1", st.Solved, st.Coalesced)
			}
		})
	}
}

// TestBatchGroupsPartition pins the grouping predicate: same query
// pointer + same underlying graph value + same options fingerprint +
// same per-job timeout, single-query form; groups chunk at
// batchMaxLanes, and every other job is a group of one.
func TestBatchGroupsPartition(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	rs := []graph.Label{"R"}
	q := gen.Rand1WP(r, 3, rs)
	base := gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 20, rs), 0.5)

	lane := func() Job { return Job{Query: q, Instance: base.CloneProbs()} }
	// partition splits batchGroups' output into the multi-lane groups
	// and the groups of one, checking that every job is in exactly one.
	partition := func(jobs []Job) (groups [][]int, singles []int) {
		t.Helper()
		seen := make([]bool, len(jobs))
		for _, g := range batchGroups(jobs) {
			for _, i := range g {
				if seen[i] {
					t.Fatalf("job %d in two groups", i)
				}
				seen[i] = true
			}
			if len(g) == 1 {
				singles = append(singles, g[0])
			} else {
				groups = append(groups, g)
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("job %d in no group", i)
			}
		}
		return groups, singles
	}

	jobs := []Job{
		lane(), // group A
		lane(), // group A
		{Query: q, Instance: base.CloneProbs(), Timeout: time.Second},                               // group B: equal timeouts group
		{Queries: []*graph.Graph{q}, Instance: base.CloneProbs()},                                   // UCQ form → single
		{Query: q, Instance: base.Clone()},                                                          // different graph value → its own key, alone → single
		{Query: q, Instance: base.CloneProbs(), Opts: &core.Options{Precision: core.PrecisionFast}}, // different fingerprint, alone → single
		lane(), // group A
		{Query: q, Instance: base.CloneProbs(), Timeout: time.Second}, // group B: shares the timeout budget with lane 2
	}
	groups, singles := partition(jobs)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	for gi, wantGroup := range [][]int{{0, 1, 6}, {2, 7}} {
		if len(groups[gi]) != len(wantGroup) {
			t.Fatalf("group %d lanes = %v, want %v", gi, groups[gi], wantGroup)
		}
		for i, idx := range wantGroup {
			if groups[gi][i] != idx {
				t.Fatalf("group %d lanes = %v, want %v", gi, groups[gi], wantGroup)
			}
		}
	}
	if len(singles) != 3 {
		t.Fatalf("singles = %v, want 3 lanes", singles)
	}

	// Chunking: a group wider than batchMaxLanes splits.
	var wide []Job
	for i := 0; i < batchMaxLanes+10; i++ {
		wide = append(wide, lane())
	}
	groups, singles = partition(wide)
	if len(singles) != 0 {
		t.Fatalf("wide group produced singles: %v", singles)
	}
	if len(groups) != 2 || len(groups[0]) != batchMaxLanes || len(groups[1]) != 10 {
		t.Fatalf("wide group chunking: got %d groups", len(groups))
	}

	// A lone wide-chunk remainder of one lane is a group of one.
	groups, singles = partition(wide[:batchMaxLanes+1])
	if len(groups) != 1 || len(groups[0]) != batchMaxLanes || len(singles) != 1 {
		t.Fatalf("remainder of 1: groups=%d singles=%d", len(groups), len(singles))
	}
}

// TestBatchGroupTimeout: lanes sharing a per-job Timeout batch together
// and the shared group deadline surfaces as the typed deadline (or
// cancellation, if the clock fires before dispatch) error on every
// lane — equal budgets don't disqualify jobs from the vectorized path.
func TestBatchGroupTimeout(t *testing.T) {
	jobs := reweightWorkload(t, 47, 8, nil)
	for k := range jobs {
		jobs[k].Timeout = time.Nanosecond
	}
	e := New(Options{})
	defer e.Close()
	got := e.SolveBatch(jobs)
	// A 1ns budget has expired by the time the group reaches dispatch,
	// so the group must abort deterministically before executing: every
	// lane carries the typed error and the canceled counter accounts
	// for all of them.
	st := e.Stats()
	if st.Canceled != uint64(len(jobs)) {
		t.Errorf("Canceled=%d, want %d", st.Canceled, len(jobs))
	}
	for i, res := range got {
		if !errors.Is(res.Err, phomerr.ErrDeadline) && !errors.Is(res.Err, phomerr.ErrCanceled) {
			t.Errorf("lane %d: err = %v, want deadline", i, res.Err)
		}
	}

	// A comfortable budget leaves results intact.
	for k := range jobs {
		jobs[k].Timeout = time.Minute
	}
	e2 := New(Options{})
	defer e2.Close()
	for i, res := range e2.SolveBatch(jobs) {
		if res.Err != nil {
			t.Fatalf("lane %d with 1m budget: %v", i, res.Err)
		}
	}
	if st2 := e2.Stats(); st2.BatchRuns == 0 {
		t.Errorf("BatchRuns = 0 with a 1m budget")
	}
}

// TestBatchStreamCancellation: a cancelled stream context fails every
// lane with the typed cancellation error instead of hanging or
// executing.
func TestBatchStreamCancellation(t *testing.T) {
	jobs := reweightWorkload(t, 73, 8, nil)
	e := New(Options{Workers: 1})
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	for sr := range e.Stream(ctx, jobs) {
		n++
		if sr.JobResult.Err == nil {
			continue // a lane may have slipped in before the cancel was observed
		}
		if !errors.Is(sr.JobResult.Err, phomerr.ErrCanceled) {
			t.Fatalf("lane %d: err = %v, want ErrCanceled", sr.Index, sr.JobResult.Err)
		}
	}
	if n != len(jobs) {
		t.Fatalf("stream emitted %d results, want %d", n, len(jobs))
	}
}

// TestBatchMixedWithSingles: groupable reweight lanes and ungroupable
// jobs coexist in one Stream call; every lane matches its sequential
// answer and only the groupable lanes count as batch lanes.
func TestBatchMixedWithSingles(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	rs := []graph.Label{"R", "S"}
	jobs := reweightWorkload(t, 83, 10, nil)
	ucq := Job{
		Queries:  []*graph.Graph{gen.Rand1WP(r, 3, rs), gen.Rand1WP(r, 4, rs)},
		Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, 30, rs), 0.5),
	}
	jobs = append(jobs, ucq)
	want := solveSequential(t, jobs)

	e := New(Options{Workers: 4})
	defer e.Close()
	got := e.SolveBatch(jobs)
	st := e.Stats()
	for i := range jobs {
		if got[i].Err != nil {
			t.Fatalf("lane %d: %v", i, got[i].Err)
		}
		if got[i].Result.Prob.RatString() != want[i].Prob.RatString() {
			t.Errorf("lane %d: batched %s, sequential %s", i, got[i].Result.Prob.RatString(), want[i].Prob.RatString())
		}
	}
	if st.BatchLanes != 10 {
		t.Errorf("BatchLanes = %d, want 10 (the UCQ job runs per-job)", st.BatchLanes)
	}
	if st.Submitted != 11 {
		t.Errorf("Submitted = %d, want 11", st.Submitted)
	}
}
