package engine

import (
	"context"
	"errors"
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

// slowJob returns a #P-hard job whose brute-force baseline enumerates
// 2^edges worlds — far more work than any test budget — so only
// cancellation can end it quickly. All edges sit at probability 1/2.
func slowJob(t *testing.T, n, extra int) Job {
	t.Helper()
	r := rand.New(rand.NewSource(5))
	g := gen.RandConnected(r, n, extra, nil)
	h := graph.NewProbGraph(g)
	for i := 0; i < g.NumEdges(); i++ {
		if err := h.SetProb(i, graph.RatHalf); err != nil {
			t.Fatal(err)
		}
	}
	if g.InClass(graph.ClassUPT) || g.InClass(graph.ClassU2WP) || g.InClass(graph.ClassUDWT) {
		t.Fatal("slow job accidentally tractable")
	}
	// Allow however many coins the instance has.
	return Job{Query: graph.UnlabeledPath(3), Instance: h,
		Opts: &core.Options{BruteForceLimit: g.NumEdges()}}
}

// fastJob returns a trivially tractable job (milliseconds at worst).
func fastJob(seed int64) Job {
	r := rand.New(rand.NewSource(seed))
	q := gen.Rand1WP(r, 3, nil)
	h := gen.RandProb(r, gen.Rand2WP(r, 8, nil), 0.5)
	return Job{Query: q, Instance: h}
}

// when runs f on its own goroutine as soon as cond holds of the
// engine's counters. It is how these tests interrupt a job at the state
// they mean to test — an execution evaluating it, a caller waiting for
// a slot — instead of sleeping and hoping the job got there. A
// condition still false when the test ends gives up without calling f.
func when(t *testing.T, e *Engine, cond func(Stats) bool, f func()) {
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for !cond(e.Stats()) {
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
		f()
	}()
}

// compiled is the condition that n plans have compiled. Each job of
// these tests compiles its own plan in its execution and then evaluates
// it there, so once a slow job's plan is counted an execution is
// running its exponential evaluation, which only cancellation ends.
func compiled(n uint64) func(Stats) bool {
	return func(s Stats) bool { return s.PlanCompiles >= n }
}

// closeWithin fails the test if Close does not return within d — a
// hanging Close means an execution is stuck on work cancellation should
// have stopped (the goroutine-leak guard of these tests).
func closeWithin(t *testing.T, e *Engine, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(d):
		t.Fatalf("Close did not return within %v: cancelled work is still running", d)
	}
}

// TestDoContextCancelMidSolve: cancelling the only caller of a running
// exponential job aborts the execution promptly (Close returning is
// the proof the execution stopped) and reports the typed error.
func TestDoContextCancelMidSolve(t *testing.T) {
	e := New(Options{Workers: 2})
	job := slowJob(t, 14, 16) // ≈ 2^29 worlds: days of work uncancelled
	ctx, cancel := context.WithCancel(context.Background())
	when(t, e, compiled(1), cancel)
	start := time.Now()
	r := e.DoContext(ctx, job)
	if !errors.Is(r.Err, phomerr.ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled", r.Err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if st := e.Stats(); st.Canceled == 0 {
		t.Fatalf("stats.Canceled = 0 after an abandoned call: %+v", st)
	}
	closeWithin(t, e, 30*time.Second)
}

// TestJobTimeout: a per-job Timeout turns into ErrDeadline, and the
// timeout takes no part in the cache key — the same job without a
// timeout later hits the same cache entry.
func TestJobTimeout(t *testing.T) {
	e := New(Options{Workers: 2})
	slow := slowJob(t, 14, 16)
	slow.Timeout = 40 * time.Millisecond
	r := e.DoContext(context.Background(), slow)
	if !errors.Is(r.Err, phomerr.ErrDeadline) {
		t.Fatalf("Err = %v, want ErrDeadline", r.Err)
	}

	fast := fastJob(1)
	fast.Timeout = time.Hour
	if r := e.DoContext(context.Background(), fast); r.Err != nil {
		t.Fatalf("fast job failed: %v", r.Err)
	}
	same := fastJob(1) // identical structure and probabilities, no timeout
	r2 := e.DoContext(context.Background(), same)
	if r2.Err != nil || !r2.CacheHit {
		t.Fatalf("timeout leaked into the cache key: err=%v cacheHit=%v", r2.Err, r2.CacheHit)
	}
	closeWithin(t, e, 30*time.Second)
}

// TestCoalescedCancelIndependence: one impatient caller abandoning a
// shared in-flight job must not cancel it for the caller still
// waiting, whether the impatient caller is a DoContext call or a lane
// of a Stream group.
func TestCoalescedCancelIndependence(t *testing.T) {
	t.Run("do", func(t *testing.T) {
		e := New(Options{Workers: 1})
		job := fastJobSlowEnough(t)

		ctx1, cancel1 := context.WithCancel(context.Background())
		var r1, r2 JobResult
		var wg sync.WaitGroup
		wg.Add(2)
		started := make(chan struct{})
		go func() {
			defer wg.Done()
			close(started)
			r1 = e.DoContext(ctx1, job)
		}()
		<-started
		go func() {
			defer wg.Done()
			r2 = e.DoContext(context.Background(), job)
		}()
		// Wait until the second caller has actually coalesced onto the
		// first's call, then cancel the first.
		for {
			if st := e.Stats(); st.Coalesced >= 1 {
				break
			}
			runtime.Gosched()
		}
		cancel1()
		wg.Wait()
		if !errors.Is(r1.Err, phomerr.ErrCanceled) && r1.Err != nil {
			t.Fatalf("caller 1 err = %v", r1.Err)
		}
		if r2.Err != nil {
			t.Fatalf("caller 2 must still get the answer, got err %v", r2.Err)
		}
		if r2.Result == nil || r2.Result.Prob == nil {
			t.Fatal("caller 2 got an empty result")
		}
		closeWithin(t, e, 30*time.Second)
	})

	// The cancelling caller is a lane of a two-lane Stream group, and it
	// leaves while the group's execution still waits for the only slot:
	// the execution must still run for the DoContext caller that
	// coalesced onto the lane's call.
	t.Run("stream lane", func(t *testing.T) {
		jobs := reweightWorkload(t, 97, 2, nil)
		e := New(Options{Workers: 1})
		release := holdSlots(e, 1)
		defer release()

		ctx1, cancel1 := context.WithCancel(context.Background())
		streamed := make(chan []JobResult, 1)
		go func() { streamed <- e.SolveBatchContext(ctx1, jobs) }()
		awaitEngine(t, e, "the stream group's calls", func(n int, _ Stats) bool { return n == 2 })
		waited := make(chan JobResult, 1)
		go func() { waited <- e.DoContext(context.Background(), jobs[0]) }()
		awaitEngine(t, e, "the caller to coalesce onto the lane", func(_ int, s Stats) bool { return s.Coalesced >= 1 })
		cancel1()
		for i, r := range <-streamed {
			if !errors.Is(r.Err, phomerr.ErrCanceled) {
				t.Fatalf("stream lane %d err = %v, want ErrCanceled", i, r.Err)
			}
		}
		release()
		r2 := <-waited
		if r2.Err != nil {
			t.Fatalf("the coalesced caller must still get the answer, got err %v", r2.Err)
		}
		if r2.Result == nil || r2.Result.Prob == nil || !r2.Shared {
			t.Fatalf("coalesced caller got %+v, want a shared answer", r2)
		}
		want := solveSequential(t, jobs[:1])[0]
		if r2.Result.Prob.RatString() != want.Prob.RatString() {
			t.Fatalf("coalesced caller got %s, want %s", r2.Result.Prob.RatString(), want.Prob.RatString())
		}
		closeWithin(t, e, 30*time.Second)
	})
}

// fastJobSlowEnough returns a job slow enough (hundreds of ms) for
// deterministic coalescing windows but fast enough to complete in a
// test: a brute-force job over ~2^17 worlds.
func fastJobSlowEnough(t *testing.T) Job {
	t.Helper()
	return slowJob(t, 10, 7) // ≈ 2^16 worlds
}

// TestBaseContextCancelAbortsJobs: cancelling the engine's base
// context aborts a job whose own caller never cancels — the server
// shutdown path.
func TestBaseContextCancelAbortsJobs(t *testing.T) {
	base, cancelBase := context.WithCancel(context.Background())
	e := New(Options{Workers: 2, BaseContext: base})
	job := slowJob(t, 14, 16)
	done := make(chan JobResult, 1)
	when(t, e, compiled(1), cancelBase)
	go func() { done <- e.Do(job) }() // v1 call: caller has no context at all
	select {
	case r := <-done:
		if !errors.Is(r.Err, phomerr.ErrCanceled) {
			t.Fatalf("Err = %v, want ErrCanceled via base context", r.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("base-context cancellation did not abort the job")
	}
	closeWithin(t, e, 30*time.Second)
}

// TestSolveBatchContextCancelMidBatch: cancelling a batch returns one
// result per job promptly; the slow jobs report the typed error.
func TestSolveBatchContextCancelMidBatch(t *testing.T) {
	e := New(Options{Workers: 2})
	jobs := []Job{fastJob(1), slowJob(t, 14, 16), fastJob(2), slowJob(t, 15, 17)}
	ctx, cancel := context.WithCancel(context.Background())
	// Two slots: each execution compiles its job before a slow one pins
	// a slot, so two compiles always happen, and by then a slow job is
	// running or waiting for a slot.
	when(t, e, compiled(2), cancel)
	start := time.Now()
	out := e.SolveBatchContext(ctx, jobs)
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("batch cancellation took %v", elapsed)
	}
	if len(out) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(out), len(jobs))
	}
	canceled := 0
	for i, r := range out {
		if r.Err != nil {
			if !errors.Is(r.Err, phomerr.ErrCanceled) {
				t.Fatalf("job %d err = %v, want ErrCanceled", i, r.Err)
			}
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no job reported cancellation")
	}
	closeWithin(t, e, 30*time.Second)
}

// TestStreamCompletionOrder: results arrive as they complete — the
// batch's one exponential job (index 0) is delivered last, after every
// fast job — and each job is delivered exactly once with its index.
func TestStreamCompletionOrder(t *testing.T) {
	e := New(Options{Workers: 2})
	defer func() { closeWithin(t, e, 60*time.Second) }()
	jobs := []Job{fastJobSlowEnough(t), fastJob(1), fastJob(2), fastJob(3)}
	var order []int
	seen := map[int]bool{}
	for sr := range e.Stream(context.Background(), jobs) {
		if sr.Err != nil {
			t.Fatalf("job %d: %v", sr.Index, sr.Err)
		}
		if seen[sr.Index] {
			t.Fatalf("job %d delivered twice", sr.Index)
		}
		seen[sr.Index] = true
		order = append(order, sr.Index)
	}
	if len(order) != len(jobs) {
		t.Fatalf("delivered %d of %d results", len(order), len(jobs))
	}
	if order[len(order)-1] != 0 {
		t.Fatalf("slow job was not delivered last: order %v", order)
	}
}

// TestStreamCancel: cancelling the stream context still delivers
// exactly one result per job (the aborted ones carry the typed error),
// closes the channel, and leaks no delivering goroutine (Close
// returning is the guard).
func TestStreamCancel(t *testing.T) {
	e := New(Options{Workers: 2})
	jobs := []Job{slowJob(t, 14, 16), slowJob(t, 15, 17), fastJob(1)}
	ctx, cancel := context.WithCancel(context.Background())
	when(t, e, compiled(2), cancel) // as in TestSolveBatchContextCancelMidBatch
	n, canceled := 0, 0
	for sr := range e.Stream(ctx, jobs) {
		n++
		if errors.Is(sr.Err, phomerr.ErrCanceled) {
			canceled++
		}
	}
	if n != len(jobs) {
		t.Fatalf("delivered %d results for %d jobs, want exactly one each", n, len(jobs))
	}
	if canceled == 0 {
		t.Fatal("no streamed job reported cancellation")
	}
	closeWithin(t, e, 30*time.Second)
}

// TestStreamCancelCountsEveryLane: a Stream whose context fires while
// groups still wait for a fan-out slot counts every job as submitted
// and every one of them as canceled, whichever side of the fan-out the
// cancellation found it on.
func TestStreamCancelCountsEveryLane(t *testing.T) {
	e := New(Options{Workers: 1})
	release := holdSlots(e, 1)
	defer release()
	jobs := make([]Job, 16) // distinct instances: sixteen groups of one
	for i := range jobs {
		jobs[i] = fastJob(int64(i))
	}
	// The fan-out admits four groups per slot; their executions wait on
	// the held slot, so once they are submitted the rest are queueing.
	ctx, cancel := context.WithCancel(context.Background())
	when(t, e, func(s Stats) bool { return s.Submitted >= 4 }, cancel)
	n := 0
	for sr := range e.Stream(ctx, jobs) {
		n++
		if !errors.Is(sr.Err, phomerr.ErrCanceled) {
			t.Fatalf("job %d err = %v, want ErrCanceled", sr.Index, sr.Err)
		}
	}
	if n != len(jobs) {
		t.Fatalf("delivered %d results for %d jobs", n, len(jobs))
	}
	if st := e.Stats(); st.Submitted != uint64(len(jobs)) || st.Canceled != uint64(len(jobs)) {
		t.Fatalf("Submitted=%d Canceled=%d, want %d each", st.Submitted, st.Canceled, len(jobs))
	}
	release()
	closeWithin(t, e, 30*time.Second)
}

// TestHeldSlotsBlockExecution: Options.Workers bounds the executions
// that run at once. With every slot held a submitted job neither
// compiles nor completes; freeing one slot completes it.
func TestHeldSlotsBlockExecution(t *testing.T) {
	e := New(Options{Workers: 2})
	releaseOne, releaseOther := holdSlots(e, 1), holdSlots(e, 1)
	defer releaseOther()
	done := make(chan JobResult, 1)
	go func() { done <- e.Do(fastJob(1)) }()
	awaitEngine(t, e, "the job's call", func(n int, _ Stats) bool { return n == 1 })
	for i := 0; i < 1000; i++ {
		runtime.Gosched() // give a wrongly started execution time to show
	}
	select {
	case r := <-done:
		t.Fatalf("job completed with every slot held: %+v", r)
	default:
	}
	if st := e.Stats(); st.PlanCompiles != 0 || st.Solved != 0 {
		t.Fatalf("PlanCompiles=%d Solved=%d with every slot held, want 0", st.PlanCompiles, st.Solved)
	}
	releaseOne()
	if r := <-done; r.Err != nil || r.Result == nil {
		t.Fatalf("job after a slot freed: %+v", r)
	}
	if st := e.Stats(); st.PlanCompiles != 1 || st.Solved != 1 {
		t.Fatalf("PlanCompiles=%d Solved=%d, want 1 each", st.PlanCompiles, st.Solved)
	}
	releaseOther()
	closeWithin(t, e, 30*time.Second)
}

// TestDeadOnArrivalStartsNoExecution: a DoContext or a Stream whose
// context is already cancelled starts no execution, though every slot
// is free: nothing is solved, compiled or failed, and no call is left
// in flight.
func TestDeadOnArrivalStartsNoExecution(t *testing.T) {
	e := New(Options{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job{fastJob(1), fastJob(2)}
	const iters = 200
	for i := 0; i < iters; i++ {
		if r := e.DoContext(ctx, jobs[0]); !errors.Is(r.Err, phomerr.ErrCanceled) {
			t.Fatalf("iteration %d: DoContext err = %v, want ErrCanceled", i, r.Err)
		}
		for sr := range e.Stream(ctx, jobs) {
			if !errors.Is(sr.Err, phomerr.ErrCanceled) {
				t.Fatalf("iteration %d: Stream job %d err = %v, want ErrCanceled", i, sr.Index, sr.Err)
			}
		}
	}
	closeWithin(t, e, 30*time.Second)
	st := e.Stats()
	if st.Solved != 0 || st.PlanCompiles != 0 || st.Errors != 0 {
		t.Fatalf("Solved=%d PlanCompiles=%d Errors=%d, want 0", st.Solved, st.PlanCompiles, st.Errors)
	}
	if want := uint64(3 * iters); st.Submitted != want || st.Canceled != want {
		t.Fatalf("Submitted=%d Canceled=%d, want %d each", st.Submitted, st.Canceled, want)
	}
	e.mu.Lock()
	n := len(e.inflight)
	e.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d calls left in flight", n)
	}
}

// TestDoContextCancelWhileQueued: a caller whose context fires while
// its job is still waiting for a slot returns promptly — it
// must not sit in the queue behind long-running jobs.
func TestDoContextCancelWhileQueued(t *testing.T) {
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	e := New(Options{Workers: 1, BaseContext: base})
	// Occupy the only slot with an exponential job, and wait until its
	// execution is evaluating it.
	hogJob := slowJob(t, 14, 16)
	hog := make(chan JobResult, 1)
	hogBusy := make(chan struct{})
	when(t, e, compiled(1), func() { close(hogBusy) })
	go func() { hog <- e.Do(hogJob) }()
	<-hogBusy

	// Cancel once the second job is submitted: with the only slot
	// taken it can only be waiting for one.
	ctx, cancel := context.WithCancel(context.Background())
	when(t, e, func(s Stats) bool { return s.Submitted >= 2 }, cancel)
	start := time.Now()
	r := e.DoContext(ctx, fastJob(99))
	if !errors.Is(r.Err, phomerr.ErrCanceled) {
		t.Fatalf("queued job err = %v, want ErrCanceled", r.Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("queued cancellation took %v", elapsed)
	}
	// Release the hog via the base context and drain.
	cancelBase()
	<-hog
	closeWithin(t, e, 30*time.Second)
}

// TestFreshCallerDoesNotInheritAbandonedCancellation: after the sole
// waiter of an in-flight execution abandons it, a new caller for the
// identical job must get a real answer, not the stale cancellation —
// even though the abandoned execution may still be winding down.
func TestFreshCallerDoesNotInheritAbandonedCancellation(t *testing.T) {
	e := New(Options{Workers: 2})
	job := fastJobSlowEnough(t)
	ctx, cancel := context.WithCancel(context.Background())
	when(t, e, compiled(1), cancel)
	if r := e.DoContext(ctx, job); !errors.Is(r.Err, phomerr.ErrCanceled) {
		t.Fatalf("first caller err = %v, want ErrCanceled", r.Err)
	}
	// Immediately retry with a live context: the abandoned call may
	// still occupy the in-flight table for up to a checkpoint interval.
	r := e.DoContext(context.Background(), job)
	if r.Err != nil {
		t.Fatalf("fresh caller inherited stale cancellation: %v", r.Err)
	}
	if r.Result == nil || r.Result.Prob == nil {
		t.Fatal("fresh caller got an empty result")
	}
	closeWithin(t, e, 30*time.Second)
}

// TestCloseRacingDoContext: concurrent Close and DoContext never
// panic, deadlock, or invent results — every call either completes or
// fails with a typed closed/cancellation error.
func TestCloseRacingDoContext(t *testing.T) {
	e := New(Options{Workers: 2})
	var wg sync.WaitGroup
	const callers = 16
	results := make([]JobResult, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.DoContext(context.Background(), fastJob(int64(i%3)))
		}(i)
	}
	runtime.Gosched()
	closeWithin(t, e, 60*time.Second)
	wg.Wait()
	for i, r := range results {
		if r.Err != nil && !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("caller %d: unexpected err %v", i, r.Err)
		}
		if r.Err == nil && (r.Result == nil || r.Result.Prob == nil) {
			t.Fatalf("caller %d: empty success", i)
		}
		if errors.Is(r.Err, ErrClosed) && !errors.Is(r.Err, phomerr.ErrUnavailable) {
			t.Fatalf("ErrClosed must carry the unavailable code")
		}
	}
	// Idempotent close after the race.
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
