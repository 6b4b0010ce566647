package engine

import (
	"context"
	"errors"
	"math/big"
	"sort"
	"time"

	"phom/internal/core"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/phomerr"
)

// This file is the engine's batched reweight path. Production reweight
// traffic — one structure, many probability vectors — arrives at
// Stream/SolveBatch as K jobs differing only in probabilities. Run
// individually, each pays goroutine spawn, canonicalization and key
// hashing, a plan-cache fetch and a full interpreter walk. Grouped,
// the K lanes share one key-derivation pass (graphio.BatchJobKeys
// amortizes the canonical prefix), one plan fetch and one vectorized
// kernel dispatch (core.CompiledPlan.EvaluateBatch): per-lane cost drops
// to the probability-suffix hash and the lane's arithmetic. Grouping
// is invisible in results — every lane's outcome matches what
// DoContext would have returned — and visible in Stats.BatchRuns and
// Stats.BatchLanes. The group shares the per-job path's machinery
// rather than copying it: plan acquisition is acquirePlan, outcome
// accounting is Stats.countPrecision, and the lanes' job keys (derived
// whether or not memoization is on) both probe the memo cache and
// dedupe identical lanes.

// batchMaxLanes caps the width of one batched kernel dispatch; wider
// groups are chunked. The cap bounds the kernel's register matrix
// (NumRegs × lanes enclosures) and keeps per-chunk latency compatible
// with completion-order streaming.
const batchMaxLanes = 256

// batchGroups partitions a Stream batch into batchable groups (slices
// of job indices, each with at least 2 and at most batchMaxLanes
// lanes) and the remaining singles. Jobs group when they share the
// query graph, the instance's underlying graph value (pointer
// identity — the cheap, sound test; reweight producers share it via
// graph.ProbGraph.CloneProbs), the options fingerprint and the per-job
// Timeout (equal budgets become one group deadline, started when the
// group starts — the moment each lane's own clock would have started),
// and use the single-query form.
func batchGroups(jobs []Job) (groups [][]int, singles []int) {
	type groupKey struct {
		q       *graph.Graph
		g       *graph.Graph
		fp      string
		timeout time.Duration
	}
	idx := make(map[groupKey][]int)
	var order []groupKey
	for i, job := range jobs {
		if job.Query == nil || len(job.Queries) != 0 || job.Instance == nil {
			singles = append(singles, i)
			continue
		}
		k := groupKey{q: job.Query, g: job.Instance.G, fp: job.Opts.Fingerprint(), timeout: job.Timeout}
		if _, ok := idx[k]; !ok {
			order = append(order, k)
		}
		idx[k] = append(idx[k], i)
	}
	for _, k := range order {
		lanes := idx[k]
		for len(lanes) > batchMaxLanes {
			groups = append(groups, lanes[:batchMaxLanes])
			lanes = lanes[batchMaxLanes:]
		}
		if len(lanes) >= 2 {
			groups = append(groups, lanes)
		} else {
			singles = append(singles, lanes...)
		}
	}
	return groups, singles
}

// runBatchGroup executes one group of same-structure jobs: derive all
// lane keys in one pass, serve memo-cache hits immediately, and run the
// remaining lanes through the batched kernel on a worker. It emits
// exactly one StreamResult per lane.
func (e *Engine) runBatchGroup(ctx context.Context, out chan<- StreamResult, jobs []Job, lanes []int) {
	emitErr := func(idxs []int, err error) {
		for _, i := range idxs {
			out <- StreamResult{Index: i, JobResult: JobResult{Err: err}}
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		emitErr(lanes, ErrClosed)
		return
	}
	e.active.Add(1)
	e.stats.Submitted += uint64(len(lanes))
	e.stats.BatchRuns++
	e.stats.BatchLanes += uint64(len(lanes))
	e.mu.Unlock()
	defer e.active.Done()

	lead := jobs[lanes[0]]
	if lead.Timeout > 0 {
		// All lanes carry the same budget (grouping keys on it); one
		// group deadline starting now is exactly the per-job clock each
		// lane would have started at this point on the singleflight path.
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, lead.Timeout)
		defer cancelTimeout()
	}
	qs, err := lead.Disjuncts()
	if err != nil { // unreachable given grouping eligibility, kept for parity with DoContext
		e.mu.Lock()
		e.stats.Rejected += uint64(len(lanes))
		e.mu.Unlock()
		emitErr(lanes, err)
		return
	}
	canon := make([]string, len(qs))
	for i, q := range qs {
		canon[i] = graphio.CanonicalGraph(q)
	}
	sort.Strings(canon)

	instances := make([]*graph.ProbGraph, len(lanes))
	for k, i := range lanes {
		instances[k] = jobs[i].Instance
	}
	// One keying pass for all lanes: the canonical prefix (query
	// sections, instance header, edge lines) is derived once and only the
	// probability suffixes are hashed per lane.
	jobKeys, structKey, canonOrder := graphio.BatchJobKeys(canon, instances,
		lead.Opts.Fingerprint(), lead.Opts.StructFingerprint())

	// Memo pass: lanes whose exact job was answered before are served
	// from the result cache without occupying a kernel lane. Identical
	// lanes are deduplicated by job key, the in-group analogue of the
	// per-job path's singleflight: one lane per distinct key executes,
	// its duplicates share the outcome.
	var pending []int          // lane positions that execute
	dupOf := make(map[int]int) // duplicate lane position → index into pending
	primary := make(map[string]int, len(lanes))
	var hits []StreamResult
	e.mu.Lock()
	for k := range lanes {
		if res, ok := e.cache.Get(jobKeys[k]); ok {
			e.stats.CacheHits++
			hits = append(hits, StreamResult{Index: lanes[k], JobResult: JobResult{Result: cloneResult(res), CacheHit: true}})
		} else if pi, ok := primary[jobKeys[k]]; ok {
			dupOf[k] = pi
		} else {
			primary[jobKeys[k]] = len(pending)
			pending = append(pending, k)
		}
	}
	e.mu.Unlock()
	for _, h := range hits {
		out <- h
	}
	if len(pending) == 0 {
		return
	}

	// Lane execution runs under the engine's lifetime context with the
	// stream's cancellation propagated in — the double bound the
	// singleflight path gets by deriving call contexts off baseCtx and
	// cancelling on waiter abandonment.
	runCtx, cancel := context.WithCancel(e.baseCtx)
	defer cancel()
	stop := context.AfterFunc(ctx, cancel)
	defer stop()

	pendInst := make([]*graph.ProbGraph, len(pending))
	for pi, k := range pending {
		pendInst[pi] = instances[k]
	}
	var outs []core.BatchOutcome
	var planHit bool
	done := make(chan struct{})
	task := func() {
		defer close(done)
		outs, planHit = e.executeBatch(runCtx, qs, lead.Opts, structKey, canonOrder, pendInst)
	}
	abort := func(err error) {
		e.mu.Lock()
		e.stats.Canceled += uint64(len(pending) + len(dupOf))
		e.mu.Unlock()
		for _, k := range pending {
			out <- StreamResult{Index: lanes[k], JobResult: JobResult{Err: err}}
		}
		for k := range dupOf {
			out <- StreamResult{Index: lanes[k], JobResult: JobResult{Err: err, Shared: true}}
		}
	}
	// A group that is dead on arrival — stream already cancelled, or a
	// per-job deadline that expired before dispatch — must not execute.
	// The select below would also notice, but when a worker slot and
	// ctx.Done() are both ready it picks randomly, and the AfterFunc
	// propagation into runCtx is asynchronous, so a short group could
	// run to completion without ever observing the expired context.
	// Checking synchronously here makes the outcome deterministic.
	if err := phomerr.FromContext(ctx); err != nil {
		abort(err)
		return
	}
	// Hand the group to a worker, honoring the promptness contract: a
	// cancelled stream does not sit in the queue.
	select {
	case e.jobs <- task:
	case <-ctx.Done():
		abort(phomerr.FromContext(ctx))
		return
	}
	<-done

	memo := e.cache != nil
	e.mu.Lock()
	for pi, k := range pending {
		if outs[pi].Err == nil {
			e.cache.Add(jobKeys[k], outs[pi].Result)
		}
	}
	// A duplicate of a successful lane is served by the memo entry its
	// primary just populated (a cache hit minus the lookup); with
	// memoization off, or when the primary failed, it counts as
	// coalesced, like an in-flight waiter.
	for _, pi := range dupOf {
		if memo && outs[pi].Err == nil {
			e.stats.CacheHits++
		} else {
			e.stats.Coalesced++
		}
	}
	e.mu.Unlock()
	for pi, k := range pending {
		out <- StreamResult{Index: lanes[k], JobResult: laneResult(outs[pi], JobResult{PlanHit: planHit})}
	}
	for k, pi := range dupOf {
		jr := JobResult{Shared: true}
		if memo && outs[pi].Err == nil {
			jr = JobResult{CacheHit: true}
		}
		out <- StreamResult{Index: lanes[k], JobResult: laneResult(outs[pi], jr)}
	}
}

// laneResult fills jr with a lane's outcome, cloning the result so no
// two lanes (or the memo cache) share a mutable value.
func laneResult(o core.BatchOutcome, jr JobResult) JobResult {
	jr.Err = o.Err
	if o.Err == nil {
		jr.Result = cloneResult(o.Result)
	}
	return jr
}

// executeBatch runs one group's pending lanes on the calling worker:
// it acquires the group's compiled plan through acquirePlan (the same
// per-structure singleflight single jobs use), transports every lane's
// probabilities onto the plan's edge numbering, and evaluates all lanes
// through core's batched kernel. Every lane then counts as executed
// (Solved); error lanes count like failed executions (with
// cancellations also counted Canceled, as the per-job path does for
// abandoned calls), plan-hit groups count one PlanHit per lane, and
// successful lanes update the precision counters exactly as a single
// job would. Returns one outcome per lane and whether the lanes were
// served by a cached plan.
func (e *Engine) executeBatch(ctx context.Context, qs []*graph.Graph, opts *core.Options, structKey string, canonOrder []int, instances []*graph.ProbGraph) ([]core.BatchOutcome, bool) {
	var outs []core.BatchOutcome
	// All lanes share one graph value (grouping keys on it), so a fresh
	// plan compiled against lane 0 numbers every lane's edges.
	cp, hit, err := e.acquirePlan(ctx, structKey, canonOrder, qs, instances[0], opts)
	if err != nil {
		outs = make([]core.BatchOutcome, len(instances))
		for k := range outs {
			outs[k] = core.BatchOutcome{Err: err}
		}
	} else {
		probVecs := make([][]*big.Rat, len(instances))
		for k, inst := range instances {
			if hit {
				probVecs[k] = transportProbs(cp, canonOrder, inst)
			} else {
				probVecs[k] = inst.Probs()
			}
		}
		outs = cp.EvaluateBatch(ctx, probVecs, opts)
	}

	prec := opts.EffectivePrecision()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Solved += uint64(len(outs))
	if hit {
		e.stats.PlanHits += uint64(len(outs))
	}
	for _, o := range outs {
		if o.Err != nil {
			e.stats.Errors++
			if errors.Is(o.Err, phomerr.ErrCanceled) || errors.Is(o.Err, phomerr.ErrDeadline) {
				e.stats.Canceled++
			}
			continue
		}
		e.stats.countPrecision(prec, o.Result)
	}
	return outs, hit
}
