package engine

import (
	"context"
	"math/big"
	"slices"
	"time"

	"phom/internal/core"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/phomerr"
)

// This file is the engine's one execution path. Every job runs as a
// lane of a batch group: DoContext runs a group of one, Stream runs the
// groups batchGroups forms. Production reweight traffic — one
// structure, many probability vectors — arrives at Stream/SolveBatch as
// K jobs differing only in probabilities. Run individually, each pays
// canonicalization and key hashing, a plan-cache fetch and a full
// interpreter walk. Grouped, the K lanes share one structure key (one
// graphio.Keyer), one plan fetch and one vectorized kernel dispatch
// (core.CompiledPlan.EvaluateBatch): per-lane cost drops to hashing the
// lane's probabilities and the lane's arithmetic. Grouping is invisible
// in results — every lane's outcome matches what DoContext would have
// returned — and visible in Stats.BatchRuns and Stats.BatchLanes.

// batchMaxLanes caps the width of one batched kernel dispatch; wider
// groups are chunked. The cap bounds the kernel's register matrix
// (NumRegs × lanes enclosures) and keeps per-chunk latency compatible
// with completion-order streaming.
const batchMaxLanes = 256

// batchGroups partitions a Stream batch into groups (slices of job
// indices, at most batchMaxLanes each), in order of first appearance;
// every job is in exactly one group. Jobs group when they share the
// query graph, the instance's underlying graph value (pointer identity
// — the cheap, sound test; reweight producers share it via
// graph.ProbGraph.CloneProbs), the options fingerprint and the per-job
// Timeout (equal budgets become one group deadline, started when the
// group starts — the moment each lane's own clock would have started),
// and use the single-query form. Any other job is a group of one.
func batchGroups(jobs []Job) [][]int {
	type groupKey struct {
		q       *graph.Graph
		g       *graph.Graph
		fp      string
		timeout time.Duration
	}
	open := make(map[groupKey]int) // key → its group still taking lanes
	// Fingerprint renders with fmt; a batch's jobs usually share one
	// options value, so each distinct value renders once.
	fps := make(map[*core.Options]string)
	var groups [][]int
	for i, job := range jobs {
		if job.Query == nil || len(job.Queries) != 0 || job.Instance == nil {
			groups = append(groups, []int{i})
			continue
		}
		fp, ok := fps[job.Opts]
		if !ok {
			fp = job.Opts.Fingerprint()
			fps[job.Opts] = fp
		}
		k := groupKey{q: job.Query, g: job.Instance.G, fp: fp, timeout: job.Timeout}
		if gi, ok := open[k]; ok && len(groups[gi]) < batchMaxLanes {
			groups[gi] = append(groups[gi], i)
			continue
		}
		open[k] = len(groups)
		groups = append(groups, []int{i})
	}
	return groups
}

// groupKeys validates a group and keys it: the resolved disjuncts,
// every lane's job key, and the Keyer of the structure the lanes share
// (batchGroups groups on the instance graph value). It is the one place
// a job is keyed. The structure is keyed once — by the lead's bound
// Keyer (InstanceJobs) when it fits the job, else afresh — and each lane
// hashes only its probabilities on top of the structure key. errs[k] is
// lane k's refusal: every lane's when the request itself is malformed,
// else a lane whose probability vector does not fit its graph (an O(1)
// check, made before Key reads the vector). A refused lane has no key.
func groupKeys(jobs []Job, lanes []int) (qs []*graph.Graph, keys []string, errs []error, keyer *graphio.Keyer) {
	keys, errs = make([]string, len(lanes)), make([]error, len(lanes))
	lead := jobs[lanes[0]]
	qs, err := lead.Disjuncts()
	if err != nil {
		for k := range errs {
			errs[k] = err
		}
		return nil, keys, errs, nil
	}
	canon, sfp := graphio.CanonicalQueries(qs), lead.Opts.StructFingerprint()
	if keyer = lead.keyer; !keyer.For(canon, lead.Instance.G, sfp) {
		keyer = graphio.NewKeyer(canon, lead.Instance.G, sfp)
	}
	fp := lead.Opts.Fingerprint()
	for k, i := range lanes {
		if errs[k] = phomerr.Wrap(phomerr.CodeBadInput, jobs[i].Instance.Validate()); errs[k] == nil {
			keys[k] = keyer.Key(jobs[i].Instance, fp)
		}
	}
	return qs, keys, errs, keyer
}

// runGroup takes the jobs at lanes — one group of batchGroups — from key
// to answer and calls deliver exactly once per lane, as soon as that
// lane's answer is known. Per lane, in one pass under the engine mutex:
// a lane groupKeys refused fails; a memo hit is served; a key already in
// flight coalesces onto that call, whether another caller or an
// identical lane of this group registered it; any other key registers
// a new call this group leads. A stateless lane marks the call it
// waits on for the memo (call.memo). The led calls run as one
// execution (execute) on a goroutine of their own. A lane whose ctx
// fires before its call completes abandons the call (see abandon).
func (e *Engine) runGroup(ctx context.Context, jobs []Job, lanes []int, deliver func(i int, r JobResult)) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		for _, i := range lanes {
			deliver(i, JobResult{Err: ErrClosed})
		}
		return
	}
	e.active.Add(1)
	e.stats.Submitted += uint64(len(lanes))
	if len(lanes) > 1 {
		e.stats.BatchRuns++
		e.stats.BatchLanes += uint64(len(lanes))
	}
	e.mu.Unlock()
	defer e.active.Done()

	lead := jobs[lanes[0]]
	if lead.Timeout > 0 {
		// All lanes carry the same budget (grouping keys on it); one
		// group deadline starting now is exactly the clock each lane
		// would have started on its own.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lead.Timeout)
		defer cancel()
	}
	qs, keys, errs, keyer := groupKeys(jobs, lanes)

	ready := make(chan int, len(lanes))
	calls := make([]*call, len(lanes)) // the call each undelivered lane waits on
	shared := make([]bool, len(lanes))
	var done []StreamResult // refused lanes and memo hits
	var ex *execution
	var execCtx context.Context
	var led []*call
	var ledInst []*graph.ProbGraph
	var ledMemo []*trackedPlan
	e.mu.Lock()
	for k, key := range keys {
		if errs[k] != nil {
			e.stats.Rejected++
			done = append(done, StreamResult{Index: lanes[k], JobResult: JobResult{Err: errs[k]}})
			continue
		}
		if res, ok := e.cache.Get(key); ok {
			e.stats.CacheHits++
			done = append(done, StreamResult{Index: lanes[k], JobResult: JobResult{Result: cloneResult(res), CacheHit: true}})
			continue
		}
		// An abandoned call cannot be joined: its execution may already
		// be cancelled. A fresh call replaces it in the table; the old
		// one, if still running, finds itself replaced when it completes.
		c, ok := e.inflight[key]
		if ok && !c.abandoned {
			e.stats.Coalesced++
			c.waiters++
			shared[k] = true
		} else {
			if ex == nil {
				ex = new(execution)
				execCtx, ex.cancel = context.WithCancel(e.baseCtx)
			}
			c = &call{key: key, exec: ex, waiters: 1}
			e.inflight[key] = c
			ex.live++
			led = append(led, c)
			ledInst = append(ledInst, jobs[lanes[k]].Instance)
			ledMemo = append(ledMemo, jobs[lanes[k]].partMemo())
		}
		c.memo = c.memo || jobs[lanes[k]].keyer == nil
		c.subs = append(c.subs, subscriber{ready: ready, lane: k})
		calls[k] = c
	}
	e.mu.Unlock()
	for _, d := range done {
		deliver(d.Index, d.JobResult)
	}
	pending := len(lanes) - len(done)

	// Wait for the lanes' calls. The led calls' execution starts after
	// the first ctx check, so a group that is dead on arrival — its
	// context already cancelled, or a deadline expired before dispatch —
	// abandons its lanes before anything runs; it still starts after
	// abandoning, for callers that coalesced onto a led call meanwhile.
	// It takes a slot unless execCtx has fired or fires first (every led
	// call abandoned, or engine shutdown), and then completes the led
	// calls unexecuted with the typed error. Close waits for it.
	var start func() // nil once started, or when the group leads no call
	if ex != nil {
		start = func() {
			e.active.Add(1)
			go func() {
				growStack(0)
				defer e.active.Done()
				defer ex.cancel()
				if execCtx.Err() == nil {
					select {
					case e.slots <- struct{}{}:
						e.execute(execCtx, led, ledInst, ledMemo, qs, lead.Opts, keyer.StructKey(), keyer.Order())
						<-e.slots
						return
					case <-execCtx.Done():
					}
				}
				e.complete(led, failed(len(led), phomerr.FromContext(execCtx)), nil)
			}()
		}
	}
	for pending > 0 && ctx.Err() == nil {
		if start != nil {
			start()
			start = nil
		}
		select {
		case k := <-ready:
			deliver(lanes[k], calls[k].result(shared[k]))
			calls[k] = nil
			pending--
		case <-ctx.Done():
		}
	}
	if pending == 0 {
		return
	}
	e.abandon(calls)
	err := phomerr.FromContext(ctx)
	for k, c := range calls {
		if c != nil {
			deliver(lanes[k], JobResult{Err: err, Shared: shared[k]})
		}
	}
	if start != nil {
		start()
	}
}

// growStack grows a new execution goroutine's stack in one copy while
// it is nearly empty. Exact evaluation runs ~16 KB deep; grown by
// doublings, the deepening stack was copied each time, ~10% of a live
// instance solve (a set_prob step on a 256-edge ⊔2WP, 2 vCPU).
//
//go:noinline
func growStack(i int) byte {
	var frame [8 << 10]byte
	return frame[i]
}

// abandon withdraws the undelivered lanes (non-nil calls[k]) from their
// calls after the group's context fired; each departure counts
// Canceled. A call whose last waiter leaves is abandoned, and an
// execution whose led calls are all abandoned is cancelled, so it
// stops at the next cooperative checkpoint: one impatient caller
// cannot cancel work another caller still waits for.
func (e *Engine) abandon(calls []*call) {
	var stop []context.CancelFunc
	e.mu.Lock()
	for _, c := range calls {
		if c == nil {
			continue
		}
		e.stats.Canceled++
		if c.waiters--; c.waiters == 0 {
			c.abandoned = true
			if c.exec.live--; c.exec.live == 0 {
				stop = append(stop, c.exec.cancel)
			}
		}
	}
	e.mu.Unlock()
	for _, cancel := range stop {
		cancel()
	}
}

// execute runs one group's led calls, holding a slot: it acquires
// the structure's compiled plan through acquirePlan, transports every
// lane's probabilities onto the plan's edge numbering, and evaluates all
// lanes through core's batched kernel — or, for the exact lanes of live
// instances (memos[k] non-nil), one by one through their plan's part
// memo. Every lane then counts as executed (Solved); failed lanes count
// Errors, lanes evaluated against a cached plan count PlanHits, and
// successful lanes update the precision counters.
func (e *Engine) execute(ctx context.Context, calls []*call, instances []*graph.ProbGraph, memos []*trackedPlan, qs []*graph.Graph, opts *core.Options, structKey string, canonOrder []int) {
	// All lanes share one graph value (grouping keys on it), so a fresh
	// plan compiled against lane 0 numbers every lane's edges.
	cp, hit, err := e.acquirePlan(ctx, structKey, canonOrder, qs, instances[0], opts)
	outs := failed(len(calls), err)
	planHit := make([]bool, len(calls))
	var reused, evaluated uint64
	if err == nil {
		// groupKeys checked every lane's shape; EvaluateBatch makes each
		// lane's one range scan, so each fails exactly as it would alone.
		vecs := make([][]*big.Rat, len(instances))
		for k, inst := range instances {
			planHit[k] = hit
			if hit {
				vecs[k] = transportProbs(cp, canonOrder, inst)
			} else {
				vecs[k] = inst.Probs()
			}
		}
		// The lanes' own options pick the numeric substrate: a cached
		// plan is shared across precision modes.
		if slices.ContainsFunc(memos, func(tp *trackedPlan) bool { return tp != nil }) {
			outs, reused, evaluated = evaluateMemo(ctx, cp, vecs, memos, opts)
		} else {
			outs = cp.EvaluateBatch(ctx, vecs, opts)
		}
	}

	prec := opts.EffectivePrecision()
	e.mu.Lock()
	e.stats.PartsReused += reused
	e.stats.PartsEvaluated += evaluated
	e.stats.Solved += uint64(len(outs))
	for k, o := range outs {
		if planHit[k] {
			e.stats.PlanHits++
		}
		if o.Err != nil {
			e.stats.Errors++
		} else {
			e.stats.countPrecision(prec, o.Result)
		}
	}
	e.mu.Unlock()
	e.complete(calls, outs, planHit)
}

// evaluateMemo evaluates exact lanes one by one, each lane with a
// tracking record through its part memo (core.CompiledPlan.EvaluateMemo),
// publishing the memo the run returns. It also returns how many parts
// those runs reused and evaluated.
func evaluateMemo(ctx context.Context, cp *core.CompiledPlan, vecs [][]*big.Rat, memos []*trackedPlan, opts *core.Options) (outs []core.BatchOutcome, reused, evaluated uint64) {
	outs = make([]core.BatchOutcome, len(vecs))
	for k, probs := range vecs {
		tp := memos[k]
		if tp == nil {
			outs[k].Result, outs[k].Err = cp.Evaluate(ctx, probs, opts)
			continue
		}
		res, next, err := cp.EvaluateMemo(ctx, probs, opts, tp.memo.Load())
		outs[k] = core.BatchOutcome{Result: res, Err: err}
		if next != nil {
			tp.memo.Store(next)
			r, e := next.Counts()
			reused += uint64(r)
			evaluated += uint64(e)
		}
	}
	return outs, reused, evaluated
}

// complete records the calls' outcomes, memoizes the successful ones a
// stateless lane still waits for (abandoned and instance-only results
// never reach the cache), retires the calls from the in-flight table,
// and notifies their subscribers. planHit may be nil (no lane was
// evaluated).
func (e *Engine) complete(calls []*call, outs []core.BatchOutcome, planHit []bool) {
	var subs []subscriber
	e.mu.Lock()
	for k, c := range calls {
		c.res, c.err = outs[k].Result, outs[k].Err
		c.planHit = planHit != nil && planHit[k]
		if c.err == nil && !c.abandoned && c.memo {
			e.cache.Add(c.key, c.res)
		}
		// Only remove the entry if it is still this call: an abandoned
		// call may have been replaced under the same key meanwhile.
		if cur, ok := e.inflight[c.key]; ok && cur == c {
			delete(e.inflight, c.key)
		}
		subs = append(subs, c.subs...)
		c.subs = nil
	}
	e.mu.Unlock()
	for _, s := range subs {
		s.ready <- s.lane
	}
}

// result is the JobResult a completed call hands one of its lanes,
// cloned so no two lanes (or the memo cache) share a mutable value. The
// lane that led the call reports PlanHit; the others report Shared.
func (c *call) result(shared bool) JobResult {
	jr := JobResult{Err: c.err, Shared: shared, PlanHit: c.planHit && !shared}
	if c.err == nil {
		jr.Result = cloneResult(c.res)
	}
	return jr
}

// failed returns n outcomes carrying err (none when err is nil).
func failed(n int, err error) []core.BatchOutcome {
	outs := make([]core.BatchOutcome, n)
	for k := range outs {
		outs[k].Err = err
	}
	return outs
}
