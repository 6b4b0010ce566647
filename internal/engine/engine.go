package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"phom/internal/core"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/lru"
	"phom/internal/phomerr"
)

// DefaultCacheSize is the default capacity of the result cache.
const DefaultCacheSize = 4096

// memoWordsPerEntry bounds the result cache by answer size as well as
// by count: its results' exact answers (numerators plus denominators)
// may total at most CacheSize·memoWordsPerEntry big.Word limbs, 2 MiB
// at the default size. Answers of a few hundred bits never reach that
// bound. Wide ones do: with every edge a 9-digit decimal, a 128-vertex
// path's answer takes ~1 KB, and wider probabilities make entries
// arbitrarily large, so a count bound alone does not bound memory.
// Past the budget the least recently used results are evicted.
const memoWordsPerEntry = 64

// DefaultPlanCacheSize is the default capacity of the compiled-plan
// cache. Plans are heavier than results (they hold lineage systems and
// d-DNNF circuits), so the default is smaller than the result cache.
const DefaultPlanCacheSize = 1024

// ErrClosed is returned by Solve and SolveBatch after Close. It
// carries phomerr.CodeUnavailable, so errors.Is(err,
// phomerr.ErrUnavailable) holds and the serving layer maps it to 503.
var ErrClosed error = phomerr.New(phomerr.CodeUnavailable, "engine: closed")

// Options configures an Engine.
type Options struct {
	// Workers bounds how many group executions run at once (each
	// takes one of Workers slots). 0 means GOMAXPROCS.
	Workers int
	// CacheSize bounds the number of memoized results, and through it
	// their total size (see memoWordsPerEntry). 0 means
	// DefaultCacheSize; negative disables memoization entirely
	// (in-flight deduplication still applies).
	CacheSize int
	// PlanCacheSize bounds the number of cached compiled plans, keyed by
	// job structure (probabilities stripped). 0 means
	// DefaultPlanCacheSize; negative disables plan caching, making every
	// executed job compile from scratch.
	PlanCacheSize int
	// BaseContext, when non-nil, is the lifetime context of every job
	// the engine executes: cancelling it aborts all in-flight solves at
	// their next cooperative checkpoint (they fail with
	// phomerr.ErrCanceled) and makes queued work abort on entry. The
	// serving layer wires its shutdown context here so SIGTERM stops
	// burning CPU on abandoned jobs. Nil means context.Background() —
	// jobs are then bounded only by their callers' contexts.
	BaseContext context.Context
	// PlanSnapshotPath, when non-empty, names a snapshot file for the
	// plan cache: New restores cached plans from it if it exists (a
	// warm start — restored structures serve reweights without ever
	// compiling), and Close writes the current plan cache back to it.
	// Snapshot failures never fail the engine — the snapshot is a
	// cache, not state — they are counted in Stats.SnapshotErrors (and
	// a failed save is additionally reported by Close).
	PlanSnapshotPath string
}

// Job is one evaluation: a query (or a union of conjunctive queries), a
// probabilistic instance, and solver options. It is also the v2
// request type of the public API (phom.Request): construct it
// literally or through phom.NewRequest and the functional options.
type Job struct {
	// Query is the query graph of a single conjunctive query. For a
	// union of conjunctive queries, set Queries instead and leave Query
	// nil; a one-element Queries is equivalent to Query.
	Query *graph.Graph
	// Queries are the disjuncts of a union of conjunctive queries.
	Queries []*graph.Graph
	// Instance is the probabilistic instance graph (H, π).
	Instance *graph.ProbGraph
	// Opts configures the solver; nil means defaults. Options take part
	// in the cache key (with defaults normalized, so nil and the
	// explicit default options share cache entries).
	Opts *core.Options
	// Timeout, when positive, is this job's execution budget: DoContext
	// derives a deadline that far in the future on top of its context,
	// and the job fails with phomerr.ErrDeadline when it passes. The
	// timeout is scheduling policy, not semantics, so it takes no part
	// in any cache key — two jobs differing only in Timeout share cache
	// entries and in-flight executions.
	Timeout time.Duration

	// keyer is InstanceJobs' binding: it keys the bound snapshot's
	// structure, and groupKeys uses it while the job's instance graph,
	// query and options still fit it. A bound job is an instance job,
	// whose result is not memoized (see call.memo).
	keyer *graphio.Keyer
	// tracked and snap complete the binding: the instance's tracking
	// record of the structure's plan, whose part memo an exact lane
	// reads and publishes while Instance is still the bound snapshot
	// snap (whose probability values are never mutated).
	tracked *trackedPlan
	snap    *graph.ProbGraph
}

// partMemo returns the tracking record whose part memo the job's lane
// may use, or nil.
func (j Job) partMemo() *trackedPlan {
	if j.tracked == nil || j.Instance != j.snap || j.Opts.EffectivePrecision() != core.PrecisionExact {
		return nil
	}
	return j.tracked
}

func (j Job) disjuncts() []*graph.Graph {
	if len(j.Queries) > 0 {
		return j.Queries
	}
	if j.Query != nil {
		return []*graph.Graph{j.Query}
	}
	return nil
}

// Disjuncts validates the request and resolves its query set with the
// engine's canonical precedence: Queries wins when non-empty, and a
// one-element Queries is equivalent to Query (a single query is a
// one-disjunct union to the compiler). Failures are typed
// phomerr.CodeBadInput.
func (j Job) Disjuncts() ([]*graph.Graph, error) {
	qs := j.disjuncts()
	if len(qs) == 0 {
		return nil, phomerr.New(phomerr.CodeBadInput, "phom: request has no query graph")
	}
	for _, q := range qs {
		if q == nil {
			return nil, phomerr.New(phomerr.CodeBadInput, "phom: nil query graph in request")
		}
	}
	if j.Instance == nil {
		return nil, phomerr.New(phomerr.CodeBadInput, "phom: request has no instance graph")
	}
	return qs, nil
}

// JobResult is the outcome of one Job in a batch.
type JobResult struct {
	Result *core.Result
	Err    error
	// CacheHit reports that the result was served from the memo cache
	// without running the solver.
	CacheHit bool
	// Shared reports that the job was coalesced onto an identical job
	// already in flight (singleflight) rather than executed itself.
	Shared bool
	// PlanHit reports that this call executed the job by evaluating a
	// cached compiled plan (a structure match with different
	// probabilities) instead of compiling from scratch. It is false for
	// results served from the result cache or coalesced onto another
	// call.
	PlanHit bool
}

// Stats is a snapshot of engine counters. The JSON tags match the
// snake_case wire style of cmd/phomserve, which exposes these counters.
type Stats struct {
	// Submitted counts jobs accepted by Solve, SolveUCQ, Do and
	// SolveBatch (including ones that later failed).
	Submitted uint64 `json:"submitted"`
	// Solved counts jobs actually executed (evaluated or failed in
	// evaluation), not served from the memo or coalesced.
	Solved uint64 `json:"solved"`
	// CacheHits counts jobs answered from the memo cache. Instance jobs
	// count when a stateless job memoized equal content; their own
	// results are not memoized.
	CacheHits uint64 `json:"cache_hits"`
	// Coalesced counts jobs deduplicated onto an identical in-flight job,
	// whether another caller submitted it or it is an identical lane of
	// the same batch group.
	Coalesced uint64 `json:"coalesced"`
	// Rejected counts jobs refused before execution (no query, no
	// instance, …).
	Rejected uint64 `json:"rejected"`
	// Errors counts executed jobs whose solver returned an error
	// (cancelled executions included).
	Errors uint64 `json:"errors"`
	// Canceled counts jobs abandoned because their context fired while
	// the job was queued or running — before its result (if any)
	// arrived. The execution itself additionally lands in Errors when
	// the last waiter's departure aborted it.
	Canceled uint64 `json:"canceled"`
	// PlanHits counts executed jobs evaluated against a cached compiled
	// plan (structure-only cache; the job's probabilities differed from
	// every memoized result), whether or not the evaluation succeeded.
	PlanHits uint64 `json:"plan_hits"`
	// PlanCompiles counts executed jobs that compiled a fresh plan.
	PlanCompiles uint64 `json:"plan_compiles"`
	// BatchRuns counts batched executions: groups of two or more
	// same-structure, same-options reweight jobs that Stream/SolveBatch
	// routed through the vectorized kernel as one dispatch (each chunk
	// of up to batchMaxLanes lanes is one run). A job run alone is a
	// group of one and counts nowhere here.
	BatchRuns uint64 `json:"batch_runs"`
	// BatchLanes counts the jobs carried by those batched runs — lanes
	// served from the memo cache or coalesced included, kernel-evaluated
	// or not.
	BatchLanes uint64 `json:"batch_lanes"`
	// FloatFast counts executed jobs that requested the float64 fast
	// path (precision fast or auto) and were answered by it — the
	// result carries a certified error bound instead of an exact
	// rational.
	FloatFast uint64 `json:"float_fast"`
	// FloatFallbacks counts executed jobs that requested the fast path
	// but were answered by exact rational arithmetic instead: the
	// certified enclosure was wider than the tolerance (auto), the
	// plan was opaque, or the float kernel could not produce a finite
	// bound. Fallback results are byte-identical to precision-exact
	// ones.
	FloatFallbacks uint64 `json:"float_fallbacks"`
	// ApproxRuns counts executed jobs answered by the Karp–Luby
	// estimator (precision approx on a #P-hard cell). Approx jobs that
	// landed on a tractable cell answered exactly and count nowhere —
	// neither here nor in the float counters.
	ApproxRuns uint64 `json:"approx_runs"`
	// ApproxSamples totals the Monte-Carlo samples drawn across
	// ApproxRuns (a run whose lineage short-circuited exactly
	// contributes zero).
	ApproxSamples uint64 `json:"approx_samples"`
	// PlansLoaded counts plan records restored into the plan cache by
	// LoadPlans (including the boot restore of Options.PlanSnapshotPath).
	PlansLoaded uint64 `json:"plans_loaded"`
	// PlansSaved counts plan records written by SavePlans (including
	// the Close snapshot of Options.PlanSnapshotPath).
	PlansSaved uint64 `json:"plans_saved"`
	// SnapshotErrors counts failed snapshot restores and saves
	// (malformed snapshot files, filesystem errors). A missing boot
	// snapshot is a cold start, not an error.
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// DeltasApplied counts individual instance deltas committed through
	// ApplyDelta (batches count once per delta, failed batches not at
	// all).
	DeltasApplied uint64 `json:"deltas_applied"`
	// IncrementalRecompiles counts tracked plans carried across a
	// structural delta by the component-localized splice
	// (core.PatchCompile reusing untouched parts).
	IncrementalRecompiles uint64 `json:"incremental_recompiles"`
	// FullRecompiles counts tracked plans a structural delta forced
	// through a from-scratch compile — the splice was not provably
	// local (route change, a change in which disjuncts are live, an
	// opaque or constant plan).
	FullRecompiles uint64 `json:"full_recompiles"`
	// PartsReused counts the Lemma 3.7 parts exact instance solves took
	// from their plan's part memo instead of evaluating them: parts
	// whose probabilities no delta touched since the last solve.
	PartsReused uint64 `json:"parts_reused"`
	// PartsEvaluated counts the parts those solves evaluated (and
	// recorded for the next one).
	PartsEvaluated uint64 `json:"parts_evaluated"`
	// Instances is the current number of live registered instances.
	Instances int `json:"instances"`
	// CacheLen is the current number of memoized results: results of
	// stateless jobs only (an instance job's result is memoized only
	// when a stateless job coalesced onto it).
	CacheLen int `json:"cache_len"`
	// PlanCacheLen is the current number of cached compiled plans.
	PlanCacheLen int `json:"plan_cache_len"`
}

// call is one singleflight execution: the evaluation of one job key,
// shared by every lane — of any caller, the leading group included —
// that asks for the key while it is in flight. The group that
// registered the call leads it: the call is one lane of that group's
// execution. waiters counts the lanes still interested; every lane
// that abandons the call (its context fired) decrements it, and the
// last one to leave abandons the call. Until the call completes, its
// fields are guarded by the engine mutex; res, err and planHit are
// read only by subscribers that were notified of completion.
type call struct {
	key     string
	exec    *execution
	waiters int
	// abandoned is set once nobody can ever receive this call's
	// result. New arrivals must not coalesce onto an abandoned call —
	// its execution may already be cancelled — they replace it in the
	// in-flight table instead, and its result never reaches the cache.
	abandoned bool
	// memo is set once a stateless lane — a job not bound to a live
	// instance — waits on the call, whether it leads the call or
	// coalesces onto it; complete memoizes only such calls' results
	// (instances.go says why instance results are not memoized).
	memo    bool
	subs    []subscriber // lanes to notify on completion
	res     *core.Result
	err     error
	planHit bool // evaluated against a cached plan
}

// subscriber is one lane waiting for a call: completion sends the
// lane's position on its group's ready channel, whose buffer holds one
// slot per lane, so the send never blocks.
type subscriber struct {
	ready chan<- int
	lane  int
}

// execution is one group's run of every call the group leads. Its
// context derives from the engine's base context (so engine shutdown
// aborts it) and is cancelled once every call it leads is abandoned, so
// it stops computing results nobody wants at its next cooperative
// checkpoint. live is guarded by the engine mutex.
type execution struct {
	live   int // led calls not yet abandoned
	cancel context.CancelFunc
}

// Engine is a concurrent batch evaluator. Create with New; an Engine
// must not be copied. All methods are safe for concurrent use.
type Engine struct {
	slots    chan struct{} // one per running execution, Options.Workers in all
	snapPath string        // Options.PlanSnapshotPath
	baseCtx  context.Context
	baseStop context.CancelFunc // releases baseCtx's child registration on Close

	mu         sync.Mutex
	closed     bool
	active     sync.WaitGroup // Solve/SolveBatch calls and executions in flight, for Close
	inflight   map[string]*call
	cache      *lru.Cache[*core.Result]       // nil (always missing) when memoization is disabled
	plans      *lru.Cache[*core.CompiledPlan] // nil (always missing) when plan caching is disabled
	planFlight map[string]chan struct{}       // structures being compiled right now
	instances  map[string]*instEntry          // live named instances (instances.go)
	stats      Stats
}

// New starts an Engine with the given options. When
// Options.PlanSnapshotPath names an existing snapshot, the plan cache
// is warm-started from it before the engine accepts jobs; restore
// failures are counted (Stats.SnapshotErrors) but never prevent
// startup, since the snapshot is only a cache.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var cache *lru.Cache[*core.Result]
	switch {
	case opts.CacheSize == 0:
		cache = newResultCache(DefaultCacheSize)
	case opts.CacheSize > 0:
		cache = newResultCache(opts.CacheSize)
	}
	var plans *lru.Cache[*core.CompiledPlan]
	switch {
	case opts.PlanCacheSize == 0:
		plans = lru.New[*core.CompiledPlan](DefaultPlanCacheSize)
	case opts.PlanCacheSize > 0:
		plans = lru.New[*core.CompiledPlan](opts.PlanCacheSize)
	}
	base := opts.BaseContext
	if base == nil {
		base = context.Background()
	}
	baseCtx, baseStop := context.WithCancel(base)
	snapPath := opts.PlanSnapshotPath
	if plans == nil {
		snapPath = "" // no plan cache to restore into or snapshot from
	}
	e := &Engine{
		slots:      make(chan struct{}, workers),
		snapPath:   snapPath,
		baseCtx:    baseCtx,
		baseStop:   baseStop,
		inflight:   make(map[string]*call),
		cache:      cache,
		plans:      plans,
		planFlight: make(map[string]chan struct{}),
		instances:  make(map[string]*instEntry),
	}
	if e.snapPath != "" {
		if f, err := os.Open(e.snapPath); err == nil {
			_, lerr := e.LoadPlans(f)
			f.Close()
			if lerr != nil {
				e.mu.Lock()
				e.stats.SnapshotErrors++
				e.mu.Unlock()
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			e.stats.SnapshotErrors++ // engine not yet shared: no lock needed
		}
	}
	return e
}

// Workers returns how many executions may run at once.
func (e *Engine) Workers() int { return cap(e.slots) }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.CacheLen = e.cache.Len()
	s.PlanCacheLen = e.plans.Len()
	s.Instances = len(e.instances)
	return s
}

// Solve computes Pr(G ⇝ H) through the engine, equivalent to core.Solve
// but scheduled under the engine's concurrency bound, deduplicated and
// memoized.
func (e *Engine) Solve(q *graph.Graph, h *graph.ProbGraph, opts *core.Options) (*core.Result, error) {
	r := e.Do(Job{Query: q, Instance: h, Opts: opts})
	return r.Result, r.Err
}

// SolveUCQ computes Pr(G₁ ∨ … ∨ G_k ⇝ H) through the engine, equivalent
// to core.SolveUCQ.
func (e *Engine) SolveUCQ(qs []*graph.Graph, h *graph.ProbGraph, opts *core.Options) (*core.Result, error) {
	r := e.Do(Job{Queries: qs, Instance: h, Opts: opts})
	return r.Result, r.Err
}

// Do runs a single job to completion, blocking until its result is
// available (possibly computed by a concurrent identical job). It is
// DoContext under context.Background(): no cancellation, no deadline.
func (e *Engine) Do(job Job) JobResult {
	return e.DoContext(context.Background(), job)
}

// DoContext runs a single job to completion under ctx, blocking until
// its result is available (possibly computed by a concurrent identical
// job) or ctx fires.
//
// Cancellation semantics: when ctx is cancelled (or its deadline — or
// the job's own Timeout — passes), DoContext returns promptly with a
// typed error (phomerr.ErrCanceled / ErrDeadline). The underlying
// execution is aborted at its next cooperative checkpoint if this was
// the only caller interested in it; if identical concurrent jobs are
// still waiting, the execution continues for them — one impatient
// client cannot cancel another's work. Results computed under an
// already-abandoned call are discarded, never cached.
//
// The job runs as a batch group of one on the calling goroutine, through
// the same group runner Stream uses.
func (e *Engine) DoContext(ctx context.Context, job Job) JobResult {
	var r JobResult
	e.runGroup(ctx, []Job{job}, []int{0}, func(_ int, jr JobResult) { r = jr })
	return r
}

// SolveBatch evaluates all jobs concurrently under the engine's
// concurrency bound and returns their results in job order. Identical
// jobs (within the batch or with other concurrent callers) are solved
// once and shared; results of previously solved jobs come from the
// cache. The call blocks until every job is done; per-job failures are
// reported in the corresponding JobResult, not by failing the batch.
func (e *Engine) SolveBatch(jobs []Job) []JobResult {
	return e.SolveBatchContext(context.Background(), jobs)
}

// SolveBatchContext is SolveBatch under a context: every job runs as
// DoContext(ctx, job), so cancelling ctx mid-batch makes the remaining
// jobs fail fast with phomerr.ErrCanceled (already-finished results
// are kept) and the call still returns one JobResult per job. It is
// exactly Stream drained into a job-ordered slice — one fan-out
// implementation serves both shapes.
func (e *Engine) SolveBatchContext(ctx context.Context, jobs []Job) []JobResult {
	out := make([]JobResult, len(jobs))
	for sr := range e.Stream(ctx, jobs) {
		out[sr.Index] = sr.JobResult
	}
	return out
}

// StreamResult is one completed job of a Stream call: the result (or
// error) of jobs[Index].
type StreamResult struct {
	// Index is the job's position in the Stream input slice.
	Index int
	JobResult
}

// Stream evaluates all jobs concurrently and delivers results in
// completion order, as they become available, instead of buffering the
// whole batch: huge batches start yielding answers after the first job
// finishes, and the caller's memory stays bounded by what it retains.
//
// The returned channel yields exactly one StreamResult per job — fast
// jobs first, each carrying its input index — and is then closed,
// always, whether or not ctx fires. The channel's buffer holds the
// whole batch, so delivery never blocks: a consumer may drain at its
// own pace, stop early, or abandon the channel entirely without
// leaking the delivering goroutines. Cancelling ctx aborts the
// remaining jobs — they fail fast and their StreamResults carry the
// typed phomerr.ErrCanceled. Per-job failures arrive as StreamResults
// with Err set, like SolveBatch's.
//
// Jobs that share one query, one instance structure (graph identity —
// see graph.ProbGraph.CloneProbs) and one options fingerprint — the
// reweight pattern — are grouped and executed through the batched
// evaluation kernel: one plan fetch and one vectorized dispatch for the
// whole group instead of one interpreter walk per job (Stats.BatchRuns
// / BatchLanes). Every other job is a group of one, run exactly as
// DoContext runs it. Grouping changes scheduling only, never results:
// per-lane results, errors, memo-cache interaction, coalescing and
// cancellation behave as if each job ran alone.
func (e *Engine) Stream(ctx context.Context, jobs []Job) <-chan StreamResult {
	// Buffered to len(jobs): each job sends exactly once, so the sends
	// can never block and every job's result is delivered even if ctx
	// fires while the consumer is mid-drain. The buffer is the same
	// O(len(jobs)) a SolveBatch result slice costs; what Stream saves
	// is the *latency* of the barrier, not the result storage.
	out := make(chan StreamResult, len(jobs))
	deliver := func(i int, r JobResult) { out <- StreamResult{Index: i, JobResult: r} }
	go func() {
		// Bound the submission fan-out: a slot is acquired *before*
		// spawning, so a million-job stream holds at most a few
		// goroutines per engine slot alive at a time rather than a
		// million stacks. A group occupies one slot for all its lanes.
		// Groups waiting on each other's calls cannot deadlock the
		// stream: a call is only ever registered by a group that already
		// holds a slot, and its execution takes an engine slot, which
		// frees independently of these.
		sem := make(chan struct{}, 4*e.Workers())
		var wg sync.WaitGroup
		for _, lanes := range batchGroups(jobs) {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				// Cancelled while queueing: deliver the typed error
				// directly — no goroutine — so the consumer still sees
				// one result per job. The lanes count as submitted and
				// canceled, as the lanes runGroup abandons do.
				e.mu.Lock()
				e.stats.Submitted += uint64(len(lanes))
				e.stats.Canceled += uint64(len(lanes))
				e.mu.Unlock()
				err := phomerr.FromContext(ctx)
				for _, i := range lanes {
					deliver(i, JobResult{Err: err})
				}
				continue
			}
			wg.Add(1)
			go func(lanes []int) {
				defer wg.Done()
				e.runGroup(ctx, jobs, lanes, deliver)
				<-sem
			}(lanes)
		}
		wg.Wait()
		close(out)
	}()
	return out
}

// Close shuts the engine down: it waits for in-flight jobs and their
// executions to finish, snapshots the plan cache to
// Options.PlanSnapshotPath if one was configured, and makes further
// submissions fail with ErrClosed. Close is idempotent: the second and
// later calls return nil without repeating any of this (in particular
// the snapshot is written at most once).
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.active.Wait() // no submission can start after closed is set
	// All jobs have drained; release the engine's registration in the
	// base context (a leak otherwise when BaseContext is long-lived).
	e.baseStop()
	if e.snapPath != "" {
		if err := e.snapshotToPath(); err != nil {
			e.mu.Lock()
			e.stats.SnapshotErrors++
			e.mu.Unlock()
			return fmt.Errorf("engine: plan snapshot: %w", err)
		}
	}
	return nil
}

// snapshotToPath writes the plan cache to the configured snapshot file
// via a temp-file rename, so a crash mid-write never leaves a
// truncated snapshot behind.
func (e *Engine) snapshotToPath() error {
	dir := filepath.Dir(e.snapPath)
	tmp, err := os.CreateTemp(dir, ".phom-plans-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := e.savePlansUnchecked(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), e.snapPath)
}

// SavePlans writes a snapshot of the plan cache to w — every cached
// structural plan in its canonical binary encoding (opaque plans are
// skipped: they are closures over exponential baselines, not data).
// The snapshot can be restored by LoadPlans on any engine, including
// in another process or on another replica: plans embed their
// structure key, so a restored cache serves reweights of the same
// structures without a single compilation. Returns the number of
// plans written.
func (e *Engine) SavePlans(w io.Writer) (int, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	e.mu.Unlock()
	return e.savePlansUnchecked(w)
}

// savePlansUnchecked is SavePlans without the closed check, shared with
// the Close-time snapshot (which runs after closed is set).
func (e *Engine) savePlansUnchecked(w io.Writer) (int, error) {
	// Snapshot the entries under the lock, then encode and write
	// without it: plans are immutable, so only the cache walk needs
	// synchronization.
	e.mu.Lock()
	// Oldest first: sequential re-insertion on load restores the
	// recency order.
	cps := e.plans.Values()
	e.mu.Unlock()
	var records [][]byte
	for _, cp := range cps {
		if cp.Opaque() {
			continue
		}
		rec, err := cp.MarshalBinary()
		if err != nil {
			return 0, err
		}
		records = append(records, rec)
	}
	if err := graphio.WritePlanSnapshot(w, records); err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.stats.PlansSaved += uint64(len(records))
	e.mu.Unlock()
	return len(records), nil
}

// LoadPlans restores plans from a snapshot written by SavePlans,
// merging them into the plan cache keyed by their embedded structure
// keys (existing entries for the same structure are replaced; the
// cache bound applies as usual). Every record is fully validated —
// corrupt snapshots yield an error, never a panic or an invalid
// cached plan. Returns the number of plans restored; on error, plans
// decoded before the failure remain cached.
func (e *Engine) LoadPlans(r io.Reader) (int, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	if e.plans == nil {
		e.mu.Unlock()
		return 0, fmt.Errorf("engine: plan caching is disabled")
	}
	e.mu.Unlock()
	loaded := 0
	err := graphio.ReadPlanSnapshot(r, func(rec []byte) error {
		cp := new(core.CompiledPlan)
		if err := cp.UnmarshalBinary(rec); err != nil {
			return err
		}
		e.mu.Lock()
		e.plans.Add(cp.StructKey(), cp)
		e.stats.PlansLoaded++
		e.mu.Unlock()
		loaded++
		return nil
	})
	return loaded, err
}

// acquirePlan returns the compiled plan for a group's structure: a
// plan-cache hit (hit=true; evaluate with transportProbs), or a fresh
// compile of qs against inst that then populates the cache (hit=false;
// inst's own edge numbering is the plan's).
//
// Compilation is deduplicated per structure: the engine's singleflight
// table coalesces only byte-identical jobs (probabilities included), so
// without this a cold burst of reweighted variants of one structure —
// the dominant serving pattern — would compile the same plan once per
// slot. A caller that finds its structure being compiled waits for
// that compilation and then re-checks the cache; on a compile error
// nothing is cached, so a waiter becomes the next leader (errors are
// never cached). Waiting holds a slot, which cannot deadlock: the
// flight is only ever registered by an execution already holding a
// slot, which finishes independently. With plan caching disabled no
// flight is registered — there is nothing to wait for, and compiles of
// one structure must not serialize.
//
// A cached plan whose edge count does not fit (only possible under a
// structure-hash collision) is recompiled fresh. An evaluation error
// is not retried: a fresh compile of the same structure would produce
// the same plan and the same error, and for opaque (baseline) plans
// retrying would re-run exponential work just to fail identically.
func (e *Engine) acquirePlan(ctx context.Context, structKey string, canonOrder []int, qs []*graph.Graph, inst *graph.ProbGraph, opts *core.Options) (cp *core.CompiledPlan, hit bool, err error) {
	registered := false
	for {
		var wait chan struct{}
		e.mu.Lock()
		if got, ok := e.plans.Get(structKey); ok {
			cp = got
		} else if ch, ok := e.planFlight[structKey]; ok {
			wait = ch
		} else if e.plans != nil {
			e.planFlight[structKey] = make(chan struct{})
			registered = true
		}
		e.mu.Unlock()
		if wait == nil {
			break
		}
		select {
		case <-wait: // the leader finished; re-check the plan cache
		case <-ctx.Done():
			return nil, false, phomerr.FromContext(ctx)
		}
	}
	if cp != nil {
		order := cp.CanonOrder()
		if len(canonOrder) == len(order) && cp.NumEdges() == len(order) {
			return cp, true, nil
		}
	}
	cp, err = core.CompileUCQContext(ctx, qs, inst, opts)
	e.mu.Lock()
	if err == nil {
		e.stats.PlanCompiles++
		e.plans.Add(structKey, cp)
	}
	if registered {
		close(e.planFlight[structKey])
		delete(e.planFlight, structKey)
	}
	e.mu.Unlock()
	return cp, false, err
}

// countPrecision updates the dual-precision counters after a successful
// evaluation, for single jobs and batch lanes alike: jobs that
// requested the float fast path (precision fast or auto) count as
// FloatFast when the float kernel answered and as FloatFallbacks when
// exact arithmetic did. Exact-precision jobs touch neither counter.
// Approx jobs feed the sampler counters instead: a sampled answer
// counts ApproxRuns/ApproxSamples, an approx job that landed on a
// tractable cell (answered exactly) counts nothing. Caller holds the
// engine mutex.
func (s *Stats) countPrecision(requested core.Precision, res *core.Result) {
	switch {
	case res == nil || requested == core.PrecisionExact:
	case requested == core.PrecisionApprox:
		if res.Precision == core.PrecisionApprox {
			s.ApproxRuns++
			s.ApproxSamples += uint64(res.ApproxSamples)
		}
	case res.Precision == core.PrecisionFast:
		s.FloatFast++
	default:
		s.FloatFallbacks++
	}
}

// transportProbs maps the probability vector of h onto the edge
// numbering of the cached plan: rank k of h's canonical edge order cur
// corresponds to rank k of the compile-time instance's canonical order
// (carried by the plan itself, surviving serialization), because equal
// StructKeys mean equal canonical edge sequences. acquirePlan has
// already checked that the lengths agree.
func transportProbs(cp *core.CompiledPlan, cur []int, h *graph.ProbGraph) []*big.Rat {
	order := cp.CanonOrder()
	probs := make([]*big.Rat, len(cur))
	for k, ei := range cur {
		probs[order[k]] = h.Prob(ei)
	}
	return probs
}

// cloneResult deep-copies a result so cache entries and singleflight
// peers never share a mutable *big.Rat (or bounds struct) with a
// caller.
func cloneResult(r *core.Result) *core.Result {
	c := &core.Result{Prob: new(big.Rat).Set(r.Prob), Method: r.Method, Precision: r.Precision, ApproxSamples: r.ApproxSamples}
	if r.Bounds != nil {
		b := *r.Bounds
		c.Bounds = &b
	}
	return c
}

// newResultCache returns the result memo: capacity entries weighed by
// the limbs of their answers, within the memoWordsPerEntry budget.
func newResultCache(capacity int) *lru.Cache[*core.Result] {
	budget := math.MaxInt
	if capacity < math.MaxInt/memoWordsPerEntry {
		budget = capacity * memoWordsPerEntry
	}
	return lru.NewWeighted(capacity, budget, func(r *core.Result) int {
		return len(r.Prob.Num().Bits()) + len(r.Prob.Denom().Bits())
	})
}
