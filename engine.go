package phom

import "phom/internal/engine"

// Concurrent batch evaluation, re-exported from internal/engine. An
// Engine bounds how many Solve/SolveUCQ executions run at once,
// deduplicates identical in-flight jobs (singleflight), and memoizes
// completed results in a bounded LRU cache keyed by a canonical hash of
// (query, instance, options). A second, structure-keyed cache holds
// compiled plans (see Compile), so jobs that differ from earlier ones
// only in edge probabilities skip recompilation and pay only linear
// evaluation. The plan cache is persistent: Engine.SavePlans and
// Engine.LoadPlans snapshot and restore it in the canonical binary
// plan format (warm-starting fresh engines or replicas with zero
// recompiles), and EngineOptions.PlanSnapshotPath automates the loop
// across restarts. Results are byte-identical to sequential Solve: the
// engine changes scheduling, never arithmetic. For huge batches,
// Engine.Stream yields results in completion order instead of
// buffering the whole result slice (it backs the NDJSON streaming mode
// of cmd/phomserve's /batch endpoint).
type (
	// Engine is a concurrent batch evaluator; create with NewEngine and
	// release with Close. Submission is context-aware: DoContext,
	// SolveBatchContext and Stream take a context.Context (and honor
	// each Request's Timeout), cancel work nobody is waiting for at the
	// next cooperative checkpoint, and report cancellation as typed
	// ErrCanceled/ErrDeadline errors. Do and SolveBatch remain as the
	// context-free v1 shims.
	Engine = engine.Engine
	// EngineOptions configures NewEngine. EngineOptions.BaseContext is
	// the lifetime context of every job: cancel it (the serving layer
	// wires its shutdown context here) and all in-flight solves abort.
	EngineOptions = engine.Options
	// Job is one (query or UCQ, instance, options) evaluation for
	// Engine.Do and Engine.SolveBatch. It is the same type as Request —
	// the unified v2 request — under the v1 name.
	Job = engine.Job
	// JobResult is the outcome of one Job, with cache provenance.
	JobResult = engine.JobResult
	// StreamResult is one completed job of an Engine.Stream call: the
	// JobResult of the input job at Index, delivered in completion
	// order.
	StreamResult = engine.StreamResult
	// EngineStats is a snapshot of engine counters.
	EngineStats = engine.Stats
)

// DefaultEngineCacheSize is the default capacity of an Engine's result
// cache.
const DefaultEngineCacheSize = engine.DefaultCacheSize

// DefaultEnginePlanCacheSize is the default capacity of an Engine's
// structure-keyed compiled-plan cache.
const DefaultEnginePlanCacheSize = engine.DefaultPlanCacheSize

// ErrEngineClosed is returned by Engine methods after Close.
var ErrEngineClosed = engine.ErrClosed

// NewEngine starts a concurrent evaluation engine with the given
// options; EngineOptions{} gives GOMAXPROCS workers and the default
// cache size. Callers must Close the engine when done.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }
