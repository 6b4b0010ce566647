// Package engine provides a concurrent batch-evaluation engine on top of
// the core solver. An Engine bounds how many executions run at once
// (Options.Workers slots, each execution on a goroutine of its own),
// deduplicates identical in-flight jobs (singleflight: concurrent
// submissions of the same job share one execution), and memoizes
// completed stateless results in a bounded LRU cache keyed by the
// canonical job hash of package graphio.
//
// Every job takes one path from key to answer: it is a lane of a batch
// group (batch.go). DoContext runs a group of one on the caller's
// goroutine; Stream and SolveBatch group same-structure reweight jobs
// and run each group, however wide, through the same runner. Per lane
// the runner serves a memo hit, coalesces onto an identical in-flight
// call (of any caller), or registers a call the group leads; the led
// calls run as one execution, which takes a slot.
//
// Every job is keyed in one place, groupKeys: a graphio.Keyer keys the
// structure of the group's shared instance graph once (structure key,
// canonical edge order) — the Keyer an instance job was bound with
// (InstanceJobs) when it still fits, else a fresh one — and each lane's
// memo key hashes the structure key, the lane's probabilities and its
// options.
//
// Jobs against a live instance (InstanceJobs) are keyed, coalesced and
// served from the memo like any job, but their results are not
// memoized unless a stateless lane waits on the same call. The key is
// content, so an entry could not go stale; but a live instance rarely
// repeats its content (the traced live workload read a memo hit ratio
// of 0), and holding its results cost resident memory (instances.go).
// What an instance keeps instead is a part memo per tracked plan: an
// exact solve bound to a snapshot skips the Lemma 3.7 parts whose
// probabilities no delta touched since the last solve
// (core.CompiledPlan.EvaluateMemo), and a structural delta carries the
// memo of the parts its splice replayed (Stats.PartsReused and
// Stats.PartsEvaluated).
//
// Below the result cache sits a second, structure-keyed cache of
// compiled solver plans (core.Compile / internal/plan), keyed by the
// Keyer's structure key — the job's identity with probabilities and
// evaluation policy stripped. Jobs that differ from a previously executed job only in
// edge probabilities skip the structural phase (classification, lineage
// and circuit construction) and pay only the linear evaluation, which
// is the dominant serving pattern: what-if analysis, probability sweeps
// and streaming weight updates over a fixed query/instance topology.
//
// By default all results are exact *big.Rat probabilities,
// byte-identical to what a sequential call to core.Solve / core.SolveUCQ
// would return: the engine changes scheduling, never arithmetic. Jobs
// may opt into the dual-precision fast path (core.Options.Precision):
// their plans evaluate on the certified float64 interval kernel, with
// the per-job options — not the cached plan — picking the substrate,
// and the Stats counters FloatFast / FloatFallbacks reporting which
// substrate answered. Cached results are deep-copied on the way out, so
// callers may mutate what they receive.
package engine
