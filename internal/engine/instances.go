package engine

// instances.go: the engine's registry of live named instances
// (internal/instance) and the cache discipline around their mutations.
// A solve against an instance is an ordinary engine job over the
// instance's current snapshot — same memo cache, same plan cache, same
// singleflight — plus a tracking record: the entry remembers which memo
// keys and which structural plans the instance's snapshots produced.
// ApplyDelta then keeps the caches honest with surgical precision:
//
//   - every delta (probability or structural) evicts exactly the
//     instance's own memoized results — other instances' and plain
//     stateless jobs' entries are untouched;
//   - a probability-only batch leaves every compiled plan valid (the
//     structure key did not move): the next solve is a pure reweight,
//     zero recompilation;
//   - a structural batch eagerly migrates each tracked plan (single
//     query or union) to the new structure through
//     core.PatchCompileUCQContext — untouched components are spliced
//     copy-on-write, only components incident to the delta recompile
//     (Stats.IncrementalRecompiles) — falling
//     back to a from-scratch compile when the splice is not provably
//     local (Stats.FullRecompiles); superseded plans are dropped from
//     the plan cache.

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"

	"phom/internal/core"
	"phom/internal/graph"
	"phom/internal/instance"
	"phom/internal/phomerr"
)

// ErrNoInstance is returned by instance-scoped engine methods when the
// named instance does not exist. It carries CodeBadInput; the serving
// layer distinguishes it (404, not 400) by identity.
var ErrNoInstance error = phomerr.New(phomerr.CodeBadInput, "engine: no such instance")

// trackedPlan records one structural plan an instance's solves put in
// the plan cache, with everything ApplyDelta needs to migrate it across
// a structural delta: the resolved query graphs, the normalized
// options, and the instance's graph when the plan was tracked. The
// plan cached under the structure key may since have been replaced by
// one compiled against a structurally equal graph in another edge
// order; PatchCompile maps between the two numberings.
type trackedPlan struct {
	qs   []*graph.Graph
	opts *core.Options
	g    *graph.Graph
}

// instEntry is the registry record of one live instance. The maps are
// guarded by the engine mutex; applyMu serializes ApplyDelta (and
// DeleteInstance) per instance so plan migration never races a
// concurrent delta's migration on the same entry.
type instEntry struct {
	inst    *instance.Instance
	applyMu chan struct{} // 1-buffered semaphore: per-instance write lock
	plans   map[string]*trackedPlan
	results map[string]struct{}
}

func (ent *instEntry) lock()   { ent.applyMu <- struct{}{} }
func (ent *instEntry) unlock() { <-ent.applyMu }

// CreateInstance registers a new live instance owning a deep copy of h.
// An empty id mints a fresh unique one. The id (minted or supplied) is
// returned; a duplicate id or an invalid instance graph fails with
// CodeBadInput.
func (e *Engine) CreateInstance(id string, h *graph.ProbGraph) (*instance.Instance, error) {
	if id == "" {
		var buf [8]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return nil, fmt.Errorf("engine: minting instance id: %w", err)
		}
		id = "inst-" + hex.EncodeToString(buf[:])
	}
	in, err := instance.New(id, h)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if _, dup := e.instances[id]; dup {
		return nil, phomerr.New(phomerr.CodeBadInput, "engine: instance %q already exists", id)
	}
	e.instances[id] = &instEntry{
		inst:    in,
		applyMu: make(chan struct{}, 1),
		plans:   make(map[string]*trackedPlan),
		results: make(map[string]struct{}),
	}
	return in, nil
}

// Instance returns the live instance named id, or nil, false.
func (e *Engine) Instance(id string) (*instance.Instance, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.instances[id]
	if !ok {
		return nil, false
	}
	return ent.inst, true
}

// ListInstances returns the ids of all live instances, sorted.
func (e *Engine) ListInstances() []string {
	e.mu.Lock()
	ids := make([]string, 0, len(e.instances))
	for id := range e.instances {
		ids = append(ids, id)
	}
	e.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// DeleteInstance unregisters the instance and evicts its memoized
// results and tracked plans from the caches. It reports whether the
// instance existed. Solves holding the last snapshot finish unharmed
// (the snapshot is immutable); they just no longer feed the tracking.
func (e *Engine) DeleteInstance(id string) bool {
	e.mu.Lock()
	ent, ok := e.instances[id]
	if !ok {
		e.mu.Unlock()
		return false
	}
	e.mu.Unlock()
	ent.lock()
	defer ent.unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, still := e.instances[id]; !still || cur != ent {
		return false // lost a delete race; the other call did the work
	}
	delete(e.instances, id)
	e.evictLocked(ent)
	return true
}

// evictLocked drops the entry's memoized results and tracked plans from
// the caches. Caller holds e.mu.
func (e *Engine) evictLocked(ent *instEntry) {
	for k := range ent.results {
		e.cache.Remove(k)
	}
	ent.results = make(map[string]struct{})
	for sk := range ent.plans {
		e.plans.Remove(sk)
	}
}

// InstanceJob resolves an instance-scoped job: it loads the instance's
// current snapshot into job.Instance and registers the job's memo key
// and structural plan with the instance's tracking record, so a later
// delta can invalidate and migrate exactly this work. The returned job
// is an ordinary engine job — run it through DoContext, Stream or
// SolveBatch as usual. The snapshot's version is returned so callers
// can report which version answered.
func (e *Engine) InstanceJob(id string, job Job) (Job, uint64, error) {
	jobs, version, err := e.InstanceJobs(id, []Job{job})
	if err != nil {
		return Job{}, 0, err
	}
	if _, err := jobs[0].Disjuncts(); err != nil {
		return Job{}, 0, err
	}
	return jobs[0], version, nil
}

// InstanceJobs is InstanceJob for a batch: it binds every job to one
// snapshot, so all of them answer the same version even while deltas
// commit concurrently, and returns that version. A job that fails
// validation (no query) is bound but not tracked; running it fails
// with the typed error InstanceJob reports for it.
func (e *Engine) InstanceJobs(id string, jobs []Job) ([]Job, uint64, error) {
	e.mu.Lock()
	ent, ok := e.instances[id]
	e.mu.Unlock()
	if !ok {
		return nil, 0, ErrNoInstance
	}
	snap := ent.inst.Snapshot()
	bound := make([]Job, len(jobs))
	keys := make([]string, 0, len(jobs))
	plans := make(map[string]*trackedPlan)
	for i, job := range jobs {
		job.Instance = snap.H
		bound[i] = job
		qs, key, structKey, _, err := jobKeys(job)
		if err != nil {
			continue
		}
		keys = append(keys, key)
		if _, dup := plans[structKey]; !dup {
			plans[structKey] = &trackedPlan{qs: qs, opts: job.Opts, g: snap.H.G}
		}
	}
	e.mu.Lock()
	// Re-check liveness under the lock: a concurrent DeleteInstance
	// must not see its eviction silently undone by this tracking write.
	if cur, still := e.instances[id]; still && cur == ent {
		for _, key := range keys {
			ent.results[key] = struct{}{}
		}
		for structKey, tp := range plans {
			if _, tracked := ent.plans[structKey]; !tracked {
				ent.plans[structKey] = tp
			}
		}
	}
	e.mu.Unlock()
	return bound, snap.Version, nil
}

// ApplyDelta applies a batch of deltas to the named instance (see
// instance.Apply for atomicity and the ifVersion optimistic check) and
// keeps the engine caches coherent: the instance's memoized results are
// evicted, and — when the batch changed the structure — every tracked
// plan is migrated to the new structure through
// core.PatchCompileUCQContext, reusing the untouched components'
// compiled parts.
// Failed batches (conflict, malformed delta) change nothing.
func (e *Engine) ApplyDelta(id string, ifVersion int64, deltas []instance.Delta) (*instance.ApplyResult, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	ent, ok := e.instances[id]
	e.mu.Unlock()
	if !ok {
		return nil, ErrNoInstance
	}
	ent.lock()
	defer ent.unlock()
	res, err := ent.inst.Apply(ifVersion, deltas)
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	e.stats.DeltasApplied += uint64(len(deltas))
	for k := range ent.results {
		e.cache.Remove(k)
	}
	ent.results = make(map[string]struct{})
	var work map[string]*trackedPlan
	if res.Structural {
		work = ent.plans
		ent.plans = make(map[string]*trackedPlan)
	}
	e.mu.Unlock()
	if !res.Structural {
		return res, nil
	}

	// Structural delta: migrate each tracked plan to the new structure.
	// Compilation runs outside the engine mutex (it can be the dominant
	// cost); applyMu keeps concurrent deltas to this instance from
	// migrating over each other.
	for oldSK, tp := range work {
		e.mu.Lock()
		old, _ := e.plans.Get(oldSK)
		e.mu.Unlock()
		if old == nil {
			// Evicted since it was tracked: nothing to migrate; the next
			// solve compiles fresh through the ordinary path.
			continue
		}
		cp, incremental, cerr := core.PatchCompileUCQContext(e.baseCtx, tp.qs, old, tp.g, res.New.H, tp.opts)
		e.mu.Lock()
		e.plans.Remove(oldSK) // superseded structure
		if cerr == nil && cp != nil {
			if incremental {
				e.stats.IncrementalRecompiles++
			} else {
				e.stats.FullRecompiles++
			}
			e.plans.Add(cp.StructKey(), cp)
			if cur, still := e.instances[id]; still && cur == ent {
				ent.plans[cp.StructKey()] = &trackedPlan{qs: tp.qs, opts: tp.opts, g: res.New.H.G}
			}
		}
		// A migration error (the new structure fell off the tractable
		// cell and fallbacks are disabled, say) is not a delta error: the
		// delta committed; the next solve will surface the typed error
		// through the ordinary compile path.
		e.mu.Unlock()
	}
	return res, nil
}
