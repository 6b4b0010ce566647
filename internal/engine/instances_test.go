package engine

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"testing"

	"phom/internal/core"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/instance"
	"phom/internal/phomerr"
)

func instPath(probs ...*big.Rat) *graph.ProbGraph {
	h := graph.NewProbGraph(graph.UnlabeledPath(len(probs)))
	for i, p := range probs {
		if err := h.SetProb(i, p); err != nil {
			panic(err)
		}
	}
	return h
}

func TestInstanceRegistryLifecycle(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	in, err := e.CreateInstance("alpha", instPath(big.NewRat(1, 2)))
	if err != nil {
		t.Fatalf("CreateInstance: %v", err)
	}
	if in.ID() != "alpha" {
		t.Fatalf("id = %q", in.ID())
	}
	if _, err := e.CreateInstance("alpha", instPath(big.NewRat(1, 2))); !errors.Is(err, phomerr.ErrBadInput) {
		t.Fatalf("duplicate id = %v, want ErrBadInput", err)
	}
	minted, err := e.CreateInstance("", instPath(big.NewRat(1, 3)))
	if err != nil {
		t.Fatalf("CreateInstance(minted): %v", err)
	}
	if minted.ID() == "" || minted.ID() == "alpha" {
		t.Fatalf("minted id = %q", minted.ID())
	}
	if got := e.ListInstances(); len(got) != 2 || got[0] != "alpha" {
		t.Fatalf("ListInstances = %v", got)
	}
	if s := e.Stats(); s.Instances != 2 {
		t.Fatalf("Stats.Instances = %d", s.Instances)
	}
	if _, ok := e.Instance("alpha"); !ok {
		t.Fatal("Instance(alpha) not found")
	}
	if !e.DeleteInstance("alpha") || e.DeleteInstance("alpha") {
		t.Fatal("DeleteInstance idempotence broken")
	}
	if _, ok := e.Instance("alpha"); ok {
		t.Fatal("deleted instance still resolvable")
	}
	if _, _, err := e.InstanceJob("alpha", Job{Query: graph.UnlabeledPath(1)}); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("InstanceJob on deleted = %v, want ErrNoInstance", err)
	}
	if _, err := e.ApplyDelta("alpha", -1, []instance.Delta{{Op: instance.OpSetProb, From: 0, To: 1, Prob: graph.RatOne}}); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("ApplyDelta on deleted = %v, want ErrNoInstance", err)
	}
}

// TestDeltaInvalidatesOnlyTouchedInstance: after a delta the touched
// instance answers its new probabilities, a sibling instance still
// answers its own, and a plain stateless job's memo entry — the only
// one, since instance results are not memoized — keeps serving hits.
func TestDeltaInvalidatesOnlyTouchedInstance(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	q := graph.UnlabeledPath(1)

	if _, err := e.CreateInstance("a", instPath(big.NewRat(1, 2), big.NewRat(1, 3))); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstance("b", instPath(big.NewRat(1, 5), big.NewRat(1, 7))); err != nil {
		t.Fatal(err)
	}
	stateless := Job{Query: q, Instance: instPath(big.NewRat(2, 3))}

	runInst := func(id string) JobResult {
		job, _, err := e.InstanceJob(id, Job{Query: q})
		if err != nil {
			t.Fatalf("InstanceJob(%s): %v", id, err)
		}
		r := e.Do(job)
		if r.Err != nil {
			t.Fatalf("Do(%s): %v", id, r.Err)
		}
		return r
	}
	scratch := func(id string) string {
		in, _ := e.Instance(id)
		want, err := core.Solve(q, in.Snapshot().H, nil)
		if err != nil {
			t.Fatal(err)
		}
		return want.Prob.RatString()
	}
	runInst("a")
	rb := runInst("b")
	if r := e.Do(stateless); r.Err != nil {
		t.Fatal(r.Err)
	}

	if _, err := e.ApplyDelta("a", -1, []instance.Delta{
		{Op: instance.OpSetProb, From: 0, To: 1, Prob: big.NewRat(3, 4)},
	}); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if ra := runInst("a"); ra.CacheHit || ra.Result.Prob.RatString() != scratch("a") {
		t.Fatalf("touched instance answered %s (hit %v), want a fresh %s", ra.Result.Prob.RatString(), ra.CacheHit, scratch("a"))
	}
	if r := runInst("b"); r.Result.Prob.RatString() != rb.Result.Prob.RatString() {
		t.Fatalf("sibling instance answered %s after the delta, %s before", r.Result.Prob.RatString(), rb.Result.Prob.RatString())
	}
	if !e.Do(stateless).CacheHit {
		t.Fatal("stateless job's cache entry was evicted")
	}
	if s := e.Stats(); s.DeltasApplied != 1 || s.CacheLen != 1 {
		t.Fatalf("DeltasApplied = %d, CacheLen = %d; want 1, 1", s.DeltasApplied, s.CacheLen)
	}
}

// TestInstanceResultsSkipMemo pins the memo rule: a call's result is
// memoized only if a stateless lane waits on it. An instance solve
// leaves the memo empty and its repeat misses; a stateless job with
// the same content fills it, and the instance solve is then served from
// that entry; a stateless lane coalescing onto an instance-led call
// gets that call memoized.
func TestInstanceResultsSkipMemo(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	q := graph.UnlabeledPath(1)
	if _, err := e.CreateInstance("m", instPath(big.NewRat(1, 2), big.NewRat(1, 3))); err != nil {
		t.Fatal(err)
	}
	runInst := func() JobResult {
		t.Helper()
		job, _, err := e.InstanceJob("m", Job{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		r := e.Do(job)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return r
	}
	for i := 0; i < 2; i++ {
		if r := runInst(); r.CacheHit || r.Result.Prob.RatString() != "2/3" {
			t.Fatalf("instance solve %d: %s, hit %v; want 2/3 from no memo entry", i, r.Result.Prob.RatString(), r.CacheHit)
		}
		if n := e.Stats().CacheLen; n != 0 {
			t.Fatalf("CacheLen = %d after instance solve %d, want 0", n, i)
		}
	}

	stateless := e.Do(Job{Query: q, Instance: instPath(big.NewRat(1, 2), big.NewRat(1, 3))})
	if stateless.Err != nil || stateless.CacheHit {
		t.Fatalf("stateless job: %v, hit %v", stateless.Err, stateless.CacheHit)
	}
	if n := e.Stats().CacheLen; n != 1 {
		t.Fatalf("CacheLen = %d after the stateless job, want 1", n)
	}
	if r := runInst(); !r.CacheHit || r.Result.Prob.RatString() != stateless.Result.Prob.RatString() {
		t.Fatalf("instance solve after the stateless job: %s, hit %v; want %s from the memo",
			r.Result.Prob.RatString(), r.CacheHit, stateless.Result.Prob.RatString())
	}

	// New content: the instance solve leads the call, held in flight
	// until a stateless lane with the same content coalesces onto it.
	if _, err := e.ApplyDelta("m", -1, []instance.Delta{{Op: instance.OpSetProb, From: 0, To: 1, Prob: big.NewRat(3, 4)}}); err != nil {
		t.Fatal(err)
	}
	release := holdSlots(e, 1)
	defer release()
	job, _, err := e.InstanceJob("m", Job{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	led := make(chan JobResult, 1)
	go func() { led <- e.Do(job) }()
	awaitEngine(t, e, "the instance-led call in flight", func(inflight int, _ Stats) bool { return inflight == 1 })
	joined := make(chan JobResult, 1)
	go func() { joined <- e.Do(Job{Query: q, Instance: instPath(big.NewRat(3, 4), big.NewRat(1, 3))}) }()
	awaitEngine(t, e, "the stateless lane coalesced", func(_ int, s Stats) bool { return s.Coalesced == 1 })
	release()
	rl, rj := <-led, <-joined
	if rl.Err != nil || rj.Err != nil {
		t.Fatalf("led: %v, joined: %v", rl.Err, rj.Err)
	}
	if rl.Result.Prob.RatString() != "5/6" || !rj.Shared || rj.Result.Prob.RatString() != "5/6" {
		t.Fatalf("led %s, joined %s (shared %v); want 5/6 twice", rl.Result.Prob.RatString(), rj.Result.Prob.RatString(), rj.Shared)
	}
	if n := e.Stats().CacheLen; n != 2 {
		t.Fatalf("CacheLen = %d after the coalesced call, want 2", n)
	}
	if r := runInst(); !r.CacheHit {
		t.Fatal("instance solve missed the entry its coalesced call memoized")
	}
}

// TestStructuralDeltaMigratesPlan pins the eager plan migration: after
// an edge delta on a tracked instance the new structure's plan is
// already in the cache (the next solve is a plan hit, not a compile),
// produced by the incremental splice — for a single query and for a
// union alike.
func TestStructuralDeltaMigratesPlan(t *testing.T) {
	for _, tc := range []struct {
		name string
		job  Job
	}{
		{"query", Job{Query: graph.UnlabeledPath(1)}},
		{"union", Job{Queries: []*graph.Graph{graph.UnlabeledPath(2), graph.Path2WP(graph.Fwd(graph.Unlabeled), graph.Bwd(graph.Unlabeled))}}},
	} {
		t.Run(tc.name, func(t *testing.T) { testStructuralDeltaMigratesPlan(t, tc.job) })
	}
}

func testStructuralDeltaMigratesPlan(t *testing.T, base Job) {
	e := New(Options{Workers: 2})
	defer e.Close()
	// Two disjoint paths: removing one edge touches one component only.
	g, _ := graph.DisjointUnion(graph.UnlabeledPath(2), graph.UnlabeledPath(2))
	h := graph.NewProbGraph(g)
	h.MustSetEdgeProb(0, 1, big.NewRat(1, 2))
	if _, err := e.CreateInstance("m", h); err != nil {
		t.Fatal(err)
	}
	job, ver, err := e.InstanceJob("m", base)
	if err != nil || ver != 1 {
		t.Fatalf("InstanceJob: %v (version %d)", err, ver)
	}
	if r := e.Do(job); r.Err != nil {
		t.Fatal(r.Err)
	}
	before := e.Stats()
	if before.PlanCompiles != 1 {
		t.Fatalf("PlanCompiles = %d, want 1", before.PlanCompiles)
	}

	res, err := e.ApplyDelta("m", 1, []instance.Delta{{Op: instance.OpRemoveEdge, From: 3, To: 4}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if !res.Structural || res.New.Version != 2 {
		t.Fatalf("ApplyRes = %+v", res)
	}
	after := e.Stats()
	if after.IncrementalRecompiles != before.IncrementalRecompiles+1 {
		t.Fatalf("IncrementalRecompiles = %d, want %d", after.IncrementalRecompiles, before.IncrementalRecompiles+1)
	}
	if after.FullRecompiles != before.FullRecompiles {
		t.Fatalf("FullRecompiles moved: %d", after.FullRecompiles)
	}
	// The structure is keyed once per delta: the instance binds the
	// migrated plan's own Keyer, and the next bound job carries it.
	e.mu.Lock()
	bound := e.instances["m"].keyer
	migrated, _ := e.plans.Get(bound.StructKey())
	e.mu.Unlock()
	if migrated == nil || migrated.Keyer() != bound {
		t.Fatal("the instance's bound Keyer is not the migrated plan's Keyer")
	}

	job2, ver2, err := e.InstanceJob("m", base)
	if err != nil || ver2 != 2 {
		t.Fatalf("InstanceJob v2: %v (version %d)", err, ver2)
	}
	if job2.keyer != bound {
		t.Fatal("the job bound after the delta re-keyed the structure")
	}
	r2 := e.Do(job2)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if !r2.PlanHit {
		t.Fatal("post-delta solve compiled instead of hitting the migrated plan")
	}
	final := e.Stats()
	if final.PlanCompiles != before.PlanCompiles {
		t.Fatalf("post-delta solve ran a compile: %d", final.PlanCompiles)
	}
	snap, _ := e.Instance("m")
	qs, err := job2.Disjuncts()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SolveUCQ(qs, snap.Snapshot().H, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Result.Prob.RatString() != want.Prob.RatString() {
		t.Fatalf("migrated plan answered %s, scratch %s", r2.Result.Prob.RatString(), want.Prob.RatString())
	}
}

// TestSharedStructureMigration pins plan migration when two instances
// share a structure key: instance a removes and re-adds an edge, so the
// plan cached under the shared key is now numbered in a's edge order
// (the re-added edge moved to the end). Instance b's next structural
// delta migrates that plan against b's own graph, which lists the same
// edges in the original order; every answer, before and after, must
// equal a from-scratch core.Solve.
func TestSharedStructureMigration(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	q := graph.Path2WP(graph.Fwd(graph.Unlabeled), graph.Bwd(graph.Unlabeled))
	paths := make([]*graph.Graph, 4)
	for i := range paths {
		paths[i] = graph.Path2WP(graph.Fwd(graph.Unlabeled), graph.Bwd(graph.Unlabeled),
			graph.Bwd(graph.Unlabeled), graph.Fwd(graph.Unlabeled), graph.Bwd(graph.Unlabeled))
	}
	g, offs := graph.DisjointUnion(paths...)
	h := graph.NewProbGraph(g)
	for i := 0; i < g.NumEdges(); i++ {
		if err := h.SetProb(i, big.NewRat(int64(2+i), 41)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "b"} {
		if _, err := e.CreateInstance(id, h); err != nil {
			t.Fatal(err)
		}
	}
	check := func(id string) {
		t.Helper()
		job, ver, err := e.InstanceJob(id, Job{Query: q})
		if err != nil {
			t.Fatalf("InstanceJob(%s): %v", id, err)
		}
		r := e.Do(job)
		if r.Err != nil {
			t.Fatalf("Do(%s): %v", id, r.Err)
		}
		want, err := core.Solve(q, job.Instance, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Result.Prob.RatString() != want.Prob.RatString() {
			t.Fatalf("%s v%d (plan_hit=%v): engine %s, scratch %s", id, ver, r.PlanHit,
				r.Result.Prob.RatString(), want.Prob.RatString())
		}
	}
	apply := func(id string, d instance.Delta) {
		t.Helper()
		if _, err := e.ApplyDelta(id, -1, []instance.Delta{d}); err != nil {
			t.Fatalf("ApplyDelta(%s, %v): %v", id, d.Op, err)
		}
		check(id)
	}
	check("a")
	check("b")
	first := g.Edge(0)
	apply("a", instance.Delta{Op: instance.OpRemoveEdge, From: first.From, To: first.To})
	apply("a", instance.Delta{Op: instance.OpAddEdge, From: first.From, To: first.To,
		Label: first.Label, Prob: big.NewRat(3, 7)})
	// Join the last two paths end to start: every old edge of b survives,
	// so the migration splices the untouched paths from the shared plan.
	apply("b", instance.Delta{Op: instance.OpAddEdge, From: offs[3] - 1, To: offs[3],
		Label: graph.Unlabeled, Prob: big.NewRat(5, 9)})
	check("a")
	if st := e.Stats(); st.IncrementalRecompiles == 0 {
		t.Fatal("no migration took the incremental splice; the test is vacuous")
	}
}

// TestApplyDeltaConflictThroughEngine pins the typed conflict surface.
func TestApplyDeltaConflictThroughEngine(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	if _, err := e.CreateInstance("c", instPath(big.NewRat(1, 2))); err != nil {
		t.Fatal(err)
	}
	_, err := e.ApplyDelta("c", 99, []instance.Delta{{Op: instance.OpSetProb, From: 0, To: 1, Prob: graph.RatOne}})
	if !errors.Is(err, phomerr.ErrConflict) {
		t.Fatalf("stale CAS through engine = %v, want ErrConflict", err)
	}
	if s := e.Stats(); s.DeltasApplied != 0 {
		t.Fatalf("failed delta counted: %d", s.DeltasApplied)
	}
}

// TestApplyRacesSolves drives concurrent deltas (probability and
// structural) against solves and streams on the same instance under the
// race detector: every solve must answer some published version
// exactly, with no torn state. COW means a solve that resolved its
// snapshot before a delta finishes against the pre-delta version.
func TestApplyRacesSolves(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()
	g, _ := graph.DisjointUnion(graph.UnlabeledPath(2), graph.UnlabeledPath(2))
	h := graph.NewProbGraph(g)
	if _, err := e.CreateInstance("race", h); err != nil {
		t.Fatal(err)
	}
	q := graph.UnlabeledPath(1)
	ctx := context.Background()

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	// Writer: alternates probability drifts with a remove/add flip of
	// the same edge (structural both ways).
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			var batch []instance.Delta
			switch k % 4 {
			case 0, 1:
				batch = []instance.Delta{{Op: instance.OpSetProb, From: 0, To: 1, Prob: big.NewRat(int64(1+k%5), 6)}}
			case 2:
				batch = []instance.Delta{{Op: instance.OpRemoveEdge, From: 3, To: 4}}
			case 3:
				batch = []instance.Delta{{Op: instance.OpAddEdge, From: 3, To: 4, Label: graph.Unlabeled, Prob: big.NewRat(1, 2)}}
			}
			if _, err := e.ApplyDelta("race", -1, batch); err != nil {
				t.Errorf("ApplyDelta: %v", err)
				return
			}
		}
	}()
	// Readers: single solves and streams against whatever snapshot
	// InstanceJob resolves.
	for w := 0; w < 3; w++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for k := 0; k < 40; k++ {
				job, _, err := e.InstanceJob("race", Job{Query: q})
				if err != nil {
					t.Errorf("InstanceJob: %v", err)
					return
				}
				if k%2 == 0 {
					if r := e.DoContext(ctx, job); r.Err != nil {
						t.Errorf("DoContext: %v", r.Err)
						return
					}
					continue
				}
				jobs := []Job{job, job}
				for sr := range e.Stream(ctx, jobs) {
					if sr.Err != nil {
						t.Errorf("Stream: %v", sr.Err)
						return
					}
				}
			}
		}()
	}
	// Readers run a fixed number of iterations; once they are done the
	// writer has raced against every one of them and can stop.
	readerWG.Wait()
	close(stop)
	writerWG.Wait()

	// Post-race coherence: a final solve equals a from-scratch solve of
	// the final snapshot.
	job, _, err := e.InstanceJob("race", Job{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Do(job)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	snap, _ := e.Instance("race")
	want, err := core.Solve(q, snap.Snapshot().H, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.Prob.RatString() != want.Prob.RatString() {
		t.Fatalf("final solve %s != scratch %s", r.Result.Prob.RatString(), want.Prob.RatString())
	}
}

// TestBoundJobKeys: a job bound to a snapshot carries the snapshot
// structure's Keyer, and groupKeys keys it with that Keyer, to the key a
// fresh Keyer derives. A job whose Instance (or query) is replaced
// afterwards is keyed afresh, so it answers its new instance, not the
// snapshot's.
func TestBoundJobKeys(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	if _, err := e.CreateInstance("k", instPath(big.NewRat(1, 2), big.NewRat(1, 3))); err != nil {
		t.Fatal(err)
	}
	q := graph.UnlabeledPath(1)
	job, _, err := e.InstanceJob("k", Job{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if job.keyer == nil {
		t.Fatal("bound job carries no Keyer")
	}
	keyOf := func(j Job) (string, *graphio.Keyer) {
		t.Helper()
		_, keys, errs, keyer := groupKeys([]Job{j}, []int{0})
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		return keys[0], keyer
	}
	key, keyer := keyOf(job)
	if keyer != job.keyer {
		t.Fatal("groupKeys did not reuse the bound Keyer")
	}
	fresh := job
	fresh.keyer = nil
	if want, k2 := keyOf(fresh); key != want || k2 == job.keyer {
		t.Fatalf("bound key %s, fresh key %s", key, want)
	}
	if r := e.Do(job); r.Err != nil || r.Result.Prob.RatString() != "2/3" {
		t.Fatalf("bound job answered %v, %v; want 2/3", r.Result, r.Err)
	}

	moved := job
	moved.Instance = instPath(big.NewRat(1, 5), big.NewRat(1, 7))
	if k2, keyer := keyOf(moved); k2 == key || keyer == job.keyer {
		t.Fatal("replaced instance reused the snapshot's key")
	}
	if r := e.Do(moved); r.Err != nil || r.Result.Prob.RatString() != "11/35" {
		t.Fatalf("job with a replaced instance answered %v, %v; want 11/35", r.Result, r.Err)
	}
	requeried := job
	requeried.Query = graph.UnlabeledPath(2)
	if _, keyer := keyOf(requeried); keyer == job.keyer {
		t.Fatal("replaced query reused the snapshot's Keyer")
	}
	if r := e.Do(requeried); r.Err != nil || r.Result.Prob.RatString() != "1/6" {
		t.Fatalf("job with a replaced query answered %v, %v; want 1/6", r.Result, r.Err)
	}
}
