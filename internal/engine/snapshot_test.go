package engine

import (
	"bytes"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/instance"
)

// reweightedCopy returns a structurally identical instance with fresh
// random probabilities.
func reweightedCopy(t *testing.T, r *rand.Rand, h *graph.ProbGraph) *graph.ProbGraph {
	t.Helper()
	h2 := graph.NewProbGraph(h.G)
	for i := 0; i < h.G.NumEdges(); i++ {
		if err := h2.SetProb(i, big.NewRat(int64(r.Intn(17)), 16)); err != nil {
			t.Fatal(err)
		}
	}
	return h2
}

// snapshotJobs builds one job per structural cell for snapshot tests.
func snapshotJobs(r *rand.Rand) []Job {
	rs := []graph.Label{"R", "S"}
	un := []graph.Label{graph.Unlabeled}
	return []Job{
		{Query: gen.Rand1WP(r, 4, rs),
			Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 30, rs), 0.5)},
		{Query: gen.RandConnected(r, 4, 1, rs),
			Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, 30, rs), 0.5)},
		{Query: gen.RandDWT(r, 4, un),
			Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassUPT, 20, un), 0.5)},
		{Queries: []*graph.Graph{gen.Rand1WP(r, 3, rs), gen.Rand1WP(r, 4, rs)},
			Instance: gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, 25, rs), 0.5)},
	}
}

// TestSaveLoadPlansWarmStart is the warm-start acceptance test: a plan
// cache exported from one engine and imported into a fresh one serves
// reweights of the exported structures as plan hits with zero
// compilations, byte-identical to cold solving.
func TestSaveLoadPlansWarmStart(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	jobs := snapshotJobs(r)

	warmer := New(Options{Workers: 2})
	for i, j := range jobs {
		if res := warmer.Do(j); res.Err != nil {
			t.Fatalf("warming job %d: %v", i, res.Err)
		}
	}
	var snap bytes.Buffer
	saved, err := warmer.SavePlans(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if saved != len(jobs) {
		t.Fatalf("saved %d plans for %d structural jobs", saved, len(jobs))
	}
	if st := warmer.Stats(); st.PlansSaved != uint64(saved) {
		t.Fatalf("PlansSaved = %d, want %d", st.PlansSaved, saved)
	}
	if err := warmer.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := New(Options{Workers: 2})
	defer fresh.Close()
	loaded, err := fresh.LoadPlans(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != saved {
		t.Fatalf("loaded %d of %d plans", loaded, saved)
	}
	for round := 0; round < 3; round++ {
		for i, j := range jobs {
			reweighted := j
			reweighted.Instance = reweightedCopy(t, r, j.Instance)
			res := fresh.Do(reweighted)
			if res.Err != nil {
				t.Fatalf("warm job %d: %v", i, res.Err)
			}
			if !res.PlanHit {
				t.Fatalf("warm job %d round %d: not a plan hit", i, round)
			}
			want := solveSequential(t, []Job{reweighted})[0]
			if res.Result.Prob.RatString() != want.Prob.RatString() {
				t.Fatalf("warm job %d: %s, cold solve %s",
					i, res.Result.Prob.RatString(), want.Prob.RatString())
			}
			if res.Result.Method != want.Method {
				t.Fatalf("warm job %d: method %v, cold %v", i, res.Result.Method, want.Method)
			}
		}
	}
	st := fresh.Stats()
	if st.PlanCompiles != 0 {
		t.Fatalf("warm-started engine compiled %d plans, want 0", st.PlanCompiles)
	}
	if st.PlansLoaded != uint64(loaded) {
		t.Fatalf("PlansLoaded = %d, want %d", st.PlansLoaded, loaded)
	}
}

// TestLoadedPlanSplicesOnStructuralDelta: a plan restored from a
// snapshot carries its part table, so the first structural delta on a
// live instance over that structure splices it (an incremental
// recompile, no full one), and the migrated plan answers the next solve
// as a plan hit, exactly like a cold solve of the new structure.
func TestLoadedPlanSplicesOnStructuralDelta(t *testing.T) {
	g, _ := graph.DisjointUnion(graph.UnlabeledPath(2), graph.UnlabeledPath(2), graph.UnlabeledPath(2))
	h := graph.NewProbGraph(g)
	for i := 0; i < g.NumEdges(); i++ {
		h.SetProb(i, big.NewRat(int64(i+1), 9))
	}
	job := Job{Query: graph.UnlabeledPath(1), Instance: h}

	warmer := New(Options{Workers: 1})
	if res := warmer.Do(job); res.Err != nil {
		t.Fatal(res.Err)
	}
	var snap bytes.Buffer
	if saved, err := warmer.SavePlans(&snap); err != nil || saved != 1 {
		t.Fatalf("SavePlans: %d plans, %v", saved, err)
	}
	warmer.Close()

	e := New(Options{Workers: 1})
	defer e.Close()
	if loaded, err := e.LoadPlans(bytes.NewReader(snap.Bytes())); err != nil || loaded != 1 {
		t.Fatalf("LoadPlans: %d plans, %v", loaded, err)
	}
	if _, err := e.CreateInstance("w", h); err != nil {
		t.Fatal(err)
	}
	bound, _, err := e.InstanceJob("w", Job{Query: job.Query})
	if err != nil {
		t.Fatal(err)
	}
	if res := e.Do(bound); res.Err != nil || !res.PlanHit {
		t.Fatalf("solve on the restored plan: hit=%v err=%v", res.PlanHit, res.Err)
	}
	before := e.Stats()
	if _, err := e.ApplyDelta("w", 1, []instance.Delta{{Op: instance.OpRemoveEdge, From: 3, To: 4}}); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	after := e.Stats()
	if after.IncrementalRecompiles != before.IncrementalRecompiles+1 || after.FullRecompiles != before.FullRecompiles {
		t.Fatalf("restored plan migrated with incremental %d → %d, full %d → %d; want one incremental, no full",
			before.IncrementalRecompiles, after.IncrementalRecompiles, before.FullRecompiles, after.FullRecompiles)
	}
	bound, _, err = e.InstanceJob("w", Job{Query: job.Query})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Do(bound)
	if res.Err != nil || !res.PlanHit {
		t.Fatalf("post-delta solve: hit=%v err=%v", res.PlanHit, res.Err)
	}
	want := solveSequential(t, []Job{bound})[0]
	if res.Result.Prob.RatString() != want.Prob.RatString() {
		t.Fatalf("migrated plan answered %s, cold solve %s", res.Result.Prob.RatString(), want.Prob.RatString())
	}
	if st := e.Stats(); st.PlanCompiles != 0 {
		t.Fatalf("warm-started engine compiled %d plans, want 0", st.PlanCompiles)
	}
}

// TestSavePlansSkipsOpaque: baseline (hard-cell) plans are cached but
// never serialized.
func TestSavePlansSkipsOpaque(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	e := New(Options{Workers: 1})
	defer e.Close()
	opaqueJob := Job{
		Query:    gen.Rand1WP(r, 3, []graph.Label{"R", "S"}),
		Instance: gen.RandProb(r, gen.RandGraph(r, 5, 8, []graph.Label{"R", "S"}), 0.3),
	}
	if res := e.Do(opaqueJob); res.Err != nil {
		t.Fatal(res.Err)
	}
	structural := snapshotJobs(r)[0]
	if res := e.Do(structural); res.Err != nil {
		t.Fatal(res.Err)
	}
	var snap bytes.Buffer
	saved, err := e.SavePlans(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if saved != 1 {
		t.Fatalf("saved %d plans, want 1 (opaque plan must be skipped)", saved)
	}
}

// TestLoadPlansRejectsCorruptSnapshot: corrupt snapshots error without
// panicking, and records before the corruption stay loaded.
func TestLoadPlansRejectsCorruptSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	warmer := New(Options{Workers: 1})
	for _, j := range snapshotJobs(r)[:2] {
		if res := warmer.Do(j); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	var snap bytes.Buffer
	if _, err := warmer.SavePlans(&snap); err != nil {
		t.Fatal(err)
	}
	if err := warmer.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := New(Options{Workers: 1})
	defer fresh.Close()
	if _, err := fresh.LoadPlans(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("loaded garbage")
	}
	corrupt := append([]byte(nil), snap.Bytes()...)
	corrupt[len(corrupt)-2] ^= 0xff // damage the last record's payload
	n, err := fresh.LoadPlans(bytes.NewReader(corrupt))
	if err == nil {
		t.Fatal("loaded a corrupt snapshot without error")
	}
	if n != 1 {
		t.Fatalf("loaded %d records before the corruption, want 1", n)
	}
	// Truncated container.
	n2, err := fresh.LoadPlans(bytes.NewReader(snap.Bytes()[:snap.Len()-1]))
	if err == nil {
		t.Fatal("loaded a truncated snapshot without error")
	}
	_ = n2
}

// TestLoadPlansDisabled: restoring into an engine without a plan cache
// fails loudly instead of silently dropping the snapshot.
func TestLoadPlansDisabled(t *testing.T) {
	e := New(Options{Workers: 1, PlanCacheSize: -1})
	defer e.Close()
	if _, err := e.LoadPlans(strings.NewReader("")); err == nil {
		t.Fatal("LoadPlans succeeded with plan caching disabled")
	}
}

// TestPlanSnapshotPath: Options.PlanSnapshotPath persists the plan
// cache across engine lifetimes — the second engine serves reweights
// with zero compilations.
func TestPlanSnapshotPath(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	path := filepath.Join(t.TempDir(), "plans.bin")
	jobs := snapshotJobs(r)

	first := New(Options{Workers: 1, PlanSnapshotPath: path})
	for _, j := range jobs {
		if res := first.Do(j); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot not written: %v", err)
	}

	second := New(Options{Workers: 1, PlanSnapshotPath: path})
	defer second.Close()
	if st := second.Stats(); st.PlansLoaded != uint64(len(jobs)) || st.SnapshotErrors != 0 {
		t.Fatalf("boot restore: PlansLoaded=%d SnapshotErrors=%d, want %d/0",
			st.PlansLoaded, st.SnapshotErrors, len(jobs))
	}
	for _, j := range jobs {
		reweighted := j
		reweighted.Instance = reweightedCopy(t, r, j.Instance)
		res := second.Do(reweighted)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !res.PlanHit {
			t.Fatal("restart did not warm-start the plan cache")
		}
	}
	if st := second.Stats(); st.PlanCompiles != 0 {
		t.Fatalf("restarted engine compiled %d plans", st.PlanCompiles)
	}
}

// TestPlanSnapshotPathMissingFile: a missing boot snapshot is a cold
// start, not an error.
func TestPlanSnapshotPathMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "never-written.bin")
	e := New(Options{Workers: 1, PlanSnapshotPath: path})
	if st := e.Stats(); st.SnapshotErrors != 0 || st.PlansLoaded != 0 {
		t.Fatalf("missing snapshot counted as error: %+v", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanSnapshotPathCorruptFile: a corrupt boot snapshot is counted
// and skipped; the engine still starts and serves.
func TestPlanSnapshotPathCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.bin")
	if err := os.WriteFile(path, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 1, PlanSnapshotPath: path})
	defer e.Close()
	if st := e.Stats(); st.SnapshotErrors != 1 {
		t.Fatalf("SnapshotErrors = %d, want 1", st.SnapshotErrors)
	}
	r := rand.New(rand.NewSource(59))
	if res := e.Do(snapshotJobs(r)[0]); res.Err != nil {
		t.Fatalf("engine with corrupt snapshot cannot serve: %v", res.Err)
	}
}

// TestCloseIdempotent is the regression test for repeated Close: the
// second and later calls return nil, do not block, and do not rewrite
// the snapshot.
func TestCloseIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	path := filepath.Join(t.TempDir(), "plans.bin")
	e := New(Options{Workers: 2, PlanSnapshotPath: path})
	if res := e.Do(snapshotJobs(r)[0]); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	savedOnce := e.Stats().PlansSaved
	fi1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Close(); err != nil {
			t.Fatalf("Close call %d: %v", i+2, err)
		}
	}
	if got := e.Stats().PlansSaved; got != savedOnce {
		t.Fatalf("repeated Close re-saved the snapshot: %d → %d", savedOnce, got)
	}
	fi2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.ModTime() != fi1.ModTime() || fi2.Size() != fi1.Size() {
		t.Fatal("repeated Close rewrote the snapshot file")
	}
	// Concurrent Close calls must also be safe.
	e2 := New(Options{Workers: 2})
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() { done <- e2.Close() }()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent Close: %v", err)
		}
	}
	// Snapshot APIs after Close fail with ErrClosed.
	if _, err := e.SavePlans(&bytes.Buffer{}); err != ErrClosed {
		t.Fatalf("SavePlans after Close = %v, want ErrClosed", err)
	}
	if _, err := e.LoadPlans(strings.NewReader("")); err != ErrClosed {
		t.Fatalf("LoadPlans after Close = %v, want ErrClosed", err)
	}
}
