package engine

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"phom/internal/core"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/instance"
)

// memoStreamProb draws a set_prob value: mostly k/16, the live
// workload's family, and now and then a decimal, a third (which moves
// the common denominator D of the next solve), 0 or 1.
func memoStreamProb(r *rand.Rand) *big.Rat {
	switch r.Intn(10) {
	case 0:
		return big.NewRat(1, 3)
	case 1:
		return new(big.Rat)
	case 2:
		return big.NewRat(1, 1)
	case 3:
		return big.NewRat(int64(r.Intn(1001)), 1000)
	default:
		return big.NewRat(int64(1+r.Intn(15)), 16)
	}
}

// permuted returns h with its edges inserted in a random order: the
// same structure key, another edge numbering.
func permuted(r *rand.Rand, h *graph.ProbGraph) *graph.ProbGraph {
	g := graph.New(h.G.NumVertices())
	perm := r.Perm(h.G.NumEdges())
	for _, i := range perm {
		e := h.G.Edge(i)
		g.MustAddEdge(e.From, e.To, e.Label)
	}
	p := graph.NewProbGraph(g)
	for j, i := range perm {
		if err := p.SetProb(j, h.Prob(i)); err != nil {
			panic(err)
		}
	}
	return p
}

// memoStream is one instance of the ⊔ classes with a query its class
// routes to a tractable cell, and the delta stream FuzzInstancePartMemo
// drives it through.
type memoStream struct {
	qs      []*graph.Graph
	h       *graph.ProbGraph
	pending *instance.Delta // the re-insert of the last removed edge
}

// newMemoStream draws a union-class instance of two to five components
// and a query: a walk (or a union of two walks) on ⊔2WP, a labeled 1WP
// on ⊔DWT, an unlabeled path on ⊔PT.
func newMemoStream(r *rand.Rand, fam uint8) *memoStream {
	labels := []graph.Label{"R", "S"}
	k := 2 + r.Intn(4)
	var s memoStream
	var g *graph.Graph
	switch fam % 3 {
	case 0:
		g = gen.RandUnion(r, k, func(r *rand.Rand) *graph.Graph { return gen.Rand2WP(r, 2+r.Intn(5), labels) })
		for d := 1 + r.Intn(2); d > 0; d-- {
			if q := gen.RandWalkQuery(r, g, 2); q != nil && q.NumEdges() > 0 {
				s.qs = append(s.qs, q)
			}
		}
	case 1:
		g = gen.RandUnion(r, k, func(r *rand.Rand) *graph.Graph { return gen.RandDWT(r, 2+r.Intn(5), labels) })
		s.qs = []*graph.Graph{gen.Rand1WP(r, 2+r.Intn(2), labels)}
	default:
		g = gen.RandUnion(r, k, func(r *rand.Rand) *graph.Graph { return gen.RandPolytree(r, 2+r.Intn(5), nil) })
		s.qs = []*graph.Graph{graph.UnlabeledPath(1 + r.Intn(2))}
	}
	if len(s.qs) == 0 || g.NumEdges() == 0 {
		return nil
	}
	s.h = graph.NewProbGraph(g)
	for i := 0; i < g.NumEdges(); i++ {
		if err := s.h.SetProb(i, big.NewRat(int64(1+r.Intn(15)), 16)); err != nil {
			panic(err)
		}
	}
	return &s
}

// next draws a delta batch against h: one in four re-inserts the last
// removed edge or removes one (splitting a component, which keeps the
// instance in its ⊔ class); the rest set one to three probabilities.
func (s *memoStream) next(r *rand.Rand, h *graph.ProbGraph) []instance.Delta {
	g := h.G
	if r.Intn(4) == 0 {
		if s.pending != nil {
			d := *s.pending
			s.pending = nil
			return []instance.Delta{d}
		}
		if g.NumEdges() > 1 {
			i := r.Intn(g.NumEdges())
			e := g.Edge(i)
			s.pending = &instance.Delta{Op: instance.OpAddEdge, From: e.From, To: e.To, Label: e.Label, Prob: memoStreamProb(r)}
			return []instance.Delta{{Op: instance.OpRemoveEdge, From: e.From, To: e.To}}
		}
	}
	var batch []instance.Delta
	for k := 1 + r.Intn(3); k > 0; k-- {
		e := g.Edge(r.Intn(g.NumEdges()))
		batch = append(batch, instance.Delta{Op: instance.OpSetProb, From: e.From, To: e.To, Prob: memoStreamProb(r)})
	}
	return batch
}

// runMemoStream creates the stream's instance on e, first compiling its
// plan through a stateless job over a permuted edge order (so instance
// lanes are transported onto another numbering), then applies steps
// delta batches, solving after each and comparing every answer with a
// from-scratch core.SolveUCQ of the same snapshot.
func runMemoStream(t *testing.T, e *Engine, id string, r *rand.Rand, s *memoStream, steps int) {
	t.Helper()
	if r := e.Do(Job{Queries: s.qs, Instance: permuted(r, s.h)}); r.Err != nil {
		t.Fatalf("stateless solve: %v", r.Err)
	}
	if _, err := e.CreateInstance(id, s.h); err != nil {
		t.Fatal(err)
	}
	solve := func(step int) {
		t.Helper()
		job, version, err := e.InstanceJob(id, Job{Queries: s.qs})
		if err != nil {
			t.Fatalf("step %d: InstanceJob: %v", step, err)
		}
		got := e.Do(job)
		want, werr := core.SolveUCQ(s.qs, job.Instance, nil)
		if (got.Err == nil) != (werr == nil) {
			t.Fatalf("step %d (version %d): engine err %v, scratch err %v", step, version, got.Err, werr)
		}
		if werr == nil && got.Result.Prob.RatString() != want.Prob.RatString() {
			t.Fatalf("step %d (version %d): instance solve %s, from scratch %s", step, version, got.Result.Prob.RatString(), want.Prob.RatString())
		}
	}
	solve(0)
	for step := 1; step <= steps; step++ {
		inst, _ := e.Instance(id)
		if _, err := e.ApplyDelta(id, -1, s.next(r, inst.Snapshot().H)); err != nil {
			t.Fatalf("step %d: ApplyDelta: %v", step, err)
		}
		solve(step)
		if r.Intn(4) == 0 {
			solve(step) // unchanged: every skippable part reused
		}
	}
}

// FuzzInstancePartMemo drives random ⊔2WP/⊔DWT/⊔PT instances through
// delta streams — probability edits that move D (thirds among
// sixteenths), set 0 and 1, edge removals and re-inserts that carry
// replayed parts across a splice, union queries, and a plan first
// compiled by a stateless job over a permuted edge order — and checks
// every instance solve against a from-scratch solve of its version.
func FuzzInstancePartMemo(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed), uint8(12))
	}
	f.Fuzz(func(t *testing.T, seed int64, fam, steps uint8) {
		r := rand.New(rand.NewSource(seed))
		s := newMemoStream(r, fam)
		if s == nil {
			return
		}
		e := New(Options{Workers: 1})
		defer e.Close()
		runMemoStream(t, e, "fuzz", r, s, 1+int(steps)%24)
	})
}

// TestInstancePartMemoStreams is FuzzInstancePartMemo's deterministic
// twin over every class, and checks that the memo fires: probability
// edits reuse untouched parts, and so do solves after a splice.
func TestInstancePartMemoStreams(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i++ {
		s := newMemoStream(r, uint8(i))
		if s == nil {
			continue
		}
		runMemoStream(t, e, fmt.Sprintf("stream-%d", i), r, s, 16)
	}
	st := e.Stats()
	if st.PartsReused == 0 || st.PartsEvaluated == 0 || st.IncrementalRecompiles == 0 {
		t.Fatalf("parts reused %d, evaluated %d, incremental recompiles %d: the memo never fired",
			st.PartsReused, st.PartsEvaluated, st.IncrementalRecompiles)
	}
}

// TestPartMemoCarriedAcrossSplice: on a four-path ⊔2WP instance, a
// probability edit re-evaluates one part, and removing an edge of one
// path re-evaluates only the two pieces it leaves: the other three
// parts carry their memo across the splice.
func TestPartMemoCarriedAcrossSplice(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	p := func() *graph.Graph { return graph.UnlabeledPath(3) }
	g, _ := graph.DisjointUnion(p(), p(), p(), p())
	h := graph.NewProbGraph(g)
	for i := 0; i < g.NumEdges(); i++ {
		if err := h.SetProb(i, big.NewRat(int64(1+i), 16)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.CreateInstance("splice", h); err != nil {
		t.Fatal(err)
	}
	q := graph.UnlabeledPath(1)
	step := func(wantReused, wantEvaluated uint64) {
		t.Helper()
		before := e.Stats()
		job, _, err := e.InstanceJob("splice", Job{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		got := e.Do(job)
		want, err := core.Solve(q, job.Instance, nil)
		if got.Err != nil || err != nil || got.Result.Prob.RatString() != want.Prob.RatString() {
			t.Fatalf("solve %v (%v), from scratch %v (%v)", got.Result, got.Err, want, err)
		}
		after := e.Stats()
		if r, ev := after.PartsReused-before.PartsReused, after.PartsEvaluated-before.PartsEvaluated; r != wantReused || ev != wantEvaluated {
			t.Fatalf("reused %d, evaluated %d parts; want %d, %d", r, ev, wantReused, wantEvaluated)
		}
	}
	step(0, 4)
	step(4, 0)
	if _, err := e.ApplyDelta("splice", -1, []instance.Delta{{Op: instance.OpSetProb, From: 5, To: 6, Prob: big.NewRat(3, 4)}}); err != nil {
		t.Fatal(err)
	}
	step(3, 1)
	// 9>10 is the middle edge of the third path: its pieces are new
	// parts.
	if _, err := e.ApplyDelta("splice", -1, []instance.Delta{{Op: instance.OpRemoveEdge, From: 9, To: 10}}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.IncrementalRecompiles != 1 {
		t.Fatalf("incremental recompiles %d, want 1", st.IncrementalRecompiles)
	}
	step(3, 2)
}

// TestPartMemoRacesAcrossVersions runs solves of one instance bound at
// different versions concurrently with each other and with deltas, so
// memo loads and publishes of the same tracked plan race (run it under
// -race). Every answer must equal a from-scratch solve of the version
// its job was bound to.
func TestPartMemoRacesAcrossVersions(t *testing.T) {
	e := New(Options{Workers: 3})
	defer e.Close()
	p := func() *graph.Graph { return graph.UnlabeledPath(3) }
	g, _ := graph.DisjointUnion(p(), p(), p(), p(), p())
	h := graph.NewProbGraph(g)
	if _, err := e.CreateInstance("race", h); err != nil {
		t.Fatal(err)
	}
	q := graph.UnlabeledPath(2)
	r := rand.New(rand.NewSource(7))
	s := &memoStream{qs: []*graph.Graph{q}, h: h}
	ctx := context.Background()
	for round := 0; round < 12; round++ {
		// Bind jobs at four successive versions.
		var jobs []Job
		for v := 0; v < 4; v++ {
			job, _, err := e.InstanceJob("race", Job{Query: q})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
			inst, _ := e.Instance("race")
			if _, err := e.ApplyDelta("race", -1, s.next(r, inst.Snapshot().H)); err != nil {
				t.Fatal(err)
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, 2*len(jobs)+1)
		for _, job := range jobs {
			for twice := 0; twice < 2; twice++ {
				wg.Add(1)
				go func(job Job) {
					defer wg.Done()
					<-start
					got := e.DoContext(ctx, job)
					want, err := core.Solve(q, job.Instance, nil)
					if got.Err != nil || err != nil {
						errs <- fmt.Errorf("solve: %v / %v", got.Err, err)
					} else if got.Result.Prob.RatString() != want.Prob.RatString() {
						errs <- fmt.Errorf("solve %s, from scratch %s", got.Result.Prob.RatString(), want.Prob.RatString())
					}
				}(job)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// The writer alone draws from r and s while the round runs.
			for k := 0; k < 3; k++ {
				inst, _ := e.Instance("race")
				if _, err := e.ApplyDelta("race", -1, s.next(r, inst.Snapshot().H)); err != nil {
					errs <- err
					return
				}
			}
		}()
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
