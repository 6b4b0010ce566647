package instance

import (
	"errors"
	"math/big"
	"sync"
	"testing"

	"phom/internal/graph"
	"phom/internal/phomerr"
)

func twoPath(t *testing.T) *graph.ProbGraph {
	t.Helper()
	h := graph.NewProbGraph(graph.UnlabeledPath(2)) // 0→1→2
	h.MustSetEdgeProb(0, 1, big.NewRat(1, 2))
	h.MustSetEdgeProb(1, 2, big.NewRat(1, 3))
	return h
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil); !errors.Is(err, phomerr.ErrBadInput) {
		t.Fatalf("New(nil) = %v, want ErrBadInput", err)
	}
	if _, err := New("x", graph.NewProbGraph(graph.New(0))); !errors.Is(err, phomerr.ErrBadInput) {
		t.Fatalf("New(empty) = %v, want ErrBadInput", err)
	}
	in, err := New("x", twoPath(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if in.ID() != "x" || in.Version() != 1 || in.DeltasApplied() != 0 {
		t.Fatalf("fresh instance: id=%q version=%d deltas=%d", in.ID(), in.Version(), in.DeltasApplied())
	}
}

func TestNewIsolatesCallerGraph(t *testing.T) {
	h := twoPath(t)
	in, err := New("iso", h)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Mutating the caller's graph must not reach the instance.
	h.MustSetEdgeProb(0, 1, big.NewRat(9, 10))
	if got := in.Snapshot().H.Prob(0).RatString(); got != "1/2" {
		t.Fatalf("instance saw caller mutation: prob = %s", got)
	}
}

func TestApplySetProbCOW(t *testing.T) {
	in, _ := New("p", twoPath(t))
	old := in.Snapshot()
	res, err := in.Apply(-1, []Delta{{Op: OpSetProb, From: 0, To: 1, Prob: big.NewRat(3, 4)}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.Structural {
		t.Fatal("set_prob reported structural")
	}
	if res.New.Version != 2 || in.Version() != 2 {
		t.Fatalf("version = %d, want 2", res.New.Version)
	}
	if res.New.H.G != old.H.G {
		t.Fatal("probability-only batch did not share the immutable graph")
	}
	if old.H.Prob(0).RatString() != "1/2" {
		t.Fatalf("old snapshot mutated: %s", old.H.Prob(0).RatString())
	}
	if res.New.H.Prob(0).RatString() != "3/4" || res.New.H.Prob(1).RatString() != "1/3" {
		t.Fatalf("new probs = %s, %s", res.New.H.Prob(0).RatString(), res.New.H.Prob(1).RatString())
	}
	if in.DeltasApplied() != 1 {
		t.Fatalf("deltas applied = %d", in.DeltasApplied())
	}
}

func TestApplyCAS(t *testing.T) {
	in, _ := New("cas", twoPath(t))
	d := []Delta{{Op: OpSetProb, From: 0, To: 1, Prob: big.NewRat(1, 4)}}
	if _, err := in.Apply(5, d); !errors.Is(err, phomerr.ErrConflict) {
		t.Fatalf("stale ifVersion = %v, want ErrConflict", err)
	}
	if in.Version() != 1 || in.DeltasApplied() != 0 {
		t.Fatal("failed CAS mutated the instance")
	}
	if _, err := in.Apply(1, d); err != nil {
		t.Fatalf("matching ifVersion: %v", err)
	}
	if _, err := in.Apply(-1, d); err != nil {
		t.Fatalf("unconditional apply: %v", err)
	}
	if in.Version() != 3 {
		t.Fatalf("version = %d, want 3", in.Version())
	}
}

func TestApplyStructural(t *testing.T) {
	in, _ := New("s", twoPath(t))
	old := in.Snapshot()
	res, err := in.Apply(-1, []Delta{
		{Op: OpAddEdge, From: 2, To: 0, Label: graph.Unlabeled, Prob: big.NewRat(1, 5)},
		{Op: OpRemoveEdge, From: 0, To: 1},
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !res.Structural {
		t.Fatal("edge deltas not reported structural")
	}
	if res.New.H.G == old.H.G {
		t.Fatal("structural batch shared the old graph")
	}
	g := res.New.H.G
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	// Removal of edge 0 (0→1) shifts 1→2 down to index 0; the added
	// 2→0 sits after it. Probabilities must have tracked the shift.
	i, ok := g.EdgeIndex(1, 2)
	if !ok || res.New.H.Prob(i).RatString() != "1/3" {
		t.Fatalf("edge 1>2 lost its probability after the shift")
	}
	j, ok := g.EdgeIndex(2, 0)
	if !ok || res.New.H.Prob(j).RatString() != "1/5" {
		t.Fatalf("added edge 2>0 prob wrong")
	}
	if _, ok := g.EdgeIndex(0, 1); ok {
		t.Fatal("removed edge still present")
	}
	// The old snapshot is untouched.
	if old.H.G.NumEdges() != 2 || old.H.Prob(0).RatString() != "1/2" {
		t.Fatal("old snapshot mutated by structural batch")
	}
}

func TestApplyAtomicOnError(t *testing.T) {
	in, _ := New("a", twoPath(t))
	cases := [][]Delta{
		nil, // empty batch
		{{Op: OpSetProb, From: 0, To: 1, Prob: big.NewRat(1, 2)}, {Op: OpSetProb, From: 0, To: 2}},                     // missing prob
		{{Op: OpSetProb, From: 0, To: 2, Prob: big.NewRat(1, 2)}},                                                      // no such edge
		{{Op: OpSetProb, From: 0, To: 1, Prob: big.NewRat(3, 2)}},                                                      // out of range
		{{Op: OpSetProb, From: 0, To: 1, Prob: big.NewRat(-1, 2)}},                                                     // negative
		{{Op: OpAddEdge, From: 2, To: 0, Label: graph.Unlabeled, Prob: big.NewRat(3, 2)}},                              // new edge out of range
		{{Op: OpAddEdge, From: 0, To: 1, Label: graph.Unlabeled}},                                                      // duplicate edge
		{{Op: OpAddEdge, From: 0, To: 9, Label: graph.Unlabeled}},                                                      // endpoint out of range
		{{Op: OpRemoveEdge, From: 2, To: 1}},                                                                           // no such edge
		{{Op: OpAddEdge, From: 2, To: 0, Label: graph.Unlabeled}, {Op: OpSetProb, From: 1, To: 0, Prob: graph.RatOne}}, // second delta bad
		{{Op: Op(99)}}, // unknown op
	}
	for i, batch := range cases {
		if _, err := in.Apply(-1, batch); !errors.Is(err, phomerr.ErrBadInput) {
			t.Errorf("case %d: err = %v, want ErrBadInput", i, err)
		}
	}
	if in.Version() != 1 || in.DeltasApplied() != 0 || in.Snapshot().H.G.NumEdges() != 2 {
		t.Fatal("a failed batch left a partial commit behind")
	}
}

func TestApplyMidBatchVisibility(t *testing.T) {
	// A batch may address an edge added earlier in the same batch.
	in, _ := New("mb", twoPath(t))
	if _, err := in.Apply(-1, []Delta{
		{Op: OpAddEdge, From: 2, To: 0, Label: graph.Unlabeled},
		{Op: OpSetProb, From: 2, To: 0, Prob: big.NewRat(2, 5)},
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	h := in.Snapshot().H
	i, _ := h.G.EdgeIndex(2, 0)
	if h.Prob(i).RatString() != "2/5" {
		t.Fatalf("mid-batch set_prob on fresh edge = %s", h.Prob(i).RatString())
	}
	if in.Version() != 2 {
		t.Fatalf("one batch is one version; got %d", in.Version())
	}
}

func TestConcurrentApplySerializes(t *testing.T) {
	in, _ := New("cc", twoPath(t))
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				p := big.NewRat(int64(1+(w+k)%7), 8)
				if _, err := in.Apply(-1, []Delta{{Op: OpSetProb, From: 0, To: 1, Prob: p}}); err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := in.Version(); got != 1+writers*per {
		t.Fatalf("version = %d, want %d", got, 1+writers*per)
	}
	if got := in.DeltasApplied(); got != writers*per {
		t.Fatalf("deltas = %d, want %d", got, writers*per)
	}
}

func TestParseOp(t *testing.T) {
	for _, op := range []Op{OpSetProb, OpAddEdge, OpRemoveEdge} {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Fatalf("ParseOp(%q) = %v, %v", op.String(), got, err)
		}
	}
	if _, err := ParseOp("truncate"); !errors.Is(err, phomerr.ErrBadInput) {
		t.Fatalf("ParseOp(unknown) = %v, want ErrBadInput", err)
	}
	if Op(99).String() != "op(99)" {
		t.Fatalf("stray op string = %q", Op(99).String())
	}
	if (Delta{Op: OpSetProb}).Structural() || !(Delta{Op: OpAddEdge}).Structural() {
		t.Fatal("Structural misclassifies ops")
	}
}

func TestClassCensus(t *testing.T) {
	g, _ := graph.DisjointUnion(graph.UnlabeledPath(2), graph.UnlabeledPath(1))
	census := ClassCensus(g)
	if census[graph.Class1WP.String()] != 2 || len(census) != 1 {
		t.Fatalf("census = %v, want 2 one-way paths", census)
	}
}
