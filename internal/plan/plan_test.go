package plan

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/betadnf"
	"phom/internal/gen"
	"phom/internal/graph"
)

func rat(s string) *big.Rat { return graph.Rat(s) }

// TestConstEvaluateCopies: the program of a constant hands out a fresh
// result per execution, so mutating one must not poison the constant
// pool.
func TestConstEvaluateCopies(t *testing.T) {
	b := NewBuilder(context.Background(), 0)
	prog, err := b.Finish(b.Const(rat("2/3")))
	if err != nil {
		t.Fatal(err)
	}
	a, err := prog.ExecCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a.SetInt64(7)
	again := execString(t, prog, nil)
	if again != "2/3" {
		t.Fatalf("constant mutated through a returned result: %s", again)
	}
}

// TestComponentsCombination: Compose emits the Lemma 3.7 combination
// and reports one factor per part.
func TestComponentsCombination(t *testing.T) {
	parts := []*big.Rat{rat("1/2"), rat("1/3")}
	b := NewBuilder(context.Background(), 0)
	out, factors, err := Compose(b, len(parts), func(i int) (uint32, error) { return b.Const(parts[i]), nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(factors) != 2 {
		t.Fatalf("%d factors for 2 parts", len(factors))
	}
	prog, err := b.Finish(out)
	if err != nil {
		t.Fatal(err)
	}
	// 1 − (1 − 1/2)(1 − 1/3) = 2/3.
	if got := execString(t, prog, nil); got != "2/3" {
		t.Fatalf("Compose = %s, want 2/3", got)
	}
}

func TestChainEvaluateMapsEdges(t *testing.T) {
	// Two nodes: 1 is the child of 0 through instance edge 3; a clause of
	// length 1 at node 1 means Pr = π(edge 3).
	cc, err := (&betadnf.ChainSystem{Parent: []int{-1, 0}, ChainLen: []int{0, 1}}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lowerSystem(context.Background(), 4, []int{-1, 3}, func(em *edgeMapEmitter) (uint32, error) {
		return cc.EmitOps(em)
	})
	if err != nil {
		t.Fatal(err)
	}
	probs := []*big.Rat{rat("1"), rat("1"), rat("1"), rat("1/4")}
	if got := execString(t, prog, probs); got != "1/4" {
		t.Fatalf("chain = %s, want 1/4", got)
	}
	if _, err := prog.ExecCtx(context.Background(), probs[:2]); err == nil {
		t.Fatal("expected a length-mismatch error for a short probability vector")
	}
	if _, err := lowerSystem(context.Background(), 3, []int{-1, 3}, func(em *edgeMapEmitter) (uint32, error) {
		return cc.EmitOps(em)
	}); err == nil {
		t.Fatal("expected an out-of-range error for an edge past the instance")
	}
}

func TestIntervalEvaluateMapsEdges(t *testing.T) {
	// One variable mapped to instance edge 2; one unit clause.
	sys := &betadnf.IntervalSystem{NumVars: 1, Clauses: []betadnf.Interval{{Lo: 0, Hi: 0}}}
	prog, err := lowerSystem(context.Background(), 3, []int{2}, func(em *edgeMapEmitter) (uint32, error) {
		return sys.EmitOps(em)
	})
	if err != nil {
		t.Fatal(err)
	}
	probs := []*big.Rat{rat("1"), rat("1"), rat("3/5")}
	if got := execString(t, prog, probs); got != "3/5" {
		t.Fatalf("interval = %s, want 3/5", got)
	}
	if _, err := prog.ExecCtx(context.Background(), probs[:1]); err == nil {
		t.Fatal("expected a length-mismatch error for a short probability vector")
	}
	if _, err := lowerSystem(context.Background(), 3, nil, func(em *edgeMapEmitter) (uint32, error) {
		return sys.EmitOps(em)
	}); err == nil {
		t.Fatal("expected an error for an unmapped variable")
	}
}

// TestCompiledPlansMatchOracle cross-checks the path compilers on small
// random instances against possible-world enumeration, evaluating the
// same program under several distinct probability assignments.
func TestCompiledPlansMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	un := []graph.Label{graph.Unlabeled}
	for _, cell := range []struct {
		name    string
		class   graph.Class
		compile func(*Builder, *graph.ProbGraph, int) (*Program, []int, error)
	}{
		{"DWT", graph.ClassUDWT, dwtPaths},
		{"PT", graph.ClassUPT, polytreePaths},
	} {
		for trial := 0; trial < 25; trial++ {
			m := 1 + r.Intn(3)
			h := gen.RandProb(r, gen.RandInClass(r, cell.class, 2+r.Intn(6), un), 0.8)
			prog, _, err := cell.compile(nil, h, m)
			if err != nil {
				t.Fatal(err)
			}
			for reweight := 0; reweight < 3; reweight++ {
				got := execString(t, prog, h.Probs())
				if want := worldsProb(h.G, h.Probs(), graph.UnlabeledPath(m)); got != want.RatString() {
					t.Fatalf("%s trial %d: plan %s, oracle %s", cell.name, trial, got, want.RatString())
				}
				randomize(r, h)
			}
		}
	}
}

// randomize assigns fresh random probabilities to every edge of h.
func randomize(r *rand.Rand, h *graph.ProbGraph) {
	for i := 0; i < h.G.NumEdges(); i++ {
		if err := h.SetProb(i, big.NewRat(int64(r.Intn(17)), 16)); err != nil {
			panic(err)
		}
	}
}
