package plan

import (
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/betadnf"
	"phom/internal/gen"
	"phom/internal/graph"
)

func rat(s string) *big.Rat { return graph.Rat(s) }

func TestConstEvaluateCopies(t *testing.T) {
	c := NewConst(rat("2/3"))
	a, err := c.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	a.SetInt64(7) // mutating the result must not poison the plan
	b, _ := c.Evaluate(nil)
	if b.Cmp(rat("2/3")) != 0 {
		t.Fatalf("Const mutated through a returned result: %s", b.RatString())
	}
}

func TestComponentsCombination(t *testing.T) {
	c := Components{Parts: []Plan{NewConst(rat("1/2")), NewConst(rat("1/3"))}}
	p, err := c.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1 − (1 − 1/2)(1 − 1/3) = 2/3.
	if p.Cmp(rat("2/3")) != 0 {
		t.Fatalf("Components = %s, want 2/3", p.RatString())
	}
}

func TestChainEvaluateMapsEdges(t *testing.T) {
	// Two nodes: 1 is the child of 0 through instance edge 3; a clause of
	// length 1 at node 1 means Pr = π(edge 3).
	cc, err := (&betadnf.ChainSystem{Parent: []int{-1, 0}, ChainLen: []int{0, 1}}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	c := Chain{
		System:   cc,
		NodeEdge: []int{-1, 3},
	}
	probs := []*big.Rat{rat("1"), rat("1"), rat("1"), rat("1/4")}
	p, err := c.Evaluate(probs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(rat("1/4")) != 0 {
		t.Fatalf("Chain = %s, want 1/4", p.RatString())
	}
	if _, err := c.Evaluate(probs[:2]); err == nil {
		t.Fatal("expected an out-of-range error for a short probability vector")
	}
}

func TestIntervalEvaluateMapsEdges(t *testing.T) {
	// One variable mapped to instance edge 2; one unit clause.
	iv := Interval{
		System:  &betadnf.IntervalSystem{NumVars: 1, Clauses: []betadnf.Interval{{Lo: 0, Hi: 0}}},
		VarEdge: []int{2},
	}
	probs := []*big.Rat{rat("1"), rat("1"), rat("3/5")}
	p, err := iv.Evaluate(probs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(rat("3/5")) != 0 {
		t.Fatalf("Interval = %s, want 3/5", p.RatString())
	}
	if _, err := iv.Evaluate(probs[:1]); err == nil {
		t.Fatal("expected an out-of-range error for a short probability vector")
	}
}

// oracleWorlds computes Pr(world contains →^m) on h by world enumeration.
func oracleWorlds(t *testing.T, h *graph.ProbGraph, m int) *big.Rat {
	t.Helper()
	q := graph.UnlabeledPath(m)
	n := h.G.NumEdges()
	keep := make([]bool, n)
	total := new(big.Rat)
	var rec func(i int, w *big.Rat)
	rec = func(i int, w *big.Rat) {
		if w.Sign() == 0 {
			return
		}
		if i == n {
			if graph.HasHomomorphism(q, h.G.SubgraphKeeping(keep)) {
				total.Add(total, w)
			}
			return
		}
		keep[i] = true
		rec(i+1, new(big.Rat).Mul(w, h.Prob(i)))
		keep[i] = false
		rec(i+1, new(big.Rat).Mul(w, new(big.Rat).Sub(graph.RatOne, h.Prob(i))))
	}
	rec(0, big.NewRat(1, 1))
	return total
}

// TestCompiledPlansMatchOracle cross-checks every structural compiler on
// small random instances against possible-world enumeration, evaluating
// the same plan under several distinct probability assignments.
func TestCompiledPlansMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	un := []graph.Label{graph.Unlabeled}
	for trial := 0; trial < 25; trial++ {
		m := 1 + r.Intn(3)
		hg := gen.RandInClass(r, graph.ClassUDWT, 2+r.Intn(6), un)
		h := gen.RandProb(r, hg, 0.8)
		p, err := dwtPaths(h, m)
		if err != nil {
			t.Fatal(err)
		}
		for reweight := 0; reweight < 3; reweight++ {
			got, err := p.Evaluate(h.Probs())
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleWorlds(t, h, m); got.Cmp(want) != 0 {
				t.Fatalf("DWT trial %d: plan %s, oracle %s", trial, got.RatString(), want.RatString())
			}
			randomize(r, h)
		}
	}
	for trial := 0; trial < 25; trial++ {
		m := 1 + r.Intn(3)
		hg := gen.RandInClass(r, graph.ClassUPT, 2+r.Intn(6), un)
		h := gen.RandProb(r, hg, 0.8)
		p, err := polytreePaths(h, m)
		if err != nil {
			t.Fatal(err)
		}
		for reweight := 0; reweight < 3; reweight++ {
			got, err := p.Evaluate(h.Probs())
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleWorlds(t, h, m); got.Cmp(want) != 0 {
				t.Fatalf("PT trial %d: plan %s, oracle %s", trial, got.RatString(), want.RatString())
			}
			randomize(r, h)
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
