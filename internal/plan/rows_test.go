package plan_test

import (
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/core"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/plan"
)

// union is the disjoint union of k random parts of n vertices each.
func union(r *rand.Rand, k, n int, labels []graph.Label, part func(*rand.Rand, int, []graph.Label) *graph.Graph) *graph.Graph {
	return gen.RandUnion(r, k, func(r *rand.Rand) *graph.Graph { return part(r, n, labels) })
}

// TestTractableRowsTakeIntegerPath: programs compiled from each
// tractable guard-table row run on the integer interpreter — the degree
// guard never trips on honest lowering and the common denominator of
// decimal and dyadic vectors stays within bounds — and answer
// RatString-identically to the plan tree (EvaluateTree).
func TestTractableRowsTakeIntegerPath(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	rs := []graph.Label{"R", "S"}
	rows := []struct {
		method core.Method
		q      *graph.Graph
		h      *graph.Graph
	}{
		{core.MethodXProperty2WP,
			graph.Path2WP(graph.Fwd(graph.Unlabeled), graph.Bwd(graph.Unlabeled), graph.Fwd(graph.Unlabeled)),
			gen.Rand2WP(r, 64, nil)},
		{core.MethodGradedDWT,
			graph.Path2WP(graph.Fwd(graph.Unlabeled), graph.Fwd(graph.Unlabeled), graph.Bwd(graph.Unlabeled)),
			union(r, 4, 16, nil, gen.RandDWT)},
		{core.MethodBetaAcyclicDWT, graph.Path1WP("R", "S", "R"), union(r, 4, 16, rs, gen.RandDWT)},
		{core.MethodAutomatonPT, graph.UnlabeledPath(3), union(r, 4, 16, nil, gen.RandPolytree)},
	}
	vectors := []struct {
		name string
		prob func() *big.Rat
	}{
		{"9-digit", func() *big.Rat { return big.NewRat(r.Int63n(1_000_000_001), 1_000_000_000) }},
		{"k/16", func() *big.Rat { return big.NewRat(r.Int63n(17), 16) }},
		{"k/{2,4,8}", func() *big.Rat {
			den := int64(2) << r.Intn(3)
			return big.NewRat(r.Int63n(den+1), den)
		}},
	}
	for _, row := range rows {
		cp, err := core.Compile(row.q, graph.NewProbGraph(row.h), nil)
		if err != nil {
			t.Fatalf("%v: %v", row.method, err)
		}
		if m, ok := cp.Method(); !ok || m != row.method {
			t.Fatalf("compiled to method %v (ok=%v), want %v", m, ok, row.method)
		}
		prog := cp.Program()
		for _, v := range vectors {
			for trial := 0; trial < 3; trial++ {
				probs := make([]*big.Rat, cp.NumEdges())
				for i := range probs {
					probs[i] = v.prob()
				}
				got, ok, err := plan.ExecInt(prog, probs)
				if err != nil || !ok {
					t.Fatalf("%v, %s vector: integer path declined (ok=%v, err=%v)", row.method, v.name, ok, err)
				}
				want, err := cp.EvaluateTree(probs)
				if err != nil {
					t.Fatal(err)
				}
				if got.RatString() != want.Prob.RatString() {
					t.Fatalf("%v, %s vector: integer path %s, tree %s",
						row.method, v.name, got.RatString(), want.Prob.RatString())
				}
			}
		}
	}
}
