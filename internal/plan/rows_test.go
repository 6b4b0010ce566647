package plan_test

import (
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/core"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/lineage"
	"phom/internal/plan"
	"phom/internal/treeauto"
)

// union is the disjoint union of k random parts of n vertices each.
func union(r *rand.Rand, k, n int, labels []graph.Label, part func(*rand.Rand, int, []graph.Label) *graph.Graph) *graph.Graph {
	return gen.RandUnion(r, k, func(r *rand.Rand) *graph.Graph { return part(r, n, labels) })
}

// substrateProb is a row's independent reference: the cell's substrate
// dynamic program (betadnf interval and chain systems, the treeauto
// d-DNNF circuit) run on each connected component of h under probs,
// combined by Lemma 3.7 here.
func substrateProb(t *testing.T, m core.Method, q, h *graph.Graph, probs []*big.Rat) *big.Rat {
	t.Helper()
	hp := graph.NewProbGraph(h)
	for i, p := range probs {
		if err := hp.SetProb(i, p); err != nil {
			t.Fatal(err)
		}
	}
	miss := big.NewRat(1, 1)
	for _, comp := range hp.Components() {
		var p *big.Rat
		var err error
		switch m {
		case core.MethodXProperty2WP:
			var lin *lineage.IntervalLineage
			if lin, err = lineage.ConnectedOn2WP(q, comp); err == nil {
				p, err = lin.System.Prob(lin.Probs)
			}
		case core.MethodGradedDWT, core.MethodBetaAcyclicDWT:
			path := q
			if m == core.MethodGradedDWT {
				d, _ := q.DifferenceOfLevels()
				path = graph.UnlabeledPath(d)
			}
			var lin *lineage.ChainLineage
			if lin, err = lineage.Path1WPOnDWT(path, comp); err == nil {
				p, err = lin.System.Prob(lin.Probs)
			}
		case core.MethodAutomatonPT:
			p, err = treeauto.PathProbPolytree(comp, q.Height())
		default:
			t.Fatalf("no substrate reference for %v", m)
		}
		if err != nil {
			t.Fatalf("%v reference: %v", m, err)
		}
		miss.Mul(miss, p.Sub(graph.RatOne, p))
	}
	return miss.Sub(graph.RatOne, miss)
}

// TestTractableRowsTakeIntegerPath: programs compiled from each
// tractable guard-table row run on the integer interpreter — the degree
// guard never trips on honest lowering and the common denominator of
// decimal and dyadic vectors stays within bounds — and answer
// RatString-identically to the row's substrate dynamic programs
// combined by Lemma 3.7 (substrateProb).
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
				want := substrateProb(t, row.method, row.q, row.h, probs)
				if got.RatString() != want.RatString() {
					t.Fatalf("%v, %s vector: integer path %s, substrate reference %s",
						row.method, v.name, got.RatString(), want.RatString())
				}
			}
		}
	}
}
