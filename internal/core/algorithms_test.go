package core

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/plan"
)

// routePlan compiles qs on h with the cell compiler of the guard-table
// route for method m, bypassing the route's guard, and seals the
// program the way Compile's guard table does.
func routePlan(t *testing.T, m Method, qs UCQ, h *graph.ProbGraph) (*CompiledPlan, error) {
	t.Helper()
	for i := range solveRoutes {
		if solveRoutes[i].method == m {
			b := plan.NewBuilder(context.Background(), h.G.NumEdges())
			out, factors, err := solveRoutes[i].emit(b, qs, h)
			if err != nil {
				return nil, err
			}
			return seal(m, b, out, factors, nil)
		}
	}
	t.Fatalf("no route for %v", m)
	return nil, nil
}

// cellProb evaluates one cell compiler's plan exactly against h's own
// probabilities.
func cellProb(t *testing.T, cp *CompiledPlan, err error, h *graph.ProbGraph) *big.Rat {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cp.Evaluate(context.Background(), h.Probs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Prob
}

// TestTwoIndependentAlgorithmsAgreeOnDWT: a DWT instance is also a
// polytree, so the unlabeled path probability can be computed both by
// the chain-system dynamic program (Proposition 4.10's machinery) and by
// the tree-automaton/d-DNNF pipeline (Proposition 5.4). The two code
// paths share nothing; they must agree exactly.
func TestTwoIndependentAlgorithmsAgreeOnDWT(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		h := gen.RandProb(r, gen.RandDWT(r, 2+r.Intn(20), nil), 0.3)
		m := 1 + r.Intn(6)
		q := UCQ{graph.UnlabeledPath(m)}
		chain, err := routePlan(t, MethodGradedDWT, q, h)
		viaChain := cellProb(t, chain, err, h)
		automaton, err := routePlan(t, MethodAutomatonPT, q, h)
		viaAutomaton := cellProb(t, automaton, err, h)
		if viaChain.Cmp(viaAutomaton) != 0 {
			t.Fatalf("chain DP %s vs automaton %s (m=%d)\nh=%v",
				viaChain.RatString(), viaAutomaton.RatString(), m, h)
		}
	}
}

// TestSolveAllOnDWTUngradedIsZero: non-graded queries (cycles or jumping
// paths) have probability 0 on forest instances (Proposition 3.6); the
// solver answers so without falling back to a baseline.
func TestSolveAllOnDWTUngradedIsZero(t *testing.T) {
	h := gen.RandProb(rand.New(rand.NewSource(3)), gen.RandDWT(rand.New(rand.NewSource(3)), 8, nil), 0.3)
	// A directed cycle.
	cyc := graph.New(3)
	cyc.MustAddEdge(0, 1, graph.Unlabeled)
	cyc.MustAddEdge(1, 2, graph.Unlabeled)
	cyc.MustAddEdge(2, 0, graph.Unlabeled)
	res, err := Solve(cyc, h, &Options{DisableFallback: true})
	if err != nil || res.Prob.Sign() != 0 {
		t.Fatalf("cycle query: %v %v", res, err)
	}
	// A jumping edge.
	jump := graph.New(3)
	jump.MustAddEdge(0, 1, graph.Unlabeled)
	jump.MustAddEdge(1, 2, graph.Unlabeled)
	jump.MustAddEdge(0, 2, graph.Unlabeled)
	res, err = Solve(jump, h, &Options{DisableFallback: true})
	if err != nil || res.Prob.Sign() != 0 {
		t.Fatalf("jumping query: %v %v", res, err)
	}
	// And brute force agrees.
	if BruteForce(jump, h).Sign() != 0 {
		t.Fatal("brute force disagrees on ungraded query")
	}
}

// TestAlgorithmsRejectWrongClasses: each cell compiler validates its
// preconditions instead of silently computing nonsense, and the guard
// table does not route a query outside a cell to it.
func TestAlgorithmsRejectWrongClasses(t *testing.T) {
	poly := graph.New(3) // polytree that is not a DWT
	poly.MustAddEdge(0, 1, graph.Unlabeled)
	poly.MustAddEdge(2, 1, graph.Unlabeled)
	hPoly := graph.NewProbGraph(poly)

	if _, err := routePlan(t, MethodBetaAcyclicDWT, UCQ{graph.UnlabeledPath(2)}, hPoly); err == nil {
		t.Fatal("Prop 4.10 accepted a non-DWT instance")
	}
	if _, err := routePlan(t, MethodGradedDWT, UCQ{graph.UnlabeledPath(2)}, hPoly); err == nil {
		t.Fatal("Prop 3.6 accepted a non-⊔DWT instance")
	}
	tri := graph.New(3)
	tri.MustAddEdge(0, 1, graph.Unlabeled)
	tri.MustAddEdge(1, 2, graph.Unlabeled)
	tri.MustAddEdge(0, 2, graph.Unlabeled)
	hTri := graph.NewProbGraph(tri)
	if _, err := routePlan(t, MethodAutomatonPT, UCQ{graph.UnlabeledPath(2)}, hTri); err == nil {
		t.Fatal("Prop 5.4 accepted a non-polytree instance")
	}
	if _, err := routePlan(t, MethodXProperty2WP, UCQ{graph.UnlabeledPath(1)}, hTri); err == nil {
		t.Fatal("Prop 4.11 accepted a non-2WP instance")
	}
	for _, rt := range solveRoutes {
		if rt.method == MethodAutomatonPT && rt.applies(UCQ{tri}, hPoly, true) {
			t.Fatal("Prop 5.5 accepted a non-⊔DWT query")
		}
	}
}

// TestZeroAndOneProbabilityEdges: failure injection around the
// degenerate probabilities: p=0 edges can never appear, p=1 edges always
// do; the solvers must treat them consistently with brute force.
func TestZeroAndOneProbabilityEdges(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		inst := gen.RandInClass(r, graph.ClassDWT, 2+r.Intn(8), nil)
		h := graph.NewProbGraph(inst)
		for i := 0; i < inst.NumEdges(); i++ {
			switch r.Intn(3) {
			case 0:
				if err := h.SetProb(i, graph.RatZero); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := h.SetProb(i, graph.RatHalf); err != nil {
					t.Fatal(err)
				}
			}
		}
		q := graph.UnlabeledPath(1 + r.Intn(4))
		res, err := Solve(q, h, &Options{DisableFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForce(q, h)
		if res.Prob.Cmp(want) != 0 {
			t.Fatalf("degenerate probabilities: %s vs %s\nh=%v", res.Prob.RatString(), want.RatString(), h)
		}
	}
}

// TestProbabilityRange: every solver output lies in [0, 1].
func TestProbabilityRange(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	one := big.NewRat(1, 1)
	for trial := 0; trial < 150; trial++ {
		q := gen.RandInClass(r, graph.ClassAll, 1+r.Intn(5), twoLabels)
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassAll, 1+r.Intn(6), twoLabels), 0.3)
		res, err := Solve(q, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Prob.Sign() < 0 || res.Prob.Cmp(one) > 0 {
			t.Fatalf("probability out of range: %s", res.Prob.RatString())
		}
	}
}

// TestMonotoneInProbabilities: raising an edge probability never lowers
// Pr(G ⇝ H) (PHom is monotone; matches can only become more likely).
func TestMonotoneInProbabilities(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 80; trial++ {
		q := gen.RandInClass(r, graph.Class1WP, 2+r.Intn(3), nil)
		inst := gen.RandInClass(r, graph.ClassPT, 2+r.Intn(7), nil)
		h := gen.RandProb(r, inst, 0.3)
		res1, err := Solve(q, h, &Options{DisableFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		// Raise one random edge's probability.
		h2 := h.Clone()
		i := r.Intn(inst.NumEdges())
		raised := new(big.Rat).Add(h.Prob(i), new(big.Rat).SetFrac64(1, 2))
		if raised.Cmp(graph.RatOne) > 0 {
			raised.SetInt64(1)
		}
		if err := h2.SetProb(i, raised); err != nil {
			t.Fatal(err)
		}
		res2, err := Solve(q, h2, &Options{DisableFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		if res2.Prob.Cmp(res1.Prob) < 0 {
			t.Fatalf("raising an edge probability lowered the result: %s -> %s",
				res1.Prob.RatString(), res2.Prob.RatString())
		}
	}
}

// TestLemma37Decomposition: the component decomposition must equal the
// direct computation on the union, via the automaton path on forests of
// polytrees.
func TestLemma37Decomposition(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 80; trial++ {
		k := 2 + r.Intn(3)
		parts := make([]*graph.Graph, k)
		for i := range parts {
			parts[i] = gen.RandPolytree(r, 1+r.Intn(5), nil)
		}
		u, _ := graph.DisjointUnion(parts...)
		h := gen.RandProb(r, u, 0.3)
		m := 1 + r.Intn(4)
		p, err := routePlan(t, MethodAutomatonPT, UCQ{graph.UnlabeledPath(m)}, h)
		got := cellProb(t, p, err, h)
		want := BruteForce(graph.UnlabeledPath(m), h)
		if got.Cmp(want) != 0 {
			t.Fatalf("Lemma 3.7 decomposition wrong: %s vs %s", got.RatString(), want.RatString())
		}
	}
}

// TestFloatDPDriftBounded: the float64 ablation path must stay within
// 1e-9 of the exact rational result on moderate instances.
func TestFloatDPDriftBounded(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		h := gen.RandProb(r, gen.RandDWT(r, 50, nil), 0.3)
		m := 1 + r.Intn(4)
		p, err := routePlan(t, MethodGradedDWT, UCQ{graph.UnlabeledPath(m)}, h)
		exact := cellProb(t, p, err, h)
		// Rebuild the chain system for the float evaluation.
		res, err := Solve(graph.UnlabeledPath(m), h, &Options{DisableFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		ef, _ := exact.Float64()
		rf, _ := res.Prob.Float64()
		if diff := ef - rf; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("float drift too large: %g vs %g", ef, rf)
		}
	}
}

// TestSolverUsesExpectedMethod pins the routing decisions.
func TestSolverUsesExpectedMethod(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	cases := []struct {
		name   string
		q      *graph.Graph
		h      *graph.ProbGraph
		method Method
	}{
		{
			"labeled path on branching tree",
			graph.Path1WP("R", "S"),
			graph.NewProbGraph(star3("R", "S", "R")),
			MethodBetaAcyclicDWT,
		},
		{
			"connected on 2WP",
			graph.Path2WP(graph.Fwd("R"), graph.Bwd("S")),
			graph.NewProbGraph(gen.Rand2WP(r, 6, twoLabels)),
			MethodXProperty2WP,
		},
		{
			"unlabeled query on branching DWT",
			graph.UnlabeledPath(2),
			graph.NewProbGraph(star3(graph.Unlabeled, graph.Unlabeled, graph.Unlabeled)),
			MethodGradedDWT,
		},
		{
			"unlabeled path on genuine polytree",
			graph.UnlabeledPath(2),
			graph.NewProbGraph(genuinePolytree()),
			MethodAutomatonPT,
		},
	}
	for _, c := range cases {
		res, err := Solve(c.q, c.h, &Options{DisableFallback: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Method != c.method {
			t.Errorf("%s: routed to %v, want %v", c.name, res.Method, c.method)
		}
	}
}

// star3 is a root with three children (a DWT that is not a 2WP).
func star3(l1, l2, l3 graph.Label) *graph.Graph {
	g := graph.New(4)
	g.MustAddEdge(0, 1, l1)
	g.MustAddEdge(0, 2, l2)
	g.MustAddEdge(0, 3, l3)
	return g
}

// genuinePolytree has in-degree 2 and branching (neither DWT nor 2WP).
func genuinePolytree() *graph.Graph {
	g := graph.New(5)
	g.MustAddEdge(0, 1, graph.Unlabeled)
	g.MustAddEdge(2, 1, graph.Unlabeled)
	g.MustAddEdge(2, 3, graph.Unlabeled)
	g.MustAddEdge(2, 4, graph.Unlabeled)
	return g
}
