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

func TestProgramBuilderExec(t *testing.T) {
	// (1 − π0)·π1 + 1/3 over two edges, by hand.
	b := NewBuilder(context.Background(), 2)
	p0 := b.Load(0)
	om := b.OneMinus(p0)
	p1 := b.Load(1)
	m := b.Mul(om, p1)
	c := b.Const(rat("1/3"))
	out := b.Add(m, c)
	prog, err := b.Finish(out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.ExecCtx(context.Background(), []*big.Rat{rat("1/2"), rat("1/4")})
	if err != nil {
		t.Fatal(err)
	}
	if want := rat("11/24"); got.Cmp(want) != 0 {
		t.Fatalf("ExecCtx = %s, want %s", got.RatString(), want.RatString())
	}
	// Register reuse: Finish frees p0, om and p1 after their last use,
	// so six ops need only three registers.
	if prog.NumRegs > 3 {
		t.Errorf("NumRegs = %d, expected reuse to keep it ≤ 3", prog.NumRegs)
	}
}

func TestProgramExecRejectsBadInput(t *testing.T) {
	prog, err := LowerContext(context.Background(), NewConst(rat("1/2")), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.ExecCtx(context.Background(), []*big.Rat{rat("1")}); err == nil {
		t.Fatal("expected a length-mismatch error")
	}
	b := NewBuilder(context.Background(), 2)
	out := b.Load(1)
	prog2, err := b.Finish(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog2.ExecCtx(context.Background(), []*big.Rat{rat("1"), nil}); err == nil {
		t.Fatal("expected a nil-probability error")
	}
}

func TestBuilderRejectsBadLoad(t *testing.T) {
	b := NewBuilder(context.Background(), 2)
	out := b.Load(5)
	if _, err := b.Finish(out); err == nil {
		t.Fatal("expected a sticky out-of-range error")
	}
}

func TestProgramValidate(t *testing.T) {
	cases := []struct {
		name string
		prog Program
	}{
		{"empty", Program{NumRegs: 1}},
		{"no regs", Program{Ops: []Op{{Code: OpConst}}}},
		{"more regs than ops", Program{NumRegs: 3, Ops: []Op{{Code: OpLoad}}, NumEdges: 1}},
		{"bad opcode", Program{NumRegs: 1, Ops: []Op{{Code: 99}}}},
		{"bad const index", Program{NumRegs: 1, Ops: []Op{{Code: OpConst, A: 1}}}},
		{"nil const", Program{NumRegs: 1, Consts: []*big.Rat{nil}, Ops: []Op{{Code: OpConst}}}},
		{"bad edge", Program{NumRegs: 1, NumEdges: 1, Ops: []Op{{Code: OpLoad, A: 4}}}},
		{"use before def", Program{NumRegs: 2, Ops: []Op{{Code: OpOneMinus, Dst: 0, A: 1}, {Code: OpConst, Dst: 1}}, Consts: []*big.Rat{rat("1")}}},
		{"undefined out", Program{NumRegs: 2, Consts: []*big.Rat{rat("1")}, Ops: []Op{{Code: OpConst, Dst: 0}, {Code: OpConst, Dst: 0}}, Out: 1}},
		{"negative edges", Program{NumEdges: -1, NumRegs: 1, Consts: []*big.Rat{rat("1")}, Ops: []Op{{Code: OpConst}}}},
	}
	for _, tc := range cases {
		if err := tc.prog.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid program", tc.name)
		}
	}
	ok := Program{NumRegs: 1, Consts: []*big.Rat{rat("1/2")}, Ops: []Op{{Code: OpConst, Dst: 0, A: 0}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

// lowerAndCompare checks that the flattened program of p computes
// RatString-byte-identical results to the tree evaluator across several
// reweightings of h.
func lowerAndCompare(t *testing.T, r *rand.Rand, p Plan, h *graph.ProbGraph, what string) {
	t.Helper()
	prog, err := LowerContext(context.Background(), p, h.G.NumEdges())
	if err != nil {
		t.Fatalf("%s: LowerContext: %v", what, err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("%s: lowered program invalid: %v", what, err)
	}
	for reweight := 0; reweight < 4; reweight++ {
		probs := h.Probs()
		tree, err := p.Evaluate(probs)
		if err != nil {
			t.Fatalf("%s: tree Evaluate: %v", what, err)
		}
		flat, err := prog.ExecCtx(context.Background(), probs)
		if err != nil {
			t.Fatalf("%s: ExecCtx: %v", what, err)
		}
		if tree.RatString() != flat.RatString() {
			t.Fatalf("%s: tree %s vs program %s", what, tree.RatString(), flat.RatString())
		}
		randomize(r, h)
	}
}

// TestLoweredProgramsMatchTreeEvaluate is the plan-layer differential:
// for every structural compiler, the flattened Program agrees
// byte-identically with the tree evaluation under many probability
// assignments, including degenerate 0/1 weights.
func TestLoweredProgramsMatchTreeEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	un := []graph.Label{graph.Unlabeled}
	rs := []graph.Label{"R", "S"}

	for trial := 0; trial < 20; trial++ {
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 2+r.Intn(10), un), 0.7)
		p, err := DirectedPathOnDWTs(h, 1+r.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		lowerAndCompare(t, r, p, h, "DirectedPathOnDWTs")
	}
	for trial := 0; trial < 20; trial++ {
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassUPT, 2+r.Intn(10), un), 0.7)
		p, err := DirectedPathOnPolytrees(h, 1+r.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		lowerAndCompare(t, r, p, h, "DirectedPathOnPolytrees")
	}
	for trial := 0; trial < 20; trial++ {
		q := gen.Rand1WP(r, 2+r.Intn(3), rs)
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 2+r.Intn(10), rs), 0.7)
		p, err := Path1WPOnDWT(q, h)
		if err != nil {
			t.Fatal(err)
		}
		lowerAndCompare(t, r, p, h, "Path1WPOnDWT")
	}
	for trial := 0; trial < 20; trial++ {
		q := gen.RandConnected(r, 2+r.Intn(3), 1, rs)
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, 2+r.Intn(10), rs), 0.7)
		p, err := ConnectedOn2WP(q, h)
		if err != nil {
			t.Fatal(err)
		}
		lowerAndCompare(t, r, p, h, "ConnectedOn2WP")
	}
	for trial := 0; trial < 10; trial++ {
		qs := []*graph.Graph{gen.Rand1WP(r, 2+r.Intn(2), rs), gen.Rand1WP(r, 2+r.Intn(2), rs)}
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 2+r.Intn(8), rs), 0.7)
		p, err := Union1WPOnDWT(qs, h)
		if err != nil {
			t.Fatal(err)
		}
		lowerAndCompare(t, r, p, h, "Union1WPOnDWT")
	}
	for trial := 0; trial < 10; trial++ {
		qs := []*graph.Graph{gen.RandConnected(r, 2+r.Intn(2), 1, rs), gen.RandConnected(r, 2+r.Intn(2), 1, rs)}
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, 2+r.Intn(8), rs), 0.7)
		p, err := UnionConnectedOn2WP(qs, h)
		if err != nil {
			t.Fatal(err)
		}
		lowerAndCompare(t, r, p, h, "UnionConnectedOn2WP")
	}
}

func TestLowerConstAndComponents(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	h := gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 4, []graph.Label{graph.Unlabeled}), 0.5)
	comp := Components{Parts: []Plan{NewConst(rat("1/3")), NewConst(rat("1/5"))}}
	lowerAndCompare(t, r, comp, h, "Components of Consts")
	lowerAndCompare(t, r, NewConst(rat("0")), h, "Const 0")
	lowerAndCompare(t, r, NewConst(rat("1")), h, "Const 1")
}

// TestChainEmitMatchesProbDirect drives the betadnf chain lowering on a
// hand-built multi-level system (deep chains, dead subtrees) where the
// pruning and streak-cap paths all fire.
func TestChainEmitMatchesProbDirect(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sys := &betadnf.ChainSystem{
		//        0 (root)
		//   1        2        3(dead)
		//  4 5       6
		Parent:   []int{-1, 0, 0, 0, 1, 1, 2},
		ChainLen: []int{0, 0, 1, 0, 2, 1, 2},
	}
	cc, err := sys.Compile()
	if err != nil {
		t.Fatal(err)
	}
	n := len(sys.Parent)
	nodeEdge := make([]int, n)
	for i := range nodeEdge {
		nodeEdge[i] = i - 1 // node v reads edge v−1; root reads nothing
	}
	c := Chain{System: cc, NodeEdge: nodeEdge}
	prog, err := LowerContext(context.Background(), c, n-1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		probs := make([]*big.Rat, n-1)
		for i := range probs {
			probs[i] = big.NewRat(int64(r.Intn(17)), 16)
		}
		tree, err := c.Evaluate(probs)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := prog.ExecCtx(context.Background(), probs)
		if err != nil {
			t.Fatal(err)
		}
		if tree.RatString() != flat.RatString() {
			t.Fatalf("trial %d: tree %s vs program %s", trial, tree.RatString(), flat.RatString())
		}
	}
}
