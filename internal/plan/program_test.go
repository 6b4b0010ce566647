package plan

import (
	"context"
	"math/big"
	"math/rand"
	"slices"
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
	b0 := NewBuilder(context.Background(), 3)
	prog, err := b0.Finish(b0.Const(rat("1/2")))
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

// compareWorlds checks that prog computes RatString-byte-identical
// results to the world-enumeration oracle for the union qs across
// several reweightings of h.
func compareWorlds(t *testing.T, r *rand.Rand, prog *Program, err error, h *graph.ProbGraph, qs []*graph.Graph, what string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: compile: %v", what, err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("%s: lowered program invalid: %v", what, err)
	}
	for reweight := 0; reweight < 4; reweight++ {
		probs := h.Probs()
		want := worldsProb(h.G, probs, qs...)
		if got := execString(t, prog, probs); got != want.RatString() {
			t.Fatalf("%s: program %s vs worlds %s", what, got, want.RatString())
		}
		randomize(r, h)
	}
}

// TestLoweredProgramsMatchTreeEvaluate is the plan-layer differential:
// for every structural compiler, the built Program agrees
// byte-identically with possible-world enumeration (instances of at
// most 11 vertices) under many probability assignments, including
// degenerate 0/1 weights.
func TestLoweredProgramsMatchTreeEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	un := []graph.Label{graph.Unlabeled}
	rs := []graph.Label{"R", "S"}

	for trial := 0; trial < 20; trial++ {
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 2+r.Intn(10), un), 0.7)
		m := 1 + r.Intn(4)
		prog, _, err := dwtPaths(nil, h, m)
		compareWorlds(t, r, prog, err, h, []*graph.Graph{graph.UnlabeledPath(m)}, "PartDirectedPathOnDWT")
	}
	for trial := 0; trial < 20; trial++ {
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassUPT, 2+r.Intn(10), un), 0.7)
		m := 1 + r.Intn(4)
		prog, _, err := polytreePaths(nil, h, m)
		compareWorlds(t, r, prog, err, h, []*graph.Graph{graph.UnlabeledPath(m)}, "PartDirectedPathOnPolytree")
	}
	for trial := 0; trial < 20; trial++ {
		qs := []*graph.Graph{gen.Rand1WP(r, 2+r.Intn(3), rs)}
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 2+r.Intn(10), rs), 0.7)
		prog, _, err := chains(qs, h)
		compareWorlds(t, r, prog, err, h, qs, "Part1WPOnDWT")
	}
	for trial := 0; trial < 20; trial++ {
		qs := []*graph.Graph{gen.RandConnected(r, 2+r.Intn(3), 1, rs)}
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, 2+r.Intn(10), rs), 0.7)
		prog, _, err := intervals(qs, h)
		compareWorlds(t, r, prog, err, h, qs, "PartConnectedOn2WP")
	}
	for trial := 0; trial < 10; trial++ {
		qs := []*graph.Graph{gen.Rand1WP(r, 2+r.Intn(2), rs), gen.Rand1WP(r, 2+r.Intn(2), rs)}
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 2+r.Intn(8), rs), 0.7)
		prog, _, err := chains(qs, h)
		compareWorlds(t, r, prog, err, h, qs, "Part1WPOnDWT union")
	}
	for trial := 0; trial < 10; trial++ {
		qs := []*graph.Graph{gen.RandConnected(r, 2+r.Intn(2), 1, rs), gen.RandConnected(r, 2+r.Intn(2), 1, rs)}
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, 2+r.Intn(8), rs), 0.7)
		prog, _, err := intervals(qs, h)
		compareWorlds(t, r, prog, err, h, qs, "PartConnectedOn2WP union")
	}
}

// TestLowerConstAndComponents: composites of constant parts and bare
// constants build to programs of the expected values; a composite gets
// a part table only when every constant factor is 1 (no component has
// a match), all of them FoldedPart.
func TestLowerConstAndComponents(t *testing.T) {
	consts := func(vs ...string) (*Program, []int, error) {
		b := NewBuilder(context.Background(), 0)
		out, factors, err := Compose(b, len(vs), func(i int) (uint32, error) { return b.Const(rat(vs[i])), nil })
		if err != nil {
			return nil, nil, err
		}
		return b.FinishParts(out, factors)
	}
	for _, tc := range []struct {
		parts     []string
		want      string
		wantTable []int
	}{
		{[]string{"1/3", "1/5"}, "7/15", nil},
		{[]string{"0"}, "0", nil},
		{[]string{"1"}, "1", nil},
		{[]string{"0", "1"}, "1", nil},
		{[]string{"0", "0", "0"}, "0", []int{FoldedPart, FoldedPart, FoldedPart}},
	} {
		prog, parts, err := consts(tc.parts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := execString(t, prog, nil); got != tc.want {
			t.Errorf("Compose%v = %s, want %s", tc.parts, got, tc.want)
		}
		if !slices.Equal(parts, tc.wantTable) {
			t.Errorf("Compose%v: part table %v, want %v", tc.parts, parts, tc.wantTable)
		}
	}
}

// TestPartTable pins the part table of a composite: one entry per
// component in order, the op index of each factor 1 − p_i, FoldedPart
// for a component without a match (an isolated vertex), and replaying
// each entry's dependency slice reproduces that factor.
func TestPartTable(t *testing.T) {
	// Components: path 0→1→2, isolated vertex 3, edge 4→5.
	g := graph.New(6)
	g.MustAddEdge(0, 1, graph.Unlabeled)
	g.MustAddEdge(1, 2, graph.Unlabeled)
	g.MustAddEdge(4, 5, graph.Unlabeled)
	h := graph.NewProbGraph(g)
	prog, parts, err := dwtPaths(nil, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 || parts[1] != FoldedPart || parts[0] == FoldedPart || parts[2] == FoldedPart {
		t.Fatalf("part table %v, want [op, FoldedPart, op]", parts)
	}
	if err := ValidatePartTable(parts, prog.NumOps()); err != nil {
		t.Fatal(err)
	}
	probs := []*big.Rat{rat("1/2"), rat("1/3"), rat("1/5")}
	b := NewBuilder(context.Background(), 3)
	rp := NewReplayer(prog, b)
	for ci, want := range []string{"1/3", "", "4/5"} { // (1−1/2)(1−1/3), —, 1−1/5
		if parts[ci] == FoldedPart {
			continue
		}
		f, ok := rp.Replay(parts[ci], func(e int) (int, bool) { return e, true })
		if !ok {
			t.Fatalf("part %d: replay refused", ci)
		}
		part, err := b.Finish(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := execString(t, part, probs); got != want {
			t.Errorf("part %d factor = %s, want %s", ci, got, want)
		}
	}
	rp = NewReplayer(prog, NewBuilder(context.Background(), 3))
	if _, ok := rp.Replay(parts[2], func(e int) (int, bool) { return e, e != 2 }); ok {
		t.Error("replay accepted a refused load")
	}
	if _, ok := rp.Replay(parts[0], func(e int) (int, bool) { return e, true }); ok {
		t.Error("replay went on after a refusal")
	}
	for _, bad := range [][]int{nil, {0}, {2, 1}, {0, 0}, {0, prog.NumOps()}, {-2, 0}} {
		if ValidatePartTable(bad, prog.NumOps()) == nil {
			t.Errorf("ValidatePartTable accepted %v", bad)
		}
	}
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
	prog, err := lowerSystem(context.Background(), n-1, nodeEdge, func(em *edgeMapEmitter) (uint32, error) {
		return cc.EmitOps(em)
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		probs := make([]*big.Rat, n-1)
		for i := range probs {
			probs[i] = big.NewRat(int64(r.Intn(17)), 16)
		}
		// The dynamic program itself, node v reading edge v−1.
		nodeProbs := append([]*big.Rat{graph.RatOne}, probs...)
		want, err := cc.Prob(nodeProbs)
		if err != nil {
			t.Fatal(err)
		}
		if got := execString(t, prog, probs); got != want.RatString() {
			t.Fatalf("trial %d: Prob %s vs program %s", trial, want.RatString(), got)
		}
	}
}
