package core

import (
	"context"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/plan"
)

// fig1Instance builds the probabilistic graph of Figure 1 / Example 2.1:
// five R-edges with probabilities 1, 0.1, 0.8, 0.1, 0.05 and one S-edge
// with probability 0.7, arranged so that the Example 2.2 computation
// Pr(G ⇝ H) = 0.7 × (1 − (1 − 0.1)(1 − 0.8)) = 0.574 holds.
func fig1Instance() *graph.ProbGraph {
	g := graph.New(4)
	g.MustAddEdge(0, 1, "R") // 1
	g.MustAddEdge(0, 2, "R") // 0.1
	g.MustAddEdge(1, 2, "R") // 0.8
	g.MustAddEdge(1, 3, "R") // 0.1
	g.MustAddEdge(0, 3, "R") // 0.05
	g.MustAddEdge(2, 3, "S") // 0.7
	h := graph.NewProbGraph(g)
	h.MustSetEdgeProb(0, 2, graph.Rat("0.1"))
	h.MustSetEdgeProb(1, 2, graph.Rat("0.8"))
	h.MustSetEdgeProb(1, 3, graph.Rat("0.1"))
	h.MustSetEdgeProb(0, 3, graph.Rat("0.05"))
	h.MustSetEdgeProb(2, 3, graph.Rat("0.7"))
	return h
}

// fig1Query is the query of Example 2.2: −R→ −S→ ←S−.
func fig1Query() *graph.Graph {
	q := graph.New(4)
	q.MustAddEdge(0, 1, "R")
	q.MustAddEdge(1, 2, "S")
	q.MustAddEdge(3, 2, "S")
	return q
}

func TestExample22(t *testing.T) {
	want := graph.Rat("0.574")
	got := BruteForce(fig1Query(), fig1Instance())
	if got.Cmp(want) != 0 {
		t.Fatalf("Example 2.2 brute force = %s, want 0.574", got.RatString())
	}
	res, err := Solve(fig1Query(), fig1Instance(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prob.Cmp(want) != 0 {
		t.Fatalf("Example 2.2 Solve = %s (method %v), want 0.574", res.Prob.RatString(), res.Method)
	}
}

func TestBruteForceLimitEnforced(t *testing.T) {
	g := graph.UnlabeledPath(5)
	h := graph.NewProbGraph(g)
	for i := 0; i < 5; i++ {
		if err := h.SetProb(i, graph.RatHalf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := BruteForceLimit(graph.UnlabeledPath(2), h, 3); err == nil {
		t.Fatal("limit not enforced")
	}
	if _, err := BruteForceLimit(graph.UnlabeledPath(2), h, 5); err != nil {
		t.Fatalf("limit 5 should suffice: %v", err)
	}
}

// labelSets per setting.
var (
	twoLabels = []graph.Label{"R", "S"}
	oneLabel  = []graph.Label{graph.Unlabeled}
)

// tractableCells enumerates the PTIME cells of Tables 1–3 that the
// solver must handle with a PTIME method; each entry names the cell and
// the expected method family.
var tractableCells = []struct {
	name    string
	qc, ic  graph.Class
	labeled bool
}{
	// Table 2 (labeled, connected queries).
	{"T2 1WP/1WP", graph.Class1WP, graph.Class1WP, true},
	{"T2 1WP/2WP", graph.Class1WP, graph.Class2WP, true},
	{"T2 1WP/DWT", graph.Class1WP, graph.ClassDWT, true},
	{"T2 2WP/2WP", graph.Class2WP, graph.Class2WP, true},
	{"T2 DWT/2WP", graph.ClassDWT, graph.Class2WP, true},
	{"T2 PT/2WP", graph.ClassPT, graph.Class2WP, true},
	{"T2 Connected/2WP", graph.ClassConnected, graph.Class2WP, true},
	{"T2 Connected/U2WP", graph.ClassConnected, graph.ClassU2WP, true},
	{"T2 1WP/UDWT", graph.Class1WP, graph.ClassUDWT, true},
	// Table 3 (unlabeled, connected queries).
	{"T3 1WP/1WP", graph.Class1WP, graph.Class1WP, false},
	{"T3 1WP/2WP", graph.Class1WP, graph.Class2WP, false},
	{"T3 1WP/DWT", graph.Class1WP, graph.ClassDWT, false},
	{"T3 1WP/PT", graph.Class1WP, graph.ClassPT, false},
	{"T3 2WP/2WP", graph.Class2WP, graph.Class2WP, false},
	{"T3 2WP/DWT", graph.Class2WP, graph.ClassDWT, false},
	{"T3 DWT/DWT", graph.ClassDWT, graph.ClassDWT, false},
	{"T3 DWT/PT", graph.ClassDWT, graph.ClassPT, false},
	{"T3 PT/DWT", graph.ClassPT, graph.ClassDWT, false},
	{"T3 Connected/2WP", graph.ClassConnected, graph.Class2WP, false},
	{"T3 Connected/DWT", graph.ClassConnected, graph.ClassDWT, false},
	// Table 1 (unlabeled, disconnected queries).
	{"T1 U1WP/1WP", graph.ClassU1WP, graph.Class1WP, false},
	{"T1 U1WP/2WP", graph.ClassU1WP, graph.Class2WP, false},
	{"T1 U1WP/DWT", graph.ClassU1WP, graph.ClassDWT, false},
	{"T1 U1WP/PT", graph.ClassU1WP, graph.ClassPT, false},
	{"T1 U1WP/UPT", graph.ClassU1WP, graph.ClassUPT, false},
	{"T1 U2WP/1WP", graph.ClassU2WP, graph.Class1WP, false},
	{"T1 U2WP/DWT", graph.ClassU2WP, graph.ClassDWT, false},
	{"T1 UDWT/PT", graph.ClassUDWT, graph.ClassPT, false},
	{"T1 UDWT/UPT", graph.ClassUDWT, graph.ClassUPT, false},
	{"T1 UPT/DWT", graph.ClassUPT, graph.ClassDWT, false},
	{"T1 All/1WP", graph.ClassAll, graph.Class1WP, false},
	{"T1 All/DWT", graph.ClassAll, graph.ClassDWT, false},
	{"T1 All/UDWT", graph.ClassAll, graph.ClassUDWT, false},
}

// TestSolveMatchesBruteForceOnTractableCells is the central correctness
// test: for every tractable cell, over many random seeded inputs, the
// dispatched PTIME algorithm must agree exactly with world enumeration,
// and must not have fallen back to an exponential method.
func TestSolveMatchesBruteForceOnTractableCells(t *testing.T) {
	for _, cell := range tractableCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			labels := oneLabel
			if cell.labeled {
				labels = twoLabels
			}
			r := rand.New(rand.NewSource(int64(len(cell.name)) * 7919))
			trials := 60
			for trial := 0; trial < trials; trial++ {
				q := gen.RandInClass(r, cell.qc, 1+r.Intn(4), labels)
				inst := gen.RandInClass(r, cell.ic, 1+r.Intn(8), labels)
				h := gen.RandProb(r, inst, 0.3)
				res, err := Solve(q, h, &Options{DisableFallback: true})
				if err != nil {
					t.Fatalf("trial %d: solver refused a tractable cell: %v\nq=%v\nh=%v", trial, err, q, h)
				}
				if !res.Method.PTime() {
					t.Fatalf("trial %d: solver used exponential method %v on tractable cell", trial, res.Method)
				}
				want := BruteForce(q, h)
				if res.Prob.Cmp(want) != 0 {
					t.Fatalf("trial %d: Solve=%s (method %v) brute=%s\nq=%v\nh=%v",
						trial, res.Prob.RatString(), res.Method, want.RatString(), q, h)
				}
			}
		})
	}
}

// TestSolveFallbackMatchesBruteForce: on hard cells the solver falls back
// but must still be exact.
func TestSolveFallbackMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		q := gen.RandInClass(r, graph.Class2WP, 2+r.Intn(3), twoLabels)
		inst := gen.RandInClass(r, graph.ClassDWT, 2+r.Intn(6), twoLabels)
		h := gen.RandProb(r, inst, 0.3)
		res, err := Solve(q, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForce(q, h)
		if res.Prob.Cmp(want) != 0 {
			t.Fatalf("fallback mismatch: %s vs %s", res.Prob.RatString(), want.RatString())
		}
	}
}

// TestLineageShannonMatchesBruteForce validates the second baseline.
func TestLineageShannonMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		q := gen.RandInClass(r, graph.ClassConnected, 1+r.Intn(4), twoLabels)
		inst := gen.RandInClass(r, graph.ClassAll, 1+r.Intn(6), twoLabels)
		h := gen.RandProb(r, inst, 0.3)
		got, err := LineageShannon(q, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForce(q, h)
		if got.Cmp(want) != 0 {
			t.Fatalf("lineage mismatch: %s vs %s\nq=%v\nh=%v", got.RatString(), want.RatString(), q, h)
		}
	}
}

func TestSolveTrivialCases(t *testing.T) {
	// Edgeless query: probability 1.
	q := graph.New(3)
	h := graph.NewProbGraph(graph.UnlabeledPath(2))
	res, err := Solve(q, h, &Options{DisableFallback: true})
	if err != nil || res.Method != MethodTrivial || res.Prob.Cmp(graph.RatOne) != 0 {
		t.Fatalf("edgeless query: %v %v", res, err)
	}
	// Label mismatch: probability 0.
	q2 := graph.Path1WP("Z")
	res, err = Solve(q2, h, &Options{DisableFallback: true})
	if err != nil || res.Method != MethodLabelMismatch || res.Prob.Sign() != 0 {
		t.Fatalf("label mismatch: %v %v", res, err)
	}
	// Empty graphs are rejected.
	if _, err := Solve(graph.New(0), h, nil); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := Solve(q2, graph.NewProbGraph(graph.New(0)), nil); err == nil {
		t.Fatal("empty instance accepted")
	}
}

func TestSolveDisableFallbackOnHardCell(t *testing.T) {
	// Labeled 2WP query on DWT instance is #P-hard (Prop 4.5): with
	// fallback disabled the solver must refuse.
	q := graph.Path2WP(graph.Fwd("R"), graph.Bwd("S"))
	inst := graph.New(4) // a genuinely branching DWT (not a 2WP)
	inst.MustAddEdge(0, 1, "R")
	inst.MustAddEdge(0, 2, "S")
	inst.MustAddEdge(0, 3, "R")
	h := graph.NewProbGraph(inst)
	if _, err := Solve(q, h, &Options{DisableFallback: true}); err == nil {
		t.Fatal("hard cell solved without fallback?")
	}
}

// TestDichotomyCoverage verifies that the classifier's tractable pairs
// and hard borders partition all 10 × 10 × 2 cells with no gap and no
// overlap — the machine-checked form of the paper's completeness claim.
func TestDichotomyCoverage(t *testing.T) {
	for _, labeled := range []bool{false, true} {
		tract, hard := tractableUnlabeled, hardUnlabeled
		if labeled {
			tract, hard = tractableLabeled, hardLabeled
		}
		for _, qc := range graph.AllClasses {
			for _, ic := range graph.AllClasses {
				coveredT := false
				for _, tc := range tract {
					if graph.ClassIncluded(qc, tc.q) && graph.ClassIncluded(ic, tc.i) {
						coveredT = true
					}
				}
				coveredH := false
				for _, hc := range hard {
					if graph.ClassIncluded(hc.q, qc) && graph.ClassIncluded(hc.i, ic) {
						coveredH = true
					}
				}
				if coveredT == coveredH {
					t.Errorf("cell (%v, %v, labeled=%v): tractable=%v hard=%v — dichotomy violated",
						qc, ic, labeled, coveredT, coveredH)
				}
				if v := Predict(qc, ic, labeled); strings.Contains(v.Reason, "UNCOVERED") {
					t.Errorf("Predict left cell (%v, %v, labeled=%v) uncovered", qc, ic, labeled)
				}
			}
		}
	}
}

// TestPredictMonotone: tractability must be downward closed along class
// inclusion (smaller classes can only be easier).
func TestPredictMonotone(t *testing.T) {
	for _, labeled := range []bool{false, true} {
		for _, qc := range graph.AllClasses {
			for _, ic := range graph.AllClasses {
				if !Predict(qc, ic, labeled).Tractable {
					continue
				}
				for _, qc2 := range graph.AllClasses {
					for _, ic2 := range graph.AllClasses {
						if graph.ClassIncluded(qc2, qc) && graph.ClassIncluded(ic2, ic) {
							if !Predict(qc2, ic2, labeled).Tractable {
								t.Errorf("(%v,%v) tractable but smaller (%v,%v) not (labeled=%v)",
									qc, ic, qc2, ic2, labeled)
							}
						}
					}
				}
			}
		}
	}
}

// TestPredictPaperBorderCells pins the border cells named in Tables 1–3.
func TestPredictPaperBorderCells(t *testing.T) {
	cases := []struct {
		qc, ic    graph.Class
		labeled   bool
		tractable bool
		propWant  string
	}{
		// Table 1.
		{graph.ClassU1WP, graph.ClassConnected, false, false, "5.1"},
		{graph.ClassU2WP, graph.Class2WP, false, false, "3.4"},
		{graph.ClassUDWT, graph.ClassPT, false, true, "5.5"},
		{graph.ClassAll, graph.ClassDWT, false, true, "3.6"},
		// Table 2.
		{graph.Class1WP, graph.ClassDWT, true, true, "4.10"},
		{graph.Class1WP, graph.ClassPT, true, false, "4.1"},
		{graph.Class2WP, graph.ClassDWT, true, false, "4.5"},
		{graph.ClassDWT, graph.ClassDWT, true, false, "4.4"},
		{graph.ClassConnected, graph.Class2WP, true, true, "4.11"},
		// Table 3.
		{graph.Class1WP, graph.ClassConnected, false, false, "5.1"},
		{graph.Class2WP, graph.ClassPT, false, false, "5.6"},
		{graph.ClassDWT, graph.ClassPT, false, true, "5.5"},
		{graph.ClassConnected, graph.Class2WP, false, true, "4.11"},
		{graph.ClassConnected, graph.ClassDWT, false, true, "3.6"},
		// §3.1: labeled disconnected queries are hard everywhere.
		{graph.ClassU1WP, graph.Class1WP, true, false, "3.3"},
	}
	for _, c := range cases {
		v := Predict(c.qc, c.ic, c.labeled)
		if v.Tractable != c.tractable {
			t.Errorf("Predict(%v, %v, labeled=%v) = %v, want tractable=%v",
				c.qc, c.ic, c.labeled, v, c.tractable)
		}
		if !strings.Contains(v.Reason, c.propWant) {
			t.Errorf("Predict(%v, %v, labeled=%v) reason %q, want mention of %q",
				c.qc, c.ic, c.labeled, v.Reason, c.propWant)
		}
	}
}

// TestSolverAgreesWithPrediction: whenever Predict says a cell is
// tractable, Solve with fallback disabled must succeed on random members
// of the cell; the converse (refusal on hard cells) is not required cell-
// wide since concrete inputs may fall in easier subclasses.
func TestSolverAgreesWithPrediction(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, labeled := range []bool{false, true} {
		labels := oneLabel
		if labeled {
			labels = twoLabels
		}
		for _, qc := range graph.AllClasses {
			for _, ic := range graph.AllClasses {
				if !Predict(qc, ic, labeled).Tractable {
					continue
				}
				for trial := 0; trial < 5; trial++ {
					q := gen.RandInClass(r, qc, 1+r.Intn(4), labels)
					h := gen.RandProb(r, gen.RandInClass(r, ic, 1+r.Intn(7), labels), 0.3)
					if _, err := Solve(q, h, &Options{DisableFallback: true}); err != nil {
						t.Fatalf("predicted-tractable cell (%v, %v, labeled=%v) refused: %v\nq=%v\nh=%v",
							qc, ic, labeled, err, q, h)
					}
				}
			}
		}
	}
}

func TestMethodStrings(t *testing.T) {
	for m := MethodTrivial; m <= MethodLineage; m++ {
		if m.String() == "method(?)" {
			t.Errorf("method %d has no name", m)
		}
	}
	if MethodBruteForce.PTime() || MethodLineage.PTime() {
		t.Error("baselines must not be PTime")
	}
	if !MethodAutomatonPT.PTime() {
		t.Error("automaton method is PTime")
	}
}

func TestCombineComponents(t *testing.T) {
	// Lemma 3.7 combination, as plan.Compose emits it:
	// 1 − (1 − 1/2)(1 − 1/3) = 1 − 1/3 = 2/3.
	parts := []*big.Rat{big.NewRat(1, 2), big.NewRat(1, 3)}
	b := plan.NewBuilder(context.Background(), 0)
	out, _, err := plan.Compose(b, len(parts), func(i int) (uint32, error) { return b.Const(parts[i]), nil })
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Finish(out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.ExecCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewRat(2, 3)) != 0 {
		t.Fatalf("Compose = %s, want 2/3", got.RatString())
	}
}
