package phom

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/gen"
)

// TestPublicAPIQuickstart exercises the README quickstart end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	// Query: x −R→ y −S→ z ←S− t (Example 2.2).
	q := New(4)
	q.MustAddEdge(0, 1, "R")
	q.MustAddEdge(1, 2, "S")
	q.MustAddEdge(3, 2, "S")

	// Instance: Figure 1.
	g := New(4)
	g.MustAddEdge(0, 1, "R")
	g.MustAddEdge(0, 2, "R")
	g.MustAddEdge(1, 2, "R")
	g.MustAddEdge(1, 3, "R")
	g.MustAddEdge(0, 3, "R")
	g.MustAddEdge(2, 3, "S")
	h := NewProbGraph(g)
	h.MustSetEdgeProb(0, 2, Rat("0.1"))
	h.MustSetEdgeProb(1, 2, Rat("0.8"))
	h.MustSetEdgeProb(1, 3, Rat("0.1"))
	h.MustSetEdgeProb(0, 3, Rat("0.05"))
	h.MustSetEdgeProb(2, 3, Rat("0.7"))

	res, err := Solve(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prob.Cmp(Rat("0.574")) != 0 {
		t.Fatalf("quickstart = %s, want 0.574", res.Prob.RatString())
	}
}

func TestPredictAPI(t *testing.T) {
	v := Predict(Class1WP, ClassDWT, true)
	if !v.Tractable {
		t.Fatal("labeled (1WP, DWT) must be tractable (Prop 4.10)")
	}
	v = Predict(Class2WP, ClassPT, false)
	if v.Tractable {
		t.Fatal("unlabeled (2WP, PT) must be hard (Prop 5.6)")
	}
}

func TestSolveBaselinesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		q := gen.RandInClass(r, ClassConnected, 1+r.Intn(4), []Label{"R", "S"})
		h := gen.RandProb(r, gen.RandInClass(r, ClassAll, 1+r.Intn(6), []Label{"R", "S"}), 0.3)
		bf := BruteForce(q, h)
		ls, err := LineageShannon(q, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bf.Cmp(ls) != 0 {
			t.Fatalf("baselines disagree: %s vs %s", bf.RatString(), ls.RatString())
		}
	}
}

// ExampleSolve demonstrates the minimal workflow: build a query and an
// uncertain instance, and compute the match probability exactly.
func ExampleSolve() {
	// Query: a directed path of two R-edges.
	q := Path1WP("R", "R")

	// Instance: a chain of three R-edges; the middle one is uncertain.
	g := Path1WP("R", "R", "R")
	h := NewProbGraph(g)
	h.MustSetEdgeProb(1, 2, Rat("1/2"))

	res, _ := Solve(q, h, nil)
	fmt.Printf("Pr = %s via %s\n", res.Prob.RatString(), res.Method)
	// Output: Pr = 1/2 via x-property-2wp (Prop 4.11)
}

// ExamplePredict demonstrates the complexity classifier of Tables 1–3.
func ExamplePredict() {
	fmt.Println(Predict(Class1WP, ClassDWT, true))
	fmt.Println(Predict(Class1WP, ClassPT, true))
	// Output:
	// PTIME [Prop 4.10 + Lemma 3.7]
	// #P-hard [Prop 4.1]
}

func TestBigRatExactness(t *testing.T) {
	// 0.1 is parsed exactly as 1/10 (not a float64 approximation).
	if Rat("0.1").Cmp(big.NewRat(1, 10)) != 0 {
		t.Fatal("Rat must be exact")
	}
}

// TestCompileReweightAPI exercises the public compile/evaluate split:
// one compilation serves many probability assignments, byte-identical
// to fresh solves.
func TestCompileReweightAPI(t *testing.T) {
	q := Path1WP("R", "S")
	g := New(4)
	g.MustAddEdge(0, 1, "R")
	g.MustAddEdge(1, 2, "S")
	g.MustAddEdge(1, 3, "S")
	h := NewProbGraph(g)
	h.MustSetEdgeProb(0, 1, Rat("1/2"))

	plan, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Opaque() {
		t.Fatal("1WP on DWT must compile to a structural plan")
	}
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		for i := 0; i < g.NumEdges(); i++ {
			if err := h.SetProb(i, big.NewRat(int64(r.Intn(17)), 16)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := Solve(q, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Evaluate(context.Background(), h.Probs(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Prob.RatString() != want.Prob.RatString() {
			t.Fatalf("trial %d: plan %s, solve %s", trial, got.Prob.RatString(), want.Prob.RatString())
		}
	}
}

// TestPlanSerializationAPI exercises the public wire form of compiled
// plans: MarshalBinary/UnmarshalBinary round-trips a plan that keeps
// evaluating byte-identically, and opaque plans refuse to serialize.
func TestPlanSerializationAPI(t *testing.T) {
	q := Path1WP("R", "S")
	g := New(4)
	g.MustAddEdge(0, 1, "R")
	g.MustAddEdge(1, 2, "S")
	g.MustAddEdge(1, 3, "S")
	h := NewProbGraph(g)
	h.MustSetEdgeProb(0, 1, Rat("1/2"))

	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := cp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := new(Plan)
	if err := restored.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		for i := 0; i < g.NumEdges(); i++ {
			if err := h.SetProb(i, big.NewRat(int64(r.Intn(17)), 16)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := cp.Evaluate(context.Background(), h.Probs(), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Evaluate(context.Background(), h.Probs(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Prob.RatString() != want.Prob.RatString() {
			t.Fatalf("trial %d: restored %s, original %s",
				trial, got.Prob.RatString(), want.Prob.RatString())
		}
	}

	// A hard cell compiles to an opaque plan, which has no wire form.
	hard := New(3)
	hard.MustAddEdge(0, 1, "R")
	hard.MustAddEdge(1, 2, "R")
	hard.MustAddEdge(0, 2, "R")
	opaque, err := Compile(Path1WP("R", "R"), NewProbGraph(hard), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !opaque.Opaque() {
		t.Fatal("triangle instance should be a hard cell")
	}
	if _, err := opaque.MarshalBinary(); err == nil {
		t.Fatal("opaque plan serialized")
	}
}

// ExampleCompile demonstrates the compile-once / evaluate-many workflow
// for probability sweeps over a fixed structure.
func ExampleCompile() {
	// Query: two consecutive R-edges; instance: a chain of two R-edges
	// whose second edge is uncertain. Compile once, sweep the weight.
	q := Path1WP("R", "R")
	h := NewProbGraph(Path1WP("R", "R"))

	plan, _ := Compile(q, h, nil)
	ctx := context.Background()
	for _, p := range []string{"1/4", "1/2", "3/4"} {
		h.MustSetEdgeProb(1, 2, Rat(p))
		res, _ := plan.Evaluate(ctx, h.Probs(), nil) // nil options: exact
		fmt.Printf("p=%s -> Pr=%s\n", p, res.Prob.RatString())
	}
	// Output:
	// p=1/4 -> Pr=1/4
	// p=1/2 -> Pr=1/2
	// p=3/4 -> Pr=3/4
}
