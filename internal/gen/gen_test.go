package gen

import (
	"math/rand"
	"testing"

	"phom/internal/graph"
)

// TestGeneratorsProduceClaimedClasses: every generator must emit graphs
// of the class it claims, across sizes and seeds.
func TestGeneratorsProduceClaimedClasses(t *testing.T) {
	labels := []graph.Label{"R", "S", "T"}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		for n := 1; n <= 12; n += 3 {
			if g := Rand1WP(r, n, labels); !g.Is1WP() {
				t.Fatalf("Rand1WP(%d) not 1WP: %v", n, g)
			}
			if g := Rand2WP(r, n, labels); !g.Is2WP() {
				t.Fatalf("Rand2WP(%d) not 2WP: %v", n, g)
			}
			if g := RandDWT(r, n, labels); !g.IsDWT() {
				t.Fatalf("RandDWT(%d) not DWT: %v", n, g)
			}
			if g := RandPolytree(r, n, labels); !g.IsPolytree() {
				t.Fatalf("RandPolytree(%d) not PT: %v", n, g)
			}
			if g := RandConnected(r, n, 2, labels); !g.IsConnected() {
				t.Fatalf("RandConnected(%d) not connected: %v", n, g)
			}
		}
	}
}

func TestRandInClassMembership(t *testing.T) {
	labels := []graph.Label{"R", "S"}
	for _, c := range graph.AllClasses {
		r := rand.New(rand.NewSource(int64(c)))
		for trial := 0; trial < 30; trial++ {
			g := RandInClass(r, c, 1+r.Intn(10), labels)
			if !g.InClass(c) {
				t.Fatalf("RandInClass(%v) produced a graph outside the class: %v", c, g)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := RandInClass(rand.New(rand.NewSource(42)), graph.ClassPT, 10, nil)
	b := RandInClass(rand.New(rand.NewSource(42)), graph.ClassPT, 10, nil)
	if a.String() != b.String() {
		t.Fatal("same seed must give the same graph")
	}
	pa := RandProb(rand.New(rand.NewSource(7)), a, 0.5)
	pb := RandProb(rand.New(rand.NewSource(7)), b, 0.5)
	if pa.String() != pb.String() {
		t.Fatal("same seed must give the same probabilities")
	}
}

func TestRandProbValid(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		g := RandInClass(r, graph.ClassAll, 8, nil)
		p := RandProb(r, g, 0.4)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.NumEdges(); i++ {
			if pr := p.Prob(i); pr.Sign() < 0 || pr.Cmp(graph.RatOne) > 0 {
				t.Fatalf("edge %d probability %s outside [0,1]", i, pr.RatString())
			}
		}
	}
}

func TestRandRatRange(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		x := RandRat(r)
		if x.Sign() < 0 || x.Cmp(graph.RatOne) > 0 {
			t.Fatalf("RandRat out of [0,1]: %s", x.RatString())
		}
	}
}

func TestRandBipartiteValid(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		bg := RandBipartite(r, 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(8))
		if err := bg.Validate(); err != nil {
			t.Fatal(err)
		}
		seen := map[[2]int]bool{}
		for _, e := range bg.Edges {
			if seen[e] {
				t.Fatalf("duplicate edge %v", e)
			}
			seen[e] = true
		}
	}
}

func TestRandPP2DNFCoversVariables(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := RandPP2DNF(r, 4, 5, 12)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	seenX := map[int]bool{}
	seenY := map[int]bool{}
	for _, c := range f.Clauses {
		seenX[c[0]] = true
		seenY[c[1]] = true
	}
	if len(seenX) != 4 || len(seenY) != 5 {
		t.Fatalf("variables not all covered: %d X, %d Y", len(seenX), len(seenY))
	}
}

func TestRandGradedDAGIsGraded(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		g := RandGradedDAG(r, 2+r.Intn(8), r.Intn(12), 2+r.Intn(3), nil)
		if !g.IsGradedDAG() {
			t.Fatalf("RandGradedDAG produced a non-graded graph: %v", g)
		}
	}
}

func TestRandUnionComponentCount(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	u := RandUnion(r, 3, func(r *rand.Rand) *graph.Graph { return Rand1WP(r, 3, nil) })
	if got := len(u.Components()); got != 3 {
		t.Fatalf("union has %d components, want 3", got)
	}
}
