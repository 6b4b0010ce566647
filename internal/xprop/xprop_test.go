package xprop

import (
	"math/rand"
	"testing"

	"phom/internal/gen"
	"phom/internal/graph"
)

func TestSubpathsHaveXProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	labels := []graph.Label{"R", "S"}
	for trial := 0; trial < 100; trial++ {
		h := gen.Rand2WP(r, 2+r.Intn(8), labels)
		if !HasXProperty(h, IdentityOrder(h.NumVertices())) {
			t.Fatalf("2WP lacks the X-property: %v", h)
		}
	}
}

func TestXPropertyViolated(t *testing.T) {
	// n0 → n3 and n1 → n2 with n0 < n1, n2 < n3, but no n0 → n2.
	h := graph.New(4)
	h.MustAddEdge(0, 3, "R")
	h.MustAddEdge(1, 2, "R")
	if HasXProperty(h, IdentityOrder(4)) {
		t.Fatal("crossing edges without the completion edge should violate the X-property")
	}
	h.MustAddEdge(0, 2, "R")
	if !HasXProperty(h, IdentityOrder(4)) {
		t.Fatal("completion edge added: X-property should hold")
	}
}

func TestXPropertyLabelSensitive(t *testing.T) {
	// The completion edge exists but with the wrong label.
	h := graph.New(4)
	h.MustAddEdge(0, 3, "R")
	h.MustAddEdge(1, 2, "R")
	h.MustAddEdge(0, 2, "S")
	if HasXProperty(h, IdentityOrder(4)) {
		t.Fatal("completion edge with wrong label must not satisfy the X-property")
	}
}

// TestHomomorphismMatchesOracle: on 2WP instances (which always have the
// X-property), the AC algorithm must agree with backtracking search, for
// random connected queries.
func TestHomomorphismMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	labels := []graph.Label{"R", "S"}
	for trial := 0; trial < 500; trial++ {
		q := gen.RandInClass(r, graph.ClassConnected, 1+r.Intn(5), labels)
		h := gen.Rand2WP(r, 1+r.Intn(8), labels)
		got := HasHomomorphism(q, h, IdentityOrder(h.NumVertices()))
		want := graph.HasHomomorphism(q, h)
		if got != want {
			t.Fatalf("AC disagreement: got %v, want %v\nq=%v\nh=%v", got, want, q, h)
		}
	}
}

// TestHomomorphismUnlabeled2WP: the unlabeled case of Gutjahr et al.
func TestHomomorphismUnlabeled2WP(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		q := gen.RandInClass(r, graph.Class2WP, 1+r.Intn(6), nil)
		h := gen.Rand2WP(r, 1+r.Intn(8), nil)
		got := HasHomomorphism(q, h, IdentityOrder(h.NumVertices()))
		want := graph.HasHomomorphism(q, h)
		if got != want {
			t.Fatalf("AC disagreement (unlabeled): got %v, want %v\nq=%v\nh=%v", got, want, q, h)
		}
	}
}

func TestHomomorphismTrivialCases(t *testing.T) {
	h := graph.Path1WP("R")
	if !HasHomomorphism(graph.New(1), h, IdentityOrder(2)) {
		t.Fatal("single query vertex should map")
	}
	q := graph.Path1WP("R", "R")
	if HasHomomorphism(q, h, IdentityOrder(2)) {
		t.Fatal("RR path must not map into a single R edge")
	}
}

// TestWindowMatchesInducedSubgraph: deciding a window of a path-ordered
// 2WP in place agrees with deciding the induced subpath as a graph of
// its own, and with backtracking search on it.
func TestWindowMatchesInducedSubgraph(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 1000; trial++ {
		labels := []graph.Label{"R", "S"}
		if trial%2 == 1 {
			labels = nil
		}
		q := gen.RandInClass(r, graph.ClassConnected, 1+r.Intn(5), labels)
		h := gen.Rand2WP(r, 1+r.Intn(16), labels)
		lo := r.Intn(h.NumVertices())
		hi := lo + r.Intn(h.NumVertices()-lo)
		vs := make([]graph.Vertex, 0, hi-lo+1)
		for v := lo; v <= hi; v++ {
			vs = append(vs, graph.Vertex(v))
		}
		sub, _ := h.InducedSubgraph(vs)
		got := HasHomomorphismWithin(q, h, IdentityOrder(h.NumVertices()), lo, hi)
		if want := HasHomomorphism(q, sub, IdentityOrder(len(vs))); got != want {
			t.Fatalf("window [%d, %d]: got %v, induced subgraph %v\nq=%v\nh=%v", lo, hi, got, want, q, h)
		}
		if want := graph.HasHomomorphism(q, sub); got != want {
			t.Fatalf("window [%d, %d]: got %v, backtracking %v\nq=%v\nh=%v", lo, hi, got, want, q, h)
		}
	}
	if HasHomomorphismWithin(graph.Path1WP("R"), graph.Path1WP("R"), IdentityOrder(2), 1, 0) {
		t.Fatal("an empty window admits no query edge")
	}
}
