package graph

import (
	"math/rand"
	"testing"
)

func TestHomomorphismBasics(t *testing.T) {
	// The query of Example 2.2: x −R→ y −S→ z ←S− t.
	q := New(4)
	q.MustAddEdge(0, 1, "R")
	q.MustAddEdge(1, 2, "S")
	q.MustAddEdge(3, 2, "S")

	// An instance where y and t can collapse.
	h := New(3)
	h.MustAddEdge(0, 1, "R")
	h.MustAddEdge(1, 2, "S")
	if !HasHomomorphism(q, h) {
		t.Fatal("query should map (t collapses onto y)")
	}

	// Without the R edge there is no match.
	h2 := New(3)
	h2.MustAddEdge(1, 2, "S")
	if HasHomomorphism(q, h2) {
		t.Fatal("query must not map without an R edge")
	}
}

func TestHomomorphismLabelsMatter(t *testing.T) {
	q := Path1WP("R")
	h := Path1WP("S")
	if HasHomomorphism(q, h) {
		t.Fatal("labels must match")
	}
}

func TestHomomorphismDirectionsMatter(t *testing.T) {
	q := UnlabeledPath(2)
	h := Path2WP(Fwd(Unlabeled), Bwd(Unlabeled))
	if HasHomomorphism(q, h) {
		t.Fatal("→→ must not map into →←")
	}
	h2 := UnlabeledPath(2)
	if !HasHomomorphism(q, h2) {
		t.Fatal("→→ should map into →→")
	}
}

func TestHomomorphismSelfLoop(t *testing.T) {
	q := New(1)
	q.MustAddEdge(0, 0, Unlabeled)
	h := UnlabeledPath(5)
	if HasHomomorphism(q, h) {
		t.Fatal("self-loop query cannot map to a DAG")
	}
	hl := New(2)
	hl.MustAddEdge(0, 1, Unlabeled)
	hl.MustAddEdge(1, 1, Unlabeled)
	if !HasHomomorphism(q, hl) {
		t.Fatal("self-loop query should map to an instance loop")
	}
	// Any graph maps into a self-loop (unlabeled).
	big := UnlabeledPath(4)
	if !HasHomomorphism(big, hl) {
		t.Fatal("path should map into the loop vertex")
	}
}

func TestEdgelessQuery(t *testing.T) {
	q := New(3) // three isolated vertices
	h := New(1)
	if !HasHomomorphism(q, h) {
		t.Fatal("edgeless query maps everything to the single vertex")
	}
}

func TestLongerPathsDontMapToShorter(t *testing.T) {
	for m := 1; m <= 6; m++ {
		for k := 0; k <= 6; k++ {
			got := HasHomomorphism(UnlabeledPath(m), UnlabeledPath(k))
			want := m <= k
			if got != want {
				t.Errorf("→^%d ⇝ →^%d = %v, want %v", m, k, got, want)
			}
		}
	}
}

// TestFoundHomomorphismsVerify: whatever the search returns must be a
// real homomorphism, across many random pairs; and when the search fails,
// exhaustive assignment enumeration (for tiny graphs) must fail too.
func TestFoundHomomorphismsVerify(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		q := randomGraphForClasses(r)
		h := randomGraphForClasses(r)
		hm, ok := FindHomomorphism(q, h)
		if ok {
			if !IsHomomorphism(q, h, hm) {
				t.Fatalf("FindHomomorphism returned a non-homomorphism:\nq=%v\nh=%v\nhm=%v", q, h, hm)
			}
			continue
		}
		if q.NumVertices() <= 4 && h.NumVertices() <= 4 {
			if exhaustiveHom(q, h) {
				t.Fatalf("search missed an existing homomorphism:\nq=%v\nh=%v", q, h)
			}
		}
	}
}

// exhaustiveHom tries all |V(H)|^|V(G)| assignments.
func exhaustiveHom(q, h *Graph) bool {
	n, m := q.NumVertices(), h.NumVertices()
	if m == 0 {
		return n == 0
	}
	assign := make(Homomorphism, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return IsHomomorphism(q, h, assign)
		}
		for w := 0; w < m; w++ {
			assign[i] = Vertex(w)
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func TestEquivalent(t *testing.T) {
	// A DWT is equivalent to its longest downward path (unlabeled).
	dwt := New(5)
	dwt.MustAddEdge(0, 1, Unlabeled)
	dwt.MustAddEdge(0, 2, Unlabeled)
	dwt.MustAddEdge(1, 3, Unlabeled)
	dwt.MustAddEdge(3, 4, Unlabeled)
	if !Equivalent(dwt, UnlabeledPath(3)) {
		t.Fatal("DWT should be equivalent to →^height")
	}
	if Equivalent(dwt, UnlabeledPath(2)) {
		t.Fatal("DWT must not be equivalent to a shorter path")
	}
}

func TestForEachHomomorphismCount(t *testing.T) {
	// →^1 into →^k has exactly k homomorphisms.
	for k := 1; k <= 5; k++ {
		got := CountHomomorphisms(UnlabeledPath(1), UnlabeledPath(k), 0)
		if got != k {
			t.Errorf("count(→, →^%d) = %d, want %d", k, got, k)
		}
	}
	// Early stop via limit.
	if got := CountHomomorphisms(UnlabeledPath(1), UnlabeledPath(5), 2); got != 2 {
		t.Errorf("limited count = %d, want 2", got)
	}
}

func TestForEachHomomorphismMatchesFind(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		q := randomGraphForClasses(r)
		h := randomGraphForClasses(r)
		any := false
		ForEachHomomorphism(q, h, func(hm Homomorphism) bool {
			any = true
			if !IsHomomorphism(q, h, hm) {
				t.Fatalf("enumerated non-homomorphism")
			}
			return false
		})
		if any != HasHomomorphism(q, h) {
			t.Fatalf("enumeration and search disagree on existence: q=%v h=%v", q, h)
		}
	}
}

// CountHomomorphisms returns the number of homomorphisms from query to
// instance, up to the given limit (0 = no limit). This differs from the
// PHom problem (which weights worlds, not matches).
func CountHomomorphisms(query, instance *Graph, limit int) int {
	count := 0
	ForEachHomomorphism(query, instance, func(Homomorphism) bool {
		count++
		return limit == 0 || count < limit
	})
	return count
}
