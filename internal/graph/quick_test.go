package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// quickGraph derives a pseudo-random graph from a seed, for use inside
// testing/quick properties.
func quickGraph(seed int64) *Graph {
	return randomGraphForClasses(rand.New(rand.NewSource(seed)))
}

// TestQuickReverseInvolution: reversing twice is the identity.
func TestQuickReverseInvolution(t *testing.T) {
	prop := func(seed int64) bool {
		g := quickGraph(seed)
		return g.Reverse().Reverse().String() == g.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReversePreservesPolytree: polytrees, connectivity and edge
// counts are invariant under reversal; 1WPs map to 1WPs of the reversed
// orientation.
func TestQuickReversePreservesStructure(t *testing.T) {
	prop := func(seed int64) bool {
		g := quickGraph(seed)
		r := g.Reverse()
		if g.IsPolytree() != r.IsPolytree() {
			return false
		}
		if g.IsConnected() != r.IsConnected() {
			return false
		}
		if g.Is2WP() != r.Is2WP() {
			return false
		}
		return g.NumEdges() == r.NumEdges()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickComponentsPartition: components partition the vertex set and
// preserve the total edge count.
func TestQuickComponentsPartition(t *testing.T) {
	prop := func(seed int64) bool {
		g := quickGraph(seed)
		comps := g.ConnectedComponents()
		seen := map[Vertex]int{}
		for _, comp := range comps {
			for _, v := range comp {
				seen[v]++
			}
		}
		if len(seen) != g.NumVertices() {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		edges := 0
		for _, sub := range g.Components() {
			edges += sub.NumEdges()
		}
		return edges == g.NumEdges()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDisjointUnionClassClosure: the union of two graphs of a base
// class is in the ⊔-class, and membership of parts is preserved under
// the offsets.
func TestQuickDisjointUnionClassClosure(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() *Graph {
			n := 1 + r.Intn(5)
			g := New(n)
			for i := 1; i < n; i++ {
				g.MustAddEdge(Vertex(r.Intn(i)), Vertex(i), Unlabeled)
			}
			return g
		}
		a, b := mk(), mk() // both DWTs
		u, offsets := DisjointUnion(a, b)
		if !u.InClass(ClassUDWT) {
			return false
		}
		if len(offsets) != 2 || offsets[0] != 0 || int(offsets[1]) != a.NumVertices() {
			return false
		}
		return u.NumEdges() == a.NumEdges()+b.NumEdges()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHomomorphismComposition: if g ⇝ h and h ⇝ k then g ⇝ k.
func TestQuickHomomorphismComposition(t *testing.T) {
	prop := func(s1, s2, s3 int64) bool {
		g, h, k := quickGraph(s1), quickGraph(s2), quickGraph(s3)
		if HasHomomorphism(g, h) && HasHomomorphism(h, k) {
			return HasHomomorphism(g, k)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSubgraphMonotone: adding edges to the instance preserves any
// existing homomorphism (PHom's events are monotone).
func TestQuickSubgraphMonotone(t *testing.T) {
	prop := func(s1, s2 int64, mask uint16) bool {
		q := quickGraph(s1)
		h := quickGraph(s2)
		keep := make([]bool, h.NumEdges())
		for i := range keep {
			keep[i] = mask&(1<<uint(i%16)) != 0
		}
		sub := h.SubgraphKeeping(keep)
		if HasHomomorphism(q, sub) && !HasHomomorphism(q, h) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEquivalenceIsEquivalence: homomorphic equivalence is
// reflexive and symmetric on random graphs.
func TestQuickEquivalenceProperties(t *testing.T) {
	prop := func(s1, s2 int64) bool {
		g, h := quickGraph(s1), quickGraph(s2)
		if !Equivalent(g, g) {
			return false
		}
		return Equivalent(g, h) == Equivalent(h, g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLevelMappingShiftInvariance: adding a constant to a level
// mapping of a connected graded DAG yields another valid level mapping —
// i.e. validity only depends on differences, matching the paper's
// "unique up to an additive constant".
func TestQuickLevelMappingShiftInvariance(t *testing.T) {
	prop := func(seed int64, shift int8) bool {
		g := quickGraph(seed)
		level, ok := g.LevelMapping()
		if !ok {
			return true
		}
		for _, e := range g.Edges() {
			if (level[e.To] + int(shift)) != (level[e.From]+int(shift))-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUndirectedDegree: the allocation-free degree count agrees
// with the distinct neighbor set, antiparallel pairs and self-loops
// included.
func TestQuickUndirectedDegree(t *testing.T) {
	prop := func(seed int64) bool {
		g := quickGraph(seed)
		if seed%3 == 0 {
			g.MustAddEdge(0, 0, "R") // randomGraphForClasses draws no self-loops
		}
		for v := 0; v < g.NumVertices(); v++ {
			if g.UndirectedDegree(Vertex(v)) != len(g.Neighbors(Vertex(v))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
