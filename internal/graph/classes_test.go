package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refInClass is class membership by the per-component definition:
// each connected base class tested on the standalone graph by its
// Figure 3–4 shape, and each ⊔ class as every component of Components
// in its base class.
func refInClass(g *Graph, c Class) bool {
	if g.NumVertices() == 0 {
		return false
	}
	switch c {
	case ClassAll:
		return true
	case ClassConnected:
		return len(g.Components()) == 1
	case ClassU1WP, ClassU2WP, ClassUDWT, ClassUPT:
		for _, comp := range g.Components() {
			if !refInClass(comp, c.Base()) {
				return false
			}
		}
		return true
	}
	n := g.NumVertices()
	if len(g.Components()) != 1 || g.NumEdges() != n-1 {
		return false
	}
	switch c {
	case Class1WP:
		// Walk the out-edges from the unique source; a 1WP covers every
		// vertex in n−1 steps.
		v, sources := Vertex(0), 0
		for u := 0; u < n; u++ {
			if g.InDegree(Vertex(u)) == 0 {
				v, sources = Vertex(u), sources+1
			}
		}
		if sources != 1 {
			return false
		}
		steps := 0
		for len(g.OutEdges(v)) == 1 && steps < n {
			v = g.Edge(g.OutEdges(v)[0]).To
			steps++
		}
		return steps == n-1 && len(g.OutEdges(v)) == 0
	case Class2WP:
		for u := 0; u < n; u++ {
			if len(g.Neighbors(Vertex(u))) > 2 {
				return false
			}
		}
		return true
	case ClassDWT:
		for u := 0; u < n; u++ {
			if g.InDegree(Vertex(u)) > 1 {
				return false
			}
		}
		return true
	}
	return c == ClassPT
}

// classGraph draws a graph that hits every class: a random forest of
// paths and trees (with isolated vertices), then a few extra edges that
// may close cycles, add antiparallel pairs or self-loops.
func classGraph(r *rand.Rand) *Graph {
	n := r.Intn(10)
	g := New(n)
	add := func(u, v Vertex) {
		if _, dup := g.HasEdge(u, v); !dup {
			g.MustAddEdge(u, v, Label([]string{"R", "S"}[r.Intn(2)]))
		}
	}
	for v := 1; v < n; v++ {
		if r.Intn(4) == 0 {
			continue // starts a new component
		}
		u := Vertex(v - 1)
		if r.Intn(3) == 0 {
			u = Vertex(r.Intn(v))
		}
		if r.Intn(2) == 0 {
			add(u, Vertex(v))
		} else {
			add(Vertex(v), u)
		}
	}
	for k := r.Intn(3); n > 0 && k > 0; k-- {
		u, v := Vertex(r.Intn(n)), Vertex(r.Intn(n))
		switch r.Intn(3) {
		case 0: // a self-loop
			v = u
		case 1: // the reverse of an existing edge
			if m := g.NumEdges(); m > 0 {
				e := g.Edge(r.Intn(m))
				u, v = e.To, e.From
			}
		}
		add(u, v)
	}
	return g
}

// TestQuickClassMembershipFromCounts: class membership read off the
// component count and degree maxima agrees with the per-component
// definition on every class, and TightestClass with the lattice
// minimum of the per-component memberships.
func TestQuickClassMembershipFromCounts(t *testing.T) {
	prop := func(seed int64) bool {
		g := classGraph(rand.New(rand.NewSource(seed)))
		want := ClassAll
		for _, c := range AllClasses {
			in := refInClass(g, c)
			if g.InClass(c) != in {
				t.Logf("seed %d: %v InClass(%v) = %v, want %v", seed, g, c, !in, in)
				return false
			}
			if in && ClassIncluded(c, want) {
				want = c
			}
		}
		if got := g.TightestClass(); got != want {
			t.Logf("seed %d: %v TightestClass = %v, want %v", seed, g, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
