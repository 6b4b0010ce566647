package graph

// This file implements the graded-DAG machinery of Definition 3.5 and the
// normalizations of Propositions 3.6 and 5.5: level mappings, the
// difference of levels, directed-acyclicity, longest directed paths and
// heights, and the equivalence of unlabeled ⊔DWT queries with one-way
// paths.

// TopologicalOrder returns a topological order of g's vertices, or false
// if g has a directed cycle.
func (g *Graph) TopologicalOrder() ([]Vertex, bool) {
	indeg := make([]int, g.n)
	for _, e := range g.edges {
		indeg[e.To]++
	}
	var queue []Vertex
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, Vertex(v))
		}
	}
	order := make([]Vertex, 0, g.n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, ei := range g.out[v] {
			t := g.edges[ei].To
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	return order, len(order) == g.n
}

// IsDAG reports whether g has no directed cycle.
func (g *Graph) IsDAG() bool {
	_, ok := g.TopologicalOrder()
	return ok
}

// LevelMapping computes a level mapping µ of g per Definition 3.5: for
// every edge u → v, µ(v) = µ(u) − 1. It returns false when no level
// mapping exists, i.e. g is not a graded DAG (it has a directed cycle, or
// two directed paths of different lengths between the same endpoints —
// a "jumping edge" in the terminology of [28]).
//
// Each connected component is explored breadth-first from its smallest
// vertex, pinned to level 0, so the returned mapping is deterministic; it
// is unique per component up to an additive constant.
func (g *Graph) LevelMapping() ([]int, bool) {
	const unset = int(^uint(0) >> 1) // max int as sentinel
	level := make([]int, g.n)
	for i := range level {
		level[i] = unset
	}
	for s := 0; s < g.n; s++ {
		if level[s] != unset {
			continue
		}
		level[s] = 0
		queue := []Vertex{Vertex(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			visit := func(u Vertex, l int) bool {
				if level[u] == unset {
					level[u] = l
					queue = append(queue, u)
					return true
				}
				return level[u] == l
			}
			for _, ei := range g.out[v] {
				if !visit(g.edges[ei].To, level[v]-1) {
					return nil, false
				}
			}
			for _, ei := range g.in[v] {
				if !visit(g.edges[ei].From, level[v]+1) {
					return nil, false
				}
			}
		}
	}
	return level, true
}

// IsGradedDAG reports whether g admits a level mapping (Definition 3.5).
func (g *Graph) IsGradedDAG() bool {
	_, ok := g.LevelMapping()
	return ok
}

// DifferenceOfLevels returns the paper's difference of levels of g: per
// connected component, the span between the largest and smallest level of
// the minimal level mapping; overall, the maximum span over components
// (appendix proof of Proposition 3.6). The second result is false when g
// is not a graded DAG.
func (g *Graph) DifferenceOfLevels() (int, bool) {
	level, ok := g.LevelMapping()
	if !ok {
		return 0, false
	}
	diff := 0
	for _, comp := range g.ConnectedComponents() {
		lo, hi := level[comp[0]], level[comp[0]]
		for _, v := range comp {
			if level[v] < lo {
				lo = level[v]
			}
			if level[v] > hi {
				hi = level[v]
			}
		}
		if hi-lo > diff {
			diff = hi - lo
		}
	}
	return diff, true
}

// LongestDirectedPath returns the number of edges of a longest directed
// path of g, or false if g has a directed cycle.
func (g *Graph) LongestDirectedPath() (int, bool) {
	order, ok := g.TopologicalOrder()
	if !ok {
		return 0, false
	}
	longest := make([]int, g.n)
	best := 0
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, ei := range g.out[v] {
			t := g.edges[ei].To
			if longest[t]+1 > longest[v] {
				longest[v] = longest[t] + 1
			}
		}
		if longest[v] > best {
			best = longest[v]
		}
	}
	return best, true
}

// Height returns the height of a ⊔DWT graph: the length in edges of its
// longest directed (downward) path. It panics if g is not a ⊔DWT, where
// height is the paper's notion (Proposition 5.5).
func (g *Graph) Height() int {
	if !g.InClass(ClassUDWT) {
		panic("graph: Height on a graph that is not a disjoint union of downward trees")
	}
	h, _ := g.LongestDirectedPath()
	return h
}
