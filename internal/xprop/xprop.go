package xprop

import (
	"phom/internal/graph"
)

// HasXProperty reports whether instance H has the X-property w.r.t. the
// order of vertices given by pos (pos[v] = rank of v): for every label R
// and vertices n0 < n1, n2 < n3, if n0 −R→ n3 and n1 −R→ n2 are edges then
// n0 −R→ n2 is an edge. Used to validate applicability; the check is
// O(|E|²).
func HasXProperty(h *graph.Graph, pos []int) bool {
	edges := h.Edges()
	for _, e1 := range edges {
		for _, e2 := range edges {
			if e1.Label != e2.Label {
				continue
			}
			// e1 = n0 → n3, e2 = n1 → n2 with n0 < n1 and n2 < n3.
			if pos[e1.From] < pos[e2.From] && pos[e2.To] < pos[e1.To] {
				if l, ok := h.HasEdge(e1.From, e2.To); !ok || l != e1.Label {
					return false
				}
			}
		}
	}
	return true
}

// HasHomomorphism decides G ⇝ H for an instance H that has the X-property
// w.r.t. the vertex order pos, in time O(|G|·|H|·iterations) via arc
// consistency followed by the minimum assignment. The result is sound and
// complete only when the X-property holds; callers should validate with
// HasXProperty (tests do) or rely on structural guarantees (subpaths of a
// 2WP trivially have the X-property, §4.2). It is HasHomomorphismWithin
// over the full window.
func HasHomomorphism(g, h *graph.Graph, pos []int) bool {
	return HasHomomorphismWithin(g, h, pos, 0, h.NumVertices()-1)
}

// HasHomomorphismWithin decides G ⇝ H[lo…hi], the subgraph of H induced
// by the vertices lo, lo+1, …, hi, without building it: candidate images
// are restricted to that vertex range and edges leaving it are ignored.
// The X-property passes to induced subgraphs, so the decision is sound
// and complete whenever H has it w.r.t. pos. On a path-ordered 2WP
// (vertex id = path position) the window is the subpath a_lo … a_hi.
// An empty window (hi < lo) admits only the empty query.
func HasHomomorphismWithin(g, h *graph.Graph, pos []int, lo, hi int) bool {
	n, m := g.NumVertices(), hi-lo+1
	if n == 0 {
		return true
	}
	if m <= 0 {
		return false
	}
	// dom[v*m+(w−lo)] = instance vertex w is still a candidate image for
	// query vertex v; one flat slice for all query vertices.
	dom := make([]bool, n*m)
	for i := range dom {
		dom[i] = true
	}
	size := make([]int, n)
	for v := range size {
		size[v] = m
	}
	in := func(v, w graph.Vertex) bool {
		return int(w) >= lo && int(w) <= hi && dom[int(v)*m+int(w)-lo]
	}
	// Arc consistency: repeat until fixpoint. For every query edge
	// (u, v, R): u's domain keeps w iff some w' in v's domain has
	// w −R→ w'; symmetrically for v.
	for changed := true; changed; {
		changed = false
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(i)
			// Revise dom[e.From] against dom[e.To].
			for w := lo; w <= hi; w++ {
				if !dom[int(e.From)*m+w-lo] {
					continue
				}
				ok := false
				for _, ei := range h.OutEdges(graph.Vertex(w)) {
					he := h.Edge(ei)
					if he.Label == e.Label && in(e.To, he.To) {
						ok = true
						break
					}
				}
				if !ok {
					dom[int(e.From)*m+w-lo] = false
					size[e.From]--
					changed = true
				}
			}
			if size[e.From] == 0 {
				return false
			}
			// Revise dom[e.To] against dom[e.From].
			for w := lo; w <= hi; w++ {
				if !dom[int(e.To)*m+w-lo] {
					continue
				}
				ok := false
				for _, ei := range h.InEdges(graph.Vertex(w)) {
					he := h.Edge(ei)
					if he.Label == e.Label && in(e.From, he.From) {
						ok = true
						break
					}
				}
				if !ok {
					dom[int(e.To)*m+w-lo] = false
					size[e.To]--
					changed = true
				}
			}
			if size[e.To] == 0 {
				return false
			}
		}
	}
	// Minimum assignment: map each query vertex to the <-minimum of its
	// domain. For min-closed (X-property) instances this is a
	// homomorphism; verify defensively.
	hmap := make(graph.Homomorphism, n)
	for v := 0; v < n; v++ {
		best := -1
		for w := lo; w <= hi; w++ {
			if dom[v*m+w-lo] && (best < 0 || pos[w] < pos[best]) {
				best = w
			}
		}
		hmap[v] = graph.Vertex(best)
	}
	return graph.IsHomomorphism(g, h, hmap)
}

// IdentityOrder returns pos with pos[v] = v, the natural order used for
// subpaths a_i < a_{i+1} < … of a 2WP instance.
func IdentityOrder(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}
