package lineage

import (
	"fmt"
	"math/big"
	"slices"
	"sort"

	"phom/internal/betadnf"
	"phom/internal/boolform"
	"phom/internal/graph"
	"phom/internal/xprop"
)

// ChainLineage is the lineage of a 1WP query on a DWT instance, in both
// generic DNF form (over instance edge indices) and the chain-system form
// consumed by the PTIME evaluator.
type ChainLineage struct {
	DNF        *boolform.DNF        // variables: instance edge indices
	System     *betadnf.ChainSystem // nodes: instance vertices
	Probs      []*big.Rat           // per node: probability of its parent edge
	ParentEdge []int                // per node: instance edge index of its parent edge; −1 for roots
}

// Path1WPOnDWT builds the lineage of the 1WP query q on the DWT instance
// h (Proposition 4.10). The query must have at least one edge.
func Path1WPOnDWT(q *graph.Graph, h *graph.ProbGraph) (*ChainLineage, error) {
	labels, ok := pathLabels(q)
	if !ok {
		return nil, fmt.Errorf("lineage: query is not a 1WP: %v", q)
	}
	m := len(labels)
	if m == 0 {
		return nil, fmt.Errorf("lineage: edgeless 1WP query has trivial lineage")
	}
	g := h.G
	if !g.IsDWT() {
		return nil, fmt.Errorf("lineage: instance is not a DWT: %v", g)
	}
	n := g.NumVertices()
	parent := make([]int, n)
	parentEdge := make([]int, n)
	probs := make([]*big.Rat, n)
	for v := 0; v < n; v++ {
		parent[v] = -1
		parentEdge[v] = -1
		probs[v] = graph.RatOne
		if in := g.InEdges(graph.Vertex(v)); len(in) == 1 {
			e := g.Edge(in[0])
			parent[v] = int(e.From)
			parentEdge[v] = in[0]
			probs[v] = h.Prob(in[0])
		}
	}
	chainLen := make([]int, n)
	dnf := boolform.NewDNF(g.NumEdges())
	for v := 0; v < n; v++ {
		// Candidate minimal match: the downward path of m edges ending at
		// v; labels must read R1 … Rm from top to bottom.
		clause := make([]boolform.Var, 0, m)
		cur := v
		ok := true
		for i := m - 1; i >= 0; i-- {
			ei := parentEdge[cur]
			if ei < 0 || g.Edge(ei).Label != labels[i] {
				ok = false
				break
			}
			clause = append(clause, boolform.Var(ei))
			cur = parent[cur]
		}
		if ok {
			chainLen[v] = m
			dnf.AddClause(clause...)
		}
	}
	return &ChainLineage{
		DNF:        dnf,
		System:     &betadnf.ChainSystem{Parent: parent, ChainLen: chainLen},
		Probs:      probs,
		ParentEdge: parentEdge,
	}, nil
}

// pathLabels returns the label sequence R1 … Rm of a 1WP query, following
// the unique walk from its source.
func pathLabels(q *graph.Graph) ([]graph.Label, bool) {
	if !q.Is1WP() {
		return nil, false
	}
	if q.NumVertices() == 1 {
		return nil, true
	}
	var start graph.Vertex = -1
	for v := 0; v < q.NumVertices(); v++ {
		if q.InDegree(graph.Vertex(v)) == 0 {
			start = graph.Vertex(v)
			break
		}
	}
	var labels []graph.Label
	v := start
	for len(q.OutEdges(v)) == 1 {
		e := q.Edge(q.OutEdges(v)[0])
		labels = append(labels, e.Label)
		v = e.To
	}
	return labels, true
}

// IntervalLineage is the lineage of a connected query on a 2WP instance:
// the generic DNF (over instance edge indices) plus the interval-system
// form over edges in path order.
type IntervalLineage struct {
	DNF    *boolform.DNF           // variables: instance edge indices
	System *betadnf.IntervalSystem // variables: path positions 0 … n−2
	Probs  []*big.Rat              // per position
	EdgeAt []int                   // path position → instance edge index
}

// PathOrder returns the vertices of a 2WP instance in path order
// (starting from the endpoint with the smaller vertex id, for
// determinism) and, per position i, the instance edge index linking
// position i to i+1. The walk reads the incident edge lists directly:
// a 2WP has no antiparallel pairs, so each neighbor is one edge.
func PathOrder(g *graph.Graph) ([]graph.Vertex, []int, error) {
	if !g.Is2WP() {
		return nil, nil, fmt.Errorf("lineage: instance is not a 2WP: %v", g)
	}
	n := g.NumVertices()
	if n == 1 {
		return []graph.Vertex{0}, nil, nil
	}
	start := graph.Vertex(-1)
	for v := 0; v < n; v++ {
		if g.UndirectedDegree(graph.Vertex(v)) == 1 {
			start = graph.Vertex(v)
			break
		}
	}
	order := make([]graph.Vertex, 0, n)
	edges := make([]int, 0, n-1)
	prevEdge := -1
	cur := start
	for {
		order = append(order, cur)
		next := -1
		for _, ei := range g.OutEdges(cur) {
			if ei != prevEdge {
				next = ei
			}
		}
		for _, ei := range g.InEdges(cur) {
			if ei != prevEdge {
				next = ei
			}
		}
		if next < 0 {
			break
		}
		edges = append(edges, next)
		if e := g.Edge(next); e.From == cur {
			cur = e.To
		} else {
			cur = e.From
		}
		prevEdge = next
	}
	if len(order) != n {
		return nil, nil, fmt.Errorf("lineage: 2WP walk covered %d of %d vertices", len(order), n)
	}
	return order, edges, nil
}

// ConnectedOn2WP builds the lineage of the connected query q on the 2WP
// instance h (Proposition 4.11). The query must have at least one edge.
//
// The clauses are the inclusion-minimal subpaths [a, b] (path positions)
// with q ⇝ subpath, found in time linear in |H| for a fixed query. The
// image of a connected query on a path is a subpath of at most m = |E(q)|
// edges, so no minimal window is longer than that. One right-to-left
// pass keeps short, the least right endpoint of a match starting at or
// after a: the least match [a, b] is minimal exactly when b < short, so
// only windows [a, b] with b ≤ min(a+m, short−1) are tested. Every
// other match starting at a contains [a+1, short] and is absorbed by it.
func ConnectedOn2WP(q *graph.Graph, h *graph.ProbGraph) (*IntervalLineage, error) {
	if !q.IsConnected() {
		return nil, fmt.Errorf("lineage: query is not connected: %v", q)
	}
	if q.NumEdges() == 0 {
		return nil, fmt.Errorf("lineage: edgeless query has trivial lineage")
	}
	order, edgeAt, err := PathOrder(h.G)
	if err != nil {
		return nil, err
	}
	n := len(order)
	probs := make([]*big.Rat, n-1)
	for i := range probs {
		probs[i] = h.Prob(edgeAt[i])
	}
	// The path-ordered graph: vertex id = path position, so a window of
	// the path is a vertex range, and subpaths trivially have the
	// X-property w.r.t. that order (§4.2).
	path := graph.New(n)
	for i, ei := range edgeAt {
		if e := h.G.Edge(ei); e.From == order[i] {
			path.MustAddEdge(graph.Vertex(i), graph.Vertex(i+1), e.Label)
		} else {
			path.MustAddEdge(graph.Vertex(i+1), graph.Vertex(i), e.Label)
		}
	}
	pos := xprop.IdentityOrder(n)
	m := q.NumEdges()
	var clauses []betadnf.Interval // edge positions, found right to left
	short := n                     // no match to the right yet
	for a := n - 2; a >= 0; a-- {
		top := min(a+m, short-1, n-1)
		if top <= a || !xprop.HasHomomorphismWithin(q, path, pos, a, top) {
			continue // every match starting at a is absorbed (or none exists)
		}
		// Admissible right endpoints are upward closed: search (a, top]
		// for the least, knowing top maps.
		short = a + 1 + sort.Search(top-a-1, func(k int) bool {
			return xprop.HasHomomorphismWithin(q, path, pos, a, a+1+k)
		})
		clauses = append(clauses, betadnf.Interval{Lo: a, Hi: short - 1})
	}
	slices.Reverse(clauses)
	dnf := boolform.NewDNF(h.G.NumEdges())
	for _, c := range clauses {
		clause := make([]boolform.Var, 0, c.Hi-c.Lo+1)
		for p := c.Lo; p <= c.Hi; p++ {
			clause = append(clause, boolform.Var(edgeAt[p]))
		}
		dnf.AddClause(clause...)
	}
	sys := &betadnf.IntervalSystem{NumVars: n - 1, Clauses: clauses}
	return &IntervalLineage{DNF: dnf, System: sys, Probs: probs, EdgeAt: edgeAt}, nil
}
