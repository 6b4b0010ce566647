package graph

import "sort"

// ConnectedComponents partitions the vertices of g into the connected
// components of its underlying undirected graph. Components are returned
// with vertices sorted, and components ordered by their smallest vertex,
// so the output is deterministic.
func (g *Graph) ConnectedComponents() [][]Vertex {
	seen := make([]bool, g.n)
	var comps [][]Vertex
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []Vertex
		stack := []Vertex{Vertex(s)}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			// Walk the incident edge indices directly rather than
			// through Neighbors: traversal only needs each endpoint
			// once, and seen[] already deduplicates, so the map and
			// sort Neighbors pays for are wasted here. Classification
			// asks for components on every serving-path prediction,
			// which makes this the hottest loop in the package.
			for _, i := range g.out[v] {
				if u := g.edges[i].To; !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
			for _, i := range g.in[v] {
				if u := g.edges[i].From; !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether the underlying undirected graph of g is
// connected. Following the paper, the single-vertex graph is connected and
// the empty graph is not a valid graph (we report it as not connected).
func (g *Graph) IsConnected() bool { return g.n > 0 && g.numComponents() == 1 }

// numComponents counts the connected components of the underlying
// undirected graph of g without listing them.
func (g *Graph) numComponents() int {
	seen := make([]bool, g.n)
	var stack []Vertex
	comps := 0
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		comps++
		seen[s] = true
		stack = append(stack[:0], Vertex(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, i := range g.out[v] {
				if u := g.edges[i].To; !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
			for _, i := range g.in[v] {
				if u := g.edges[i].From; !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
	}
	return comps
}

// InducedSubgraph returns the subgraph of g induced by the given vertices
// (renumbered 0 … len(vs)−1 in the given order) together with the mapping
// old vertex → new vertex. Edges with an endpoint outside vs are dropped.
func (g *Graph) InducedSubgraph(vs []Vertex) (*Graph, map[Vertex]Vertex) {
	remap := make(map[Vertex]Vertex, len(vs))
	for i, v := range vs {
		remap[v] = Vertex(i)
	}
	h := New(len(vs))
	for _, e := range g.edges {
		nf, okf := remap[e.From]
		nt, okt := remap[e.To]
		if okf && okt {
			h.MustAddEdge(nf, nt, e.Label)
		}
	}
	return h, remap
}

// Partition is the split of a graph into the connected components of
// its underlying undirected graph, built from one pass over the edges:
// every per-component view (standalone component graphs, edge maps,
// per-component edge counts) reads it instead of rescanning the whole
// edge list per component.
type Partition struct {
	// Comps lists each component's vertices, in ConnectedComponents
	// order (vertices sorted, components ordered by smallest vertex).
	Comps [][]Vertex
	// Of maps each vertex to the index of its component.
	Of []int
	// Edges lists each component's edge indices, in edge-list order.
	Edges [][]int
	// pos maps each vertex to its index inside its component.
	pos []int
}

// Partition returns the connected-component partition of g.
func (g *Graph) Partition() *Partition {
	p := &Partition{
		Comps: g.ConnectedComponents(),
		Of:    make([]int, g.n),
		pos:   make([]int, g.n),
	}
	for ci, vs := range p.Comps {
		for k, v := range vs {
			p.Of[v], p.pos[v] = ci, k
		}
	}
	p.Edges = make([][]int, len(p.Comps))
	for i, e := range g.edges {
		ci := p.Of[e.From]
		p.Edges[ci] = append(p.Edges[ci], i)
	}
	return p
}

// Component returns component ci of part (a partition of g) as a
// standalone graph: the graph InducedSubgraph(part.Comps[ci]) returns,
// built from the component's own edges only.
func (g *Graph) Component(part *Partition, ci int) *Graph {
	h := New(len(part.Comps[ci]))
	for _, i := range part.Edges[ci] {
		e := g.edges[i]
		h.MustAddEdge(Vertex(part.pos[e.From]), Vertex(part.pos[e.To]), e.Label)
	}
	return h
}

// Components returns each connected component of g as a standalone graph
// (vertices renumbered), in deterministic order.
func (g *Graph) Components() []*Graph {
	part := g.Partition()
	out := make([]*Graph, len(part.Comps))
	for ci := range part.Comps {
		out[ci] = g.Component(part, ci)
	}
	return out
}
