package graph

// ConnectedComponents partitions the vertices of g into the connected
// components of its underlying undirected graph. Components are returned
// with vertices sorted, and components ordered by their smallest vertex,
// so the output is deterministic. The slices are g.Partition()'s:
// shared, and must not be mutated.
func (g *Graph) ConnectedComponents() [][]Vertex { return g.Partition().Comps }

// IsConnected reports whether the underlying undirected graph of g is
// connected. Following the paper, the single-vertex graph is connected and
// the empty graph is not a valid graph (we report it as not connected).
func (g *Graph) IsConnected() bool { return g.n > 0 && g.numComponents() == 1 }

// numComponents counts the connected components of the underlying
// undirected graph of g without listing them: the class tests need only
// the count, and a fresh graph that is only classified (a request
// answered from a cached plan) never needs its Partition.
func (g *Graph) numComponents() int {
	if p := g.part.Load(); p != nil {
		return len(p.Comps)
	}
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
	pos := make([]Vertex, g.n) // vertex -> new vertex + 1, 0 outside vs
	for i, v := range vs {
		remap[v] = Vertex(i)
		if v >= 0 && int(v) < g.n {
			pos[v] = Vertex(i + 1)
		}
	}
	var edges []Edge
	for _, e := range g.edges {
		if nf, nt := pos[e.From], pos[e.To]; nf > 0 && nt > 0 {
			edges = append(edges, Edge{From: nf - 1, To: nt - 1, Label: e.Label})
		}
	}
	return fromEdges(len(vs), edges), remap
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

// Partition returns the connected-component partition of g. It is
// memoized on g like TightestClass (AddEdge and AddVertex reset it), so
// every caller of one graph shares one Partition: its slices must not
// be mutated.
//
// One traversal labels each vertex with its component, numbering
// components in order of their smallest vertex; one ascending pass over
// the vertices then lists each component's vertices already sorted, and
// one pass over the edges lists each component's edges in edge order.
// Each listing is carved out of one backing array.
func (g *Graph) Partition() *Partition {
	if p := g.part.Load(); p != nil {
		return p
	}
	p := &Partition{Of: make([]int, g.n), pos: make([]int, g.n)}
	for v := range p.Of {
		p.Of[v] = -1
	}
	var stack []Vertex
	comps := 0
	for s := range p.Of {
		if p.Of[s] >= 0 {
			continue
		}
		p.Of[s] = comps
		stack = append(stack[:0], Vertex(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			// Walk the incident edge indices directly rather than
			// through Neighbors: Of already deduplicates.
			for _, i := range g.out[v] {
				if u := g.edges[i].To; p.Of[u] < 0 {
					p.Of[u] = comps
					stack = append(stack, u)
				}
			}
			for _, i := range g.in[v] {
				if u := g.edges[i].From; p.Of[u] < 0 {
					p.Of[u] = comps
					stack = append(stack, u)
				}
			}
		}
		comps++
	}

	size := make([]int, comps)
	for v, c := range p.Of {
		p.pos[v] = size[c]
		size[c]++
	}
	p.Comps = carve(make([]Vertex, g.n), size)
	for v, c := range p.Of {
		p.Comps[c] = append(p.Comps[c], Vertex(v))
	}

	clear(size)
	for _, e := range g.edges {
		size[p.Of[e.From]]++
	}
	p.Edges = carve(make([]int, len(g.edges)), size)
	for i, e := range g.edges {
		c := p.Of[e.From]
		p.Edges[c] = append(p.Edges[c], i)
	}
	g.part.Store(p)
	return p
}

// Component returns component ci of part (a partition of g) as a
// standalone graph: the graph InducedSubgraph(part.Comps[ci]) returns,
// built from the component's own edges only.
func (g *Graph) Component(part *Partition, ci int) *Graph {
	edges := make([]Edge, len(part.Edges[ci]))
	for j, i := range part.Edges[ci] {
		e := g.edges[i]
		edges[j] = Edge{From: Vertex(part.pos[e.From]), To: Vertex(part.pos[e.To]), Label: e.Label}
	}
	return fromEdges(len(part.Comps[ci]), edges)
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
