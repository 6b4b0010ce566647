package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// refGraph is the map-based reference FuzzGraphEdits checks a Graph
// against: the edge list, and each ordered pair's edge index.
type refGraph struct {
	n     int
	edges []Edge
	index map[[2]Vertex]int
}

func newRefGraph(n int, edges []Edge) *refGraph {
	ref := &refGraph{n: n, index: map[[2]Vertex]int{}}
	for _, e := range edges {
		ref.add(e)
	}
	return ref
}

// add records e unless its pair already carries an edge, and reports
// whether it did.
func (ref *refGraph) add(e Edge) bool {
	if _, dup := ref.index[[2]Vertex{e.From, e.To}]; dup {
		return false
	}
	ref.index[[2]Vertex{e.From, e.To}] = len(ref.edges)
	ref.edges = append(ref.edges, e)
	return true
}

// adjacency returns the out- and in-lists AddEdge builds from ref's
// edges: edge indices in insertion order.
func (ref *refGraph) adjacency() (out, in [][]int) {
	out, in = make([][]int, ref.n), make([][]int, ref.n)
	for i, e := range ref.edges {
		out[e.From] = append(out[e.From], i)
		in[e.To] = append(in[e.To], i)
	}
	return out, in
}

// check compares every lookup and adjacency list of g with ref: the
// edge list, EdgeIndex and HasEdge on every ordered pair (and two out
// of range), OutEdges, InEdges and UndirectedDegree on every vertex.
func (ref *refGraph) check(t *testing.T, what string, g *Graph) {
	t.Helper()
	if g.NumVertices() != ref.n || !slices.Equal(g.Edges(), ref.edges) {
		t.Fatalf("%s: n=%d edges %v, want n=%d edges %v", what, g.NumVertices(), g.Edges(), ref.n, ref.edges)
	}
	for u := Vertex(-1); int(u) <= ref.n; u++ {
		for v := Vertex(-1); int(v) <= ref.n; v++ {
			want, ok := ref.index[[2]Vertex{u, v}]
			if i, got := g.EdgeIndex(u, v); got != ok || (ok && i != want) {
				t.Fatalf("%s: EdgeIndex(%d,%d) = %d,%v, want %d,%v", what, u, v, i, got, want, ok)
			}
			if l, got := g.HasEdge(u, v); got != ok || (ok && l != ref.edges[want].Label) {
				t.Fatalf("%s: HasEdge(%d,%d) = %q,%v", what, u, v, l, got)
			}
		}
	}
	out, in := ref.adjacency()
	for v := range ref.n {
		if !slices.Equal(g.OutEdges(Vertex(v)), out[v]) || !slices.Equal(g.InEdges(Vertex(v)), in[v]) {
			t.Fatalf("%s: vertex %d lists out %v in %v, want %v %v", what, v, g.OutEdges(Vertex(v)), g.InEdges(Vertex(v)), out[v], in[v])
		}
		nb := map[Vertex]bool{}
		for _, i := range out[v] {
			nb[ref.edges[i].To] = true
		}
		for _, i := range in[v] {
			nb[ref.edges[i].From] = true
		}
		if d := g.UndirectedDegree(Vertex(v)); d != len(nb) {
			t.Fatalf("%s: UndirectedDegree(%d) = %d, want %d", what, v, d, len(nb))
		}
	}
}

// checkAppendable adds one new edge to the copy c of ref (and to ref)
// and checks that only its endpoints' lists grew: a copy's per-vertex
// lists share one backing array, so an append that wrote in place
// would overwrite a neighbour's list.
func checkAppendable(t *testing.T, r *rand.Rand, what string, c *Graph, ref *refGraph) {
	t.Helper()
	if ref.n == 0 {
		return
	}
	var before [][2][]int
	for v := range ref.n {
		before = append(before, [2][]int{slices.Clone(c.OutEdges(Vertex(v))), slices.Clone(c.InEdges(Vertex(v)))})
	}
	e := Edge{From: Vertex(r.Intn(ref.n)), To: Vertex(r.Intn(ref.n)), Label: "T"}
	if !ref.add(e) {
		return // the pair is taken; nothing to append
	}
	if err := c.AddEdge(e.From, e.To, e.Label); err != nil {
		t.Fatalf("%s: AddEdge(%v) on the copy: %v", what, e, err)
	}
	for v := range ref.n {
		out, in := before[v][0], before[v][1]
		if Vertex(v) == e.From {
			out = append(out, len(ref.edges)-1)
		}
		if Vertex(v) == e.To {
			in = append(in, len(ref.edges)-1)
		}
		if !slices.Equal(c.OutEdges(Vertex(v)), out) || !slices.Equal(c.InEdges(Vertex(v)), in) {
			t.Fatalf("%s: AddEdge(%v) changed vertex %d: out %v in %v, want %v %v", what, e, v, c.OutEdges(Vertex(v)), c.InEdges(Vertex(v)), out, in)
		}
	}
	ref.check(t, what+" after AddEdge", c)
}

// FuzzGraphEdits checks the map-free pair lookup and the bulk copy
// constructors against the map-based refGraph. Edges are drawn with two
// hubs as frequent endpoints, so a hub has more than scanLimit out- and
// in-edges and a hub-to-hub lookup reads the pair index: lookups run
// between insertions, so the index is built mid-stream and AddEdge
// keeps it current afterwards. Every copy constructor must equal the
// graph AddEdge builds from the same edges and stay appendable.
func FuzzGraphEdits(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed*5), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, density uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 10 + int(size)%22
		g := New(n)
		ref := newRefGraph(n, nil)
		hubs := [2]Vertex{Vertex(r.Intn(n)), Vertex(r.Intn(n))}
		tries := (3 + int(density)%4) * n
		for k := range tries {
			e := Edge{From: Vertex(r.Intn(n)), To: Vertex(r.Intn(n)), Label: Label("RS"[r.Intn(2):][:1])}
			if r.Intn(2) == 0 {
				e.From = hubs[r.Intn(2)]
			}
			if r.Intn(2) == 0 {
				e.To = hubs[r.Intn(2)]
			}
			added := ref.add(e)
			if err := g.AddEdge(e.From, e.To, e.Label); (err == nil) != added {
				t.Fatalf("AddEdge(%v) = %v, reference added %v", e, err, added)
			}
			if k%(n/2) == 0 {
				ref.check(t, "mid-stream", g)
			}
		}
		ref.check(t, "graph", g)
		for _, h := range hubs {
			if len(g.OutEdges(h)) > scanLimit && len(g.InEdges(h)) > scanLimit && g.index.Load() == nil {
				t.Fatalf("hub %d has %d out- and %d in-edges, but no lookup built the pair index", h, len(g.OutEdges(h)), len(g.InEdges(h)))
			}
		}

		m := len(ref.edges)
		type copied struct {
			what string
			c    *Graph
			ref  *refGraph
		}
		var copies []copied
		copies = append(copies, copied{"Clone", g.Clone(), newRefGraph(n, ref.edges)})
		if m > 0 {
			i := r.Intn(m)
			copies = append(copies, copied{"WithoutEdge", g.WithoutEdge(i), newRefGraph(n, slices.Delete(slices.Clone(ref.edges), i, i+1))})
		}
		keep := make([]bool, m)
		var kept []Edge
		for i := range keep {
			if keep[i] = r.Intn(2) == 0; keep[i] {
				kept = append(kept, ref.edges[i])
			}
		}
		copies = append(copies, copied{"SubgraphKeeping", g.SubgraphKeeping(keep), newRefGraph(n, kept)})
		var rev []Edge
		for _, e := range ref.edges {
			rev = append(rev, Edge{From: e.To, To: e.From, Label: e.Label})
		}
		copies = append(copies, copied{"Reverse", g.Reverse(), newRefGraph(n, rev)})
		sub := g.SubgraphKeeping(keep)
		part := sub.Partition()
		for ci, vs := range part.Comps {
			var ce []Edge
			for _, e := range kept {
				if k, ok := slices.BinarySearch(vs, e.From); ok {
					l, _ := slices.BinarySearch(vs, e.To)
					ce = append(ce, Edge{From: Vertex(k), To: Vertex(l), Label: e.Label})
				}
			}
			copies = append(copies, copied{"Component", sub.Component(part, ci), newRefGraph(len(vs), ce)})
		}
		u, _ := DisjointUnion(g, sub)
		ue := slices.Clone(ref.edges)
		for _, e := range kept {
			ue = append(ue, Edge{From: e.From + Vertex(n), To: e.To + Vertex(n), Label: e.Label})
		}
		copies = append(copies, copied{"DisjointUnion", u, newRefGraph(2*n, ue)})
		vs := r.Perm(n)[:1+r.Intn(n)]
		newOf := map[Vertex]Vertex{}
		for i, v := range vs {
			newOf[Vertex(v)] = Vertex(i)
		}
		var ie []Edge
		for _, e := range ref.edges {
			if nf, ok := newOf[e.From]; ok {
				if nt, ok := newOf[e.To]; ok {
					ie = append(ie, Edge{From: nf, To: nt, Label: e.Label})
				}
			}
		}
		induced, remap := g.InducedSubgraph(toVertices(vs))
		if len(remap) != len(newOf) {
			t.Fatalf("InducedSubgraph remap %v, want %v", remap, newOf)
		}
		copies = append(copies, copied{"InducedSubgraph", induced, newRefGraph(len(vs), ie)})

		for _, c := range copies {
			c.ref.check(t, c.what, c.c)
			checkAppendable(t, r, c.what, c.c, c.ref)
			checkAppendable(t, r, c.what, c.c, c.ref)
		}
		ref.check(t, "graph after its copies grew", g)
	})
}

func toVertices(vs []int) []Vertex {
	out := make([]Vertex, len(vs))
	for i, v := range vs {
		out[i] = Vertex(v)
	}
	return out
}

// TestPairIndex checks the pair index directly, built whole and grown
// one appended edge at a time. The hash spreads pairs that share an
// endpoint far apart unless their other endpoints differ by a large
// Fibonacci number, so the graph needs hundreds of vertices and a hub
// joined to all of them before a probe passes a pair sharing its
// source.
func TestPairIndex(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 600
	ref := newRefGraph(n, nil)
	for v := range Vertex(n) {
		ref.add(Edge{From: 0, To: v, Label: "R"})
		ref.add(Edge{From: v, To: 0, Label: "R"})
		ref.add(Edge{From: Vertex(r.Intn(n)), To: Vertex(r.Intn(n)), Label: "R"})
	}
	grown := newPairIndex(nil)
	for i := range ref.edges {
		grown = grown.appended(ref.edges[:i+1])
	}
	for _, x := range []*pairIndex{newPairIndex(ref.edges), grown} {
		for u := range Vertex(n) {
			for v := range Vertex(n) {
				want, ok := ref.index[[2]Vertex{u, v}]
				if i, got := x.find(ref.edges, u, v); got != ok || (ok && i != want) {
					t.Fatalf("find(%d,%d) = %d,%v, want %d,%v", u, v, i, got, want, ok)
				}
			}
		}
	}
}
