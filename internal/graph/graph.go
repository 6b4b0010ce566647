package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Vertex identifies a vertex of a Graph. Vertices of a graph with n
// vertices are exactly 0 … n−1.
type Vertex int

// Label is an edge label drawn from the finite alphabet σ. The unlabeled
// setting of the paper corresponds to every edge carrying the same label.
type Label string

// Unlabeled is the conventional single label used for graphs in the
// unlabeled setting (|σ| = 1).
const Unlabeled Label = "_"

// Edge is a directed labeled edge u → v.
type Edge struct {
	From  Vertex
	To    Vertex
	Label Label
}

func (e Edge) String() string {
	return fmt.Sprintf("%d -%s-> %d", e.From, e.Label, e.To)
}

// Graph is a finite directed graph with labeled edges and no multi-edges.
// The zero value is not usable; create graphs with New.
//
// Adjacency is two lists of edge indices per vertex and no pair map. A
// pair lookup (EdgeIndex, HasEdge, AddEdge's duplicate check) scans the
// shorter of out[from] and in[to] when either holds at most scanLimit
// edges, which covers every pair of the tractable classes' bounded
// degrees; only a pair between two high-degree vertices reads the pair
// index, which is built on first need and kept current by AddEdge
// afterwards, so a dense graph never goes quadratic. The copy
// constructors (Clone, WithoutEdge, SubgraphKeeping, Reverse,
// Component, DisjointUnion, InducedSubgraph) build from a known-distinct
// edge list in one pass, with no lookup at all.
type Graph struct {
	n     int
	edges []Edge
	out   [][]int // vertex -> indices into edges
	in    [][]int
	// index is the lazily built pair index (see Graph). Atomic so
	// concurrent readers of a shared immutable graph may each build it
	// and publish: every build indexes the same edges.
	index atomic.Pointer[pairIndex]
	// tightest memoizes TightestClass()+1 (0 = not yet computed).
	// Classification walks the whole graph repeatedly, and serving paths
	// ask for it once per evaluation of a structure that never changes —
	// AddVertex/AddEdge reset it, everything else leaves the graph
	// immutable. Atomic so concurrent readers of a shared immutable
	// graph (the lanes of a multi-vector reweight) race benignly: every
	// writer stores the same value.
	tightest atomic.Int32
	// part memoizes Partition() under the same rules as tightest.
	part atomic.Pointer[Partition]
	// canon memoizes Canonical under the same rules.
	canon atomic.Pointer[string]
}

// New returns a graph with n isolated vertices (n ≥ 1; the paper requires
// a non-empty vertex set, but n = 0 is tolerated for intermediate
// construction and rejected by validation where it matters).
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{
		n:   n,
		out: make([][]int, n),
		in:  make([][]int, n),
	}
}

// fromEdges returns the graph on n vertices whose edge list is edges,
// which must be in range and pairwise distinct (a copy of another
// graph's edges). It takes ownership of edges and lays both adjacency
// lists out in one backing array, each vertex's list at its exact size
// with its capacity capped, so an AddEdge on the result reallocates the
// list it grows instead of writing into its neighbour's.
func fromEdges(n int, edges []Edge) *Graph {
	g := &Graph{n: n, edges: edges}
	outDeg, inDeg := make([]int, n), make([]int, n)
	for _, e := range edges {
		outDeg[e.From]++
		inDeg[e.To]++
	}
	back := make([]int, 2*len(edges))
	g.out, g.in = carve(back[:len(edges)], outDeg), carve(back[len(edges):], inDeg)
	for i, e := range edges {
		g.out[e.From] = append(g.out[e.From], i)
		g.in[e.To] = append(g.in[e.To], i)
	}
	return g
}

// carve splits back into consecutive empty runs, run c with capacity
// size[c] exactly: appending size[c] elements to run c fills it without
// touching its neighbours, and one more reallocates it.
func carve[T any](back []T, size []int) [][]T {
	runs := make([][]T, len(size))
	lo := 0
	for c, k := range size {
		runs[c] = back[lo : lo : lo+k]
		lo += k
	}
	return runs
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddVertex appends a fresh isolated vertex and returns it.
func (g *Graph) AddVertex() Vertex {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.n++
	g.changed()
	return Vertex(g.n - 1)
}

// changed drops the memos (TightestClass, Partition, Canonical) after
// a structural edit. A fresh graph has none, and a parse adds every
// edge to one, so it loads before it stores.
func (g *Graph) changed() {
	if g.tightest.Load() != 0 {
		g.tightest.Store(0)
	}
	if g.part.Load() != nil {
		g.part.Store(nil)
	}
	if g.canon.Load() != nil {
		g.canon.Store(nil)
	}
}

// Canonical returns build(g), computed on first use and memoized on g
// like TightestClass. It holds the canonical text of a query graph
// (graphio.CanonicalQueries), which keys every job against it: a query
// that never changes is serialized once. build must be a pure function
// of g's vertices and edges, the same on every call.
func (g *Graph) Canonical(build func(*Graph) string) string {
	if s := g.canon.Load(); s != nil {
		return *s
	}
	s := build(g)
	g.canon.Store(&s)
	return s
}

// AddEdge inserts the edge from −label→ to. It fails if an endpoint is out
// of range, if the edge is a self-loop on the same pair already present,
// or if the ordered pair (from, to) already carries an edge (the paper's
// graphs have no multi-edges: λ is a function on E).
func (g *Graph) AddEdge(from, to Vertex, label Label) error {
	if from < 0 || int(from) >= g.n || to < 0 || int(to) >= g.n {
		return fmt.Errorf("graph: edge %d->%d out of range (n=%d)", from, to, g.n)
	}
	if _, dup := g.EdgeIndex(from, to); dup {
		return fmt.Errorf("graph: duplicate edge %d->%d (multi-edges are not allowed)", from, to)
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{From: from, To: to, Label: label})
	g.out[from] = append(g.out[from], idx)
	g.in[to] = append(g.in[to], idx)
	if x := g.index.Load(); x != nil {
		g.index.Store(x.appended(g.edges))
	}
	g.changed()
	return nil
}

// MustAddEdge is AddEdge that panics on error; intended for literals in
// tests and examples.
func (g *Graph) MustAddEdge(from, to Vertex, label Label) {
	if err := g.AddEdge(from, to, label); err != nil {
		panic(err)
	}
}

// Edge returns the i-th edge in insertion order.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list in insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// EdgeIndex returns the index of the edge (from, to) and whether it
// exists. It scans the shorter of from's out-list and to's in-list when
// either has at most scanLimit edges, and reads the pair index (built
// here on first need) otherwise.
func (g *Graph) EdgeIndex(from, to Vertex) (int, bool) {
	if from < 0 || int(from) >= g.n || to < 0 || int(to) >= g.n {
		return 0, false
	}
	out, in := g.out[from], g.in[to]
	switch {
	case len(out) <= len(in) && len(out) <= scanLimit:
		for _, i := range out {
			if g.edges[i].To == to {
				return i, true
			}
		}
		return 0, false
	case len(in) <= scanLimit:
		for _, i := range in {
			if g.edges[i].From == from {
				return i, true
			}
		}
		return 0, false
	}
	x := g.index.Load()
	if x == nil {
		x = newPairIndex(g.edges)
		g.index.Store(x)
	}
	return x.find(g.edges, from, to)
}

// scanLimit is the adjacency-list length up to which a pair lookup
// scans the list instead of reading the pair index.
const scanLimit = 8

// pairIndex is an open-addressing table of edge indices keyed by their
// (from, to) pair, probed linearly from a Fibonacci hash of the pair: a
// slot holds an edge index plus one, 0 when empty. It indexes a prefix
// of the graph's edge list and is kept at most half full.
type pairIndex struct {
	slots []uint32
	shift uint // 64 − log2(len(slots))
}

// newPairIndex indexes every edge of edges.
func newPairIndex(edges []Edge) *pairIndex {
	bits := 4
	for 1<<bits < 2*len(edges) {
		bits++
	}
	x := &pairIndex{slots: make([]uint32, 1<<bits), shift: uint(64 - bits)}
	for i, e := range edges {
		x.slots[x.free(e.From, e.To)] = uint32(i + 1)
	}
	return x
}

func (x *pairIndex) home(from, to Vertex) int {
	return int((uint64(uint32(from))<<32 | uint64(uint32(to))) * 0x9e3779b97f4a7c15 >> x.shift)
}

// free returns the first empty slot of (from, to)'s probe sequence.
func (x *pairIndex) free(from, to Vertex) int {
	s := x.home(from, to)
	for x.slots[s] != 0 {
		s = (s + 1) & (len(x.slots) - 1)
	}
	return s
}

// find returns the index of the edge (from, to) among edges.
func (x *pairIndex) find(edges []Edge, from, to Vertex) (int, bool) {
	for s := x.home(from, to); x.slots[s] != 0; s = (s + 1) & (len(x.slots) - 1) {
		if e := edges[x.slots[s]-1]; e.From == from && e.To == to {
			return int(x.slots[s] - 1), true
		}
	}
	return 0, false
}

// appended indexes the last edge of edges, whose other edges x already
// indexes, and returns the index to publish: x itself, or a rebuilt
// table twice the size once x would be more than half full.
func (x *pairIndex) appended(edges []Edge) *pairIndex {
	if 2*len(edges) > len(x.slots) {
		return newPairIndex(edges)
	}
	e := edges[len(edges)-1]
	x.slots[x.free(e.From, e.To)] = uint32(len(edges))
	return x
}

// HasEdge reports whether the edge (from, to) exists, and its label.
func (g *Graph) HasEdge(from, to Vertex) (Label, bool) {
	if i, ok := g.EdgeIndex(from, to); ok {
		return g.edges[i].Label, true
	}
	return "", false
}

// OutEdges returns the indices of edges leaving v.
func (g *Graph) OutEdges(v Vertex) []int { return g.out[v] }

// InEdges returns the indices of edges entering v.
func (g *Graph) InEdges(v Vertex) []int { return g.in[v] }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v Vertex) int { return len(g.out[v]) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v Vertex) int { return len(g.in[v]) }

// Neighbors returns the sorted distinct neighbors of v in the underlying
// undirected graph (v itself is included only if v has a self-loop).
func (g *Graph) Neighbors(v Vertex) []Vertex {
	set := map[Vertex]struct{}{}
	for _, i := range g.out[v] {
		set[g.edges[i].To] = struct{}{}
	}
	for _, i := range g.in[v] {
		set[g.edges[i].From] = struct{}{}
	}
	out := make([]Vertex, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UndirectedDegree returns the degree of v in the underlying undirected
// graph: the number of distinct neighbors (antiparallel edge pairs count
// once). It allocates nothing: with no multi-edges, a neighbor is
// counted twice exactly when both v → u and u → v are edges (a
// self-loop is its own reverse), so the count is the incident edges
// minus the out-edges whose reverse exists.
func (g *Graph) UndirectedDegree(v Vertex) int {
	d := len(g.out[v]) + len(g.in[v])
	for _, i := range g.out[v] {
		if _, ok := g.EdgeIndex(g.edges[i].To, v); ok {
			d--
		}
	}
	return d
}

// Labels returns the sorted set of labels used by edges of g. The set
// is kept as a sorted slice: alphabets are small, so a membership test
// compares against each label up to scanLimit of them, and
// binary-searches past that.
func (g *Graph) Labels() []Label {
	out := []Label{}
	for _, e := range g.edges {
		if len(out) <= scanLimit && slices.Contains(out, e.Label) {
			continue
		}
		if k, found := slices.BinarySearch(out, e.Label); !found {
			out = slices.Insert(out, k, e.Label)
		}
	}
	return out
}

// IsUnlabeled reports whether g uses at most one distinct label. It
// stops at the first edge whose label differs from the first edge's,
// so it allocates nothing, unlike len(g.Labels()).
func (g *Graph) IsUnlabeled() bool {
	for _, e := range g.edges {
		if e.Label != g.edges[0].Label {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return fromEdges(g.n, slices.Clone(g.edges))
}

// WithoutEdge returns a fresh graph equal to g with the i-th edge
// removed; the remaining edges keep their relative insertion order
// (edge j > i becomes edge j−1). Graphs have no in-place edge removal
// by design — a removal renumbers the edge list, and every consumer of
// a *Graph (plans, caches, concurrent solves) relies on a published
// graph never mutating structurally — so removal is rebuild-as-copy.
// The copy also starts with a fresh class memo.
func (g *Graph) WithoutEdge(i int) *Graph {
	if i < 0 || i >= len(g.edges) {
		panic(fmt.Sprintf("graph: WithoutEdge index %d out of range (m=%d)", i, len(g.edges)))
	}
	edges := make([]Edge, 0, len(g.edges)-1)
	edges = append(append(edges, g.edges[:i]...), g.edges[i+1:]...)
	return fromEdges(g.n, edges)
}

// SubgraphKeeping returns the subgraph of g (same vertex set, per the
// paper's convention) whose edges are exactly those of g with keep[i]
// true, indexed by g's edge order.
func (g *Graph) SubgraphKeeping(keep []bool) *Graph {
	if len(keep) != len(g.edges) {
		panic("graph: keep mask length mismatch")
	}
	var edges []Edge
	for i, e := range g.edges {
		if keep[i] {
			edges = append(edges, e)
		}
	}
	return fromEdges(g.n, slices.Clip(edges))
}

// Reverse returns the graph with every edge reversed (labels kept).
func (g *Graph) Reverse() *Graph {
	edges := make([]Edge, len(g.edges))
	for i, e := range g.edges {
		edges[i] = Edge{From: e.To, To: e.From, Label: e.Label}
	}
	return fromEdges(g.n, edges)
}

// String renders the graph compactly, for debugging and error messages.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph{n=%d;", g.n)
	for i, e := range g.edges {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte(' ')
		b.WriteString(e.String())
	}
	b.WriteString(" }")
	return b.String()
}

// Path1WP builds the one-way path a₀ −labels[0]→ a₁ −labels[1]→ … with
// len(labels)+1 vertices. An empty label list yields the single-vertex
// graph, which is the 1WP of length 0.
func Path1WP(labels ...Label) *Graph {
	g := New(len(labels) + 1)
	for i, l := range labels {
		g.MustAddEdge(Vertex(i), Vertex(i+1), l)
	}
	return g
}

// UnlabeledPath returns the unlabeled 1WP →^m with m edges.
func UnlabeledPath(m int) *Graph {
	labels := make([]Label, m)
	for i := range labels {
		labels[i] = Unlabeled
	}
	return Path1WP(labels...)
}

// Step is one edge of a two-way path description: the label, and whether
// the edge points forward (aᵢ → aᵢ₊₁) or backward (aᵢ ← aᵢ₊₁).
type Step struct {
	Label   Label
	Forward bool
}

// Fwd and Bwd construct Steps; they keep 2WP literals readable.
func Fwd(l Label) Step { return Step{Label: l, Forward: true} }

// Bwd constructs a backward step (see Fwd).
func Bwd(l Label) Step { return Step{Label: l, Forward: false} }

// Path2WP builds the two-way path a₀ − a₁ − … following steps.
func Path2WP(steps ...Step) *Graph {
	g := New(len(steps) + 1)
	for i, s := range steps {
		if s.Forward {
			g.MustAddEdge(Vertex(i), Vertex(i+1), s.Label)
		} else {
			g.MustAddEdge(Vertex(i+1), Vertex(i), s.Label)
		}
	}
	return g
}

// DisjointUnion returns the disjoint union of the given graphs, with the
// vertices of each part shifted after those of the previous parts, plus
// the vertex offset of each part.
func DisjointUnion(parts ...*Graph) (*Graph, []Vertex) {
	total, m := 0, 0
	offsets := make([]Vertex, len(parts))
	for i, p := range parts {
		offsets[i] = Vertex(total)
		total += p.n
		m += len(p.edges)
	}
	edges := make([]Edge, 0, m)
	for i, p := range parts {
		off := offsets[i]
		for _, e := range p.edges {
			edges = append(edges, Edge{From: e.From + off, To: e.To + off, Label: e.Label})
		}
	}
	return fromEdges(total, edges), offsets
}
