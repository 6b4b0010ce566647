package graph

// Class identifies one of the paper's graph classes (§2, Figure 2).
type Class int

// The graph classes studied by the paper. U-prefixed classes are the
// disjoint-union closures ⊔1WP, ⊔2WP, ⊔DWT, ⊔PT: graphs whose connected
// components all lie in the base class.
const (
	Class1WP       Class = iota // one-way paths
	Class2WP                    // two-way paths
	ClassDWT                    // downward trees
	ClassPT                     // polytrees
	ClassConnected              // connected graphs
	ClassU1WP                   // disjoint unions of one-way paths
	ClassU2WP                   // disjoint unions of two-way paths
	ClassUDWT                   // disjoint unions of downward trees
	ClassUPT                    // disjoint unions of polytrees (forests)
	ClassAll                    // all graphs
	numClasses
)

// AllClasses lists every class in a fixed order.
var AllClasses = []Class{
	Class1WP, Class2WP, ClassDWT, ClassPT, ClassConnected,
	ClassU1WP, ClassU2WP, ClassUDWT, ClassUPT, ClassAll,
}

var classNames = map[Class]string{
	Class1WP:       "1WP",
	Class2WP:       "2WP",
	ClassDWT:       "DWT",
	ClassPT:        "PT",
	ClassConnected: "Connected",
	ClassU1WP:      "⊔1WP",
	ClassU2WP:      "⊔2WP",
	ClassUDWT:      "⊔DWT",
	ClassUPT:       "⊔PT",
	ClassAll:       "All",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return "Class(?)"
}

// Base returns the connected base class of a disjoint-union class, and the
// class itself otherwise.
func (c Class) Base() Class {
	switch c {
	case ClassU1WP:
		return Class1WP
	case ClassU2WP:
		return Class2WP
	case ClassUDWT:
		return ClassDWT
	case ClassUPT:
		return ClassPT
	}
	return c
}

// Every class test reads one shape of g. A connected graph has at
// least |V| − 1 edges (directed edges, so an antiparallel pair or a
// self-loop counts beyond its undirected edge), with equality exactly
// when its underlying graph is a tree. Summed over the components,
// every component is a tree iff |E| = |V| − #components. A forest has
// no antiparallel pair and no self-loop, so there the undirected degree
// of a vertex is its in-degree plus its out-degree, and a tree is
//   - a polytree,
//   - a downward tree iff every in-degree is at most 1,
//   - a two-way path iff every undirected degree is at most 2,
//   - a one-way path iff every in- and out-degree is at most 1.
//
// A ⊔ class holds iff every component is in its base class, which the
// same maxima decide for all components at once: no component graph is
// built.
type shape struct {
	n, comps              int
	forest                bool // every component is a tree
	maxIn, maxOut, maxDeg int  // maxDeg: the largest in- plus out-degree
}

func (g *Graph) shape() shape {
	s := shape{n: g.n, comps: g.numComponents()}
	s.forest = len(g.edges) == g.n-s.comps
	for v := 0; v < g.n; v++ {
		in, out := len(g.in[v]), len(g.out[v])
		s.maxIn, s.maxOut, s.maxDeg = max(s.maxIn, in), max(s.maxOut, out), max(s.maxDeg, in+out)
	}
	return s
}

func (s shape) in(c Class) bool {
	if s.n == 0 {
		return false
	}
	switch c {
	case ClassAll:
		return true
	case ClassConnected:
		return s.comps == 1
	case Class1WP, Class2WP, ClassDWT, ClassPT:
		if s.comps != 1 {
			return false
		}
	}
	if !s.forest {
		return false
	}
	switch c.Base() {
	case Class1WP:
		return s.maxIn <= 1 && s.maxOut <= 1
	case Class2WP:
		return s.maxDeg <= 2
	case ClassDWT:
		return s.maxIn <= 1
	case ClassPT:
		return true
	}
	return false
}

// Is1WP reports whether g is a one-way path a₁ → a₂ → … → aₘ covering all
// vertices (Figure 3, top). The single-vertex graph is the 1WP of length 0.
func (g *Graph) Is1WP() bool { return g.InClass(Class1WP) }

// Is2WP reports whether g is a two-way path a₁ − a₂ − … − aₘ, each edge
// oriented arbitrarily (Figure 3, bottom).
func (g *Graph) Is2WP() bool { return g.InClass(Class2WP) }

// IsDWT reports whether g is a downward tree: a rooted unranked tree with
// every edge oriented from parent to child (Figure 4, left).
func (g *Graph) IsDWT() bool { return g.InClass(ClassDWT) }

// DWTRoot returns the root of a downward tree. It panics if g is not a DWT.
func (g *Graph) DWTRoot() Vertex {
	if !g.IsDWT() {
		panic("graph: DWTRoot on a non-DWT graph")
	}
	for v := 0; v < g.n; v++ {
		if g.InDegree(Vertex(v)) == 0 {
			return Vertex(v)
		}
	}
	panic("graph: DWT without a root")
}

// IsPolytree reports whether the underlying undirected graph of g is a
// tree (Figure 4, right).
func (g *Graph) IsPolytree() bool { return g.InClass(ClassPT) }

// InClass reports whether g belongs to the given class.
func (g *Graph) InClass(c Class) bool { return g.shape().in(c) }

// Classify returns every class g belongs to, in AllClasses order.
func (g *Graph) Classify() []Class {
	s := g.shape()
	var out []Class
	for _, c := range AllClasses {
		if s.in(c) {
			out = append(out, c)
		}
	}
	return out
}

// TightestClass returns the smallest class (w.r.t. the Figure 2
// inclusion lattice) that contains g; every class g belongs to includes
// the result. Used to locate the Tables 1–3 cell of an input pair. The
// answer is memoized on the graph (invalidated by mutation), so
// serving-path callers can re-ask per evaluation without re-walking the
// graph.
func (g *Graph) TightestClass() Class {
	if v := g.tightest.Load(); v != 0 {
		return Class(v - 1)
	}
	s := g.shape()
	best := ClassAll
	for _, c := range AllClasses {
		if s.in(c) && ClassIncluded(c, best) {
			best = c
		}
	}
	g.tightest.Store(int32(best) + 1)
	return best
}

// ClassIncluded reports whether every graph of class a is a graph of
// class b, following the inclusion diagram of Figure 2 extended to the
// disjoint-union classes.
func ClassIncluded(a, b Class) bool {
	if a == b || b == ClassAll {
		return true
	}
	if a < 0 || a >= numClasses || b < 0 || b >= numClasses {
		return false
	}
	return classIncluded[a][b]
}

// classIncluded is the transitive closure of the inclusion diagram,
// computed once: classification asks ClassIncluded dozens of times per
// request.
var classIncluded = func() (inc [numClasses][numClasses]bool) {
	for _, e := range [][2]Class{
		{Class1WP, Class2WP}, {Class1WP, ClassDWT}, {Class1WP, ClassU1WP},
		{Class2WP, ClassPT}, {Class2WP, ClassU2WP},
		{ClassDWT, ClassPT}, {ClassDWT, ClassUDWT},
		{ClassPT, ClassConnected}, {ClassPT, ClassUPT},
		{ClassConnected, ClassAll},
		{ClassU1WP, ClassU2WP}, {ClassU1WP, ClassUDWT},
		{ClassU2WP, ClassUPT},
		{ClassUDWT, ClassUPT},
		{ClassUPT, ClassAll},
	} {
		inc[e[0]][e[1]] = true
	}
	for k := range numClasses {
		for i := range numClasses {
			for j := range numClasses {
				inc[i][j] = inc[i][j] || inc[i][k] && inc[k][j]
			}
		}
	}
	return inc
}()
