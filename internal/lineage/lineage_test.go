package lineage

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"phom/internal/betadnf"
	"phom/internal/boolform"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/hypergraph"
)

var twoLabels = []graph.Label{"R", "S"}

// dnfHypergraph views a DNF as the hypergraph of Definition 4.8.
func dnfHypergraph(f *boolform.DNF) *hypergraph.Hypergraph {
	h := hypergraph.New(f.NumVars)
	for _, c := range f.Clauses {
		if len(c) == 0 {
			continue
		}
		vs := make([]int, len(c))
		for i, v := range c {
			vs[i] = int(v)
		}
		h.AddEdge(vs...)
	}
	return h
}

// worldEval checks a lineage DNF against the definition: it must be true
// on exactly the worlds admitting a homomorphism (Definition 4.6).
func worldEval(t *testing.T, q *graph.Graph, h *graph.ProbGraph, dnf *boolform.DNF) {
	t.Helper()
	ne := h.G.NumEdges()
	if ne > 14 {
		return
	}
	nu := make([]bool, ne)
	for mask := 0; mask < 1<<uint(ne); mask++ {
		for i := 0; i < ne; i++ {
			nu[i] = mask&(1<<uint(i)) != 0
		}
		world := h.G.SubgraphKeeping(nu)
		want := graph.HasHomomorphism(q, world)
		if got := dnf.Eval(nu); got != want {
			t.Fatalf("lineage wrong at world %v: dnf=%v hom=%v\nq=%v\nh=%v\ndnf=%v",
				nu, got, want, q, h.G, dnf)
		}
	}
}

func TestPath1WPOnDWTLineage(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 150; trial++ {
		q := gen.Rand1WP(r, 2+r.Intn(3), twoLabels)
		inst := gen.RandDWT(r, 1+r.Intn(9), twoLabels)
		h := gen.RandProb(r, inst, 0.3)
		lin, err := Path1WPOnDWT(q, h)
		if err != nil {
			t.Fatal(err)
		}
		// The lineage captures homomorphism on every world.
		worldEval(t, q, h, lin.DNF)
		// The lineage is β-acyclic (§4.2: eliminable bottom-up).
		if !dnfHypergraph(lin.DNF).IsBetaAcyclic() {
			t.Fatalf("Prop 4.10 lineage not β-acyclic: %v", lin.DNF)
		}
		// The chain system agrees with the generic DNF probability.
		probs := make([]*big.Rat, h.G.NumEdges())
		for i := range probs {
			probs[i] = h.Prob(i)
		}
		want := lin.DNF.ShannonProb(probs)
		got, err := lin.System.Prob(lin.Probs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("chain system %s vs DNF %s", got.RatString(), want.RatString())
		}
	}
}

func TestPath1WPOnDWTRejects(t *testing.T) {
	h := graph.NewProbGraph(gen.RandDWT(rand.New(rand.NewSource(2)), 4, twoLabels))
	if _, err := Path1WPOnDWT(graph.Path2WP(graph.Fwd("R"), graph.Bwd("R")), h); err == nil {
		t.Fatal("2WP query accepted")
	}
	if _, err := Path1WPOnDWT(graph.Path1WP(), h); err == nil {
		t.Fatal("edgeless query accepted")
	}
	cyc := graph.New(2)
	cyc.MustAddEdge(0, 1, "R")
	cyc.MustAddEdge(1, 0, "R")
	if _, err := Path1WPOnDWT(graph.Path1WP("R"), graph.NewProbGraph(cyc)); err == nil {
		t.Fatal("non-DWT instance accepted")
	}
}

func TestPathOrder(t *testing.T) {
	h := graph.Path2WP(graph.Fwd("R"), graph.Bwd("S"), graph.Fwd("T"))
	order, edges, err := PathOrder(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 || len(edges) != 3 {
		t.Fatalf("order=%v edges=%v", order, edges)
	}
	if order[0] != 0 && order[0] != 3 {
		t.Fatalf("walk must start at an endpoint, got %v", order)
	}
	// Each consecutive pair must be joined by the listed edge.
	for i := 0; i < 3; i++ {
		e := h.Edge(edges[i])
		a, b := order[i], order[i+1]
		if !((e.From == a && e.To == b) || (e.From == b && e.To == a)) {
			t.Fatalf("edge %v does not join %v and %v", e, a, b)
		}
	}
}

func TestConnectedOn2WPLineage(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		q := gen.RandInClass(r, graph.ClassConnected, 1+r.Intn(4), twoLabels)
		if q.NumEdges() == 0 {
			continue
		}
		inst := gen.Rand2WP(r, 1+r.Intn(9), twoLabels)
		h := gen.RandProb(r, inst, 0.3)
		lin, err := ConnectedOn2WP(q, h)
		if err != nil {
			t.Fatal(err)
		}
		worldEval(t, q, h, lin.DNF)
		if !dnfHypergraph(lin.DNF).IsBetaAcyclic() {
			t.Fatalf("Prop 4.11 lineage not β-acyclic: %v", lin.DNF)
		}
		probs := make([]*big.Rat, h.G.NumEdges())
		for i := range probs {
			probs[i] = h.Prob(i)
		}
		want := lin.DNF.ShannonProb(probs)
		got, err := lin.System.Prob(lin.Probs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("interval system %s vs DNF %s\nq=%v\nh=%v", got.RatString(), want.RatString(), q, h.G)
		}
	}
}

func TestConnectedOn2WPRejects(t *testing.T) {
	h := graph.NewProbGraph(graph.Path2WP(graph.Fwd("R")))
	disc, _ := graph.DisjointUnion(graph.Path1WP("R"), graph.Path1WP("R"))
	if _, err := ConnectedOn2WP(disc, h); err == nil {
		t.Fatal("disconnected query accepted")
	}
	tree := graph.New(4)
	tree.MustAddEdge(0, 1, "R")
	tree.MustAddEdge(0, 2, "R")
	tree.MustAddEdge(0, 3, "R")
	if _, err := ConnectedOn2WP(graph.Path1WP("R"), graph.NewProbGraph(tree)); err == nil {
		t.Fatal("branching instance accepted")
	}
}

// minimalWindows is the reference for ConnectedOn2WP's clause set: it
// tests every window [i, j] of the path order with the generic
// homomorphism search on the induced subpath and keeps the
// inclusion-minimal ones, as edge-position intervals in order of i.
func minimalWindows(q *graph.Graph, g *graph.Graph) []betadnf.Interval {
	order, _, err := PathOrder(g)
	if err != nil {
		panic(err)
	}
	n := len(order)
	maps := make([][]bool, n)
	for i := range maps {
		maps[i] = make([]bool, n)
		for j := i; j < n; j++ {
			sub, _ := g.InducedSubgraph(order[i : j+1])
			maps[i][j] = graph.HasHomomorphism(q, sub)
		}
	}
	var out []betadnf.Interval
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			// Windows are nested, so [i, j] is minimal iff neither
			// one-shorter window maps.
			if maps[i][j] && (j == i || !maps[i][j-1]) && (i == j || !maps[i+1][j]) {
				out = append(out, betadnf.Interval{Lo: i, Hi: j - 1})
			}
		}
	}
	return out
}

// twoPointerDNF rebuilds the clause set of the quadratic two-pointer
// sweep ConnectedOn2WP replaced: for each left end i the least right
// end j with q ⇝ [i, j], absorbed windows included.
func twoPointerDNF(q *graph.Graph, g *graph.Graph) *boolform.DNF {
	order, edgeAt, err := PathOrder(g)
	if err != nil {
		panic(err)
	}
	n := len(order)
	dnf := boolform.NewDNF(g.NumEdges())
	j := 0
	for i := 0; i < n; i++ {
		j = max(j, i)
		for j < n {
			sub, _ := g.InducedSubgraph(order[i : j+1])
			if graph.HasHomomorphism(q, sub) {
				break
			}
			j++
		}
		if j == n {
			break
		}
		clause := make([]boolform.Var, 0, j-i)
		for p := i; p < j; p++ {
			clause = append(clause, boolform.Var(edgeAt[p]))
		}
		dnf.AddClause(clause...)
	}
	return dnf
}

// checkMinimalClauses compares ConnectedOn2WP with the brute-force
// references on one job.
func checkMinimalClauses(t *testing.T, q *graph.Graph, h *graph.ProbGraph, shannon bool) {
	t.Helper()
	lin, err := ConnectedOn2WP(q, h)
	if err != nil {
		t.Fatal(err)
	}
	if want := minimalWindows(q, h.G); !slices.Equal(lin.System.Clauses, want) {
		t.Fatalf("clauses %v, want the minimal windows %v\nq=%v\nh=%v", lin.System.Clauses, want, q, h.G)
	}
	m := q.NumEdges()
	for _, c := range lin.System.Clauses {
		if c.Hi-c.Lo+1 > m {
			t.Fatalf("clause %v has more than |E(q)| = %d edges", c, m)
		}
	}
	if len(lin.DNF.Clauses) != len(lin.System.Clauses) {
		t.Fatalf("DNF has %d clauses, interval system %d", len(lin.DNF.Clauses), len(lin.System.Clauses))
	}
	if !shannon {
		return
	}
	probs := h.Probs()
	got, want := lin.DNF.ShannonProb(probs), twoPointerDNF(q, h.G).ShannonProb(probs)
	if got.Cmp(want) != 0 {
		t.Fatalf("minimal DNF %s, two-pointer DNF %s\nq=%v\nh=%v", got.RatString(), want.RatString(), q, h.G)
	}
}

// randMinimalJob draws a random connected query with at least one edge
// and a random 2WP instance of n vertices, labeled or not.
func randMinimalJob(r *rand.Rand, n, qSize int, labeled bool) (*graph.Graph, *graph.ProbGraph) {
	labels := []graph.Label{graph.Unlabeled}
	if labeled {
		labels = twoLabels
	}
	q := gen.RandConnected(r, max(qSize, 2), r.Intn(2), labels)
	return q, gen.RandProb(r, gen.Rand2WP(r, n, labels), 0.3)
}

// TestConnectedOn2WPMinimalClauses: the one-pass sweep emits exactly the
// inclusion-minimal windows, each of at most |E(q)| edges, and its DNF
// has the probability of the two-pointer clause set it replaced.
func TestConnectedOn2WPMinimalClauses(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		q, h := randMinimalJob(r, 1+r.Intn(40), 2+r.Intn(4), trial%2 == 0)
		checkMinimalClauses(t, q, h, true)
	}
}

// FuzzConnectedOn2WPMinimal checks the sweep against the brute-force
// minimal windows on fuzzed queries and 2WPs of up to 40 vertices.
func FuzzConnectedOn2WPMinimal(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(8+4*seed), uint8(2+seed%4), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, qSize uint8, labeled bool) {
		r := rand.New(rand.NewSource(seed))
		q, h := randMinimalJob(r, 1+int(n)%40, 2+int(qSize)%5, labeled)
		checkMinimalClauses(t, q, h, false)
	})
}

// TestClauseCountLinear: every clause is minimal, so at most one starts
// at each path position.
func TestClauseCountLinear(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		q := gen.RandInClass(r, graph.ClassConnected, 1+r.Intn(4), twoLabels)
		if q.NumEdges() == 0 {
			continue
		}
		inst := gen.Rand2WP(r, 2+r.Intn(20), twoLabels)
		h := gen.RandProb(r, inst, 0.5)
		lin, err := ConnectedOn2WP(q, h)
		if err != nil {
			t.Fatal(err)
		}
		if len(lin.System.Clauses) > inst.NumVertices() {
			t.Fatalf("%d clauses for %d vertices: sweep must be linear",
				len(lin.System.Clauses), inst.NumVertices())
		}
	}
}
