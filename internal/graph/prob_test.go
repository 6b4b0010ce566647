package graph

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestRatHelper(t *testing.T) {
	if Rat("1/2").Cmp(big.NewRat(1, 2)) != 0 {
		t.Fatal("Rat(1/2)")
	}
	if Rat("0.25").Cmp(big.NewRat(1, 4)) != 0 {
		t.Fatal("Rat(0.25)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("malformed rational should panic")
		}
	}()
	Rat("zz")
}

func TestProbGraphDefaultsAndValidation(t *testing.T) {
	g := Path1WP("R", "S")
	p := NewProbGraph(g)
	if err := p.Validate(); err != nil {
		t.Fatalf("fresh ProbGraph invalid: %v", err)
	}
	if p.Prob(0).Cmp(RatOne) != 0 {
		t.Fatal("default probability must be 1")
	}
	if err := p.SetProb(0, big.NewRat(3, 2)); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if err := p.SetProb(0, big.NewRat(-1, 2)); err == nil {
		t.Fatal("negative probability accepted")
	}
	if err := p.SetProb(5, RatHalf); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := p.SetEdgeProb(0, 2, RatHalf); err == nil {
		t.Fatal("missing edge accepted")
	}
	if err := p.SetEdgeProb(0, 1, RatHalf); err != nil {
		t.Fatalf("SetEdgeProb: %v", err)
	}
	if pr, ok := p.EdgeProb(0, 1); !ok || pr.Cmp(RatHalf) != 0 {
		t.Fatal("EdgeProb readback wrong")
	}
}

func TestSetProbCopies(t *testing.T) {
	g := Path1WP("R")
	p := NewProbGraph(g)
	r := big.NewRat(1, 2)
	p.MustSetEdgeProb(0, 1, r)
	r.SetInt64(0) // mutate caller's value
	if p.Prob(0).Cmp(RatHalf) != 0 {
		t.Fatal("SetProb must copy the rational")
	}
}

// TestWorldProbsSumToOne: the probabilities of all 2^|E| possible worlds
// must sum to exactly 1, for random probabilistic graphs.
func TestWorldProbsSumToOne(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g := randomGraphForClasses(r)
		p := NewProbGraph(g)
		for i := 0; i < g.NumEdges(); i++ {
			d := int64(1 + r.Intn(8))
			if err := p.SetProb(i, big.NewRat(r.Int63n(d+1), d)); err != nil {
				t.Fatal(err)
			}
		}
		m := g.NumEdges()
		if m > 12 {
			continue
		}
		total := new(big.Rat)
		keep := make([]bool, m)
		for mask := 0; mask < 1<<uint(m); mask++ {
			for i := 0; i < m; i++ {
				keep[i] = mask&(1<<uint(i)) != 0
			}
			total.Add(total, p.WorldProb(keep))
		}
		if total.Cmp(RatOne) != 0 {
			t.Fatalf("world probabilities sum to %s, want 1", total.RatString())
		}
	}
}

func TestUncertainEdges(t *testing.T) {
	g := Path1WP("R", "S", "T")
	p := NewProbGraph(g)
	p.MustSetEdgeProb(1, 2, RatHalf)
	p.MustSetEdgeProb(2, 3, RatZero)
	u := p.UncertainEdges()
	if len(u) != 1 || u[0] != 1 {
		t.Fatalf("UncertainEdges = %v, want [1]", u)
	}
}

func TestProbGraphComponents(t *testing.T) {
	u, _ := DisjointUnion(Path1WP("R"), Path1WP("S", "S"))
	p := NewProbGraph(u)
	p.MustSetEdgeProb(0, 1, RatHalf)          // first component's edge
	p.MustSetEdgeProb(2, 3, big.NewRat(1, 4)) // second component's first edge
	comps := p.Components()
	if len(comps) != 2 {
		t.Fatalf("got %d components", len(comps))
	}
	if comps[0].Prob(0).Cmp(RatHalf) != 0 {
		t.Fatal("component 0 lost its probability")
	}
	if comps[1].Prob(0).Cmp(big.NewRat(1, 4)) != 0 {
		t.Fatal("component 1 lost its probability")
	}
	if err := comps[0].Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneProbGraph(t *testing.T) {
	g := Path1WP("R")
	p := NewProbGraph(g)
	p.MustSetEdgeProb(0, 1, RatHalf)
	q := p.Clone()
	q.MustSetEdgeProb(0, 1, RatZero)
	if p.Prob(0).Cmp(RatHalf) != 0 {
		t.Fatal("clone mutation leaked")
	}
}

// InducedWithEdges returns the probabilistic subgraph of p induced by
// vs (renumbered in the given order, as InducedSubgraph does), together
// with the map from its edge indices back to the edge indices of p. It
// scans the whole edge list; the tests compare Component, the linear
// per-component form, against it.
func (p *ProbGraph) InducedWithEdges(vs []Vertex) (*ProbGraph, []int) {
	sub, remap := p.G.InducedSubgraph(vs)
	q := NewProbGraph(sub)
	// InducedSubgraph scans p's edge list in order, so the subgraph's
	// j-th edge is the j-th edge of p with both endpoints in vs.
	em := make([]int, 0, sub.NumEdges())
	for i, e := range p.G.edges {
		nf, okf := remap[e.From]
		nt, okt := remap[e.To]
		if okf && okt {
			q.MustSetEdgeProb(nf, nt, p.probs[i])
			em = append(em, i)
		}
	}
	return q, em
}

// TestComponentsWithEdgesMatchInduced pins the one-pass Lemma 3.7 split
// against the per-component reference: on random multi-component
// graphs, every component ComponentsWithEdges returns is exactly
// InducedWithEdges of that component's vertices — same vertex
// renumbering, same edges in the same order, same probabilities, same
// edge map — in ConnectedComponents order, and Components agrees on
// the bare graphs.
func TestComponentsWithEdgesMatchInduced(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	labels := []Label{"R", "S"}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(24)
		g := New(n)
		for k := r.Intn(2 * n); k > 0; k-- {
			u, v := Vertex(r.Intn(n)), Vertex(r.Intn(n))
			if u != v {
				_ = g.AddEdge(u, v, labels[r.Intn(len(labels))]) // duplicates are skipped
			}
		}
		h := NewProbGraph(g)
		for i := 0; i < g.NumEdges(); i++ {
			h.SetProb(i, big.NewRat(int64(r.Intn(9)), 8))
		}
		vss := g.ConnectedComponents()
		comps, ems := h.ComponentsWithEdges()
		bare := g.Components()
		if len(comps) != len(vss) || len(ems) != len(vss) || len(bare) != len(vss) {
			t.Fatalf("trial %d: %d/%d/%d components, want %d", trial, len(comps), len(ems), len(bare), len(vss))
		}
		for ci, vs := range vss {
			want, wantEM := h.InducedWithEdges(vs)
			if comps[ci].String() != want.String() {
				t.Fatalf("trial %d component %d: %v, want %v", trial, ci, comps[ci], want)
			}
			if bare[ci].String() != want.G.String() {
				t.Fatalf("trial %d component %d: Components %v, want %v", trial, ci, bare[ci], want.G)
			}
			if len(ems[ci]) != len(wantEM) {
				t.Fatalf("trial %d component %d: edge map %v, want %v", trial, ci, ems[ci], wantEM)
			}
			for j := range wantEM {
				if ems[ci][j] != wantEM[j] {
					t.Fatalf("trial %d component %d: edge map %v, want %v", trial, ci, ems[ci], wantEM)
				}
			}
		}
	}
}

// TestInUnitMatchesCmp: the allocation-free range check agrees with
// comparing against 0 and 1, on integers, fractions and big values.
func TestInUnitMatchesCmp(t *testing.T) {
	big1 := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 100), new(big.Int).Lsh(big.NewInt(1), 101))
	cases := []*big.Rat{
		new(big.Rat), big.NewRat(1, 1), big.NewRat(2, 1), big.NewRat(-1, 1), big.NewRat(1, 2),
		big.NewRat(-1, 2), big.NewRat(3, 2), big.NewRat(99, 100), big.NewRat(101, 100), big1,
		new(big.Rat).Add(big1, big1), new(big.Rat).Add(new(big.Rat).Add(big1, big1), big.NewRat(1, 1<<40)),
		new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 80)),
	}
	for _, r := range cases {
		want := r.Sign() >= 0 && r.Cmp(RatOne) <= 0
		if got := InUnit(r); got != want {
			t.Errorf("InUnit(%s) = %v, want %v", r.RatString(), got, want)
		}
	}
}

// TestWithProbs: the adopting constructor checks the length, every
// entry's range and nils, and shares the given values.
func TestWithProbs(t *testing.T) {
	g := Path1WP("R", "S")
	half := big.NewRat(1, 2)
	p, err := WithProbs(g, []*big.Rat{half, RatOne})
	if err != nil || p.Prob(0) != half || p.Prob(1).Cmp(RatOne) != 0 {
		t.Fatalf("WithProbs = %v, %v", p, err)
	}
	if _, err := WithProbs(g, []*big.Rat{half, big.NewRat(3, 2)}); err == nil {
		t.Fatal("probability 3/2 accepted")
	}
	if _, err := WithProbs(g, []*big.Rat{half}); err == nil {
		t.Fatal("short probability vector accepted")
	}
	if _, err := WithProbs(g, []*big.Rat{half, nil}); err == nil {
		t.Fatal("nil probability accepted")
	}
}

// TestValidateChecksShape: Validate catches the two ways a ProbGraph's
// vector can stop fitting its graph after construction.
func TestValidateChecksShape(t *testing.T) {
	g := Path1WP("R", "S")
	p := NewProbGraph(g)
	g.MustAddEdge(2, 0, "T")
	if err := p.Validate(); err == nil {
		t.Error("graph grown after wrapping: Validate accepted 2 probabilities for 3 edges")
	}
	if err := (&ProbGraph{G: g}).Validate(); err == nil {
		t.Error("zero-value ProbGraph accepted")
	}
	if err := NewProbGraph(g).Validate(); err != nil {
		t.Error(err)
	}
}

// TestAddRemoveEdgeKeepParallel: the structural edits move an edge and
// its probability together, reject an out-of-range probability or a bad
// edge without changing p, and never touch a graph p shares.
func TestAddRemoveEdgeKeepParallel(t *testing.T) {
	p := NewProbGraph(Path1WP("R", "S"))
	p.MustSetEdgeProb(1, 2, RatHalf)
	for _, bad := range []struct {
		from, to Vertex
		r        *big.Rat
	}{{2, 0, big.NewRat(3, 2)}, {2, 0, big.NewRat(-1, 2)}, {0, 1, RatHalf}, {0, 9, RatHalf}} {
		if err := p.AddEdge(bad.from, bad.to, "T", bad.r); err == nil {
			t.Errorf("AddEdge(%d, %d, %s) accepted", bad.from, bad.to, bad.r.RatString())
		}
	}
	if p.G.NumEdges() != 2 || p.Validate() != nil {
		t.Fatalf("a failed AddEdge changed p: %v", p)
	}
	third := big.NewRat(1, 3)
	if err := p.AddEdge(2, 0, "T", third); err != nil {
		t.Fatal(err)
	}
	third.SetInt64(0) // AddEdge copies the caller's value
	shared := p.G
	p.RemoveEdge(0)
	if shared.NumEdges() != 3 {
		t.Fatal("RemoveEdge mutated the graph it replaced")
	}
	if p.Validate() != nil || p.G.NumEdges() != 2 {
		t.Fatalf("after RemoveEdge: %v", p)
	}
	if r, ok := p.EdgeProb(1, 2); !ok || r.Cmp(RatHalf) != 0 {
		t.Errorf("edge 1>2 carries %v after the removal", r)
	}
	if r, ok := p.EdgeProb(2, 0); !ok || r.Cmp(big.NewRat(1, 3)) != 0 {
		t.Errorf("edge 2>0 carries %v after the removal", r)
	}
}
