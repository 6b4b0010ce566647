package graphio

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"phom/internal/graph"
	"phom/internal/plan"
)

// randProbInstance builds a random labeled graph with random rational
// probabilities, shuffled insertion order.
func randProbInstance(r *rand.Rand, n int) *graph.ProbGraph {
	g := graph.New(n)
	type edge struct{ from, to int }
	var edges []edge
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from != to && r.Intn(2) == 0 {
				edges = append(edges, edge{from, to})
			}
		}
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		g.MustAddEdge(graph.Vertex(e.from), graph.Vertex(e.to), "R")
	}
	p := graph.NewProbGraph(g)
	for i := 0; i < g.NumEdges(); i++ {
		if err := p.SetProb(i, big.NewRat(int64(1+r.Intn(16)), 17)); err != nil {
			panic(err)
		}
	}
	return p
}

// TestKeyerLanesMatchJobKeys pins the per-lane keying contract: one
// Keyer reused across lanes of one structure gives every lane the job
// key, structure key and canonical order of an independent JobKeys
// call, and a lane deep-cloned onto a separate graph value keys equal
// to its twin (keying is structural, not pointer-based).
func TestKeyerLanesMatchJobKeys(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	queryCanon := []string{"g;n=2;0>1:\"R\""}
	fp := "brute=20;match=65536;nofallback=false;prec=auto;tol=1e-09"
	sfp := "brute=20;match=65536;nofallback=false"
	for trial := 0; trial < 30; trial++ {
		base := randProbInstance(r, 2+r.Intn(6))
		k := NewKeyer(queryCanon, base.G, sfp)
		for lane := 0; lane < 5; lane++ {
			p := base
			if lane > 0 {
				p = base.CloneProbs()
				for i := 0; i < p.G.NumEdges(); i++ {
					if err := p.SetProb(i, big.NewRat(int64(r.Intn(18)), 17)); err != nil {
						t.Fatal(err)
					}
				}
			}
			wantJob, wantStruct, wantOrder := JobKeys(queryCanon, p, fp, sfp)
			if got := k.Key(p, fp); got != wantJob {
				t.Fatalf("trial %d lane %d: lane job key %s != %s", trial, lane, got, wantJob)
			}
			if k.StructKey() != wantStruct || !slices.Equal(k.Order(), wantOrder) {
				t.Fatalf("trial %d lane %d: struct key or order diverges from JobKeys", trial, lane)
			}
		}
		twin := base.Clone()
		if got, _, _ := JobKeys(queryCanon, twin, fp, sfp); got != k.Key(base, fp) {
			t.Fatalf("trial %d: equal jobs keyed differently", trial)
		}
	}
}

// TestKeyerEdgelessGraph: an edgeless instance keys to the documented
// streams, and its vertex count still separates structures.
func TestKeyerEdgelessGraph(t *testing.T) {
	for n := 0; n < 3; n++ {
		p := graph.NewProbGraph(graph.New(n))
		wantJob, wantStruct := streamKeys(nil, p, "fp", "sfp")
		if gotJob, gotStruct, order := JobKeys(nil, p, "fp", "sfp"); gotJob != wantJob || gotStruct != wantStruct || len(order) != 0 {
			t.Fatalf("n=%d: keys (%s, %s, %v), stream (%s, %s)", n, gotJob, gotStruct, order, wantJob, wantStruct)
		}
	}
	a, _, _ := JobKeys(nil, graph.NewProbGraph(graph.New(1)), "fp", "sfp")
	b, _, _ := JobKeys(nil, graph.NewProbGraph(graph.New(2)), "fp", "sfp")
	if a == b {
		t.Fatal("edgeless graphs of different sizes share a key")
	}
}

// TestCloneProbsIndependence pins the aliasing contract CloneProbs
// gives the batch lanes: the underlying graph is shared by value, while
// probability updates on a lane never leak into its siblings.
func TestCloneProbsIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	base := randProbInstance(r, 5)
	lane := base.CloneProbs()
	if lane.G != base.G {
		t.Fatal("CloneProbs must share the underlying graph value")
	}
	before := base.Prob(0).RatString()
	if err := lane.SetProb(0, big.NewRat(1, 13)); err != nil {
		t.Fatal(err)
	}
	if base.Prob(0).RatString() != before {
		t.Fatal("SetProb on a clone mutated the base assignment")
	}
	if lane.Prob(0).RatString() != "1/13" {
		t.Fatalf("clone probability not updated: %s", lane.Prob(0).RatString())
	}
}

// TestOptimizedProgramRoundTrips is the forward-compat regression the
// Builder's value numbering must not break: a record holding a folded
// and shared program encodes, decodes to an op-for-op identical program
// (decoding never re-optimizes), and re-encodes byte-identically — so
// snapshot warm-start serves exactly the program that was persisted,
// whatever Builder version wrote it.
func TestOptimizedProgramRoundTrips(t *testing.T) {
	// x1·(1−(1−x0))·1 + 1/2·1/3 + x0·x1: the Builder drops the double
	// complement and the mul by one, folds the constants and shares the
	// commuted product, leaving six of the twelve emitted ops.
	b := plan.NewBuilder(context.Background(), 3)
	x0, x1 := b.Load(0), b.Load(1)
	m := b.Mul(b.Mul(x1, b.OneMinus(b.OneMinus(x0))), b.One())
	c := b.Mul(b.Const(big.NewRat(1, 2)), b.Const(big.NewRat(1, 3)))
	opt, err := b.Finish(b.Add(b.Add(m, c), b.Mul(x0, x1)))
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumOps() != 6 {
		t.Fatalf("Builder left %d ops, want 6", opt.NumOps())
	}
	rec := testRecord(t)
	rec.Program = opt
	data, err := AppendPlanRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePlanRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program.NumOps() != opt.NumOps() || got.Program.NumRegs != opt.NumRegs || got.Program.Out != opt.Out {
		t.Fatalf("decoded shape changed: %d ops/%d regs/out %d, want %d/%d/%d",
			got.Program.NumOps(), got.Program.NumRegs, got.Program.Out, opt.NumOps(), opt.NumRegs, opt.Out)
	}
	for i, op := range opt.Ops {
		if got.Program.Ops[i] != op {
			t.Fatalf("decoded op %d changed: %+v != %+v", i, got.Program.Ops[i], op)
		}
	}
	for i, c := range opt.Consts {
		if got.Program.Consts[i].Cmp(c) != 0 {
			t.Fatalf("decoded const %d changed", i)
		}
	}
	again, err := AppendPlanRecord(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding an optimized program changed bytes")
	}
	probs := []*big.Rat{graph.Rat("1/2"), graph.Rat("1/3"), graph.Rat("1/5")}
	have, err := got.Program.ExecCtx(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	if have.RatString() != "1/2" {
		t.Fatalf("optimized round-trip = %s, want 1/2", have.RatString())
	}
}

// sortedEdgeOrder is the reference canonical edge order: every edge
// index, sorted by (from, to).
func sortedEdgeOrder(g *graph.Graph) []int {
	order := make([]int, g.NumEdges())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := g.Edge(order[a]), g.Edge(order[b])
		return ea.From < eb.From || ea.From == eb.From && ea.To < eb.To
	})
	return order
}

// streamKeys is the reference definition of JobKeys: SHA-256 over the
// structure byte stream written out in full, then over the job stream —
// the structure key, each probability's numerator and denominator as a
// uvarint header (twice the byte length, plus one if negative) and the
// big-endian magnitude, and the options.
func streamKeys(queryCanon []string, p *graph.ProbGraph, fp, sfp string) (jobKey, structKey string) {
	var job, str bytes.Buffer
	str.WriteString("struct\n")
	for _, q := range queryCanon {
		fmt.Fprintf(&str, "q %d\n%s\n", len(q), q)
	}
	fmt.Fprintf(&str, "i n=%d\n", p.G.NumVertices())
	for _, ei := range sortedEdgeOrder(p.G) {
		e := p.G.Edge(ei)
		fmt.Fprintf(&str, "%d>%d:%q\n", e.From, e.To, e.Label)
	}
	fmt.Fprintf(&str, "o %d\n%s\n", len(sfp), sfp)
	hs := sha256.Sum256(str.Bytes())
	structKey = hex.EncodeToString(hs[:])
	fmt.Fprintf(&job, "job\n%s", structKey)
	for _, ei := range sortedEdgeOrder(p.G) {
		for _, x := range []*big.Int{p.Prob(ei).Num(), p.Prob(ei).Denom()} {
			mag := new(big.Int).Abs(x).Bytes()
			h := uint64(2 * len(mag))
			if x.Sign() < 0 {
				h++
			}
			job.Write(binary.AppendUvarint(nil, h))
			job.Write(mag)
		}
	}
	fmt.Fprintf(&job, "o %d\n%s\n", len(fp), fp)
	hj := sha256.Sum256(job.Bytes())
	return hex.EncodeToString(hj[:]), structKey
}

// TestKeyerMatchesStream: a Keyer reused across reweighted lanes of one
// structure, and JobKeys, hash exactly the documented byte streams; For
// recognizes only the shape the Keyer was built for.
func TestKeyerMatchesStream(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	queryCanon := []string{"g;n=2;0>1:\"R\"", "g;n=3;0>1:\"R\";2>1:\"S\""}
	fp, sfp := "brute=20;prec=exact", "brute=20"
	for trial := 0; trial < 20; trial++ {
		base := randProbInstance(r, 2+r.Intn(6))
		k := NewKeyer(queryCanon, base.G, sfp)
		if !slices.Equal(k.Order(), sortedEdgeOrder(base.G)) {
			t.Fatalf("trial %d: canonical order %v, want %v", trial, k.Order(), sortedEdgeOrder(base.G))
		}
		for lane := 0; lane < 4; lane++ {
			p := base.CloneProbs()
			for i := 0; i < p.G.NumEdges(); i++ {
				num := new(big.Int).Lsh(big.NewInt(int64(r.Intn(5))), uint(r.Intn(80)))
				if err := p.SetProb(i, new(big.Rat).SetFrac(num, new(big.Int).Lsh(big.NewInt(5), 80))); err != nil {
					t.Fatal(err)
				}
			}
			wantJob, wantStruct := streamKeys(queryCanon, p, fp, sfp)
			gotJob := k.Key(p, fp)
			oneJob, oneStruct, _ := JobKeys(queryCanon, p, fp, sfp)
			if gotJob != wantJob || k.StructKey() != wantStruct || oneJob != wantJob || oneStruct != wantStruct {
				t.Fatalf("trial %d lane %d: keys (%s, %s) / JobKeys (%s, %s), stream (%s, %s)",
					trial, lane, gotJob, k.StructKey(), oneJob, oneStruct, wantJob, wantStruct)
			}
		}
		if !k.For(queryCanon, base.G, sfp) {
			t.Fatal("Keyer does not recognize its own shape")
		}
		if k.For(queryCanon[:1], base.G, sfp) || k.For(queryCanon, base.Clone().G, sfp) || k.For(queryCanon, base.G, sfp+"x") {
			t.Fatal("Keyer claims a shape it was not built for")
		}
	}
	var none *Keyer
	if none.For(queryCanon, graph.New(1), sfp) {
		t.Fatal("nil Keyer claims a shape")
	}
}
