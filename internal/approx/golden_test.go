package approx

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/boolform"
	"phom/internal/gen"
	"phom/internal/graph"
)

// needleDNF is the lineage of the hard-cell needle shape, the labeled
// non-1WP 2WP query R→ ←R S→ on a labeled DWT of n vertices
// (gen.RandDWT with labels R and S), with every edge probability k/d
// for d ∈ {4, 8, 16} and 0 < k < d. In a DWT every vertex has one
// parent, so both R-atoms of the query map to the same edge and a match
// is an R-edge and an S-edge leaving one vertex: one two-variable
// clause per such pair, in edge-index order.
func needleDNF(seed int64, n int) (*boolform.DNF, []*big.Rat) {
	r := rand.New(rand.NewSource(seed))
	g := gen.RandDWT(r, n, []graph.Label{"R", "S"})
	probs := make([]*big.Rat, g.NumEdges())
	for i := range probs {
		d := int64(4 << uint(r.Intn(3)))
		probs[i] = big.NewRat(1+r.Int63n(d-1), d)
	}
	f := boolform.NewDNF(g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		out := g.OutEdges(graph.Vertex(v))
		for _, a := range out {
			for _, b := range out {
				if g.Edge(a).Label == "R" && g.Edge(b).Label == "S" {
					f.AddClause(boolform.Var(a), boolform.Var(b))
				}
			}
		}
	}
	return f, probs
}

// needleParams are the sampler parameters hard needles are solved at.
var needleParams = Params{Epsilon: 0.25, Delta: 0.05, Seed: 7}

// TestKarpLubyGolden pins the full Estimate of a few fixed formulas to
// the bit: the point estimate and both bounds as hexadecimal floats,
// and the sample count. Any change to the sampler that moves the order
// or number of random draws, the clause choice or the summation order
// shows up here, so seeded answers stay byte-identical across versions.
func TestKarpLubyGolden(t *testing.T) {
	type input struct {
		name  string
		f     *boolform.DNF
		probs []*big.Rat
		p     Params
	}
	var in []input
	// At n = 128 the needle is almost surely true, so P and Hi clamp
	// to 1 and Lo carries the bits; the smaller needles stay inside
	// (0, 1).
	for _, c := range []struct {
		seed int64
		n    int
	}{{1, 128}, {2, 128}, {3, 24}, {4, 32}} {
		f, probs := needleDNF(c.seed, c.n)
		in = append(in, input{fmt.Sprintf("needle-%d-n%d", c.seed, c.n), f, probs, needleParams})
	}
	// Widths 1 to 5 with interior probabilities, plus a 0 and a 1.
	r := rand.New(rand.NewSource(11))
	mixed := randDNF(r, 40, 12, 5)
	mp := make([]*big.Rat, 40)
	for i := range mp {
		mp[i] = big.NewRat(1+r.Int63n(7), 8)
	}
	mp[0], mp[1] = new(big.Rat), big.NewRat(1, 1)
	in = append(in, input{"mixed-widths", mixed, mp, Params{Epsilon: 0.2, Delta: 0.1, Seed: 3}})
	// Variables outside every clause, a probability-1 variable inside
	// uncertain clauses, and a dead clause.
	sparse := boolform.NewDNF(64)
	sparse.AddClause(3, 60)
	sparse.AddClause(60, 17, 40)
	sparse.AddClause(5)
	sparse.AddClause(17, 33)
	sparse.AddClause(9, 3)
	sp := halves(64)
	sp[60] = big.NewRat(1, 1)
	sp[9] = new(big.Rat)
	sp[33] = big.NewRat(7, 8)
	in = append(in, input{"sparse", sparse, sp, Params{Epsilon: 0.1, Delta: 0.05, Seed: 99}})

	want := map[string]string{
		"needle-1-n128": "P=0x1p+00 Lo=0x1.9c3f0941cee2cp-01 Hi=0x1p+00 samples=10802",
		"needle-2-n128": "P=0x1p+00 Lo=0x1.977a9375c09acp-01 Hi=0x1p+00 samples=13103",
		"needle-3-n24":  "P=0x1.7773a7575f2fap-01 Lo=0x1.5dc2ef8be0806p-01 Hi=0x1.91245f22dddefp-01 samples=2125",
		"needle-4-n32":  "P=0x1.c4eb2f28ce452p-01 Lo=0x1.a0cb7229d07cfp-01 Hi=0x1.e90aec27cc0d4p-01 samples=2834",
		"mixed-widths":  "P=0x1.ef54b54c389abp-01 Lo=0x1.cc395e488d4bep-01 Hi=0x1p+00 samples=2697",
		"sparse":        "P=0x1.bd1bd094f6538p-01 Lo=0x1.ab79174dd9befp-01 Hi=0x1.cebe89dc12e81p-01 samples=4427",
	}
	for _, c := range in {
		est, err := KarpLuby(context.Background(), c.f, c.probs, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := fmt.Sprintf("P=%x Lo=%x Hi=%x samples=%d", est.P, est.Lo, est.Hi, est.Samples)
		if got != want[c.name] {
			t.Errorf("%s: got  %s\n\twant %s", c.name, got, want[c.name])
		}
	}
}

// BenchmarkKarpLubyNeedle times one estimation on the needle shape at
// n = 128: the lineage and its probabilities are built once, outside
// the timer.
func BenchmarkKarpLubyNeedle(b *testing.B) {
	f, probs := needleDNF(1, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KarpLuby(context.Background(), f, probs, needleParams); err != nil {
			b.Fatal(err)
		}
	}
}
