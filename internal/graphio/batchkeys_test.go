package graphio

import (
	"bytes"
	"context"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/graph"
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

// TestBatchJobKeysMatchesJobKeys pins the batched keying's contract:
// every lane's job key, the structure key and the canonical order are
// byte-identical to independent JobKeys calls — including for a lane
// that does not share the batch's underlying graph (the unamortized
// fallback path).
func TestBatchJobKeysMatchesJobKeys(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	queryCanon := []string{"g;n=2;0>1:\"R\""}
	fp := "brute=20;match=65536;nofallback=false;prec=auto;tol=1e-09"
	sfp := "brute=20;match=65536;nofallback=false"
	for trial := 0; trial < 30; trial++ {
		base := randProbInstance(r, 2+r.Intn(6))
		lanes := []*graph.ProbGraph{base}
		for k := 0; k < 4; k++ {
			lane := base.CloneProbs()
			for i := 0; i < lane.G.NumEdges(); i++ {
				if err := lane.SetProb(i, big.NewRat(int64(r.Intn(18)), 17)); err != nil {
					t.Fatal(err)
				}
			}
			lanes = append(lanes, lane)
		}
		// A foreign lane: same probabilities, separate graph value.
		lanes = append(lanes, base.Clone())

		jobKeys, structKey, order := BatchJobKeys(queryCanon, lanes, fp, sfp)
		if len(jobKeys) != len(lanes) {
			t.Fatalf("trial %d: %d keys for %d lanes", trial, len(jobKeys), len(lanes))
		}
		for k, lane := range lanes {
			wantJob, wantStruct, wantOrder := JobKeys(queryCanon, lane, fp, sfp)
			if jobKeys[k] != wantJob {
				t.Fatalf("trial %d lane %d: batch job key %s != %s", trial, k, jobKeys[k], wantJob)
			}
			if k == 0 {
				if structKey != wantStruct {
					t.Fatalf("trial %d: batch struct key %s != %s", trial, structKey, wantStruct)
				}
				for i := range wantOrder {
					if order[i] != wantOrder[i] {
						t.Fatalf("trial %d: canonical orders diverge at %d", trial, i)
					}
				}
			}
		}
		// The deep-cloned lane carries the same probabilities as lane 0,
		// so their job keys must also collide (keying is structural, not
		// pointer-based).
		if jobKeys[len(lanes)-1] != jobKeys[0] {
			t.Fatalf("trial %d: equal jobs keyed differently", trial)
		}
	}
}

// TestBatchJobKeysEmpty: no lanes, no keys.
func TestBatchJobKeysEmpty(t *testing.T) {
	jobKeys, structKey, order := BatchJobKeys(nil, nil, "fp", "sfp")
	if jobKeys != nil || structKey != "" || order != nil {
		t.Fatalf("empty batch produced (%v, %q, %v)", jobKeys, structKey, order)
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
// optimizer must not break: a record holding an Optimize()d program
// encodes, decodes to an op-for-op identical program (decoding never
// re-optimizes), and re-encodes byte-identically — so snapshot
// warm-start serves exactly the program that was persisted, whatever
// optimizer version wrote it.
func TestOptimizedProgramRoundTrips(t *testing.T) {
	raw := buildTestProgram(t)
	opt := raw.Optimize()
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
	want, err := raw.ExecCtx(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Program.ExecCtx(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	if want.RatString() != have.RatString() {
		t.Fatalf("optimized round-trip diverged: %s vs %s", have.RatString(), want.RatString())
	}
}
