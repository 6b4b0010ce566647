package core

import (
	"context"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"phom/internal/gen"
	"phom/internal/graph"
)

// tractableJobs generates one (query, instance) pair per tractable cell
// of Tables 1–3, plus a baseline (hard-cell) pair.
func tractableJobs(r *rand.Rand, n int) []struct {
	name string
	q    *graph.Graph
	h    *graph.ProbGraph
} {
	rs := []graph.Label{"R", "S"}
	un := []graph.Label{graph.Unlabeled}
	return []struct {
		name string
		q    *graph.Graph
		h    *graph.ProbGraph
	}{
		{"prop4.10 labeled 1WP on ⊔DWT", gen.Rand1WP(r, 4, rs),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, rs), 0.5)},
		{"prop4.11 connected on ⊔2WP", gen.RandConnected(r, 4, 1, rs),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, n, rs), 0.5)},
		{"prop3.6 any on ⊔DWT", gen.RandGraph(r, 5, 7, un),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, un), 0.5)},
		{"prop5.4/5.5 ⊔DWT on ⊔PT", gen.RandDWT(r, 4, un),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUPT, n, un), 0.5)},
		{"baseline (hard cell)", gen.Rand1WP(r, 3, rs),
			gen.RandProb(r, gen.RandGraph(r, 5, 8, rs), 0.3)},
	}
}

// reweightRandomly assigns fresh random probabilities to every edge.
func reweightRandomly(r *rand.Rand, h *graph.ProbGraph) {
	for i := 0; i < h.G.NumEdges(); i++ {
		if err := h.SetProb(i, big.NewRat(int64(r.Intn(17)), 16)); err != nil {
			panic(err)
		}
	}
}

// TestCompileEvaluateMatchesSolve is the pipeline acceptance test: for
// every tractable cell (and the baselines), Compile(q, h).Evaluate(π)
// must return results byte-identical (RatString) to Solve, both on the
// original probabilities and across reweightings of the same structure.
func TestCompileEvaluateMatchesSolve(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 4; round++ {
		for _, job := range tractableJobs(r, 24) {
			cp, err := Compile(job.q, job.h, nil)
			if err != nil {
				t.Fatalf("%s: Compile: %v", job.name, err)
			}
			if cp.NumEdges() != job.h.G.NumEdges() {
				t.Fatalf("%s: NumEdges = %d, want %d", job.name, cp.NumEdges(), job.h.G.NumEdges())
			}
			for reweight := 0; reweight < 4; reweight++ {
				want, err := Solve(job.q, job.h, nil)
				if err != nil {
					t.Fatalf("%s: Solve: %v", job.name, err)
				}
				got, err := cp.Evaluate(context.Background(), job.h.Probs(), nil)
				if err != nil {
					t.Fatalf("%s: Evaluate: %v", job.name, err)
				}
				if got.Prob.RatString() != want.Prob.RatString() {
					t.Fatalf("%s reweight %d: plan %s, solve %s",
						job.name, reweight, got.Prob.RatString(), want.Prob.RatString())
				}
				if got.Method != want.Method {
					t.Fatalf("%s reweight %d: plan method %v, solve method %v",
						job.name, reweight, got.Method, want.Method)
				}
				if m, ok := cp.Method(); ok && m != want.Method {
					t.Fatalf("%s: declared method %v, solve method %v", job.name, m, want.Method)
				}
				reweightRandomly(r, job.h)
			}
		}
	}
}

// TestCompileUCQEvaluateMatchesSolveUCQ mirrors the pipeline test for
// unions of conjunctive queries across the lifted tractable cells.
func TestCompileUCQEvaluateMatchesSolveUCQ(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rs := []graph.Label{"R", "S"}
	un := []graph.Label{graph.Unlabeled}
	unions := []struct {
		name string
		qs   UCQ
		h    *graph.ProbGraph
	}{
		{"interval union on ⊔2WP",
			UCQ{gen.Rand1WP(r, 3, rs), gen.RandConnected(r, 4, 1, rs)},
			gen.RandProb(r, gen.RandInClass(r, graph.ClassU2WP, 20, rs), 0.5)},
		{"chain union on ⊔DWT",
			UCQ{gen.Rand1WP(r, 3, rs), gen.Rand1WP(r, 4, rs)},
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 20, rs), 0.5)},
		{"graded union on ⊔DWT",
			UCQ{gen.RandGraph(r, 4, 5, un), gen.RandGraph(r, 5, 6, un)},
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 20, un), 0.5)},
		{"automaton union on ⊔PT",
			UCQ{gen.RandDWT(r, 3, un), gen.RandDWT(r, 4, un)},
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUPT, 16, un), 0.5)},
		{"baseline union",
			UCQ{gen.Rand1WP(r, 2, rs), gen.RandConnected(r, 3, 1, rs)},
			gen.RandProb(r, gen.RandGraph(r, 5, 8, rs), 0.3)},
	}
	for _, u := range unions {
		cp, err := CompileUCQ(u.qs, u.h, nil)
		if err != nil {
			t.Fatalf("%s: CompileUCQ: %v", u.name, err)
		}
		for reweight := 0; reweight < 4; reweight++ {
			want, err := SolveUCQ(u.qs, u.h, nil)
			if err != nil {
				t.Fatalf("%s: SolveUCQ: %v", u.name, err)
			}
			got, err := cp.Evaluate(context.Background(), u.h.Probs(), nil)
			if err != nil {
				t.Fatalf("%s: Evaluate: %v", u.name, err)
			}
			if got.Prob.RatString() != want.Prob.RatString() {
				t.Fatalf("%s reweight %d: plan %s, solve %s",
					u.name, reweight, got.Prob.RatString(), want.Prob.RatString())
			}
			if got.Method != want.Method {
				t.Fatalf("%s reweight %d: method %v vs %v", u.name, reweight, got.Method, want.Method)
			}
			reweightRandomly(r, u.h)
		}
	}
}

// TestOpaquePlanSwitchesBaseline: the opaque plan picks brute force or
// lineage per evaluation, matching what a fresh Solve would do on the
// same probabilities.
func TestOpaquePlanSwitchesBaseline(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	rs := []graph.Label{"R", "S"}
	q := gen.Rand1WP(r, 3, rs)
	h := gen.RandProb(r, gen.RandGraph(r, 6, 10, rs), 0.5)
	// A tiny brute-force limit forces the lineage baseline whenever more
	// than one edge is uncertain.
	opts := &Options{BruteForceLimit: 1}
	cp, err := Compile(q, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Opaque() {
		t.Fatal("hard cell must compile to an opaque plan")
	}
	if _, ok := cp.Method(); ok {
		t.Fatal("opaque plans must not declare a method upfront")
	}
	// Certain probabilities: 0 uncertain edges, brute force applies.
	certain := make([]*big.Rat, h.G.NumEdges())
	for i := range certain {
		certain[i] = graph.RatOne
	}
	res, err := cp.Evaluate(context.Background(), certain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodBruteForce {
		t.Fatalf("certain evaluation used %v, want brute force", res.Method)
	}
	// Half probabilities: many uncertain edges, lineage takes over.
	res2, err := cp.Evaluate(context.Background(), halves(h.G.NumEdges()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Method != MethodLineage {
		t.Fatalf("uncertain evaluation used %v, want lineage", res2.Method)
	}
	want, err := Solve(q, reweightedTo(h, halves(h.G.NumEdges())), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Prob.RatString() != want.Prob.RatString() {
		t.Fatalf("opaque plan %s, solve %s", res2.Prob.RatString(), want.Prob.RatString())
	}
}

func halves(n int) []*big.Rat {
	out := make([]*big.Rat, n)
	for i := range out {
		out[i] = graph.RatHalf
	}
	return out
}

func reweightedTo(h *graph.ProbGraph, probs []*big.Rat) *graph.ProbGraph {
	h2, err := graph.WithProbs(h.G, slices.Clone(probs))
	if err != nil {
		panic(err)
	}
	return h2
}

// TestPlanEvaluateRejectsBadProbs: evaluation validates the probability
// vector (length, nil entries, [0,1] range).
func TestPlanEvaluateRejectsBadProbs(t *testing.T) {
	q := graph.Path1WP("R")
	h := graph.NewProbGraph(graph.Path1WP("R", "R"))
	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Evaluate(context.Background(), []*big.Rat{graph.RatOne}, nil); err == nil {
		t.Error("short vector accepted")
	}
	if _, err := cp.Evaluate(context.Background(), []*big.Rat{graph.RatOne, nil}, nil); err == nil {
		t.Error("nil probability accepted")
	}
	if _, err := cp.Evaluate(context.Background(), []*big.Rat{graph.RatOne, big.NewRat(3, 2)}, nil); err == nil {
		t.Error("probability > 1 accepted")
	}
}

// TestOptionsValidate: negative limits are rejected by Solve, SolveUCQ
// and Compile instead of silently meaning "unbounded".
func TestOptionsValidate(t *testing.T) {
	q := graph.Path1WP("R")
	h := graph.NewProbGraph(graph.Path1WP("R"))
	for name, opts := range map[string]*Options{
		"negative brute limit": {BruteForceLimit: -1},
		"negative match limit": {MatchLimit: -7},
	} {
		if _, err := Solve(q, h, opts); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("Solve with %s: err = %v, want negative-limit rejection", name, err)
		}
		if _, err := SolveUCQ(UCQ{q}, h, opts); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("SolveUCQ with %s: err = %v, want negative-limit rejection", name, err)
		}
		if _, err := Compile(q, h, opts); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("Compile with %s: err = %v, want negative-limit rejection", name, err)
		}
	}
	if err := (*Options)(nil).Validate(); err != nil {
		t.Errorf("nil options must validate: %v", err)
	}
	if err := (&Options{BruteForceLimit: 10, MatchLimit: 100}).Validate(); err != nil {
		t.Errorf("positive limits must validate: %v", err)
	}
}

// TestFingerprintRoundTrip: nil options and explicitly spelled-out
// defaults fingerprint identically (they select the same behavior and
// must share cache entries), while any differing field — including the
// fallback switch — fingerprints apart.
func TestFingerprintRoundTrip(t *testing.T) {
	var nilOpts *Options
	explicit := &Options{
		BruteForceLimit: DefaultBruteForceLimit,
		MatchLimit:      DefaultMatchLimit,
	}
	if nilOpts.Fingerprint() != explicit.Fingerprint() {
		t.Errorf("nil vs explicit defaults: %q vs %q", nilOpts.Fingerprint(), explicit.Fingerprint())
	}
	if (&Options{}).Fingerprint() != nilOpts.Fingerprint() {
		t.Errorf("zero options differ from nil: %q vs %q", (&Options{}).Fingerprint(), nilOpts.Fingerprint())
	}
	distinct := []*Options{
		{BruteForceLimit: 3},
		{MatchLimit: 9},
		{DisableFallback: true},
	}
	seen := map[string]bool{nilOpts.Fingerprint(): true}
	for _, o := range distinct {
		fp := o.Fingerprint()
		if seen[fp] {
			t.Errorf("options %+v collide with a previous fingerprint %q", o, fp)
		}
		seen[fp] = true
	}
}
