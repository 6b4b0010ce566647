package core

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/phomerr"
)

// TestEvaluateBatchMatchesPerLane is the batch API's acceptance test:
// for every tractable cell and every precision mode, each lane of
// EvaluateBatch is identical — probability bytes, method, precision
// served, certified bounds — to an independent Evaluate call on that
// lane's vector.
func TestEvaluateBatchMatchesPerLane(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	modes := []*Options{
		nil,
		{Precision: PrecisionFast},
		{Precision: PrecisionAuto},
		{Precision: PrecisionAuto, FloatTolerance: 1e-30}, // forces fallback lanes
	}
	for _, job := range tractableJobs(r, 16) {
		cp, err := Compile(job.q, job.h, nil)
		if err != nil {
			t.Fatalf("%s: Compile: %v", job.name, err)
		}
		n := job.h.G.NumEdges()
		lanes := 5
		vecs := make([][]*big.Rat, lanes)
		for k := range vecs {
			vecs[k] = make([]*big.Rat, n)
			for i := range vecs[k] {
				vecs[k][i] = big.NewRat(int64(r.Intn(17)), 16)
			}
		}
		for _, opts := range modes {
			if cp.Opaque() && opts.EffectivePrecision() != PrecisionExact {
				continue // opaque evaluation under float modes is covered below
			}
			got := cp.EvaluateBatch(context.Background(), vecs, opts)
			if len(got) != lanes {
				t.Fatalf("%s: %d outcomes for %d lanes", job.name, len(got), lanes)
			}
			for k := range vecs {
				want, err := cp.Evaluate(context.Background(), vecs[k], opts)
				if err != nil {
					t.Fatalf("%s lane %d: %v", job.name, k, err)
				}
				if got[k].Err != nil {
					t.Fatalf("%s lane %d: batch error %v", job.name, k, got[k].Err)
				}
				res := got[k].Result
				if res.Prob.Cmp(want.Prob) != 0 {
					t.Fatalf("%s lane %d (%s): batch %s != single %s",
						job.name, k, opts.Fingerprint(), res.Prob.RatString(), want.Prob.RatString())
				}
				if res.Precision != want.Precision || res.Method != want.Method {
					t.Fatalf("%s lane %d: batch (%v, %v) != single (%v, %v)",
						job.name, k, res.Precision, res.Method, want.Precision, want.Method)
				}
				if (res.Bounds == nil) != (want.Bounds == nil) {
					t.Fatalf("%s lane %d: bounds presence mismatch", job.name, k)
				}
				if res.Bounds != nil && *res.Bounds != *want.Bounds {
					t.Fatalf("%s lane %d: batch bounds %v != single %v", job.name, k, res.Bounds, want.Bounds)
				}
			}
		}
	}
}

// TestEvaluateBatchOpaque: opaque plans batch by degrading to the
// per-lane loop; results still match single-vector evaluation.
func TestEvaluateBatchOpaque(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	rs := []graph.Label{"R", "S"}
	q := gen.Rand1WP(r, 3, rs)
	h := gen.RandProb(r, gen.RandGraph(r, 5, 7, rs), 0.5)
	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Opaque() {
		t.Skip("random hard cell compiled tractable")
	}
	n := h.G.NumEdges()
	vecs := make([][]*big.Rat, 3)
	for k := range vecs {
		vecs[k] = make([]*big.Rat, n)
		for i := range vecs[k] {
			vecs[k][i] = big.NewRat(int64(r.Intn(5)), 4)
		}
	}
	for _, opts := range []*Options{nil, {Precision: PrecisionFast}} {
		got := cp.EvaluateBatch(context.Background(), vecs, opts)
		for k := range vecs {
			want, err := cp.Evaluate(context.Background(), vecs[k], opts)
			if err != nil {
				t.Fatal(err)
			}
			if got[k].Err != nil || got[k].Result.Prob.Cmp(want.Prob) != 0 {
				t.Fatalf("lane %d: batch (%v, %v) != single %s",
					k, got[k].Result, got[k].Err, want.Prob.RatString())
			}
		}
	}
}

// TestEvaluateBatchBadLaneIsolated: a malformed lane fails with a typed
// bad-input error while its neighbours evaluate normally.
func TestEvaluateBatchBadLaneIsolated(t *testing.T) {
	q := graph.Path1WP("R")
	hg := graph.New(3)
	hg.MustAddEdge(0, 1, "R")
	hg.MustAddEdge(1, 2, "R")
	h := graph.NewProbGraph(hg)
	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := []*big.Rat{big.NewRat(1, 2), big.NewRat(1, 3)}
	vecs := [][]*big.Rat{
		good,
		{big.NewRat(1, 2)},                   // wrong length
		{big.NewRat(1, 2), nil},              // nil entry
		{big.NewRat(3, 2), big.NewRat(0, 1)}, // out of range
		good,
	}
	for _, opts := range []*Options{nil, {Precision: PrecisionFast}, {Precision: PrecisionAuto}} {
		got := cp.EvaluateBatch(context.Background(), vecs, opts)
		for _, k := range []int{1, 2, 3} {
			if got[k].Err == nil || !errors.Is(got[k].Err, phomerr.ErrBadInput) {
				t.Fatalf("opts %s lane %d: err = %v, want ErrBadInput", opts.Fingerprint(), k, got[k].Err)
			}
		}
		want, err := cp.Evaluate(context.Background(), good, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 4} {
			if got[k].Err != nil || got[k].Result.Prob.Cmp(want.Prob) != 0 {
				t.Fatalf("opts %s lane %d: good lane damaged: (%v, %v)",
					opts.Fingerprint(), k, got[k].Result, got[k].Err)
			}
		}
	}
}

// TestEvaluateBatchCanceled: a cancelled context surfaces the typed
// cancellation error on the affected lanes.
func TestEvaluateBatchCanceled(t *testing.T) {
	q := graph.Path1WP("R")
	hg := graph.New(2)
	hg.MustAddEdge(0, 1, "R")
	h := graph.NewProbGraph(hg)
	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vecs := [][]*big.Rat{{big.NewRat(1, 3)}, {big.NewRat(1, 7)}}
	// The one-op program finishes under any checkpoint interval, so use
	// exact mode, whose per-lane ExecCtx checks the context up front...
	got := cp.EvaluateBatch(ctx, vecs, nil)
	for k := range got {
		if got[k].Err == nil {
			// Tiny programs may complete before the first checkpoint;
			// that is allowed by the cancellation contract.
			continue
		}
		if !errors.Is(got[k].Err, phomerr.ErrCanceled) {
			t.Fatalf("lane %d: err = %v, want ErrCanceled", k, got[k].Err)
		}
	}
	if got[0].Err == nil && got[0].Result == nil {
		t.Fatal("lane 0: neither result nor error")
	}
}
