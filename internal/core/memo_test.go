package core

import (
	"context"
	"math/big"
	"testing"

	"phom/internal/graph"
	"phom/internal/instance"
	"phom/internal/plan"
)

// TestEvaluateMemoCarriesAcrossSplice pins core's part-memo surface on
// a three-path ⊔2WP plan: EvaluateMemo answers what Evaluate answers,
// an unchanged vector reuses every part, a plan restored from bytes
// derives its ownership too, other precisions return no memo, and
// CarryMemo hands the untouched parts of a splice on to the patched
// plan, but nothing to a plan that was not spliced from the memo's.
func TestEvaluateMemoCarriesAcrossSplice(t *testing.T) {
	ctx := context.Background()
	p := func() *graph.Graph { return graph.UnlabeledPath(2) }
	g, _ := graph.DisjointUnion(p(), p(), p())
	h := graph.NewProbGraph(g)
	for i := 0; i < g.NumEdges(); i++ {
		h.SetProb(i, big.NewRat(int64(1+i), 10))
	}
	inst, err := instance.New("memo", h)
	if err != nil {
		t.Fatal(err)
	}
	h = inst.Snapshot().H // the instance's own values, which the splice keeps
	q := graph.UnlabeledPath(1)
	old, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(cp *CompiledPlan, probs []*big.Rat, memo *plan.PartMemo, wantReused, wantEvaluated int) *plan.PartMemo {
		t.Helper()
		got, next, err := cp.EvaluateMemo(ctx, probs, nil, memo)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cp.Evaluate(ctx, probs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Prob.RatString() != want.Prob.RatString() || got.Method != want.Method {
			t.Fatalf("EvaluateMemo %s (%v), Evaluate %s (%v)", got.Prob.RatString(), got.Method, want.Prob.RatString(), want.Method)
		}
		if next == nil {
			t.Fatal("no memo returned")
		}
		if r, e := next.Counts(); r != wantReused || e != wantEvaluated {
			t.Fatalf("reused %d, evaluated %d; want %d, %d", r, e, wantReused, wantEvaluated)
		}
		return next
	}
	memo := check(old, h.Probs(), nil, 0, 3)
	memo = check(old, h.Probs(), memo, 3, 0)
	restored := roundTrip(t, old)
	check(restored, h.Probs(), memo, 0, 3) // another program: memo ignored
	if _, next, err := old.EvaluateMemo(ctx, h.Probs(), &Options{Precision: PrecisionFast}, memo); err != nil || next != nil {
		t.Fatalf("fast precision: memo %v, err %v", next, err)
	}

	if _, err := inst.Apply(-1, []instance.Delta{{Op: instance.OpRemoveEdge, From: 3, To: 4}}); err != nil {
		t.Fatal(err)
	}
	newH := inst.Snapshot().H
	cp, incremental, err := PatchCompile(q, old, g, newH, nil)
	if err != nil || !incremental {
		t.Fatalf("PatchCompile: incremental %v, err %v", incremental, err)
	}
	if restored.CarryMemo(old, memo) != nil || cp.CarryMemo(restored, memo) != nil {
		t.Fatal("CarryMemo carried a memo into a plan not spliced from its program")
	}
	carried := cp.CarryMemo(old, memo)
	// Components {0,1,2} and {6,7,8} carry over; {3} and {4,5} are new,
	// and {3} has no edge, hence no factor to evaluate.
	check(cp, newH.Probs(), carried, 2, 1)
}
