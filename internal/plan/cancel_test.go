package plan

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"phom/internal/betadnf"
	"phom/internal/phomerr"
)

// bigIntervalPlan builds an interval-system plan whose lowering emits
// far more than phomerr.CheckInterval ops, so the Builder's context
// checkpoint is guaranteed to fire during the compile-time dynamic
// program.
func bigIntervalPlan(nVars, clauseLen int) Interval {
	sys := &betadnf.IntervalSystem{NumVars: nVars}
	for lo := 0; lo+clauseLen-1 < nVars; lo += 2 {
		sys.Clauses = append(sys.Clauses, betadnf.Interval{Lo: lo, Hi: lo + clauseLen - 1})
	}
	varEdge := make([]int, nVars)
	for i := range varEdge {
		varEdge[i] = i
	}
	return Interval{System: sys, VarEdge: varEdge}
}

// TestLowerContextCanceledDeterministic: LowerContext under an
// already-cancelled context fails with the typed cancellation error —
// deterministically, because the trellis unrolls more than one
// checkpoint interval of ops — while the same lowering under a live
// context succeeds and executes.
func TestLowerContextCanceledDeterministic(t *testing.T) {
	p := bigIntervalPlan(256, 16)
	prog, err := LowerContext(context.Background(), p, 256)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumOps() <= phomerr.CheckInterval {
		t.Fatalf("test plan too small: %d ops (need > %d for a guaranteed checkpoint)",
			prog.NumOps(), phomerr.CheckInterval)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = LowerContext(ctx, p, 256)
	if !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("LowerContext err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("LowerContext err = %v must unwrap to context.Canceled", err)
	}
}

// TestExecCtxCanceledDeterministic: the exact interpreter aborts a
// cancelled execution at an op checkpoint, and a live-context run is
// byte-identical to the plan tree's evaluation.
func TestExecCtxCanceledDeterministic(t *testing.T) {
	p := bigIntervalPlan(256, 16)
	prog, err := LowerContext(context.Background(), p, 256)
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]*big.Rat, 256)
	for i := range probs {
		probs[i] = big.NewRat(int64(i%7+1), 9)
	}
	want, err := p.Evaluate(probs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.ExecCtx(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	if want.RatString() != got.RatString() {
		t.Fatalf("ExecCtx %s != tree Evaluate %s", got.RatString(), want.RatString())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prog.ExecCtx(ctx, probs); !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("ExecCtx err = %v, want ErrCanceled", err)
	}
}

// TestChainEmitCanceled: the chain-system compile loop (betadnf) also
// honors the builder's sticky cancellation through its emitterFailed
// checks.
func TestChainEmitCanceled(t *testing.T) {
	n := 600
	parent := make([]int, n)
	chainLen := make([]int, n)
	nodeEdge := make([]int, n)
	parent[0], nodeEdge[0] = -1, -1
	for v := 1; v < n; v++ {
		parent[v] = v - 1
		nodeEdge[v] = v - 1
		if v%3 == 0 {
			chainLen[v] = 3
		}
	}
	cc, err := (&betadnf.ChainSystem{Parent: parent, ChainLen: chainLen}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := Chain{System: cc, NodeEdge: nodeEdge}
	prog, err := LowerContext(context.Background(), p, n-1)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumOps() <= phomerr.CheckInterval {
		t.Fatalf("chain plan too small: %d ops", prog.NumOps())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LowerContext(ctx, p, n-1); !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("chain LowerContext err = %v, want ErrCanceled", err)
	}
}
