package plan

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"phom/internal/betadnf"
	"phom/internal/phomerr"
)

// bigInterval builds an interval system over nVars variables, variable
// i on edge i, whose lowering emits far more than phomerr.CheckInterval
// ops, so the Builder's context checkpoint is guaranteed to fire during
// the compile-time dynamic program.
func bigInterval(nVars, clauseLen int) *betadnf.IntervalSystem {
	sys := &betadnf.IntervalSystem{NumVars: nVars}
	for lo := 0; lo+clauseLen-1 < nVars; lo += 2 {
		sys.Clauses = append(sys.Clauses, betadnf.Interval{Lo: lo, Hi: lo + clauseLen - 1})
	}
	return sys
}

// lowerInterval builds the program of sys over its first NumVars
// instance edges under ctx.
func lowerInterval(ctx context.Context, sys *betadnf.IntervalSystem) (*Program, error) {
	varEdge := make([]int, sys.NumVars)
	for i := range varEdge {
		varEdge[i] = i
	}
	return lowerSystem(ctx, sys.NumVars, varEdge, func(em *edgeMapEmitter) (uint32, error) {
		return sys.EmitOps(em)
	})
}

// TestLowerContextCanceledDeterministic: lowering under an
// already-cancelled context fails with the typed cancellation error —
// deterministically, because the trellis unrolls more than one
// checkpoint interval of ops — while the same lowering under a live
// context succeeds and executes.
func TestLowerContextCanceledDeterministic(t *testing.T) {
	sys := bigInterval(256, 16)
	prog, err := lowerInterval(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumOps() <= phomerr.CheckInterval {
		t.Fatalf("test plan too small: %d ops (need > %d for a guaranteed checkpoint)",
			prog.NumOps(), phomerr.CheckInterval)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = lowerInterval(ctx, sys)
	if !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("lowering err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("lowering err = %v must unwrap to context.Canceled", err)
	}
}

// TestExecCtxCanceledDeterministic: the exact interpreter aborts a
// cancelled execution at an op checkpoint, and a live-context run is
// byte-identical to the interval dynamic program itself.
func TestExecCtxCanceledDeterministic(t *testing.T) {
	sys := bigInterval(256, 16)
	prog, err := lowerInterval(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]*big.Rat, 256)
	for i := range probs {
		probs[i] = big.NewRat(int64(i%7+1), 9)
	}
	want, err := sys.Prob(probs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.ExecCtx(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	if want.RatString() != got.RatString() {
		t.Fatalf("ExecCtx %s != IntervalSystem.Prob %s", got.RatString(), want.RatString())
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
	lower := func(ctx context.Context) (*Program, error) {
		return lowerSystem(ctx, n-1, nodeEdge, func(em *edgeMapEmitter) (uint32, error) {
			return cc.EmitOps(em)
		})
	}
	prog, err := lower(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumOps() <= phomerr.CheckInterval {
		t.Fatalf("chain plan too small: %d ops", prog.NumOps())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lower(ctx); !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("chain lowering err = %v, want ErrCanceled", err)
	}
}
