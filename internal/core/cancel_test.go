package core

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/phomerr"
)

// hardHalfInstance builds an unlabeled instance with cycles (so no
// tractable cell applies to any query) whose every edge is uncertain at
// probability 1/2 — the worst case for the brute-force baseline:
// 2^edges possible worlds.
func hardHalfInstance(t *testing.T, n, extra int) *graph.ProbGraph {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	g := gen.RandConnected(r, n, extra, nil)
	h := graph.NewProbGraph(g)
	for i := 0; i < g.NumEdges(); i++ {
		if err := h.SetProb(i, graph.RatHalf); err != nil {
			t.Fatal(err)
		}
	}
	if g.InClass(graph.ClassUPT) || g.InClass(graph.ClassU2WP) || g.InClass(graph.ClassUDWT) {
		t.Fatal("hard instance accidentally fell in a tractable class")
	}
	return h
}

// pollCancelCtx is a context that reports cancellation from its
// (k+1)-th poll of Err or Done on, so a test can cancel a computation at
// an exact checkpoint instead of racing a timer against it.
type pollCancelCtx struct {
	context.Context
	k, polls int
	done     chan struct{}
}

func newPollCancelCtx(k int) *pollCancelCtx {
	return &pollCancelCtx{Context: context.Background(), k: k, done: make(chan struct{})}
}

func (c *pollCancelCtx) poll() bool {
	c.polls++
	if c.polls == c.k+1 {
		close(c.done)
	}
	return c.polls > c.k
}

func (c *pollCancelCtx) Err() error {
	if c.poll() {
		return context.Canceled
	}
	return nil
}

func (c *pollCancelCtx) Done() <-chan struct{} {
	c.poll()
	return c.done
}

// TestBruteForceCancelMidEnumeration: cancelling the context while the
// possible-world enumeration runs aborts it within the checkpoint
// contract — at the first poll that sees the cancellation, with an
// error satisfying both the typed and the context-package sentinels —
// instead of walking all 2^24 worlds.
func TestBruteForceCancelMidEnumeration(t *testing.T) {
	h := hardHalfInstance(t, 12, 13) // ≥ 24 uncertain edges
	q := graph.UnlabeledPath(3)
	const k = 3 // the enumeration is k checkpoint intervals in when cancelled
	ctx := newPollCancelCtx(k)
	_, err := BruteForceLimitContext(ctx, q, h, h.G.NumEdges())
	if !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v must unwrap to context.Canceled", err)
	}
	if ctx.polls != k+1 {
		t.Fatalf("enumeration polled the context %d times, want it to stop at poll %d", ctx.polls, k+1)
	}
}

// TestOpaqueEvaluateCanceledDeterministic: an opaque plan evaluated
// under an already-cancelled context aborts at the first checkpoint of
// its baseline — deterministically, because the world recursion has
// more than phomerr.CheckInterval branches.
func TestOpaqueEvaluateCanceledDeterministic(t *testing.T) {
	h := hardHalfInstance(t, 8, 6) // ≥ 13 uncertain edges → > 2^13 branches
	q := graph.UnlabeledPath(3)
	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Opaque() {
		t.Fatal("expected an opaque plan on the hard cell")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cp.Evaluate(ctx, h.Probs(), nil); !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("opaque evaluate err = %v, want ErrCanceled", err)
	}
	// The same plan still evaluates fine under a live context.
	res, err := cp.Evaluate(context.Background(), h.Probs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prob.Sign() <= 0 {
		t.Fatalf("implausible probability %s", res.Prob.RatString())
	}
}

// TestCompileContextPreCanceled: every context-aware entry point
// rejects an already-done context up front with the typed error.
func TestCompileContextPreCanceled(t *testing.T) {
	q := graph.UnlabeledPath(2)
	h := graph.NewProbGraph(graph.UnlabeledPath(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := CompileContext(ctx, q, h, nil); !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("CompileContext err = %v, want ErrCanceled", err)
	}
	if _, err := CompileUCQContext(ctx, UCQ{q}, h, nil); !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("CompileUCQContext err = %v, want ErrCanceled", err)
	}
	if _, err := SolveContext(ctx, q, h, nil); !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("SolveContext err = %v, want ErrCanceled", err)
	}
	if _, err := SolveUCQContext(ctx, UCQ{q}, h, nil); !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("SolveUCQContext err = %v, want ErrCanceled", err)
	}
	if _, _, err := CountWorldsContext(ctx, q, h, nil); !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("CountWorldsContext err = %v, want ErrCanceled", err)
	}
}

// TestSolveContextDeadline: an expired deadline surfaces as ErrDeadline
// (and context.DeadlineExceeded), distinct from ErrCanceled.
func TestSolveContextDeadline(t *testing.T) {
	q := graph.UnlabeledPath(2)
	h := graph.NewProbGraph(graph.UnlabeledPath(4))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := SolveContext(ctx, q, h, nil)
	if !errors.Is(err, phomerr.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("err = %v must not be ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v must unwrap to context.DeadlineExceeded", err)
	}
}

// TestTypedErrorCodes pins the taxonomy on the classic failure modes.
func TestTypedErrorCodes(t *testing.T) {
	q := graph.UnlabeledPath(3)
	hard := hardHalfInstance(t, 8, 6)

	// Intractable: fallback disabled on a #P-hard cell.
	if _, err := Solve(q, hard, &Options{DisableFallback: true}); !errors.Is(err, phomerr.ErrIntractable) {
		t.Fatalf("DisableFallback err = %v, want ErrIntractable", err)
	}
	// Limit: more uncertain edges than the brute-force cap accepts.
	if _, err := BruteForceLimitContext(context.Background(), q, hard, 2); !errors.Is(err, phomerr.ErrLimit) {
		t.Fatalf("BruteForceLimit err = %v, want ErrLimit", err)
	}
	// Limit through the lineage match cap.
	if _, err := LineageShannonContext(context.Background(), q, hard, 1); !errors.Is(err, phomerr.ErrLimit) {
		t.Fatalf("LineageShannon err = %v, want ErrLimit", err)
	}
	// Bad input: negative limits, empty graphs, bad probabilities.
	if err := (&Options{BruteForceLimit: -1}).Validate(); !errors.Is(err, phomerr.ErrBadInput) {
		t.Fatalf("Validate err = %v, want ErrBadInput", err)
	}
	if _, err := Compile(graph.New(0), hard, nil); !errors.Is(err, phomerr.ErrBadInput) {
		t.Fatalf("empty query err = %v, want ErrBadInput", err)
	}
	if _, _, err := CountWorlds(q, hard2Thirds(t), nil); !errors.Is(err, phomerr.ErrBadInput) {
		t.Fatalf("CountWorlds err = %v, want ErrBadInput", err)
	}
	cp, err := Compile(graph.UnlabeledPath(2), graph.NewProbGraph(graph.UnlabeledPath(4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Evaluate(context.Background(), []*big.Rat{big.NewRat(1, 2)}, nil); !errors.Is(err, phomerr.ErrBadInput) {
		t.Fatalf("short prob vector err = %v, want ErrBadInput", err)
	}
}

func hard2Thirds(t *testing.T) *graph.ProbGraph {
	t.Helper()
	h := graph.NewProbGraph(graph.UnlabeledPath(3))
	if err := h.SetProb(0, big.NewRat(2, 3)); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestContextCompletionByteIdentical: a run that completes under a live
// context is byte-identical to the context-free call, on a tractable
// and on a hard cell.
func TestContextCompletionByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cases := []struct {
		name string
		q    *graph.Graph
		h    *graph.ProbGraph
	}{
		{"tractable-2wp", gen.Rand1WP(r, 3, nil), gen.RandProb(r, gen.Rand2WP(r, 9, nil), 0.4)},
		{"hard-opaque", graph.UnlabeledPath(3), hardHalfInstance(t, 7, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v1, err1 := Solve(tc.q, tc.h, nil)
			v2, err2 := SolveContext(context.Background(), tc.q, tc.h, nil)
			if err1 != nil || err2 != nil {
				t.Fatalf("errs: %v, %v", err1, err2)
			}
			if v1.Prob.RatString() != v2.Prob.RatString() || v1.Method != v2.Method {
				t.Fatalf("v1 (%s, %v) != v2 (%s, %v)",
					v1.Prob.RatString(), v1.Method, v2.Prob.RatString(), v2.Method)
			}
		})
	}
}
