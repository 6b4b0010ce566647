package phom

import (
	"context"
	"errors"
	"testing"
	"time"

	"phom/internal/core"
)

// reqTestInstance builds a small ⊔2WP instance with mixed
// probabilities.
func reqTestInstance(t *testing.T) *ProbGraph {
	t.Helper()
	g := Path2WP(Fwd("R"), Fwd("S"), Bwd("R"), Fwd("S"), Fwd("R"))
	h := NewProbGraph(g)
	probs := []string{"1/2", "1/3", "1", "3/4", "2/5"}
	for i, p := range probs {
		if err := h.SetProb(i, Rat(p)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// hardRequestPair is a #P-hard pair small enough to brute-force in a
// test.
func hardRequestPair(t *testing.T) (*Graph, *ProbGraph) {
	t.Helper()
	g := New(4)
	edges := [][2]Vertex{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 0}, {1, 3}}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1], Unlabeled); err != nil {
			t.Fatal(err)
		}
	}
	h := NewProbGraph(g)
	for i := 0; i < g.NumEdges(); i++ {
		if err := h.SetProb(i, Rat("1/2")); err != nil {
			t.Fatal(err)
		}
	}
	return UnlabeledPath(2), h
}

// TestV1ShimsByteIdenticalToV2: the satellite differential — Solve,
// SolveUCQ and Compile answer byte-identically to the v2 request path
// they now delegate to, on a tractable cell, a UCQ, and a hard cell.
func TestV1ShimsByteIdenticalToV2(t *testing.T) {
	ctx := context.Background()
	h := reqTestInstance(t)
	q := Path1WP("R", "S")
	hq, hh := hardRequestPair(t)

	t.Run("solve", func(t *testing.T) {
		for _, pair := range []struct {
			name string
			q    *Graph
			h    *ProbGraph
		}{{"tractable", q, h}, {"hard", hq, hh}} {
			v1, err1 := Solve(pair.q, pair.h, nil)
			v2, err2 := SolveContext(ctx, NewRequest(pair.q, pair.h))
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: errs %v, %v", pair.name, err1, err2)
			}
			if v1.Prob.RatString() != v2.Prob.RatString() || v1.Method != v2.Method {
				t.Fatalf("%s: v1 (%s, %v) != v2 (%s, %v)", pair.name,
					v1.Prob.RatString(), v1.Method, v2.Prob.RatString(), v2.Method)
			}
		}
	})
	t.Run("solve-ucq", func(t *testing.T) {
		// Multi-disjunct, single-disjunct, empty, and nil unions: each
		// must answer exactly as core.SolveUCQ, Method included.
		for _, qs := range []UCQ{
			{Path1WP("R", "S"), Path1WP("S", "R")},
			{UnlabeledPath(2)},
			{},
			nil,
		} {
			v1, err1 := SolveUCQ(qs, h, nil)
			ref, errRef := core.SolveUCQ(qs, h, nil)
			v2, err2 := SolveContext(ctx, NewUCQRequest(qs, h))
			if err1 != nil || err2 != nil || errRef != nil {
				t.Fatalf("union %d: errs %v, %v, %v", len(qs), err1, err2, errRef)
			}
			for name, v := range map[string]*Result{"shim": v1, "v2": v2} {
				if v.Prob.RatString() != ref.Prob.RatString() || v.Method != ref.Method {
					t.Fatalf("union %d: %s (%s, %v) != core.SolveUCQ (%s, %v)", len(qs),
						name, v.Prob.RatString(), v.Method, ref.Prob.RatString(), ref.Method)
				}
			}
		}
	})
	t.Run("one-disjunct", func(t *testing.T) {
		// An unlabeled path instance is both ⊔2WP and ⊔DWT, where the
		// lifted cells overlap: a one-disjunct union routes exactly like
		// its query.
		hp := NewProbGraph(UnlabeledPath(4))
		for i := 0; i < 4; i++ {
			if err := hp.SetProb(i, Rat("2/3")); err != nil {
				t.Fatal(err)
			}
		}
		single, err1 := SolveContext(ctx, NewRequest(UnlabeledPath(2), hp))
		union, err2 := SolveContext(ctx, NewUCQRequest(UCQ{UnlabeledPath(2)}, hp))
		if err1 != nil || err2 != nil {
			t.Fatalf("errs %v, %v", err1, err2)
		}
		if single.Prob.RatString() != union.Prob.RatString() || single.Method != union.Method {
			t.Fatalf("query (%s, %v) != one-disjunct union (%s, %v)",
				single.Prob.RatString(), single.Method, union.Prob.RatString(), union.Method)
		}
		if single.Method != MethodXProperty2WP {
			t.Fatalf("routed to %v, want %v", single.Method, MethodXProperty2WP)
		}
	})
	t.Run("compile", func(t *testing.T) {
		p1, err1 := Compile(q, h, nil)
		p2, err2 := CompileContext(ctx, NewRequest(q, h))
		if err1 != nil || err2 != nil {
			t.Fatalf("errs %v, %v", err1, err2)
		}
		b1, err1 := p1.MarshalBinary()
		b2, err2 := p2.MarshalBinary()
		if err1 != nil || err2 != nil {
			t.Fatalf("marshal errs %v, %v", err1, err2)
		}
		if string(b1) != string(b2) {
			t.Fatal("v1 and v2 compiled plans differ in serialized form")
		}
	})
}

// TestRequestOptionsComposeIntoSolverOptions: the functional options
// build the same core options a v1 caller would pass explicitly, and
// WithOptions copies rather than aliases.
func TestRequestOptionsComposeIntoSolverOptions(t *testing.T) {
	req := NewRequest(UnlabeledPath(2), NewProbGraph(UnlabeledPath(3)),
		WithBruteForceLimit(10),
		WithMatchLimit(100),
		WithoutFallback(),
		WithPrecision(PrecisionAuto),
		WithFloatTolerance(1e-6),
		WithTimeout(time.Minute),
	)
	want := Options{BruteForceLimit: 10, MatchLimit: 100, DisableFallback: true,
		Precision: PrecisionAuto, FloatTolerance: 1e-6}
	if req.Opts == nil || *req.Opts != want {
		t.Fatalf("composed options %+v, want %+v", req.Opts, want)
	}
	if req.Timeout != time.Minute {
		t.Fatalf("Timeout = %v", req.Timeout)
	}

	base := &Options{BruteForceLimit: 5}
	req2 := NewRequest(UnlabeledPath(2), NewProbGraph(UnlabeledPath(3)),
		WithOptions(base), WithMatchLimit(7))
	if base.MatchLimit != 0 {
		t.Fatal("WithOptions aliased the caller's Options struct")
	}
	if req2.Opts.BruteForceLimit != 5 || req2.Opts.MatchLimit != 7 {
		t.Fatalf("options after WithOptions+WithMatchLimit: %+v", req2.Opts)
	}
}

// TestRequestValidationTyped: requests without a query or instance are
// typed bad-input failures, not panics.
func TestRequestValidationTyped(t *testing.T) {
	ctx := context.Background()
	if _, err := SolveContext(ctx, Request{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty request err = %v, want ErrBadInput", err)
	}
	if _, err := SolveContext(ctx, NewRequest(UnlabeledPath(2), nil)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil instance err = %v, want ErrBadInput", err)
	}
	if _, err := CompileContext(ctx, NewUCQRequest(UCQ{nil}, reqTestInstance(t))); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil disjunct err = %v, want ErrBadInput", err)
	}
}

// TestRequestTimeoutAndCancel: WithTimeout and context cancellation
// surface as the documented sentinels through the public API.
func TestRequestTimeoutAndCancel(t *testing.T) {
	hq, hh := hardRequestPair(t)
	bigQ, bigH := hq, hh
	// A bigger hard pair so the timeout reliably fires first.
	{
		g := New(8)
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8 && j <= i+3; j++ {
				if err := g.AddEdge(Vertex(i), Vertex(j), Unlabeled); err != nil {
					t.Fatal(err)
				}
			}
		}
		h := NewProbGraph(g)
		for i := 0; i < g.NumEdges(); i++ {
			if err := h.SetProb(i, Rat("1/2")); err != nil {
				t.Fatal(err)
			}
		}
		bigH = h
		bigQ = UnlabeledPath(2)
	}
	req := NewRequest(bigQ, bigH, WithTimeout(30*time.Millisecond),
		WithBruteForceLimit(bigH.G.NumEdges()))
	if _, err := SolveContext(context.Background(), req); !errors.Is(err, ErrDeadline) {
		t.Fatalf("timeout err = %v, want ErrDeadline", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveContext(ctx, NewRequest(hq, hh)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel err = %v, want ErrCanceled", err)
	}
	if CodeOf(context.Canceled) != CodeCanceled {
		t.Fatal("CodeOf(context.Canceled) != CodeCanceled")
	}
}

// TestParseRatTyped: the exported non-panicking parser accepts what Rat
// accepts and rejects garbage with ErrBadInput.
func TestParseRatTyped(t *testing.T) {
	for _, ok := range []string{"1/2", "0.35", "1", "2.5e-3"} {
		r, err := ParseRat(ok)
		if err != nil {
			t.Fatalf("ParseRat(%q): %v", ok, err)
		}
		if r.RatString() != Rat(ok).RatString() {
			t.Fatalf("ParseRat(%q) = %s, Rat = %s", ok, r.RatString(), Rat(ok).RatString())
		}
	}
	for _, bad := range []string{"", "x", "1/", "1e999999999"} {
		if _, err := ParseRat(bad); !errors.Is(err, ErrBadInput) {
			t.Fatalf("ParseRat(%q) err = %v, want ErrBadInput", bad, err)
		}
	}
}

// TestEngineRequestRoundTrip: Request flows through the engine's
// context API unchanged (Request and Job are one type), and streaming
// yields one result per request.
func TestEngineRequestRoundTrip(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 2})
	defer e.Close()
	h := reqTestInstance(t)
	reqs := []Request{
		NewRequest(Path1WP("R", "S"), h),
		NewUCQRequest(UCQ{Path1WP("R"), Path1WP("S")}, h),
	}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		res, err := SolveContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Prob.RatString()
		jr := e.DoContext(context.Background(), req)
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
		if jr.Result.Prob.RatString() != want[i] {
			t.Fatalf("engine result %s != direct %s", jr.Result.Prob.RatString(), want[i])
		}
	}
	seen := 0
	for sr := range e.Stream(context.Background(), reqs) {
		if sr.Err != nil {
			t.Fatal(sr.Err)
		}
		if sr.Result.Prob.RatString() != want[sr.Index] {
			t.Fatalf("stream result %d: %s != %s", sr.Index, sr.Result.Prob.RatString(), want[sr.Index])
		}
		seen++
	}
	if seen != len(reqs) {
		t.Fatalf("stream delivered %d of %d", seen, len(reqs))
	}
}
