package main

// e26.go — E26: Karp–Luby (ε,δ) approximation on the #P-hard cells.
//
// The experiment demonstrates the approx mode's reason to exist: hard
// cells beyond the exact baselines' horizon, where exact evaluation
// refuses, are answered by the seeded Karp–Luby estimator at a cost
// that scales with the Dyer sample count instead of 2^edges.
//
// Phases:
//
//   - calibration: on a hard instance small enough for the brute-force
//     oracle, the estimate is checked against the exact answer across
//     64 fixed seeds — the empirical failure rate of |p̂ − p| ≤ ε·p
//     must stay within the δ budget plus binomial slack (the
//     solver-level statistical suite in internal/core runs the same
//     check with more seeds; here it gates the perf record).
//   - horizon needles: a doubling sweep of hard instances whose
//     uncertain-edge count is far past DefaultBruteForceLimit. Exact
//     mode with the fallback disabled refuses each needle with the
//     typed intractable error and the world enumeration refuses with
//     the typed limit error, while approx answers with statistical
//     bounds — and a same-seed twin run reproduces the estimate
//     byte-for-byte (the determinism contract the serving tier's
//     response caching relies on).

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"time"

	"phom/internal/core"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/phomerr"
)

// hardInstance builds a connected cyclic unlabeled instance (no
// tractable cell applies to any query on it) with every edge uncertain
// at a random probability k/16 ∈ (0,1).
func (e *E) hardInstance(n, extra int) *graph.ProbGraph {
	g := gen.RandConnected(e.r, n, extra, nil)
	if g.InClass(graph.ClassUPT) || g.InClass(graph.ClassU2WP) || g.InClass(graph.ClassUDWT) {
		e.fatalf("hard instance (n=%d) accidentally fell in a tractable class", n)
	}
	h := graph.NewProbGraph(g)
	for i := 0; i < g.NumEdges(); i++ {
		e.check(h.SetProb(i, big.NewRat(int64(1+e.r.Intn(15)), 16)))
	}
	return h
}

func runApproxHardCells(e *E) {
	q := graph.UnlabeledPath(3)

	// Phase one: calibration against the brute-force oracle. 18 edges
	// stay under DefaultBruteForceLimit, so exact mode still answers.
	const seeds = 64
	const eps, delta = 0.3, 0.2
	h := e.hardInstance(10, 8)
	exact, err := core.Solve(q, h, nil)
	e.check(err)
	exactF, _ := exact.Prob.Float64()
	cp, err := core.Compile(q, h, nil)
	e.check(err)
	failures, samples := 0, int64(0)
	start := time.Now()
	for seed := uint64(0); seed < seeds; seed++ {
		res, err := cp.Evaluate(context.Background(), h.Probs(),
			&core.Options{Precision: core.PrecisionApprox, Epsilon: eps, Delta: delta, Seed: seed})
		e.check(err)
		samples += res.ApproxSamples
		p, _ := res.Prob.Float64()
		if diff := p - exactF; diff > eps*exactF || diff < -eps*exactF {
			failures++
		}
	}
	d := time.Since(start)
	// failures ~ Bin(64, q) with q ≤ δ: more than δ·N + 4·√(δ(1−δ)N)
	// ≈ 25 would put the true failure rate above δ.
	if failures > 25 {
		e.fatalf("calibration: %d/%d runs outside ε·p (ε=%v, δ=%v)", failures, seeds, eps, delta)
	}
	m := metric(fmt.Sprintf("calibration edges=%d seeds=%d", h.G.NumEdges(), seeds),
		fmt.Sprintf("fail=%d/%d (δ=%v) samples=%d", failures, seeds, delta, samples), d)
	m.OpsPerSec = float64(samples) / d.Seconds()
	e.emit(m)

	// Phase two: needles beyond the brute-force horizon.
	for _, n := range []int{24, 48, 96} {
		h := e.hardInstance(n, n/2)
		uncertain := len(h.UncertainEdges())
		if uncertain <= core.DefaultBruteForceLimit {
			e.fatalf("needle n=%d has only %d uncertain edges — not past the horizon", n, uncertain)
		}
		// Exact refuses: the world enumeration by its limit, the full
		// exact mode (fallback disabled) with the pinned typed error.
		if _, err := core.BruteForceLimit(q, h, core.DefaultBruteForceLimit); !errors.Is(err, phomerr.ErrLimit) {
			e.fatalf("needle n=%d: brute force at the default limit returned %v, want ErrLimit", n, err)
		}
		if _, err := core.Solve(q, h, &core.Options{DisableFallback: true}); !errors.Is(err, phomerr.ErrIntractable) {
			e.fatalf("needle n=%d: exact solve refused with %v, want ErrIntractable", n, err)
		}
		// Approx answers, seeded.
		opts := &core.Options{Precision: core.PrecisionApprox, Epsilon: 0.2, Delta: 0.1, Seed: uint64(*seed)}
		start := time.Now()
		res, err := core.Solve(q, h, opts)
		e.check(err)
		d := time.Since(start)
		if res.Precision != core.PrecisionApprox || res.Method != core.MethodKarpLuby {
			e.fatalf("needle n=%d served precision %v method %v", n, res.Precision, res.Method)
		}
		p, _ := res.Prob.Float64()
		if res.Bounds == nil || p < res.Bounds.Lo || p > res.Bounds.Hi || res.Bounds.Lo < 0 || res.Bounds.Hi > 1 {
			e.fatalf("needle n=%d: estimate %v outside bounds %+v", n, p, res.Bounds)
		}
		if res.ApproxSamples <= 0 {
			e.fatalf("needle n=%d drew %d samples", n, res.ApproxSamples)
		}
		// Same-seed twin: byte-identical estimate.
		twin, err := core.Solve(q, h, opts)
		e.check(err)
		if twin.Prob.Cmp(res.Prob) != 0 || *twin.Bounds != *res.Bounds || twin.ApproxSamples != res.ApproxSamples {
			e.fatalf("needle n=%d: same-seed twin diverged", n)
		}
		m := metric(fmt.Sprintf("needle edges=%d (horizon %d)", uncertain, core.DefaultBruteForceLimit),
			fmt.Sprintf("p=%.4f±%.4f samples=%d twin=equal", p, (res.Bounds.Hi-res.Bounds.Lo)/2, res.ApproxSamples), d)
		m.OpsPerSec = float64(res.ApproxSamples) / d.Seconds()
		e.emit(m)
	}
}
