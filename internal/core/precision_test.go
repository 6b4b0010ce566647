package core

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/graph"
)

func TestParsePrecision(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
	}{
		{"", PrecisionExact},
		{"exact", PrecisionExact},
		{"fast", PrecisionFast},
		{"auto", PrecisionAuto},
	} {
		got, err := ParsePrecision(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"fats", "EXACT", "float", "auto ", "0"} {
		if _, err := ParsePrecision(bad); err == nil {
			t.Fatalf("ParsePrecision(%q) accepted", bad)
		}
	}
	if PrecisionFast.String() != "fast" || PrecisionAuto.String() != "auto" || PrecisionExact.String() != "exact" {
		t.Fatal("precision names changed")
	}
}

// TestOptionsValidatePrecision pins the new option checks: out-of-range
// precision values and negative/NaN/Inf tolerances are errors, never
// silent defaults.
func TestOptionsValidatePrecision(t *testing.T) {
	good := []Options{
		{},
		{Precision: PrecisionFast},
		{Precision: PrecisionAuto, FloatTolerance: 1e-12},
		{FloatTolerance: 0.5},
		{Precision: PrecisionApprox},
		{Precision: PrecisionApprox, Epsilon: 0.1, Delta: 0.05, Seed: 7},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v", o, err)
		}
	}
	bad := []Options{
		{Precision: Precision(4)},
		{Precision: Precision(-1)},
		{FloatTolerance: -1e-9},
		{FloatTolerance: math.NaN()},
		{FloatTolerance: math.Inf(1)},
		{Precision: PrecisionApprox, Epsilon: 1},
		{Precision: PrecisionApprox, Epsilon: -0.1},
		{Precision: PrecisionApprox, Delta: 1.5},
		{Precision: PrecisionApprox, Delta: math.NaN()},
		{Epsilon: 0.1},
		{Delta: 0.1},
		{Seed: 1},
		{Precision: PrecisionFast, Epsilon: 0.1},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("Validate(%+v) accepted", o)
		}
	}
	// Solve rejects them on entry, like the other option checks.
	q := graph.UnlabeledPath(1)
	h := graph.NewProbGraph(graph.UnlabeledPath(1))
	if _, err := Solve(q, h, &Options{FloatTolerance: math.NaN()}); err == nil {
		t.Fatal("Solve accepted a NaN tolerance")
	}
}

// TestFingerprintPrecision pins that precision and tolerance take part
// in the options fingerprint (the engine's result cache must not serve
// a float answer to an exact-precision job or vice versa), with
// defaults normalizing like the other fields.
func TestFingerprintPrecision(t *testing.T) {
	var nilOpts *Options
	if nilOpts.Fingerprint() != (&Options{Precision: PrecisionExact, FloatTolerance: DefaultFloatTolerance}).Fingerprint() {
		t.Fatal("nil options fingerprint differs from spelled-out defaults")
	}
	seen := map[string]bool{}
	for _, o := range []*Options{
		nil,
		{Precision: PrecisionFast},
		{Precision: PrecisionAuto},
		{Precision: PrecisionAuto, FloatTolerance: 1e-12},
	} {
		fp := o.Fingerprint()
		if seen[fp] {
			t.Fatalf("fingerprint collision for %+v: %s", o, fp)
		}
		seen[fp] = true
	}
	// The tolerance only matters in auto mode: exact and fast jobs
	// never consult it, so it must not split their cache entries.
	if (&Options{Precision: PrecisionFast, FloatTolerance: 1e-6}).Fingerprint() !=
		(&Options{Precision: PrecisionFast, FloatTolerance: 1e-12}).Fingerprint() {
		t.Fatal("unused tolerance split the fast-mode fingerprint")
	}
	// The structure fingerprint strips evaluation policy entirely, so
	// every precision mode shares one compiled-plan identity.
	base := (&Options{}).StructFingerprint()
	for _, o := range []*Options{
		nil,
		{Precision: PrecisionFast},
		{Precision: PrecisionAuto, FloatTolerance: 1e-12},
	} {
		if o.StructFingerprint() != base {
			t.Fatalf("StructFingerprint differs for %+v", o)
		}
	}
	if (&Options{BruteForceLimit: 10}).StructFingerprint() == base {
		t.Fatal("StructFingerprint ignored a compile-affecting option")
	}
}

// TestPrecisionDifferentialGuardRows is the dual-precision acceptance
// differential: for every guard-table row (the four tractable cells and
// every Const short-circuit) and seeded reweightings, the exact answer
// must lie inside the float path's certified enclosure, and the auto
// mode must either serve a within-tolerance float answer or fall back
// to rationals byte-identical to exact precision.
func TestPrecisionDifferentialGuardRows(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var jobs []struct {
		name string
		q    *graph.Graph
		h    *graph.ProbGraph
	}
	for _, j := range tractableJobs(r, 18) {
		if j.name == "baseline (hard cell)" {
			continue // opaque: covered by TestPrecisionOpaqueFallsBack
		}
		jobs = append(jobs, j)
	}
	jobs = append(jobs, constJobs(r, 18)...)
	for _, job := range jobs {
		cp, err := Compile(job.q, job.h, nil)
		if err != nil {
			t.Fatalf("%s: Compile: %v", job.name, err)
		}
		for reweight := 0; reweight < 4; reweight++ {
			probs := job.h.Probs()
			exact, err := cp.Evaluate(context.Background(), probs, nil)
			if err != nil {
				t.Fatalf("%s: exact: %v", job.name, err)
			}
			if exact.Precision != PrecisionExact || exact.Bounds != nil {
				t.Fatalf("%s: exact result claims substrate %v, bounds %v", job.name, exact.Precision, exact.Bounds)
			}

			fast, err := cp.Evaluate(context.Background(), probs, &Options{Precision: PrecisionFast})
			if err != nil {
				t.Fatalf("%s: fast: %v", job.name, err)
			}
			if fast.Precision != PrecisionFast || fast.Bounds == nil {
				t.Fatalf("%s: fast result has substrate %v, bounds %v", job.name, fast.Precision, fast.Bounds)
			}
			if !fast.Bounds.Contains(exact.Prob) {
				t.Fatalf("%s: exact %s outside certified enclosure [%g, %g]",
					job.name, exact.Prob.RatString(), fast.Bounds.Lo, fast.Bounds.Hi)
			}
			// The point estimate and the exact answer both lie in the
			// enclosure, so their exact-rational distance is at most
			// the exact width (computed in rationals, not floats).
			d := new(big.Rat).Sub(fast.Prob, exact.Prob)
			d.Abs(d)
			width := new(big.Rat).Sub(new(big.Rat).SetFloat64(fast.Bounds.Hi), new(big.Rat).SetFloat64(fast.Bounds.Lo))
			if d.Cmp(width) > 0 {
				t.Fatalf("%s: fast point estimate off by %s, more than the certified width %s",
					job.name, d.FloatString(20), width.FloatString(20))
			}

			for _, tol := range []float64{DefaultFloatTolerance, 5e-324} {
				auto, err := cp.Evaluate(context.Background(), probs, &Options{Precision: PrecisionAuto, FloatTolerance: tol})
				if err != nil {
					t.Fatalf("%s: auto: %v", job.name, err)
				}
				switch auto.Precision {
				case PrecisionFast:
					if auto.Bounds == nil || !(auto.Bounds.Width() <= tol) {
						t.Fatalf("%s: auto served a float answer wider than tol %g", job.name, tol)
					}
					if !auto.Bounds.Contains(exact.Prob) {
						t.Fatalf("%s: auto enclosure does not contain the exact answer", job.name)
					}
				case PrecisionExact:
					if auto.Bounds != nil {
						t.Fatalf("%s: auto fallback carries bounds", job.name)
					}
					if auto.Prob.RatString() != exact.Prob.RatString() {
						t.Fatalf("%s: auto fallback %s differs from exact %s",
							job.name, auto.Prob.RatString(), exact.Prob.RatString())
					}
				default:
					t.Fatalf("%s: result claims substrate %v", job.name, auto.Precision)
				}
			}
			reweightRandomly(r, job.h)
		}
	}
}

// TestPrecisionToleranceBoundaries drives the fallback decision across
// tolerance boundaries on a fixed one-edge plan, including probability
// values at and near 0 and 1, where float rounding behaves differently
// (subnormal-tight enclosures near 0, ulp-of-1-wide ones near 1).
func TestPrecisionToleranceBoundaries(t *testing.T) {
	q := graph.Path1WP("R")
	hg := graph.New(2)
	hg.MustAddEdge(0, 1, "R")
	h := graph.NewProbGraph(hg)

	third := big.NewRat(1, 3)
	tiny := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Exp(big.NewInt(10), big.NewInt(300), nil))
	nearOne := new(big.Rat).Sub(graph.RatOne, tiny)

	cases := []struct {
		name     string
		p        *big.Rat
		tol      float64
		wantFast bool
	}{
		// 1/3 rounds: the enclosure is a couple of ulps (~1e-16) wide.
		{"1/3 loose tol", third, 1e-9, true},
		{"1/3 boundary tol", third, 1e-15, true},
		{"1/3 tight tol", third, 1e-18, false},
		// Exactly representable endpoints: zero-width enclosures pass
		// any tolerance, including the smallest positive float.
		{"p=0 smallest tol", new(big.Rat), 5e-324, true},
		{"p=1 smallest tol", new(big.Rat).Set(graph.RatOne), 5e-324, true},
		{"p=1/2 smallest tol", big.NewRat(1, 2), 5e-324, true},
		// Near 1, the enclosure cannot be tighter than an ulp of 1.
		{"near-1 loose tol", nearOne, 1e-9, true},
		{"near-1 tight tol", nearOne, 1e-17, false},
		// Near 0 the chain DP emits 1−(1−p), which the lowering-time
		// optimizer collapses to p itself, so the enclosure is ulp-of-p
		// scale (~1e-316 here), not ulp-of-1 scale. Only a tolerance
		// below that forces fallback.
		{"near-0 loose tol", tiny, 1e-9, true},
		{"near-0 tol below ulp(1)", tiny, 1e-17, true},
		{"near-0 tight tol", tiny, 1e-317, false},
	}
	for _, tc := range cases {
		if err := h.SetProb(0, tc.p); err != nil {
			t.Fatal(err)
		}
		exact, err := Solve(q, h, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := Solve(q, h, &Options{Precision: PrecisionAuto, FloatTolerance: tc.tol})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := res.Precision == PrecisionFast; got != tc.wantFast {
			width := "-"
			if res.Bounds != nil {
				width = res.Bounds.String()
			}
			t.Fatalf("%s: served %v (bounds %s), want fast=%v", tc.name, res.Precision, width, tc.wantFast)
		}
		if res.Precision == PrecisionExact && res.Prob.RatString() != exact.Prob.RatString() {
			t.Fatalf("%s: fallback diverged from exact", tc.name)
		}
		if res.Bounds != nil && !res.Bounds.Contains(exact.Prob) {
			t.Fatalf("%s: enclosure [%g, %g] misses exact %s",
				tc.name, res.Bounds.Lo, res.Bounds.Hi, exact.Prob.FloatString(20))
		}
	}
}

// TestFastEstimateIsAProbability pins the clamping contract: even when
// the certified enclosure straddles 0 or 1 (exact answers at the
// boundary), the served point estimate is itself a valid probability —
// downstream consumers (log-space code, estimates re-used as edge
// probabilities) must never see -5.6e-17 or 1.0000000000000002.
func TestFastEstimateIsAProbability(t *testing.T) {
	q := graph.Path1WP("R")
	hg := graph.New(2)
	hg.MustAddEdge(0, 1, "R")
	h := graph.NewProbGraph(hg)
	tiny := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Exp(big.NewInt(10), big.NewInt(30), nil))
	for _, p := range []*big.Rat{
		new(big.Rat),                         // exactly 0: enclosure may straddle 0
		new(big.Rat).Set(tiny),               // near 0
		new(big.Rat).Sub(graph.RatOne, tiny), // near 1
		new(big.Rat).Set(graph.RatOne),       // exactly 1
	} {
		if err := h.SetProb(0, p); err != nil {
			t.Fatal(err)
		}
		res, err := Solve(q, h, &Options{Precision: PrecisionFast})
		if err != nil {
			t.Fatal(err)
		}
		if res.Precision != PrecisionFast {
			t.Fatalf("p=%s: fast request answered on %v", p.RatString(), res.Precision)
		}
		if res.Prob.Sign() < 0 || res.Prob.Cmp(graph.RatOne) > 0 {
			t.Fatalf("p=%s: fast estimate %s outside [0,1]", p.RatString(), res.Prob.RatString())
		}
	}
}

// TestPrecisionOpaqueFallsBack pins the opaque contract under the fast
// modes: hard-cell plans have no float kernel, so every precision mode
// answers exactly (and reports the exact substrate).
func TestPrecisionOpaqueFallsBack(t *testing.T) {
	// A 2-cycle query on a 2-cycle instance is outside every tractable
	// cell (the instance is not a polytree).
	q := graph.New(2)
	q.MustAddEdge(0, 1, graph.Unlabeled)
	q.MustAddEdge(1, 0, graph.Unlabeled)
	hg := graph.New(2)
	hg.MustAddEdge(0, 1, graph.Unlabeled)
	hg.MustAddEdge(1, 0, graph.Unlabeled)
	h := graph.NewProbGraph(hg)
	h.MustSetEdgeProb(0, 1, big.NewRat(1, 3))
	h.MustSetEdgeProb(1, 0, big.NewRat(2, 3))

	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Opaque() {
		t.Fatal("expected an opaque plan for the cyclic pair")
	}
	exact, err := cp.Evaluate(context.Background(), h.Probs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []*Options{
		{Precision: PrecisionFast},
		{Precision: PrecisionAuto},
	} {
		res, err := cp.Evaluate(context.Background(), h.Probs(), opts)
		if err != nil {
			t.Fatalf("%v: %v", opts.Precision, err)
		}
		if res.Precision != PrecisionExact || res.Bounds != nil {
			t.Fatalf("%v: opaque evaluation claims substrate %v", opts.Precision, res.Precision)
		}
		if res.Prob.RatString() != exact.Prob.RatString() {
			t.Fatalf("%v: opaque result diverged", opts.Precision)
		}
	}
}

// TestEvaluateNilOptsIsExact pins the nil-options contract: a plan
// carries no precision of its own, so a plan compiled with
// PrecisionFast answers Evaluate(ctx, probs, nil) exactly, byte-
// identical to its restored-from-bytes twin — and the evaluation's own
// options still route either one to the float kernel.
func TestEvaluateNilOptsIsExact(t *testing.T) {
	q := graph.Path1WP("R")
	hg := graph.New(3)
	hg.MustAddEdge(0, 1, "R")
	hg.MustAddEdge(1, 2, "R")
	h := graph.NewProbGraph(hg)
	h.MustSetEdgeProb(0, 1, big.NewRat(1, 3))
	h.MustSetEdgeProb(1, 2, big.NewRat(1, 7))
	ctx := context.Background()

	cp, err := Compile(q, h, &Options{Precision: PrecisionFast})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cp.Evaluate(ctx, h.Probs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != PrecisionExact || res.Bounds != nil {
		t.Fatalf("fast-compiled plan under nil opts evaluated on substrate %v", res.Precision)
	}

	data, err := cp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := new(CompiledPlan)
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	rres, err := restored.Evaluate(ctx, h.Probs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Precision != PrecisionExact || rres.Prob.RatString() != res.Prob.RatString() {
		t.Fatalf("restored plan answered %s on %v, compiled plan %s", rres.Prob.RatString(), rres.Precision, res.Prob.RatString())
	}
	for _, p := range []*CompiledPlan{cp, restored} {
		fast, err := p.Evaluate(ctx, h.Probs(), &Options{Precision: PrecisionFast})
		if err != nil {
			t.Fatal(err)
		}
		if fast.Precision != PrecisionFast || fast.Bounds == nil || !fast.Bounds.Contains(res.Prob) {
			t.Fatalf("fast options evaluated on substrate %v with bounds %v", fast.Precision, fast.Bounds)
		}
	}
}
