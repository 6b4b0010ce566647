package core

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"phom/internal/phomerr"
	"phom/internal/plan"
)

// This file defines the dual-precision evaluation contract: which
// numeric substrate — the exact big.Rat interpreter
// (plan.Program.ExecCtx) or the certified float64 interval kernel
// (plan.Program.ExecFloatBatchCtx) — a compiled plan evaluates with,
// and when the auto mode is allowed to serve the float result instead
// of falling back to exact arithmetic.
// See DESIGN.md, "Numerics: dual-precision evaluation".

// Precision selects the numeric substrate of plan evaluation.
type Precision int

const (
	// PrecisionExact evaluates with exact rational arithmetic — every
	// answer is the mathematically exact probability. The default.
	PrecisionExact Precision = iota
	// PrecisionFast evaluates with the float64 interval kernel: the
	// answer is a point estimate carrying a certified absolute-error
	// bound (Result.Bounds), at near-hardware speed. It falls back to
	// exact arithmetic only when the float kernel cannot produce a
	// finite certified enclosure at all (opaque plans, overflow).
	PrecisionFast
	// PrecisionAuto evaluates with the float64 kernel first and falls
	// back to exact arithmetic whenever the certified enclosure is wider
	// than the tolerance (Options.FloatTolerance): callers get float
	// speed when the bound is tight and exact rationals otherwise, and a
	// fallback answer is byte-identical to PrecisionExact's.
	PrecisionAuto
	// PrecisionApprox evaluates #P-hard (opaque) plans with the seeded
	// Karp–Luby (ε,δ) Monte-Carlo estimator of internal/approx instead
	// of the exponential exact baselines: the answer is a point estimate
	// within relative error Options.Epsilon of the exact probability
	// with probability at least 1−Options.Delta, carrying statistical
	// Hoeffding bounds in Result.Bounds. Tractable (structural) plans
	// ignore the mode and evaluate exactly — sampling where a
	// polynomial-time exact algorithm exists would only lose precision.
	PrecisionApprox

	numPrecisions = iota // count of defined modes, for validation
)

var precisionNames = [numPrecisions]string{"exact", "fast", "auto", "approx"}

func (p Precision) String() string {
	if p < 0 || int(p) >= len(precisionNames) {
		return fmt.Sprintf("precision(%d)", int(p))
	}
	return precisionNames[p]
}

// ParsePrecision parses a precision mode name as accepted on the wire
// and on command lines: "exact", "fast", "auto" or "approx". The empty
// string is PrecisionExact, matching the zero value of
// Options.Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "exact":
		return PrecisionExact, nil
	case "fast":
		return PrecisionFast, nil
	case "auto":
		return PrecisionAuto, nil
	case "approx":
		return PrecisionApprox, nil
	}
	return 0, fmt.Errorf("core: unknown precision %q (want exact, fast, auto or approx)", s)
}

// DefaultFloatTolerance is the default cap on the certified interval
// width the auto mode accepts before falling back to exact arithmetic.
// It is far above the width the float kernel actually reaches on the
// linear-size programs of the tractable cells (around 10⁻¹³ even for
// instances with millions of edges) while still guaranteeing nine
// correct decimal digits.
const DefaultFloatTolerance = 1e-9

// EffectivePrecision returns the precision mode with the nil receiver
// resolved to the default (PrecisionExact).
func (o *Options) EffectivePrecision() Precision {
	if o == nil {
		return PrecisionExact
	}
	return o.Precision
}

// EffectiveFloatTolerance returns the auto-mode tolerance with nil and
// zero resolved to DefaultFloatTolerance.
func (o *Options) EffectiveFloatTolerance() float64 {
	if o == nil || o.FloatTolerance == 0 {
		return DefaultFloatTolerance
	}
	return o.FloatTolerance
}

// DefaultEpsilon and DefaultDelta are the (ε,δ) guarantee of the approx
// mode when the request does not choose its own: relative error 5% with
// failure probability 1%. Both are deliberately loose enough that the
// Dyer/Karp–Luby sample count stays serveable on lineages with
// thousands of clauses.
const (
	DefaultEpsilon = 0.05
	DefaultDelta   = 0.01
)

// EffectiveEpsilon returns the approx-mode relative error bound with
// nil and zero resolved to DefaultEpsilon.
func (o *Options) EffectiveEpsilon() float64 {
	if o == nil || o.Epsilon == 0 {
		return DefaultEpsilon
	}
	return o.Epsilon
}

// EffectiveDelta returns the approx-mode failure budget with nil and
// zero resolved to DefaultDelta.
func (o *Options) EffectiveDelta() float64 {
	if o == nil || o.Delta == 0 {
		return DefaultDelta
	}
	return o.Delta
}

// evalPolicy is the full evaluation-time policy of one job — the
// numeric substrate plus its mode parameters — with every default
// resolved. It travels as one value so the routing core and the batched
// path cannot drift on which options matter.
type evalPolicy struct {
	prec       Precision
	tol        float64 // auto-mode certified-width cap
	eps, delta float64 // approx-mode (ε,δ) guarantee
	seed       uint64  // approx-mode PCG seed
}

// policy resolves the options into their evaluation policy.
func (o *Options) policy() evalPolicy {
	pol := evalPolicy{
		prec:  o.EffectivePrecision(),
		tol:   o.EffectiveFloatTolerance(),
		eps:   o.EffectiveEpsilon(),
		delta: o.EffectiveDelta(),
	}
	if o != nil {
		pol.seed = o.Seed
	}
	return pol
}

// Evaluate computes Pr(G ⇝ H) under the probability assignment probs,
// indexed by the edge list of the instance the plan was compiled from
// (see graph.ProbGraph.Probs), on the numeric substrate opts selects;
// nil opts means the defaults (exact). The options of the evaluation,
// not those of the compile, decide: a plan carries no precision of its
// own, so a cached or restored plan serves jobs of every mode. With
// exact precision the result is byte-identical to Solve on the
// correspondingly reweighted instance; with fast or auto it may be a
// certified float64 enclosure instead (Result.Bounds), and with approx
// an opaque plan samples (see evaluateApprox).
//
// Exact program execution and the float kernel poll ctx every
// phomerr.CheckInterval ops, and opaque plans pass ctx into their
// exponential re-solve or sampling loop, so cancellation works on the
// evaluation side of the pipeline too.
func (cp *CompiledPlan) Evaluate(ctx context.Context, probs []*big.Rat, opts *Options) (*Result, error) {
	if err := cp.validateProbs(probs); err != nil {
		return nil, err
	}
	pol := opts.policy()
	if cp.opaque {
		// Opaque plans have no program, hence no float kernel. The approx
		// mode routes them to the Karp–Luby estimator over the plan's
		// lineage DNF; every other mode evaluates them exactly (the
		// baselines are the arbiter, not a fast path).
		if pol.prec == PrecisionApprox {
			return cp.evaluateApprox(ctx, probs, pol)
		}
		return cp.resolve(ctx, probs)
	}
	if pol.prec == PrecisionFast || pol.prec == PrecisionAuto {
		// One lane of the batched kernel: a lane's enclosure is the same
		// whatever the batch width, and a lane degenerating to NaN is
		// rejected by serveFloat like any other unservable enclosure.
		ivs, err := cp.prog.ExecFloatBatchCtx(ctx, [][]*big.Rat{probs})
		if err == nil {
			if res, ok := cp.serveFloat(ivs[0], pol.prec, pol.tol); ok {
				return res, nil
			}
		}
	}
	return cp.evaluateExact(ctx, probs)
}

// evaluateExact runs the exact interpreter: the answer of the exact
// mode and the fallback of the fast and auto modes.
func (cp *CompiledPlan) evaluateExact(ctx context.Context, probs []*big.Rat) (*Result, error) {
	pr, err := cp.prog.ExecCtx(ctx, probs)
	if err != nil {
		return nil, err
	}
	return &Result{Prob: pr, Method: cp.method, Precision: PrecisionExact}, nil
}

// validateProbs checks a probability vector against the plan: right
// length, no nils, every entry in [0,1]. Shared by the single-vector
// and batched evaluation entry points.
func (cp *CompiledPlan) validateProbs(probs []*big.Rat) error {
	if len(probs) != cp.numEdges {
		return phomerr.New(phomerr.CodeBadInput, "core: %d probabilities for a plan over %d edges", len(probs), cp.numEdges)
	}
	for i, p := range probs {
		if p == nil {
			return phomerr.New(phomerr.CodeBadInput, "core: nil probability for edge %d", i)
		}
		// p ∈ [0,1] iff 0 ≤ num ≤ denom (big.Rat keeps denom > 0 and the
		// sign on num). Comparing the parts directly avoids Rat.Cmp's
		// cross-multiplication, which allocates — this runs per edge per
		// lane on the batched reweight path.
		if p.Num().Sign() < 0 || p.Num().Cmp(p.Denom()) > 0 {
			return phomerr.New(phomerr.CodeBadInput, "core: edge %d probability %s outside [0,1]", i, p.RatString())
		}
	}
	return nil
}

// serveFloat decides whether one lane's certified enclosure may be
// served: always for PrecisionFast (the caller asked for float speed),
// and only within tolerance for PrecisionAuto. ok is false when the
// caller must fall back to exact arithmetic — a non-finite (or NaN)
// enclosure, or an auto-mode tolerance miss.
func (cp *CompiledPlan) serveFloat(iv plan.Enclosure, prec Precision, tol float64) (*Result, bool) {
	mid := iv.Mid()
	if math.IsInf(mid, 0) || math.IsNaN(mid) {
		return nil, false
	}
	if prec == PrecisionAuto && !(iv.Width() <= tol) {
		return nil, false
	}
	// The exact answer is a probability, so it lies in [0,1] ∩ [Lo,Hi];
	// clamp the midpoint into that intersection so the served estimate
	// is itself a valid probability (an enclosure straddling 0 or 1
	// would otherwise yield estimates like -5.6e-17, which downstream
	// consumers — log-space code, re-used edge probabilities — reject).
	// Clamping within the enclosure keeps |estimate − exact| ≤ Width.
	if mid < 0 {
		mid = 0
	} else if mid > 1 {
		mid = 1
	}
	if mid < iv.Lo {
		mid = iv.Lo
	} else if mid > iv.Hi {
		mid = iv.Hi
	}
	// SetFloat64 is exact — Prob is the precise rational value of the
	// point estimate, within Bounds of the true probability.
	return &Result{
		Prob:      new(big.Rat).SetFloat64(mid),
		Method:    cp.method,
		Precision: PrecisionFast,
		Bounds:    &plan.Enclosure{Lo: iv.Lo, Hi: iv.Hi},
	}, true
}
