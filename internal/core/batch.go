package core

import (
	"context"
	"math/big"
)

// This file is the batched half of the dual-precision evaluation
// contract: evaluating one compiled plan against K probability vectors
// in a single pass. The fast and auto modes dispatch the plan's program
// once through plan.ExecFloatBatchCtx (one instruction decode for all K
// lanes) and apply the serve-or-fall-back decision per lane, so a batch
// keeps the exact-fallback semantics of K independent Evaluate calls
// while paying interpreter dispatch once. Exact mode and opaque plans
// have no vectorizable kernel and degrade to a per-lane loop — the
// results are identical either way, batching is purely a performance
// property.

// BatchOutcome is the per-lane outcome of a batched evaluation: exactly
// one of Result and Err is non-nil.
type BatchOutcome struct {
	Result *Result
	Err    error
}

// EvaluateBatch evaluates the plan against every probability vector
// of probVecs and returns one outcome per lane, in lane order. Each
// lane's outcome — result, precision served, certified bounds, or
// error — does not depend on the other lanes, so it is what Evaluate
// (a batch of one) returns for probVecs[k]; a malformed lane fails
// only itself. Under the fast and auto precision modes the lanes share
// one batched kernel dispatch.
// Cancellation aborts the batched kernel at an op checkpoint and any
// per-lane exact fallbacks at theirs, so a cancelled batch surfaces the
// typed cancellation error on the lanes that had not completed.
func (cp *CompiledPlan) EvaluateBatch(ctx context.Context, probVecs [][]*big.Rat, opts *Options) []BatchOutcome {
	pol := opts.policy()
	out := make([]BatchOutcome, len(probVecs))
	if len(probVecs) == 0 {
		return out
	}

	// Opaque plans, exact mode and approx mode have no vectorizable
	// kernel: the lanes loop through the routing core one by one (an
	// approx batch still shares the plan's memoized lineage DNF, so the
	// extraction cost is paid once).
	if cp.opaque || pol.prec == PrecisionExact || pol.prec == PrecisionApprox {
		for k, probs := range probVecs {
			res, err := cp.evaluateLane(ctx, probs, pol)
			out[k] = BatchOutcome{Result: res, Err: err}
		}
		return out
	}

	// Fast/auto: validate every lane first so one malformed vector
	// cannot fail the shared kernel dispatch for the others.
	valid := make([]int, 0, len(probVecs))
	for k, probs := range probVecs {
		if err := cp.validateProbs(probs); err != nil {
			out[k] = BatchOutcome{Err: err}
			continue
		}
		valid = append(valid, k)
	}
	if len(valid) == 0 {
		return out
	}
	vecs := make([][]*big.Rat, len(valid))
	for i, k := range valid {
		vecs[i] = probVecs[k]
	}

	ivs, err := cp.prog.ExecFloatBatchCtx(ctx, vecs)
	for i, k := range valid {
		if err == nil {
			if res, ok := cp.serveFloat(ivs[i], pol.prec, pol.tol); ok {
				out[k] = BatchOutcome{Result: res}
				continue
			}
		}
		// Kernel failure (cancellation, degenerate arithmetic) or a lane
		// the serve decision rejected (NaN enclosure, auto-mode tolerance
		// miss): exact fallback, byte-identical to PrecisionExact.
		res, execErr := cp.evaluateExact(ctx, probVecs[k])
		out[k] = BatchOutcome{Result: res, Err: execErr}
	}
	return out
}
