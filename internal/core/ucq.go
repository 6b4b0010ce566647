package core

import (
	"context"
	"math/big"

	"phom/internal/graph"
	"phom/internal/phomerr"
)

// This file extends the solver to unions of conjunctive queries (UCQs),
// one of the query-language extensions suggested in the paper's
// conclusion (§6, after [20]). A UCQ is a disjunction G₁ ∨ … ∨ G_k of
// query graphs; PHom asks for the probability that at least one disjunct
// has a homomorphism to the instance.
//
// The tractable cases lift to unions because the lineage of a disjunction
// is the union of the disjunct lineages, and the β-acyclic clause
// families used by Propositions 4.10 and 4.11 are closed under union:
//
//   - on ⊔2WP instances, the union of interval systems is an interval
//     system (Proposition 4.11 lifts to UCQs of connected queries);
//   - on ⊔DWT instances, the union of chain systems is a chain system
//     after keeping, per node, the shortest clause (absorption;
//     Proposition 4.10 lifts to UCQs of labeled 1WP queries);
//   - in the unlabeled setting, a union of ⊔DWT queries is equivalent to
//     →^m for m the minimum of the per-disjunct path lengths, so
//     Propositions 3.6 and 5.5 lift as well.

// UCQ is a union (disjunction) of query graphs.
type UCQ []*graph.Graph

// BruteForceUCQ computes Pr(G₁ ∨ … ∨ G_k ⇝ H) by world enumeration; it
// is the oracle for SolveUCQ. maxUncertain caps the enumerated coins
// (0 = unbounded).
func BruteForceUCQ(qs UCQ, h *graph.ProbGraph, maxUncertain int) (*big.Rat, error) {
	return BruteForceUCQContext(context.Background(), qs, h, maxUncertain)
}

// BruteForceUCQContext is BruteForceUCQ with cooperative cancellation,
// polled every phomerr.CheckInterval branches of the world recursion.
func BruteForceUCQContext(ctx context.Context, qs UCQ, h *graph.ProbGraph, maxUncertain int) (*big.Rat, error) {
	uncertain := h.UncertainEdges()
	if maxUncertain > 0 && len(uncertain) > maxUncertain {
		return nil, phomerr.New(phomerr.CodeLimit,
			"core: %d uncertain edges exceed limit %d", len(uncertain), maxUncertain)
	}
	g := h.G
	keep := make([]bool, g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		keep[i] = h.Prob(i).Cmp(graph.RatOne) == 0
	}
	cp := phomerr.NewCheckpoint(ctx)
	one := big.NewRat(1, 1)
	total := new(big.Rat)
	var abort error
	var rec func(i int, w *big.Rat)
	rec = func(i int, w *big.Rat) {
		if abort != nil || w.Sign() == 0 {
			return
		}
		if abort = cp.Check(); abort != nil {
			return
		}
		if i == len(uncertain) {
			world := g.SubgraphKeeping(keep)
			for _, q := range qs {
				if graph.HasHomomorphism(q, world) {
					total.Add(total, w)
					return
				}
			}
			return
		}
		ei := uncertain[i]
		keep[ei] = true
		rec(i+1, new(big.Rat).Mul(w, h.Prob(ei)))
		keep[ei] = false
		rec(i+1, new(big.Rat).Mul(w, new(big.Rat).Sub(one, h.Prob(ei))))
	}
	rec(0, big.NewRat(1, 1))
	if abort != nil {
		return nil, abort
	}
	return total, nil
}

// SolveUCQ computes Pr(G₁ ∨ … ∨ G_k ⇝ H), dispatching to a lifted
// polynomial-time algorithm when every disjunct falls in a compatible
// tractable cell, and otherwise to the exponential baseline (unless
// disabled). Like Solve it is the composition of the two pipeline
// stages: CompileUCQ builds the probability-independent plan and
// Evaluate runs the linear phase against h's own probabilities.
func SolveUCQ(qs UCQ, h *graph.ProbGraph, opts *Options) (*Result, error) {
	return SolveUCQContext(context.Background(), qs, h, opts)
}

// SolveUCQContext is SolveUCQ under a context, with the same
// cancellation contract as SolveContext; a run that completes is
// byte-identical to SolveUCQ.
func SolveUCQContext(ctx context.Context, qs UCQ, h *graph.ProbGraph, opts *Options) (*Result, error) {
	cp, err := CompileUCQContext(ctx, qs, h, opts)
	if err != nil {
		return nil, err
	}
	return cp.Evaluate(ctx, h.Probs(), opts)
}
