package core

import (
	"context"

	"phom/internal/graph"
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
//
// So the solver has one compiler, CompileUCQContext: a single
// conjunctive query is the one-disjunct union, and every route of the
// guard table (plan.go) is the lifted form of its cell.

// UCQ is a union (disjunction) of query graphs.
type UCQ []*graph.Graph

// SolveUCQ computes Pr(G₁ ∨ … ∨ G_k ⇝ H), dispatching to a lifted
// polynomial-time algorithm when every disjunct falls in a compatible
// tractable cell, and otherwise to the exponential baselines (unless
// disabled). It is the composition of the two pipeline stages:
// CompileUCQ builds the probability-independent plan and Evaluate runs
// the linear phase against h's own probabilities.
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
