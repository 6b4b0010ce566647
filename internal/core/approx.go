package core

// This file is the approximate-evaluation side of the dispatch
// pipeline: opaque (#P-hard cell) plans evaluated under
// PrecisionApprox route here instead of into the exponential exact
// baselines. The plan's lineage DNF — one clause per match image of
// the query (or of any disjunct, for a UCQ) on the instance structure
// — is extracted once per plan and memoized: it depends only on
// structure, never on probabilities, so every reweight of a cached
// plan reuses it and pays only the sampling loop. The estimator
// itself lives in internal/approx.

import (
	"context"
	"math/big"
	"sync"

	"phom/internal/approx"
	"phom/internal/boolform"
	"phom/internal/graph"
	"phom/internal/phomerr"
	"phom/internal/plan"
)

// approxState is the per-plan sampling artifact of an opaque plan: the
// probability-independent lineage extraction and its memoized result.
// It lives behind a pointer on CompiledPlan (the struct embeds a mutex,
// and UnmarshalBinary overwrites plans wholesale).
type approxState struct {
	// extract enumerates the matches of the plan's query set on the
	// instance structure and returns the lineage DNF over the instance's
	// edge indices. It is bounded by the plan's match limit and polls
	// ctx, so it fails typed (CodeLimit / CodeCanceled) rather than
	// running away.
	extract func(ctx context.Context) (*boolform.DNF, error)

	mu  sync.Mutex
	dnf *boolform.DNF
	err error // terminal extraction failure, cached (never a cancellation)
}

// lineage returns the plan's lineage DNF, extracting it on first use.
// The extraction runs under the mutex — concurrent evaluations of one
// plan wait for the leader rather than duplicating the enumeration —
// and its outcome is cached except for cancellations, which are the
// caller's context firing, not a property of the plan.
func (a *approxState) lineage(ctx context.Context) (*boolform.DNF, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dnf != nil || a.err != nil {
		return a.dnf, a.err
	}
	dnf, err := a.extract(ctx)
	if err != nil {
		switch phomerr.CodeOf(err) {
		case phomerr.CodeCanceled, phomerr.CodeDeadline:
			return nil, err
		}
		a.err = err
		return nil, err
	}
	a.dnf = dnf
	return dnf, nil
}

// evaluateApprox runs the Karp–Luby estimator over the opaque plan's
// lineage DNF. The returned result carries the point estimate (the
// exact rational value of the float64 estimate), MethodKarpLuby, the
// statistical (1−δ) Hoeffding bounds and the drawn sample count.
func (cp *CompiledPlan) evaluateApprox(ctx context.Context, probs []*big.Rat, pol evalPolicy) (*Result, error) {
	dnf, err := cp.approx.lineage(ctx)
	if err != nil {
		return nil, err
	}
	est, err := approx.KarpLuby(ctx, dnf, probs, approx.Params{
		Epsilon: pol.eps,
		Delta:   pol.delta,
		Seed:    pol.seed,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Prob:          new(big.Rat).SetFloat64(est.P),
		Method:        MethodKarpLuby,
		Precision:     PrecisionApprox,
		Bounds:        &plan.Enclosure{Lo: est.Lo, Hi: est.Hi},
		ApproxSamples: est.Samples,
	}, nil
}

// unionLineage extracts the lineage of a union of conjunctive queries
// on g: the clause union of the per-disjunct match lineages (a
// valuation satisfies it iff some disjunct matches), absorbed to
// inclusion-minimal clauses, over g's edge indices. matchLimit caps the
// total number of enumerated matches across all disjuncts.
func unionLineage(ctx context.Context, qs UCQ, g *graph.Graph, matchLimit int) (*boolform.DNF, error) {
	union := boolform.NewDNF(g.NumEdges())
	remaining := matchLimit
	for _, q := range qs {
		if matchLimit > 0 && remaining <= 0 {
			// Charging each disjunct's clauses against one shared budget
			// keeps a k-way union from enumerating k× the single-query cap.
			return nil, phomerr.New(phomerr.CodeLimit, "core: union lineage exceeds %d matches", matchLimit)
		}
		dnf, err := MatchLineageContext(ctx, q, g, remaining)
		if err != nil {
			return nil, err
		}
		remaining -= len(dnf.Clauses)
		for _, c := range dnf.Clauses {
			union.AddClause(c...)
		}
	}
	return union.Absorb(), nil
}
