package core

// incremental.go: component-localized recompilation. A structural edge
// delta on a live instance (internal/instance) renumbers the edge list
// and changes at most the components incident to the delta; every other
// component's compiled part — the per-component dynamic programs that
// dominate compile cost — is still valid up to edge renumbering. The
// Lemma 3.7 Components composite is exactly the seam: PatchCompile
// diffs the component partitions of the old and new structure, reuses
// the untouched parts copy-on-write (plan.RemapEdges), recompiles only
// the touched components through the chosen route's part compiler, and
// re-seals the spliced composite. Single queries and unions splice
// alike (a query is a one-disjunct union). Anything it cannot prove
// local — a route change (the tightest class moved), a change in which
// disjuncts are live, an opaque or constant plan, a vertex-count change
// — falls back to a full CompileUCQContext, so the result is always
// exactly what a from-scratch compile would produce.

import (
	"context"
	"slices"

	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/phomerr"
	"phom/internal/plan"
)

// PatchCompile is PatchCompileUCQContext of the one-disjunct union
// under context.Background().
func PatchCompile(q *graph.Graph, old *CompiledPlan, oldG *graph.Graph, newH *graph.ProbGraph, opts *Options) (*CompiledPlan, bool, error) {
	return PatchCompileUCQContext(context.Background(), UCQ{q}, old, oldG, newH, opts)
}

// PatchCompileUCQContext compiles a plan for the job (qs, newH, opts),
// reusing the untouched per-component parts of old — a plan previously
// compiled for the same (qs, opts) against oldG, the structure newH's
// underlying graph was derived from by edge deltas, or against any
// structurally equal graph (same structure key, edges possibly listed
// in another order).
// The returned plan is semantically identical to
// CompileUCQContext(ctx, qs, newH, opts): same method, same exact
// probabilities (RatString-byte-identical) under every probability
// assignment. The boolean reports whether the incremental splice path
// was taken (false: a full recompile ran instead — still a correct
// plan, just none of the old work reused).
func PatchCompileUCQContext(ctx context.Context, qs UCQ, old *CompiledPlan, oldG *graph.Graph, newH *graph.ProbGraph, opts *Options) (*CompiledPlan, bool, error) {
	cp, err := patchCompile(ctx, qs, old, oldG, newH, opts)
	if err != nil {
		return nil, false, err
	}
	if cp != nil {
		return cp, true, nil
	}
	cp, err = CompileUCQContext(ctx, qs, newH, opts)
	return cp, false, err
}

// patchCompile attempts the splice; a nil, nil return means "not
// provably local — run a full compile".
func patchCompile(ctx context.Context, qs UCQ, old *CompiledPlan, oldG *graph.Graph, newH *graph.ProbGraph, opts *Options) (*CompiledPlan, error) {
	if old == nil || old.opaque || old.tree == nil || oldG == nil {
		return nil, nil
	}
	oldComposite, ok := old.tree.(plan.Components)
	if !ok {
		return nil, nil
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	for _, q := range qs {
		if q.NumVertices() == 0 {
			return nil, nil // invalid shape: let the full compile report it
		}
	}
	newG := newH.G
	if newG.NumVertices() != oldG.NumVertices() || newG.NumVertices() == 0 {
		return nil, nil
	}
	if err := newH.Validate(); err != nil {
		return nil, nil // full compile produces the typed error
	}

	// Re-run the dispatch on the new structure: the splice is sound only
	// if a from-scratch compile would pick the same route over the same
	// live disjuncts (the route's part compiler depends on them). The
	// prefix and guards are linear scans — cheap next to the
	// per-component dynamic programs the splice is saving. The new graph
	// is a fresh value (structural deltas rebuild, never mutate), so its
	// TightestClass memo starts clean and nothing stale is consulted here.
	live, edgeless, unlabeled := liveDisjuncts(qs, newG)
	oldLive, _, _ := liveDisjuncts(qs, oldG)
	if edgeless || len(live) == 0 || !slices.Equal(live, oldLive) {
		return nil, nil
	}
	rt, err := route(ctx, live, newH, unlabeled)
	if err != nil {
		return nil, err
	}
	if rt == nil || rt.method != old.method {
		return nil, nil
	}
	compilePart, _ := rt.part(live)
	if compilePart == nil {
		return nil, nil // a constant cell never compiles to a composite
	}

	// Diff the component partitions. Components are listed in the same
	// deterministic order (sorted vertices, ordered by smallest vertex)
	// the compilers consumed, so old part ci belongs to old component ci.
	oldVS := oldG.ConnectedComponents()
	if len(oldComposite.Parts) != len(oldVS) {
		return nil, nil
	}
	newVS := newG.ConnectedComponents()
	oldCompOf := make([]int, oldG.NumVertices())
	for ci, vs := range oldVS {
		for _, v := range vs {
			oldCompOf[v] = ci
		}
	}

	// Global edge renumbering old → new: an old edge survives iff the
	// new graph carries the same (from, to, label) triple. Per-component
	// edge counts on both sides detect additions and removals.
	remap := make([]int, oldG.NumEdges())
	oldCnt := make([]int, len(oldVS))
	for i := 0; i < oldG.NumEdges(); i++ {
		e := oldG.Edge(i)
		oldCnt[oldCompOf[e.From]]++
		remap[i] = -1
		if j, ok := newG.EdgeIndex(e.From, e.To); ok && newG.Edge(j).Label == e.Label {
			remap[i] = j
		}
	}
	newCompOf := make([]int, newG.NumVertices())
	for cj, vs := range newVS {
		for _, v := range vs {
			newCompOf[v] = cj
		}
	}
	newCnt := make([]int, len(newVS))
	for j := 0; j < newG.NumEdges(); j++ {
		newCnt[newCompOf[newG.Edge(j).From]]++
	}
	// An old component is intact iff it reappears verbatim: same vertex
	// set (both sides sorted), every edge surviving, equal edge count on
	// the new side (no additions hiding behind equal vertex sets).
	intactOld := make([]int, len(newVS)) // new comp -> old comp, or -1
	for cj, vs := range newVS {
		intactOld[cj] = -1
		ci := oldCompOf[vs[0]]
		ovs := oldVS[ci]
		if len(ovs) != len(vs) || oldCnt[ci] != newCnt[cj] {
			continue
		}
		same := true
		for k := range vs {
			if ovs[k] != vs[k] {
				same = false
				break
			}
		}
		if same {
			intactOld[cj] = ci
		}
	}
	// Edge survival is per old component: one lost edge taints its
	// component only, but the vertex-set match above could pair a new
	// component with an old one whose edges changed in place (removed
	// and re-added under another label), so re-check survival.
	for cj, ci := range intactOld {
		if ci < 0 {
			continue
		}
		for i := 0; i < oldG.NumEdges(); i++ {
			if oldCompOf[oldG.Edge(i).From] == ci && remap[i] < 0 {
				intactOld[cj] = -1
				break
			}
		}
	}

	// The old plan numbers edges as the graph it was compiled against
	// did: structurally equal to oldG (same structure key) but not
	// necessarily in oldG's edge order — another instance's compile, a
	// stateless job inserting edges differently, or a plan restored from
	// a snapshot. Plan edge p is the oldG edge of equal canonical rank,
	// so the splice renumbers plan edges through both canonical orders.
	planOrder, gOrder := old.CanonOrder(), graphio.CanonicalEdgeOrder(oldG)
	if len(planOrder) != len(gOrder) || old.NumEdges() != len(gOrder) {
		return nil, nil
	}
	planRemap := make([]int, len(planOrder))
	for k, p := range planOrder {
		planRemap[p] = remap[gOrder[k]]
	}

	parts := make([]plan.Plan, len(newVS))
	for cj := range newVS {
		if err := phomerr.FromContext(ctx); err != nil {
			return nil, err
		}
		if ci := intactOld[cj]; ci >= 0 {
			np, err := plan.RemapEdges(oldComposite.Parts[ci], planRemap)
			if err != nil {
				return nil, nil // defensive: fall back rather than fail
			}
			parts[cj] = np
			continue
		}
		// Touched component: recompile just this part.
		part, err := compilePart(newH.InducedWithEdges(newVS[cj]))
		if err != nil {
			return nil, err
		}
		parts[cj] = part
	}

	return seal(ctx, old.method, plan.Components{Parts: parts}, newG.NumEdges(), planKey(qs, newG, opts))
}
