package core

// incremental.go: component-localized recompilation. A structural edge
// delta on a live instance (internal/instance) renumbers the edge list
// and changes at most the components incident to the delta; every other
// component's compiled part — the per-component dynamic programs that
// dominate compile cost — is still valid up to edge renumbering. The
// Lemma 3.7 Components composite is exactly the seam: PatchCompile
// diffs the component partitions of the old and new structure, reuses
// the untouched parts copy-on-write (plan.RemapEdges), recompiles only
// the touched components through the exported Part* compilers of
// internal/plan, and re-seals the spliced composite. Anything it cannot
// prove local — a route change (the tightest class moved), an opaque or
// constant plan, a UCQ plan, a vertex-count change — falls back to a
// full CompileContext, so the result is always exactly what a
// from-scratch compile would produce.

import (
	"context"
	"sync"

	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/phomerr"
	"phom/internal/plan"
)

// PatchCompile is PatchCompileContext under context.Background().
func PatchCompile(q *graph.Graph, old *CompiledPlan, oldG *graph.Graph, newH *graph.ProbGraph, opts *Options) (*CompiledPlan, bool, error) {
	return PatchCompileContext(context.Background(), q, old, oldG, newH, opts)
}

// PatchCompileContext compiles a plan for the single-query job
// (q, newH, opts), reusing the untouched per-component parts of old — a
// plan previously compiled for the same (q, opts) against oldG, the
// structure newH's underlying graph was derived from by edge deltas,
// or against any structurally equal graph (same structure key, edges
// possibly listed in another order).
// The returned plan is semantically identical to
// CompileContext(ctx, q, newH, opts): same method, same exact
// probabilities (RatString-byte-identical) under every probability
// assignment. The boolean reports whether the incremental splice path
// was taken (false: a full recompile ran instead — still a correct
// plan, just none of the old work reused).
func PatchCompileContext(ctx context.Context, q *graph.Graph, old *CompiledPlan, oldG *graph.Graph, newH *graph.ProbGraph, opts *Options) (*CompiledPlan, bool, error) {
	cp, err := patchCompile(ctx, q, old, oldG, newH, opts)
	if err != nil {
		return nil, false, err
	}
	if cp != nil {
		return cp, true, nil
	}
	cp, err = CompileContext(ctx, q, newH, opts)
	return cp, false, err
}

// patchCompile attempts the splice; a nil, nil return means "not
// provably local — run a full compile".
func patchCompile(ctx context.Context, q *graph.Graph, old *CompiledPlan, oldG *graph.Graph, newH *graph.ProbGraph, opts *Options) (*CompiledPlan, error) {
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
	if q.NumVertices() == 0 || q.NumEdges() == 0 {
		return nil, nil // trivial/invalid shapes: let CompileContext decide
	}
	newG := newH.G
	if newG.NumVertices() != oldG.NumVertices() || newG.NumVertices() == 0 {
		return nil, nil
	}
	if err := newH.Validate(); err != nil {
		return nil, nil // full compile produces the typed error
	}

	// Re-run the dispatch guards on the new structure: the splice is
	// sound only if a from-scratch compile would pick the same route.
	// The guards are linear class-membership scans — cheap next to the
	// per-component dynamic programs the splice is saving. The new
	// graph is a fresh value (structural deltas rebuild, never mutate),
	// so its TightestClass memo starts clean and nothing stale is
	// consulted here.
	hLabels := map[graph.Label]bool{}
	for _, l := range newG.Labels() {
		hLabels[l] = true
	}
	for _, l := range q.Labels() {
		if !hLabels[l] {
			return nil, nil // route moves to MethodLabelMismatch
		}
	}
	unlabeled := len(hLabels) <= 1
	var route *solveRoute
	for i := range solveRoutes {
		if err := phomerr.FromContext(ctx); err != nil {
			return nil, err
		}
		if solveRoutes[i].applies(q, newH, unlabeled) {
			route = &solveRoutes[i]
			break
		}
	}
	if route == nil || route.method != old.method {
		return nil, nil
	}

	// The per-component compiler of the old plan's route. m>0 holds for
	// the path-shaped routes whenever the old tree is a Components
	// composite (m=0 compiles to a Const, which was rejected above).
	var compilePart func(comp *graph.ProbGraph, edgeMap []int) (plan.Plan, error)
	switch old.method {
	case MethodXProperty2WP:
		compilePart = func(comp *graph.ProbGraph, em []int) (plan.Plan, error) {
			return plan.PartConnectedOn2WP(q, comp, em)
		}
	case MethodBetaAcyclicDWT:
		compilePart = func(comp *graph.ProbGraph, em []int) (plan.Plan, error) {
			return plan.Part1WPOnDWT(q, comp, em)
		}
	case MethodGradedDWT:
		m, graded := q.DifferenceOfLevels()
		if !graded || m == 0 {
			return nil, nil
		}
		compilePart = func(comp *graph.ProbGraph, em []int) (plan.Plan, error) {
			return plan.PartDirectedPathOnDWT(comp, m, em)
		}
	case MethodAutomatonPT:
		m := q.Height()
		if m == 0 {
			return nil, nil
		}
		compilePart = func(comp *graph.ProbGraph, em []int) (plan.Plan, error) {
			return plan.PartDirectedPathOnPolytree(comp, m, em)
		}
	default:
		return nil, nil
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
		// Touched component: rebuild its probabilistic subgraph the same
		// way ComponentsWithEdges does and recompile just this part.
		sub, vmap := newG.InducedSubgraph(newVS[cj])
		comp := graph.NewProbGraph(sub)
		em := make([]int, 0, sub.NumEdges())
		for j := 0; j < newG.NumEdges(); j++ {
			e := newG.Edge(j)
			nf, okf := vmap[e.From]
			nt, okt := vmap[e.To]
			if okf && okt {
				comp.MustSetEdgeProb(nf, nt, newH.Prob(j))
				em = append(em, j)
			}
		}
		part, err := compilePart(comp, em)
		if err != nil {
			return nil, err
		}
		parts[cj] = part
	}

	qCanon := graphio.CanonicalGraph(q)
	key := sync.OnceValues(func() (string, []int) {
		return graphio.StructKeyJob([]string{qCanon}, newG, opts.StructFingerprint())
	})
	return seal(ctx, old.method, plan.Components{Parts: parts}, newG.NumEdges(), key)
}
