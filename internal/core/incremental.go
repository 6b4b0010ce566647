package core

// incremental.go: component-localized recompilation. A structural edge
// delta on a live instance (internal/instance) renumbers the edge list
// and changes at most the components incident to the delta; every other
// component's part of the compiled program — the per-component dynamic
// programs that dominate compile cost — is still valid up to edge
// renumbering. The Lemma 3.7 composite is exactly the seam: the plan's
// part table records where each component's factor sits inside its
// program, so PatchCompile diffs the component partitions of the old
// and new structure, replays the factors of the untouched components
// out of the old program with their loads renumbered
// (plan.Replayer), recompiles only the touched components through the
// chosen route's part compiler, and seals the new composite. Fresh and
// decoded plans splice alike (the part table travels with the bytes),
// and so do single queries and unions (a query is a one-disjunct
// union). Anything it cannot prove local — a route change (the tightest
// class moved), a change in which disjuncts are live, an opaque or
// constant plan, a plan without a part table, a vertex-count change —
// falls back to a full CompileUCQContext, so the result always computes
// exactly what a from-scratch compile would.

import (
	"context"
	"errors"
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

// errNotLocal aborts a splice whose old program does not line up with
// the component diff; patchCompile turns it into a full compile.
var errNotLocal = errors.New("core: splice not local")

// patchCompile attempts the splice; a nil, nil return means "not
// provably local — run a full compile".
func patchCompile(ctx context.Context, qs UCQ, old *CompiledPlan, oldG *graph.Graph, newH *graph.ProbGraph, opts *Options) (*CompiledPlan, error) {
	if old == nil || old.opaque || old.parts == nil || oldG == nil {
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
	// Its Partition, taken first, is memoized: the guards' component
	// count reads it, and so does a fallback compile.
	newP := newG.Partition()
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
	oldP := oldG.Partition()
	if len(old.parts) != len(oldP.Comps) {
		return nil, nil
	}
	// Global edge renumbering old → new: an old edge survives iff the
	// new graph carries the same (from, to, label) triple.
	remap := make([]int, oldG.NumEdges())
	for i := range remap {
		e := oldG.Edge(i)
		remap[i] = -1
		if j, ok := newG.EdgeIndex(e.From, e.To); ok && newG.Edge(j).Label == e.Label {
			remap[i] = j
		}
	}
	// An old component is intact iff it reappears verbatim: same vertex
	// set (both sides sorted), equal edge count (no additions hiding
	// behind equal vertex sets), and every one of its edges surviving
	// (none removed and re-added under another label).
	intactOld := make([]int, len(newP.Comps)) // new comp -> old comp, or -1
	for cj, vs := range newP.Comps {
		intactOld[cj] = -1
		ci := oldP.Of[vs[0]]
		if slices.Equal(oldP.Comps[ci], vs) && len(oldP.Edges[ci]) == len(newP.Edges[cj]) &&
			!slices.ContainsFunc(oldP.Edges[ci], func(i int) bool { return remap[i] < 0 }) {
			intactOld[cj] = ci
		}
	}

	// The old plan numbers edges as the graph it was compiled against
	// did: structurally equal to oldG (same structure key) but not
	// necessarily in oldG's edge order — another instance's compile, a
	// stateless job inserting edges differently, or a plan restored from
	// a snapshot. Plan edge p is the oldG edge of equal canonical rank,
	// so the splice renumbers plan edges through both canonical orders,
	// and locates each plan edge's old component the same way. On the
	// live path the old plan's Keyer was built for oldG itself, so its
	// order is oldG's and the plan numbering is oldG's own.
	planOrder, gOrder := old.CanonOrder(), old.CanonOrder()
	if k := old.Keyer(); k == nil || k.Graph() != oldG {
		gOrder = graphio.CanonicalEdgeOrder(oldG)
	}
	if len(planOrder) != len(gOrder) || old.NumEdges() != len(gOrder) {
		return nil, nil
	}
	planRemap := make([]int, len(planOrder))
	planComp := make([]int, len(planOrder))
	for k, p := range planOrder {
		planRemap[p] = remap[gOrder[k]]
		planComp[p] = oldP.Of[oldG.Edge(gOrder[k]).From]
	}

	b := plan.NewBuilder(ctx, newG.NumEdges())
	rp := plan.NewReplayer(old.prog, b)
	out, factors, err := plan.Compose(b, len(newP.Comps), func(cj int) (uint32, error) {
		if err := phomerr.FromContext(ctx); err != nil {
			return 0, err
		}
		ci := intactOld[cj]
		if ci < 0 {
			// Touched component: recompile just this part.
			return compilePart(b, newH.Component(newP, cj), newP.Edges[cj])
		}
		f := old.parts[ci]
		if f == plan.FoldedPart {
			return b.Zero(), nil // p_i = 0: the factor folds away again
		}
		// Intact component: replay its factor f_i out of the old program
		// and emit p_i = 1 − f_i, which Compose complements straight back
		// to f_i (1 − (1 − x) = x). Every load must be an edge of old
		// component ci with an image in the new structure.
		fi, ok := rp.Replay(f, func(e int) (int, bool) {
			return planRemap[e], planRemap[e] >= 0 && planComp[e] == ci
		})
		if !ok {
			return 0, errNotLocal
		}
		return b.OneMinus(fi), nil
	})
	if err == errNotLocal {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	cp, err := seal(old.method, b, out, factors, planKey(qs, newG, opts))
	if err != nil || len(cp.parts) != len(intactOld) {
		return cp, err
	}
	cp.replayed = intactOld
	return cp, nil
}

// CarryMemo hands the part memo of old — the plan cp was spliced from
// by PatchCompile — on to cp: every part cp replayed out of old keeps
// its recorded factor, which still serves while its loads read the
// same values. It returns nil when nothing carries over: cp did not
// come out of a splice, or m is not a memo of old's program.
func (cp *CompiledPlan) CarryMemo(old *CompiledPlan, m *plan.PartMemo) *plan.PartMemo {
	if cp.replayed == nil || old == nil || !m.Of(old.prog) {
		return nil
	}
	return m.Carry(cp.prog, cp.replayed)
}
