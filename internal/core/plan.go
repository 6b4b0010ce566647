package core

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"sync"

	"phom/internal/boolform"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/phomerr"
	"phom/internal/plan"
)

// This file implements the two-stage solver pipeline: CompileUCQContext
// — the one compiler; a single query is a one-disjunct union — runs the
// probability-independent phase of SolveUCQ (classification, dispatch,
// lineage/circuit construction) and returns a CompiledPlan; Evaluate
// replays only the linear probability computation. Solve and SolveUCQ
// are thin compositions of the two, so a compiled plan evaluated
// against any probability assignment is byte-identical to a fresh
// solve of the reweighted instance.

// CompiledPlan is an evaluable solver plan for one (query or UCQ,
// instance structure, options) job. Plans are immutable and safe for
// concurrent Evaluate calls.
//
// A non-opaque plan holds the same artifact twice: the plan tree built
// by the cell compilers of internal/plan (the original evaluation
// path, kept as the differential reference and for benchmarks) and its
// lowering to the flat Program IR, which is what Evaluate executes and
// what MarshalBinary serializes. Plans restored from a serialized form
// carry only the program (Tree evaluation is then unavailable); their
// Evaluate results are identical, because lowering preserves the exact
// rational arithmetic op for op.
type CompiledPlan struct {
	method Method
	opaque bool
	tree   plan.Plan     // plan tree; nil when opaque or restored from bytes
	prog   *plan.Program // flattened IR; nil when opaque
	// resolve is the opaque re-solve; it picks the baseline per
	// evaluation and honors the caller's context (the baselines are the
	// exponential work cancellation exists for).
	resolve  func(context.Context, []*big.Rat) (*Result, error)
	numEdges int
	// approx is the Karp–Luby sampling state of an opaque plan: the
	// lineage extraction and its memoized DNF (see approx.go). Nil on
	// structural plans — the approx mode never samples where a
	// polynomial-time exact algorithm exists. It is set on every opaque
	// plan, not just approx-compiled ones, because the plan cache shares
	// one plan across precision modes.
	approx *approxState
	// key yields the job's structure identity — graphio.StructKeyJob
	// plus the compile-time canonical edge order — memoized and
	// computed on first use (sync.OnceValues), so plain Solve callers
	// never pay for hashing a key they don't consume. Plans restored
	// from bytes carry the decoded identity directly.
	key func() (structKey string, canonOrder []int)
}

// NumEdges returns the length of the probability vector Evaluate
// expects: the number of edges of the instance the plan was compiled
// from.
func (cp *CompiledPlan) NumEdges() int { return cp.numEdges }

// StructKey returns the structure key of the job the plan was compiled
// for — the probability-independent job hash of graphio (identical to
// the structKey of graphio.JobKeys), which keys the engine's plan
// cache and is embedded in the serialized form. Computed on first use,
// then memoized; safe for concurrent callers.
func (cp *CompiledPlan) StructKey() string {
	k, _ := cp.key()
	return k
}

// CanonOrder returns the canonical edge order of the compile-time
// instance (graphio.CanonicalEdgeOrder), used to transport probability
// vectors of structurally identical instances with different edge
// numberings onto the plan's numbering. The returned slice is shared
// and must not be mutated.
func (cp *CompiledPlan) CanonOrder() []int {
	_, order := cp.key()
	return order
}

// Program returns the flattened evaluation program, or nil for opaque
// plans.
func (cp *CompiledPlan) Program() *plan.Program { return cp.prog }

// Opaque reports whether the plan has no exploitable structure (an
// exponential-baseline cell): evaluation re-solves from scratch, so
// reuse is correct but not faster.
func (cp *CompiledPlan) Opaque() bool { return cp.opaque }

// Method returns the solver method a structural plan evaluates with.
// For opaque plans ok is false: the baseline (brute force vs lineage)
// is chosen per evaluation, since it depends on how many edges the
// probability assignment leaves uncertain.
func (cp *CompiledPlan) Method() (m Method, ok bool) {
	if cp.opaque {
		return 0, false
	}
	return cp.method, true
}

// EvaluateTree evaluates through the plan tree instead of the
// flattened program — the original evaluation path, kept as the
// differential reference (the tests pin the interpreter and tree
// evaluation byte-identical) and for the interpreter-vs-tree benchmark. It fails
// for opaque plans and for plans restored from bytes, which carry no
// tree.
func (cp *CompiledPlan) EvaluateTree(probs []*big.Rat) (*Result, error) {
	if cp.tree == nil {
		return nil, fmt.Errorf("core: plan has no tree evaluator (opaque or restored from bytes)")
	}
	pr, err := cp.tree.Evaluate(probs)
	if err != nil {
		return nil, err
	}
	return &Result{Prob: pr, Method: cp.method}, nil
}

// MarshalBinary encodes the plan in the canonical binary form of
// graphio (versioned header, flattened program, embedded structure key
// and canonical edge order). Opaque plans are not serializable: their
// evaluation is an exponential re-solve, not data.
func (cp *CompiledPlan) MarshalBinary() ([]byte, error) {
	if cp.opaque {
		return nil, fmt.Errorf("core: opaque plans are not serializable")
	}
	structKey, canonOrder := cp.key()
	return graphio.AppendPlanRecord(nil, &graphio.PlanRecord{
		StructKey:  structKey,
		Method:     uint8(cp.method),
		CanonOrder: canonOrder,
		Program:    cp.prog,
	})
}

// UnmarshalBinary decodes a plan encoded by MarshalBinary. The decoded
// program has passed full static validation, so a plan restored from
// untrusted bytes can be evaluated but not made to panic; results are
// correct exactly when the bytes came from an honest encoder.
func (cp *CompiledPlan) UnmarshalBinary(data []byte) error {
	rec, err := graphio.DecodePlanRecord(data)
	if err != nil {
		return err
	}
	m := Method(rec.Method)
	if m > MethodAutomatonPT {
		return fmt.Errorf("core: serialized plan has non-structural method %d", rec.Method)
	}
	structKey, canonOrder := rec.StructKey, rec.CanonOrder
	*cp = CompiledPlan{
		method:   m,
		prog:     rec.Program,
		numEdges: rec.Program.NumEdges,
		key:      func() (string, []int) { return structKey, canonOrder },
	}
	return nil
}

// solveRoute is one tractable cell the solver can dispatch a union of
// conjunctive queries to (a single query is a one-disjunct union): a
// lifted guard over all live disjuncts and the instance, and the
// per-component part compiler realizing the cell's algorithm. The
// lineage families of the cells are closed under union (see ucq.go), so
// each guard admits a union exactly when its cell covers every
// disjunct. Routes are tried in order and the first applicable one
// wins: 2WP intervals, then graded normalization, then labeled chains,
// then the polytree automaton.
type solveRoute struct {
	method  Method
	applies func(qs UCQ, h *graph.ProbGraph, unlabeled bool) bool
	// part returns the route's per-component compiler for the live
	// disjuncts qs, or a nil compiler and the constant the cell collapses
	// to on every instance (no graded disjunct on forest worlds).
	part func(qs UCQ) (plan.PartFunc, *big.Rat)
}

var solveRoutes = []solveRoute{
	{
		// Proposition 4.11 + Lemma 3.7: the union of the disjuncts'
		// interval systems is an interval system.
		method: MethodXProperty2WP,
		applies: func(qs UCQ, h *graph.ProbGraph, _ bool) bool {
			return all(qs, (*graph.Graph).IsConnected) && h.G.InClass(graph.ClassU2WP)
		},
		part: func(qs UCQ) (plan.PartFunc, *big.Rat) {
			return func(comp *graph.ProbGraph, em []int) (plan.Plan, error) {
				return plan.PartConnectedOn2WP(qs, comp, em)
			}, nil
		},
	},
	{
		// Proposition 3.6: any unlabeled union on ⊔DWT. A non-graded
		// disjunct has probability 0 on forest worlds; the graded ones are
		// equivalent to →^m for their smallest difference of levels m.
		method: MethodGradedDWT,
		applies: func(_ UCQ, h *graph.ProbGraph, unlabeled bool) bool {
			return unlabeled && h.G.InClass(graph.ClassUDWT)
		},
		part: func(qs UCQ) (plan.PartFunc, *big.Rat) {
			m := -1
			for _, q := range qs {
				if d, graded := q.DifferenceOfLevels(); graded && (m < 0 || d < m) {
					m = d
				}
			}
			if m < 0 {
				return nil, new(big.Rat)
			}
			return func(comp *graph.ProbGraph, em []int) (plan.Plan, error) {
				return plan.PartDirectedPathOnDWT(comp, m, em)
			}, nil
		},
	},
	{
		// Proposition 4.10 + Lemma 3.7 (labeled: the unlabeled case was
		// caught by the graded route above): the union of chain systems is
		// a chain system after absorption.
		method: MethodBetaAcyclicDWT,
		applies: func(qs UCQ, h *graph.ProbGraph, _ bool) bool {
			return all(qs, (*graph.Graph).Is1WP) && h.G.InClass(graph.ClassUDWT)
		},
		part: func(qs UCQ) (plan.PartFunc, *big.Rat) {
			return func(comp *graph.ProbGraph, em []int) (plan.Plan, error) {
				return plan.Part1WPOnDWT(qs, comp, em)
			}, nil
		},
	},
	{
		// Propositions 5.4/5.5 + Lemma 3.7: an unlabeled union of ⊔DWT
		// queries is equivalent to →^m for m the smallest disjunct height.
		method: MethodAutomatonPT,
		applies: func(qs UCQ, h *graph.ProbGraph, unlabeled bool) bool {
			return unlabeled && all(qs, func(q *graph.Graph) bool { return q.InClass(graph.ClassUDWT) }) &&
				h.G.InClass(graph.ClassUPT)
		},
		part: func(qs UCQ) (plan.PartFunc, *big.Rat) {
			m := qs[0].Height()
			for _, q := range qs[1:] {
				m = min(m, q.Height())
			}
			return func(comp *graph.ProbGraph, em []int) (plan.Plan, error) {
				return plan.PartDirectedPathOnPolytree(comp, m, em)
			}, nil
		},
	},
}

// all reports whether every disjunct satisfies pred.
func all(qs UCQ, pred func(*graph.Graph) bool) bool {
	for _, q := range qs {
		if !pred(q) {
			return false
		}
	}
	return true
}

// compile builds the route's whole-instance plan: the Lemma 3.7
// composite of its parts over h's components, or its constant.
func (rt *solveRoute) compile(qs UCQ, h *graph.ProbGraph) (plan.Plan, error) {
	part, c := rt.part(qs)
	if part == nil {
		return plan.NewConst(c), nil
	}
	return plan.Compose(h, part)
}

// route returns the first route whose guard admits the live disjuncts
// qs on h, or nil when the union falls in no tractable cell. It polls
// ctx between routes: the guards run class-membership tests linear in
// the instance.
func route(ctx context.Context, qs UCQ, h *graph.ProbGraph, unlabeled bool) (*solveRoute, error) {
	for i := range solveRoutes {
		if err := phomerr.FromContext(ctx); err != nil {
			return nil, err
		}
		if solveRoutes[i].applies(qs, h, unlabeled) {
			return &solveRoutes[i], nil
		}
	}
	return nil, nil
}

// liveDisjuncts is the dispatch prefix every compile shares. edgeless
// reports a disjunct with no edges: it maps into any instance, so the
// union holds on every world. Otherwise live keeps, in order, the
// disjuncts whose labels all occur in g (a disjunct using an absent
// label never matches), and unlabeled reports the unlabeled setting
// (|σ| = 1), which after the label check holds iff g uses at most one
// label.
func liveDisjuncts(qs UCQ, g *graph.Graph) (live UCQ, edgeless, unlabeled bool) {
	gLabels := map[graph.Label]bool{}
	for _, l := range g.Labels() {
		gLabels[l] = true
	}
next:
	for _, q := range qs {
		if q.NumEdges() == 0 {
			return nil, true, false
		}
		for _, l := range q.Labels() {
			if !gLabels[l] {
				continue next
			}
		}
		live = append(live, q)
	}
	return live, false, len(gLabels) <= 1
}

// Compile runs the probability-independent phase of Solve on (q, h):
// CompileUCQ of the one-disjunct union.
func Compile(q *graph.Graph, h *graph.ProbGraph, opts *Options) (*CompiledPlan, error) {
	return CompileUCQContext(context.Background(), UCQ{q}, h, opts)
}

// CompileContext is Compile under a context.
func CompileContext(ctx context.Context, q *graph.Graph, h *graph.ProbGraph, opts *Options) (*CompiledPlan, error) {
	return CompileUCQContext(ctx, UCQ{q}, h, opts)
}

// CompileUCQ is CompileUCQContext under context.Background().
func CompileUCQ(qs UCQ, h *graph.ProbGraph, opts *Options) (*CompiledPlan, error) {
	return CompileUCQContext(context.Background(), qs, h, opts)
}

// CompileUCQContext runs the probability-independent phase of SolveUCQ
// on (qs, h): validation, the shared dispatch prefix (edgeless and
// label-mismatched disjuncts), the guard table over the live
// disjuncts, construction of the chosen cell's evaluation artifact and
// its lowering to the flat Program IR — or, when no cell applies, an
// opaque plan over the exponential baselines (unless fallback is
// disabled). The probabilities of h are used only for validation: the
// returned plan depends solely on the structure of qs and h (and on
// opts, for the baseline limits), so it can be evaluated against any
// probability assignment over h's edge list.
//
// The guard table polls ctx before each route, and the lowering polls
// it every phomerr.CheckInterval emitted ops, so a cancelled context
// aborts even a large compile-time dynamic program within one
// checkpoint interval. A compile that completes is identical to
// CompileUCQ's.
func CompileUCQContext(ctx context.Context, qs UCQ, h *graph.ProbGraph, opts *Options) (*CompiledPlan, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := phomerr.FromContext(ctx); err != nil {
		return nil, err
	}
	for _, q := range qs {
		if q.NumVertices() == 0 {
			return nil, phomerr.New(phomerr.CodeBadInput, "core: empty query graph")
		}
	}
	n := h.G.NumEdges()
	key := planKey(qs, h.G, opts)
	if len(qs) == 0 {
		// The empty union is false.
		return seal(ctx, MethodTrivial, plan.NewConst(new(big.Rat)), n, key)
	}
	if h.G.NumVertices() == 0 {
		return nil, phomerr.New(phomerr.CodeBadInput, "core: empty instance graph")
	}
	if err := phomerr.Wrap(phomerr.CodeBadInput, h.Validate()); err != nil {
		return nil, err
	}
	live, edgeless, unlabeled := liveDisjuncts(qs, h.G)
	if edgeless {
		return seal(ctx, MethodTrivial, plan.NewConst(graph.RatOne), n, key)
	}
	if len(live) == 0 {
		return seal(ctx, MethodLabelMismatch, plan.NewConst(new(big.Rat)), n, key)
	}
	rt, err := route(ctx, live, h, unlabeled)
	if err != nil {
		return nil, err
	}
	if rt != nil {
		p, err := rt.compile(live, h)
		if err != nil {
			return nil, err
		}
		return seal(ctx, rt.method, p, n, key)
	}
	return opaquePlan(live, h, opts, key)
}

// planKey returns the job's structure identity, computed on first use:
// graphio.StructKeyJob over the sorted canonical disjuncts (union order
// is irrelevant to the probability), matching the engine's keying, so
// the structure key stamped on a plan is the one the engine's plan
// cache derives for the same job. The disjunct list is copied — the
// caller keeps its slice.
func planKey(qs UCQ, g *graph.Graph, opts *Options) func() (string, []int) {
	qs = append(UCQ(nil), qs...)
	return sync.OnceValues(func() (string, []int) {
		canon := make([]string, len(qs))
		for i, q := range qs {
			canon[i] = graphio.CanonicalGraph(q)
		}
		sort.Strings(canon)
		return graphio.StructKeyJob(canon, g, opts.StructFingerprint())
	})
}

// seal lowers a plan tree to its flattened program and stamps the
// job's structure identity on the resulting CompiledPlan. Every
// structural compile path funnels through here, so non-opaque plans
// always carry both evaluation forms and are always serializable — and
// every lowering polls ctx (the compile-time dynamic programs unroll
// inside LowerContext, so this is where the bulk of compile-side
// cancellation happens).
func seal(ctx context.Context, m Method, p plan.Plan, numEdges int, key func() (string, []int)) (*CompiledPlan, error) {
	prog, err := plan.LowerContext(ctx, p, numEdges)
	if err != nil {
		return nil, err
	}
	return &CompiledPlan{
		method:   m,
		tree:     p,
		prog:     prog,
		numEdges: numEdges,
		key:      key,
	}, nil
}

// opaquePlan builds the plan of an exponential-baseline cell over the
// live disjuncts qs. Its exact re-solve enumerates worlds up to the
// brute-force limit and past it runs Shannon expansion of the union
// lineage, extracted afresh per evaluation; the approx mode samples the
// same lineage, memoized per plan (approxState). Every opaque plan
// carries both — which path an evaluation takes is decided by the
// options it is evaluated under, and a cached plan serves jobs of every
// precision mode.
func opaquePlan(qs UCQ, h *graph.ProbGraph, opts *Options, key func() (string, []int)) (*CompiledPlan, error) {
	matchLimit, bruteLimit := opts.matchLimit(), opts.bruteLimit()
	extract := func(ctx context.Context) (*boolform.DNF, error) {
		return unionLineage(ctx, qs, h.G, matchLimit)
	}
	resolve := func(ctx context.Context, probs []*big.Rat) (*Result, error) {
		h2, err := reweighted(h, probs)
		if err != nil {
			return nil, err
		}
		if p, err := BruteForceUCQContext(ctx, qs, h2, bruteLimit); err == nil {
			return &Result{Prob: p, Method: MethodBruteForce}, nil
		} else if phomerr.CodeOf(err) != phomerr.CodeLimit {
			return nil, err // cancellation, not an over-limit instance
		}
		// Not through the approx memo: each exact evaluation enumerates
		// the matches under its own context.
		dnf, err := extract(ctx)
		if err == nil {
			var p *big.Rat
			if p, err = dnf.ShannonProbContext(ctx, h2.Probs()); err == nil {
				return &Result{Prob: p, Method: MethodLineage}, nil
			}
		}
		if phomerr.CodeOf(err) == phomerr.CodeLimit {
			return nil, phomerr.New(phomerr.CodeLimit, "core: instance too large for exact baselines: %v", err)
		}
		return nil, err
	}
	if opts.disableFallback() {
		err := phomerr.New(phomerr.CodeIntractable,
			"core: no polynomial-time algorithm applies (the case is #P-hard per Tables 1–3) and fallback is disabled")
		if opts.EffectivePrecision() != PrecisionApprox {
			return nil, err
		}
		// Approx mode under DisableFallback: the caller refused the
		// exponential baselines, not the sampler. The exact re-solve of
		// this plan fails with the pinned intractable error (an exact job
		// hitting the cached plan behaves exactly as if it had compiled
		// it) while approx evaluation samples.
		resolve = func(context.Context, []*big.Rat) (*Result, error) { return nil, err }
	}
	return &CompiledPlan{
		opaque:   true,
		resolve:  resolve,
		approx:   &approxState{extract: extract},
		numEdges: h.G.NumEdges(),
		key:      key,
	}, nil
}

// reweighted returns h's structure carrying the given probability
// assignment; the underlying graph is shared (it is read-only to the
// solver), the probabilities are fresh.
func reweighted(h *graph.ProbGraph, probs []*big.Rat) (*graph.ProbGraph, error) {
	h2 := graph.NewProbGraph(h.G)
	for i, p := range probs {
		if err := h2.SetProb(i, p); err != nil {
			return nil, err
		}
	}
	return h2, nil
}
