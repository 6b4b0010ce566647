package core

import (
	"context"
	"fmt"
	"math/big"
	"slices"
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
// A non-opaque plan is its flattened Program, which is what Evaluate
// executes and what MarshalBinary serializes, plus the part table of a
// Lemma 3.7 composite: where each component's factor sits inside the
// program, which is all incremental maintenance needs to carry the
// untouched components across a structural delta. A plan restored from
// bytes carries both, so it evaluates and splices like the plan that
// was encoded.
type CompiledPlan struct {
	method Method
	opaque bool
	prog   *plan.Program // flattened IR; nil when opaque
	// parts is the program's part table (plan.FinishParts); nil unless
	// the plan is a composite of at least two components.
	parts []int
	// owners derives the part table's ownership (plan.NewPartOwners) on
	// first use, so only plans evaluated through EvaluateMemo pay for
	// it; nil when the plan has no part table.
	owners func() *plan.PartOwners
	// replayed[j] is the part of the plan this one was spliced from
	// (PatchCompile) that part j replays, or −1 for a part compiled
	// afresh; nil unless the plan came out of a splice. CarryMemo reads
	// it.
	replayed []int
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
	// keyer yields the job's structure identity, a graphio.Keyer over
	// the compile-time graph, built on first use (sync.OnceValue), so
	// plain Solve callers never pay for hashing a key they don't
	// consume. A plan restored from bytes has no graph, hence no Keyer:
	// keyer is nil, and structKey and canonOrder hold the decoded key.
	keyer      func() *graphio.Keyer
	structKey  string
	canonOrder []int
}

// Keyer returns the Keyer of the plan's structure, which keys the jobs
// the plan serves, or nil for a plan restored from bytes.
func (cp *CompiledPlan) Keyer() *graphio.Keyer {
	if cp.keyer == nil {
		return nil
	}
	return cp.keyer()
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
	if k := cp.Keyer(); k != nil {
		return k.StructKey()
	}
	return cp.structKey
}

// CanonOrder returns the canonical edge order of the compile-time
// instance (graphio.CanonicalEdgeOrder), used to transport probability
// vectors of structurally identical instances with different edge
// numberings onto the plan's numbering. The returned slice is shared
// and must not be mutated.
func (cp *CompiledPlan) CanonOrder() []int {
	if k := cp.Keyer(); k != nil {
		return k.Order()
	}
	return cp.canonOrder
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

// MarshalBinary encodes the plan in the canonical binary form of
// graphio (versioned header, flattened program, embedded structure key
// and canonical edge order). Opaque plans are not serializable: their
// evaluation is an exponential re-solve, not data.
func (cp *CompiledPlan) MarshalBinary() ([]byte, error) {
	if cp.opaque {
		return nil, fmt.Errorf("core: opaque plans are not serializable")
	}
	return graphio.AppendPlanRecord(nil, &graphio.PlanRecord{
		StructKey:  cp.StructKey(),
		Method:     uint8(cp.method),
		CanonOrder: cp.CanonOrder(),
		Program:    cp.prog,
		Parts:      cp.parts,
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
	*cp = CompiledPlan{
		method:     m,
		prog:       rec.Program,
		parts:      rec.Parts,
		owners:     partOwners(rec.Program, rec.Parts),
		numEdges:   rec.Program.NumEdges,
		structKey:  rec.StructKey,
		canonOrder: rec.CanonOrder,
	}
	return nil
}

// partOwners returns the lazy ownership derivation of a program with
// part table parts, or nil when there is no table.
func partOwners(prog *plan.Program, parts []int) func() *plan.PartOwners {
	if parts == nil {
		return nil
	}
	return sync.OnceValue(func() *plan.PartOwners { return plan.NewPartOwners(prog, parts) })
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
			return func(b *plan.Builder, comp *graph.ProbGraph, em []int) (uint32, error) {
				return plan.PartConnectedOn2WP(b, qs, comp, em)
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
			return func(b *plan.Builder, comp *graph.ProbGraph, em []int) (uint32, error) {
				return plan.PartDirectedPathOnDWT(b, comp, m, em)
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
			return func(b *plan.Builder, comp *graph.ProbGraph, em []int) (uint32, error) {
				return plan.Part1WPOnDWT(b, qs, comp, em)
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
			return func(b *plan.Builder, comp *graph.ProbGraph, em []int) (uint32, error) {
				return plan.PartDirectedPathOnPolytree(b, comp, m, em)
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

// emit emits the route's whole-instance program into b: the Lemma 3.7
// composite of its parts over h's components, or its constant. It
// returns the output handle and the composite's factor handles.
func (rt *solveRoute) emit(b *plan.Builder, qs UCQ, h *graph.ProbGraph) (out uint32, factors []uint32, err error) {
	part, c := rt.part(qs)
	if part == nil {
		return b.Const(c), nil, nil
	}
	comps, edgeMaps := h.ComponentsWithEdges()
	return plan.Compose(b, len(comps), func(i int) (uint32, error) {
		return part(b, comps[i], edgeMaps[i])
	})
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
	gLabels := g.Labels() // sorted
next:
	for _, q := range qs {
		if q.NumEdges() == 0 {
			return nil, true, false
		}
		for _, l := range q.Labels() {
			if _, ok := slices.BinarySearch(gLabels, l); !ok {
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
// disabled). Only the shape of h is checked (ProbGraph.Validate, O(1));
// its probabilities are not read: the returned plan depends solely on
// the structure of qs and h (and on opts, for the baseline limits), so
// it can be evaluated against any probability assignment over h's edge
// list.
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
	keyer := planKey(qs, h.G, opts)
	if len(qs) == 0 {
		// The empty union is false.
		return sealConst(ctx, MethodTrivial, new(big.Rat), n, keyer)
	}
	if h.G.NumVertices() == 0 {
		return nil, phomerr.New(phomerr.CodeBadInput, "core: empty instance graph")
	}
	if err := phomerr.Wrap(phomerr.CodeBadInput, h.Validate()); err != nil {
		return nil, err
	}
	live, edgeless, unlabeled := liveDisjuncts(qs, h.G)
	if edgeless {
		return sealConst(ctx, MethodTrivial, graph.RatOne, n, keyer)
	}
	if len(live) == 0 {
		return sealConst(ctx, MethodLabelMismatch, new(big.Rat), n, keyer)
	}
	rt, err := route(ctx, live, h, unlabeled)
	if err != nil {
		return nil, err
	}
	if rt != nil {
		b := plan.NewBuilder(ctx, n)
		out, factors, err := rt.emit(b, live, h)
		if err != nil {
			return nil, err
		}
		return seal(rt.method, b, out, factors, keyer)
	}
	return opaquePlan(live, h, opts, keyer)
}

// planKey returns the job's structure identity, built on first use: a
// graphio.NewKeyer over the canonical disjuncts, the engine's keying,
// so the structure key stamped on a plan is the one the engine's plan
// cache derives for the same job, and the engine can key the plan's
// jobs with the plan's own Keyer. The disjunct list is copied — the
// caller keeps its slice.
func planKey(qs UCQ, g *graph.Graph, opts *Options) func() *graphio.Keyer {
	qs = append(UCQ(nil), qs...)
	return sync.OnceValue(func() *graphio.Keyer {
		return graphio.NewKeyer(graphio.CanonicalQueries(qs), g, opts.StructFingerprint())
	})
}

// seal finishes the program emitted into b, with the part table of
// the composite's factors, and stamps the job's structure identity on
// the resulting CompiledPlan. Every structural compile path funnels
// through here, so non-opaque plans are always serializable. The
// builder polls its context as the compile-time dynamic programs
// unroll, so a cancelled compile surfaces here.
func seal(m Method, b *plan.Builder, out uint32, factors []uint32, keyer func() *graphio.Keyer) (*CompiledPlan, error) {
	prog, parts, err := b.FinishParts(out, factors)
	if err != nil {
		return nil, err
	}
	return &CompiledPlan{
		method:   m,
		prog:     prog,
		parts:    parts,
		owners:   partOwners(prog, parts),
		numEdges: prog.NumEdges,
		keyer:    keyer,
	}, nil
}

// sealConst seals the one-constant plan of a job decided by structure
// alone.
func sealConst(ctx context.Context, m Method, v *big.Rat, numEdges int, keyer func() *graphio.Keyer) (*CompiledPlan, error) {
	b := plan.NewBuilder(ctx, numEdges)
	return seal(m, b, b.Const(v), nil, keyer)
}

// opaquePlan builds the plan of an exponential-baseline cell over the
// live disjuncts qs. Its exact re-solve enumerates worlds up to the
// brute-force limit and past it runs Shannon expansion of the union
// lineage, extracted afresh per evaluation; the approx mode samples the
// same lineage, memoized per plan (approxState). Every opaque plan
// carries both — which path an evaluation takes is decided by the
// options it is evaluated under, and a cached plan serves jobs of every
// precision mode.
func opaquePlan(qs UCQ, h *graph.ProbGraph, opts *Options, keyer func() *graphio.Keyer) (*CompiledPlan, error) {
	matchLimit, bruteLimit := opts.matchLimit(), opts.bruteLimit()
	extract := func(ctx context.Context) (*boolform.DNF, error) {
		return unionLineage(ctx, qs, h.G, matchLimit)
	}
	resolve := func(ctx context.Context, probs []*big.Rat) (*Result, error) {
		// h's structure, read-only to the solver, under probs.
		h2, err := graph.WithProbs(h.G, slices.Clone(probs))
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
		keyer:    keyer,
	}, nil
}
