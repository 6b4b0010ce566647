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

// This file implements the two-stage solver pipeline: Compile runs the
// probability-independent phase of Solve (classification, dispatch,
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

// solveRoute is one tractable cell the solver can dispatch a single
// conjunctive query to: a guard over the input pair and the
// probability-independent compiler realizing the cell's algorithm. The
// guard table below replaces the previously mirrored connected /
// disconnected dispatch arms of Solve; routes are tried in order and
// the first applicable one wins, preserving the historical dispatch
// priority exactly (2WP intervals, then graded normalization, then
// labeled chains, then the polytree automaton).
type solveRoute struct {
	method  Method
	applies func(q *graph.Graph, h *graph.ProbGraph, unlabeled bool) bool
	compile func(q *graph.Graph, h *graph.ProbGraph) (plan.Plan, error)
}

var solveRoutes = []solveRoute{
	{
		// Proposition 4.11 + Lemma 3.7.
		method: MethodXProperty2WP,
		applies: func(q *graph.Graph, h *graph.ProbGraph, _ bool) bool {
			return q.IsConnected() && h.G.InClass(graph.ClassU2WP)
		},
		compile: func(q *graph.Graph, h *graph.ProbGraph) (plan.Plan, error) {
			return plan.ConnectedOn2WP(q, h)
		},
	},
	{
		// Proposition 3.6: any unlabeled query on ⊔DWT, graded or not
		// (a non-graded query has probability 0 on forest worlds).
		method: MethodGradedDWT,
		applies: func(_ *graph.Graph, h *graph.ProbGraph, unlabeled bool) bool {
			return unlabeled && h.G.InClass(graph.ClassUDWT)
		},
		compile: func(q *graph.Graph, h *graph.ProbGraph) (plan.Plan, error) {
			m, graded := q.DifferenceOfLevels()
			if !graded {
				return plan.NewConst(new(big.Rat)), nil
			}
			return plan.DirectedPathOnDWTs(h, m)
		},
	},
	{
		// Proposition 4.10 + Lemma 3.7 (labeled: the unlabeled case was
		// caught by the graded route above). A 1WP is connected, so this
		// route subsumes the old connected-arm guard.
		method: MethodBetaAcyclicDWT,
		applies: func(q *graph.Graph, h *graph.ProbGraph, _ bool) bool {
			return q.Is1WP() && h.G.InClass(graph.ClassUDWT)
		},
		compile: func(q *graph.Graph, h *graph.ProbGraph) (plan.Plan, error) {
			return plan.Path1WPOnDWT(q, h)
		},
	},
	{
		// Propositions 5.4/5.5 + Lemma 3.7. For a connected query,
		// membership in ⊔DWT coincides with membership in DWT, so one
		// guard covers both historical dispatch arms.
		method: MethodAutomatonPT,
		applies: func(q *graph.Graph, h *graph.ProbGraph, unlabeled bool) bool {
			return unlabeled && q.InClass(graph.ClassUDWT) && h.G.InClass(graph.ClassUPT)
		},
		compile: func(q *graph.Graph, h *graph.ProbGraph) (plan.Plan, error) {
			return plan.DirectedPathOnPolytrees(h, q.Height())
		},
	},
}

// Compile runs the probability-independent phase of Solve on (q, h):
// validation, classification, dispatch, construction of the cell's
// evaluation artifact, and its lowering to the flat Program IR. The
// probabilities of h are used only for validation — the returned plan
// depends solely on the structure of q and h (and on opts, for the
// baseline limits), so it can be evaluated against any probability
// assignment over h's edge list.
func Compile(q *graph.Graph, h *graph.ProbGraph, opts *Options) (*CompiledPlan, error) {
	return CompileContext(context.Background(), q, h, opts)
}

// CompileContext is Compile under a context. The guard-table dispatch
// polls ctx before each route, and the lowering of the chosen cell's
// artifact to the Program IR polls it every phomerr.CheckInterval
// emitted ops, so a cancelled context aborts even a large compile-time
// dynamic program within one checkpoint interval. A compile that
// completes is identical to Compile's.
func CompileContext(ctx context.Context, q *graph.Graph, h *graph.ProbGraph, opts *Options) (*CompiledPlan, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := phomerr.FromContext(ctx); err != nil {
		return nil, err
	}
	if q.NumVertices() == 0 {
		return nil, phomerr.New(phomerr.CodeBadInput, "core: empty query graph")
	}
	if h.G.NumVertices() == 0 {
		return nil, phomerr.New(phomerr.CodeBadInput, "core: empty instance graph")
	}
	if err := phomerr.Wrap(phomerr.CodeBadInput, h.Validate()); err != nil {
		return nil, err
	}
	n := h.G.NumEdges()
	key := sync.OnceValues(func() (string, []int) {
		return graphio.StructKeyJob([]string{graphio.CanonicalGraph(q)}, h.G, opts.StructFingerprint())
	})
	// An edgeless query maps every vertex to any instance vertex.
	if q.NumEdges() == 0 {
		return seal(ctx, MethodTrivial, plan.NewConst(graph.RatOne), n, key)
	}
	// A query label absent from the instance kills every match.
	hLabels := map[graph.Label]bool{}
	for _, l := range h.G.Labels() {
		hLabels[l] = true
	}
	for _, l := range q.Labels() {
		if !hLabels[l] {
			return seal(ctx, MethodLabelMismatch, plan.NewConst(new(big.Rat)), n, key)
		}
	}
	// After the check above, the unlabeled setting (|σ| = 1) holds iff
	// the instance uses at most one label.
	unlabeled := len(hLabels) <= 1

	for _, rt := range solveRoutes {
		// The guard-table checkpoint: route guards run class membership
		// tests (linear in the instance), so poll between routes.
		if err := phomerr.FromContext(ctx); err != nil {
			return nil, err
		}
		if rt.applies(q, h, unlabeled) {
			p, err := rt.compile(q, h)
			if err != nil {
				return nil, err
			}
			return seal(ctx, rt.method, p, n, key)
		}
	}

	bruteLimit, matchLimit := opts.bruteLimit(), opts.matchLimit()
	extract := cqLineageExtract(q, h.G, matchLimit)
	if opts.disableFallback() {
		err := phomerr.New(phomerr.CodeIntractable,
			"core: no polynomial-time algorithm applies (the case is #P-hard per Tables 1–3) and fallback is disabled")
		if opts.EffectivePrecision() != PrecisionApprox {
			return nil, err
		}
		// Approx mode under DisableFallback: the caller refused the
		// exponential baselines, not the sampler. Compile an opaque plan
		// whose exact re-solve still fails with the pinned intractable
		// error (an exact job hitting this cached plan behaves exactly as
		// if it had compiled it) while approx evaluation samples.
		resolve := func(context.Context, []*big.Rat) (*Result, error) { return nil, err }
		return opaquePlan(resolve, extract, n, key), nil
	}
	resolve := func(ctx context.Context, probs []*big.Rat) (*Result, error) {
		h2, err := reweighted(h, probs)
		if err != nil {
			return nil, err
		}
		if p, err := BruteForceLimitContext(ctx, q, h2, bruteLimit); err == nil {
			return &Result{Prob: p, Method: MethodBruteForce}, nil
		} else if phomerr.CodeOf(err) != phomerr.CodeLimit {
			return nil, err // cancellation, not an over-limit instance
		}
		p, err := LineageShannonContext(ctx, q, h2, matchLimit)
		if err != nil {
			if phomerr.CodeOf(err) == phomerr.CodeLimit {
				return nil, phomerr.New(phomerr.CodeLimit, "core: instance too large for exact baselines: %v", err)
			}
			return nil, err
		}
		return &Result{Prob: p, Method: MethodLineage}, nil
	}
	return opaquePlan(resolve, extract, n, key), nil
}

// CompileUCQ runs the probability-independent phase of SolveUCQ,
// dispatching to a lifted polynomial-time compiler when every disjunct
// falls in a compatible tractable cell and to an opaque re-solve plan
// otherwise (unless fallback is disabled).
func CompileUCQ(qs UCQ, h *graph.ProbGraph, opts *Options) (*CompiledPlan, error) {
	return CompileUCQContext(context.Background(), qs, h, opts)
}

// CompileUCQContext is CompileUCQ under a context, with the same
// checkpoint contract as CompileContext.
func CompileUCQContext(ctx context.Context, qs UCQ, h *graph.ProbGraph, opts *Options) (*CompiledPlan, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := phomerr.FromContext(ctx); err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		key := sync.OnceValues(func() (string, []int) {
			return graphio.StructKeyJob(nil, h.G, opts.StructFingerprint())
		})
		return seal(ctx, MethodTrivial, plan.NewConst(new(big.Rat)), h.G.NumEdges(), key)
	}
	if h.G.NumVertices() == 0 {
		return nil, phomerr.New(phomerr.CodeBadInput, "core: empty instance graph")
	}
	if err := phomerr.Wrap(phomerr.CodeBadInput, h.Validate()); err != nil {
		return nil, err
	}
	n := h.G.NumEdges()
	// The lazy key canonicalizes the original disjunct list (copied —
	// the caller keeps its slice — and sorted: union order is
	// irrelevant to the probability), matching the engine's keying, so
	// the structure key stamped on the plan is the one the engine's
	// plan cache derives for the same job.
	qsCopy := append(UCQ(nil), qs...)
	key := sync.OnceValues(func() (string, []int) {
		queryCanon := make([]string, len(qsCopy))
		for i, q := range qsCopy {
			queryCanon[i] = graphio.CanonicalGraph(q)
		}
		sort.Strings(queryCanon)
		return graphio.StructKeyJob(queryCanon, h.G, opts.StructFingerprint())
	})
	hLabels := map[graph.Label]bool{}
	for _, l := range h.G.Labels() {
		hLabels[l] = true
	}
	// Drop disjuncts that can never match; an edgeless disjunct matches
	// always.
	var live UCQ
	for _, q := range qs {
		if q.NumVertices() == 0 {
			return nil, phomerr.New(phomerr.CodeBadInput, "core: empty query graph in union")
		}
		if q.NumEdges() == 0 {
			return seal(ctx, MethodTrivial, plan.NewConst(graph.RatOne), n, key)
		}
		ok := true
		for _, l := range q.Labels() {
			if !hLabels[l] {
				ok = false
				break
			}
		}
		if ok {
			live = append(live, q)
		}
	}
	if len(live) == 0 {
		return seal(ctx, MethodLabelMismatch, plan.NewConst(new(big.Rat)), n, key)
	}
	unlabeled := len(hLabels) <= 1
	// The UCQ guard-table checkpoint, mirroring CompileContext's: the
	// lifted dispatch below runs class membership tests per disjunct.
	if err := phomerr.FromContext(ctx); err != nil {
		return nil, err
	}

	allConnected := true
	for _, q := range live {
		if !q.IsConnected() {
			allConnected = false
			break
		}
	}

	// Unlabeled ⊔DWT-equivalent unions collapse to the shortest path.
	if unlabeled {
		minM := -1
		for _, q := range live {
			m, ok := q.DifferenceOfLevels()
			if !ok {
				continue // non-graded disjunct: contributes only on ⊔DWT instances, where it is 0
			}
			if minM < 0 || m < minM {
				minM = m
			}
		}
		if h.G.InClass(graph.ClassUDWT) {
			// Prop 3.6 lifted: non-graded disjuncts never match a forest
			// world; the rest collapse to →^minM.
			if minM < 0 {
				return seal(ctx, MethodGradedDWT, plan.NewConst(new(big.Rat)), n, key)
			}
			p, err := plan.DirectedPathOnDWTs(h, minM)
			if err != nil {
				return nil, err
			}
			return seal(ctx, MethodGradedDWT, p, n, key)
		}
		if h.G.InClass(graph.ClassUPT) {
			// Prop 5.5 lifted, when every disjunct is a ⊔DWT query (the
			// equivalence with →^m then holds on all instances).
			allUDWT := true
			for _, q := range live {
				if !q.InClass(graph.ClassUDWT) {
					allUDWT = false
					break
				}
			}
			if allUDWT {
				m := 0
				for i, q := range live {
					hq := q.Height()
					if i == 0 || hq < m {
						m = hq
					}
				}
				p, err := plan.DirectedPathOnPolytrees(h, m)
				if err != nil {
					return nil, err
				}
				return seal(ctx, MethodAutomatonPT, p, n, key)
			}
		}
	}

	// Connected disjuncts on ⊔2WP instances: merged interval lineage.
	if allConnected && h.G.InClass(graph.ClassU2WP) {
		p, err := plan.UnionConnectedOn2WP(live, h)
		if err != nil {
			return nil, err
		}
		return seal(ctx, MethodXProperty2WP, p, n, key)
	}

	// Labeled 1WP disjuncts on ⊔DWT instances: merged chain lineage
	// (keep the shortest clause per node).
	all1WP := true
	for _, q := range live {
		if !q.Is1WP() {
			all1WP = false
			break
		}
	}
	if all1WP && h.G.InClass(graph.ClassUDWT) {
		p, err := plan.Union1WPOnDWT(live, h)
		if err != nil {
			return nil, err
		}
		return seal(ctx, MethodBetaAcyclicDWT, p, n, key)
	}

	extract := ucqLineageExtract(live, h.G, opts.matchLimit())
	if opts.disableFallback() {
		err := phomerr.New(phomerr.CodeIntractable,
			"core: no lifted polynomial-time algorithm applies to this UCQ and fallback is disabled")
		if opts.EffectivePrecision() != PrecisionApprox {
			return nil, err
		}
		// Same contract as CompileContext: exact re-solves keep the pinned
		// intractable error, approx evaluation samples the union lineage.
		resolve := func(context.Context, []*big.Rat) (*Result, error) { return nil, err }
		return opaquePlan(resolve, extract, n, key), nil
	}
	bruteLimit := opts.bruteLimit()
	resolve := func(ctx context.Context, probs []*big.Rat) (*Result, error) {
		h2, err := reweighted(h, probs)
		if err != nil {
			return nil, err
		}
		p, err := BruteForceUCQContext(ctx, live, h2, bruteLimit)
		if err != nil {
			return nil, err
		}
		return &Result{Prob: p, Method: MethodBruteForce}, nil
	}
	return opaquePlan(resolve, extract, n, key), nil
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

// opaquePlan builds the plan of an exponential-baseline cell: resolve
// is the exact re-solve, extract the lineage extraction the approx mode
// samples over. Every opaque plan carries both — which path an
// evaluation takes is decided by the options it is evaluated under, and
// a cached plan serves jobs of every precision mode.
func opaquePlan(resolve func(context.Context, []*big.Rat) (*Result, error), extract func(context.Context) (*boolform.DNF, error), numEdges int, key func() (string, []int)) *CompiledPlan {
	return &CompiledPlan{
		opaque:   true,
		resolve:  resolve,
		approx:   &approxState{extract: extract},
		numEdges: numEdges,
		key:      key,
	}
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
