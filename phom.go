// Package phom is a library for probabilistic graph homomorphism — the
// combined-complexity study of conjunctive query evaluation on
// tuple-independent probabilistic databases over binary signatures — as
// introduced by Amarilli, Monet and Senellart, "Conjunctive Queries on
// Probabilistic Graphs: Combined Complexity" (PODS 2017).
//
// The central problem is PHom: given a directed, edge-labeled query graph
// G and a probabilistic instance graph (H, π) whose edges exist
// independently with rational probabilities, compute
//
//	Pr(G ⇝ H) = Σ over subgraphs H' of H with G ⇝ H' of Pr(H'),
//
// the probability that G has a homomorphism to a random subgraph of H.
//
// The package exposes:
//
//   - graph construction (New, Path1WP, Path2WP, DisjointUnion, …) and
//     probabilistic instances (NewProbGraph) with exact *big.Rat
//     probabilities;
//   - the paper's graph classes (Class1WP … ClassAll), membership tests
//     (Graph.InClass) and the inclusion lattice (ClassIncluded);
//   - the v2 request API: a Request (query or UCQ + instance +
//     functional options) evaluated by SolveContext and CompileContext
//     under a context.Context — cancellation and deadlines abort even
//     the exponential baselines within one checkpoint interval
//     (CheckpointInterval), and failures carry a typed ErrorCode
//     (ErrBadInput, ErrLimit, ErrIntractable, ErrCanceled,
//     ErrDeadline);
//   - Solve, which dispatches to a polynomial-time algorithm whenever the
//     input pair falls in a tractable cell of the paper's classification
//     (Propositions 3.6, 4.10, 4.11, 5.4, 5.5 and Lemma 3.7), and
//     otherwise to an exact exponential baseline;
//   - Compile and Plan, the two-stage form of Solve: one probability-
//     independent compilation serves arbitrarily many probability
//     assignments over the same structure, each at linear evaluation
//     cost;
//   - Predict, the complexity classifier reproducing Tables 1–3;
//   - BruteForce and LineageShannon, the exact exponential baselines;
//   - Engine, a concurrent batch evaluator (worker pool, in-flight
//     deduplication, memoization) with context-aware submission
//     (DoContext, SolveBatchContext) and completion-order streaming
//     (Stream), which also backs the cmd/phomserve HTTP service.
//
// A single query and a union of conjunctive queries compile through
// the same guard table (a query is the one-disjunct union), so a
// one-element union routes, and answers, exactly like its query.
//
// The context-free Solve / SolveUCQ / Compile / CompileUCQ remain as
// thin v1 compatibility shims over the v2 path with byte-identical
// results; new code should construct a Request and call the *Context
// functions. All probability arithmetic is exact. See DESIGN.md for
// the system inventory (including the request API and error taxonomy)
// and EXPERIMENTS.md for the reproduction of every table and figure of
// the paper.
package phom

import (
	"context"
	"math/big"

	"phom/internal/core"
	"phom/internal/graph"
	"phom/internal/plan"
)

// Core graph types, re-exported from the implementation packages so that
// user code only imports phom.
type (
	// Graph is a directed graph with labeled edges and no multi-edges.
	Graph = graph.Graph
	// ProbGraph is a probabilistic graph (H, π).
	ProbGraph = graph.ProbGraph
	// Vertex identifies a vertex (0 … n−1).
	Vertex = graph.Vertex
	// Label is an edge label from the finite alphabet σ.
	Label = graph.Label
	// Edge is a directed labeled edge.
	Edge = graph.Edge
	// Step describes one edge of a two-way path literal.
	Step = graph.Step
	// Homomorphism maps query vertices to instance vertices.
	Homomorphism = graph.Homomorphism
	// Class is one of the paper's graph classes.
	Class = graph.Class
)

// Unlabeled is the conventional label for the unlabeled setting (|σ|=1).
const Unlabeled = graph.Unlabeled

// The graph classes of the paper (§2, Figure 2).
const (
	Class1WP       = graph.Class1WP
	Class2WP       = graph.Class2WP
	ClassDWT       = graph.ClassDWT
	ClassPT        = graph.ClassPT
	ClassConnected = graph.ClassConnected
	ClassU1WP      = graph.ClassU1WP
	ClassU2WP      = graph.ClassU2WP
	ClassUDWT      = graph.ClassUDWT
	ClassUPT       = graph.ClassUPT
	ClassAll       = graph.ClassAll
)

// AllClasses lists every class in a fixed order.
var AllClasses = graph.AllClasses

// New returns a graph with n isolated vertices.
func New(n int) *Graph { return graph.New(n) }

// NewProbGraph wraps g with every edge certain; adjust with SetProb.
func NewProbGraph(g *Graph) *ProbGraph { return graph.NewProbGraph(g) }

// Path1WP builds the one-way path with the given edge labels.
func Path1WP(labels ...Label) *Graph { return graph.Path1WP(labels...) }

// UnlabeledPath builds the unlabeled one-way path →^m.
func UnlabeledPath(m int) *Graph { return graph.UnlabeledPath(m) }

// Path2WP builds the two-way path following the given steps.
func Path2WP(steps ...Step) *Graph { return graph.Path2WP(steps...) }

// Fwd is a forward step for Path2WP.
func Fwd(l Label) Step { return graph.Fwd(l) }

// Bwd is a backward step for Path2WP.
func Bwd(l Label) Step { return graph.Bwd(l) }

// DisjointUnion concatenates graphs, returning the union and the vertex
// offset of each part.
func DisjointUnion(parts ...*Graph) (*Graph, []Vertex) { return graph.DisjointUnion(parts...) }

// Rat parses an exact rational probability such as "1/2" or "0.35"; it
// panics on malformed input (intended for literals — parse untrusted
// input with ParseRat, which returns a typed ErrBadInput instead).
func Rat(s string) *big.Rat { return graph.Rat(s) }

// ClassIncluded reports whether class a is included in class b per the
// inclusion diagram of Figure 2.
func ClassIncluded(a, b Class) bool { return graph.ClassIncluded(a, b) }

// HasHomomorphism decides G ⇝ H (non-probabilistic) by backtracking
// search; exponential in the worst case.
func HasHomomorphism(query, instance *Graph) bool { return graph.HasHomomorphism(query, instance) }

// Equivalent reports whether two query graphs are homomorphically
// equivalent (G ⇝ H iff G' ⇝ H for all H).
func Equivalent(g1, g2 *Graph) bool { return graph.Equivalent(g1, g2) }

// Solver types, re-exported.
type (
	// Method identifies the algorithm Solve used.
	Method = core.Method
	// Options configures Solve.
	Options = core.Options
	// Result is the outcome of Solve.
	Result = core.Result
	// Verdict is a predicted complexity classification.
	Verdict = core.Verdict
)

// Precision selects the numeric substrate of plan evaluation (see
// Options.Precision): exact rational arithmetic, the certified float64
// interval kernel, or automatic routing between the two.
type Precision = core.Precision

// The precision modes. PrecisionExact (the zero value) computes exact
// rationals; PrecisionFast runs the float64 interval kernel and
// reports a certified absolute-error bound (Result.Bounds);
// PrecisionAuto serves the float answer when its certified bound is
// within Options.FloatTolerance and falls back to exact arithmetic —
// byte-identical to PrecisionExact — otherwise; PrecisionApprox
// answers #P-hard cells with the seeded Karp–Luby (ε,δ) estimator
// (Options.Epsilon/Delta/Seed) instead of an exponential baseline,
// reporting statistical Hoeffding bounds, and evaluates tractable
// cells exactly.
const (
	PrecisionExact  = core.PrecisionExact
	PrecisionFast   = core.PrecisionFast
	PrecisionAuto   = core.PrecisionAuto
	PrecisionApprox = core.PrecisionApprox
)

// DefaultFloatTolerance is the default certified-error cap of
// PrecisionAuto (Options.FloatTolerance = 0).
const DefaultFloatTolerance = core.DefaultFloatTolerance

// DefaultEpsilon and DefaultDelta are the default (ε,δ) guarantee of
// PrecisionApprox (Options.Epsilon = 0 / Options.Delta = 0): relative
// error 5% with failure probability 1%.
const (
	DefaultEpsilon = core.DefaultEpsilon
	DefaultDelta   = core.DefaultDelta
)

// ParsePrecision parses "exact", "fast", "auto" or "approx" (and "" as
// exact).
func ParsePrecision(s string) (Precision, error) { return core.ParsePrecision(s) }

// Enclosure is a certified float64 interval [Lo, Hi] guaranteed to
// contain an exact probability; fast-precision results carry one as
// Result.Bounds.
type Enclosure = plan.Enclosure

// The solver methods.
const (
	MethodTrivial        = core.MethodTrivial
	MethodLabelMismatch  = core.MethodLabelMismatch
	MethodGradedDWT      = core.MethodGradedDWT
	MethodBetaAcyclicDWT = core.MethodBetaAcyclicDWT
	MethodXProperty2WP   = core.MethodXProperty2WP
	MethodAutomatonPT    = core.MethodAutomatonPT
	MethodBruteForce     = core.MethodBruteForce
	MethodLineage        = core.MethodLineage
	MethodKarpLuby       = core.MethodKarpLuby
)

// Solve computes Pr(G ⇝ H) exactly, using a polynomial-time algorithm
// whenever the input pair lies in a tractable cell of the paper's
// classification and an exponential baseline otherwise (unless
// opts.DisableFallback is set). opts may be nil for defaults.
//
// Solve is the v1 compatibility shim over the v2 request path — a thin
// wrapper around SolveContext under context.Background(), with
// byte-identical results; new code should prefer SolveContext, which
// adds cancellation, deadlines and typed errors.
func Solve(query *Graph, instance *ProbGraph, opts *Options) (*Result, error) {
	return SolveContext(context.Background(), NewRequest(query, instance, WithOptions(opts)))
}

// Plan is a compiled solver plan: the probability-independent phase of
// Solve, reusable across probability assignments. Compile once, then
// Evaluate per assignment — Evaluate takes a context, the probability
// vector in the instance's edge-list order (ProbGraph.Probs) and the
// evaluation's options (nil: exact), and returns results byte-identical
// to Solve on the correspondingly reweighted instance.
// Every tractable cell evaluates in linear time; #P-hard cells compile
// to an opaque plan that re-solves per evaluation (Plan.Opaque reports
// this). Plans are immutable and safe for concurrent use.
//
// Non-opaque plans are first-class data: internally a flattened
// evaluation program (see DESIGN.md, "Evaluation IR and plan
// serialization") with a canonical binary form via MarshalBinary /
// UnmarshalBinary, so compiled structures can be persisted and shipped
// between processes. An Engine's plan cache uses this to warm-start
// (Engine.SavePlans / LoadPlans, EngineOptions.PlanSnapshotPath).
type Plan = core.CompiledPlan

// Compile runs the probability-independent phase of Solve on
// (query, instance): validation, classification, dispatch, and
// construction of the evaluation artifact (lineage systems, d-DNNF
// circuits). The instance's probabilities are used only for validation;
// the plan depends solely on structure.
//
// Compile is the v1 compatibility shim over CompileContext under
// context.Background(), with identical plans; new code should prefer
// CompileContext.
func Compile(query *Graph, instance *ProbGraph, opts *Options) (*Plan, error) {
	return CompileContext(context.Background(), NewRequest(query, instance, WithOptions(opts)))
}

// CompileUCQ is Compile for a union of conjunctive queries — the v1
// shim over CompileContext with a NewUCQRequest.
func CompileUCQ(queries UCQ, instance *ProbGraph, opts *Options) (*Plan, error) {
	return CompileContext(context.Background(), NewUCQRequest(queries, instance, WithOptions(opts)))
}

// BruteForce computes Pr(G ⇝ H) by possible-world enumeration —
// exponential in the number of uncertain edges, but exact; it is the
// reference oracle.
func BruteForce(query *Graph, instance *ProbGraph) *big.Rat {
	return core.BruteForce(query, instance)
}

// LineageShannon computes Pr(G ⇝ H) by enumerating matches and running
// Shannon expansion on the DNF lineage; exponential in the worst case.
// maxMatches caps match enumeration (0 = unbounded).
func LineageShannon(query *Graph, instance *ProbGraph, maxMatches int) (*big.Rat, error) {
	return core.LineageShannon(query, instance, maxMatches)
}

// Predict returns the combined complexity (PTIME or #P-hard, with the
// paper result it follows from) of PHom restricted to the given query and
// instance classes, in the labeled or unlabeled setting — the cells of
// Tables 1–3.
func Predict(queryClass, instanceClass Class, labeled bool) Verdict {
	return core.Predict(queryClass, instanceClass, labeled)
}

// UCQ is a union of conjunctive queries: a disjunction of query graphs
// (a query-language extension suggested in the paper's conclusion).
type UCQ = core.UCQ

// SolveUCQ computes Pr(G₁ ∨ … ∨ G_k ⇝ H). The tractable cases of the
// paper lift to unions (their β-acyclic lineage families are closed
// under union); outside them an exponential baseline is used unless
// disabled.
//
// SolveUCQ is the v1 compatibility shim over SolveContext with a
// NewUCQRequest, byte-identical to the v2 path; new code should prefer
// SolveContext.
func SolveUCQ(queries UCQ, instance *ProbGraph, opts *Options) (*Result, error) {
	return SolveContext(context.Background(), NewUCQRequest(queries, instance, WithOptions(opts)))
}

// CountWorlds solves the unweighted variant of PHom (all uncertain edges
// at probability 1/2, §6): the number of possible worlds admitting a
// homomorphism, and the number of coins (the count is out of 2^coins).
func CountWorlds(query *Graph, instance *ProbGraph, opts *Options) (*big.Int, int, error) {
	return core.CountWorlds(query, instance, opts)
}
