package phom

import (
	"context"
	"time"

	"phom/internal/core"
	"phom/internal/engine"
	"phom/internal/phomerr"
)

// Request is the unified v2 request: one evaluation job — a query (or
// a union of conjunctive queries), a probabilistic instance, solver
// options and an optional per-request timeout — accepted by every
// context-aware entry point: SolveContext and CompileContext here, and
// Engine.DoContext / Engine.SolveBatchContext / Engine.Stream on the
// engine (Request and Job are the same type).
//
// Construct requests with NewRequest / NewUCQRequest and the
// functional options (WithPrecision, WithTimeout, …), or fill the
// fields literally; the zero value of every field means its default.
type Request = engine.Job

// RequestOption configures a Request under construction; pass to
// NewRequest or NewUCQRequest.
type RequestOption func(*Request)

// NewRequest builds a single-query request against instance.
func NewRequest(query *Graph, instance *ProbGraph, opts ...RequestOption) Request {
	r := Request{Query: query, Instance: instance}
	for _, o := range opts {
		o(&r)
	}
	return r
}

// NewUCQRequest builds a request for a union of conjunctive queries
// Pr(G₁ ∨ … ∨ G_k ⇝ H) against instance. A nil or empty union is a
// valid request: an empty disjunction is false, so it solves to
// probability 0 (matching SolveUCQ since v1).
func NewUCQRequest(queries UCQ, instance *ProbGraph, opts ...RequestOption) Request {
	if queries == nil {
		queries = UCQ{}
	}
	r := Request{Queries: queries, Instance: instance}
	for _, o := range opts {
		o(&r)
	}
	return r
}

// reqOpts returns the request's solver options, allocating them on
// first use so functional options compose in any order.
func reqOpts(r *Request) *Options {
	if r.Opts == nil {
		r.Opts = &Options{}
	}
	return r.Opts
}

// WithOptions replaces the request's solver options wholesale (copied,
// so later functional options do not mutate the caller's struct). A
// nil o resets to defaults. It is the bridge from v1 code that already
// builds *Options values.
func WithOptions(o *Options) RequestOption {
	return func(r *Request) {
		if o == nil {
			r.Opts = nil
			return
		}
		c := *o
		r.Opts = &c
	}
}

// WithBruteForceLimit caps the number of uncertain edges the
// brute-force baseline accepts (0 = the default limit).
func WithBruteForceLimit(n int) RequestOption {
	return func(r *Request) { reqOpts(r).BruteForceLimit = n }
}

// WithMatchLimit caps the number of matches the lineage baseline
// enumerates (0 = the default limit).
func WithMatchLimit(n int) RequestOption {
	return func(r *Request) { reqOpts(r).MatchLimit = n }
}

// WithoutFallback makes the request fail with ErrIntractable instead
// of running an exponential baseline on a #P-hard input pair.
func WithoutFallback() RequestOption {
	return func(r *Request) { reqOpts(r).DisableFallback = true }
}

// WithPrecision selects the numeric substrate of plan evaluation
// (PrecisionExact, PrecisionFast, PrecisionAuto or PrecisionApprox).
func WithPrecision(p Precision) RequestOption {
	return func(r *Request) { reqOpts(r).Precision = p }
}

// WithFloatTolerance sets the widest certified error PrecisionAuto
// serves without falling back to exact arithmetic (0 = the default,
// DefaultFloatTolerance).
func WithFloatTolerance(tol float64) RequestOption {
	return func(r *Request) { reqOpts(r).FloatTolerance = tol }
}

// WithEpsilon sets the PrecisionApprox relative error bound, in (0,1)
// (0 = the default, DefaultEpsilon). Requests carrying an epsilon under
// any other precision mode are rejected with ErrBadInput.
func WithEpsilon(eps float64) RequestOption {
	return func(r *Request) { reqOpts(r).Epsilon = eps }
}

// WithDelta sets the PrecisionApprox failure probability budget, in
// (0,1) (0 = the default, DefaultDelta). Like WithEpsilon it is
// rejected outside approx mode.
func WithDelta(delta float64) RequestOption {
	return func(r *Request) { reqOpts(r).Delta = delta }
}

// WithSeed seeds the PrecisionApprox sampler: equal requests with equal
// seeds reproduce the estimate byte-for-byte. A non-zero seed is
// rejected outside approx mode.
func WithSeed(seed uint64) RequestOption {
	return func(r *Request) { reqOpts(r).Seed = seed }
}

// WithTimeout gives the request an execution budget: it fails with
// ErrDeadline once d has elapsed. The timeout is scheduling policy,
// not semantics — it takes no part in engine cache keys.
func WithTimeout(d time.Duration) RequestOption {
	return func(r *Request) { r.Timeout = d }
}

// resolveRequest validates the request and returns its disjunct list.
// A non-nil Queries slice is the union, even when empty (an empty
// union solves to probability 0, as SolveUCQ always has); otherwise
// the single Query is the one-disjunct union. Both compile through the
// same guard table, so a one-element Queries routes exactly like Query.
func resolveRequest(req Request) (UCQ, error) {
	if req.Queries == nil && req.Query == nil {
		return nil, phomerr.New(phomerr.CodeBadInput, "phom: request has no query graph")
	}
	if req.Instance == nil {
		return nil, phomerr.New(phomerr.CodeBadInput, "phom: request has no instance graph")
	}
	if req.Queries == nil {
		return UCQ{req.Query}, nil
	}
	for _, q := range req.Queries {
		if q == nil {
			return nil, phomerr.New(phomerr.CodeBadInput, "phom: nil query graph in request")
		}
	}
	return UCQ(req.Queries), nil
}

// SolveContext computes Pr(G ⇝ H) (or its UCQ lift) for the request
// under ctx — the v2 form of Solve and SolveUCQ, and the path both
// shims delegate to.
//
// Cancellation contract: compilation, the exponential baselines and
// exact evaluation poll ctx at cooperative checkpoints (every
// CheckpointInterval iterations), so a cancelled or deadlined context
// — including one derived from WithTimeout — aborts the job within one
// checkpoint interval; the error then satisfies errors.Is(err,
// ErrCanceled) or errors.Is(err, ErrDeadline). A run that completes is
// byte-identical to the context-free v1 call.
func SolveContext(ctx context.Context, req Request) (*Result, error) {
	qs, err := resolveRequest(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := requestContext(ctx, req)
	defer cancel()
	return core.SolveUCQContext(ctx, qs, req.Instance, req.Opts)
}

// CompileContext runs the probability-independent phase of
// SolveContext and returns the reusable Plan — the v2 form of Compile
// and CompileUCQ, with the same cancellation contract as SolveContext.
func CompileContext(ctx context.Context, req Request) (*Plan, error) {
	qs, err := resolveRequest(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := requestContext(ctx, req)
	defer cancel()
	return core.CompileUCQContext(ctx, qs, req.Instance, req.Opts)
}

// requestContext applies the request's Timeout on top of ctx, with the
// same rule as Engine.DoContext: only a positive Timeout counts. The
// returned cancel must be called (it releases the timer).
func requestContext(ctx context.Context, req Request) (context.Context, context.CancelFunc) {
	if req.Timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, req.Timeout)
}
