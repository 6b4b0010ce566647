package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"phom/internal/approx"
	"phom/internal/core"
	"phom/internal/engine"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/serve"
)

// The traced run replays a workload with one client. After each
// request answers through the gate, the benchmark re-runs the layers of
// that request on the same inputs, each under its own span sharing the
// request's id:
//
//   - gate.http and replica.http: the same requests through a shadow
//     gate in front of its own shadow replica, and straight to a second
//     shadow replica, both over loopback (gateway.hop_us is the
//     difference of their medians);
//   - serve.handler: the same requests through an in-process
//     Handler().ServeHTTP on a third shadow engine (serve.net_us is
//     replica.http minus this);
//   - the public functions each layer calls on the request's inputs:
//     decode, parse, keying, classification, DoContext on a fourth
//     shadow engine, compilation, exact/batched/approx evaluation,
//     deltas and encoding.
//
// The three serving replays alternate their order from one request to
// the next, so the garbage one leaves behind slows each of them equally
// often. The shadows are warmed like the tier and then see exactly the
// traced requests, so their caches hit where the tier's do. Spans stay
// in memory and are written to a file when the run ends. A span's self
// time is derived per request kind as its median minus the medians of
// its on-path children, and is labelled as derived. Nothing inside
// internal/ is instrumented.

// span is one timed call. Parent names the logical parent span of the
// same request; OnPath says whether the request's own serving path runs
// this call (compile on a plan hit, say, does not).
type span struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"` // the op kind of the request
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	OnPath  bool   `json:"on_path"`
}

// perLayer lists the traced run's metrics and units, in report order.
var perLayer = []struct{ name, unit string }{
	{"gateway.hop_us", "us"},
	{"gateway.route_us", "us"},
	{"gateway.shed", "count"},
	{"gateway.retries", "count"},
	{"serve.handler_us", "us"},
	{"serve.net_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"graphio.parse_us", "us"},
	{"graphio.parse_rat_us", "us"},
	{"graphio.keys_us", "us"},
	{"core.classify_us", "us"},
	{"core.compile_us", "us"},
	{"core.compile_us." + rowXProperty, "us"},
	{"core.compile_us." + rowGraded, "us"},
	{"core.compile_us." + rowBeta, "us"},
	{"core.compile_us." + rowAutomaton, "us"},
	{"core.compile_us." + rowOpaque, "us"},
	{"core.plan_ops", "count"},
	{"core.patch_compile_us", "us"},
	{"engine.do_us", "us"},
	{"engine.apply_delta_us", "us"},
	{"engine.plan_hit_ratio", "ratio"},
	{"engine.memo_hit_ratio", "ratio"},
	{"engine.batch_lanes_per_run", "count"},
	{"engine.float_fast_ratio", "ratio"},
	{"engine.incremental_ratio", "ratio"},
	{"plan.eval_exact_us", "us"},
	{"plan.denom_bits", "bits"},
	{"plan.eval_batch_us_per_lane", "us"},
	{"approx.eval_us", "us"},
	{"approx.samples_per_job", "count"},
	{"instance.apply_us", "us"},
	{"trace.overhead_share", "share"},
}

// tracer holds the shadows and the recorded spans and series.
type tracer struct {
	gated     *tier // a shadow gate over one shadow replica
	direct    *engine.Engine
	directSrv *http.Server
	directURL string
	handlerEn *engine.Engine
	handler   http.Handler
	do        *engine.Engine
	routes    *serve.RouteCache

	spans  []span
	series map[string][]float64 // on-path samples per span or counter name
	all    map[string][]float64 // every sample, on path or not
	plans  map[string]*core.CompiledPlan
	errs   []string
	kind   string // kind of the op being recorded
	ops    int
}

func newTracer(ctx context.Context, w workload) (*tracer, error) {
	gated, err := startTier(1, 1)
	if err != nil {
		return nil, err
	}
	tr := &tracer{
		gated:     gated,
		direct:    engine.New(engine.Options{}),
		handlerEn: engine.New(engine.Options{}),
		do:        engine.New(engine.Options{}),
		routes:    serve.NewRouteCache(0),
		series:    map[string][]float64{},
		all:       map[string][]float64{},
		plans:     map[string]*core.CompiledPlan{},
	}
	tr.handler = serve.New(tr.handlerEn).Handler()
	srv, url, err := listen(serve.New(tr.direct).Handler())
	if err != nil {
		tr.close()
		return nil, err
	}
	tr.directSrv, tr.directURL = srv, url
	for i, o := range w.warm() {
		id := fmt.Sprintf("warm-%d", i)
		for _, base := range []string{tr.gated.gateURL, tr.directURL} {
			rs, err := send(ctx, tr.gated.client, base, id, o)
			if err == nil {
				_, err = checkOp(o, rs, id, newObserved())
			}
			if err != nil {
				tr.close()
				return nil, fmt.Errorf("shadow warm-up: %v", err)
			}
		}
		for _, rq := range o.reqs {
			tr.serveInProcess(id, rq)
			if o.live == nil {
				tr.routes.Route(rq.body)
			}
		}
		switch {
		case o.kind == "create":
			if _, err := tr.do.CreateInstance(o.live.inst.id, o.live.inst.h); err != nil {
				tr.close()
				return nil, fmt.Errorf("shadow instance: %v", err)
			}
		default:
			if r := tr.doOp(ctx, o); r != nil {
				tr.close()
				return nil, fmt.Errorf("shadow warm-up: %v", r)
			}
		}
	}
	return tr, nil
}

func (tr *tracer) close() {
	if tr.directSrv != nil {
		_ = tr.directSrv.Close()
	}
	tr.gated.close()
	for _, e := range []*engine.Engine{tr.direct, tr.handlerEn, tr.do} {
		_ = e.Close()
	}
}

// serveInProcess runs one request through the shadow handler.
func (tr *tracer) serveInProcess(id string, rq request) int {
	req := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
	req.Header.Set(serve.RequestIDHeader, id)
	rec := httptest.NewRecorder()
	tr.handler.ServeHTTP(rec, req)
	return rec.Code
}

// doOp runs the op's jobs on the shadow engine and returns the first
// failure. A live op's deltas must already be applied.
func (tr *tracer) doOp(ctx context.Context, o *op) error {
	if o.live != nil {
		job, _, err := tr.do.InstanceJob(o.live.inst.id, engine.Job{Query: o.live.inst.q})
		if err != nil {
			return err
		}
		return tr.do.DoContext(ctx, job).Err
	}
	q, insts := opInputs(o)
	if len(insts) == 1 {
		return tr.do.DoContext(ctx, engine.Job{Query: q, Instance: insts[0], Opts: o.opts}).Err
	}
	jobs := make([]engine.Job, len(insts))
	for k, h := range insts {
		jobs[k] = engine.Job{Query: q, Instance: h, Opts: o.opts}
	}
	for _, r := range tr.do.SolveBatchContext(ctx, jobs) {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// time runs f under a span and records its duration.
func (tr *tracer) time(id, name, parent string, onPath bool, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	tr.note(id, name, parent, onPath, start, end)
	return end.Sub(start)
}

func (tr *tracer) note(id, name, parent string, onPath bool, start, end time.Time) {
	tr.spans = append(tr.spans, span{ID: id, Kind: tr.kind, Name: name, Parent: parent, StartNS: start.UnixNano(), EndNS: end.UnixNano(), OnPath: onPath})
	us := float64(end.Sub(start)) / float64(time.Microsecond)
	tr.all[name] = append(tr.all[name], us)
	if onPath {
		tr.series[name] = append(tr.series[name], us)
	}
}

func (tr *tracer) count(name string, v float64) { tr.all[name] = append(tr.all[name], v) }

func (tr *tracer) fail(format string, args ...any) {
	if len(tr.errs) < 5 {
		tr.errs = append(tr.errs, fmt.Sprintf(format, args...))
	}
}

// record re-runs the layers of one answered op; it is the loop's onDone
// hook and runs outside the op's timing.
func (tr *tracer) record(id string, o *op, rs []response, t0, t1 time.Time) {
	ctx := context.Background()
	tr.kind = o.kind
	tr.note(id, "request", "", true, t0, t1)
	if o.live == nil {
		for _, rq := range o.reqs {
			tr.time(id, "gateway.route", "gate.http", true, func() { tr.routes.Route(rq.body) })
		}
	}
	replays := []func(){
		func() {
			tr.time(id, "gate.http", "request", true, func() {
				if _, err := send(ctx, tr.gated.client, tr.gated.gateURL, id, o); err != nil {
					tr.fail("shadow gate: %v", err)
				}
			})
		},
		func() {
			tr.time(id, "replica.http", "gate.http", true, func() {
				if _, err := send(ctx, tr.gated.client, tr.directURL, id, o); err != nil {
					tr.fail("shadow replica: %v", err)
				}
			})
		},
		func() {
			tr.time(id, "serve.handler", "replica.http", true, func() {
				for _, rq := range o.reqs {
					if code := tr.serveInProcess(id, rq); code != http.StatusOK {
						tr.fail("shadow handler %s: status %d", rq.path, code)
					}
				}
			})
		},
	}
	tr.ops++
	for k := range replays {
		if tr.ops%2 == 0 {
			k = len(replays) - 1 - k
		}
		replays[k]()
	}

	body := o.reqs[len(o.reqs)-1].body
	var req serve.ReweightRequest
	tr.time(id, "serve.decode", "serve.handler", true, func() {
		if err := json.Unmarshal(body, &req); err != nil {
			tr.fail("decode: %v", err)
		}
	})
	var parsed *graph.ProbGraph
	tr.time(id, "graphio.parse", "serve.handler", true, func() {
		if _, err := graphio.ParseGraph(strings.NewReader(req.QueryText)); err != nil {
			tr.fail("parse query: %v", err)
		}
		if req.InstanceText != "" {
			var err error
			if parsed, err = graphio.ParseProbGraph(strings.NewReader(req.InstanceText)); err != nil {
				tr.fail("parse instance: %v", err)
			}
		}
	})
	vecs := req.ProbsBatch
	if req.Probs != nil {
		vecs = []map[string]string{req.Probs}
	}
	if len(vecs) > 0 {
		d := tr.time(id, "graphio.parse_rat", "serve.handler", true, func() {
			for _, v := range vecs {
				for _, s := range v {
					if _, err := graphio.ParseRat(s); err != nil {
						tr.fail("parse rat: %v", err)
					}
				}
			}
		})
		// Reported per vector: a 64-lane request parses 64 of them.
		tr.count("graphio.parse_rat_per_vector", float64(d)/float64(time.Microsecond)/float64(len(vecs)))
	}
	q, insts := opInputs(o)
	tr.time(id, "graphio.keys", "serve.handler", true, func() {
		graphio.JobKeys([]string{graphio.CanonicalGraph(q)}, insts[0], o.opts.Fingerprint(), o.opts.StructFingerprint())
	})

	if o.live != nil {
		st := o.live
		tr.note(id, "instance.apply", "engine.apply_delta", true, st.applyStart, st.applyStart.Add(st.applyDur))
		tr.time(id, "engine.apply_delta", "serve.handler", true, func() {
			if _, err := tr.do.ApplyDelta(st.inst.id, int64(st.old.Version), st.deltas); err != nil {
				tr.fail("shadow delta: %v", err)
			}
		})
		if st.structural {
			old := tr.plans[st.inst.id]
			if old == nil {
				old, _ = core.Compile(st.inst.q, st.old.H, nil)
			}
			if old != nil {
				tr.time(id, "core.patch_compile", "engine.apply_delta", true, func() {
					if _, _, err := core.PatchCompile(st.inst.q, old, st.old.H.G, st.cur.H, nil); err != nil {
						tr.fail("patch compile: %v", err)
					}
				})
			}
		}
	}
	tr.time(id, "engine.do", "serve.handler", true, func() {
		if err := tr.doOp(ctx, o); err != nil {
			tr.fail("shadow engine: %v", err)
		}
	})
	tr.layersBelowEngine(ctx, id, o, q, insts)

	// Classification runs on a freshly parsed instance, as serve's
	// buildResponse sees it: the class memo starts clean.
	fresh := parsed
	if fresh == nil {
		fresh = insts[0].Clone()
	}
	tr.time(id, "core.classify", "serve.handler", true, func() { core.PredictInput(q, fresh) })

	var v any = &serve.SolveResponse{}
	if len(o.vecs) > 1 {
		v = &serve.BatchResponse{}
	}
	if err := json.Unmarshal(rs[len(rs)-1].body, v); err != nil {
		tr.fail("response: %v", err)
	}
	tr.time(id, "serve.encode", "serve.handler", true, func() {
		if _, err := json.Marshal(v); err != nil {
			tr.fail("encode: %v", err)
		}
	})
}

// layersBelowEngine times what the engine does for the op: compile,
// and exact, batched or approx evaluation of the compiled plan. Calls
// the op's own serving path skips (compile on a plan hit) are recorded
// off path.
func (tr *tracer) layersBelowEngine(ctx context.Context, id string, o *op, q *graph.Graph, insts []*graph.ProbGraph) {
	cold := o.kind == "cold" || o.kind == "hard"
	var cp *core.CompiledPlan
	tr.time(id, "core.compile", "engine.do", cold, func() {
		var err error
		if cp, err = core.CompileContext(ctx, q, insts[0], o.opts); err != nil {
			tr.fail("compile: %v", err)
		}
	})
	if cp == nil {
		return
	}
	row := rowOf(cp)
	all := tr.all["core.compile"]
	tr.all["core.compile."+row] = append(tr.all["core.compile."+row], all[len(all)-1])
	if o.live != nil {
		tr.plans[o.live.inst.id] = cp
	}
	prog := cp.Program()
	if prog != nil {
		tr.count("core.plan_ops", float64(prog.NumOps()))
		var p *big.Rat
		exact := o.opts == nil && o.kind != "solve_memo" // a memo hit evaluates nothing
		tr.time(id, "plan.eval_exact", "engine.do", exact, func() {
			var err error
			if p, err = prog.ExecCtx(ctx, insts[0].Probs()); err != nil {
				tr.fail("exec: %v", err)
			}
		})
		if p != nil {
			tr.count("plan.denom_bits", float64(p.Denom().BitLen()))
		}
		vecs := make([][]*big.Rat, len(insts))
		for k, h := range insts {
			vecs[k] = h.Probs()
		}
		d := tr.time(id, "plan.eval_batch", "engine.do", o.opts == fastOpts, func() {
			if _, err := prog.ExecFloatBatchCtx(ctx, vecs); err != nil {
				tr.fail("batch exec: %v", err)
			}
		})
		tr.count("plan.eval_batch_per_lane", float64(d)/float64(time.Microsecond)/float64(len(vecs)))
	}
	if o.opts == approxOpts {
		dnf, err := core.MatchLineage(q, insts[0].G, core.DefaultMatchLimit)
		if err != nil {
			tr.fail("lineage: %v", err)
			return
		}
		var est approx.Estimate
		tr.time(id, "approx.eval", "engine.do", true, func() {
			est, err = approx.KarpLuby(ctx, dnf, insts[0].Probs(), approx.Params{
				Epsilon: approxOpts.Epsilon, Delta: approxOpts.Delta, Seed: approxOpts.Seed,
			})
			if err != nil {
				tr.fail("karp-luby: %v", err)
			}
		})
		tr.count("approx.samples", float64(est.Samples))
	}
}

// med is the median of the named samples: on-path ones for spans,
// every one for counts and off-path-only layers.
func (tr *tracer) med(name string) (float64, int) {
	s := tr.series[name]
	if len(s) == 0 {
		s = tr.all[name]
	}
	return median(s), len(s)
}

// runTraced is the -trace 1 run: a traced replay, then an untraced one
// on the same tier for the tracing overhead.
func runTraced(ctx context.Context, cfg config, w workload, t *tier, out io.Writer) (*result, error) {
	tr, err := newTracer(ctx, w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %v", err)
	}
	defer tr.close()
	l := &loop{t: t, w: w, runID: fmt.Sprintf("pb%d", cfg.seed)}
	l.sample, l.maxCheck = sampler(cfg)
	total := time.Duration(cfg.seconds * float64(time.Second))
	before, err := t.counters(ctx)
	if err != nil {
		return nil, fmt.Errorf("healthz: %v", err)
	}
	l.onDone = tr.record
	traced := l.run(ctx, "traced", 1, total*7/10)
	after, err := t.counters(ctx)
	if err != nil {
		return nil, fmt.Errorf("healthz: %v", err)
	}
	l.onDone = nil
	plain := l.run(ctx, "latency", 1, total*3/10)

	res := &result{Metrics: map[string]metric{}}
	res.Attempted = traced.ops + plain.ops
	res.Failed = traced.failed + plain.failed
	reportPhase(out, traced)
	reportPhase(out, plain)
	res.Failed += verifySample(ctx, out, append(traced.sampled, plain.sampled...), res.Attempted)
	for _, e := range tr.errs {
		fmt.Fprintf(out, "LAYER REPLAY FAILED: %s\n", e)
	}
	res.Correct = res.Failed == 0 && len(tr.errs) == 0

	d := after.sub(before)
	m := map[string]float64{}
	n := map[string]string{}
	layer := func(metricName, spanName string) {
		v, k := tr.med(spanName)
		m[metricName], n[metricName] = v, fmt.Sprintf("n=%d", k)
	}
	for _, l := range [][2]string{
		{"gateway.route_us", "gateway.route"}, {"serve.handler_us", "serve.handler"},
		{"serve.decode_us", "serve.decode"}, {"serve.encode_us", "serve.encode"},
		{"graphio.parse_us", "graphio.parse"}, {"graphio.parse_rat_us", "graphio.parse_rat_per_vector"},
		{"graphio.keys_us", "graphio.keys"}, {"core.classify_us", "core.classify"},
		{"core.compile_us", "core.compile"}, {"core.plan_ops", "core.plan_ops"},
		{"core.patch_compile_us", "core.patch_compile"}, {"engine.do_us", "engine.do"},
		{"engine.apply_delta_us", "engine.apply_delta"}, {"plan.eval_exact_us", "plan.eval_exact"},
		{"plan.denom_bits", "plan.denom_bits"}, {"plan.eval_batch_us_per_lane", "plan.eval_batch_per_lane"},
		{"approx.eval_us", "approx.eval"}, {"approx.samples_per_job", "approx.samples"},
		{"instance.apply_us", "instance.apply"},
	} {
		layer(l[0], l[1])
	}
	for _, row := range append(tractableRows, rowOpaque) {
		layer("core.compile_us."+row, "core.compile."+row)
	}
	gated, kGated := tr.med("gate.http")
	direct, _ := tr.med("replica.http")
	m["gateway.hop_us"], n["gateway.hop_us"] = gated-direct, fmt.Sprintf("derived: gate.http p50 %.1f - replica.http p50 %.1f, n=%d", gated, direct, kGated)
	m["serve.net_us"], n["serve.net_us"] = direct-m["serve.handler_us"], "derived: replica.http p50 - serve.handler p50"
	m["gateway.shed"], m["gateway.retries"] = float64(d.Shed), float64(d.Retries)
	ratio := func(name string, num, base uint64, what string) {
		m[name], n[name] = 0, fmt.Sprintf("%d of %d %s", num, base, what)
		if base > 0 {
			m[name] = float64(num) / float64(base)
		}
	}
	ratio("engine.plan_hit_ratio", d.PlanHits, d.PlanHits+d.PlanCompiles, "executed jobs")
	ratio("engine.memo_hit_ratio", d.CacheHits, d.Submitted, "submitted jobs")
	ratio("engine.float_fast_ratio", d.FloatFast, d.FloatFast+d.FloatFallbacks, "fast-precision jobs")
	ratio("engine.incremental_ratio", d.IncrementalRecompiles, d.IncrementalRecompiles+d.FullRecompiles, "plan migrations")
	ratio("engine.batch_lanes_per_run", d.BatchLanes, d.BatchRuns, "batched runs")
	pp, tp := ms(p50(plain.lats)), ms(p50(traced.lats))
	m["trace.overhead_share"] = (tp - pp) / pp
	n["trace.overhead_share"] = fmt.Sprintf("traced request p50 %.3f ms vs untraced %.3f ms", tp, pp)

	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
		fmt.Fprintf(out, "metric %s = %g %s (%s)\n", pl.name, m[pl.name], pl.unit, n[pl.name])
	}
	tr.reportSelfTimes(out)
	overhead := m["gateway.hop_us"] + m["gateway.route_us"] + m["serve.net_us"] + m["serve.decode_us"] + m["serve.encode_us"] +
		m["graphio.parse_us"] + m["graphio.parse_rat_us"] + m["graphio.keys_us"] + m["core.classify_us"]
	fmt.Fprintf(out, "serving-overhead layers (gateway, serve, graphio, core.classify) sum to %.1f us; plan.eval_exact_us is %.1f us\n",
		overhead, m["plan.eval_exact_us"])

	path := filepath.Join(cfg.spans, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, fmt.Errorf("span file: %v", err)
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)
	return res, nil
}

// reportSelfTimes prints each parent span's derived self time per op
// kind: its median minus the medians of its on-path children.
func (tr *tracer) reportSelfTimes(out io.Writer) {
	type key struct{ kind, name string }
	samples := map[key][]float64{}
	children := map[key]map[string]bool{}
	for _, s := range tr.spans {
		if !s.OnPath {
			continue
		}
		k := key{s.Kind, s.Name}
		samples[k] = append(samples[k], float64(s.EndNS-s.StartNS)/1e3)
		if s.Parent != "" {
			p := key{s.Kind, s.Parent}
			if children[p] == nil {
				children[p] = map[string]bool{}
			}
			children[p][s.Name] = true
		}
	}
	parents := make([]key, 0, len(children))
	for p := range children {
		parents = append(parents, p)
	}
	sort.Slice(parents, func(i, j int) bool {
		if parents[i].kind != parents[j].kind {
			return parents[i].kind < parents[j].kind
		}
		return parents[i].name < parents[j].name
	})
	for _, p := range parents {
		self := median(samples[p])
		var names []string
		for c := range children[p] {
			self -= median(samples[key{p.kind, c}])
			names = append(names, c)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "derived self time [%s] %s = %.1f us (p50 minus p50 of %s)\n", p.kind, p.name, self, strings.Join(names, ", "))
	}
}

func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
