package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"strconv"
	"time"

	"phom/internal/core"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/instance"
)

// op is one operation of the closed loop: its requests are sent back to
// back and timed together.
type op struct {
	kind  string
	reqs  []request
	lanes int // probability answers the op returns
	// The op's inputs, kept for the answer checks and the traced run.
	s    *structure
	vecs []vector      // nil: s's own probabilities
	opts *core.Options // nil: the server's default exact precision
	live *liveStep
}

type request struct {
	path string
	body []byte
}

// liveStep is one delta batch on a live instance and its local mirror.
type liveStep struct {
	inst       *liveInstance
	deltas     []instance.Delta
	old, cur   *instance.Snapshot // the mirror before and after the batch
	structural bool
	// applyStart and applyDur time the mirror's instance.Apply.
	applyStart time.Time
	applyDur   time.Duration
}

// workload is one named traffic mix. Every input derives from the seed.
type workload interface {
	// warm returns the untimed operations that bring a fresh tier to the
	// workload's steady state: warm compiles, memo fills, instances.
	warm() []*op
	// source returns client c's operation stream for a phase.
	source(phase string, c int) func() *op
	// mechanism lists the failed mechanism checks over a timed window.
	mechanism(d counters, obs *observed) []string
	// digest hashes the generated corpus.
	digest() string
}

// scale sizes the corpus: fullScale for measurement, smallScale for the
// self-test.
type scale struct {
	n         int // vertices per stateless instance
	pool      int // warm structures of the reweight workloads
	lanes     int // vectors per probs_batch request
	liveN     int // vertices per live instance
	liveComps int // components per live instance
	// wideBits is the smallest answer denominator, in bits, that
	// reweight_wide must produce for exact arithmetic to dominate.
	wideBits int
}

var (
	fullScale  = scale{n: 128, pool: 64, lanes: 64, liveN: 512, liveComps: 16, wideBits: 1000}
	smallScale = scale{n: 24, pool: 8, lanes: 8, liveN: 32, liveComps: 2, wideBits: 100}
)

var workloadNames = []string{"reweight_narrow", "reweight_wide", "solve_cold", "live_delta"}

func newWorkload(name string, seed int64, sc scale, clients int) (workload, error) {
	switch name {
	case "reweight_narrow":
		return newReweight(name, seed, sc, probDefault), nil
	case "reweight_wide":
		return newReweight(name, seed, sc, probWide), nil
	case "solve_cold":
		return &coldWorkload{seed: seed, sc: sc}, nil
	case "live_delta":
		return newLive(seed, sc, clients), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// Options objects of the non-default request kinds.
const (
	fastOptions   = `{"precision":"fast"}`
	approxOptions = `{"precision":"approx","epsilon":0.25,"delta":0.05,"seed":7,"disable_fallback":true}`
	// overrides is how many edges a /reweight vector sets.
	overrides = 8
)

var (
	fastOpts   = &core.Options{Precision: core.PrecisionFast}
	approxOpts = &core.Options{Precision: core.PrecisionApprox, Epsilon: 0.25, Delta: 0.05, Seed: 7, DisableFallback: true}
)

// reweightWorkload serves /reweight over a warm pool of structures.
// Narrow: generator-default probabilities, mostly single-vector exact,
// with repeated /solve (memo hits) and 64-vector fast batches mixed in.
// Wide: ⊔2WP structures with every edge uncertain at 9-digit decimals,
// all single-vector exact.
type reweightWorkload struct {
	name  string
	seed  int64
	sc    scale
	style probStyle
	pool  []*structure
}

func newReweight(name string, seed int64, sc scale, style probStyle) *reweightWorkload {
	r := rand.New(rand.NewSource(streamSeed(seed, name, "corpus")))
	w := &reweightWorkload{name: name, seed: seed, sc: sc, style: style}
	for i := 0; i < sc.pool; i++ {
		row := rowAt(i)
		if style == probWide {
			row = rowXProperty // the row whose wide answers span every edge
		}
		w.pool = append(w.pool, newStructure(r, row, sc.n, style))
	}
	return w
}

func (w *reweightWorkload) warm() []*op {
	ops := make([]*op, len(w.pool))
	for i, s := range w.pool {
		ops[i] = &op{kind: "warm", reqs: []request{{"/solve", s.solveBody("")}}, lanes: 1, s: s}
	}
	return ops
}

func (w *reweightWorkload) source(phase string, c int) func() *op {
	r := rand.New(rand.NewSource(streamSeed(w.seed, w.name, phase, strconv.Itoa(c))))
	return func() *op {
		s := w.pool[r.Intn(len(w.pool))]
		if w.style == probDefault {
			switch u := r.Intn(100); {
			case u < 12:
				return &op{kind: "solve_memo", reqs: []request{{"/solve", s.solveBody("")}}, lanes: 1, s: s}
			case u < 20:
				vecs := make([]vector, w.sc.lanes)
				for i := range vecs {
					vecs[i] = s.randVector(r, overrides, w.style)
				}
				return &op{kind: "batch_fast", reqs: []request{{"/reweight", s.reweightBody(vecs, fastOptions)}},
					lanes: len(vecs), s: s, vecs: vecs, opts: fastOpts}
			}
		}
		vecs := []vector{s.randVector(r, overrides, w.style)}
		return &op{kind: "reweight", reqs: []request{{"/reweight", s.reweightBody(vecs, "")}}, lanes: 1, s: s, vecs: vecs}
	}
}

func (w *reweightWorkload) mechanism(d counters, obs *observed) []string {
	var bad []string
	if d.PlanCompiles != 0 {
		bad = append(bad, fmt.Sprintf("plan_compiles = %d, want 0 (every structure is warm)", d.PlanCompiles))
	}
	if w.style == probDefault {
		if d.CacheHits == 0 {
			bad = append(bad, "cache_hits = 0, want > 0 (repeated /solve hits the result memo)")
		}
		if d.BatchRuns == 0 {
			bad = append(bad, "batch_runs = 0, want > 0 (probs_batch runs the batched kernel)")
		}
	} else if obs.minDenomBits < w.sc.wideBits {
		bad = append(bad, fmt.Sprintf("smallest answer denominator has %d bits, want >= %d", obs.minDenomBits, w.sc.wideBits))
	}
	return bad
}

func (w *reweightWorkload) digest() string {
	d := sha256.New()
	for _, s := range w.pool {
		digestWrite(d, s.text)
	}
	next := w.source("latency", 0)
	for i := 0; i < 16; i++ {
		digestWrite(d, string(next().reqs[0].body))
	}
	return hex.EncodeToString(d.Sum(nil))[:16]
}

// coldWorkload sends /solve over structures drawn fresh for every
// request: the stream never repeats, so no memo, plan or route cache in
// the path can hit. A small share are #P-hard needles at precision
// approx with a fixed sampler seed.
type coldWorkload struct {
	seed int64
	sc   scale
}

// warm compiles a batch of structures from a stream of their own, so the
// timed window starts on a tier past its first compiles; the timed
// streams never repeat them.
func (w *coldWorkload) warm() []*op {
	next := w.source("warm", 0)
	ops := make([]*op, 32)
	for i := range ops {
		ops[i] = next()
	}
	return ops
}

func (w *coldWorkload) source(phase string, c int) func() *op {
	r := rand.New(rand.NewSource(streamSeed(w.seed, "solve_cold", phase, strconv.Itoa(c))))
	i, cold := 0, 0
	return func() *op {
		i++
		if i%25 == 12 { // one needle in 25
			s := newStructure(r, rowOpaque, w.sc.n, probOpen)
			return &op{kind: "hard", reqs: []request{{"/solve", s.solveBody(approxOptions)}}, lanes: 1, s: s, opts: approxOpts}
		}
		cold++
		s := newStructure(r, rowAt(cold+c), w.sc.n, probDefault)
		return &op{kind: "cold", reqs: []request{{"/solve", s.solveBody("")}}, lanes: 1, s: s}
	}
}

func (w *coldWorkload) mechanism(d counters, obs *observed) []string {
	var bad []string
	if d.PlanHits != 0 {
		bad = append(bad, fmt.Sprintf("plan_hits = %d, want 0 (every structure is fresh)", d.PlanHits))
	}
	if d.CacheHits != 0 {
		bad = append(bad, fmt.Sprintf("cache_hits = %d, want 0 (every request is fresh)", d.CacheHits))
	}
	if d.ApproxRuns == 0 {
		bad = append(bad, "approx_runs = 0, want > 0 (hard needles sample)")
	}
	for _, row := range tractableRows {
		if obs.rows[row] == 0 {
			bad = append(bad, "no answer used the "+row+" row")
		}
	}
	return bad
}

func (w *coldWorkload) digest() string {
	d := sha256.New()
	next := w.source("latency", 0)
	for i := 0; i < 16; i++ {
		digestWrite(d, string(next().reqs[0].body))
	}
	return hex.EncodeToString(d.Sum(nil))[:16]
}

// liveWorkload gives each client one seed-named ⊔2WP instance. An
// operation is a CAS delta batch at the known version followed by an
// instance-scoped /solve. About one batch in four is structural (an edge
// removal, later re-added); the rest set probabilities.
type liveWorkload struct {
	seed  int64
	sc    scale
	insts []*liveInstance
}

type liveInstance struct {
	id        string
	q         *graph.Graph
	h         *graph.ProbGraph // version 1
	solveBody []byte
	mirror    *instance.Instance
	r         *rand.Rand
	pending   *instance.Delta // the re-insert of the last removed edge
}

func newLive(seed int64, sc scale, clients int) *liveWorkload {
	w := &liveWorkload{seed: seed, sc: sc}
	for c := 0; c < clients; c++ {
		w.insts = append(w.insts, newLiveInstance(seed, sc, c))
	}
	return w
}

func newLiveInstance(seed int64, sc scale, c int) *liveInstance {
	r := rand.New(rand.NewSource(streamSeed(seed, "live_delta", strconv.Itoa(c))))
	// Unlabeled random 2WP components under a two-edge query: about half
	// the positions start a match, so an instance carries over a hundred
	// matches and its cost varies little from seed to seed (with one
	// instance per client, a sparse-match shape would make a run's cost a
	// single random draw). Random shapes also keep components, and the
	// pieces a removed edge leaves, from being isomorphic: on isomorphic
	// components the engine falls back to full recompiles, and answers
	// can go wrong.
	q := graph.Path2WP(graph.Fwd(graph.Unlabeled), graph.Bwd(graph.Unlabeled))
	g := union(r, sc.liveComps, sc.liveN, nil, gen.Rand2WP)
	// Probabilities come from the distribution set_prob deltas draw from,
	// so the instance's cost does not drift as deltas accumulate.
	h := graph.NewProbGraph(g)
	for i := 0; i < g.NumEdges(); i++ {
		mustSetProb(h, i, deltaProb(r))
	}
	mirror, err := instance.New("mirror", h)
	if err != nil {
		panic(err) // a generated instance is never empty or invalid
	}
	return &liveInstance{
		id:        fmt.Sprintf("pb-%d-%d", seed, c),
		q:         q,
		h:         h,
		solveBody: append(appendJSONString([]byte(`{"query_text":`), textOf(q)), '}'),
		mirror:    mirror,
		r:         r,
	}
}

// deltaProb draws a set_prob probability: k/16 for k in 1..15, so no
// edge becomes certain or impossible and answers stay uncertain.
func deltaProb(r *rand.Rand) *big.Rat { return big.NewRat(int64(1+r.Intn(15)), 16) }

func (w *liveWorkload) warm() []*op {
	var ops []*op
	for _, li := range w.insts {
		body := appendJSONString([]byte(`{"id":`), li.id)
		body = append(body, `,"instance_text":`...)
		body = appendJSONString(body, probTextOf(li.h))
		body = append(body, '}')
		snap := li.mirror.Snapshot()
		st := &liveStep{inst: li, old: snap, cur: snap}
		ops = append(ops,
			&op{kind: "create", reqs: []request{{"/instances", body}}, live: st},
			&op{kind: "warm", reqs: []request{{"/instances/" + li.id + "/solve", li.solveBody}}, lanes: 1, live: st})
	}
	return ops
}

func (w *liveWorkload) source(phase string, c int) func() *op {
	return w.insts[c%len(w.insts)].next
}

// next draws the instance's next delta batch, applies it to the mirror
// and returns the op carrying it.
func (li *liveInstance) next() *op {
	r := li.r
	old := li.mirror.Snapshot()
	g := old.H.G
	var batch []instance.Delta
	kind := "live_prob"
	if r.Intn(4) == 0 {
		kind = "live_struct"
		if li.pending != nil {
			batch = []instance.Delta{*li.pending}
			li.pending = nil
		} else {
			i := r.Intn(g.NumEdges())
			e := g.Edge(i)
			batch = []instance.Delta{{Op: instance.OpRemoveEdge, From: e.From, To: e.To}}
			li.pending = &instance.Delta{Op: instance.OpAddEdge, From: e.From, To: e.To, Label: e.Label, Prob: old.H.Prob(i)}
		}
	} else {
		for k := 1 + r.Intn(3); k > 0; k-- {
			e := g.Edge(r.Intn(g.NumEdges()))
			batch = append(batch, instance.Delta{Op: instance.OpSetProb, From: e.From, To: e.To, Prob: deltaProb(r)})
		}
	}
	start := time.Now()
	res, err := li.mirror.Apply(int64(old.Version), batch)
	dur := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated delta batch rejected by the mirror: %v", err))
	}
	body := fmt.Appendf(nil, `{"if_version":%d,"deltas":[`, old.Version)
	for k, d := range batch {
		if k > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"op":%q,"edge":"%d>%d"`, d.Op.String(), d.From, d.To)
		if d.Op == instance.OpAddEdge {
			body = fmt.Appendf(body, `,"label":%q`, string(d.Label))
		}
		if d.Prob != nil {
			body = fmt.Appendf(body, `,"prob":%q`, d.Prob.RatString())
		}
		body = append(body, '}')
	}
	body = append(body, "]}"...)
	return &op{
		kind: kind,
		reqs: []request{
			{"/instances/" + li.id + "/delta", body},
			{"/instances/" + li.id + "/solve", li.solveBody},
		},
		lanes: 1,
		live:  &liveStep{inst: li, deltas: batch, old: old, cur: res.New, structural: res.Structural, applyStart: start, applyDur: dur},
	}
}

func (w *liveWorkload) mechanism(d counters, obs *observed) []string {
	var bad []string
	if d.IncrementalRecompiles == 0 {
		bad = append(bad, "incremental_recompiles = 0, want > 0 (structural deltas splice plans)")
	}
	if d.FullRecompiles != 0 {
		bad = append(bad, fmt.Sprintf("full_recompiles = %d, want 0", d.FullRecompiles))
	}
	if d.DeltasApplied != uint64(obs.deltasSent) {
		bad = append(bad, fmt.Sprintf("deltas_applied = %d, want the %d deltas sent", d.DeltasApplied, obs.deltasSent))
	}
	return bad
}

func (w *liveWorkload) digest() string {
	d := sha256.New()
	for c := range w.insts {
		li := newLiveInstance(w.seed, w.sc, c) // a scratch copy: the stream itself stays untouched
		digestWrite(d, textOf(li.q)+probTextOf(li.h))
		for i := 0; i < 16; i++ {
			digestWrite(d, string(li.next().reqs[0].body))
		}
	}
	return hex.EncodeToString(d.Sum(nil))[:16]
}
