package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"phom/internal/serve"
)

// observed aggregates facts read from the responses of a timed window.
type observed struct {
	rows         map[string]int // answers per guard-table row
	minDenomBits int            // smallest exact-answer denominator, in bits
	deltasSent   int
}

func newObserved() *observed { return &observed{rows: map[string]int{}, minDenomBits: math.MaxInt} }

func (o *observed) merge(p *observed) {
	for k, v := range p.rows {
		o.rows[k] += v
	}
	o.minDenomBits = min(o.minDenomBits, p.minDenomBits)
	o.deltasSent += p.deltasSent
}

// answer is what one probability answer carried on the wire.
type answer struct {
	prob    string
	lo, hi  *float64
	samples int64
}

// done is one completed op and the answers it returned, kept for the
// checks that run after the timed window.
type done struct {
	o       *op
	answers []answer
}

// phaseResult is the outcome of one closed-loop phase.
type phaseResult struct {
	name     string
	ops      int
	lanes    int
	failed   int
	elapsed  time.Duration
	lats     []time.Duration
	byKind   map[string]int
	kindLats map[string][]time.Duration
	failures []string
	sampled  []done // ops whose answers are re-derived after the window
	first    []done // the first ops of client 0, for the answers digest
	obs      *observed
}

// loop drives a closed-loop phase: clients each send their next op as
// soon as the previous one answered, until the deadline. onDone, when
// set, runs after each op on the client's goroutine, outside the op's
// timing (the traced run hangs its layer measurements there).
type loop struct {
	t        *tier
	w        workload
	runID    string
	sample   func(c, i int) bool
	maxCheck int // sampled ops kept per client
	onDone   func(id string, o *op, rs []response, start, end time.Time)
}

func (l *loop) run(ctx context.Context, phase string, clients int, dur time.Duration) *phaseResult {
	res := &phaseResult{name: phase, byKind: map[string]int{}, kindLats: map[string][]time.Duration{}, obs: newObserved()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := l.w.source(phase, c)
			local := &phaseResult{byKind: map[string]int{}, kindLats: map[string][]time.Duration{}, obs: newObserved()}
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				o := next()
				id := fmt.Sprintf("%s-%s-c%d-%d", l.runID, phase, c, i)
				t0 := time.Now()
				rs, err := send(ctx, l.t.client, l.t.gateURL, id, o)
				t1 := time.Now()
				local.ops++
				local.byKind[o.kind]++
				if o.live != nil {
					local.obs.deltasSent += len(o.live.deltas)
				}
				var ans []answer
				if err == nil {
					ans, err = checkOp(o, rs, id, local.obs)
				}
				if err != nil {
					local.failed++
					if len(local.failures) < 3 {
						local.failures = append(local.failures, fmt.Sprintf("%s %s: %v", o.kind, id, err))
					}
					continue
				}
				local.lanes += o.lanes
				local.lats = append(local.lats, t1.Sub(t0))
				local.kindLats[o.kind] = append(local.kindLats[o.kind], t1.Sub(t0))
				d := done{o: o, answers: ans}
				if c == 0 && len(local.first) < 8 {
					local.first = append(local.first, d)
				}
				if len(local.sampled) < l.maxCheck && l.sample(c, i) {
					local.sampled = append(local.sampled, d)
				}
				if l.onDone != nil {
					l.onDone(id, o, rs, t0, t1)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.ops += local.ops
			res.lanes += local.lanes
			res.failed += local.failed
			res.lats = append(res.lats, local.lats...)
			for k, v := range local.byKind {
				res.byKind[k] += v
			}
			for k, v := range local.kindLats {
				res.kindLats[k] = append(res.kindLats[k], v...)
			}
			res.failures = append(res.failures, local.failures...)
			res.sampled = append(res.sampled, local.sampled...)
			if c == 0 {
				res.first = local.first
			}
			res.obs.merge(local.obs)
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// mergePhases pools the results of several phases of one kind.
func mergePhases(name string, ps []*phaseResult) *phaseResult {
	m := &phaseResult{name: name, byKind: map[string]int{}, kindLats: map[string][]time.Duration{}, obs: newObserved(), first: ps[0].first}
	for _, p := range ps {
		m.ops += p.ops
		m.lanes += p.lanes
		m.failed += p.failed
		m.elapsed += p.elapsed
		m.lats = append(m.lats, p.lats...)
		for k, v := range p.byKind {
			m.byKind[k] += v
		}
		for k, v := range p.kindLats {
			m.kindLats[k] = append(m.kindLats[k], v...)
		}
		m.failures = append(m.failures, p.failures...)
		m.sampled = append(m.sampled, p.sampled...)
		m.obs.merge(p.obs)
	}
	return m
}

// send posts the op's requests in order, each with its own request id.
func send(ctx context.Context, c *http.Client, base, id string, o *op) ([]response, error) {
	rs := make([]response, len(o.reqs))
	for k, rq := range o.reqs {
		r, err := post(ctx, c, base+rq.path, reqID(id, k, len(o.reqs)), rq.body)
		if err != nil {
			return nil, err
		}
		rs[k] = r
	}
	return rs, nil
}

func reqID(id string, k, n int) string {
	if n == 1 {
		return id
	}
	return id + "." + strconv.Itoa(k)
}

// checkOp validates every response of an op: status 200, the request-id
// echo, the wire shape of its kind, and what can be checked without
// recomputing the answer (live versions, sampled answers' precisions,
// denominators). It returns the op's answers.
func checkOp(o *op, rs []response, id string, obs *observed) ([]answer, error) {
	for k, r := range rs {
		if r.status != 200 {
			return nil, errStatus(o.reqs[k].path, r)
		}
		if got, want := r.header.Get(serve.RequestIDHeader), reqID(id, k, len(rs)); got != want {
			return nil, fmt.Errorf("%s: request id echo %q, want %q", o.reqs[k].path, got, want)
		}
	}
	last := rs[len(rs)-1]
	switch {
	case o.kind == "create":
		var info serve.InstanceInfoResponse
		if err := json.Unmarshal(last.body, &info); err != nil {
			return nil, fmt.Errorf("create: %v", err)
		}
		if info.ID != o.live.inst.id || info.Version != 1 {
			return nil, fmt.Errorf("create: got id %q version %d", info.ID, info.Version)
		}
		return nil, nil
	case o.live != nil && len(rs) == 2:
		var dr serve.DeltaResponse
		if err := json.Unmarshal(rs[0].body, &dr); err != nil {
			return nil, fmt.Errorf("delta: %v", err)
		}
		if dr.Version != o.live.cur.Version || dr.Applied != len(o.live.deltas) || dr.Structural != o.live.structural {
			return nil, fmt.Errorf("delta: version %d applied %d structural %v, want %d %d %v",
				dr.Version, dr.Applied, dr.Structural, o.live.cur.Version, len(o.live.deltas), o.live.structural)
		}
	}
	if o.live != nil {
		if got, want := last.header.Get(serve.InstanceVersionHeader), strconv.FormatUint(o.live.cur.Version, 10); got != want {
			return nil, fmt.Errorf("solve: %s %q, want %q", serve.InstanceVersionHeader, got, want)
		}
	}
	var srs []serve.SolveResponse
	if len(o.vecs) > 1 {
		var br serve.BatchResponse
		if err := json.Unmarshal(last.body, &br); err != nil {
			return nil, fmt.Errorf("batch: %v", err)
		}
		if len(br.Results) != len(o.vecs) {
			return nil, fmt.Errorf("batch: %d results for %d vectors", len(br.Results), len(o.vecs))
		}
		srs = br.Results
	} else {
		var sr serve.SolveResponse
		if err := json.Unmarshal(last.body, &sr); err != nil {
			return nil, fmt.Errorf("solve: %v", err)
		}
		srs = []serve.SolveResponse{sr}
	}
	wantPrec := "exact"
	if o.opts != nil {
		wantPrec = o.opts.Precision.String()
	}
	ans := make([]answer, len(srs))
	for k, sr := range srs {
		if sr.Error != "" || sr.Prob == "" {
			return nil, fmt.Errorf("answer %d: error %q code %q", k, sr.Error, sr.Code)
		}
		if sr.Precision != wantPrec {
			return nil, fmt.Errorf("answer %d: precision %q, want %q", k, sr.Precision, wantPrec)
		}
		if wantPrec != "exact" && (sr.ProbLo == nil || sr.ProbHi == nil) {
			return nil, fmt.Errorf("answer %d: %s answer without bounds", k, wantPrec)
		}
		obs.rows[rowOfMethod[sr.Method]]++
		if wantPrec == "exact" {
			p, ok := new(big.Rat).SetString(sr.Prob)
			if !ok {
				return nil, fmt.Errorf("answer %d: malformed probability %q", k, sr.Prob)
			}
			obs.minDenomBits = min(obs.minDenomBits, p.Denom().BitLen())
		}
		ans[k] = answer{prob: sr.Prob, lo: sr.ProbLo, hi: sr.ProbHi, samples: sr.ApproxSamples}
	}
	return ans, nil
}

// percentile is the nearest-rank quantile q of a latency sample, and
// how many samples lie beyond it.
func percentile(lats []time.Duration, q float64) (time.Duration, int) {
	if len(lats) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := max(0, min(int(math.Ceil(q*float64(len(s))))-1, len(s)-1))
	return s[k], len(s) - 1 - k
}

func p50(lats []time.Duration) time.Duration {
	d, _ := percentile(lats, 0.5)
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
