package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"phom/internal/approx"
	"phom/internal/core"
	"phom/internal/graphio"
	"phom/internal/lru"
)

// RouteInfo is what a gateway needs to place one wire job on a
// consistent-hash ring and price it for admission control, derived
// without executing anything.
type RouteInfo struct {
	// Key is the job's routing key: graphio.StructKey over the
	// canonical query set and the probability-stripped instance
	// structure, with an empty options fingerprint. Jobs that differ
	// only in probabilities or evaluation policy share a Key, which is
	// exactly the plan-cache locality a sharded tier wants: every
	// reweight of one structure lands on the replica that compiled it.
	// For a job that does not parse, Key is a deterministic hash of the
	// raw body bytes instead (the job still needs a backend — the
	// owning backend produces the authoritative 400, byte-identical to
	// an unsharded deployment's).
	Key string
	// Edges is the instance's edge count, the size axis of the cost
	// model (0 when the job did not parse).
	Edges int
	// Hard reports that the dispatch lattice predicts a #P-hard cell
	// for at least one disjunct: the job will take the exponential
	// fallback (or be refused, when DisableFallback is set).
	Hard bool
	// DisableFallback mirrors options.disable_fallback: a hard job
	// with the fallback disabled is a fast typed refusal, not heavy
	// work, and the cost model prices it accordingly.
	DisableFallback bool
	// Vectors is the multi-vector width of a reweight (len of
	// probs_batch), 1 for everything else; evaluation cost scales with
	// it.
	Vectors int
	// Approx reports that the job requested precision "approx": a hard
	// cell is then answered by the Karp–Luby sampler, whose cost is the
	// sample count below, not the 2^k of the exponential baselines.
	Approx bool
	// ApproxSamples is the gateway's estimate of the sampler's budget
	// for this job — the Dyer/Karp–Luby sample count at the requested
	// (ε,δ) with the instance's edge count standing in for the lineage
	// clause count (the true count is not known without enumerating
	// matches, which routing must not do). 0 unless Approx.
	ApproxSamples int64
	// ParseErr is the parse failure for jobs routed by raw-byte hash.
	ParseErr error
}

// routeParsed derives the RouteInfo of a decoded wire job.
func routeParsed(req *ReweightRequest) RouteInfo {
	job, err := req.SolveRequest.toJob(core.PrecisionExact, 0)
	if err != nil {
		raw, merr := json.Marshal(req)
		if merr != nil {
			raw = nil
		}
		return rawRoute(raw, err)
	}
	qs, err := job.Disjuncts()
	if err != nil {
		raw, _ := json.Marshal(req)
		return rawRoute(raw, err)
	}
	info := RouteInfo{
		Key:     graphio.StructKey(graphio.CanonicalQueries(qs), graphio.CanonicalGraph(job.Instance.G), ""),
		Edges:   job.Instance.G.NumEdges(),
		Vectors: 1,
	}
	for _, q := range qs {
		if _, _, _, v := core.PredictInput(q, job.Instance); !v.Tractable {
			info.Hard = true
			break
		}
	}
	if job.Opts != nil {
		info.DisableFallback = job.Opts.DisableFallback
	}
	approxRouteFields(&info, req.Options)
	if n := len(req.ProbsBatch); n > 1 {
		info.Vectors = n
	}
	return info
}

// approxRouteFields fills the approx-mode fields of info from the wire
// options. It is deliberately envelope-based (not parsed-job-based) so
// the cache-hit path, which never builds a job, derives the same
// values. Out-of-range (ε,δ) fall back to the solver defaults here —
// the owning backend produces the authoritative 400; routing only needs
// a sane price.
func approxRouteFields(info *RouteInfo, o *SolveOptions) {
	if o == nil {
		return
	}
	if p, err := core.ParsePrecision(o.Precision); err != nil || p != core.PrecisionApprox {
		return
	}
	eps, delta := o.Epsilon, o.Delta
	if !(eps > 0 && eps < 1) {
		eps = core.DefaultEpsilon
	}
	if !(delta > 0 && delta < 1) {
		delta = core.DefaultDelta
	}
	info.Approx = true
	info.ApproxSamples = approx.SampleCount(info.Edges+1, eps, delta)
}

// rawRoute keys an unparseable job by its raw bytes: deterministic, so
// repeated sends of the same bad body always hit the same backend.
func rawRoute(raw []byte, err error) RouteInfo {
	h := sha256.Sum256(append([]byte("route-raw\n"), raw...))
	return RouteInfo{Key: hex.EncodeToString(h[:]), Vectors: 1, ParseErr: err}
}

// DefaultRouteCacheSize is the default capacity of a RouteCache.
const DefaultRouteCacheSize = 4096

// RouteCache memoizes the structure-derived part of RouteInfo (Key,
// Edges, Hard) by a fingerprint of the request's structure-bearing
// fields. The dominant serving pattern — reweighting a known
// query/instance under fresh probabilities — repeats those fields
// verbatim on every request, but deriving RouteInfo from scratch parses
// and classifies the whole instance each time, which can cost as much
// as the backend's own warm evaluation. A cache hit reduces routing to
// one envelope decode and a hash. Request-variant fields
// (DisableFallback, Vectors) are re-derived from the envelope on every
// call; parse failures are never cached (their raw-byte keys depend on
// the full body, probabilities included).
type RouteCache struct {
	mu    sync.Mutex
	infos *lru.Cache[RouteInfo] // Vectors/DisableFallback/Approx normalized (1, false, false)
}

// NewRouteCache returns a RouteCache holding up to size structures
// (DefaultRouteCacheSize when size <= 0).
func NewRouteCache(size int) *RouteCache {
	if size <= 0 {
		size = DefaultRouteCacheSize
	}
	return &RouteCache{infos: lru.New[RouteInfo](size)}
}

// Len returns the number of cached structures.
func (c *RouteCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.infos.Len()
}

// Route parses one solve/reweight wire job just far enough to route
// it, skipping the parse/classify work when the request's structure
// fields have been routed before. It never fails: a malformed job gets
// a byte-hash key and its ParseErr recorded, so the gateway can still
// proxy it to a deterministic backend and let that backend produce the
// authoritative error.
func (c *RouteCache) Route(raw []byte) RouteInfo {
	var req ReweightRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return rawRoute(raw, err)
	}
	fp := routeFingerprint(&req.SolveRequest)
	c.mu.Lock()
	info, ok := c.infos.Get(fp)
	c.mu.Unlock()
	if ok {
		if req.Options != nil {
			info.DisableFallback = req.Options.DisableFallback
		}
		approxRouteFields(&info, req.Options)
		if n := len(req.ProbsBatch); n > 1 {
			info.Vectors = n
		}
		return info
	}
	info = routeParsed(&req)
	if info.ParseErr == nil {
		cached := info
		cached.Vectors = 1
		cached.DisableFallback = false
		cached.Approx = false
		cached.ApproxSamples = 0
		c.mu.Lock()
		c.infos.Add(fp, cached)
		c.mu.Unlock()
	}
	return info
}

// Batch splits a /batch body into its per-job raw messages and routes
// each through the cache. The raw job bytes are preserved verbatim so
// the gateway's per-shard sub-batches re-marshal each job untouched —
// the backends parse exactly what the client sent.
func (c *RouteCache) Batch(raw []byte) (jobs []json.RawMessage, infos []RouteInfo, err error) {
	jobs, err = splitBatch(raw)
	if err != nil {
		return nil, nil, err
	}
	infos = make([]RouteInfo, len(jobs))
	for i, j := range jobs {
		infos[i] = c.Route(j)
	}
	return jobs, infos, nil
}

// routeFingerprint hashes exactly the structure-bearing fields of a
// wire job: queries and instance in every wire form. Probability maps
// and evaluation options are deliberately excluded — they never move a
// job between shards, and they are not part of the parsed structure
// the server's structure cache keeps under the same fingerprint.
func routeFingerprint(req *SolveRequest) string {
	h := sha256.New()
	section := func(tag string, b []byte) {
		fmt.Fprintf(h, "%s %d\n", tag, len(b))
		h.Write(b)
	}
	section("query", req.Query)
	for _, q := range req.Queries {
		section("queries", q)
	}
	section("query_text", []byte(req.QueryText))
	for _, q := range req.QueriesText {
		section("queries_text", []byte(q))
	}
	section("instance", req.Instance)
	section("instance_text", []byte(req.InstanceText))
	return hex.EncodeToString(h.Sum(nil))
}

func splitBatch(raw []byte) ([]json.RawMessage, error) {
	var req struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	return req.Jobs, nil
}
