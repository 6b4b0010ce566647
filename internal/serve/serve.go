// Package serve implements the phomserve HTTP layer: the JSON wire
// protocol (/solve, /reweight, /batch with NDJSON streaming,
// /plans/export, /plans/import, /healthz) routed onto a shared
// engine.Engine. It is a library rather than part of cmd/phomserve so
// the gateway tier (internal/gateway), the in-process test harnesses
// and phombench's multi-replica experiments can boot backend replicas
// without spawning processes; cmd/phomserve is a thin flag-parsing
// main over serve.New. The exported wire types (SolveRequest,
// SolveResponse, StreamLine, …) are the single definition of the
// protocol — the gateway decodes and re-encodes backend NDJSON through
// them, which is what keeps gate-merged stream lines byte-compatible
// with single-backend ones.
package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phom/internal/core"
	"phom/internal/engine"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/phomerr"
)

// Request limits: a single request must not be able to exhaust the
// server's memory or pin a worker on unbounded exponential work.
const (
	// DefaultMaxBodyBytes is the default request-body cap (-maxbody);
	// bodies beyond the cap are refused with 413.
	DefaultMaxBodyBytes = 8 << 20 // 8 MiB per request
	// MaxBatchJobs caps the jobs of one /batch request (and the vectors
	// of one probs_batch). Exported so the gateway refuses oversized
	// batches the same way a single backend would instead of sharding
	// them into individually legal sub-batches.
	MaxBatchJobs       = 4096
	maxBruteForceLimit = 26      // client-requested coins cap (2^26 worlds)
	maxMatchLimit      = 1 << 20 // client-requested match-enumeration cap
)

// Wire types. Graphs are accepted in both formats understood by the
// repo's tooling: the graphio JSON object ({"vertices": n, "edges":
// [...]}) and the line-oriented text format that cmd/phom reads
// ("vertices 4\nedge 0 1 R 1/2\n..."), the latter in the *_text fields.

type SolveOptions struct {
	BruteForceLimit int  `json:"brute_force_limit,omitempty"`
	MatchLimit      int  `json:"match_limit,omitempty"`
	DisableFallback bool `json:"disable_fallback,omitempty"`
	// TimeoutMS is this job's execution budget in milliseconds: once it
	// elapses the job fails with the deadline error code (HTTP 408 on
	// /solve and /reweight; error code "deadline" in batch results).
	// 0 means no per-job timeout — the job is still bounded by the
	// connection's lifetime and the server's shutdown.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Precision selects the numeric substrate: "exact" (default),
	// "fast" (float64 with a certified error bound), "auto" (float64
	// when the bound is within float_tolerance, exact otherwise) or
	// "approx" (the seeded Karp–Luby (ε,δ) estimator on #P-hard cells,
	// exact on tractable ones). Anything else is a 400, never a silent
	// default. Accepted on /solve, /reweight and /batch alike.
	Precision string `json:"precision,omitempty"`
	// FloatTolerance is the widest certified error the auto mode serves
	// without falling back to exact arithmetic (absolute probability
	// error; 0 means the server default).
	FloatTolerance float64 `json:"float_tolerance,omitempty"`
	// Epsilon and Delta are the approx-mode guarantee — relative error
	// epsilon with failure probability delta, each in (0,1); 0 means the
	// solver default (0.05 / 0.01). Seed makes the estimate reproducible:
	// equal requests with equal seeds answer byte-identically. All three
	// are rejected with a 400 unless precision is "approx" — they would
	// otherwise be silently dead.
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
}

type SolveRequest struct {
	Query        json.RawMessage   `json:"query,omitempty"`
	Queries      []json.RawMessage `json:"queries,omitempty"`
	QueryText    string            `json:"query_text,omitempty"`
	QueriesText  []string          `json:"queries_text,omitempty"`
	Instance     json.RawMessage   `json:"instance,omitempty"`
	InstanceText string            `json:"instance_text,omitempty"`
	Options      *SolveOptions     `json:"options,omitempty"`
}

type VerdictResponse struct {
	QueryClass    string `json:"query_class"`
	InstanceClass string `json:"instance_class"`
	Labeled       bool   `json:"labeled"`
	Tractable     bool   `json:"tractable"`
	Verdict       string `json:"verdict"`
}

type SolveResponse struct {
	Prob      string  `json:"prob,omitempty"`
	ProbFloat float64 `json:"prob_float,omitempty"`
	// Code is the typed error code accompanying Error ("bad-input",
	// "limit", "intractable", "canceled", "deadline", "unavailable",
	// "unknown"); empty on success. It is the machine-readable form —
	// clients should dispatch on it, not on the error text.
	Code string `json:"code,omitempty"`
	// Precision is the substrate that produced the answer: "exact",
	// "fast" or "approx". A job requesting fast/auto can legitimately
	// report "exact" — that is the fallback contract, and the answer is
	// then byte-identical to an exact-precision solve; an approx job
	// reports "exact" when it landed on a tractable cell (no sampling).
	Precision string `json:"precision,omitempty"`
	// ProbLo/ProbHi bound the exact probability. Under precision "fast"
	// they are the certified enclosure of the float kernel — exact ∈
	// [prob_lo, prob_hi] is machine-checked. Under precision "approx"
	// they are the (1−δ) Hoeffding confidence interval of the sampler —
	// statistical, not certified. Pointers, not bare floats: a bound
	// that is exactly 0 must still serialize (omitempty would drop it),
	// so both fields are present exactly when precision is "fast" or
	// "approx".
	ProbLo *float64 `json:"prob_lo,omitempty"`
	ProbHi *float64 `json:"prob_hi,omitempty"`
	// ApproxSamples is the number of Monte-Carlo samples the approx
	// mode drew; present only when precision is "approx" (and 0 even
	// then if the lineage short-circuited exactly).
	ApproxSamples int64            `json:"approx_samples,omitempty"`
	Method        string           `json:"method,omitempty"`
	PTime         bool             `json:"ptime,omitempty"`
	CacheHit      bool             `json:"cache_hit,omitempty"`
	Shared        bool             `json:"shared,omitempty"`
	PlanHit       bool             `json:"plan_hit,omitempty"`
	Predicted     *VerdictResponse `json:"predicted,omitempty"`
	ElapsedUS     int64            `json:"elapsed_us"`
	Error         string           `json:"error,omitempty"`
}

// ReweightRequest is a solve request plus a probability remap: the
// /reweight endpoint solves the job with the given edge probabilities
// substituted into the instance. Structure-identical jobs share a
// compiled plan in the engine, so a reweight of a previously seen
// structure pays only linear evaluation (plan_hit in the response).
type ReweightRequest struct {
	SolveRequest
	// Probs overrides edge probabilities: keys are "from>to" endpoint
	// pairs, values exact rationals in [0, 1] ("1/2", "0.35").
	Probs map[string]string `json:"probs,omitempty"`
	// ProbsBatch is the multi-vector form: each element is a Probs-style
	// override map, and the response is a BatchResponse with one result
	// per vector (same order). All vectors share the request's query and
	// instance structure, which is exactly the shape the engine's
	// vectorized reweight path batches into one kernel dispatch.
	// Mutually exclusive with Probs.
	ProbsBatch []map[string]string `json:"probs_batch,omitempty"`
}

type BatchRequest struct {
	Jobs []SolveRequest `json:"jobs"`
}

type BatchResponse struct {
	Results []SolveResponse `json:"results"`
	Stats   engine.Stats    `json:"stats"`
	// ElapsedUS is the wall-clock time of the whole batch; each
	// result's elapsed_us is completion-order latency, the time from the
	// start of the batch to that job's completion.
	ElapsedUS int64 `json:"elapsed_us"`
}

type HealthResponse struct {
	Status  string       `json:"status"`
	Workers int          `json:"workers"`
	Stats   engine.Stats `json:"stats"`
	// Shard is the replica's shard name (-shard), echoed so a gateway
	// operator can tell which member of the tier answered a probe.
	Shard string `json:"shard,omitempty"`
	// UptimeMS is the monotonic time since this process created its
	// server, in milliseconds.
	UptimeMS int64 `json:"uptime_ms"`
	// BootID is a random id minted when the server was created. The
	// gateway watches it across probes: a changed boot id means the
	// replica restarted (losing its plan cache) even if no probe ever
	// failed, and triggers a warm-start snapshot push.
	BootID string `json:"boot_id"`
	// HTTP counts every response served since startup, keyed by status
	// code — the server-side half of phomgen's replay accounting (a
	// replay is clean when the two sides agree).
	HTTP map[string]uint64 `json:"http,omitempty"`
	// StructCacheHits and StructCacheMisses count stateless /solve,
	// /reweight and /batch jobs whose structure-bearing fields (query
	// and instance, every wire form) were found in, or parsed into, the
	// replica's parsed-structure cache; StructCacheLen is its current
	// number of entries.
	StructCacheHits   uint64 `json:"struct_cache_hits"`
	StructCacheMisses uint64 `json:"struct_cache_misses"`
	StructCacheLen    int    `json:"struct_cache_len"`
}

type ErrorResponse struct {
	Error string `json:"error"`
	// Code is the typed error code (see SolveResponse.Code).
	Code string `json:"code,omitempty"`
}

// StatusClientClosedRequest is the non-standard (nginx-convention)
// status reported when the client's request context is cancelled —
// there is no standard code for "caller gave up", and 499 is the
// widely understood one.
const StatusClientClosedRequest = 499

// StatusOf maps the typed error taxonomy onto HTTP statuses:
// bad-input → 400, deadline → 408, conflict → 409 (a stale if_version
// optimistic check on an instance delta), limit and intractable → 422
// (the request is well-formed but cannot be answered under its
// constraints), canceled → 499, unavailable → 503, and anything
// unknown → 422 (the historical catch-all for solver failures).
func StatusOf(err error) int {
	switch phomerr.CodeOf(err) {
	case phomerr.CodeBadInput:
		return http.StatusBadRequest
	case phomerr.CodeDeadline:
		return http.StatusRequestTimeout
	case phomerr.CodeConflict:
		return http.StatusConflict
	case phomerr.CodeCanceled:
		return StatusClientClosedRequest
	case phomerr.CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// Server routes HTTP requests onto a shared engine.
type Server struct {
	engine  *engine.Engine
	maxBody int64 // request-body cap in bytes; ≤0 means DefaultMaxBodyBytes
	// defPrec and defTol are the precision mode and auto tolerance
	// applied to jobs that do not specify their own (-precision,
	// -floattol); an explicit "precision" in the request always wins.
	defPrec core.Precision
	defTol  float64
	// shard names this replica in a sharded tier (-shard); surfaced
	// through /healthz so probes can tell replicas apart.
	shard string
	// start anchors the /healthz uptime_ms monotonic clock.
	start time.Time
	// bootID is the /healthz boot_id: random per server, so a restart
	// is visible to the gateway whatever the probe timing.
	bootID string
	// httpByStatus counts served responses per status code, under
	// httpMu; surfaced through /healthz for replay accounting.
	httpMu       sync.Mutex
	httpByStatus map[int]uint64
	// structs holds parsed stateless structures by routeFingerprint
	// (structs.go).
	structs *structCache
}

func New(e *engine.Engine) *Server {
	var boot [8]byte
	// crypto/rand does not fail on supported platforms; if it did, the
	// zero id would only hide changed-id restarts, not dead→alive ones.
	_, _ = rand.Read(boot[:])
	return &Server{engine: e, start: time.Now(), bootID: hex.EncodeToString(boot[:]), httpByStatus: map[int]uint64{}, structs: newStructCache()}
}

// WithMaxBody sets the request-body cap (the -maxbody flag).
func (s *Server) WithMaxBody(n int64) *Server {
	s.maxBody = n
	return s
}

// WithPrecision sets the default precision mode and auto tolerance
// (the -precision and -floattol flags).
func (s *Server) WithPrecision(p core.Precision, tol float64) *Server {
	s.defPrec = p
	s.defTol = tol
	return s
}

// WithShard names this replica in a sharded tier (the -shard flag);
// the name is reported by /healthz.
func (s *Server) WithShard(name string) *Server {
	s.shard = name
	return s
}

func (s *Server) bodyLimit() int64 {
	if s.maxBody > 0 {
		return s.maxBody
	}
	return DefaultMaxBodyBytes
}

// decodeBody decodes a JSON request body bounded by the server's body
// cap, reporting (writing the response itself) and returning false on
// failure. Oversized bodies are a 413, not a generic 400: the request
// may be well-formed, the server just refuses to read that much.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.bodyLimit())).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return false
	}
	WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
	return false
}

func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/reweight", s.handleReweight)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/instances", s.handleInstances)
	mux.HandleFunc("/instances/", s.handleInstanceScoped)
	mux.HandleFunc("/plans/export", s.handlePlansExport)
	mux.HandleFunc("/plans/import", s.handlePlansImport)
	mux.HandleFunc("/healthz", s.handleHealth)
	return s.instrument(mux)
}

// RequestIDHeader carries the request id: echoed verbatim from request
// to response when the client sets it (so a load generator can pair
// every response with the request that caused it without trusting
// ordering), minted by the server when absent. A gateway propagates
// the ingress id to the backend hop, so one id traces a request across
// the whole tier.
const RequestIDHeader = "X-Phom-Request-Id"

// idPrefix and idCounter mint process-unique request ids for requests
// that arrive without one: a random boot prefix plus a monotonic
// counter, cheap and collision-free across replicas.
var (
	idPrefix  = func() string { var b [4]byte; _, _ = rand.Read(b[:]); return hex.EncodeToString(b[:]) }()
	idCounter atomic.Uint64
)

// MintRequestID returns a fresh process-unique request id.
func MintRequestID() string {
	return idPrefix + "-" + strconv.FormatUint(idCounter.Add(1), 10)
}

// EnsureRequestID returns the request's id, minting one (and storing it
// back into the request headers, so downstream handlers and proxied
// hops see it) when the client did not send one.
func EnsureRequestID(r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" {
		id = MintRequestID()
		r.Header.Set(RequestIDHeader, id)
	}
	return id
}

// instrument wraps the mux with the replay-target plumbing: the
// request-id mint/echo and the per-status response counters surfaced
// by /healthz.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(RequestIDHeader, EnsureRequestID(r))
		sw := &StatusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		s.httpMu.Lock()
		s.httpByStatus[sw.Status()]++
		s.httpMu.Unlock()
	})
}

// StatusWriter records the response status. It must keep forwarding
// Flush: the streamed batch path type-asserts http.Flusher on the
// writer it is handed, and NDJSON streaming dies silently without it.
type StatusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *StatusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *StatusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *StatusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the recorded status (200 if the handler never wrote).
func (sw *StatusWriter) Status() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

// httpCounts snapshots the per-status counters for /healthz.
func (s *Server) httpCounts() map[string]uint64 {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	out := make(map[string]uint64, len(s.httpByStatus))
	for code, n := range s.httpByStatus {
		out[strconv.Itoa(code)] = n
	}
	return out
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	hits, misses, n := s.structs.stats()
	WriteJSON(w, http.StatusOK, HealthResponse{
		Status:            "ok",
		Workers:           s.engine.Workers(),
		Stats:             s.engine.Stats(),
		Shard:             s.shard,
		UptimeMS:          time.Since(s.start).Milliseconds(),
		BootID:            s.bootID,
		HTTP:              s.httpCounts(),
		StructCacheHits:   hits,
		StructCacheMisses: misses,
		StructCacheLen:    n,
	})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req SolveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	job, verdict, err := s.parseJob(&req)
	if err != nil {
		WriteTypedError(w, phomerr.Wrap(phomerr.CodeBadInput, err))
		return
	}
	resp, jerr := s.runJob(r.Context(), job, verdict)
	if jerr != nil {
		WriteJSON(w, StatusOf(jerr), resp)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleReweight solves a job with updated edge probabilities: the wire
// job plus a {"from>to": "p"} probability map applied on top of the
// instance. It exists for the dominant serving pattern — re-evaluating
// a known query/instance topology under new weights — which the
// engine's structure-keyed plan cache answers without recompiling
// (plan_hit reports whether that happened).
func (s *Server) handleReweight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ReweightRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	job, verdict, err := s.parseJob(&req.SolveRequest)
	if err != nil {
		WriteTypedError(w, phomerr.Wrap(phomerr.CodeBadInput, err))
		return
	}
	s.reweight(w, r, job, verdict, &req)
}

// reweight is the shared tail of the stateless and the instance-scoped
// reweight endpoints, run once the wire job and its verdict are
// resolved: it applies the request's probs override (or fans
// probs_batch out as one batch) and writes the response.
func (s *Server) reweight(w http.ResponseWriter, r *http.Request, job engine.Job, verdict *VerdictResponse, req *ReweightRequest) {
	if len(req.Probs) > 0 && len(req.ProbsBatch) > 0 {
		WriteError(w, http.StatusBadRequest, "provide probs or probs_batch, not both")
		return
	}
	if req.ProbsBatch != nil {
		s.reweightBatch(w, r, job, verdict, req.ProbsBatch)
		return
	}
	if len(req.Probs) > 0 {
		inst, err := applyProbs(job.Instance, req.Probs)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		job.Instance = inst
	}
	resp, jerr := s.runJob(r.Context(), job, verdict)
	if jerr != nil {
		WriteJSON(w, StatusOf(jerr), resp)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// applyProbs returns an instance with the {"from>to": "p"} override map
// applied on top of base. The copy shares base's graph value
// (graph.ProbGraph.CloneProbs), so the instances built for the lanes of
// one multi-vector reweight are recognized as one structure by the
// engine's batch grouping.
func applyProbs(base *graph.ProbGraph, probs map[string]string) (*graph.ProbGraph, error) {
	inst := base.CloneProbs()
	// Distinct JSON keys can normalize to the same edge ("0>1" vs
	// " 0>1"), and a map may hold several bad entries: map iteration
	// order must decide neither which wins nor which error a malformed
	// map reports, so keys are visited in sorted order.
	keys := make([]string, 0, len(probs))
	for key := range probs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	seen := make(map[[2]int]bool, len(probs))
	for _, key := range keys {
		val := probs[key]
		from, to, ok := graphio.ParseEdgeKey(key)
		if !ok {
			return nil, fmt.Errorf("bad probs key %q: want \"from>to\"", key)
		}
		if seen[[2]int{from, to}] {
			return nil, fmt.Errorf("duplicate probs entry for edge %d>%d", from, to)
		}
		seen[[2]int{from, to}] = true
		p, err := graphio.ParseRat(val)
		if err != nil {
			return nil, fmt.Errorf("bad probability for edge %q: %v", key, err)
		}
		if err := inst.SetEdgeProb(graph.Vertex(from), graph.Vertex(to), p); err != nil {
			return nil, fmt.Errorf("probs[%q]: %v", key, err)
		}
	}
	return inst, nil
}

// reweightBatch serves the multi-vector form of /reweight: one job per
// probability vector, all sharing the request's query and instance
// structure. Malformed vectors are a 400 before anything executes;
// per-vector solver failures surface inside the corresponding result,
// exactly like /batch. The lanes are submitted in one Engine.Stream
// call so the engine's same-structure grouping routes them through the
// vectorized kernel (stats.batch_runs/batch_lanes in the response show
// it happened). The lanes share one structure, so they share its
// verdict too.
func (s *Server) reweightBatch(w http.ResponseWriter, r *http.Request, job engine.Job, verdict *VerdictResponse, vecs []map[string]string) {
	if len(vecs) == 0 {
		WriteError(w, http.StatusBadRequest, "probs_batch is empty")
		return
	}
	if len(vecs) > MaxBatchJobs {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("probs_batch has %d vectors, limit is %d", len(vecs), MaxBatchJobs))
		return
	}
	b := newParsedBatch(len(vecs))
	for k, pm := range vecs {
		inst, err := applyProbs(job.Instance, pm)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("probs_batch[%d]: %v", k, err))
			return
		}
		b.jobs[k], b.verdicts[k] = job, verdict
		b.jobs[k].Instance = inst
	}
	s.bufferBatch(w, r, b)
}

// handlePlansExport streams a snapshot of the engine's compiled-plan
// cache in the canonical binary format — the export half of
// warm-start serving: ship the snapshot to a fresh replica (or keep it
// across restarts) and structurally known jobs never recompile. The
// snapshot is buffered before the first response byte so failures
// still get a proper status.
func (s *Server) handlePlansExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var buf bytes.Buffer
	n, err := s.engine.SavePlans(&buf)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "plan export: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Phom-Plans", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}

type plansImportResponse struct {
	Loaded       int `json:"loaded"`
	PlanCacheLen int `json:"plan_cache_len"`
}

// handlePlansImport restores a snapshot produced by /plans/export into
// the engine's plan cache. Records are fully validated; a corrupt
// snapshot is rejected without panicking, and records decoded before
// the corruption point stay loaded (the response reports how many).
func (s *Server) handlePlansImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	n, err := s.engine.LoadPlans(http.MaxBytesReader(w, r.Body, s.bodyLimit()))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("snapshot exceeds %d bytes", tooBig.Limit))
			return
		}
		WriteError(w, http.StatusBadRequest, "plan import: "+err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, plansImportResponse{
		Loaded:       n,
		PlanCacheLen: s.engine.Stats().PlanCacheLen,
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req BatchRequest
	if !s.decodeBody(w, r, &req) || !checkBatchSize(w, len(req.Jobs)) {
		return
	}
	b := newParsedBatch(len(req.Jobs))
	for i := range req.Jobs {
		b.jobs[i], b.verdicts[i], b.errs[i] = s.parseJob(&req.Jobs[i])
	}
	s.serveBatch(w, r, b)
}

// checkBatchSize answers 400 for an empty batch or one over
// MaxBatchJobs, and reports whether a batch of n jobs may proceed.
func checkBatchSize(w http.ResponseWriter, n int) bool {
	if n == 0 {
		WriteError(w, http.StatusBadRequest, "batch has no jobs")
		return false
	}
	if n > MaxBatchJobs {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("batch has %d jobs, limit is %d", n, MaxBatchJobs))
		return false
	}
	return true
}

// parsedBatch is a batch resolved job by job: each wire job became
// either an engine job with its verdict, or the error (errs[i]) that
// keeps it from the engine. /batch resolves jobs against their inline
// instances, /instances/{id}/batch against one instance snapshot.
type parsedBatch struct {
	jobs     []engine.Job
	verdicts []*VerdictResponse
	errs     []error
}

func newParsedBatch(n int) parsedBatch {
	return parsedBatch{jobs: make([]engine.Job, n), verdicts: make([]*VerdictResponse, n), errs: make([]error, n)}
}

// serveBatch answers a resolved batch, buffered into one BatchResponse
// or, on request, streamed as NDJSON.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, b parsedBatch) {
	if streamRequested(r) {
		s.streamBatch(w, r, b)
		return
	}
	s.bufferBatch(w, r, b)
}

// bufferBatch answers a resolved batch with one BatchResponse.
func (s *Server) bufferBatch(w http.ResponseWriter, r *http.Request, b parsedBatch) {
	start := time.Now()
	results := make([]SolveResponse, len(b.jobs))
	s.runBatch(r.Context(), b, start, func(i int, resp SolveResponse) { results[i] = resp })
	WriteJSON(w, http.StatusOK, BatchResponse{
		Results:   results,
		Stats:     s.engine.Stats(),
		ElapsedUS: time.Since(start).Microseconds(),
	})
}

// runBatch reports every job's response through emit: the parse
// failures first, then the well-formed jobs in completion order. Those
// run as one engine.Stream call, so jobs that share a structure (the
// structure cache hands them one graph value) group into one batched
// dispatch. A response's elapsed_us is completion-order latency from
// start.
func (s *Server) runBatch(ctx context.Context, b parsedBatch, start time.Time, emit func(i int, resp SolveResponse)) {
	jobs := make([]engine.Job, 0, len(b.jobs))
	idx := make([]int, 0, len(b.jobs)) // engine-stream position → job index
	for i, err := range b.errs {
		if err != nil {
			emit(i, parseFailure(err))
			continue
		}
		jobs = append(jobs, b.jobs[i])
		idx = append(idx, i)
	}
	for sr := range s.engine.Stream(ctx, jobs) {
		i := idx[sr.Index]
		emit(i, buildResponse(b.verdicts[i], sr.JobResult, time.Since(start)))
	}
}

// streamRequested reports whether a /batch request opted into NDJSON
// streaming (?stream=1 or ?stream=true).
func streamRequested(r *http.Request) bool {
	v := r.URL.Query().Get("stream")
	return v == "1" || v == "true"
}

// StreamLine is one NDJSON line of /batch?stream=1: the response of
// the batch job at Index, emitted when that job completes. elapsed_us
// on a streamed line is the time from the start of the batch to this
// job's delivery (completion-order latency), not the job's solo cost.
type StreamLine struct {
	Index int `json:"index"`
	SolveResponse
	// RequestID is the request's traced id (minted or client-provided,
	// propagated across gateway hops), echoed on every line so a
	// stream merged by the gateway from several backends still
	// attributes each line to the ingress request that caused it.
	RequestID string `json:"request_id,omitempty"`
}

// StreamTrailer is the final NDJSON line of a streamed batch: a
// summary marker carrying the engine counters and the batch wall-clock
// time, so clients know the stream ended deliberately rather than by a
// dropped connection.
type StreamTrailer struct {
	Done      bool         `json:"done"`
	Jobs      int          `json:"jobs"`
	Stats     engine.Stats `json:"stats"`
	ElapsedUS int64        `json:"elapsed_us"`
}

// streamBatch serves /batch?stream=1: results are written as NDJSON in
// completion order — one line per job, fast jobs first, each tagged
// with its input index — followed by a trailer line. Backed by
// Engine.Stream, so a huge batch starts answering after its first job
// and the server never buffers the full result slice; cancelling the
// request (client disconnect) aborts the remaining jobs at their next
// cooperative checkpoint.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, b parsedBatch) {
	start := time.Now()
	reqID := r.Header.Get(RequestIDHeader) // set by instrument when absent
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(v any) {
		_ = enc.Encode(v) // Encode appends the newline NDJSON needs
		if flusher != nil {
			flusher.Flush()
		}
	}
	s.runBatch(r.Context(), b, start, func(i int, resp SolveResponse) {
		emit(StreamLine{Index: i, SolveResponse: resp, RequestID: reqID})
	})
	emit(StreamTrailer{
		Done:      true,
		Jobs:      len(b.jobs),
		Stats:     s.engine.Stats(),
		ElapsedUS: time.Since(start).Microseconds(),
	})
}

// parseFailure is the per-job response for a request that failed to
// parse (never submitted to the engine).
func parseFailure(err error) SolveResponse {
	terr := phomerr.Wrap(phomerr.CodeBadInput, err)
	return SolveResponse{Error: terr.Error(), Code: phomerr.CodeOf(terr).String()}
}

func (s *Server) runJob(ctx context.Context, job engine.Job, verdict *VerdictResponse) (SolveResponse, error) {
	start := time.Now()
	jr := s.engine.DoContext(ctx, job)
	return buildResponse(verdict, jr, time.Since(start)), jr.Err
}

// buildResponse renders one job's result. verdict is the job's Tables
// 1–3 verdict (predicted; nil for a union of queries), reported on
// success only. Responses on one structure may share it: it is only
// ever read.
func buildResponse(verdict *VerdictResponse, jr engine.JobResult, elapsed time.Duration) SolveResponse {
	resp := SolveResponse{ElapsedUS: elapsed.Microseconds(), CacheHit: jr.CacheHit, Shared: jr.Shared, PlanHit: jr.PlanHit}
	if jr.Err != nil {
		resp.Error = jr.Err.Error()
		resp.Code = phomerr.CodeOf(jr.Err).String()
		return resp
	}
	resp.Prob = jr.Result.Prob.RatString()
	resp.ProbFloat, _ = jr.Result.Prob.Float64()
	resp.Precision = jr.Result.Precision.String()
	if jr.Result.Bounds != nil {
		lo, hi := jr.Result.Bounds.Lo, jr.Result.Bounds.Hi
		resp.ProbLo, resp.ProbHi = &lo, &hi
	}
	resp.ApproxSamples = jr.Result.ApproxSamples
	resp.Method = jr.Result.Method.String()
	resp.PTime = jr.Result.Method.PTime()
	resp.Predicted = verdict
	return resp
}

// toJob parses the wire request into an engine job. defPrec and defTol
// are the server's default precision mode and auto tolerance, applied
// when the request does not choose its own.
func (r *SolveRequest) toJob(defPrec core.Precision, defTol float64) (engine.Job, error) {
	job, err := r.jobSkeleton(defPrec, defTol)
	if err != nil {
		return job, err
	}
	switch {
	case r.Instance != nil && r.InstanceText != "":
		return job, fmt.Errorf("provide instance or instance_text, not both")
	case r.Instance != nil:
		job.Instance, err = graphio.UnmarshalProbGraphJSON(r.Instance)
	case r.InstanceText != "":
		job.Instance, err = graphio.ParseProbGraph(strings.NewReader(r.InstanceText))
	default:
		return job, fmt.Errorf("no instance: provide instance or instance_text")
	}
	if err != nil {
		return job, fmt.Errorf("bad instance: %v", err)
	}
	return job, nil
}

// jobSkeleton parses everything of the wire request except the instance
// — queries, options, timeout — leaving job.Instance nil. It is the
// shared front half of toJob and of the instance-scoped endpoints,
// whose instance is the live registered one rather than a request
// field.
func (r *SolveRequest) jobSkeleton(defPrec core.Precision, defTol float64) (engine.Job, error) {
	queries, err := r.parseQueries()
	if err != nil {
		return engine.Job{}, err
	}
	if len(queries) == 0 {
		return engine.Job{}, fmt.Errorf("no query: provide query, queries, query_text or queries_text")
	}
	job, err := r.jobOptions(defPrec, defTol)
	if len(queries) == 1 {
		job.Query = queries[0]
	} else {
		job.Queries = queries
	}
	return job, err
}

// jobOptions parses and validates the request's options and timeout
// into a job with no query and no instance. A structure-cache hit
// (Server.parseJob) runs only this part of the parse.
func (r *SolveRequest) jobOptions(defPrec core.Precision, defTol float64) (engine.Job, error) {
	var job engine.Job
	if r.Options != nil {
		// Negative limits would mean "unbounded" to the solver; reject
		// them along with values above the server-side caps so one
		// request cannot pin a worker on days of exponential work.
		if r.Options.BruteForceLimit < 0 || r.Options.BruteForceLimit > maxBruteForceLimit {
			return job, fmt.Errorf("brute_force_limit %d outside [0, %d]", r.Options.BruteForceLimit, maxBruteForceLimit)
		}
		if r.Options.MatchLimit < 0 || r.Options.MatchLimit > maxMatchLimit {
			return job, fmt.Errorf("match_limit %d outside [0, %d]", r.Options.MatchLimit, maxMatchLimit)
		}
		if r.Options.TimeoutMS < 0 {
			return job, fmt.Errorf("timeout_ms %d is negative", r.Options.TimeoutMS)
		}
		job.Timeout = time.Duration(r.Options.TimeoutMS) * time.Millisecond
		// A malformed precision is a 400, never a silent default: a
		// client that typed "fats" must not silently pay exact-precision
		// latency (or worse, believe a float answer is exact).
		prec := defPrec
		if r.Options.Precision != "" {
			var err error
			if prec, err = core.ParsePrecision(r.Options.Precision); err != nil {
				return job, fmt.Errorf("bad precision %q: want \"exact\", \"fast\", \"auto\" or \"approx\"", r.Options.Precision)
			}
		}
		tol := r.Options.FloatTolerance
		if tol == 0 {
			tol = defTol
		}
		job.Opts = &core.Options{
			BruteForceLimit: r.Options.BruteForceLimit,
			MatchLimit:      r.Options.MatchLimit,
			DisableFallback: r.Options.DisableFallback,
			Precision:       prec,
			FloatTolerance:  tol,
			Epsilon:         r.Options.Epsilon,
			Delta:           r.Options.Delta,
			Seed:            r.Options.Seed,
		}
		// One definition of a valid tolerance / (ε,δ) pair: the solver's
		// own (finite non-negative tolerance; epsilon and delta in (0,1)
		// and only under approx). Rejecting here turns it into a 400
		// rather than a per-job solver error.
		if err := job.Opts.Validate(); err != nil {
			return job, err
		}
	} else if defPrec != core.PrecisionExact || defTol != 0 {
		job.Opts = &core.Options{Precision: defPrec, FloatTolerance: defTol}
	}
	return job, nil
}

func (r *SolveRequest) parseQueries() ([]*graph.Graph, error) {
	forms := 0
	for _, set := range []bool{r.Query != nil, len(r.Queries) > 0, r.QueryText != "", len(r.QueriesText) > 0} {
		if set {
			forms++
		}
	}
	if forms > 1 {
		return nil, fmt.Errorf("provide exactly one of query, queries, query_text, queries_text")
	}
	var raw []json.RawMessage
	var texts []string
	switch {
	case r.Query != nil:
		raw = []json.RawMessage{r.Query}
	case len(r.Queries) > 0:
		raw = r.Queries
	case r.QueryText != "":
		texts = []string{r.QueryText}
	case len(r.QueriesText) > 0:
		texts = r.QueriesText
	}
	var out []*graph.Graph
	for i, m := range raw {
		q, err := parseQueryJSON(m)
		if err != nil {
			return nil, fmt.Errorf("bad query %d: %v", i, err)
		}
		out = append(out, q)
	}
	for i, t := range texts {
		q, err := graphio.ParseGraph(strings.NewReader(t))
		if err != nil {
			return nil, fmt.Errorf("bad query %d: %v", i, err)
		}
		out = append(out, q)
	}
	return out, nil
}

// parseQueryJSON decodes a query graph from the JSON wire form,
// rejecting probability annotations (query graphs are deterministic).
func parseQueryJSON(data []byte) (*graph.Graph, error) {
	pg, err := graphio.UnmarshalProbGraphJSON(data)
	if err != nil {
		return nil, err
	}
	for i := 0; i < pg.G.NumEdges(); i++ {
		if pg.Prob(i).Cmp(graph.RatOne) != 0 {
			return nil, fmt.Errorf("query graph has a probability on edge %d", i)
		}
	}
	return pg.G, nil
}

func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: msg})
}

// WriteTypedError reports a typed error with its taxonomy-derived
// status and machine-readable code.
func WriteTypedError(w http.ResponseWriter, err error) {
	WriteJSON(w, StatusOf(err), ErrorResponse{Error: err.Error(), Code: phomerr.CodeOf(err).String()})
}
