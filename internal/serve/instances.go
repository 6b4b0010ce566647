package serve

// instances.go: the live-instance half of the wire protocol. An
// instance is a named, versioned mutable probabilistic graph registered
// with the engine (engine.CreateInstance); clients mutate it with typed
// delta batches under an optimistic if_version check (409 on a stale
// version) and solve/reweight/batch against whatever snapshot is
// current, without re-shipping the graph on every request. Endpoints:
//
//	POST   /instances                create (server mints an id if absent)
//	GET    /instances                list ids
//	GET    /instances/{id}           version, size, per-component class census
//	DELETE /instances/{id}           unregister, drop tracked plans
//	POST   /instances/{id}/delta     apply a delta batch (if_version CAS)
//	POST   /instances/{id}/solve     SolveRequest minus the instance fields
//	POST   /instances/{id}/reweight  ReweightRequest minus the instance fields
//	POST   /instances/{id}/batch     BatchRequest minus the instance fields
//
// The solve-shaped endpoints answer with the ordinary wire types plus
// the X-Phom-Instance-Version header naming the snapshot version that
// answered — under concurrent deltas a solve runs copy-on-write against
// the version it resolved, never a torn half-applied state.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"phom/internal/engine"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/instance"
	"phom/internal/phomerr"
)

// InstanceVersionHeader reports, on instance-scoped solve responses,
// the snapshot version the answer was computed against.
const InstanceVersionHeader = "X-Phom-Instance-Version"

// CreateInstanceRequest creates a live instance. The graph comes in
// either wire format, exactly like a solve request's instance.
type CreateInstanceRequest struct {
	// ID names the instance; empty lets the server mint a unique id.
	ID           string          `json:"id,omitempty"`
	Instance     json.RawMessage `json:"instance,omitempty"`
	InstanceText string          `json:"instance_text,omitempty"`
}

// InstanceInfoResponse describes a live instance: its current version
// and the structural census the dispatch of Tables 1–3 sees — how many
// connected components sit in each tightest class.
type InstanceInfoResponse struct {
	ID            string         `json:"id"`
	Version       uint64         `json:"version"`
	Vertices      int            `json:"vertices"`
	Edges         int            `json:"edges"`
	ClassCensus   map[string]int `json:"class_census"`
	DeltasApplied int64          `json:"deltas_applied"`
}

// InstanceListResponse lists the live instance ids.
type InstanceListResponse struct {
	Instances []string `json:"instances"`
}

// DeltaOp is one wire-form delta: op is "set_prob", "add_edge" or
// "remove_edge"; edge addresses the endpoints as "from>to"; prob is an
// exact rational ("1/2", "0.35") — required for set_prob, optional for
// add_edge (default 1); label is for add_edge (default the unlabeled
// label).
type DeltaOp struct {
	Op    string `json:"op"`
	Edge  string `json:"edge"`
	Label string `json:"label,omitempty"`
	Prob  string `json:"prob,omitempty"`
}

// DeltaRequest applies a batch of deltas atomically. if_version, when
// present, is the optimistic concurrency check: the batch applies only
// if the instance is still at that version, otherwise the request fails
// with 409 and the code "conflict" (re-read the version and retry).
// Absent means unconditional.
type DeltaRequest struct {
	IfVersion *int64    `json:"if_version,omitempty"`
	Deltas    []DeltaOp `json:"deltas"`
}

// DeltaResponse reports a committed delta batch.
type DeltaResponse struct {
	ID         string `json:"id"`
	Version    uint64 `json:"version"`
	Structural bool   `json:"structural"`
	Applied    int    `json:"applied"`
	ElapsedUS  int64  `json:"elapsed_us"`
}

// handleInstances serves the collection: POST creates, GET lists.
func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		WriteJSON(w, http.StatusOK, InstanceListResponse{Instances: s.engine.ListInstances()})
	case http.MethodPost:
		var req CreateInstanceRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		var (
			h   *graph.ProbGraph
			err error
		)
		switch {
		case req.Instance != nil && req.InstanceText != "":
			WriteError(w, http.StatusBadRequest, "provide instance or instance_text, not both")
			return
		case req.Instance != nil:
			h, err = graphio.UnmarshalProbGraphJSON(req.Instance)
		case req.InstanceText != "":
			h, err = graphio.ParseProbGraph(strings.NewReader(req.InstanceText))
		default:
			WriteError(w, http.StatusBadRequest, "no instance: provide instance or instance_text")
			return
		}
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad instance: "+err.Error())
			return
		}
		in, err := s.engine.CreateInstance(req.ID, h)
		if err != nil {
			WriteTypedError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, instanceInfo(in))
	default:
		WriteError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// handleInstanceScoped routes /instances/{id} and /instances/{id}/{op}.
func (s *Server) handleInstanceScoped(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/instances/")
	id, op, _ := strings.Cut(rest, "/")
	if id == "" {
		WriteError(w, http.StatusNotFound, "missing instance id")
		return
	}
	switch op {
	case "":
		s.handleInstanceRoot(w, r, id)
	case "delta":
		s.handleInstanceDelta(w, r, id)
	case "solve":
		s.handleInstanceSolve(w, r, id)
	case "reweight":
		s.handleInstanceReweight(w, r, id)
	case "batch":
		s.handleInstanceBatch(w, r, id)
	default:
		WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown instance operation %q", op))
	}
}

func (s *Server) handleInstanceRoot(w http.ResponseWriter, r *http.Request, id string) {
	switch r.Method {
	case http.MethodGet:
		in, ok := s.engine.Instance(id)
		if !ok {
			writeNoInstance(w, id)
			return
		}
		WriteJSON(w, http.StatusOK, instanceInfo(in))
	case http.MethodDelete:
		if !s.engine.DeleteInstance(id) {
			writeNoInstance(w, id)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"deleted": id})
	default:
		WriteError(w, http.StatusMethodNotAllowed, "GET or DELETE only")
	}
}

func (s *Server) handleInstanceDelta(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req DeltaRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	deltas, err := parseDeltas(req.Deltas)
	if err != nil {
		WriteTypedError(w, phomerr.Wrap(phomerr.CodeBadInput, err))
		return
	}
	ifVersion := int64(-1)
	if req.IfVersion != nil {
		if *req.IfVersion < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("if_version %d is negative", *req.IfVersion))
			return
		}
		ifVersion = *req.IfVersion
	}
	start := time.Now()
	res, err := s.engine.ApplyDelta(id, ifVersion, deltas)
	if err != nil {
		if errors.Is(err, engine.ErrNoInstance) {
			writeNoInstance(w, id)
			return
		}
		WriteTypedError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, DeltaResponse{
		ID:         id,
		Version:    res.New.Version,
		Structural: res.Structural,
		Applied:    len(deltas),
		ElapsedUS:  time.Since(start).Microseconds(),
	})
}

func (s *Server) handleInstanceSolve(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req SolveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	job, ok := s.instanceJob(w, id, &req)
	if !ok {
		return
	}
	resp, jerr := s.runJob(r.Context(), job, predicted(job))
	if jerr != nil {
		WriteJSON(w, StatusOf(jerr), resp)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInstanceReweight(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ReweightRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	job, ok := s.instanceJob(w, id, &req.SolveRequest)
	if !ok {
		return
	}
	s.reweight(w, r, job, predicted(job), &req)
}

func (s *Server) handleInstanceBatch(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if _, ok := s.engine.Instance(id); !ok {
		writeNoInstance(w, id)
		return
	}
	if !checkBatchSize(w, len(req.Jobs)) {
		return
	}
	// Bind every well-formed job to one snapshot, so the whole batch
	// answers the version the header names even under concurrent
	// deltas; fail the whole batch only when the instance itself is gone.
	b := newParsedBatch(len(req.Jobs))
	var skeletons []engine.Job
	var at []int
	for i := range req.Jobs {
		job, err := s.instanceSkeleton(&req.Jobs[i])
		if err != nil {
			b.errs[i] = err
			continue
		}
		skeletons = append(skeletons, job)
		at = append(at, i)
	}
	bound, version, err := s.engine.InstanceJobs(id, skeletons)
	if err != nil {
		writeNoInstance(w, id)
		return
	}
	for k, i := range at {
		b.jobs[i], b.verdicts[i] = bound[k], predicted(bound[k])
	}
	w.Header().Set(InstanceVersionHeader, strconv.FormatUint(version, 10))
	s.serveBatch(w, r, b)
}

// instanceSkeleton parses an instance-scoped request: a solve request
// with no instance field, whose instance the live snapshot supplies.
func (s *Server) instanceSkeleton(req *SolveRequest) (engine.Job, error) {
	if req.Instance != nil || req.InstanceText != "" {
		return engine.Job{}, fmt.Errorf("instance-scoped request must not carry an instance field")
	}
	return req.jobSkeleton(s.defPrec, s.defTol)
}

// instanceJob binds an instance-scoped request to the instance's
// current snapshot with the error handling of the single-job
// endpoints: 404 for a missing instance, typed 400 for a malformed
// request, and the snapshot version stamped on the response headers.
func (s *Server) instanceJob(w http.ResponseWriter, id string, req *SolveRequest) (engine.Job, bool) {
	job, err := s.instanceSkeleton(req)
	var version uint64
	if err == nil {
		job, version, err = s.engine.InstanceJob(id, job)
	}
	if err != nil {
		if errors.Is(err, engine.ErrNoInstance) {
			writeNoInstance(w, id)
			return engine.Job{}, false
		}
		WriteTypedError(w, phomerr.Wrap(phomerr.CodeBadInput, err))
		return engine.Job{}, false
	}
	w.Header().Set(InstanceVersionHeader, strconv.FormatUint(version, 10))
	return job, true
}

func parseDeltas(ops []DeltaOp) ([]instance.Delta, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("empty delta batch")
	}
	out := make([]instance.Delta, len(ops))
	for i, op := range ops {
		o, err := instance.ParseOp(op.Op)
		if err != nil {
			return nil, fmt.Errorf("delta %d: %v", i, err)
		}
		from, to, ok := graphio.ParseEdgeKey(op.Edge)
		if !ok {
			return nil, fmt.Errorf("delta %d: bad edge %q: want \"from>to\"", i, op.Edge)
		}
		d := instance.Delta{Op: o, From: graph.Vertex(from), To: graph.Vertex(to)}
		if op.Prob != "" {
			p, err := graphio.ParseRat(op.Prob)
			if err != nil {
				return nil, fmt.Errorf("delta %d: bad prob: %v", i, err)
			}
			d.Prob = p
		}
		if o == instance.OpSetProb && d.Prob == nil {
			return nil, fmt.Errorf("delta %d: set_prob needs a prob", i)
		}
		if o == instance.OpAddEdge {
			d.Label = graph.Unlabeled
			if op.Label != "" {
				d.Label = graph.Label(op.Label)
			}
		} else if op.Label != "" {
			return nil, fmt.Errorf("delta %d: label is only valid on add_edge", i)
		}
		out[i] = d
	}
	return out, nil
}

func instanceInfo(in *instance.Instance) InstanceInfoResponse {
	snap := in.Snapshot()
	return InstanceInfoResponse{
		ID:            in.ID(),
		Version:       snap.Version,
		Vertices:      snap.H.G.NumVertices(),
		Edges:         snap.H.G.NumEdges(),
		ClassCensus:   instance.ClassCensus(snap.H.G),
		DeltasApplied: in.DeltasApplied(),
	}
}

func writeNoInstance(w http.ResponseWriter, id string) {
	WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no such instance %q", id)})
}
