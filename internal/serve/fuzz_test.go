package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"phom/internal/engine"
)

// fuzzBodyLimit and fuzzDeadline bound the work one fuzz input can
// cause: longer bodies are skipped, and each send runs under a deadline
// so a body asking for exponential work costs one deadline, not the
// fuzzing budget.
const (
	fuzzBodyLimit = 4 << 10
	fuzzDeadline  = 500 * time.Millisecond
)

// serveStatuses is the typed taxonomy of /solve and /reweight: 200, the
// statuses StatusOf maps error codes to, and 413 for an oversized body.
var serveStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusRequestTimeout:        true,
	http.StatusConflict:              true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	StatusClientClosedRequest:        true,
	http.StatusServiceUnavailable:    true,
}

// FuzzServeRequest sends each input body to /solve and to /reweight on
// one Server, twice each. Every status must be in the typed taxonomy —
// never a 500, never a panic — and the second response must equal the
// first apart from timing and cache flags: the first send of a
// well-formed structure parses it into the structure cache, the second
// is served from it. Sends that hit a deadline (the request's own
// timeout_ms or the harness's) are exempt from the identity check.
func FuzzServeRequest(f *testing.F) {
	seeds := []any{
		SolveRequest{QueryText: exampleQueryText, InstanceText: exampleInstanceText},
		SolveRequest{QueriesText: []string{tractableQueryText, "vertices 2\nedge 0 1 S\n"}, InstanceText: tractableInstanceText},
		precRequest(&SolveOptions{Precision: "fast"}),
		precRequest(&SolveOptions{Precision: "auto", FloatTolerance: 1e-3}),
		approxSolveRequest(approxServeOpts(7)),
		reweightBody("1/3"),
		ReweightRequest{
			SolveRequest: SolveRequest{QueryText: tractableQueryText, InstanceText: tractableInstanceText},
			ProbsBatch:   []map[string]string{{"0>1": "1/7"}, {"1>2": "5/6"}},
		},
		map[string]any{"query": map[string]any{"vertices": 2, "edges": []any{[]any{0, 1, "R"}}},
			"instance": map[string]any{"vertices": 3, "edges": []any{[]any{0, 1, "R", "1/2"}, []any{1, 2, "R", "1/3"}}}},
	}
	for _, s := range seeds {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		"{",
		`{"instance_text": "vertices 1\n"}`,
		fmt.Sprintf(`{"query_text": %q, "instance_text": %q}`, "vertices 2\nedge 0 1 R 1/2\n", "vertices 1\n"),
		fmt.Sprintf(`{"query_text": %q, "instance_text": %q, "options": {"brute_force_limit": 64}}`, tractableQueryText, tractableInstanceText),
		fmt.Sprintf(`{"query_text": %q, "instance_text": %q, "probs": {"0>1": "2", " 0>1": "1/2"}}`, tractableQueryText, tractableInstanceText),
		fmt.Sprintf(`{"query_text": %q, "instance_text": %q, "probs": {"0>1": "1/2"}, "probs_batch": [{}]}`, tractableQueryText, tractableInstanceText),
		fmt.Sprintf(`{"query_text": %q, "instance_text": %q, "options": {"timeout_ms": 1}}`, hardQueryText, hardInstanceText()),
	} {
		f.Add([]byte(s))
	}

	eng := engine.New(engine.Options{Workers: 2})
	f.Cleanup(func() { eng.Close() })
	h := New(eng).Handler()
	send := func(path string, body []byte) (int, []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), fuzzDeadline)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > fuzzBodyLimit {
			return
		}
		for _, path := range []string{"/solve", "/reweight"} {
			s1, b1 := send(path, body)
			s2, b2 := send(path, body)
			for _, s := range []int{s1, s2} {
				if !serveStatuses[s] {
					t.Fatalf("%s: status %d outside the typed taxonomy\nbody %q\nresponse %s", path, s, body, b1)
				}
			}
			if timedOut(s1) || timedOut(s2) {
				continue
			}
			if s1 != s2 {
				t.Fatalf("%s: status %d then %d\nbody %q\n%s\n%s", path, s1, s2, body, b1, b2)
			}
			if a, b := stableResponse(t, b1), stableResponse(t, b2); a != b {
				t.Fatalf("%s: second response differs from the first\nbody %q\nfirst  %s\nsecond %s", path, body, a, b)
			}
		}
	})
}

// timedOut reports a status a deadline produced: the request's own
// timeout (408) or the harness's (499). Either may land on one send of
// a body and not the other.
func timedOut(status int) bool {
	return status == http.StatusRequestTimeout || status == StatusClientClosedRequest
}

// FuzzInstanceDelta posts each input body to /instances/{id}/delta on a
// freshly created live instance. Every status must be in the typed
// taxonomy — never a 500, never a panic. A rejected batch must leave the
// version and the answer of a following instance /solve unchanged; a
// committed batch must bump the version by exactly one.
func FuzzInstanceDelta(f *testing.F) {
	one, stale, neg := int64(1), int64(7), int64(-3)
	setProb := []DeltaOp{{Op: "set_prob", Edge: "0>1", Prob: "1/4"}}
	for _, s := range []DeltaRequest{
		{IfVersion: &one, Deltas: setProb},
		{IfVersion: &stale, Deltas: setProb},
		{IfVersion: &neg, Deltas: setProb},
		{Deltas: setProb},
		{},
		{Deltas: []DeltaOp{{Op: "truncate", Edge: "0>1"}}},
		{Deltas: []DeltaOp{{Op: "set_prob", Edge: "zero to one", Prob: "1/2"}}},
		{Deltas: []DeltaOp{{Op: "set_prob", Edge: "0>1"}}},
		{Deltas: []DeltaOp{{Op: "set_prob", Edge: "0>1", Prob: "3/2"}}},
		{Deltas: []DeltaOp{{Op: "remove_edge", Edge: "0>1", Label: "R"}}},
		{Deltas: []DeltaOp{{Op: "remove_edge", Edge: "0>2"}}},
		{Deltas: []DeltaOp{{Op: "add_edge", Edge: "0>9"}}},
		{Deltas: []DeltaOp{{Op: "add_edge", Edge: "0>2", Label: "S", Prob: "1/2"}}},
		{Deltas: []DeltaOp{{Op: "remove_edge", Edge: "1>2"}}},
		{Deltas: []DeltaOp{{Op: "set_prob", Edge: "1>2", Prob: "1"}, {Op: "remove_edge", Edge: "0>1"}}},
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{"{", `{"deltas": null}`, `{"if_version": "1", "deltas": []}`} {
		f.Add([]byte(s))
	}

	eng := engine.New(engine.Options{Workers: 2})
	f.Cleanup(func() { eng.Close() })
	h := New(eng).Handler()
	send := func(method, path string, body []byte) (int, http.Header, []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), fuzzDeadline)
		defer cancel()
		req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Header(), rec.Body.Bytes()
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	create := mustJSON(CreateInstanceRequest{ID: "fz", InstanceText: liveInstanceText})
	solve := mustJSON(SolveRequest{QueryText: oneEdgeQueryText})
	version := func(t *testing.T) uint64 {
		t.Helper()
		status, _, b := send(http.MethodGet, "/instances/fz", nil)
		var info InstanceInfoResponse
		if status != http.StatusOK || json.Unmarshal(b, &info) != nil {
			t.Fatalf("instance info: status %d: %s", status, b)
		}
		return info.Version
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > fuzzBodyLimit {
			return
		}
		if status, _, b := send(http.MethodPost, "/instances", create); status != http.StatusOK {
			t.Fatalf("create: status %d: %s", status, b)
		}
		defer send(http.MethodDelete, "/instances/fz", nil)
		s0, h0, a0 := send(http.MethodPost, "/instances/fz/solve", solve)
		v0 := version(t)

		status, _, resp := send(http.MethodPost, "/instances/fz/delta", body)
		if !serveStatuses[status] {
			t.Fatalf("status %d outside the typed taxonomy\nbody %q\nresponse %s", status, body, resp)
		}
		v1 := version(t)
		if status == http.StatusOK {
			var dr DeltaResponse
			if err := json.Unmarshal(resp, &dr); err != nil {
				t.Fatalf("delta response: %v: %s", err, resp)
			}
			if dr.Version != v0+1 || v1 != v0+1 {
				t.Fatalf("committed batch: version %d → response %d, info %d; want %d\nbody %q", v0, dr.Version, v1, v0+1, body)
			}
			return
		}
		if v1 != v0 {
			t.Fatalf("rejected batch (status %d) moved the version %d → %d\nbody %q", status, v0, v1, body)
		}
		s1, h1, a1 := send(http.MethodPost, "/instances/fz/solve", solve)
		if s1 != s0 || h1.Get(InstanceVersionHeader) != h0.Get(InstanceVersionHeader) || stableResponse(t, a1) != stableResponse(t, a0) {
			t.Fatalf("rejected batch (status %d) changed the answer\nbody %q\nbefore %d %s\nafter  %d %s", status, body, s0, a0, s1, a1)
		}
	})
}
