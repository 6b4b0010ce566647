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
