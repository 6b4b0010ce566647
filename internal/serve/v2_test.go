package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"phom/internal/engine"
	"phom/internal/phomerr"
)

// hardInstanceText is an unlabeled instance with cycles in its
// underlying graph (no tractable cell applies) whose 24 edges are all
// uncertain at 1/2: 2^24 possible worlds, far beyond any test budget,
// so only cancellation/timeouts can end a brute-force solve on it.
func hardInstanceText() string {
	var b strings.Builder
	n := 9
	fmt.Fprintf(&b, "vertices %d\n", n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && j <= i+3; j++ {
			fmt.Fprintf(&b, "edge %d %d R 1/2\n", i, j)
		}
	}
	return b.String()
}

const hardQueryText = "vertices 3\nedge 0 1 R\nedge 1 2 R\n"

// TestStatusOfMapping pins the documented error-code → HTTP-status
// table.
func TestStatusOfMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{phomerr.ErrBadInput, http.StatusBadRequest},
		{phomerr.ErrDeadline, http.StatusRequestTimeout},
		{phomerr.ErrLimit, http.StatusUnprocessableEntity},
		{phomerr.ErrIntractable, http.StatusUnprocessableEntity},
		{phomerr.ErrCanceled, StatusClientClosedRequest},
		{phomerr.ErrUnavailable, http.StatusServiceUnavailable},
		{fmt.Errorf("mystery"), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		if got := StatusOf(tc.err); got != tc.want {
			t.Errorf("StatusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestTypedErrorStatuses exercises the mapping end to end over HTTP:
// each failure mode lands on its documented status with its
// machine-readable code in the body.
func TestTypedErrorStatuses(t *testing.T) {
	ts := newTestServer(t)

	t.Run("bad-input-400", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/solve", SolveRequest{
			QueryText:    "vertices nope",
			InstanceText: exampleInstanceText,
		})
		assertStatusCode(t, resp, body, http.StatusBadRequest, "bad-input")
	})
	t.Run("negative-timeout-400", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/solve", SolveRequest{
			QueryText:    hardQueryText,
			InstanceText: hardInstanceText(),
			Options:      &SolveOptions{TimeoutMS: -5},
		})
		assertStatusCode(t, resp, body, http.StatusBadRequest, "bad-input")
	})
	t.Run("deadline-408", func(t *testing.T) {
		start := time.Now()
		resp, body := postJSON(t, ts.URL+"/solve", SolveRequest{
			QueryText:    hardQueryText,
			InstanceText: hardInstanceText(),
			Options:      &SolveOptions{BruteForceLimit: 26, TimeoutMS: 50},
		})
		if elapsed := time.Since(start); elapsed > 15*time.Second {
			t.Fatalf("timeout took %v to fire", elapsed)
		}
		assertStatusCode(t, resp, body, http.StatusRequestTimeout, "deadline")
	})
	t.Run("intractable-422", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/solve", SolveRequest{
			QueryText:    hardQueryText,
			InstanceText: hardInstanceText(),
			Options:      &SolveOptions{DisableFallback: true},
		})
		assertStatusCode(t, resp, body, http.StatusUnprocessableEntity, "intractable")
	})
	t.Run("limit-422", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/solve", SolveRequest{
			QueryText:    hardQueryText,
			InstanceText: hardInstanceText(),
			Options:      &SolveOptions{BruteForceLimit: 2, MatchLimit: 1},
		})
		assertStatusCode(t, resp, body, http.StatusUnprocessableEntity, "limit")
	})
	t.Run("unavailable-503", func(t *testing.T) {
		eng := engine.New(engine.Options{Workers: 1})
		closedTS := httptest.NewServer(New(eng).Handler())
		defer closedTS.Close()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, closedTS.URL+"/solve", SolveRequest{
			QueryText:    exampleQueryText,
			InstanceText: exampleInstanceText,
		})
		assertStatusCode(t, resp, body, http.StatusServiceUnavailable, "unavailable")
	})
}

func assertStatusCode(t *testing.T, resp *http.Response, body []byte, wantStatus int, wantCode string) {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, wantStatus, body)
	}
	var payload struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	if payload.Code != wantCode {
		t.Fatalf("code %q, want %q (body %s)", payload.Code, wantCode, body)
	}
}

// TestBatchStreaming: /batch?stream=1 answers NDJSON in completion
// order — malformed jobs as immediate bad-input lines, solved jobs
// tagged with their input index, and a final done trailer — with
// results identical to a plain solve.
func TestBatchStreaming(t *testing.T) {
	ts := newTestServer(t)

	// The reference answer via the plain endpoint.
	_, refBody := postJSON(t, ts.URL+"/solve", SolveRequest{
		QueryText:    exampleQueryText,
		InstanceText: exampleInstanceText,
	})
	var ref SolveResponse
	if err := json.Unmarshal(refBody, &ref); err != nil {
		t.Fatal(err)
	}

	req := BatchRequest{Jobs: []SolveRequest{
		{QueryText: exampleQueryText, InstanceText: exampleInstanceText},
		{QueryText: "vertices nope", InstanceText: exampleInstanceText},
		{QueryText: exampleQueryText, InstanceText: exampleInstanceText},
	}}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/batch?stream=1", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}

	type line struct {
		Index int    `json:"index"`
		Prob  string `json:"prob"`
		Error string `json:"error"`
		Code  string `json:"code"`
		Done  bool   `json:"done"`
		Jobs  int    `json:"jobs"`
	}
	var lines []line
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 results + trailer", len(lines))
	}
	trailer := lines[len(lines)-1]
	if !trailer.Done || trailer.Jobs != 3 {
		t.Fatalf("trailer %+v", trailer)
	}
	seen := map[int]line{}
	for _, l := range lines[:len(lines)-1] {
		if _, dup := seen[l.Index]; dup {
			t.Fatalf("index %d delivered twice", l.Index)
		}
		seen[l.Index] = l
	}
	for _, i := range []int{0, 2} {
		l, ok := seen[i]
		if !ok {
			t.Fatalf("missing result for job %d", i)
		}
		if l.Prob != ref.Prob {
			t.Fatalf("job %d prob %q, want %q", i, l.Prob, ref.Prob)
		}
	}
	if l := seen[1]; l.Code != "bad-input" || l.Error == "" {
		t.Fatalf("malformed job line %+v, want bad-input error", l)
	}
}

// TestStreamingDeliversFastJobsFirst: with one exponential job and one
// trivial job in a streamed batch, the trivial result arrives first
// and the hard one resolves by its timeout — completion order, not
// submission order.
func TestStreamingDeliversFastJobsFirst(t *testing.T) {
	ts := newTestServer(t)
	req := BatchRequest{Jobs: []SolveRequest{
		{QueryText: hardQueryText, InstanceText: hardInstanceText(),
			Options: &SolveOptions{BruteForceLimit: 26, TimeoutMS: 300}},
		{QueryText: exampleQueryText, InstanceText: exampleInstanceText},
	}}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/batch?stream=true", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type line struct {
		Index int    `json:"index"`
		Code  string `json:"code"`
		Done  bool   `json:"done"`
	}
	var order []line
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		if !l.Done {
			order = append(order, l)
		}
	}
	if len(order) != 2 {
		t.Fatalf("got %d result lines", len(order))
	}
	if order[0].Index != 1 {
		t.Fatalf("fast job was not delivered first: %+v", order)
	}
	if order[1].Code != "deadline" {
		t.Fatalf("hard job code %q, want deadline", order[1].Code)
	}
}

// TestShutdownCancelsInflightJobs is the serve-context regression: an
// engine wired to a shutdown context aborts a running brute-force solve
// when that context is cancelled — the HTTP caller gets 499 promptly
// instead of holding a worker for 2^24 worlds.
func TestShutdownCancelsInflightJobs(t *testing.T) {
	serveCtx, shutdown := context.WithCancel(context.Background())
	defer shutdown()
	eng := engine.New(engine.Options{Workers: 2, BaseContext: serveCtx})
	ts := httptest.NewServer(New(eng).Handler())
	defer ts.Close()

	type result struct {
		status int
		code   string
		err    error
	}
	done := make(chan result, 1)
	go func() {
		// postJSON would t.Fatal off the test goroutine (FailNow must
		// run on the test goroutine); report transport errors through
		// the channel instead.
		b, err := json.Marshal(SolveRequest{
			QueryText:    hardQueryText,
			InstanceText: hardInstanceText(),
			Options:      &SolveOptions{BruteForceLimit: 26},
		})
		if err != nil {
			done <- result{err: err}
			return
		}
		resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(b))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var payload struct {
			Code string `json:"code"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&payload)
		done <- result{status: resp.StatusCode, code: payload.Code}
	}()

	// Wait until a worker holds the job — its opaque plan is compiled,
	// so the brute-force evaluation is what remains — then pull the plug
	// the way main does on SIGTERM.
	for eng.Stats().PlanCompiles == 0 {
		select {
		case r := <-done:
			t.Fatalf("job finished before shutdown: %+v", r)
		case <-time.After(time.Millisecond):
		}
	}
	shutdown()

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("POST failed: %v", r.err)
		}
		if r.status != StatusClientClosedRequest {
			t.Fatalf("status %d, want %d", r.status, StatusClientClosedRequest)
		}
		if r.code != "canceled" {
			t.Fatalf("code %q, want canceled", r.code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown did not cancel the in-flight job")
	}

	// The drained engine closes promptly: no worker is still enumerating.
	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("engine.Close hung after shutdown")
	}
}
