package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"strconv"
	"testing"
)

// A three-vertex path with all edges on label R. The single-R-edge
// query matches iff at least one edge survives:
// Pr = 1 − (1−p01)(1−p12) = 1 − (1/2)(2/3) = 2/3.
const (
	liveInstanceText = `
vertices 3
edge 0 1 R 1/2
edge 1 2 R 1/3
`
	oneEdgeQueryText = `
vertices 2
edge 0 1 R
`
)

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func createLiveInstance(t *testing.T, url, id string) InstanceInfoResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/instances", CreateInstanceRequest{
		ID:           id,
		InstanceText: liveInstanceText,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create instance: status %d: %s", resp.StatusCode, body)
	}
	var info InstanceInfoResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func solveLive(t *testing.T, url, id string) (*http.Response, SolveResponse) {
	t.Helper()
	resp, body := postJSON(t, url+"/instances/"+id+"/solve", SolveRequest{QueryText: oneEdgeQueryText})
	var sr SolveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("solve response: %v: %s", err, body)
		}
	}
	return resp, sr
}

func TestInstanceLifecycleOverWire(t *testing.T) {
	ts := newTestServer(t)

	info := createLiveInstance(t, ts.URL, "live")
	if info.ID != "live" || info.Version != 1 || info.Vertices != 3 || info.Edges != 2 {
		t.Fatalf("created info = %+v", info)
	}
	if info.ClassCensus["1WP"] != 1 {
		t.Fatalf("class census = %v, want one 1WP component", info.ClassCensus)
	}

	// Solve against version 1.
	resp, sr := solveLive(t, ts.URL, "live")
	if resp.StatusCode != http.StatusOK || sr.Prob != "2/3" {
		t.Fatalf("solve v1: status %d prob %q, want 2/3", resp.StatusCode, sr.Prob)
	}
	if got := resp.Header.Get(InstanceVersionHeader); got != "1" {
		t.Fatalf("%s = %q, want 1", InstanceVersionHeader, got)
	}

	// Probability delta under a matching if_version.
	v := int64(1)
	resp, body := postJSON(t, ts.URL+"/instances/live/delta", DeltaRequest{
		IfVersion: &v,
		Deltas:    []DeltaOp{{Op: "set_prob", Edge: "0>1", Prob: "1/4"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d: %s", resp.StatusCode, body)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Version != 2 || dr.Structural || dr.Applied != 1 {
		t.Fatalf("delta response = %+v", dr)
	}

	// Pr = 1 − (3/4)(2/3) = 1/2 at version 2.
	resp, sr = solveLive(t, ts.URL, "live")
	if sr.Prob != "1/2" || resp.Header.Get(InstanceVersionHeader) != "2" {
		t.Fatalf("solve v2: prob %q header %q", sr.Prob, resp.Header.Get(InstanceVersionHeader))
	}

	// Structural delta: drop edge 1>2 entirely; Pr = 1/4.
	resp, body = postJSON(t, ts.URL+"/instances/live/delta", DeltaRequest{
		Deltas: []DeltaOp{{Op: "remove_edge", Edge: "1>2"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("structural delta: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Version != 3 || !dr.Structural {
		t.Fatalf("structural delta response = %+v", dr)
	}
	if _, sr = solveLive(t, ts.URL, "live"); sr.Prob != "1/4" {
		t.Fatalf("solve v3: prob %q, want 1/4", sr.Prob)
	}

	// Info reflects the mutations; the list shows the instance.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/instances/live", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("info: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 3 || info.Edges != 1 || info.DeltasApplied != 2 {
		t.Fatalf("info after deltas = %+v", info)
	}
	_, body = doJSON(t, http.MethodGet, ts.URL+"/instances", nil)
	var list InstanceListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Instances) != 1 || list.Instances[0] != "live" {
		t.Fatalf("list = %v", list.Instances)
	}
}

func TestInstanceUnknownIDIs404(t *testing.T) {
	ts := newTestServer(t)
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/instances/ghost"},
		{http.MethodDelete, "/instances/ghost"},
		{http.MethodPost, "/instances/ghost/solve"},
		{http.MethodPost, "/instances/ghost/reweight"},
		{http.MethodPost, "/instances/ghost/batch"},
	} {
		var body any
		switch c.path {
		case "/instances/ghost/solve", "/instances/ghost/reweight":
			body = SolveRequest{QueryText: oneEdgeQueryText}
		case "/instances/ghost/batch":
			body = BatchRequest{Jobs: []SolveRequest{{QueryText: oneEdgeQueryText}}}
		}
		resp, b := doJSON(t, c.method, ts.URL+c.path, body)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d: %s", c.method, c.path, resp.StatusCode, b)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/instances/ghost/delta", DeltaRequest{
		Deltas: []DeltaOp{{Op: "set_prob", Edge: "0>1", Prob: "1/2"}},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delta on ghost: status %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/instances/ghost/truncate", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown op: status %d", resp.StatusCode)
	}
}

func TestInstanceStaleIfVersionIs409(t *testing.T) {
	ts := newTestServer(t)
	createLiveInstance(t, ts.URL, "cas")
	stale := int64(7)
	resp, body := postJSON(t, ts.URL+"/instances/cas/delta", DeltaRequest{
		IfVersion: &stale,
		Deltas:    []DeltaOp{{Op: "set_prob", Edge: "0>1", Prob: "1/4"}},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale if_version: status %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "conflict" {
		t.Fatalf("error code = %q, want conflict", er.Code)
	}
	// The failed CAS left the instance untouched.
	if _, sr := solveLive(t, ts.URL, "cas"); sr.Prob != "2/3" {
		t.Fatalf("prob after failed CAS = %q, want 2/3", sr.Prob)
	}
}

func TestInstanceMalformedDeltaIs400(t *testing.T) {
	ts := newTestServer(t)
	createLiveInstance(t, ts.URL, "bad")
	cases := []DeltaRequest{
		{}, // empty batch
		{Deltas: []DeltaOp{{Op: "truncate", Edge: "0>1"}}},                      // unknown op
		{Deltas: []DeltaOp{{Op: "set_prob", Edge: "zero to one", Prob: "1/2"}}}, // bad edge key
		{Deltas: []DeltaOp{{Op: "set_prob", Edge: "0>1"}}},                      // missing prob
		{Deltas: []DeltaOp{{Op: "set_prob", Edge: "0>1", Prob: "3/2"}}},         // out of range
		{Deltas: []DeltaOp{{Op: "remove_edge", Edge: "0>1", Label: "R"}}},       // label on remove
		{Deltas: []DeltaOp{{Op: "remove_edge", Edge: "0>2"}}},                   // no such edge
		{Deltas: []DeltaOp{{Op: "add_edge", Edge: "0>9"}}},                      // endpoint out of range
	}
	for i, req := range cases {
		resp, body := postJSON(t, ts.URL+"/instances/bad/delta", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	neg := int64(-3)
	resp, _ := postJSON(t, ts.URL+"/instances/bad/delta", DeltaRequest{
		IfVersion: &neg,
		Deltas:    []DeltaOp{{Op: "set_prob", Edge: "0>1", Prob: "1/2"}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative if_version: status %d", resp.StatusCode)
	}
	// Instance-scoped solve must not smuggle its own instance.
	resp, _ = postJSON(t, ts.URL+"/instances/bad/solve", SolveRequest{
		QueryText:    oneEdgeQueryText,
		InstanceText: liveInstanceText,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("inline instance on scoped solve: status %d", resp.StatusCode)
	}
	// None of the rejects committed anything.
	var info InstanceInfoResponse
	_, body := doJSON(t, http.MethodGet, ts.URL+"/instances/bad", nil)
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.DeltasApplied != 0 {
		t.Fatalf("rejected deltas mutated the instance: %+v", info)
	}
}

func TestInstanceDeleteThenSolve(t *testing.T) {
	ts := newTestServer(t)
	createLiveInstance(t, ts.URL, "gone")
	if resp, sr := solveLive(t, ts.URL, "gone"); resp.StatusCode != http.StatusOK || sr.Prob != "2/3" {
		t.Fatalf("pre-delete solve failed: %d %q", resp.StatusCode, sr.Prob)
	}
	resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/instances/gone", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if resp, _ := solveLive(t, ts.URL, "gone"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("solve after delete: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/instances/gone", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", resp.StatusCode)
	}
}

func TestInstanceCreateValidation(t *testing.T) {
	ts := newTestServer(t)
	// No instance payload.
	resp, _ := postJSON(t, ts.URL+"/instances", CreateInstanceRequest{ID: "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing instance: status %d", resp.StatusCode)
	}
	// Unparsable graph.
	resp, _ = postJSON(t, ts.URL+"/instances", CreateInstanceRequest{InstanceText: "vertices banana"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage instance: status %d", resp.StatusCode)
	}
	// Duplicate id.
	createLiveInstance(t, ts.URL, "dup")
	resp, _ = postJSON(t, ts.URL+"/instances", CreateInstanceRequest{ID: "dup", InstanceText: liveInstanceText})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate id: status %d", resp.StatusCode)
	}
	// Server-minted id comes back non-empty and distinct.
	resp, body := postJSON(t, ts.URL+"/instances", CreateInstanceRequest{InstanceText: liveInstanceText})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("minted create: status %d: %s", resp.StatusCode, body)
	}
	var info InstanceInfoResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.ID == "dup" {
		t.Fatalf("minted id = %q", info.ID)
	}
}

func TestInstanceReweightAndBatch(t *testing.T) {
	ts := newTestServer(t)
	createLiveInstance(t, ts.URL, "rw")

	// Reweight overrides ride on top of the live snapshot without
	// mutating it: forcing edge 0>1 certain gives Pr = 1.
	resp, body := postJSON(t, ts.URL+"/instances/rw/reweight", ReweightRequest{
		SolveRequest: SolveRequest{QueryText: oneEdgeQueryText},
		Probs:        map[string]string{"0>1": "1"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reweight: status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Prob != "1" {
		t.Fatalf("reweighted prob = %q, want 1", sr.Prob)
	}
	if _, base := solveLive(t, ts.URL, "rw"); base.Prob != "2/3" {
		t.Fatalf("reweight mutated the live instance: %q", base.Prob)
	}

	// Batch: two jobs against the same snapshot.
	resp, body = postJSON(t, ts.URL+"/instances/rw/batch", BatchRequest{
		Jobs: []SolveRequest{
			{QueryText: oneEdgeQueryText},
			{QueryText: oneEdgeQueryText},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("batch results = %d, want 2", len(br.Results))
	}
	for i, r := range br.Results {
		if r.Prob != "2/3" {
			t.Fatalf("batch job %d: prob %q, want 2/3", i, r.Prob)
		}
	}
	// A batch job smuggling its own instance is rejected per-job.
	resp, body = postJSON(t, ts.URL+"/instances/rw/batch", BatchRequest{
		Jobs: []SolveRequest{{QueryText: oneEdgeQueryText, InstanceText: liveInstanceText}},
	})
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("batch with inline instance: %v: %s", err, body)
	}
	if len(br.Results) != 1 || br.Results[0].Error == "" {
		t.Fatalf("inline-instance batch job should fail per-job: %s", body)
	}
}

// TestInstanceBatchBindsOneSnapshot: an instance batch answers one
// snapshot and names it. While deltas commit concurrently, every batch
// response carries the version header, and every result equals what an
// instance /solve returns at that version.
func TestInstanceBatchBindsOneSnapshot(t *testing.T) {
	ts := newTestServer(t)
	createLiveInstance(t, ts.URL, "snap")
	// Delta v sets p01 to 1/(v+2), so version v has p01 = 1/(v+1) (the
	// created version 1 included) and, with p12 = 1/3, the /solve answer
	// 1 − (1 − p01)·(2/3).
	answer := func(v uint64) string {
		miss := new(big.Rat).Sub(big.NewRat(1, 1), big.NewRat(1, int64(v)+1))
		miss.Mul(miss, big.NewRat(2, 3))
		return miss.Sub(big.NewRat(1, 1), miss).RatString()
	}
	const deltas = 40
	committed := make(chan error, 1)
	go func() {
		for v := int64(1); v <= deltas; v++ {
			b, _ := json.Marshal(DeltaRequest{
				IfVersion: &v,
				Deltas:    []DeltaOp{{Op: "set_prob", Edge: "0>1", Prob: fmt.Sprintf("1/%d", v+2)}},
			})
			resp, err := http.Post(ts.URL+"/instances/snap/delta", "application/json", bytes.NewReader(b))
			if err != nil {
				committed <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				committed <- fmt.Errorf("delta %d: status %d", v, resp.StatusCode)
				return
			}
		}
		committed <- nil
	}()

	jobs := make([]SolveRequest, 8)
	for i := range jobs {
		jobs[i] = SolveRequest{QueryText: oneEdgeQueryText}
	}
	batch := func() uint64 {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/instances/snap/batch", BatchRequest{Jobs: jobs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
		}
		v, err := strconv.ParseUint(resp.Header.Get(InstanceVersionHeader), 10, 64)
		if err != nil {
			t.Fatalf("batch %s header %q: %v", InstanceVersionHeader, resp.Header.Get(InstanceVersionHeader), err)
		}
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		for i, r := range br.Results {
			if r.Prob != answer(v) {
				t.Fatalf("batch at version %d: job %d prob %q, want %q", v, i, r.Prob, answer(v))
			}
		}
		return v
	}
	for done := false; !done; {
		select {
		case err := <-committed:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
			batch()
		}
	}
	// Quiescent: the batch and an instance /solve name the same version
	// and give the same answer.
	v := batch()
	resp, sr := solveLive(t, ts.URL, "snap")
	if got := resp.Header.Get(InstanceVersionHeader); got != strconv.FormatUint(v, 10) || v != deltas+1 {
		t.Fatalf("batch version %d, solve version %s, want %d", v, got, deltas+1)
	}
	if sr.Prob != answer(v) {
		t.Fatalf("solve at version %d: prob %q, want %q", v, sr.Prob, answer(v))
	}
}
