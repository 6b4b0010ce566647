package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"phom/internal/engine"
)

// newUncachedEngineServer is a test server whose engine keeps no result
// memo, so every answer is evaluated from the job the server built,
// structure-cache hit or not.
func newUncachedEngineServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2, CacheSize: -1})
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(New(eng).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func health(t *testing.T, url string) HealthResponse {
	t.Helper()
	resp, body := getURL(t, url+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// stableResponse strips the fields of a response body that may differ
// between two sends of one request — timing, and which cache answered
// it — and re-encodes the rest canonically.
func stableResponse(t *testing.T, body []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	var strip func(any)
	strip = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for _, k := range []string{"elapsed_us", "cache_hit", "plan_hit", "stats"} {
				delete(x, k)
			}
			for _, e := range x {
				strip(e)
			}
		case []any:
			for _, e := range x {
				strip(e)
			}
		}
	}
	strip(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestStructCacheHitMatchesMiss: a repeated body is a structure-cache
// hit on every stateless path, and its answer, verdict included, is
// identical to the miss's.
func TestStructCacheHitMatchesMiss(t *testing.T) {
	ts := newUncachedEngineServer(t)
	solve := SolveRequest{QueryText: exampleQueryText, InstanceText: exampleInstanceText}
	ucq := SolveRequest{QueriesText: []string{tractableQueryText, "vertices 2\nedge 0 1 S\n"}, InstanceText: tractableInstanceText}
	reweight := reweightBody("2/9")
	lanes := ReweightRequest{
		SolveRequest: SolveRequest{QueryText: tractableQueryText, InstanceText: tractableInstanceText},
		ProbsBatch:   []map[string]string{{"0>1": "1/7"}, {"1>2": "5/6"}},
	}
	batch := BatchRequest{Jobs: []SolveRequest{solve, ucq, {QueryText: tractableQueryText, InstanceText: tractableInstanceText}}}
	cases := []struct {
		path string
		body any
		// misses is how many structures the first send parses.
		misses uint64
	}{
		{"/solve", solve, 1},
		{"/solve", ucq, 1},
		{"/reweight", reweight, 1},
		{"/reweight", lanes, 0},       // same structure as reweight
		{"/batch", batch, 0},          // every job's structure seen above
		{"/batch?stream=1", batch, 0}, // NDJSON lines in completion order
	}
	for _, c := range cases {
		before := health(t, ts.URL)
		resp1, miss := postJSON(t, ts.URL+c.path, c.body)
		resp2, hit := postJSON(t, ts.URL+c.path, c.body)
		if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d then %d: %s", c.path, resp1.StatusCode, resp2.StatusCode, hit)
		}
		after := health(t, ts.URL)
		if got := after.StructCacheMisses - before.StructCacheMisses; got != c.misses {
			t.Errorf("%s: %d structure-cache misses, want %d", c.path, got, c.misses)
		}
		if after.StructCacheHits <= before.StructCacheHits {
			t.Errorf("%s: the repeated body was not a structure-cache hit", c.path)
		}
		if c.path == "/batch?stream=1" {
			continue // line order is completion order; the plain /batch case pins the answers
		}
		if a, b := stableResponse(t, miss), stableResponse(t, hit); a != b {
			t.Errorf("%s: hit answer differs from the miss:\nmiss %s\nhit  %s", c.path, a, b)
		}
	}
	var sr SolveResponse
	_, body := postJSON(t, ts.URL+"/solve", solve)
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Prob != "287/500" || sr.Predicted == nil || sr.Predicted.Tractable {
		t.Errorf("Example 2.2 from a cached structure: %s", body)
	}
	if n := health(t, ts.URL).StructCacheLen; n != 3 {
		t.Errorf("struct_cache_len %d, want 3 structures", n)
	}
}

// TestStructCacheProbsOverrideIsolation: a /reweight with probs
// overrides answers for its own probabilities without touching the
// cached instance, so a later /solve of the same body still answers
// for the body's probabilities.
func TestStructCacheProbsOverrideIsolation(t *testing.T) {
	ts := newUncachedEngineServer(t)
	solve := SolveRequest{QueryText: tractableQueryText, InstanceText: tractableInstanceText}
	prob := func(path string, body any) string {
		t.Helper()
		resp, b := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, b)
		}
		var sr SolveResponse
		if err := json.Unmarshal(b, &sr); err != nil {
			t.Fatal(err)
		}
		return sr.Prob
	}
	base := prob("/solve", solve)
	over := prob("/reweight", reweightBody("0"))
	if over == base {
		t.Fatalf("override did not change the answer (%s)", base)
	}
	resp, b := postJSON(t, ts.URL+"/reweight", ReweightRequest{SolveRequest: solve,
		ProbsBatch: []map[string]string{{"0>1": "0"}, {"0>3": "1"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probs_batch: status %d: %s", resp.StatusCode, b)
	}
	if got := prob("/solve", solve); got != base {
		t.Fatalf("a reweight's probs reached the cached instance: /solve answers %s, want %s", got, base)
	}
	if h := health(t, ts.URL); h.StructCacheLen != 1 || h.StructCacheMisses != 1 {
		t.Errorf("want one cached structure from one miss, got len %d misses %d", h.StructCacheLen, h.StructCacheMisses)
	}
}

// TestStructCacheMalformedNotCached: a malformed body answers the same
// 400 on every send and is never cached, whichever part of it is bad.
func TestStructCacheMalformedNotCached(t *testing.T) {
	ts := newTestServer(t)
	bodies := []string{
		fmt.Sprintf(`{"query_text": %q, "instance_text": %q}`, tractableQueryText, "vertices 2\nedge 0 7 R\n"),
		fmt.Sprintf(`{"query_text": %q, "instance_text": %q}`, "vertices 2\nedge 0 1 R 1/2\n", tractableInstanceText),
		fmt.Sprintf(`{"query_text": %q, "instance_text": %q, "options": {"precision": "fats"}}`, tractableQueryText, tractableInstanceText),
		fmt.Sprintf(`{"query_text": %q, "instance_text": %q, "instance": {"vertices": 1}}`, tractableQueryText, tractableInstanceText),
		fmt.Sprintf(`{"query_text": %q, "instance_text": %q, "probs": {"0>1": "2", " 0>1": "1/2", "9>9": "x"}}`, tractableQueryText, tractableInstanceText),
	}
	for _, body := range bodies {
		for _, path := range []string{"/solve", "/reweight"} {
			if path == "/solve" && bytes.Contains([]byte(body), []byte(`"probs"`)) {
				continue
			}
			resp1, b1 := postRaw(t, ts.URL+path, body)
			resp2, b2 := postRaw(t, ts.URL+path, body)
			if resp1.StatusCode != http.StatusBadRequest || resp2.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d then %d, want 400 twice", path, body, resp1.StatusCode, resp2.StatusCode)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("%s %s: two sends answered differently:\n%s\n%s", path, body, b1, b2)
			}
		}
	}
	// The probs body's structure is well-formed: it alone is cached.
	if n := health(t, ts.URL).StructCacheLen; n != 1 {
		t.Errorf("struct_cache_len %d after malformed bodies, want 1 (the probs body's valid structure)", n)
	}
}

// TestStructCacheConcurrentReweights: 32 concurrent reweights of one
// structure, each with its own probabilities, answer exactly what the
// same requests answer one at a time on a fresh server (run under
// -race, this is the CloneProbs sharing check).
func TestStructCacheConcurrentReweights(t *testing.T) {
	ts := newUncachedEngineServer(t)
	ref := newUncachedEngineServer(t)
	const n = 32
	bodies := make([]ReweightRequest, n)
	for i := range bodies {
		bodies[i] = reweightBody(fmt.Sprintf("%d/%d", i, n))
		bodies[i].Probs["1>2"] = fmt.Sprintf("%d/%d", n-i, n+1)
	}
	got := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := json.Marshal(bodies[i])
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/reweight", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Error(err)
			}
			got[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := range bodies {
		_, want := postJSON(t, ref.URL+"/reweight", bodies[i])
		if a, b := stableResponse(t, got[i]), stableResponse(t, want); a != b {
			t.Errorf("reweight %d: concurrent answer %s, sequential %s", i, a, b)
		}
	}
	if h := health(t, ts.URL); h.StructCacheLen != 1 || h.StructCacheHits+h.StructCacheMisses != n {
		t.Errorf("want %d lookups of one structure, got hits %d misses %d len %d", n, h.StructCacheHits, h.StructCacheMisses, h.StructCacheLen)
	}
}
