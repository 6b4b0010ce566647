package replay

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"phom/internal/gen"
)

// TestParseStreamCounts: result lines and done trailers are counted
// separately, blank lines are skipped, and a truncated stream shows as
// a missing trailer (fire then flags it); a line cut mid-JSON or of an
// unknown shape is an error.
func TestParseStreamCounts(t *testing.T) {
	for _, tc := range []struct {
		name            string
		body            string
		lines, trailers int
		wantErr         bool
	}{
		{"whole", "{\"index\":0}\n\n{\"index\":2}\n{\"index\":1}\n{\"done\":true}\n", 3, 1, false},
		{"truncated", "{\"index\":0}\n{\"index\":1}\n", 2, 0, false},
		{"cut mid-line", "{\"index\":0}\n{\"ind", 1, 0, true},
		{"unknown shape", "{\"index\":0}\n{\"prob\":\"1/2\"}\n", 1, 0, true},
		{"empty", "", 0, 0, false},
	} {
		lines, trailers, err := parseStream(strings.NewReader(tc.body))
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if lines != tc.lines || trailers != tc.trailers {
			t.Errorf("%s: %d lines, %d trailers; want %d, %d", tc.name, lines, trailers, tc.lines, tc.trailers)
		}
	}
}

// TestBuildRequestsDeterministic: the corpus and the request sequence
// are a function of the seed alone — the same seed gives byte-identical
// requests, another seed a different sequence.
func TestBuildRequestsDeterministic(t *testing.T) {
	build := func(seed int64) []request {
		t.Helper()
		opts := Options{Requests: 40, Seed: seed, Mix: Mix{Solve: 2, Reweight: 2, ReweightBatch: 1, Batch: 1, Stream: 1, Bad: 1, Hard: 1, Delta: 2}}
		r := rand.New(rand.NewSource(seed))
		corpus, err := BuildCorpus(r, gen.FamER, 16)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := buildRequests(r, opts, corpus)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != opts.Requests {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(reqs), opts.Requests)
		}
		return reqs
	}
	a, b := build(7), build(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed built different request sequences")
	}
	for i, rq := range a {
		if !json.Valid(rq.body) {
			t.Fatalf("request %d (%s): body is not JSON: %s", i, rq.kind, rq.body)
		}
	}
	if reflect.DeepEqual(a, build(8)) {
		t.Fatal("different seeds built the same request sequence")
	}
}

// TestRunCountsOffTaxonomy: a response status outside the server's
// taxonomy — here a 500 on every /reweight — is counted in OffTaxonomy
// and Unaccounted, while taxonomy responses are not.
func TestRunCountsOffTaxonomy(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Phom-Request-Id", r.Header.Get("X-Phom-Request-Id"))
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/reweight" {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"code":"internal","error":"boom"}`))
			return
		}
		w.Write([]byte(`{"prob":"1/2"}`))
	}))
	defer stub.Close()
	rep, err := Run(context.Background(), Options{
		BaseURL:     stub.URL,
		Requests:    30,
		Concurrency: 2,
		Seed:        3,
		Mix:         Mix{Solve: 1, Reweight: 1},
		N:           12,
		Client:      stub.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	reweights := rep.ByKind["reweight"]
	if reweights == 0 || rep.ByKind["solve"] == 0 {
		t.Fatalf("mix did not fire both kinds: %v", rep.ByKind)
	}
	if rep.Requests != 30 || rep.ByStatus[http.StatusOK] != rep.ByKind["solve"] {
		t.Fatalf("requests %d, by status %v, by kind %v", rep.Requests, rep.ByStatus, rep.ByKind)
	}
	if rep.ByStatus[http.StatusInternalServerError] != reweights || rep.OffTaxonomy != reweights {
		t.Fatalf("off-taxonomy %d, 500s %d; want %d each", rep.OffTaxonomy, rep.ByStatus[http.StatusInternalServerError], reweights)
	}
	if rep.BodyErrors != 0 || rep.Unaccounted() != reweights {
		t.Fatalf("body errors %d, unaccounted %d; want 0, %d", rep.BodyErrors, rep.Unaccounted(), reweights)
	}
	if len(rep.Failures) == 0 || !strings.Contains(rep.Failures[0], "outside taxonomy") {
		t.Fatalf("failures %q do not name the off-taxonomy status", rep.Failures)
	}
}

// TestParseMix: presets and kind:weight lists parse; malformed entries,
// bad weights, unknown kinds and an all-zero mix are errors.
func TestParseMix(t *testing.T) {
	for in, want := range map[string]Mix{
		"":                  DefaultMix,
		"default":           DefaultMix,
		"reweight-heavy":    ReweightHeavyMix,
		"delta":             DeltaMix,
		"solve:2, hard:1":   {Solve: 2, Hard: 1},
		"reweight_batch:3":  {ReweightBatch: 3},
		"stream:1,stream:4": {Stream: 4},
	} {
		got, err := ParseMix(in)
		if err != nil || got != want {
			t.Errorf("ParseMix(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{"solve", "solve:x", "solve:-1", "teleport:1", "solve:0,reweight:0", "solve:1,"} {
		if _, err := ParseMix(in); err == nil {
			t.Errorf("ParseMix(%q) accepted", in)
		}
	}
}
