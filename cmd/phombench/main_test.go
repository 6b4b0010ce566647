package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"phom/internal/benchrec"
)

// withBenchFlags shrinks the workload flags for test speed and restores
// them afterwards.
func withBenchFlags(t *testing.T) {
	t.Helper()
	oldMaxN, oldRW, oldBJ := *maxN, *reweights, *batchJobs
	*maxN, *reweights, *batchJobs = 256, 8, 16
	t.Cleanup(func() { *maxN, *reweights, *batchJobs = oldMaxN, oldRW, oldBJ })
}

// recordExperiment runs one registered experiment into a fresh recorder
// and returns its run.
func recordExperiment(t *testing.T, id string) *benchrec.Run {
	t.Helper()
	for _, def := range experiments() {
		if def.id != id {
			continue
		}
		rec := benchrec.NewRecorder(*seed, map[string]string{"maxn": "256"})
		rec.Begin(def.id, def.title)
		metrics := 0
		e := &E{id: def.id, r: rand.New(rand.NewSource(*seed)), rec: rec, metrics: &metrics}
		if err := runOne(def.fn, e); err != nil {
			t.Fatalf("%s failed: %v", id, err)
		}
		return rec.Runs()[0]
	}
	t.Fatalf("experiment %s not registered", id)
	return nil
}

// TestBenchRecordsDeterministic: the acceptance bar for the perf
// trajectory — two seeded runs of E20–E26 must produce byte-identical
// records once the volatile fields are normalized. E19 is excluded by
// design: its cache-hit/coalesce split is scheduling-dependent and its
// record only carries the stable dedup counter, but its wall-clock
// ordering is not worth pinning here.
func TestBenchRecordsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiment workloads")
	}
	withBenchFlags(t)
	for _, id := range []string{"E20", "E21", "E22", "E23", "E24", "E25", "E26"} {
		a := recordExperiment(t, id)
		b := recordExperiment(t, id)
		benchrec.Normalize(a)
		benchrec.Normalize(b)
		var ba, bb bytes.Buffer
		if err := benchrec.Encode(&ba, a); err != nil {
			t.Fatal(err)
		}
		if err := benchrec.Encode(&bb, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Errorf("%s: two seeded runs differ after normalization:\n--- a\n%s\n--- b\n%s",
				id, ba.Bytes(), bb.Bytes())
		}
	}
}

// TestRunOneIsolatesFailures: a failing assertion must surface as an
// error from runOne (so main can mark the experiment FAILED and exit
// nonzero after the rest have run), never kill the process, and never
// swallow a genuine panic.
func TestRunOneIsolatesFailures(t *testing.T) {
	metrics := 0
	e := &E{id: "EX", r: rand.New(rand.NewSource(1)),
		rec: benchrec.NewRecorder(1, nil), metrics: &metrics}
	e.rec.Begin("EX", "fixture")

	err := runOne(func(e *E) { e.fatalf("boom %d", 7) }, e)
	if err == nil || err.Error() != "boom 7" {
		t.Fatalf("fatalf not converted to error: %v", err)
	}
	sentinel := errors.New("sentinel")
	if err := runOne(func(e *E) { e.check(sentinel) }, e); !errors.Is(err, sentinel) {
		t.Fatalf("check not converted to error: %v", err)
	}
	if err := runOne(func(e *E) {}, e); err != nil {
		t.Fatalf("clean run reported %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-assertion panic was swallowed")
		}
	}()
	_ = runOne(func(e *E) { panic("genuine bug") }, e)
}

// TestExperimentRegistry: ids are unique and E1–E26 are all present —
// the -run filter silently matches nothing otherwise.
func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, def := range experiments() {
		if seen[def.id] {
			t.Errorf("duplicate experiment id %s", def.id)
		}
		seen[def.id] = true
		if def.title == "" || def.fn == nil {
			t.Errorf("experiment %s is missing a title or function", def.id)
		}
	}
	for i := 1; i <= 26; i++ {
		if id := fmt.Sprintf("E%d", i); !seen[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

// TestRunDiffExitCode: -diff exits non-zero exactly when two records
// differ in their stable tier. A self-diff and a timing-only delta exit
// 0; a pair differing in one counter exits 1.
func TestRunDiffExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, plans, elapsed int64) string {
		t.Helper()
		rec := benchrec.NewRecorder(1, map[string]string{"maxn": "64"})
		rec.Begin("E99", "diff fixture")
		rec.Add("E99", benchrec.Metric{
			Name:      "fixture",
			Value:     "match=true",
			Counters:  map[string]int64{"plan_hits": plans},
			ElapsedUS: elapsed,
		})
		var buf bytes.Buffer
		if err := benchrec.Encode(&buf, rec.Runs()[0]); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 16, 100)
	slower := write("slower.json", 16, 250)
	counter := write("counter.json", 12, 100)
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"self", []string{a, a}, 0},
		{"timing only", []string{a, slower}, 0},
		{"counter", []string{a, counter}, 1},
		{"usage", []string{a}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if got := runDiff(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: exit %d, want %d\nstdout:\n%sstderr:\n%s", tc.name, got, tc.want, stdout.String(), stderr.String())
		}
	}
}
