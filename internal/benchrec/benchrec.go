// Package benchrec persists experiment measurements as machine-readable
// BENCH_<experiment>.json records, so the performance trajectory of the
// repository is diffable across PRs instead of living only in
// phombench's human-readable tables.
//
// The schema separates stable fields from volatile ones. Stable fields
// (experiment id, seed, workload params, metric names, outcome values,
// counters) must be a pure function of the seed and flags: two runs of
// the same binary with the same seed produce byte-identical records
// after Normalize. Volatile fields (timestamp, go version, elapsed_us,
// ops_per_sec, speedup) carry the actual measurements and are the only
// fields Normalize clears — a golden-file test over a normalized record
// therefore catches schema drift without flaking on timings.
package benchrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump it on any
// field change and update the golden file in the same commit — the
// comparator refuses to diff records of different versions.
const SchemaVersion = 1

// Run is one experiment's persisted record.
type Run struct {
	SchemaVersion int    `json:"schema_version"`
	Experiment    string `json:"experiment"`
	Title         string `json:"title"`
	// Seed and Params are the workload coordinates: the record of what
	// was measured, stable across runs with the same flags.
	Seed   int64             `json:"seed"`
	Params map[string]string `json:"params,omitempty"`
	// GoVersion and Timestamp are provenance, volatile by nature.
	GoVersion string   `json:"go_version"`
	Timestamp string   `json:"timestamp"` // RFC 3339
	Metrics   []Metric `json:"metrics"`
}

// Metric is one measured line of an experiment.
type Metric struct {
	// Name identifies the measurement within the experiment
	// ("2WP (Prop 4.11) n=1024 eval x64"); stable.
	Name string `json:"name"`
	// Value is the stable outcome — correctness assertions and
	// deterministic counts ("match=true plan_hits=64/64"). Never put a
	// timing-derived quantity here; that is what the volatile fields
	// are for.
	Value string `json:"value,omitempty"`
	// Counters hold stable named counts (cache hits, fallbacks,
	// instance sizes) that diffing should track numerically.
	Counters map[string]int64 `json:"counters,omitempty"`
	// ElapsedUS, OpsPerSec and Speedup are the volatile measurements.
	ElapsedUS int64   `json:"elapsed_us"`
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
}

// FileName returns the canonical file name for an experiment's record.
func FileName(experiment string) string {
	return "BENCH_" + experiment + ".json"
}

// Normalize clears the volatile fields of r in place (timestamp, go
// version, and every metric's elapsed/ops/speedup), leaving exactly the
// fields that must be byte-identical across two seeded runs.
func Normalize(r *Run) {
	r.GoVersion = ""
	r.Timestamp = ""
	for i := range r.Metrics {
		r.Metrics[i].ElapsedUS = 0
		r.Metrics[i].OpsPerSec = 0
		r.Metrics[i].Speedup = 0
	}
}

// Encode writes r as indented JSON with a trailing newline — the exact
// bytes of a BENCH_*.json file.
func Encode(w io.Writer, r *Run) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Decode reads a record, rejecting unknown fields so that readers and
// writers cannot drift silently.
func Decode(rd io.Reader) (*Run, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r Run
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("benchrec: schema version %d, this binary reads %d", r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// Load reads one BENCH_*.json file.
func Load(path string) (*Run, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := Decode(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Recorder accumulates runs for many experiments during one phombench
// invocation and writes one file per experiment.
type Recorder struct {
	seed   int64
	params map[string]string
	runs   map[string]*Run
	order  []string
}

// NewRecorder returns a recorder stamping every run with the given seed
// and workload params.
func NewRecorder(seed int64, params map[string]string) *Recorder {
	return &Recorder{seed: seed, params: params, runs: map[string]*Run{}}
}

// Begin opens the record for an experiment; metrics added for that
// experiment land in it. Calling Begin twice for the same id keeps the
// first record.
func (rc *Recorder) Begin(experiment, title string) {
	if _, ok := rc.runs[experiment]; ok {
		return
	}
	rc.runs[experiment] = &Run{
		SchemaVersion: SchemaVersion,
		Experiment:    experiment,
		Title:         title,
		Seed:          rc.seed,
		Params:        rc.params,
		GoVersion:     runtime.Version(),
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
	}
	rc.order = append(rc.order, experiment)
}

// Add appends a metric to an experiment's record; the experiment must
// have been opened with Begin.
func (rc *Recorder) Add(experiment string, m Metric) {
	run, ok := rc.runs[experiment]
	if !ok {
		panic("benchrec: Add before Begin for " + experiment)
	}
	run.Metrics = append(run.Metrics, m)
}

// Runs returns the accumulated records in Begin order.
func (rc *Recorder) Runs() []*Run {
	out := make([]*Run, 0, len(rc.order))
	for _, id := range rc.order {
		out = append(out, rc.runs[id])
	}
	return out
}

// WriteDir writes one BENCH_<experiment>.json per recorded experiment
// into dir (created if missing) and returns the paths written.
func (rc *Recorder) WriteDir(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, run := range rc.Runs() {
		path := filepath.Join(dir, FileName(run.Experiment))
		var buf bytes.Buffer
		if err := Encode(&buf, run); err != nil {
			return paths, err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// Delta is one per-metric difference between two records.
type Delta struct {
	Name string
	// Kind is "value", "counter", "timing", "only-in-a" or "only-in-b".
	Kind string
	A, B string
}

// Stable reports whether the delta is in a record's stable tier: every
// kind but timing, which is advisory (wall clock varies run to run).
func (d Delta) Stable() bool { return d.Kind != "timing" }

// Diff compares two records metric by metric (matched by Name):
// stable-value and counter changes, relative timing deltas, and
// metrics present on only one side. Diffing records of different
// schema versions is refused by Load/Decode before this is reached.
func Diff(a, b *Run) []Delta {
	var out []Delta
	bByName := map[string]Metric{}
	for _, m := range b.Metrics {
		bByName[m.Name] = m
	}
	aSeen := map[string]bool{}
	for _, ma := range a.Metrics {
		aSeen[ma.Name] = true
		mb, ok := bByName[ma.Name]
		if !ok {
			out = append(out, Delta{Name: ma.Name, Kind: "only-in-a"})
			continue
		}
		if ma.Value != mb.Value {
			out = append(out, Delta{Name: ma.Name, Kind: "value", A: ma.Value, B: mb.Value})
		}
		keys := map[string]bool{}
		for k := range ma.Counters {
			keys[k] = true
		}
		for k := range mb.Counters {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			if ma.Counters[k] != mb.Counters[k] {
				out = append(out, Delta{
					Name: ma.Name, Kind: "counter",
					A: fmt.Sprintf("%s=%d", k, ma.Counters[k]),
					B: fmt.Sprintf("%s=%d", k, mb.Counters[k]),
				})
			}
		}
		if ma.ElapsedUS > 0 && mb.ElapsedUS > 0 {
			ratio := float64(mb.ElapsedUS) / float64(ma.ElapsedUS)
			out = append(out, Delta{
				Name: ma.Name, Kind: "timing",
				A: fmt.Sprintf("%dus", ma.ElapsedUS),
				B: fmt.Sprintf("%dus (×%.2f)", mb.ElapsedUS, ratio),
			})
		}
	}
	for _, mb := range b.Metrics {
		if !aSeen[mb.Name] {
			out = append(out, Delta{Name: mb.Name, Kind: "only-in-b"})
		}
	}
	return out
}

// FormatDiff renders Diff(a, b) as an aligned human-readable report.
func FormatDiff(w io.Writer, a, b *Run) error {
	if _, err := fmt.Fprintf(w, "%s: %s → %s\n", a.Experiment, a.Timestamp, b.Timestamp); err != nil {
		return err
	}
	deltas := Diff(a, b)
	if len(deltas) == 0 {
		_, err := fmt.Fprintln(w, "  no differences")
		return err
	}
	for _, d := range deltas {
		var err error
		switch d.Kind {
		case "only-in-a", "only-in-b":
			_, err = fmt.Fprintf(w, "  %-10s %s\n", d.Kind, d.Name)
		default:
			_, err = fmt.Fprintf(w, "  %-10s %-40s %s → %s\n", d.Kind, d.Name, d.A, d.B)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
