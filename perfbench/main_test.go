package main

import (
	"bytes"
	"context"
	"regexp"
	"testing"
)

// TestWorkloadsEndToEnd runs every workload at small scale, untraced and
// traced, and checks that each run is correct and reports every metric
// with its unit.
func TestWorkloadsEndToEnd(t *testing.T) {
	e2e := map[string]string{
		"throughput_rps": "1/s", "answers_per_s": "1/s", "latency_p50_ms": "ms",
		"latency_p99_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
	}
	layers := map[string]string{}
	for _, pl := range perLayer {
		layers[pl.name] = pl.unit
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 1, trace: trace, clients: 2, sc: smallScale, spans: t.TempDir()}
			var out bytes.Buffer
			res, err := run(context.Background(), cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := e2e
			if trace {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
			}
		}
	}
}

// TestDeterminism checks that a seed fixes the corpus and the answers,
// and that another seed changes the corpus.
func TestDeterminism(t *testing.T) {
	answers := regexp.MustCompile(`answers_digest=(\w+)`)
	for _, name := range workloadNames {
		digest := func(seed int64) string {
			w, err := newWorkload(name, seed, smallScale, 2)
			if err != nil {
				t.Fatal(err)
			}
			return w.digest()
		}
		if a, b := digest(1), digest(1); a != b {
			t.Errorf("%s: seed 1 gave corpus digests %s and %s", name, a, b)
		}
		if a, b := digest(1), digest(2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same corpus digest %s", name, a)
		}
		var got []string
		for k := 0; k < 2; k++ {
			var out bytes.Buffer
			cfg := config{workload: name, seed: 5, seconds: 1, clients: 1, sc: smallScale}
			if _, err := run(context.Background(), cfg, &out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			m := answers.FindStringSubmatch(out.String())
			if m == nil {
				t.Fatalf("%s: no answers digest in\n%s", name, out.String())
			}
			got = append(got, m[1])
		}
		if got[0] != got[1] {
			t.Errorf("%s: seed 5 gave answer digests %s and %s", name, got[0], got[1])
		}
	}
}
