package graphio

import (
	"bytes"
	"context"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"phom/internal/graph"
	"phom/internal/plan"
)

// buildTestProgram lowers a small Components-of-Consts plan plus a
// loaded edge, exercising every opcode.
func buildTestProgram(t *testing.T) *plan.Program {
	t.Helper()
	b := plan.NewBuilder(3)
	p0 := b.Load(0)
	om := b.OneMinus(p0)
	c := b.Const(big.NewRat(2, 7))
	m := b.Mul(om, c)
	p2 := b.Load(2)
	out := b.Add(m, p2)
	prog, err := b.Finish(out)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func testRecord(t *testing.T) *PlanRecord {
	t.Helper()
	return &PlanRecord{
		StructKey:  strings.Repeat("ab", 32),
		Method:     3,
		CanonOrder: []int{2, 0, 1},
		Program:    buildTestProgram(t),
	}
}

func TestPlanRecordRoundTrip(t *testing.T) {
	rec := testRecord(t)
	data, err := AppendPlanRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePlanRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.StructKey != rec.StructKey || got.Method != rec.Method {
		t.Fatalf("identity changed: %+v", got)
	}
	for i, ei := range rec.CanonOrder {
		if got.CanonOrder[i] != ei {
			t.Fatalf("canonical order changed at %d", i)
		}
	}
	probs := []*big.Rat{graph.Rat("1/2"), graph.Rat("1/3"), graph.Rat("1/5")}
	want, err := rec.Program.ExecCtx(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Program.ExecCtx(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	if want.RatString() != have.RatString() {
		t.Fatalf("decoded program diverged: %s vs %s", have.RatString(), want.RatString())
	}
	// Canonical: re-encoding is byte-identical.
	again, err := AppendPlanRecord(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding changed bytes")
	}
}

func TestAppendPlanRecordRejectsMalformed(t *testing.T) {
	good := testRecord(t)
	cases := []struct {
		name   string
		mutate func(*PlanRecord)
	}{
		{"no program", func(r *PlanRecord) { r.Program = nil }},
		{"empty struct key", func(r *PlanRecord) { r.StructKey = "" }},
		{"oversized struct key", func(r *PlanRecord) { r.StructKey = strings.Repeat("x", maxStructKey+1) }},
		{"order length mismatch", func(r *PlanRecord) { r.CanonOrder = []int{0} }},
		{"order out of range", func(r *PlanRecord) { r.CanonOrder = []int{0, 1, 9} }},
		{"invalid program", func(r *PlanRecord) {
			r.Program = &plan.Program{NumEdges: 3, NumRegs: 1, Ops: []plan.Op{{Code: 99}}}
		}},
	}
	for _, tc := range cases {
		rec := *good
		rec.CanonOrder = append([]int(nil), good.CanonOrder...)
		tc.mutate(&rec)
		if _, err := AppendPlanRecord(nil, &rec); err == nil {
			t.Errorf("%s: encoded a malformed record", tc.name)
		}
	}
}

func TestDecodePlanRecordRejectsCorruption(t *testing.T) {
	data, err := AppendPlanRecord(nil, testRecord(t))
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix length must error, never panic.
	for i := 0; i < len(data); i++ {
		if _, err := DecodePlanRecord(data[:i]); err == nil {
			t.Fatalf("accepted a %d-byte truncation", i)
		}
	}
	// Trailing garbage is rejected (the record is self-delimiting).
	if _, err := DecodePlanRecord(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
	// Every single-byte flip either errors or round-trips to a valid
	// record; it must never panic (the fuzz target expands on this).
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		rec, err := DecodePlanRecord(mut)
		if err != nil {
			continue
		}
		if _, err := AppendPlanRecord(nil, rec); err != nil {
			t.Fatalf("flip at %d decoded to an unencodable record: %v", i, err)
		}
	}
}

func TestPlanSnapshotRoundTrip(t *testing.T) {
	rec := testRecord(t)
	one, err := AppendPlanRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlanSnapshot(&buf, [][]byte{one, one, one}); err != nil {
		t.Fatal(err)
	}
	var got int
	err = ReadPlanSnapshot(&buf, func(b []byte) error {
		if !bytes.Equal(b, one) {
			t.Fatal("record changed inside the snapshot")
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("read %d records, wrote 3", got)
	}
	// Empty snapshots are valid.
	buf.Reset()
	if err := WritePlanSnapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := ReadPlanSnapshot(&buf, func([]byte) error { t.Fatal("record in empty snapshot"); return nil }); err != nil {
		t.Fatal(err)
	}
	// Bad magic and truncated records error out.
	if err := ReadPlanSnapshot(strings.NewReader("phomsnapX"), func([]byte) error { return nil }); err == nil {
		t.Fatal("accepted a bad snapshot magic")
	}
	var trunc bytes.Buffer
	if err := WritePlanSnapshot(&trunc, [][]byte{one}); err != nil {
		t.Fatal(err)
	}
	short := trunc.Bytes()[:trunc.Len()-3]
	if err := ReadPlanSnapshot(bytes.NewReader(short), func([]byte) error { return nil }); err == nil {
		t.Fatal("accepted a truncated snapshot")
	}
}

// TestStructKeyJobMatchesJobKeys pins the invariant the warm-start path
// depends on: the structure key core stamps on compiled plans
// (StructKeyJob) is the key the engine derives for the same job
// (JobKeys), for any edge insertion order.
func TestStructKeyJobMatchesJobKeys(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(6)
		g := graph.New(n)
		type edge struct{ from, to int }
		var edges []edge
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from != to && r.Intn(2) == 0 {
					edges = append(edges, edge{from, to})
				}
			}
		}
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, e := range edges {
			g.MustAddEdge(graph.Vertex(e.from), graph.Vertex(e.to), "R")
		}
		p := graph.NewProbGraph(g)
		for i := 0; i < g.NumEdges(); i++ {
			if err := p.SetProb(i, big.NewRat(int64(1+r.Intn(16)), 17)); err != nil {
				t.Fatal(err)
			}
		}
		queryCanon := []string{"g;n=2;0>1:\"R\""}
		fp := "brute=20;match=65536;nofallback=false"
		// JobKeys takes the full result fingerprint and the structure
		// fingerprint separately; the structure hash consumes only the
		// latter, which is what StructKeyJob must match.
		_, structKey, order := JobKeys(queryCanon, p, fp+";prec=fast;tol=-", fp)
		gotKey, gotOrder := StructKeyJob(queryCanon, g, fp)
		if gotKey != structKey {
			t.Fatalf("trial %d: StructKeyJob %s, JobKeys %s", trial, gotKey, structKey)
		}
		for i := range order {
			if order[i] != gotOrder[i] {
				t.Fatalf("trial %d: canonical orders diverge at %d", trial, i)
			}
		}
	}
}
