package graphio

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"phom/internal/graph"
	"phom/internal/plan"
)

// checkProbs fails t unless the parsed pg has one probability per edge,
// each in [0, 1].
func checkProbs(t *testing.T, pg *graph.ProbGraph) {
	t.Helper()
	if err := pg.Validate(); err != nil {
		t.Fatalf("parser accepted a mis-shaped probabilistic graph: %v", err)
	}
	for i := 0; i < pg.G.NumEdges(); i++ {
		if r := pg.Prob(i); r.Sign() < 0 || r.Cmp(graph.RatOne) > 0 {
			t.Fatalf("parser accepted probability %s on edge %d", r.RatString(), i)
		}
	}
}

// FuzzParseProbGraph: the text parser must never panic — malformed input
// errors cleanly — and accepted input must round-trip through
// WriteProbGraph with a stable canonical form.
func FuzzParseProbGraph(f *testing.F) {
	f.Add("vertices 4\nedge 0 1 R 1/2\nedge 1 2 S\nedge 2 3 S 0.25\n")
	f.Add("vertices 1\n")
	f.Add("# comment\nvertices 2\nedge 0 1 _ 1\n")
	f.Add("vertices 2\nedge 0 1 R 3/2\n")    // probability out of range
	f.Add("vertices 2\nedge 1 7 R\n")        // endpoint out of range
	f.Add("vertices 2\nedge 0 1 R 1e999\n")  // huge exponent
	f.Add("vertices 999999999\n")            // huge vertex count
	f.Add("edge 0 1 R\n")                    // edge before vertices
	f.Add("vertices 2\nvertices 2\n")        // duplicate directive
	f.Add("vertices two\n")                  // malformed count
	f.Add("vertices 3\nedge 0 1 R .5e-2\n")  // exponent form
	f.Add("vertices 2\nedge 0 1 \"R S\"\n")  // quote in label token
	f.Add("vertices 2\nedge 0 1 R 0.5 junk") // arity error
	f.Fuzz(func(t *testing.T, data string) {
		pg, err := ParseProbGraph(strings.NewReader(data))
		// ParseGraph shares the scanner; it must be panic-free as well.
		_, _ = ParseGraph(strings.NewReader(data))
		if err != nil {
			return
		}
		checkProbs(t, pg)
		var buf bytes.Buffer
		if err := WriteProbGraph(&buf, pg); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		pg2, err := ParseProbGraph(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round-trip re-parse failed: %v\ninput: %q", err, buf.String())
		}
		if CanonicalProbGraph(pg) != CanonicalProbGraph(pg2) {
			t.Fatalf("round-trip changed the canonical form:\n%s\nvs\n%s",
				CanonicalProbGraph(pg), CanonicalProbGraph(pg2))
		}
		if CanonicalGraph(pg.G) != CanonicalGraph(pg2.G) {
			t.Fatalf("round-trip changed the structural canonical form")
		}
	})
}

// FuzzDecodePlanRecord: the plan decoder must never panic or demand
// unbounded memory on corrupt snapshots — malformed records error
// cleanly — and accepted records must re-encode canonically (decode ∘
// encode ∘ decode is the identity), execute without panicking, and
// replay every part of their part table without panicking.
func FuzzDecodePlanRecord(f *testing.F) {
	// Seed with well-formed version-1 and version-2 records and some
	// near-misses.
	b := plan.NewBuilder(context.Background(), 2)
	p0 := b.Load(0)
	om := b.OneMinus(p0)
	p1 := b.Load(1)
	m := b.Mul(om, p1)
	c := b.Const(big.NewRat(1, 3))
	out := b.Add(m, c)
	prog, err := b.Finish(out)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := AppendPlanRecord(nil, &PlanRecord{
		StructKey:  strings.Repeat("f0", 32),
		Method:     2,
		CanonOrder: []int{1, 0},
		Program:    prog,
	})
	if err != nil {
		f.Fatal(err)
	}
	// A three-component composite: π0, an isolated vertex (its factor
	// folds to 1), π1 — so the part table is [op, FoldedPart, op].
	b = plan.NewBuilder(context.Background(), 2)
	parts := []func() uint32{func() uint32 { return b.Load(0) }, b.Zero, func() uint32 { return b.Load(1) }}
	out, factors, err := plan.Compose(b, len(parts), func(i int) (uint32, error) { return parts[i](), nil })
	if err != nil {
		f.Fatal(err)
	}
	prog, table, err := b.FinishParts(out, factors)
	if err != nil || len(table) != 3 || table[1] != plan.FoldedPart {
		f.Fatalf("composite seed: part table %v, err %v", table, err)
	}
	seed2, err := AppendPlanRecord(nil, &PlanRecord{
		StructKey:  strings.Repeat("e1", 32),
		Method:     1,
		CanonOrder: []int{0, 1},
		Program:    prog,
		Parts:      table,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed2)
	f.Add(seed[:len(seed)/2])
	f.Add(seed2[:len(seed2)-1])
	f.Add([]byte("phomplan"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodePlanRecord(data)
		if err != nil {
			return
		}
		// Accepted records are valid by contract: re-encoding must
		// succeed and be stable, and the program must execute.
		enc, err := AppendPlanRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		rec2, err := DecodePlanRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		enc2, err := AppendPlanRecord(nil, rec2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("round trip is not stable")
		}
		probs := make([]*big.Rat, rec.Program.NumEdges)
		for i := range probs {
			probs[i] = big.NewRat(1, 2)
		}
		if _, err := rec.Program.ExecCtx(context.Background(), probs); err != nil {
			t.Fatalf("validated program failed to execute: %v", err)
		}
		for _, k := range rec.Parts {
			if k == plan.FoldedPart {
				continue
			}
			b := plan.NewBuilder(context.Background(), rec.Program.NumEdges)
			f, ok := plan.NewReplayer(rec.Program, b).Replay(k, func(e int) (int, bool) { return e, true })
			if !ok {
				t.Fatalf("part at op %d refused an identity replay", k)
			}
			if _, err := b.Finish(f); err != nil {
				t.Fatalf("part at op %d replays to an invalid program: %v", k, err)
			}
		}
	})
}

// FuzzUnmarshalProbGraphJSON: the JSON parser must never panic, and
// accepted graphs must round-trip through MarshalProbGraphJSON with the
// same canonical form.
func FuzzUnmarshalProbGraphJSON(f *testing.F) {
	f.Add([]byte(`{"vertices": 3, "edges": [{"from":0,"to":1,"label":"R","prob":"1/2"},{"from":1,"to":2,"label":"S"}]}`))
	f.Add([]byte(`{"vertices": 0, "edges": []}`))
	f.Add([]byte(`{"vertices": 2, "edges": [{"from":0,"to":9,"label":"R"}]}`))
	f.Add([]byte(`{"vertices": 2, "edges": [{"from":0,"to":1,"label":"R","prob":"1e99999"}]}`))
	f.Add([]byte(`{"vertices": 2000000000}`))
	f.Add([]byte(`{"vertices": 2, "edges": [{"from":0,"to":1,"label":"R"},{"from":0,"to":1,"label":"S"}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		pg, err := UnmarshalProbGraphJSON(data)
		if err != nil {
			return
		}
		checkProbs(t, pg)
		out, err := MarshalProbGraphJSON(pg)
		if err != nil {
			t.Fatalf("marshal-back failed: %v", err)
		}
		pg2, err := UnmarshalProbGraphJSON(out)
		if err != nil {
			t.Fatalf("round-trip re-parse failed: %v\njson: %s", err, out)
		}
		if CanonicalProbGraph(pg) != CanonicalProbGraph(pg2) {
			t.Fatalf("JSON round-trip changed the canonical form")
		}
	})
}

// TestParseCanonicalizeInsertionOrderStable: parsing the same edge set
// listed in different orders yields identical canonical forms, identical
// StructKeys, and canonical edge orders that point at matching edges.
func TestParseCanonicalizeInsertionOrderStable(t *testing.T) {
	a := "vertices 4\nedge 0 1 R 1/2\nedge 1 2 S\nedge 2 3 S 1/4\n"
	b := "vertices 4\nedge 2 3 S 1/4\nedge 0 1 R 1/2\nedge 1 2 S\n"
	pa, err := ParseProbGraph(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := ParseProbGraph(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if CanonicalProbGraph(pa) != CanonicalProbGraph(pb) {
		t.Error("canonical prob form depends on insertion order")
	}
	if CanonicalGraph(pa.G) != CanonicalGraph(pb.G) {
		t.Error("canonical structural form depends on insertion order")
	}
	ka := StructKey([]string{"q"}, CanonicalGraph(pa.G), "o")
	kb := StructKey([]string{"q"}, CanonicalGraph(pb.G), "o")
	if ka != kb {
		t.Error("StructKey depends on insertion order")
	}
	oa, ob := CanonicalEdgeOrder(pa.G), CanonicalEdgeOrder(pb.G)
	if len(oa) != len(ob) {
		t.Fatal("canonical edge orders differ in length")
	}
	for k := range oa {
		ea, eb := pa.G.Edge(oa[k]), pb.G.Edge(ob[k])
		if ea != eb {
			t.Errorf("canonical rank %d: %v vs %v", k, ea, eb)
		}
		if pa.Prob(oa[k]).Cmp(pb.Prob(ob[k])) != 0 {
			t.Errorf("canonical rank %d: probabilities diverge", k)
		}
	}
}

func TestStructKeyStripsProbabilities(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, "R")
	g.MustAddEdge(1, 2, "S")
	h1 := graph.NewProbGraph(g.Clone())
	h1.MustSetEdgeProb(0, 1, graph.Rat("1/2"))
	h2 := graph.NewProbGraph(g.Clone())
	h2.MustSetEdgeProb(1, 2, graph.Rat("1/3"))
	qc := []string{CanonicalGraph(graph.Path1WP("R"))}
	if JobKey(qc, CanonicalProbGraph(h1), "o") == JobKey(qc, CanonicalProbGraph(h2), "o") {
		t.Error("JobKey must distinguish probability assignments")
	}
	k1 := StructKey(qc, CanonicalGraph(h1.G), "o")
	k2 := StructKey(qc, CanonicalGraph(h2.G), "o")
	if k1 != k2 {
		t.Error("StructKey must ignore probability assignments")
	}
	if k1 == JobKey(qc, CanonicalGraph(h1.G), "o") {
		t.Error("StructKey and JobKey must live in disjoint domains")
	}
	other := StructKey(qc, CanonicalGraph(graph.Path1WP("R", "S", "S")), "o")
	if k1 == other {
		t.Error("StructKey must distinguish structures")
	}
	if StructKey(qc, CanonicalGraph(h1.G), "o'") == k1 {
		t.Error("StructKey must incorporate the options fingerprint")
	}
}

func TestParserResourceCaps(t *testing.T) {
	if _, err := ParseProbGraph(strings.NewReader("vertices 99999999\n")); err == nil {
		t.Error("text parser accepted an absurd vertex count")
	}
	if _, err := UnmarshalProbGraphJSON([]byte(`{"vertices": 99999999}`)); err == nil {
		t.Error("JSON parser accepted an absurd vertex count")
	}
	if _, err := ParseProbGraph(strings.NewReader("vertices 2\nedge 0 1 R 1e99999\n")); err == nil {
		t.Error("text parser accepted a huge exponent")
	}
	if _, err := ParseRat("0." + strings.Repeat("1", 5000)); err == nil {
		t.Error("ParseRat accepted an oversized token")
	}
	if p, err := ParseRat("2.5e-3"); err != nil || p.Cmp(graph.Rat("1/400")) != 0 {
		t.Errorf("ParseRat rejected a legitimate exponent form: %v %v", p, err)
	}
}

// TestJobKeysMatchesReferenceEquivalence: JobKeys (the engine's
// streamed one-pass hashing) and the string-based JobKey/StructKey
// reference forms hash different byte streams, so their VALUES differ —
// but they must induce the same equivalence on jobs: equal under one
// scheme iff equal under the other. This pins the property that makes
// having two schemes safe as long as a cache uses one consistently.
func TestJobKeysMatchesReferenceEquivalence(t *testing.T) {
	build := func(order []int, probs map[int]string) *graph.ProbGraph {
		g := graph.New(4)
		edges := [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}}
		labels := []graph.Label{"R", "S", "S"}
		for _, i := range order {
			g.MustAddEdge(edges[i][0], edges[i][1], labels[i])
		}
		pg := graph.NewProbGraph(g)
		for i, p := range probs {
			pg.MustSetEdgeProb(edges[i][0], edges[i][1], graph.Rat(p))
		}
		return pg
	}
	qc := []string{CanonicalGraph(graph.Path1WP("R"))}
	cases := []*graph.ProbGraph{
		build([]int{0, 1, 2}, map[int]string{1: "1/2"}),
		build([]int{2, 0, 1}, map[int]string{1: "0.5"}), // same job, permuted + decimal
		build([]int{0, 1, 2}, map[int]string{1: "1/3"}), // same structure, other probs
		build([]int{0, 1, 2}, map[int]string{2: "1/2"}), // other structure? no — same edges, prob moved
	}
	for i, a := range cases {
		for j, b := range cases {
			refJob := JobKey(qc, CanonicalProbGraph(a), "o") == JobKey(qc, CanonicalProbGraph(b), "o")
			refStruct := StructKey(qc, CanonicalGraph(a.G), "o") == StructKey(qc, CanonicalGraph(b.G), "o")
			ja, sa, _ := JobKeys(qc, a, "o", "o")
			jb, sb, _ := JobKeys(qc, b, "o", "o")
			if (ja == jb) != refJob {
				t.Errorf("cases %d,%d: job-key equivalence diverges (streamed %v, reference %v)", i, j, ja == jb, refJob)
			}
			if (sa == sb) != refStruct {
				t.Errorf("cases %d,%d: struct-key equivalence diverges (streamed %v, reference %v)", i, j, sa == sb, refStruct)
			}
		}
	}
}

// FuzzJobKeysEquivalence: on random small labeled graphs, JobKeys and a
// Keyer's Key agree, and keys are equal exactly when the string
// references are: job keys when JobKey over CanonicalProbGraph is,
// structure keys when StructKey over CanonicalGraph is. Each draw builds
// one job twice — edges inserted in two random orders, probabilities
// spelled as fractions and as decimals — beside a CloneProbs lane keyed
// by the first copy's Keyer and a variant that moves one probability,
// label, edge or vertex.
func FuzzJobKeysEquivalence(f *testing.F) {
	for v := uint8(0); v < 4; v++ {
		f.Add(int64(v), uint8(4), v)
	}
	f.Add(int64(9), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, size, variant uint8) {
		r := rand.New(rand.NewSource(seed))
		type edge struct {
			from, to graph.Vertex
			label    graph.Label
			num, den int64
		}
		dens := []int64{1, 2, 4, 5, 8, 10, 16, 20, 25, 40}
		prob := func() (int64, int64) {
			d := dens[r.Intn(len(dens))]
			return r.Int63n(d + 1), d
		}
		n := 1 + int(size%5)
		var edges []edge
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if r.Intn(3) == 0 {
					num, den := prob()
					edges = append(edges, edge{graph.Vertex(u), graph.Vertex(v), []graph.Label{"R", "S"}[r.Intn(2)], num, den})
				}
			}
		}
		build := func(n int, edges []edge, decimal bool) *graph.ProbGraph {
			g := graph.New(n)
			perm := r.Perm(len(edges))
			for _, i := range perm {
				g.MustAddEdge(edges[i].from, edges[i].to, edges[i].label)
			}
			p := graph.NewProbGraph(g)
			for _, i := range perm {
				e := edges[i]
				s := fmt.Sprintf("%d/%d", e.num, e.den)
				if decimal {
					s = big.NewRat(e.num, e.den).FloatString(6)
				}
				q, err := ParseRat(s)
				if err != nil {
					t.Fatalf("ParseRat(%q): %v", s, err)
				}
				p.MustSetEdgeProb(e.from, e.to, q)
			}
			return p
		}
		a, twin := build(n, edges, false), build(n, edges, true)
		lane := a.CloneProbs()
		for i := 0; i < lane.G.NumEdges(); i++ {
			if r.Intn(2) == 0 {
				num, den := prob()
				if err := lane.SetProb(i, big.NewRat(num, den)); err != nil {
					t.Fatal(err)
				}
			}
		}
		vn, ve := n, append([]edge(nil), edges...)
		if len(ve) == 0 || variant%4 == 3 {
			vn++
		} else {
			i := r.Intn(len(ve))
			switch variant % 4 {
			case 0:
				ve[i].num, ve[i].den = prob()
			case 1:
				ve[i].label += "'"
			case 2:
				ve = append(ve[:i], ve[i+1:]...)
			}
		}
		jobs := []*graph.ProbGraph{a, twin, lane, build(vn, ve, r.Intn(2) == 0)}

		qc := []string{CanonicalGraph(graph.Path1WP("R"))}
		const fp, sfp = "fp", "sfp"
		ka := NewKeyer(qc, a.G, sfp)
		jk := make([]string, len(jobs))
		sk := make([]string, len(jobs))
		for i, p := range jobs {
			jk[i], sk[i], _ = JobKeys(qc, p, fp, sfp)
			k := ka
			if p.G != a.G {
				k = NewKeyer(qc, p.G, sfp)
			}
			if got := k.Key(p, fp); got != jk[i] || k.StructKey() != sk[i] {
				t.Fatalf("job %d: Keyer (%s, %s), JobKeys (%s, %s)", i, got, k.StructKey(), jk[i], sk[i])
			}
		}
		if jk[0] != jk[1] {
			t.Fatalf("the same job keyed differently:\n%s\n%s", CanonicalProbGraph(a), CanonicalProbGraph(twin))
		}
		for i, x := range jobs {
			for j, y := range jobs {
				refJob := JobKey(qc, CanonicalProbGraph(x), fp) == JobKey(qc, CanonicalProbGraph(y), fp)
				refStruct := StructKey(qc, CanonicalGraph(x.G), sfp) == StructKey(qc, CanonicalGraph(y.G), sfp)
				if (jk[i] == jk[j]) != refJob || (sk[i] == sk[j]) != refStruct {
					t.Fatalf("jobs %d,%d: job keys equal %v (reference %v), structure keys equal %v (reference %v)",
						i, j, jk[i] == jk[j], refJob, sk[i] == sk[j], refStruct)
				}
			}
		}
	})
}
