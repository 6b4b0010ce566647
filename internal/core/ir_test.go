package core

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"phom/internal/betadnf"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/lineage"
	"phom/internal/treeauto"
)

// constJobs builds jobs decided by structure alone — the Const
// short-circuits of the guard table: a trivial (edgeless) query, a
// query label absent from the instance, and a non-graded query on
// forest worlds.
func constJobs(r *rand.Rand, n int) []struct {
	name string
	q    *graph.Graph
	h    *graph.ProbGraph
} {
	rs := []graph.Label{"R", "S"}
	un := []graph.Label{graph.Unlabeled}
	nonGraded := graph.New(2)
	nonGraded.MustAddEdge(0, 1, graph.Unlabeled)
	nonGraded.MustAddEdge(1, 0, graph.Unlabeled) // a directed cycle is never graded
	return []struct {
		name string
		q    *graph.Graph
		h    *graph.ProbGraph
	}{
		{"trivial edgeless query", graph.New(3),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, rs), 0.5)},
		{"label mismatch", gen.Rand1WP(r, 3, []graph.Label{"T"}),
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, rs), 0.5)},
		{"non-graded on ⊔DWT", nonGraded,
			gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, n, un), 0.5)},
	}
}

// substrateProb is the independent reference for a structural plan of
// method m on h: the cell's substrate dynamic program (betadnf interval
// and chain systems, the treeauto d-DNNF circuit) run on each connected
// component under its own probabilities, combined by Lemma 3.7 here.
// Neither the Builder nor the Program IR nor the part compilers are
// involved.
func substrateProb(t *testing.T, m Method, qs UCQ, h *graph.ProbGraph) *big.Rat {
	t.Helper()
	switch m {
	case MethodTrivial:
		return big.NewRat(1, 1)
	case MethodLabelMismatch:
		return new(big.Rat)
	}
	miss := big.NewRat(1, 1)
	for _, comp := range h.Components() {
		p, err := componentProb(m, qs, comp)
		if err != nil {
			t.Fatalf("%v reference: %v", m, err)
		}
		miss.Mul(miss, p.Sub(graph.RatOne, p))
	}
	return miss.Sub(graph.RatOne, miss)
}

// componentProb is substrateProb on one connected component.
func componentProb(m Method, qs UCQ, comp *graph.ProbGraph) (*big.Rat, error) {
	switch m {
	case MethodXProperty2WP:
		// The union of the disjuncts' interval systems (Proposition 4.11).
		var sys betadnf.IntervalSystem
		var probs []*big.Rat
		for _, q := range qs {
			lin, err := lineage.ConnectedOn2WP(q, comp)
			if err != nil {
				return nil, err
			}
			sys.NumVars, probs = lin.System.NumVars, lin.Probs
			sys.Clauses = append(sys.Clauses, lin.System.Clauses...)
		}
		return sys.Prob(probs)
	case MethodGradedDWT, MethodBetaAcyclicDWT:
		// One chain system (Propositions 3.6 and 4.10): a graded union is
		// →^m for its smallest difference of levels m.
		q := qs[0]
		if m == MethodGradedDWT {
			d := -1
			for _, q := range qs {
				if l, graded := q.DifferenceOfLevels(); graded && (d < 0 || l < d) {
					d = l
				}
			}
			if d < 0 {
				return new(big.Rat), nil
			}
			q = graph.UnlabeledPath(d)
		} else if len(qs) != 1 {
			return nil, fmt.Errorf("reference takes one 1WP query, got %d", len(qs))
		}
		lin, err := lineage.Path1WPOnDWT(q, comp)
		if err != nil {
			return nil, err
		}
		return lin.System.Prob(lin.Probs)
	case MethodAutomatonPT:
		// The d-DNNF lineage of →^m, m the smallest height (Prop. 5.4/5.5).
		h := qs[0].Height()
		for _, q := range qs[1:] {
			h = min(h, q.Height())
		}
		return treeauto.PathProbPolytree(comp, h)
	}
	return nil, fmt.Errorf("no substrate reference for %v", m)
}

// TestProgramExecMatchesTreeAndSolve is the IR acceptance differential:
// for every guard-table row (the four tractable cells) and every Const
// short-circuit, the flattened Program executed by CompiledPlan.Evaluate
// must be RatString-byte-identical to the cell's substrate dynamic
// programs combined by Lemma 3.7 (substrateProb) and to a fresh Solve
// of the reweighted instance, across seeded reweightings.
func TestProgramExecMatchesTreeAndSolve(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var jobs []struct {
		name string
		q    *graph.Graph
		h    *graph.ProbGraph
	}
	for _, j := range tractableJobs(r, 20) {
		if j.name == "baseline (hard cell)" {
			continue // opaque: no program; covered by TestOpaquePlanHasNoProgram
		}
		jobs = append(jobs, j)
	}
	jobs = append(jobs, constJobs(r, 20)...)
	for _, job := range jobs {
		cp, err := Compile(job.q, job.h, nil)
		if err != nil {
			t.Fatalf("%s: Compile: %v", job.name, err)
		}
		if cp.Program() == nil {
			t.Fatalf("%s: structural plan has no program", job.name)
		}
		if err := cp.Program().Validate(); err != nil {
			t.Fatalf("%s: program invalid: %v", job.name, err)
		}
		for reweight := 0; reweight < 5; reweight++ {
			probs := job.h.Probs()
			exec, err := cp.Evaluate(context.Background(), probs, nil)
			if err != nil {
				t.Fatalf("%s: Evaluate (program): %v", job.name, err)
			}
			m, _ := cp.Method()
			ref := substrateProb(t, m, UCQ{job.q}, job.h)
			solve, err := Solve(job.q, job.h, nil)
			if err != nil {
				t.Fatalf("%s: Solve: %v", job.name, err)
			}
			if exec.Prob.RatString() != ref.RatString() {
				t.Fatalf("%s reweight %d: program %s, substrate reference %s",
					job.name, reweight, exec.Prob.RatString(), ref.RatString())
			}
			if exec.Prob.RatString() != solve.Prob.RatString() {
				t.Fatalf("%s reweight %d: program %s, solve %s",
					job.name, reweight, exec.Prob.RatString(), solve.Prob.RatString())
			}
			if exec.Method != solve.Method {
				t.Fatalf("%s: program method %v, solve method %v", job.name, exec.Method, solve.Method)
			}
			reweightRandomly(r, job.h)
		}
	}
}

// TestPlanMarshalRoundTrip pins the serialized form: a plan restored
// from MarshalBinary evaluates byte-identically, keeps its identity
// (structure key, canonical order, method, edge count) and its part
// table, and re-encodes to the same bytes.
func TestPlanMarshalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, job := range tractableJobs(r, 16) {
		if job.name == "baseline (hard cell)" {
			continue
		}
		cp, err := Compile(job.q, job.h, nil)
		if err != nil {
			t.Fatalf("%s: Compile: %v", job.name, err)
		}
		data, err := cp.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: MarshalBinary: %v", job.name, err)
		}
		restored := new(CompiledPlan)
		if err := restored.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: UnmarshalBinary: %v", job.name, err)
		}
		if restored.StructKey() != cp.StructKey() {
			t.Fatalf("%s: structure key changed across the wire", job.name)
		}
		if restored.NumEdges() != cp.NumEdges() {
			t.Fatalf("%s: NumEdges %d → %d", job.name, cp.NumEdges(), restored.NumEdges())
		}
		if m1, _ := cp.Method(); true {
			if m2, ok := restored.Method(); !ok || m2 != m1 {
				t.Fatalf("%s: method %v → %v (ok=%v)", job.name, m1, m2, ok)
			}
		}
		if !slices.Equal(restored.parts, cp.parts) {
			t.Fatalf("%s: part table %v → %v", job.name, cp.parts, restored.parts)
		}
		for i, ei := range cp.CanonOrder() {
			if restored.CanonOrder()[i] != ei {
				t.Fatalf("%s: canonical order changed at %d", job.name, i)
			}
		}
		for reweight := 0; reweight < 3; reweight++ {
			want, err := cp.Evaluate(context.Background(), job.h.Probs(), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Evaluate(context.Background(), job.h.Probs(), nil)
			if err != nil {
				t.Fatalf("%s: restored Evaluate: %v", job.name, err)
			}
			if got.Prob.RatString() != want.Prob.RatString() {
				t.Fatalf("%s: restored plan diverged: %s vs %s",
					job.name, got.Prob.RatString(), want.Prob.RatString())
			}
			reweightRandomly(r, job.h)
		}
		// Canonical encoding: re-marshaling the restored plan is
		// byte-identical.
		again, err := restored.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", job.name, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("%s: encoding not canonical (round-trip changed bytes)", job.name)
		}
	}
}

// TestOpaquePlanHasNoProgram pins the opaque contract: hard-cell plans
// expose no program, refuse serialization, and still evaluate.
func TestOpaquePlanHasNoProgram(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	q := gen.Rand1WP(r, 3, []graph.Label{"R", "S"})
	h := gen.RandProb(r, gen.RandGraph(r, 5, 8, []graph.Label{"R", "S"}), 0.3)
	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Opaque() {
		t.Skip("random hard-cell job compiled structurally; adjust the generator seed")
	}
	if cp.Program() != nil {
		t.Fatal("opaque plan exposes a program")
	}
	if _, err := cp.MarshalBinary(); err == nil {
		t.Fatal("opaque plan serialized")
	}
	if cp.StructKey() == "" {
		t.Fatal("opaque plan has no structure key")
	}
	want, err := Solve(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.Evaluate(context.Background(), h.Probs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Prob.RatString() != want.Prob.RatString() {
		t.Fatalf("opaque evaluate %s, solve %s", got.Prob.RatString(), want.Prob.RatString())
	}
}

// TestUnmarshalRejectsGarbage pins the decoder's failure mode: errors,
// not panics, for corrupt input.
func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{},
		[]byte("phomplan"),
		[]byte("not a plan at all"),
		bytes.Repeat([]byte{0xff}, 64),
	} {
		cp := new(CompiledPlan)
		if err := cp.UnmarshalBinary(data); err == nil {
			t.Fatalf("UnmarshalBinary accepted %q", data)
		}
	}
	// A structurally valid record with a baseline method byte must be
	// rejected by core even though graphio accepts it.
	r := rand.New(rand.NewSource(37))
	q := gen.Rand1WP(r, 3, []graph.Label{"R", "S"})
	h := gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 10, []graph.Label{"R", "S"}), 0.5)
	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The method varint sits right after the magic, version and
	// length-prefixed structure key; patch it to MethodBruteForce.
	idx := len("phomplan") + 1 + 1 + len(cp.StructKey())
	patched := append([]byte(nil), data...)
	patched[idx] = byte(MethodBruteForce)
	if err := new(CompiledPlan).UnmarshalBinary(patched); err == nil {
		t.Fatal("UnmarshalBinary accepted a baseline method")
	}
}
