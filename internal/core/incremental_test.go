package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/instance"
	"phom/internal/phomerr"
	"phom/internal/plan"
)

// randDeltaBatch generates 1–3 valid deltas against g: probability
// updates on existing edges, removals of existing edges, insertions of
// absent pairs. Edges touched earlier in the batch are tracked so the
// batch stays valid when instance.Apply replays it sequentially. The
// batch is a function of r's state and g alone (live edges are listed
// in sorted order, not map order), so a seed reproduces its stream.
//
// With keep other than ClassAll, 7 in 8 insertions keep the graph in
// class keep (removals always do, for the union classes): an arbitrary
// insertion knocks a union-family instance out of its class, so its
// plan turns opaque and never splices again. The rest stay arbitrary,
// so the from-scratch fallback is still drawn.
func randDeltaBatch(r *rand.Rand, g *graph.Graph, keep graph.Class) []instance.Delta {
	type pe struct{ from, to graph.Vertex }
	present := map[pe]bool{}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		present[pe{e.From, e.To}] = true
	}
	liveEdges := func() []pe {
		var live []pe
		for p, ok := range present {
			if ok {
				live = append(live, p)
			}
		}
		sort.Slice(live, func(i, j int) bool {
			return live[i].from < live[j].from || live[i].from == live[j].from && live[i].to < live[j].to
		})
		return live
	}
	n := g.NumVertices()
	// keepingAdd draws up to 16 pairs and returns the first whose edge
	// keeps the live graph in class keep — re-adding a removed edge,
	// extending a path at an end or a tree at a root, or joining two
	// components as keep allows — or (0, 0), no edge, if none does.
	keepingAdd := func() (graph.Vertex, graph.Vertex) {
		for try := 0; try < 16; try++ {
			u, v := graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))
			if u == v {
				continue
			}
			h := graph.New(n)
			for _, e := range liveEdges() {
				h.MustAddEdge(e.from, e.to, graph.Unlabeled)
			}
			if h.AddEdge(u, v, graph.Unlabeled) == nil && h.InClass(keep) {
				return u, v
			}
		}
		return 0, 0
	}
	var out []instance.Delta
	for k := 1 + r.Intn(3); k > 0; k-- {
		switch r.Intn(3) {
		case 0: // set_prob
			live := liveEdges()
			if len(live) == 0 {
				continue
			}
			p := live[r.Intn(len(live))]
			out = append(out, instance.Delta{Op: instance.OpSetProb, From: p.from, To: p.to, Prob: gen.RandRat(r)})
		case 1: // add_edge
			u, v := graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))
			if keep != graph.ClassAll && r.Intn(8) != 0 {
				u, v = keepingAdd()
			}
			if u == v || present[pe{u, v}] {
				continue
			}
			present[pe{u, v}] = true
			out = append(out, instance.Delta{Op: instance.OpAddEdge, From: u, To: v,
				Label: graph.Unlabeled, Prob: gen.RandRat(r)})
		case 2: // remove_edge
			live := liveEdges()
			if len(live) < 2 {
				continue // keep at least one edge around
			}
			p := live[r.Intn(len(live))]
			present[pe{p.from, p.to}] = false
			out = append(out, instance.Delta{Op: instance.OpRemoveEdge, From: p.from, To: p.to})
		}
	}
	return out
}

// TestPatchCompileDifferentialCorpus is the byte-identity pin of
// incremental maintenance: over random delta streams on every generator
// family — the tractable union classes that exercise the splice and the
// ER/BA/power-law models that exercise the fallback — the plan carried
// forward by PatchCompile answers every probability query with exactly
// the RatString a from-scratch compile of the current structure
// produces, and lands on the same method and structure key.
func TestPatchCompileDifferentialCorpus(t *testing.T) {
	type caseDef struct {
		fam   gen.Family
		n     int
		query func(r *rand.Rand, g *graph.Graph) *graph.Graph
	}
	walk := func(r *rand.Rand, g *graph.Graph) *graph.Graph { return gen.RandWalkQuery(r, g, 2) }
	upath := func(r *rand.Rand, g *graph.Graph) *graph.Graph { return graph.UnlabeledPath(1 + r.Intn(2)) }
	cases := []caseDef{
		{gen.FamU2WP, 12, walk},
		{gen.FamUDWT, 12, upath},
		{gen.FamUPT, 10, upath},
		{gen.FamER, 7, walk},
		{gen.FamBA, 6, upath},
		{gen.FamPLaw, 7, upath},
	}
	opts := &Options{BruteForceLimit: 18}
	spliced := 0
	for seed := int64(0); seed < 6; seed++ {
		for _, c := range cases {
			r := rand.New(rand.NewSource(seed*31 + int64(c.fam)))
			g := gen.RandFamily(r, c.fam, c.n, nil)
			if g.NumEdges() == 0 {
				continue
			}
			h := gen.RandProb(r, g, 0.3)
			q := c.query(r, g)
			if q == nil || q.NumEdges() == 0 {
				continue
			}
			cur, err := Compile(q, h, opts)
			if err != nil {
				if phomerr.CodeOf(err) == phomerr.CodeLimit {
					continue // too wild for the fallback budget; not this test's business
				}
				t.Fatalf("seed %d fam %v: initial compile: %v", seed, c.fam, err)
			}
			inst, err := instance.New("diff", h)
			if err != nil {
				t.Fatalf("instance.New: %v", err)
			}
			curG := h.G
			for step := 0; step < 5; step++ {
				batch := randDeltaBatch(r, inst.Snapshot().H.G, graph.ClassAll)
				if len(batch) == 0 {
					continue
				}
				if _, err := inst.Apply(-1, batch); err != nil {
					t.Fatalf("seed %d fam %v step %d: Apply: %v", seed, c.fam, step, err)
				}
				newH := inst.Snapshot().H
				patched, incremental, perr := PatchCompile(q, cur, curG, newH, opts)
				scratch, serr := Compile(q, newH, opts)
				if (perr == nil) != (serr == nil) || phomerr.CodeOf(perr) != phomerr.CodeOf(serr) {
					t.Fatalf("seed %d fam %v step %d: patch err %v vs scratch err %v", seed, c.fam, step, perr, serr)
				}
				if perr != nil {
					break // e.g. grew past the fallback budget; both sides agree
				}
				if incremental {
					spliced++
				}
				probs := newH.Probs()
				pr, err1 := patched.Evaluate(context.Background(), probs, nil)
				sr, err2 := scratch.Evaluate(context.Background(), probs, nil)
				if err1 != nil || err2 != nil {
					t.Fatalf("seed %d fam %v step %d: evaluate: %v / %v", seed, c.fam, step, err1, err2)
				}
				if pr.Prob.RatString() != sr.Prob.RatString() {
					t.Fatalf("seed %d fam %v step %d: incremental=%v prob %s != scratch %s",
						seed, c.fam, step, incremental, pr.Prob.RatString(), sr.Prob.RatString())
				}
				if pr.Method != sr.Method {
					t.Fatalf("seed %d fam %v step %d: method %v != %v", seed, c.fam, step, pr.Method, sr.Method)
				}
				if patched.StructKey() != scratch.StructKey() {
					t.Fatalf("seed %d fam %v step %d: struct keys diverge", seed, c.fam, step)
				}
				cur, curG = patched, newH.G // compound: next step patches the patched plan
			}
		}
	}
	if spliced == 0 {
		t.Fatal("corpus never took the incremental splice path; the test is vacuous")
	}
}

// TestPatchCompileUCQSplices: union plans splice like single-query
// plans. Over delta streams on the tractable union families, a plan
// for a 2–3 disjunct union carried forward by PatchCompileUCQContext
// answers exactly like a from-scratch CompileUCQ, and the splice path
// is taken.
func TestPatchCompileUCQSplices(t *testing.T) {
	// A small brute-force budget sends the opaque plans a delta lands on
	// to the lineage baseline, which is cheap on these sizes.
	opts := &Options{BruteForceLimit: 6}
	spliced := 0
	for seed := int64(0); seed < 8; seed++ {
		for _, fam := range []gen.Family{gen.FamU2WP, gen.FamUDWT, gen.FamUPT} {
			r := rand.New(rand.NewSource(seed*7 + int64(fam)))
			g := gen.RandFamily(r, fam, 12, nil)
			if g.NumEdges() == 0 {
				continue
			}
			h := gen.RandProb(r, g, 0.3)
			qs := make(UCQ, 2+r.Intn(2))
			for i := range qs {
				qs[i] = graph.UnlabeledPath(1 + r.Intn(3))
			}
			if fam == gen.FamU2WP {
				qs[0] = graph.Path2WP(graph.Fwd(graph.Unlabeled), graph.Bwd(graph.Unlabeled))
			}
			cur, err := CompileUCQ(qs, h, opts)
			if err != nil {
				t.Fatalf("seed %d fam %v: compile: %v", seed, fam, err)
			}
			inst, err := instance.New("ucq", h)
			if err != nil {
				t.Fatalf("instance.New: %v", err)
			}
			curG := h.G
			// An opaque plan never splices: the stream ends there.
			for step := 0; step < 4 && cur != nil && !cur.Opaque(); step++ {
				batch := randDeltaBatch(r, curG, graph.ClassAll)
				if len(batch) == 0 {
					continue
				}
				if _, err := inst.Apply(-1, batch); err != nil {
					t.Fatalf("seed %d fam %v step %d: Apply: %v", seed, fam, step, err)
				}
				newH := inst.Snapshot().H
				var incremental bool
				cur, incremental = checkPatchMatchesCompile(t, r, qs, cur, curG, newH, opts, 2, true)
				if incremental {
					spliced++
				}
				curG = newH.G
			}
		}
	}
	if spliced == 0 {
		t.Fatal("no union plan took the incremental splice path; the test is vacuous")
	}
	t.Logf("%d union splices", spliced)
}

// partSlices renders each entry of cp's part table as the expression
// its factor's dependency slice computes, over edges named by their
// endpoints in g (the graph cp was compiled against) and with
// commutative operands sorted, so parts compare across edge
// renumberings and schedules; a folded part renders as "1".
func partSlices(t *testing.T, cp *CompiledPlan, g *graph.Graph) []string {
	t.Helper()
	prog := cp.Program()
	expr := make([]string, len(prog.Ops))
	def := make([]int, prog.NumRegs) // register -> op that last wrote it
	for k, op := range prog.Ops {
		var a, b string
		switch op.Code {
		case plan.OpMul, plan.OpAdd:
			a, b = expr[def[op.A]], expr[def[op.B]]
			a, b = min(a, b), max(a, b)
		case plan.OpOneMinus:
			a = expr[def[op.A]]
		}
		switch op.Code {
		case plan.OpConst:
			expr[k] = prog.Consts[op.A].RatString()
		case plan.OpLoad:
			e := g.Edge(int(op.A))
			expr[k] = fmt.Sprintf("π(%d>%d)", e.From, e.To)
		case plan.OpMul:
			expr[k] = "(" + a + "·" + b + ")"
		case plan.OpAdd:
			expr[k] = "(" + a + "+" + b + ")"
		case plan.OpOneMinus:
			expr[k] = "(1−" + a + ")"
		}
		def[op.Dst] = k
	}
	out := make([]string, len(cp.parts))
	for i, k := range cp.parts {
		out[i] = "1"
		if k != plan.FoldedPart {
			out[i] = expr[k]
		}
	}
	return out
}

// TestPatchCompileSplicesOnlyTouchedComponent pins the splice seam
// directly: deleting one edge of a three-path ⊔2WP instance splits one
// component; the new composite carries the untouched components' parts
// over unchanged (same factor expression, renumbered) and builds new
// parts for the two halves of the split one.
func TestPatchCompileSplicesOnlyTouchedComponent(t *testing.T) {
	part := func() *graph.Graph { return graph.UnlabeledPath(2) } // 3 vertices, 2 edges
	g, _ := graph.DisjointUnion(part(), part(), part())
	h := graph.NewProbGraph(g)
	h.MustSetEdgeProb(0, 1, big.NewRat(1, 2))
	h.MustSetEdgeProb(4, 5, big.NewRat(1, 3))
	q := graph.UnlabeledPath(1)

	old, err := Compile(q, h, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if m, ok := old.Method(); !ok || m != MethodXProperty2WP {
		t.Fatalf("method = %v, want MethodXProperty2WP", m)
	}
	inst, err := instance.New("cow", h)
	if err != nil {
		t.Fatalf("instance.New: %v", err)
	}
	if _, err := inst.Apply(-1, []instance.Delta{{Op: instance.OpRemoveEdge, From: 3, To: 4}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	newH := inst.Snapshot().H
	cp, incremental, err := PatchCompile(q, old, g, newH, nil)
	if err != nil {
		t.Fatalf("PatchCompile: %v", err)
	}
	if !incremental {
		t.Fatal("single-component edge delta did not take the splice path")
	}
	oldParts := partSlices(t, old, g)
	newParts := partSlices(t, cp, newH.G)
	if len(oldParts) != 3 || len(newParts) != 4 {
		t.Fatalf("parts = %d -> %d, want 3 -> 4", len(oldParts), len(newParts))
	}
	// New components in order: {0,1,2} (intact), {3} (split), {4,5}
	// (split), {6,7,8} (intact). Intact parts carry the old plan's parts
	// 0 and 2 over; the split ones are new.
	if newParts[0] != oldParts[0] {
		t.Errorf("untouched component 0: part %s, was %s", newParts[0], oldParts[0])
	}
	if newParts[3] != oldParts[2] {
		t.Errorf("untouched component 2: part %s, was %s", newParts[3], oldParts[2])
	}
	if newParts[1] != "1" || newParts[2] == oldParts[1] {
		t.Errorf("split component: parts %s and %s, was %s", newParts[1], newParts[2], oldParts[1])
	}
	// And the spliced plan answers exactly like a fresh compile.
	scratch, err := Compile(q, newH, nil)
	if err != nil {
		t.Fatalf("scratch compile: %v", err)
	}
	pr, err := cp.Evaluate(context.Background(), newH.Probs(), nil)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	sr, err := scratch.Evaluate(context.Background(), newH.Probs(), nil)
	if err != nil {
		t.Fatalf("evaluate scratch: %v", err)
	}
	if pr.Prob.RatString() != sr.Prob.RatString() {
		t.Fatalf("spliced %s != scratch %s", pr.Prob.RatString(), sr.Prob.RatString())
	}
}

// TestPatchCompileProbabilityOnly pins the zero-recompile property of a
// probability-only delta: the structure did not move, so every
// component is intact and every part is carried over unchanged.
func TestPatchCompileProbabilityOnly(t *testing.T) {
	g, _ := graph.DisjointUnion(graph.UnlabeledPath(3), graph.UnlabeledPath(2))
	h := graph.NewProbGraph(g)
	q := graph.UnlabeledPath(2)
	old, err := Compile(q, h, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	inst, _ := instance.New("p", h)
	if _, err := inst.Apply(-1, []instance.Delta{
		{Op: instance.OpSetProb, From: 0, To: 1, Prob: big.NewRat(2, 7)},
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	newH := inst.Snapshot().H
	cp, incremental, err := PatchCompile(q, old, g, newH, nil)
	if err != nil {
		t.Fatalf("PatchCompile: %v", err)
	}
	if !incremental {
		t.Fatal("probability-only delta did not splice")
	}
	if oldParts, newParts := partSlices(t, old, g), partSlices(t, cp, g); !slices.Equal(oldParts, newParts) || len(oldParts) != 2 {
		t.Errorf("parts %v moved to %v on a probability-only delta", oldParts, newParts)
	}
	if cp.StructKey() != old.StructKey() {
		t.Error("structure key moved on a probability-only delta")
	}
}

// TestPatchCompileRouteChangeFallsBack pins the safety valve: a delta
// that moves the instance off the old route's class (here a 2WP forest
// gaining a branching vertex, leaving ⊔2WP) must refuse to splice and
// fall back to a full — still correct — compile.
func TestPatchCompileRouteChangeFallsBack(t *testing.T) {
	g, _ := graph.DisjointUnion(graph.UnlabeledPath(3), graph.UnlabeledPath(2))
	h := graph.NewProbGraph(g)
	q := graph.UnlabeledPath(1)
	old, err := Compile(q, h, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	inst, _ := instance.New("rc", h)
	// An edge into the middle of the second path gives vertex 5 three
	// neighbors: the instance leaves ⊔2WP (it is now a polytree, so the
	// route moves to the automaton method for this unlabeled query).
	if _, err := inst.Apply(-1, []instance.Delta{
		{Op: instance.OpAddEdge, From: 0, To: 5, Label: graph.Unlabeled, Prob: big.NewRat(1, 2)},
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	newH := inst.Snapshot().H
	cp, incremental, err := PatchCompile(q, old, g, newH, nil)
	if err != nil {
		t.Fatalf("PatchCompile: %v", err)
	}
	if incremental {
		t.Fatal("splice claimed across a route change")
	}
	scratch, err := Compile(q, newH, nil)
	if err != nil {
		t.Fatalf("scratch: %v", err)
	}
	pr, _ := cp.Evaluate(context.Background(), newH.Probs(), nil)
	sr, _ := scratch.Evaluate(context.Background(), newH.Probs(), nil)
	if pr == nil || sr == nil || pr.Prob.RatString() != sr.Prob.RatString() {
		t.Fatalf("fallback result mismatch: %v vs %v", pr, sr)
	}
	if pr.Method != sr.Method {
		t.Fatalf("fallback method %v != %v", pr.Method, sr.Method)
	}
}

// TestPatchCompileConflictErrType sanity-checks the typed conflict the
// instance layer hands the stack (it is core's callers that map it, but
// the corpus above routes through instance.Apply, so pin it here too).
func TestPatchCompileConflictErrType(t *testing.T) {
	h := graph.NewProbGraph(graph.UnlabeledPath(2))
	inst, _ := instance.New("cas", h)
	_, err := inst.Apply(7, []instance.Delta{{Op: instance.OpSetProb, From: 0, To: 1, Prob: graph.RatOne}})
	if !errors.Is(err, phomerr.ErrConflict) {
		t.Fatalf("stale ifVersion error = %v, want ErrConflict", err)
	}
}

// permutedCopy returns h over a structurally equal graph whose edges
// are listed in a random order: same vertices, same labelled edges and
// probabilities, different edge numbering — what another instance, a
// stateless job with a different insertion order, or a plan snapshot
// leaves under the same structure key.
func permutedCopy(r *rand.Rand, h *graph.ProbGraph) *graph.ProbGraph {
	g := graph.New(h.G.NumVertices())
	perm := r.Perm(h.G.NumEdges())
	for _, i := range perm {
		e := h.G.Edge(i)
		g.MustAddEdge(e.From, e.To, e.Label)
	}
	p := graph.NewProbGraph(g)
	for j, i := range perm {
		p.SetProb(j, h.Prob(i))
	}
	return p
}

// openProbs returns n random probabilities strictly inside (0, 1), so
// no answer saturates at 0 or 1 and hides a misnumbered edge.
func openProbs(r *rand.Rand, n int) []*big.Rat {
	out := make([]*big.Rat, n)
	for i := range out {
		out[i] = big.NewRat(int64(1+r.Intn(96)), 97)
	}
	return out
}

// checkPatchMatchesCompile applies one PatchCompile step — old was
// compiled for q against a graph structurally equal to oldG, newH is
// oldG after deltas — and requires it to agree with a from-scratch
// compile on errors, method, structure key and the exact answer under
// newH's probabilities plus reweights random probability vectors. With
// sameDAG set (old was compiled on oldG's own edge order, so a replayed
// part is the very value DAG a fresh compile emits), the float
// enclosures of the two programs must also agree bit for bit. It
// returns the patched plan (nil when both sides failed alike) and
// whether the splice path ran.
func checkPatchMatchesCompile(t *testing.T, r *rand.Rand, qs UCQ, old *CompiledPlan, oldG *graph.Graph, newH *graph.ProbGraph, opts *Options, reweights int, sameDAG bool) (*CompiledPlan, bool) {
	t.Helper()
	patched, incremental, perr := PatchCompileUCQContext(context.Background(), qs, old, oldG, newH, opts)
	scratch, serr := CompileUCQ(qs, newH, opts)
	if (perr == nil) != (serr == nil) || phomerr.CodeOf(perr) != phomerr.CodeOf(serr) {
		t.Fatalf("patch err %v vs scratch err %v", perr, serr)
	}
	if perr != nil {
		return nil, false
	}
	if patched.StructKey() != scratch.StructKey() {
		t.Fatal("struct keys diverge")
	}
	vecs := [][]*big.Rat{newH.Probs()}
	for k := 0; k < reweights; k++ {
		vecs = append(vecs, openProbs(r, newH.G.NumEdges()))
	}
	for k, probs := range vecs {
		pr, err1 := patched.Evaluate(context.Background(), probs, nil)
		sr, err2 := scratch.Evaluate(context.Background(), probs, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("vector %d: evaluate: %v / %v", k, err1, err2)
		}
		if pr.Prob.RatString() != sr.Prob.RatString() || pr.Method != sr.Method {
			t.Fatalf("vector %d: incremental=%v %s (%v) != scratch %s (%v)", k, incremental,
				pr.Prob.RatString(), pr.Method, sr.Prob.RatString(), sr.Method)
		}
	}
	if sameDAG && !patched.Opaque() {
		folded := func(parts []int) []bool {
			out := make([]bool, len(parts))
			for i, k := range parts {
				out[i] = k == plan.FoldedPart
			}
			return out
		}
		if (patched.parts == nil) != (scratch.parts == nil) || !slices.Equal(folded(patched.parts), folded(scratch.parts)) {
			t.Fatalf("incremental=%v: part table %v, scratch %v", incremental, patched.parts, scratch.parts)
		}
		pe, err1 := patched.Program().ExecFloatBatchCtx(context.Background(), vecs)
		se, err2 := scratch.Program().ExecFloatBatchCtx(context.Background(), vecs)
		if err1 != nil || err2 != nil {
			t.Fatalf("float evaluate: %v / %v", err1, err2)
		}
		for k := range vecs {
			if math.Float64bits(pe[k].Lo) != math.Float64bits(se[k].Lo) || math.Float64bits(pe[k].Hi) != math.Float64bits(se[k].Hi) {
				t.Fatalf("vector %d: incremental=%v enclosure %v != scratch %v", k, incremental, pe[k], se[k])
			}
		}
	}
	return patched, incremental
}

// roundTrip returns cp as a plan restored from its MarshalBinary bytes.
func roundTrip(t *testing.T, cp *CompiledPlan) *CompiledPlan {
	t.Helper()
	data, err := cp.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	restored := new(CompiledPlan)
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	return restored
}

// TestPatchCompileRestoredPlanSplices: a plan restored from bytes
// splices like the plan that was encoded. A four-component ⊔2WP plan
// goes through MarshalBinary/UnmarshalBinary; a delta confined to one
// component then takes the splice path and lands on the program a
// fresh compile would build (exact answers and float enclosures).
func TestPatchCompileRestoredPlanSplices(t *testing.T) {
	q := graph.Path2WP(graph.Fwd(graph.Unlabeled), graph.Bwd(graph.Unlabeled))
	r := rand.New(rand.NewSource(5))
	for _, op := range []instance.Op{instance.OpRemoveEdge, instance.OpAddEdge} {
		parts := make([]*graph.Graph, 4)
		for i := range parts {
			parts[i] = gen.Rand2WP(r, 6, nil)
		}
		g, offs := graph.DisjointUnion(parts...)
		h := graph.NewProbGraph(g)
		for i, p := range openProbs(r, g.NumEdges()) {
			h.SetProb(i, p)
		}
		fresh, err := Compile(q, h, nil)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if len(fresh.parts) != 4 {
			t.Fatalf("part table %v, want 4 entries", fresh.parts)
		}
		inst, err := instance.New("restored", h)
		if err != nil {
			t.Fatalf("instance.New: %v", err)
		}
		// Drop the first edge of component 1, or join components 1 and 2
		// end to start; components 0 and 3 are untouched either way.
		e := g.Edge(g.Partition().Edges[1][0])
		d := instance.Delta{Op: instance.OpRemoveEdge, From: e.From, To: e.To}
		if op == instance.OpAddEdge {
			d = instance.Delta{Op: instance.OpAddEdge, From: offs[2] - 1, To: offs[2],
				Label: graph.Unlabeled, Prob: big.NewRat(1, 3)}
		}
		if _, err := inst.Apply(-1, []instance.Delta{d}); err != nil {
			t.Fatalf("Apply %v: %v", d, err)
		}
		newH := inst.Snapshot().H
		restored := roundTrip(t, fresh)
		if _, incremental := checkPatchMatchesCompile(t, r, UCQ{q}, restored, g, newH, nil, 4, true); !incremental {
			t.Fatalf("%v: the restored plan did not splice", op)
		}
	}
}

// TestPatchCompileOldPlanOnPermutedGraph pins plan migration across
// edge numberings: the old plan was compiled against an edge-permuted
// copy of oldG (same structure key, different numbering), so its
// spliced parts must be renumbered through the canonical edge order,
// not through oldG's own indices.
func TestPatchCompileOldPlanOnPermutedGraph(t *testing.T) {
	q := graph.Path2WP(graph.Fwd(graph.Unlabeled), graph.Bwd(graph.Unlabeled))
	spliced := 0
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		parts := make([]*graph.Graph, 6)
		for i := range parts {
			parts[i] = gen.Rand2WP(r, 8, nil)
		}
		g, offs := graph.DisjointUnion(parts...)
		h := graph.NewProbGraph(g)
		for i, p := range openProbs(r, g.NumEdges()) {
			h.SetProb(i, p)
		}
		old, err := Compile(q, permutedCopy(r, h), nil)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		inst, err := instance.New("perm", h)
		if err != nil {
			t.Fatalf("instance.New: %v", err)
		}
		// Either join two paths end to start (every old edge survives)
		// or remove one edge; the untouched components are carried over
		// through the renumbering either way.
		d := instance.Delta{Op: instance.OpAddEdge, From: offs[1] - 1, To: offs[2],
			Label: graph.Unlabeled, Prob: big.NewRat(1, 3)}
		if seed%2 == 1 {
			e := g.Edge(r.Intn(g.NumEdges()))
			d = instance.Delta{Op: instance.OpRemoveEdge, From: e.From, To: e.To}
		}
		if _, err := inst.Apply(-1, []instance.Delta{d}); err != nil {
			t.Fatalf("seed %d: Apply: %v", seed, err)
		}
		if _, incremental := checkPatchMatchesCompile(t, r, UCQ{q}, old, g, inst.Snapshot().H, nil, 4, false); incremental {
			spliced++
		}
	}
	if spliced == 0 {
		t.Fatal("no case took the splice path; the test is vacuous")
	}
}

// TestPatchCompileSplicesMatchlessComposite: a composite in which no
// component has a match compiles to the constant 0 but keeps a part
// table of FoldedPart entries, so a delta that gives one component a
// match still splices — fresh or restored from bytes.
func TestPatchCompileSplicesMatchlessComposite(t *testing.T) {
	g, offs := graph.DisjointUnion(graph.UnlabeledPath(2), graph.UnlabeledPath(2), graph.UnlabeledPath(2))
	h := graph.NewProbGraph(g)
	q := graph.UnlabeledPath(3) // longer than every component
	old, err := Compile(q, h, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if want := []int{plan.FoldedPart, plan.FoldedPart, plan.FoldedPart}; !slices.Equal(old.parts, want) {
		t.Fatalf("part table %v, want %v", old.parts, want)
	}
	inst, err := instance.New("matchless", h)
	if err != nil {
		t.Fatalf("instance.New: %v", err)
	}
	// Join components 0 and 1 end to start: a 5-edge path matches.
	if _, err := inst.Apply(-1, []instance.Delta{{Op: instance.OpAddEdge, From: offs[1] - 1, To: offs[1],
		Label: graph.Unlabeled, Prob: big.NewRat(1, 2)}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	r := rand.New(rand.NewSource(3))
	for _, cur := range []*CompiledPlan{old, roundTrip(t, old)} {
		if _, incremental := checkPatchMatchesCompile(t, r, UCQ{q}, cur, g, inst.Snapshot().H, nil, 2, true); !incremental {
			t.Fatal("a matchless composite did not splice")
		}
	}
}

// FuzzPatchCompileMatchesCompile drives PatchCompileUCQContext with
// random delta streams on the tractable union families and the
// fallback-exercising random models, for unions of 1–3 walk queries,
// where before every step the graph handed in as oldG is (at random) an
// edge-permuted copy of the graph the old plan was compiled on, and the
// old plan is (at random) one restored from its bytes. Every patched
// plan must agree with CompileUCQ, float enclosures bit for bit.
//
// One fam value in eight draws a random model (ER or BA), the rest a
// union family. Random-model plans are opaque: they never splice, and
// checking them re-solves every vector by brute force, so drawn as
// often as the union families they took most of the budget. As a
// minority they keep the full-recompile fallback covered. A union
// family is drawn as two or three components of 3–6 vertices each, so
// its plan is a composite with a part table and a delta leaves some
// component intact, and its deltas keep it in its class
// (randDeltaBatch's keep), bar one insertion in eight, so its plans
// stay compiled and splice.
func FuzzPatchCompileMatchesCompile(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed, uint8(seed), uint8(3), uint8(seed))
	}
	unions := []gen.Family{gen.FamU2WP, gen.FamUDWT, gen.FamUPT}
	models := []gen.Family{gen.FamER, gen.FamBA}
	opts := &Options{BruteForceLimit: 12}
	f.Fuzz(func(t *testing.T, seed int64, fam, steps, disjuncts uint8) {
		r := rand.New(rand.NewSource(seed))
		keep := unions[int(fam)%len(unions)].Class()
		var g *graph.Graph
		if fam%8 == 0 {
			keep = graph.ClassAll
			g = gen.RandFamily(r, models[int(fam/8)%len(models)], 5+r.Intn(7), nil)
		} else {
			g = gen.RandUnion(r, 2+r.Intn(2), func(r *rand.Rand) *graph.Graph {
				return gen.RandInClass(r, keep.Base(), 3+r.Intn(4), nil)
			})
		}
		if g.NumEdges() == 0 {
			return
		}
		h := graph.NewProbGraph(g)
		for i, p := range openProbs(r, g.NumEdges()) {
			h.SetProb(i, p)
		}
		qs := make(UCQ, 1+int(disjuncts)%3)
		for i := range qs {
			qs[i] = gen.RandWalkQuery(r, g, 2)
			if qs[i] == nil || qs[i].NumEdges() == 0 {
				return
			}
		}
		cur, err := CompileUCQ(qs, h, opts)
		if err != nil {
			return // past the fallback budget: nothing to patch
		}
		inst, err := instance.New("fuzz", h)
		if err != nil {
			t.Fatalf("instance.New: %v", err)
		}
		curH := h
		for step := 0; step < 1+int(steps)%4; step++ {
			batch := randDeltaBatch(r, curH.G, keep)
			if len(batch) == 0 {
				continue
			}
			if _, err := inst.Apply(-1, batch); err != nil {
				t.Fatalf("step %d: Apply: %v", step, err)
			}
			oldG := curH.G
			if r.Intn(2) == 0 {
				oldG = permutedCopy(r, curH).G
			}
			newH := inst.Snapshot().H
			if !cur.Opaque() && r.Intn(2) == 0 {
				cur = roundTrip(t, cur)
			}
			cur, _ = checkPatchMatchesCompile(t, r, qs, cur, oldG, newH, opts, 2, true)
			if cur == nil {
				return
			}
			curH = newH
		}
	})
}
