package core

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
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
// batch stays valid when instance.Apply replays it sequentially.
func randDeltaBatch(r *rand.Rand, g *graph.Graph, labels []graph.Label) []instance.Delta {
	type pe struct{ from, to graph.Vertex }
	present := map[pe]bool{}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		present[pe{e.From, e.To}] = true
	}
	n := g.NumVertices()
	var out []instance.Delta
	for k := 1 + r.Intn(3); k > 0; k-- {
		switch r.Intn(3) {
		case 0: // set_prob
			var live []pe
			for p, ok := range present {
				if ok {
					live = append(live, p)
				}
			}
			if len(live) == 0 {
				continue
			}
			p := live[r.Intn(len(live))]
			out = append(out, instance.Delta{Op: instance.OpSetProb, From: p.from, To: p.to, Prob: gen.RandRat(r)})
		case 1: // add_edge
			u, v := graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))
			if u == v || present[pe{u, v}] {
				continue
			}
			present[pe{u, v}] = true
			out = append(out, instance.Delta{Op: instance.OpAddEdge, From: u, To: v,
				Label: gen.RandLabel(r, labels), Prob: gen.RandRat(r)})
		case 2: // remove_edge
			var live []pe
			for p, ok := range present {
				if ok {
					live = append(live, p)
				}
			}
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
				batch := randDeltaBatch(r, inst.Snapshot().H.G, nil)
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

// TestPatchCompileSplicesOnlyTouchedComponent pins the copy-on-write
// seam directly: deleting one edge of a three-path ⊔2WP instance
// recompiles the split component only — every untouched part of the new
// composite shares its compiled interval system pointer with the old
// plan.
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
	oldParts := old.tree.(plan.Components).Parts
	newParts := cp.tree.(plan.Components).Parts
	if len(oldParts) != 3 || len(newParts) != 4 {
		t.Fatalf("parts = %d -> %d, want 3 -> 4", len(oldParts), len(newParts))
	}
	// New components in order: {0,1,2} (intact), {3} (split), {4,5}
	// (split), {6,7,8} (intact). Intact parts must share their compiled
	// systems with the old plan's parts 0 and 2.
	if newParts[0].(plan.Interval).System != oldParts[0].(plan.Interval).System {
		t.Error("untouched component 0 was recompiled")
	}
	if newParts[3].(plan.Interval).System != oldParts[2].(plan.Interval).System {
		t.Error("untouched component 2 was recompiled")
	}
	if newParts[1].(plan.Interval).System == oldParts[1].(plan.Interval).System ||
		newParts[2].(plan.Interval).System == oldParts[1].(plan.Interval).System {
		t.Error("split component still shares the stale compiled system")
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
// component is intact and the whole composite is carried over
// copy-on-write.
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
	oldParts := old.tree.(plan.Components).Parts
	newParts := cp.tree.(plan.Components).Parts
	for i := range oldParts {
		if newParts[i].(plan.Interval).System != oldParts[i].(plan.Interval).System {
			t.Errorf("part %d recompiled on a probability-only delta", i)
		}
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
// newH's probabilities plus reweights random probability vectors. It
// returns the patched plan (nil when both sides failed alike) and
// whether the splice path ran.
func checkPatchMatchesCompile(t *testing.T, r *rand.Rand, q *graph.Graph, old *CompiledPlan, oldG *graph.Graph, newH *graph.ProbGraph, opts *Options, reweights int) (*CompiledPlan, bool) {
	t.Helper()
	patched, incremental, perr := PatchCompile(q, old, oldG, newH, opts)
	scratch, serr := Compile(q, newH, opts)
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
	return patched, incremental
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
		if _, incremental := checkPatchMatchesCompile(t, r, q, old, g, inst.Snapshot().H, nil, 4); incremental {
			spliced++
		}
	}
	if spliced == 0 {
		t.Fatal("no case took the splice path; the test is vacuous")
	}
}

// FuzzPatchCompileMatchesCompile drives PatchCompile with random delta
// streams on the tractable union families and the fallback-exercising
// random models, where before every step the graph handed in as oldG is
// (at random) an edge-permuted copy of the graph the old plan was
// compiled on. Every patched plan must agree with CompileContext.
func FuzzPatchCompileMatchesCompile(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed, uint8(seed), uint8(3))
	}
	fams := []gen.Family{gen.FamU2WP, gen.FamUDWT, gen.FamUPT, gen.FamER, gen.FamBA}
	opts := &Options{BruteForceLimit: 12}
	f.Fuzz(func(t *testing.T, seed int64, fam, steps uint8) {
		r := rand.New(rand.NewSource(seed))
		g := gen.RandFamily(r, fams[int(fam)%len(fams)], 5+r.Intn(7), nil)
		if g.NumEdges() == 0 {
			return
		}
		h := graph.NewProbGraph(g)
		for i, p := range openProbs(r, g.NumEdges()) {
			h.SetProb(i, p)
		}
		q := gen.RandWalkQuery(r, g, 2)
		if q == nil || q.NumEdges() == 0 {
			return
		}
		cur, err := Compile(q, h, opts)
		if err != nil {
			return // past the fallback budget: nothing to patch
		}
		inst, err := instance.New("fuzz", h)
		if err != nil {
			t.Fatalf("instance.New: %v", err)
		}
		curH := h
		for step := 0; step < 1+int(steps)%4; step++ {
			batch := randDeltaBatch(r, curH.G, nil)
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
			cur, _ = checkPatchMatchesCompile(t, r, q, cur, oldG, newH, opts, 2)
			if cur == nil {
				return
			}
			curH = newH
		}
	})
}
