package core

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/betadnf"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/instance"
	"phom/internal/lineage"
	"phom/internal/plan"
)

// intervalInstance draws a 2WP instance of about n vertices, split into
// k components (k = 1: a single 2WP).
func intervalInstance(r *rand.Rand, n, k int, labels []graph.Label) *graph.ProbGraph {
	parts := make([]*graph.Graph, k)
	for i := range parts {
		parts[i] = gen.Rand2WP(r, n/k, labels)
	}
	g, _ := graph.DisjointUnion(parts...)
	return gen.RandProb(r, g, 0)
}

// TestIntervalOpsDoubling pins the size of the Proposition 4.11
// program: at a fixed query it grows linearly in the instance, so eight
// times the vertices may cost at most ten times the ops. Emitting
// absorbed (non-minimal) clauses widens the interval DP with the gap
// between matches, which is what this catches on the labeled rows.
func TestIntervalOpsDoubling(t *testing.T) {
	rs := []graph.Label{"R", "S"}
	un := []graph.Label{graph.Unlabeled}
	rows := []struct {
		name   string
		q      *graph.Graph
		labels []graph.Label
		k      int
	}{
		{"labeled 2WP", graph.Path2WP(graph.Fwd("R"), graph.Bwd("S"), graph.Fwd("R")), rs, 1},
		{"labeled ⊔2WP", graph.Path2WP(graph.Fwd("R"), graph.Bwd("S"), graph.Fwd("R")), rs, 4},
		{"unlabeled 2WP", graph.Path2WP(graph.Fwd("_"), graph.Fwd("_"), graph.Bwd("_")), un, 1},
		{"unlabeled ⊔2WP", graph.Path2WP(graph.Fwd("_"), graph.Fwd("_"), graph.Bwd("_")), un, 4},
	}
	const n = 256
	for _, row := range rows {
		ops := func(size int) int {
			h := intervalInstance(rand.New(rand.NewSource(int64(size))), size, row.k, row.labels)
			cp, err := Compile(row.q, h, nil)
			if err != nil {
				t.Fatalf("%s n=%d: %v", row.name, size, err)
			}
			if m, _ := cp.Method(); m != MethodXProperty2WP {
				t.Fatalf("%s n=%d: method %v", row.name, size, m)
			}
			return cp.Program().NumOps()
		}
		small, large := ops(n), ops(8*n)
		t.Logf("%s: ops %d at n=%d, %d at n=%d (×%.1f)", row.name, small, n, large, 8*n, float64(large)/float64(small))
		if large > 10*small {
			t.Errorf("%s: ops(%d) = %d > 10 × ops(%d) = %d: the program is not linear in the instance",
				row.name, 8*n, large, n, 10*small)
		}
	}
}

// intervalEmitter loads interval-system variables (path positions)
// from instance edges.
type intervalEmitter struct {
	*plan.Builder
	edgeAt []int
}

func (e intervalEmitter) Load(v int) uint32 { return e.Builder.Load(e.edgeAt[v]) }

// twoPointerClauses is the clause set Proposition 4.11 compiles emitted
// before only inclusion-minimal clauses were kept: for each left end i
// the least right end j with q ⇝ [i, j], including the windows that
// [i+1, j] absorbs. It decides each window with the generic search on
// the induced subpath.
func twoPointerClauses(q *graph.Graph, g *graph.Graph) (*betadnf.IntervalSystem, []int) {
	order, edgeAt, err := lineage.PathOrder(g)
	if err != nil {
		panic(err)
	}
	n := len(order)
	sys := &betadnf.IntervalSystem{NumVars: n - 1}
	j := 0
	for i := 0; i < n; i++ {
		j = max(j, i)
		for j < n {
			sub, _ := g.InducedSubgraph(order[i : j+1])
			if graph.HasHomomorphism(q, sub) {
				break
			}
			j++
		}
		if j == n {
			break
		}
		sys.Clauses = append(sys.Clauses, betadnf.Interval{Lo: i, Hi: j - 1})
	}
	return sys, edgeAt
}

// TestLongerClausePlanSplices: a ⊔2WP plan compiled from the absorbed
// clause set of earlier releases (a longer program for the same
// lineage) still round-trips through bytes, splices after a delta
// confined to one component, and answers RatString-identically to a
// fresh compile. The spliced program replays the old, longer factor
// slices, so it computes the same values through a different DAG.
func TestLongerClausePlanSplices(t *testing.T) {
	q := graph.Path2WP(graph.Fwd("R"), graph.Bwd("S"))
	r := rand.New(rand.NewSource(9))
	longer := 0
	for trial := 0; trial < 6; trial++ {
		parts := make([]*graph.Graph, 4)
		for i := range parts {
			parts[i] = gen.Rand2WP(r, 12, []graph.Label{"R", "S"})
		}
		g, _ := graph.DisjointUnion(parts...)
		h := graph.NewProbGraph(g)
		for i, p := range openProbs(r, g.NumEdges()) {
			h.SetProb(i, p)
		}
		fresh, err := Compile(q, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m, _ := fresh.Method(); m != MethodXProperty2WP {
			t.Fatalf("method %v", m)
		}
		part := g.Partition()
		b := plan.NewBuilder(context.Background(), g.NumEdges())
		out, factors, err := plan.Compose(b, len(part.Comps), func(ci int) (uint32, error) {
			sys, edgeAt := twoPointerClauses(q, h.Component(part, ci).G)
			for k, ei := range edgeAt {
				edgeAt[k] = part.Edges[ci][ei]
			}
			return sys.EmitOps(intervalEmitter{b, edgeAt})
		})
		if err != nil {
			t.Fatal(err)
		}
		old, err := seal(MethodXProperty2WP, b, out, factors, planKey(UCQ{q}, g, nil))
		if err != nil {
			t.Fatal(err)
		}
		if old.Program().NumOps() > fresh.Program().NumOps() {
			longer++
		}
		restored := roundTrip(t, old)
		for _, probs := range [][]*big.Rat{h.Probs(), openProbs(r, g.NumEdges())} {
			a, err1 := restored.Evaluate(context.Background(), probs, nil)
			b, err2 := fresh.Evaluate(context.Background(), probs, nil)
			if err1 != nil || err2 != nil {
				t.Fatalf("evaluate: %v / %v", err1, err2)
			}
			if a.Prob.RatString() != b.Prob.RatString() {
				t.Fatalf("restored %s != fresh %s", a.Prob.RatString(), b.Prob.RatString())
			}
		}
		inst, err := instance.New("longer", h)
		if err != nil {
			t.Fatal(err)
		}
		e := g.Edge(part.Edges[1][0])
		if _, err := inst.Apply(-1, []instance.Delta{{Op: instance.OpRemoveEdge, From: e.From, To: e.To}}); err != nil {
			t.Fatal(err)
		}
		if _, incremental := checkPatchMatchesCompile(t, r, UCQ{q}, restored, g, inst.Snapshot().H, nil, 4, false); !incremental {
			t.Fatalf("trial %d: the restored plan did not splice", trial)
		}
	}
	if longer == 0 {
		t.Fatal("no trial drew an absorbed clause: the old clause set was never longer")
	}
}
