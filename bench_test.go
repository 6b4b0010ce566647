// Benchmarks regenerating every table and figure of the paper; see the
// experiment index (E1–E21) and the recorded results in EXPERIMENTS.md.
// Run with:
//
//	go test -bench=. -benchmem
//
// PTIME cells are benchmarked by running the dispatched polynomial-time
// algorithm on seeded random instances of the cell; #P-hard cells by
// executing the paper's reduction and the exponential exact baseline.
package phom

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/betadnf"
	"phom/internal/core"
	"phom/internal/counting"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/lineage"
	"phom/internal/plan"
	"phom/internal/reductions"
	"phom/internal/treeauto"
	"phom/internal/xprop"
)

var sink *big.Rat // prevents dead-code elimination

// solveCell benchmarks the dispatched solver on one classification cell.
func solveCell(b *testing.B, qc, ic graph.Class, labeled bool, qSize, iSize int) {
	b.Helper()
	labels := []graph.Label{graph.Unlabeled}
	if labeled {
		labels = []graph.Label{"R", "S"}
	}
	r := rand.New(rand.NewSource(1))
	q := gen.RandInClass(r, qc, qSize, labels)
	h := gen.RandProb(r, gen.RandInClass(r, ic, iSize, labels), 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Solve(q, h, &core.Options{DisableFallback: true})
		if err != nil {
			b.Fatal(err)
		}
		sink = res.Prob
	}
}

// bruteCell benchmarks the exponential baseline on a hard cell.
func bruteCell(b *testing.B, qc, ic graph.Class, labeled bool, iSize int) {
	b.Helper()
	labels := []graph.Label{graph.Unlabeled}
	if labeled {
		labels = []graph.Label{"R", "S"}
	}
	r := rand.New(rand.NewSource(1))
	q := gen.RandInClass(r, qc, 4, labels)
	h := gen.RandProb(r, gen.RandInClass(r, ic, iSize, labels), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := core.BruteForceLimit(q, h, 0)
		if err != nil {
			b.Fatal(err)
		}
		sink = p
	}
}

// planPair compiles one representative structural plan (Prop 5.4: the
// circuit-backed cell, where the interpreter-vs-tree contrast is
// largest) and a reweighted probability vector for the IR benchmarks.
func planPair(b *testing.B) (*core.CompiledPlan, []*big.Rat) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	un := []graph.Label{graph.Unlabeled}
	q := gen.RandDWT(r, 4, un)
	h := gen.RandProb(r, gen.RandInClass(r, graph.ClassUPT, 128, un), 0.5)
	cp, err := core.Compile(q, h, &core.Options{DisableFallback: true})
	if err != nil {
		b.Fatal(err)
	}
	probs := make([]*big.Rat, h.G.NumEdges())
	for i := range probs {
		probs[i] = big.NewRat(int64(1+r.Intn(16)), 17)
	}
	return cp, probs
}

// ---- E21: the flattened evaluation IR ----

func BenchmarkE21_ProgramExec(b *testing.B) {
	cp, probs := planPair(b)
	prog := cp.Program()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := prog.ExecCtx(ctx, probs)
		if err != nil {
			b.Fatal(err)
		}
		sink = p
	}
}

// ---- E1: Table 1 (unlabeled, disconnected queries) ----

func BenchmarkTable1_U1WP_on_PT_ptime(b *testing.B) {
	solveCell(b, graph.ClassU1WP, graph.ClassPT, false, 6, 512)
}
func BenchmarkTable1_UDWT_on_PT_ptime(b *testing.B) {
	solveCell(b, graph.ClassUDWT, graph.ClassPT, false, 8, 512)
}
func BenchmarkTable1_All_on_DWT_ptime(b *testing.B) {
	solveCell(b, graph.ClassAll, graph.ClassDWT, false, 10, 512)
}
func BenchmarkTable1_U2WP_on_2WP_hard(b *testing.B) {
	bruteCell(b, graph.ClassU2WP, graph.Class2WP, false, 12)
}
func BenchmarkTable1_U1WP_on_Conn_hard(b *testing.B) {
	bruteCell(b, graph.ClassU1WP, graph.ClassConnected, false, 12)
}

// ---- E2: Table 2 (labeled, connected queries) ----

func BenchmarkTable2_1WP_on_DWT_ptime(b *testing.B) {
	solveCell(b, graph.Class1WP, graph.ClassDWT, true, 5, 512)
}
func BenchmarkTable2_Conn_on_2WP_ptime(b *testing.B) {
	solveCell(b, graph.ClassConnected, graph.Class2WP, true, 5, 512)
}
func BenchmarkTable2_1WP_on_PT_hard(b *testing.B) {
	bruteCell(b, graph.Class1WP, graph.ClassPT, true, 12)
}
func BenchmarkTable2_2WP_on_DWT_hard(b *testing.B) {
	bruteCell(b, graph.Class2WP, graph.ClassDWT, true, 12)
}
func BenchmarkTable2_DWT_on_DWT_hard(b *testing.B) {
	bruteCell(b, graph.ClassDWT, graph.ClassDWT, true, 12)
}

// ---- E3: Table 3 (unlabeled, connected queries) ----

func BenchmarkTable3_1WP_on_PT_ptime(b *testing.B) {
	solveCell(b, graph.Class1WP, graph.ClassPT, false, 6, 512)
}
func BenchmarkTable3_DWT_on_PT_ptime(b *testing.B) {
	solveCell(b, graph.ClassDWT, graph.ClassPT, false, 8, 512)
}
func BenchmarkTable3_Conn_on_DWT_ptime(b *testing.B) {
	solveCell(b, graph.ClassConnected, graph.ClassDWT, false, 8, 512)
}
func BenchmarkTable3_Conn_on_2WP_ptime(b *testing.B) {
	solveCell(b, graph.ClassConnected, graph.Class2WP, false, 5, 512)
}
func BenchmarkTable3_2WP_on_PT_hard(b *testing.B) {
	bruteCell(b, graph.Class2WP, graph.ClassPT, false, 12)
}

// ---- E4: Figure 1 + Example 2.2 ----

func BenchmarkFig1_Example22(b *testing.B) {
	q := New(4)
	q.MustAddEdge(0, 1, "R")
	q.MustAddEdge(1, 2, "S")
	q.MustAddEdge(3, 2, "S")
	g := New(4)
	g.MustAddEdge(0, 1, "R")
	g.MustAddEdge(0, 2, "R")
	g.MustAddEdge(1, 2, "R")
	g.MustAddEdge(1, 3, "R")
	g.MustAddEdge(0, 3, "R")
	g.MustAddEdge(2, 3, "S")
	h := NewProbGraph(g)
	h.MustSetEdgeProb(0, 2, Rat("0.1"))
	h.MustSetEdgeProb(1, 2, Rat("0.8"))
	h.MustSetEdgeProb(1, 3, Rat("0.1"))
	h.MustSetEdgeProb(0, 3, Rat("0.05"))
	h.MustSetEdgeProb(2, 3, Rat("0.7"))
	want := Rat("0.574")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := BruteForce(q, h)
		if p.Cmp(want) != 0 {
			b.Fatalf("Example 2.2 = %s, want 0.574", p.RatString())
		}
		sink = p
	}
}

// ---- E5: Figure 2 (inclusion lattice) ----

func BenchmarkFig2_Inclusions(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	graphs := make([]*Graph, 64)
	for i := range graphs {
		graphs[i] = gen.RandInClass(r, AllClasses[r.Intn(len(AllClasses))], 1+r.Intn(8), []Label{"R", "S"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graphs[i%len(graphs)]
		for _, a := range AllClasses {
			for _, bb := range AllClasses {
				if ClassIncluded(a, bb) && g.InClass(a) && !g.InClass(bb) {
					b.Fatal("inclusion lattice violated")
				}
			}
		}
	}
}

// ---- E6: Figures 3/4 (class examples) ----

func BenchmarkFig34_Classes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig3top := Path1WP("R", "S", "S", "T")
		fig3bot := Path2WP(Fwd("R"), Bwd("S"), Fwd("S"), Bwd("T"), Fwd("R"))
		if !fig3top.Is1WP() || !fig3bot.Is2WP() {
			b.Fatal("Figure 3 shapes misclassified")
		}
	}
}

// ---- E7: Figure 5 + Prop 3.3 (#Bipartite-Edge-Cover) ----

func BenchmarkFig5_EdgeCoverReduction(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	bg := gen.RandBipartite(r, 3, 3, 8)
	want, err := bg.CountEdgeCovers()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red, err := reductions.EdgeCoverLabeled(bg)
		if err != nil {
			b.Fatal(err)
		}
		p := BruteForce(red.Query, red.Instance)
		if red.CountFromProb(p).Cmp(want) != 0 {
			b.Fatal("edge-cover identity violated")
		}
		sink = p
	}
}

// ---- E8: Figure 6 (graded DAGs) ----

func BenchmarkFig6_GradedDAG(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g := gen.RandGradedDAG(r, 2048, 6000, 6, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.DifferenceOfLevels(); !ok {
			b.Fatal("constructed graded DAG not graded")
		}
	}
}

// ---- E9/E10: Figures 7/8 + Props 4.1/5.6 (#PP2DNF) ----

func benchPP2DNF(b *testing.B, build func(*counting.PP2DNF) (*reductions.Reduction, error)) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	f := gen.RandPP2DNF(r, 4, 4, 6)
	want, err := f.CountSatisfying()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red, err := build(f)
		if err != nil {
			b.Fatal(err)
		}
		p := BruteForce(red.Query, red.Instance)
		if red.CountFromProb(p).Cmp(want) != 0 {
			b.Fatal("PP2DNF identity violated")
		}
		sink = p
	}
}

func BenchmarkFig7_PP2DNFLabeled(b *testing.B)   { benchPP2DNF(b, reductions.PP2DNFLabeled) }
func BenchmarkFig8_PP2DNFUnlabeled(b *testing.B) { benchPP2DNF(b, reductions.PP2DNFUnlabeled) }

// ---- E11: Prop 3.4 (label simulation) ----

func BenchmarkProp34_LabelSimulation(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	bg := gen.RandBipartite(r, 2, 2, 4)
	want, err := bg.CountEdgeCovers()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red, err := reductions.EdgeCoverUnlabeled(bg)
		if err != nil {
			b.Fatal(err)
		}
		p := BruteForce(red.Query, red.Instance)
		if red.CountFromProb(p).Cmp(want) != 0 {
			b.Fatal("unlabeled edge-cover identity violated")
		}
		sink = p
	}
}

// ---- E12–E17: per-proposition scaling ----

func benchScaling(b *testing.B, qc, ic graph.Class, labeled bool, qSize int) {
	b.Helper()
	for _, n := range []int{128, 512, 2048} {
		n := n
		b.Run(sizeName(n), func(b *testing.B) {
			solveCell(b, qc, ic, labeled, qSize, n)
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 128:
		return "n=128"
	case 512:
		return "n=512"
	default:
		return "n=2048"
	}
}

func BenchmarkProp36_AllOnDWT(b *testing.B) {
	benchScaling(b, graph.ClassAll, graph.ClassUDWT, false, 10)
}
func BenchmarkProp410_PathOnTree(b *testing.B) {
	benchScaling(b, graph.Class1WP, graph.ClassDWT, true, 5)
}
func BenchmarkProp411_ConnectedOn2WP(b *testing.B) {
	benchScaling(b, graph.ClassConnected, graph.Class2WP, true, 5)
}
func BenchmarkProp54_PathOnPolytree(b *testing.B) {
	benchScaling(b, graph.Class1WP, graph.ClassPT, false, 6)
}
func BenchmarkProp55_TreeQueryNormalize(b *testing.B) {
	benchScaling(b, graph.ClassDWT, graph.ClassPT, false, 10)
}
func BenchmarkLemma37_DisconnectedInstances(b *testing.B) {
	benchScaling(b, graph.Class1WP, graph.ClassUPT, false, 5)
}

// ---- E18: ablations ----

// BenchmarkAblation_DDNNFPipeline vs BenchmarkAblation_DirectDP: the cost
// of materializing the d-DNNF circuit against the direct state-
// distribution DP of Proposition 5.4.
func ablationPolytree() *graph.ProbGraph {
	r := rand.New(rand.NewSource(1))
	return gen.RandProb(r, gen.RandPolytree(r, 512, nil), 0.5)
}

func BenchmarkAblation_DDNNFPipeline(b *testing.B) {
	h := ablationPolytree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := treeauto.PathProbPolytree(h, 6)
		if err != nil {
			b.Fatal(err)
		}
		sink = p
	}
}

func BenchmarkAblation_DirectDP(b *testing.B) {
	h := ablationPolytree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := treeauto.PathProbPolytreeDirect(h, 6)
		if err != nil {
			b.Fatal(err)
		}
		sink = p
	}
}

// BenchmarkAblation_BruteForce vs Lineage: the two exponential baselines
// on a sparse-match instance (16 coins).
func ablationSparse() (*Graph, *graph.ProbGraph) {
	r := rand.New(rand.NewSource(1))
	q := gen.Rand1WP(r, 4, []Label{"R", "S"})
	h := gen.RandProb(r, gen.RandDWT(r, 17, []Label{"R", "S"}), 0)
	return q, h
}

func BenchmarkAblation_BruteForce(b *testing.B) {
	q, h := ablationSparse()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := core.BruteForceLimit(q, h, 0)
		if err != nil {
			b.Fatal(err)
		}
		sink = p
	}
}

func BenchmarkAblation_LineageShannon(b *testing.B) {
	q, h := ablationSparse()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := core.LineageShannon(q, h, 0)
		if err != nil {
			b.Fatal(err)
		}
		sink = p
	}
}

// BenchmarkAblation_ACHom vs Backtracking: the X-property homomorphism
// test against generic backtracking on 2WP instances.
func ablationXprop() (*Graph, *Graph) {
	r := rand.New(rand.NewSource(1))
	q := gen.RandInClass(r, graph.ClassConnected, 6, []Label{"R", "S"})
	h := gen.Rand2WP(r, 256, []Label{"R", "S"})
	return q, h
}

func BenchmarkAblation_ACHom(b *testing.B) {
	q, h := ablationXprop()
	order := xprop.IdentityOrder(h.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xprop.HasHomomorphism(q, h, order)
	}
}

func BenchmarkAblation_BacktrackingHom(b *testing.B) {
	q, h := ablationXprop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HasHomomorphism(q, h)
	}
}

// BenchmarkAblation_RatDP vs FloatDP: exact rational arithmetic in the
// Proposition 4.10 chain DP vs the certified float kernel (one lane of
// ExecFloatBatchCtx) on the same job's lowered program.
func ablationChain() (*betadnf.ChainSystem, []*big.Rat, *plan.Program, []*big.Rat) {
	r := rand.New(rand.NewSource(1))
	q := gen.Rand1WP(r, 5, []Label{"R", "S"})
	h := gen.RandProb(r, gen.RandDWT(r, 2048, []Label{"R", "S"}), 0.5)
	lin, err := lineage.Path1WPOnDWT(q, h)
	if err != nil {
		panic(err)
	}
	cp, err := core.Compile(q, h, nil)
	if err != nil {
		panic(err)
	}
	return lin.System, lin.Probs, cp.Program(), h.Probs()
}

func BenchmarkAblation_RatDP(b *testing.B) {
	sys, probs, _, _ := ablationChain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sys.Prob(probs)
		if err != nil {
			b.Fatal(err)
		}
		sink = p
	}
}

func BenchmarkAblation_FloatDP(b *testing.B) {
	_, _, prog, probs := ablationChain()
	lanes := [][]*big.Rat{probs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.ExecFloatBatchCtx(context.Background(), lanes); err != nil {
			b.Fatal(err)
		}
	}
}
