package plan

import (
	"fmt"
	"math/big"

	"phom/internal/betadnf"
	"phom/internal/graph"
	"phom/internal/lineage"
	"phom/internal/treeauto"
)

// This file hosts the per-cell compilers: for every tractable cell of
// Tables 1–3 they run the structural phase of the cell's algorithm on
// one connected component of the instance and emit that component's
// probability into a Builder, loading from the full instance edge list.
// Probabilities are never read — the instance serves purely as the
// structural template — so the program they build can be evaluated
// against any probability assignment on the same structure. The
// dispatching between cells stays in package core (the guard table of
// core.CompileUCQ), which owns the classification logic.
//
// A whole-instance program is Lemma 3.7 composition: Compose emits one
// part per connected component and combines them. The parts are also
// the seam of incremental maintenance (core.PatchCompile): an edge
// delta confined to one component recompiles only that component's
// part and replays every other part out of the old program.

// PartFunc emits one connected component's probability p_i into b and
// returns its handle: comp is the component as a probabilistic graph,
// edgeMap maps its edge indices into the full instance edge list (the
// edges b loads).
type PartFunc func(b *Builder, comp *graph.ProbGraph, edgeMap []int) (uint32, error)

// Compose emits the Lemma 3.7 composite of n components into b:
// 1 − Π_i (1 − p_i), where part(i) emits p_i. It returns the output
// handle and the factor handles f_i = 1 − p_i, in component order, from
// which Builder.FinishParts derives the plan's part table.
func Compose(b *Builder, n int, part func(i int) (uint32, error)) (out uint32, factors []uint32, err error) {
	miss := b.One()
	factors = make([]uint32, n)
	for i := range factors {
		p, err := part(i)
		if err != nil {
			return 0, nil, err
		}
		factors[i] = b.OneMinus(p)
		miss = b.Mul(miss, factors[i])
	}
	return b.OneMinus(miss), factors, nil
}

// Part1WPOnDWT emits one DWT component's chain part of
// Proposition 4.10, lifted to the union of the labeled 1WP queries qs
// (at least one): each disjunct's β-acyclic chain lineage on comp,
// merged by keeping the shortest clause per node (absorption), with
// node→edge references mapped through edgeMap into the full instance
// edge list.
func Part1WPOnDWT(b *Builder, qs []*graph.Graph, comp *graph.ProbGraph, edgeMap []int) (uint32, error) {
	var merged *betadnf.ChainSystem
	var nodeEdge []int
	for _, q := range qs {
		lin, err := lineage.Path1WPOnDWT(q, comp)
		if err != nil {
			return 0, err
		}
		if merged == nil {
			// Parent and ParentEdge are instance-side, identical across
			// disjuncts: take them from the first.
			merged = &betadnf.ChainSystem{
				Parent:   lin.System.Parent,
				ChainLen: append([]int(nil), lin.System.ChainLen...),
			}
			nodeEdge = mapEdges(lin.ParentEdge, edgeMap)
			continue
		}
		for v, l := range lin.System.ChainLen {
			if l != 0 && (merged.ChainLen[v] == 0 || l < merged.ChainLen[v]) {
				merged.ChainLen[v] = l
			}
		}
	}
	cc, err := merged.Compile()
	if err != nil {
		return 0, err
	}
	return cc.EmitOps(&edgeMapEmitter{b: b, varEdge: nodeEdge, rootIsOne: true})
}

// PartConnectedOn2WP emits one 2WP component's interval part of
// Proposition 4.11, lifted to the union of the connected queries qs
// (at least one): the union of the disjuncts' interval lineages is
// itself an interval system over the component's path order.
func PartConnectedOn2WP(b *Builder, qs []*graph.Graph, comp *graph.ProbGraph, edgeMap []int) (uint32, error) {
	merged := &betadnf.IntervalSystem{NumVars: comp.G.NumVertices() - 1}
	var varEdge []int
	for _, q := range qs {
		lin, err := lineage.ConnectedOn2WP(q, comp)
		if err != nil {
			return 0, err
		}
		merged.Clauses = append(merged.Clauses, lin.System.Clauses...)
		if varEdge == nil {
			// EdgeAt is instance-side (the component's path order),
			// identical across disjuncts: map it once.
			varEdge = mapEdges(lin.EdgeAt, edgeMap)
		}
	}
	return merged.EmitOps(&edgeMapEmitter{b: b, varEdge: varEdge})
}

// PartDirectedPathOnDWT emits one DWT component's chain part of
// Proposition 3.6's workhorse: the chain system deciding whether a
// world of comp contains a directed path of m (> 0) edges. The
// probability inputs are lifted out of the per-component structure
// (parents, depths, chain clauses) into the node→edge loads.
func PartDirectedPathOnDWT(b *Builder, comp *graph.ProbGraph, m int, edgeMap []int) (uint32, error) {
	g := comp.G
	if !g.IsDWT() {
		return 0, fmt.Errorf("plan: PartDirectedPathOnDWT needs a DWT component")
	}
	n := g.NumVertices()
	parent := make([]int, n)
	chain := make([]int, n)
	nodeEdge := make([]int, n)
	depth := make([]int, n)
	order, _ := g.TopologicalOrder() // a DWT is a DAG
	for v := 0; v < n; v++ {
		parent[v] = -1
		nodeEdge[v] = -1
	}
	for _, v := range order {
		if in := g.InEdges(v); len(in) == 1 {
			e := g.Edge(in[0])
			parent[v] = int(e.From)
			nodeEdge[v] = in[0]
			depth[v] = depth[e.From] + 1
		}
		if depth[v] >= m {
			chain[v] = m
		}
	}
	cc, err := (&betadnf.ChainSystem{Parent: parent, ChainLen: chain}).Compile()
	if err != nil {
		return 0, err
	}
	return cc.EmitOps(&edgeMapEmitter{b: b, varEdge: mapEdges(nodeEdge, edgeMap), rootIsOne: true})
}

// PartDirectedPathOnPolytree emits one polytree component's d-DNNF
// circuit part of Proposition 5.4 for the unlabeled path query →^m
// (m > 0).
func PartDirectedPathOnPolytree(b *Builder, comp *graph.ProbGraph, m int, edgeMap []int) (uint32, error) {
	root, err := treeauto.Encode(comp)
	if err != nil {
		return 0, err
	}
	a := &treeauto.Automaton{M: m}
	c, out := a.CompileLineage(root, comp.G.NumEdges())
	return c.EmitOps(out, &edgeMapEmitter{b: b, varEdge: edgeMap})
}

// mapEdges rewrites component-local edge indices to indices into the
// full instance edge list, preserving the −1 "no edge" sentinel.
func mapEdges(local, toGlobal []int) []int {
	out := make([]int, len(local))
	for i, ei := range local {
		if ei < 0 {
			out[i] = -1
		} else {
			out[i] = toGlobal[ei]
		}
	}
	return out
}

// The substrate dynamic programs own their arithmetic (betadnf and
// ddnnf EmitOps); the adapter here contributes only the
// variable-to-edge indirection, so the emitted ops load straight from
// the instance probability vector.

// edgeMapEmitter adapts a Builder to the OpEmitter interfaces of
// betadnf and ddnnf (structurally identical), translating substrate
// variable indices to instance edge indices through varEdge. When
// rootIsOne is set, a negative mapping loads the constant 1 (chain
// roots have no edge above them); otherwise it is an error, recorded
// sticky on the builder.
type edgeMapEmitter struct {
	b         *Builder
	varEdge   []int
	rootIsOne bool
}

func (m *edgeMapEmitter) Load(v int) uint32 {
	if v < 0 || v >= len(m.varEdge) {
		m.b.fail(fmt.Errorf("plan: lowering references variable %d of %d", v, len(m.varEdge)))
		return 0
	}
	ei := m.varEdge[v]
	if ei < 0 {
		if m.rootIsOne {
			return m.b.One()
		}
		m.b.fail(fmt.Errorf("plan: lowering references unmapped variable %d", v))
		return 0
	}
	return m.b.Load(ei)
}

func (m *edgeMapEmitter) Const(v *big.Rat) uint32  { return m.b.Const(v) }
func (m *edgeMapEmitter) Failed() bool             { return m.b.Failed() }
func (m *edgeMapEmitter) Mul(a, b uint32) uint32   { return m.b.Mul(a, b) }
func (m *edgeMapEmitter) Add(a, b uint32) uint32   { return m.b.Add(a, b) }
func (m *edgeMapEmitter) OneMinus(a uint32) uint32 { return m.b.OneMinus(a) }
