package plan

import (
	"fmt"

	"phom/internal/betadnf"
	"phom/internal/graph"
	"phom/internal/lineage"
	"phom/internal/treeauto"
)

// This file hosts the per-cell compilers: for every tractable cell of
// Tables 1–3 they run the structural phase of the cell's algorithm on
// one connected component of the instance and return that component's
// Plan over the full instance edge list. Probabilities are never read —
// the instance serves purely as the structural template — so a compiled
// plan can be evaluated against any probability assignment on the same
// structure. The dispatching between cells stays in package core (the
// guard table of core.CompileUCQ), which owns the classification logic.
//
// A whole-instance plan is Lemma 3.7 composition: Compose calls one
// PartFunc per connected component and wraps the parts in a Components
// composite. The Part* compilers are also the seam of incremental
// maintenance (core.PatchCompile): an edge delta confined to one
// component recompiles only that component's part and splices it into
// the existing composite.

// PartFunc compiles one connected component's part of a cell's plan:
// comp is the component as a probabilistic graph, edgeMap maps its edge
// indices into the full instance edge list.
type PartFunc func(comp *graph.ProbGraph, edgeMap []int) (Plan, error)

// Compose compiles the Lemma 3.7 composite of h: one part per connected
// component (in ComponentsWithEdges order), combined by Components.
func Compose(h *graph.ProbGraph, part PartFunc) (Plan, error) {
	comps, edgeMaps := h.ComponentsWithEdges()
	parts := make([]Plan, len(comps))
	for ci, comp := range comps {
		p, err := part(comp, edgeMaps[ci])
		if err != nil {
			return nil, err
		}
		parts[ci] = p
	}
	return Components{Parts: parts}, nil
}

// Part1WPOnDWT compiles one DWT component's chain part of
// Proposition 4.10, lifted to the union of the labeled 1WP queries qs
// (at least one): each disjunct's β-acyclic chain lineage on comp, merged by keeping
// the shortest clause per node (absorption), with node→edge references
// mapped through edgeMap into the full instance edge list.
func Part1WPOnDWT(qs []*graph.Graph, comp *graph.ProbGraph, edgeMap []int) (Plan, error) {
	var merged *betadnf.ChainSystem
	var nodeEdge []int
	for _, q := range qs {
		lin, err := lineage.Path1WPOnDWT(q, comp)
		if err != nil {
			return nil, err
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
		return nil, err
	}
	return Chain{System: cc, NodeEdge: nodeEdge}, nil
}

// PartConnectedOn2WP compiles one 2WP component's interval part of
// Proposition 4.11, lifted to the union of the connected queries qs
// (at least one): the union of the disjuncts' interval lineages is itself an interval
// system over the component's path order.
func PartConnectedOn2WP(qs []*graph.Graph, comp *graph.ProbGraph, edgeMap []int) (Plan, error) {
	merged := &betadnf.IntervalSystem{NumVars: comp.G.NumVertices() - 1}
	var varEdge []int
	for _, q := range qs {
		lin, err := lineage.ConnectedOn2WP(q, comp)
		if err != nil {
			return nil, err
		}
		merged.Clauses = append(merged.Clauses, lin.System.Clauses...)
		if varEdge == nil {
			// EdgeAt is instance-side (the component's path order),
			// identical across disjuncts: map it once.
			varEdge = mapEdges(lin.EdgeAt, edgeMap)
		}
	}
	return Interval{System: merged, VarEdge: varEdge}, nil
}

// PartDirectedPathOnDWT compiles one DWT component's chain part of
// Proposition 3.6's workhorse: the chain system deciding whether a
// world of comp contains a directed path of m (> 0) edges. The
// probability inputs are lifted out of the per-component structure
// (parents, depths, chain clauses) into the plan's NodeEdge mapping.
func PartDirectedPathOnDWT(comp *graph.ProbGraph, m int, edgeMap []int) (Plan, error) {
	g := comp.G
	if !g.IsDWT() {
		return nil, fmt.Errorf("plan: PartDirectedPathOnDWT needs a DWT component")
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
		return nil, err
	}
	return Chain{System: cc, NodeEdge: mapEdges(nodeEdge, edgeMap)}, nil
}

// PartDirectedPathOnPolytree compiles one polytree component's d-DNNF
// circuit part of Proposition 5.4 for the unlabeled path query →^m
// (m > 0).
func PartDirectedPathOnPolytree(comp *graph.ProbGraph, m int, edgeMap []int) (Plan, error) {
	root, err := treeauto.Encode(comp)
	if err != nil {
		return nil, err
	}
	a := &treeauto.Automaton{M: m}
	c, out := a.CompileLineage(root, comp.G.NumEdges())
	return Circuit{C: c, Out: out, VarEdge: edgeMap}, nil
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

// RemapEdges returns p with every global edge reference i rewritten to
// remap[i], sharing the compiled systems/circuits of p (the returned
// plan is a fresh value over the same immutable structural artifacts —
// copy-on-write). It is how incremental maintenance carries the parts
// of untouched components across a structural delta that renumbers the
// instance's edge list. A reference to an edge with no new index
// (remap[i] < 0) is an error: such a part belongs to a touched
// component and must be recompiled, not remapped. The −1 "no edge"
// sentinel inside a part is preserved.
func RemapEdges(p Plan, remap []int) (Plan, error) {
	apply := func(refs []int) ([]int, error) {
		out := make([]int, len(refs))
		for i, ei := range refs {
			if ei < 0 {
				out[i] = -1
				continue
			}
			if ei >= len(remap) || remap[ei] < 0 {
				return nil, fmt.Errorf("plan: RemapEdges: edge %d has no image", ei)
			}
			out[i] = remap[ei]
		}
		return out, nil
	}
	switch t := p.(type) {
	case Const:
		return t, nil
	case Chain:
		ne, err := apply(t.NodeEdge)
		if err != nil {
			return nil, err
		}
		return Chain{System: t.System, NodeEdge: ne}, nil
	case Interval:
		ve, err := apply(t.VarEdge)
		if err != nil {
			return nil, err
		}
		return Interval{System: t.System, VarEdge: ve}, nil
	case Circuit:
		ve, err := apply(t.VarEdge)
		if err != nil {
			return nil, err
		}
		return Circuit{C: t.C, Out: t.Out, VarEdge: ve}, nil
	case Components:
		parts := make([]Plan, len(t.Parts))
		for i, part := range t.Parts {
			np, err := RemapEdges(part, remap)
			if err != nil {
				return nil, err
			}
			parts[i] = np
		}
		return Components{Parts: parts}, nil
	}
	return nil, fmt.Errorf("plan: RemapEdges: unsupported plan %T", p)
}
