package plan

import (
	"context"
	"math/big"

	"phom/internal/graph"
)

// The whole-instance programs of each cell, as the tests of this
// package compile them: the Lemma 3.7 composite of the cell's part
// compiler over the components of h.

// compose builds the composite program of part over h's components,
// with its part table, in the Builder b (a fresh one when nil).
func compose(b *Builder, h *graph.ProbGraph, part PartFunc) (*Program, []int, error) {
	if b == nil {
		b = NewBuilder(context.Background(), h.G.NumEdges())
	}
	comps, edgeMaps := h.ComponentsWithEdges()
	out, factors, err := Compose(b, len(comps), func(i int) (uint32, error) {
		return part(b, comps[i], edgeMaps[i])
	})
	if err != nil {
		return nil, nil, err
	}
	return b.FinishParts(out, factors)
}

func dwtPaths(b *Builder, h *graph.ProbGraph, m int) (*Program, []int, error) {
	return compose(b, h, func(b *Builder, comp *graph.ProbGraph, em []int) (uint32, error) {
		return PartDirectedPathOnDWT(b, comp, m, em)
	})
}

func polytreePaths(b *Builder, h *graph.ProbGraph, m int) (*Program, []int, error) {
	return compose(b, h, func(b *Builder, comp *graph.ProbGraph, em []int) (uint32, error) {
		return PartDirectedPathOnPolytree(b, comp, m, em)
	})
}

func chains(qs []*graph.Graph, h *graph.ProbGraph) (*Program, []int, error) {
	return compose(nil, h, func(b *Builder, comp *graph.ProbGraph, em []int) (uint32, error) {
		return Part1WPOnDWT(b, qs, comp, em)
	})
}

func intervals(qs []*graph.Graph, h *graph.ProbGraph) (*Program, []int, error) {
	return compose(nil, h, func(b *Builder, comp *graph.ProbGraph, em []int) (uint32, error) {
		return PartConnectedOn2WP(b, qs, comp, em)
	})
}

// lowerSystem builds the program of one substrate emitter (a betadnf or
// ddnnf EmitOps) over numEdges instance edges, its variable v loading
// edge varEdge[v] (−1: the constant 1, for chain roots).
func lowerSystem(ctx context.Context, numEdges int, varEdge []int, emit func(*edgeMapEmitter) (uint32, error)) (*Program, error) {
	b := NewBuilder(ctx, numEdges)
	out, err := emit(&edgeMapEmitter{b: b, varEdge: varEdge, rootIsOne: true})
	if err != nil {
		return nil, err
	}
	return b.Finish(out)
}

// worldsProb is the world-enumeration oracle: the probability that a
// possible world of g, edge i kept with probability probs[i], admits a
// homomorphism from some query of qs.
func worldsProb(g *graph.Graph, probs []*big.Rat, qs ...*graph.Graph) *big.Rat {
	n := g.NumEdges()
	keep := make([]bool, n)
	total := new(big.Rat)
	var rec func(i int, w *big.Rat)
	rec = func(i int, w *big.Rat) {
		if w.Sign() == 0 {
			return
		}
		if i == n {
			world := g.SubgraphKeeping(keep)
			for _, q := range qs {
				if graph.HasHomomorphism(q, world) {
					total.Add(total, w)
					return
				}
			}
			return
		}
		keep[i] = true
		rec(i+1, new(big.Rat).Mul(w, probs[i]))
		keep[i] = false
		rec(i+1, new(big.Rat).Mul(w, new(big.Rat).Sub(graph.RatOne, probs[i])))
	}
	rec(0, big.NewRat(1, 1))
	return total
}
