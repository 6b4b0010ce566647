package plan

import "phom/internal/graph"

// The whole-instance plans of each cell, as the tests of this package
// compile them: the Lemma 3.7 composite of the cell's part compiler.

func dwtPaths(h *graph.ProbGraph, m int) (Plan, error) {
	return Compose(h, func(comp *graph.ProbGraph, em []int) (Plan, error) {
		return PartDirectedPathOnDWT(comp, m, em)
	})
}

func polytreePaths(h *graph.ProbGraph, m int) (Plan, error) {
	return Compose(h, func(comp *graph.ProbGraph, em []int) (Plan, error) {
		return PartDirectedPathOnPolytree(comp, m, em)
	})
}

func chains(qs []*graph.Graph, h *graph.ProbGraph) (Plan, error) {
	return Compose(h, func(comp *graph.ProbGraph, em []int) (Plan, error) {
		return Part1WPOnDWT(qs, comp, em)
	})
}

func intervals(qs []*graph.Graph, h *graph.ProbGraph) (Plan, error) {
	return Compose(h, func(comp *graph.ProbGraph, em []int) (Plan, error) {
		return PartConnectedOn2WP(qs, comp, em)
	})
}
