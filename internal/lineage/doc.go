// Package lineage builds Boolean lineage representations (Definition 4.6)
// of query graphs on probabilistic instance graphs for the two tractable
// labeled cases of §4.2:
//
//   - Proposition 4.10: a one-way path query on a downward tree instance.
//     Minimal matches are downward paths with the query's label sequence;
//     at most one ends at each instance vertex, so the lineage is a
//     positive DNF with O(|H|) clauses, each an ancestor chain.
//   - Proposition 4.11: a connected query on a two-way path instance.
//     Minimal matches are connected subpaths of at most |E(q)| edges,
//     identified by their endpoints; homomorphism into each candidate
//     subpath is decided in place with the X-property algorithm of
//     Theorem 4.13, and only the inclusion-minimal subpaths become
//     clauses, so the lineage has O(|H|) clauses of at most |E(q)|
//     edges each.
//
// Both lineages are β-acyclic (verified in tests via package hypergraph)
// and are evaluated in polynomial time by package betadnf.
package lineage
