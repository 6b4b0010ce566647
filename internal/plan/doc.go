// Package plan defines compiled solver plans: probability-independent
// evaluation artifacts that split PHom solving into a structural
// *compile* phase and a linear *evaluate* phase.
//
// Every tractable cell of the paper (Propositions 3.6, 4.10, 4.11 and
// 5.4/5.5, with Lemma 3.7 for disconnected instances) factors the same
// way: the expensive part of the algorithm — lineage construction,
// automaton compilation, class-driven normalization — depends only on
// the *structure* of the query and instance graphs, while the edge
// probabilities enter exclusively through a final linear dynamic program
// (betadnf.IntervalSystem.Prob, betadnf.ChainSystem.Prob,
// ddnnf.Circuit.Prob). A Plan captures the output of the structural
// phase; Evaluate replays only the linear phase against a probability
// vector indexed by the instance's edge list.
//
// Plans therefore amortize: one compilation serves arbitrarily many
// probability assignments over the same graph pair, which is the
// dominant serving pattern (what-if analysis, probability sweeps,
// streaming weight updates). Package engine caches plans keyed by the
// structure-only job hash of package graphio, and package core builds
// them via the compile functions of this package.
//
// Plans lower (LowerContext) to the flat Program IR — straight-line
// code over a register file — which executes on two numeric substrates:
// ExecCtx interprets it over exact rationals, and ExecFloatBatchCtx over
// float64 intervals (one lane per probability vector) with per-op
// directed-rounding error tracking, returning a certified Enclosure of
// the exact answer per lane. Package core routes between
// the substrates per the caller's precision options.
//
// All plans are immutable after construction and safe for concurrent
// Evaluate calls; every Evaluate returns a freshly allocated *big.Rat.
package plan
