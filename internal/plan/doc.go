// Package plan compiles the probability-independent half of PHom
// solving into evaluation programs, splitting it into a structural
// *compile* phase and a linear *evaluate* phase.
//
// Every tractable cell of the paper (Propositions 3.6, 4.10, 4.11 and
// 5.4/5.5, with Lemma 3.7 for disconnected instances) factors the same
// way: the expensive part of the algorithm — lineage construction,
// automaton compilation, class-driven normalization — depends only on
// the *structure* of the query and instance graphs, while the edge
// probabilities enter exclusively through a final linear dynamic program
// (betadnf.IntervalSystem.Prob, betadnf.ChainSystem.Prob,
// ddnnf.Circuit.Prob). The per-component cell compilers (Part1WPOnDWT,
// PartConnectedOn2WP, PartDirectedPathOnDWT, PartDirectedPathOnPolytree)
// run the structural phase and unroll that last dynamic program into a
// flat Program — straight-line code over a register file, loading each
// variable from its instance edge — and Compose combines the parts by
// Lemma 3.7. No other plan value outlives compilation: the program is
// the plan, and the substrates' Prob methods stay the independent
// references the tests compare it against.
//
// Programs therefore amortize: one compilation serves arbitrarily many
// probability assignments over the same graph pair, which is the
// dominant serving pattern (what-if analysis, probability sweeps,
// streaming weight updates). Package engine caches compiled plans keyed
// by the structure-only job hash of package graphio, and package core
// builds them via the compile functions of this package. A program
// executes on two numeric substrates: ExecCtx interprets it over exact
// rationals, and ExecFloatBatchCtx over float64 intervals (one lane per
// probability vector) with per-op directed-rounding error tracking,
// returning a certified Enclosure of the exact answer per lane. Package
// core routes between the substrates per the caller's precision
// options.
//
// Compilers emit through a Builder that value-numbers at emit time:
// each emit call is answered from a table of canonical computations
// after exact constant folding, the identities x·1, x·0, x+0 and
// 1−(1−x), and sharing of equal subterms (Mul and Add operands in
// canonical order). Builder.Finish keeps only the values the output
// depends on and assigns registers by liveness, so emitters never
// manage registers. Builder.FinishParts also reports the part table of
// a Lemma 3.7 composite — the op index of each component's factor
// 1 − p_i — and a Replayer re-emits such a factor's dependency slice
// out of a finished program into a new Builder, which is how
// incremental maintenance (core.PatchCompile) carries untouched
// components across a structural delta, for fresh and decoded plans
// alike.
//
// ExecCtx keeps each register as a big.Int numerator over a power of
// the inputs' common denominator, so an evaluation normalizes once at
// the end instead of once per op, and when that denominator's primes
// are below 64 it divides them out word by word instead of running a
// GCD; a big.Rat loop inside the same entry takes over on inputs where
// that representation would not pay (unrelated denominators, or
// degrees no honest lowering produces). ExecMemo is ExecCtx with a part
// memo: a composite evaluated again under mostly unchanged probability
// values skips the Lemma 3.7 parts whose loads still read the same
// values (partmemo.go).
//
// Programs are immutable after construction and safe for concurrent
// execution; every ExecCtx returns a freshly allocated *big.Rat.
package plan
