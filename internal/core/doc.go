// Package core implements the paper's primary contribution: the
// polynomial-time algorithms for the tractable cases of the probabilistic
// graph homomorphism problem PHom (Propositions 3.6, 4.10, 4.11, 5.4 and
// 5.5, with Lemma 3.7 for disconnected instances), the exponential exact
// baselines used on #P-hard cases, the dispatching solver that routes an
// input pair to the best applicable algorithm, and the complexity
// classifier encoding Tables 1–3.
//
// There is one compiler, CompileUCQContext: a single conjunctive query
// is a one-disjunct union, and the guard table routes unions over the
// lifted cells (see ucq.go). Compile, Solve and PatchCompile are
// one-line wrappers over it.
//
// Solving is a two-stage pipeline (Compile and CompiledPlan.Evaluate;
// Solve composes them) with dual-precision evaluation: plans execute on
// exact rational arithmetic by default, or on the certified float64
// interval kernel of internal/plan under Options.Precision, with the
// auto mode falling back to exact rationals whenever the certified
// error bound exceeds Options.FloatTolerance. See DESIGN.md,
// "Numerics: dual-precision evaluation".
package core
