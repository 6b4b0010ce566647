// Package approx implements a seeded Karp–Luby (ε,δ) Monte-Carlo
// estimator for the probability of a positive DNF formula — the
// approximate-evaluation substrate of the solver's #P-hard cells.
//
// The estimator is the classic self-adjusting coverage estimator of
// Karp, Luby and Madras over the clause-weighted union space: sample a
// clause j with probability w_j/W (w_j the product of its variables'
// probabilities, W the sum over clauses), draw the remaining support
// variables from the product distribution conditioned on clause j being
// satisfied, and score the sample 1/N(ν), where N(ν) is the number of
// clauses the valuation satisfies. Each sample is an unbiased estimate
// of Pr(F)/W with values in (0, 1], and Pr(F)/W ≥ 1/m for m live
// clauses, so the Dyer/Karp–Luby sample count
//
//	T = ⌈3·m·ln(2/δ)/ε²⌉
//
// guarantees Pr(|p̂ − Pr(F)| > ε·Pr(F)) ≤ δ (multiplicative Chernoff on
// [0,1] variables with mean ≥ 1/m). The reported Lo/Hi interval is the
// two-sided (1−δ) Hoeffding bound W·(μ̂ ± √(ln(2/δ)/2T)) intersected
// with [0,1] — a statistical confidence interval, NOT the certified
// enclosure of the float kernel (plan.Enclosure semantics differ: those
// are machine-checked, these hold with probability 1−δ).
//
// Degenerate inputs short-circuit exactly, without sampling: a clause
// whose variables all have probability exactly 1 makes Pr(F) = 1, and a
// formula whose every clause contains a probability-0 variable has
// Pr(F) = 0. In particular the estimator agrees byte-for-byte with the
// exact solvers on fully deterministic (probability 0/1) instances.
//
// Randomness is a per-request math/rand/v2 PCG seeded from
// Params.Seed: equal (formula, probabilities, parameters, seed) runs
// are byte-deterministic, across processes and architectures. The
// sampling loop polls a phomerr.Checkpoint, so a cancelled context
// aborts within one checkpoint interval (CheckInterval samples).
package approx

import (
	"context"
	"math"
	"math/big"
	"math/rand/v2"
	"sort"

	"phom/internal/boolform"
	"phom/internal/phomerr"
)

// DefaultMaxSamples caps the sample budget of one estimation when
// Params.MaxSamples is 0. Beyond it the request is refused with a typed
// CodeLimit error — the caller asked for a (ε,δ) pair whose cost the
// server is not willing to pay — rather than silently degrading the
// guarantee. 2^26 samples keep a worst-case run in seconds.
const DefaultMaxSamples = 1 << 26

// pcgStream is the fixed second word of the PCG seed: Params.Seed
// selects the stream, this constant pins the increment so equal seeds
// mean equal streams everywhere.
const pcgStream = 0x9e3779b97f4a7c15

// Params configures one estimation.
type Params struct {
	// Epsilon is the relative error bound, in (0,1).
	Epsilon float64
	// Delta is the failure probability budget, in (0,1).
	Delta float64
	// Seed seeds the PCG generator; equal seeds reproduce the estimate
	// byte-for-byte.
	Seed uint64
	// MaxSamples caps the sample budget (0 = DefaultMaxSamples).
	// Estimations whose Dyer/Karp–Luby sample count exceeds the cap fail
	// with a typed CodeLimit error.
	MaxSamples int64
}

// Estimate is the outcome of one estimation.
type Estimate struct {
	// P is the point estimate of Pr(F), in [0,1]. With probability at
	// least 1−δ it satisfies |P − Pr(F)| ≤ ε·Pr(F).
	P float64
	// Lo and Hi bound Pr(F) with probability at least 1−δ (two-sided
	// Hoeffding at the drawn sample count), clipped to [0,1]. When Exact
	// is set, Lo = P = Hi.
	Lo, Hi float64
	// Samples is the number of Monte-Carlo samples drawn (0 when the
	// answer short-circuited exactly).
	Samples int64
	// Exact reports that P is exactly Pr(F): the formula was
	// deterministically true or false under the given probabilities, so
	// no sampling happened.
	Exact bool
}

// SampleCount returns the Dyer/Karp–Luby sample count for a formula
// with m live clauses at relative error eps and failure probability
// delta: ⌈3·m·ln(2/δ)/ε²⌉. It saturates at MaxInt64 instead of
// overflowing, so callers can compare it against a cap safely.
func SampleCount(m int, eps, delta float64) int64 {
	if m <= 0 {
		return 0
	}
	t := math.Ceil(3 * float64(m) * math.Log(2/delta) / (eps * eps))
	if !(t < math.MaxInt64) {
		return math.MaxInt64
	}
	return int64(t)
}

// KarpLuby estimates Pr(F) for the positive DNF f under the variable
// probabilities probs (indexed by variable, each in [0,1]). See the
// package comment for the estimator and its guarantee. Failures are
// typed: CodeBadInput for malformed parameters or probabilities,
// CodeLimit when the (ε,δ) pair demands more than Params.MaxSamples
// samples, CodeCanceled/CodeDeadline when ctx fires mid-sampling.
func KarpLuby(ctx context.Context, f *boolform.DNF, probs []*big.Rat, p Params) (Estimate, error) {
	if !(p.Epsilon > 0 && p.Epsilon < 1) {
		return Estimate{}, phomerr.New(phomerr.CodeBadInput, "approx: epsilon %v outside (0,1)", p.Epsilon)
	}
	if !(p.Delta > 0 && p.Delta < 1) {
		return Estimate{}, phomerr.New(phomerr.CodeBadInput, "approx: delta %v outside (0,1)", p.Delta)
	}
	if len(probs) != f.NumVars {
		return Estimate{}, phomerr.New(phomerr.CodeBadInput, "approx: %d probabilities for a formula over %d variables", len(probs), f.NumVars)
	}
	for i, pr := range probs {
		if pr == nil || pr.Num().Sign() < 0 || pr.Num().Cmp(pr.Denom()) > 0 {
			return Estimate{}, phomerr.New(phomerr.CodeBadInput, "approx: variable %d probability outside [0,1]", i)
		}
	}
	maxSamples := p.MaxSamples
	if maxSamples <= 0 {
		maxSamples = DefaultMaxSamples
	}

	// Classify clauses exactly: a variable with probability exactly 0
	// kills its clause (it is never satisfied in any world), a clause
	// whose variables are all exactly 1 is always satisfied. The float
	// weights below are used only to bias sampling among the remaining
	// genuinely uncertain clauses.
	one := big.NewRat(1, 1)
	var live []boolform.Clause
	var weights []float64
	W := 0.0
	for _, c := range f.Clauses {
		dead := false
		certain := true
		w := 1.0
		for _, v := range c {
			pv := probs[v]
			if pv.Sign() == 0 {
				dead = true
				break
			}
			if pv.Cmp(one) != 0 {
				certain = false
			}
			pf, _ := pv.Float64()
			w *= pf
		}
		if dead {
			continue
		}
		if certain {
			// All variables are exactly 1 (or the clause is empty): the
			// formula is true in every world.
			return Estimate{P: 1, Lo: 1, Hi: 1, Exact: true}, nil
		}
		live = append(live, c)
		weights = append(weights, w)
		W += w
	}
	if len(live) == 0 || W <= 0 {
		// Every clause contains an impossible variable (or there are no
		// clauses): the formula is false in every world.
		return Estimate{Exact: true}, nil
	}

	m := len(live)
	T := SampleCount(m, p.Epsilon, p.Delta)
	if T > maxSamples {
		return Estimate{}, phomerr.New(phomerr.CodeLimit,
			"approx: (eps=%v, delta=%v) over %d clauses needs %d samples, cap is %d", p.Epsilon, p.Delta, m, T, maxSamples)
	}

	// Support positions: the variables the live clauses mention,
	// renumbered 0 … S−1 in ascending variable order, so the per-sample
	// work is linear in the support and the live clause table,
	// independent of NumVars (the instance size).
	pos := make([]int32, f.NumVars)
	width := 0
	for _, c := range live {
		for _, v := range c {
			pos[v] = 1
		}
		width = max(width, len(c))
	}
	var pv []float64 // probability by position
	for v, in := range pos {
		if in != 0 {
			pos[v] = int32(len(pv))
			pf, _ := probs[v].Float64()
			pv = append(pv, pf)
		}
	}
	S := int32(len(pv))
	// Clause rows: one row of width positions per live clause, padded
	// with the sentinel position S, whose valuation byte is always 1.
	rows := make([]int32, m*width)
	for j, c := range live {
		row := rows[j*width : (j+1)*width]
		for i, v := range c {
			row[i] = pos[v]
		}
		for i := len(c); i < width; i++ {
			row[i] = S
		}
	}

	// Cumulative clause weights for O(log m) weighted clause selection.
	cum := make([]float64, m)
	acc := 0.0
	for j, w := range weights {
		acc += w
		cum[j] = acc
	}

	rng := rand.New(rand.NewPCG(p.Seed, pcgStream))
	cp := phomerr.NewCheckpoint(ctx)
	nu := make([]uint8, S+1) // the valuation by position, 1 = true
	nu[S] = 1
	sum := 0.0
	for i := int64(0); i < T; i++ {
		if err := cp.Check(); err != nil {
			return Estimate{}, err
		}
		// Pick clause j with probability w_j/W.
		j := sort.SearchFloat64s(cum, rng.Float64()*acc)
		if j >= m {
			j = m - 1
		}
		row := rows[j*width : (j+1)*width]
		// Draw the support valuation conditioned on clause j: its own
		// variables are true, every other support variable is an
		// independent Bernoulli draw. Row and support are both in
		// ascending order, so one merge walk assigns everything in
		// deterministic order (the order of the rng draws is what makes
		// equal seeds byte-identical).
		ci := 0
		for k := int32(0); k < S; k++ {
			if ci < width && row[ci] == k {
				nu[k] = 1
				ci++
				continue
			}
			var b uint8
			if rng.Float64() < pv[k] {
				b = 1
			}
			nu[k] = b
		}
		// N(ν): how many live clauses the valuation satisfies — at least
		// one (clause j), so the score 1/N is in (0, 1]. The literals'
		// truth values are random, so each row ANDs its bytes instead of
		// branching on them.
		n := 0
		for r := 0; r < len(rows); r += width {
			sat := uint8(1)
			for _, k := range rows[r : r+width] {
				sat &= nu[k]
			}
			n += int(sat)
		}
		sum += 1 / float64(n)
	}

	mu := sum / float64(T)
	est := W * mu
	t := math.Sqrt(math.Log(2/p.Delta) / (2 * float64(T)))
	lo := W * (mu - t)
	hi := W * (mu + t)
	clamp := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	return Estimate{P: clamp(est), Lo: clamp(lo), Hi: clamp(hi), Samples: T}, nil
}
