package approx

import (
	"context"
	"math"
	"math/big"
	mrand "math/rand"
	"math/rand/v2"
	"sort"
	"testing"

	"phom/internal/boolform"
	"phom/internal/phomerr"
)

// FuzzKarpLubySample: the estimator must hold its deterministic
// invariants on arbitrary formula shapes — the estimate and its bounds
// are probabilities in [0,1] with Lo ≤ P ≤ Hi, equal seeds reproduce
// the full Estimate byte-for-byte and equal referenceKarpLuby's, fully
// deterministic (probability 0/1) inputs agree exactly with brute-force
// enumeration, and nothing ever panics. The clause-conditioned sampler
// guarantees every drawn valuation satisfies its chosen clause, which
// surfaces here as N(ν) ≥ 1: a violation would make a score exceed 1
// and push the estimate past the [0,1] clamp invariants below.
func FuzzKarpLubySample(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(2), []byte{0, 1, 1, 2}, []byte{4, 4, 4, 4})
	f.Add(uint64(7), uint8(8), uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 0}, []byte{0, 8, 1, 7, 2, 6, 3, 5})
	f.Add(uint64(42), uint8(6), uint8(1), []byte{5, 5, 5}, []byte{8, 0, 8, 0, 8, 0})
	f.Add(uint64(0), uint8(2), uint8(2), []byte{}, []byte{4, 4})
	f.Fuzz(func(t *testing.T, seed uint64, nv, width uint8, clauseData, probData []byte) {
		n := int(nv%16) + 1
		w := int(width%4) + 1
		dnf := boolform.NewDNF(n)
		for i := 0; i+w <= len(clauseData) && len(dnf.Clauses) < 12; i += w {
			vars := make([]boolform.Var, w)
			for j := 0; j < w; j++ {
				vars[j] = boolform.Var(int(clauseData[i+j]) % n)
			}
			dnf.AddClause(vars...)
		}
		probs := make([]*big.Rat, n)
		deterministic := true
		for i := range probs {
			num := int64(0)
			if i < len(probData) {
				num = int64(probData[i] % 9)
			}
			probs[i] = big.NewRat(num, 8)
			if num != 0 && num != 8 {
				deterministic = false
			}
		}
		p := Params{Epsilon: 0.4, Delta: 0.3, Seed: seed}
		est, err := KarpLuby(context.Background(), dnf, probs, p)
		if err != nil {
			t.Fatalf("KarpLuby failed on valid input: %v", err)
		}
		if est.P < 0 || est.P > 1 || est.Lo < 0 || est.Hi > 1 || est.Lo > est.P || est.P > est.Hi {
			t.Fatalf("malformed estimate: %+v", est)
		}
		twin, err := KarpLuby(context.Background(), dnf, probs, p)
		if err != nil {
			t.Fatalf("twin run failed: %v", err)
		}
		if est != twin {
			t.Fatalf("equal seeds disagree: %+v vs %+v", est, twin)
		}
		ref, err := referenceKarpLuby(context.Background(), dnf, probs, p)
		if err != nil {
			t.Fatalf("reference failed on valid input: %v", err)
		}
		if est != ref {
			t.Fatalf("estimate %+v differs from the reference sampler's %+v", est, ref)
		}
		if deterministic {
			if !est.Exact {
				t.Fatalf("deterministic input sampled: %+v", est)
			}
			want := dnf.BruteForceProb(probs)
			if got := new(big.Rat).SetFloat64(est.P); got.Cmp(want) != 0 {
				t.Fatalf("deterministic input: estimate %v, exact %v", got, want)
			}
		}
	})
}

// referenceKarpLuby is the Karp–Luby sampler as it stood before the
// sampling loop moved to dense support positions and a branch-free
// clause count: a merge walk over a map-backed support valuation and
// an early-exit scan of every live clause. It is kept verbatim, for
// tests only, as the oracle KarpLuby must match bit for bit.
func referenceKarpLuby(ctx context.Context, f *boolform.DNF, probs []*big.Rat, p Params) (Estimate, error) {
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

	// Support: the variables the live clauses mention, in ascending
	// order — the per-sample work is linear in the support and the live
	// clause literals, independent of NumVars (the instance size).
	inSupport := map[boolform.Var]bool{}
	for _, c := range live {
		for _, v := range c {
			inSupport[v] = true
		}
	}
	support := make([]boolform.Var, 0, len(inSupport))
	for v := range inSupport {
		support = append(support, v)
	}
	sort.Slice(support, func(i, j int) bool { return support[i] < support[j] })
	pv := make(map[boolform.Var]float64, len(support))
	for _, v := range support {
		pv[v], _ = probs[v].Float64()
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
	nu := make([]bool, f.NumVars)
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
		c := live[j]
		// Draw the support valuation conditioned on clause j: its own
		// variables are true, every other support variable is an
		// independent Bernoulli draw. Both lists are sorted, so one merge
		// walk assigns everything in deterministic order (determinism of
		// the rng consumption is what makes equal seeds byte-identical).
		ci := 0
		for _, v := range support {
			if ci < len(c) && c[ci] == v {
				nu[v] = true
				ci++
				continue
			}
			nu[v] = rng.Float64() < pv[v]
		}
		// N(ν): how many live clauses the valuation satisfies — at least
		// one (clause j), so the score 1/N is in (0, 1].
		n := 0
		for _, lc := range live {
			sat := true
			for _, v := range lc {
				if !nu[v] {
					sat = false
					break
				}
			}
			if sat {
				n++
			}
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

// TestKarpLubyMatchesReference runs KarpLuby and referenceKarpLuby on
// random formulas of 1–60 variables and widths 1–5, with probability 0
// and 1 variables mixed into interior ones, and requires the whole
// Estimate to agree bit for bit.
func TestKarpLubyMatchesReference(t *testing.T) {
	r := mrand.New(mrand.NewSource(17))
	for i := 0; i < 1000; i++ {
		n := 1 + r.Intn(60)
		f := randDNF(r, n, 1+r.Intn(12), 1+r.Intn(5))
		probs := make([]*big.Rat, n)
		for v := range probs {
			probs[v] = big.NewRat(r.Int63n(9), 8)
		}
		p := Params{Epsilon: 0.4, Delta: 0.3, Seed: r.Uint64()}
		got, err := KarpLuby(context.Background(), f, probs, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceKarpLuby(context.Background(), f, probs, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("formula %d (%d vars, %d clauses): estimate %+v, reference %+v", i, n, len(f.Clauses), got, want)
		}
	}
}
