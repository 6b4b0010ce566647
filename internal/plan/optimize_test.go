package plan

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/gen"
	"phom/internal/graph"
)

// lowerRaw flattens a plan without the Optimize pass — the pre-PR-7
// lowering — so differential tests can compare the optimizer's output
// against the program it started from.
func lowerRaw(t *testing.T, p Plan, numEdges int) *Program {
	t.Helper()
	b := NewBuilder(numEdges)
	out, err := p.EmitOps(b)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Finish(out)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// execString runs ExecCtx and returns the exact result as a RatString,
// failing the test on error.
func execString(t *testing.T, p *Program, probs []*big.Rat) string {
	t.Helper()
	v, err := p.ExecCtx(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	return v.RatString()
}

// TestOptimizeIdentities pins each algebraic rewrite on a minimal
// hand-built program: the identity fires (op count drops to the
// expected floor) and the exact result is unchanged.
func TestOptimizeIdentities(t *testing.T) {
	probs := []*big.Rat{rat("2/7")}
	cases := []struct {
		name    string
		build   func(b *Builder) uint32
		wantOps int
	}{
		{"mul by one", func(b *Builder) uint32 {
			return b.Mul(b.Load(0), b.One())
		}, 1}, // just the load
		{"mul by zero", func(b *Builder) uint32 {
			return b.Mul(b.Zero(), b.Load(0))
		}, 1}, // just the zero const
		{"add zero", func(b *Builder) uint32 {
			return b.Add(b.Zero(), b.Load(0))
		}, 1},
		{"double complement", func(b *Builder) uint32 {
			return b.OneMinus(b.OneMinus(b.Load(0)))
		}, 1},
		{"const folding", func(b *Builder) uint32 {
			// (1/2 · 1/3) + 1/4 → the single constant 5/12.
			return b.Add(b.Mul(b.Const(rat("1/2")), b.Const(rat("1/3"))), b.Const(rat("1/4")))
		}, 1},
		{"cse shares complements", func(b *Builder) uint32 {
			// (1−x)·(1−x) with two separately emitted complements.
			return b.Mul(b.OneMinus(b.Load(0)), b.OneMinus(b.Load(0)))
		}, 3}, // load, one-minus, mul
		{"commutative cse", func(b *Builder) uint32 {
			// x·(1−x) + (1−x)·x: operand order must not defeat sharing.
			x1, x2 := b.Load(0), b.Load(0)
			return b.Add(b.Mul(x1, b.OneMinus(x1)), b.Mul(b.OneMinus(x2), x2))
		}, 4}, // load, one-minus, mul, add
	}
	for _, tc := range cases {
		b := NewBuilder(1)
		out := tc.build(b)
		raw, err := b.Finish(out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		opt := raw.Optimize()
		if err := opt.Validate(); err != nil {
			t.Fatalf("%s: optimized program invalid: %v", tc.name, err)
		}
		if opt.NumOps() != tc.wantOps {
			t.Errorf("%s: optimized to %d ops, want %d", tc.name, opt.NumOps(), tc.wantOps)
		}
		if got, want := execString(t, opt, probs), execString(t, raw, probs); got != want {
			t.Errorf("%s: optimized ExecCtx %s != raw %s", tc.name, got, want)
		}
	}
}

// TestOptimizeInvalidUnchanged: a program that fails Validate comes
// back as the identical receiver — Optimize never rewrites what it
// cannot prove equivalent.
func TestOptimizeInvalidUnchanged(t *testing.T) {
	bad := &Program{
		NumEdges: 1,
		NumRegs:  1,
		Ops:      []Op{{Code: OpMul, Dst: 0, A: 0, B: 0}}, // use before def
		Out:      0,
	}
	if got := bad.Optimize(); got != bad {
		t.Fatal("Optimize of an invalid program must return the receiver")
	}
}

// TestOptimizeReducesOpsOnCorpora is the tentpole's corpus assertion:
// on the betadnf (chain/interval trellis) and ddnnf (polytree circuit)
// lowerings the pass strictly reduces op count — those emitters favour
// regularity and emit mul-by-one seeds and repeated complements — and
// the optimized program is RatString-byte-identical to the raw one on
// every random reweight, with a float enclosure that still contains the
// exact value.
func TestOptimizeReducesOpsOnCorpora(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	un := []graph.Label{graph.Unlabeled}
	var rawOps, optOps int
	for trial := 0; trial < 20; trial++ {
		m := 1 + r.Intn(3)
		var p Plan
		var h *graph.ProbGraph
		var err error
		if trial%2 == 0 {
			h = gen.RandProb(r, gen.RandInClass(r, graph.ClassUDWT, 3+r.Intn(6), un), 0.8)
			p, err = DirectedPathOnDWTs(h, m)
		} else {
			h = gen.RandProb(r, gen.RandInClass(r, graph.ClassUPT, 3+r.Intn(6), un), 0.8)
			p, err = DirectedPathOnPolytrees(h, m)
		}
		if err != nil {
			t.Fatal(err)
		}
		n := h.G.NumEdges()
		raw := lowerRaw(t, p, n)
		opt := raw.Optimize()
		if err := opt.Validate(); err != nil {
			t.Fatalf("trial %d: optimized program invalid: %v", trial, err)
		}
		rawOps += raw.NumOps()
		optOps += opt.NumOps()
		if opt.NumOps() >= raw.NumOps() {
			t.Errorf("trial %d: optimizer did not reduce ops (%d → %d)", trial, raw.NumOps(), opt.NumOps())
		}
		for reweight := 0; reweight < 3; reweight++ {
			probs := randomProbs(r, n)
			if got, want := execString(t, opt, probs), execString(t, raw, probs); got != want {
				t.Fatalf("trial %d: optimized ExecCtx %s != raw %s", trial, got, want)
			}
			exact, err := opt.ExecCtx(context.Background(), probs)
			if err != nil {
				t.Fatal(err)
			}
			iv, err := execFloat(opt, probs)
			if err != nil {
				t.Fatal(err)
			}
			if !iv.Contains(exact) {
				t.Fatalf("trial %d: optimized enclosure %v misses exact %s", trial, iv, exact.RatString())
			}
		}
	}
	t.Logf("corpus op count: raw %d → optimized %d (%.1f%% removed)",
		rawOps, optOps, 100*float64(rawOps-optOps)/float64(rawOps))
}

// TestOptimizeIdempotent: running the pass on its own output finds
// nothing further to do (the value table is already canonical).
func TestOptimizeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 100; trial++ {
		numEdges := r.Intn(8)
		raw, err := randomProgram(r, numEdges, 1+r.Intn(40))
		if err != nil {
			t.Fatal(err)
		}
		opt := raw.Optimize()
		if again := opt.Optimize(); again.NumOps() != opt.NumOps() {
			t.Fatalf("trial %d: second pass changed op count %d → %d", trial, opt.NumOps(), again.NumOps())
		}
	}
}

// TestOptimizeEquivalenceRandom is the deterministic twin of the fuzz
// target below: across seeded random programs and probability maps,
// the optimized program's exact result is byte-identical to the raw
// one's and its enclosure is sound.
func TestOptimizeEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 300; trial++ {
		numEdges := r.Intn(8)
		raw, err := randomProgram(r, numEdges, 1+r.Intn(40))
		if err != nil {
			t.Fatal(err)
		}
		opt := raw.Optimize()
		if err := opt.Validate(); err != nil {
			t.Fatalf("trial %d: optimized program invalid: %v", trial, err)
		}
		if opt.NumOps() > raw.NumOps() {
			t.Fatalf("trial %d: optimizer grew the program (%d → %d)", trial, raw.NumOps(), opt.NumOps())
		}
		probs := randomProbs(r, numEdges)
		exact, err := raw.ExecCtx(context.Background(), probs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := opt.ExecCtx(context.Background(), probs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(exact) != 0 {
			t.Fatalf("trial %d: optimized ExecCtx %s != raw %s", trial, got.RatString(), exact.RatString())
		}
		iv, err := execFloat(opt, probs)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(exact) {
			t.Fatalf("trial %d: optimized enclosure %v misses exact %s", trial, iv, exact.RatString())
		}
	}
}

// FuzzOptimizeEquivalence fuzzes the optimizer's correctness contract:
// whatever program the fuzzer derives, Optimize must produce a valid,
// no-larger program whose exact results are byte-identical and whose
// float enclosure still contains the exact value.
func FuzzOptimizeEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(20))
	f.Add(int64(42), uint8(0), uint8(3))
	f.Add(int64(-7), uint8(7), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, edges, ops uint8) {
		r := rand.New(rand.NewSource(seed))
		numEdges := int(edges % 9)
		raw, err := randomProgram(r, numEdges, 1+int(ops)%64)
		if err != nil {
			t.Fatal(err)
		}
		opt := raw.Optimize()
		if err := opt.Validate(); err != nil {
			t.Fatalf("optimized program invalid: %v", err)
		}
		if opt.NumOps() > raw.NumOps() {
			t.Fatalf("optimizer grew the program (%d → %d)", raw.NumOps(), opt.NumOps())
		}
		probs := randomProbs(r, numEdges)
		exact, err := raw.ExecCtx(context.Background(), probs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := opt.ExecCtx(context.Background(), probs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(exact) != 0 {
			t.Fatalf("optimized ExecCtx %s != raw %s", got.RatString(), exact.RatString())
		}
		iv, err := execFloat(opt, probs)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(exact) {
			t.Fatalf("optimized enclosure %v misses exact %s", iv, exact.RatString())
		}
	})
}
