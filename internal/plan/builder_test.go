package plan

import (
	"context"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"phom/internal/gen"
	"phom/internal/graph"
)

// replay emits the ops of a valid program that its output depends on
// through a fresh Builder (a Replayer slice rooted at the op defining
// Out) and returns the program the Builder makes of them.
func replay(p *Program) (*Program, error) {
	root := len(p.Ops) - 1
	for p.Ops[root].Dst != p.Out {
		root--
	}
	b := NewBuilder(context.Background(), p.NumEdges)
	out, _ := NewReplayer(p, b).Replay(root, func(e int) (int, bool) { return e, true })
	return b.Finish(out)
}

// sameProgram reports whether two programs are identical: shape, op
// stream and constant pool.
func sameProgram(a, b *Program) bool {
	if a.NumEdges != b.NumEdges || a.NumRegs != b.NumRegs || a.Out != b.Out ||
		!slices.Equal(a.Ops, b.Ops) || len(a.Consts) != len(b.Consts) {
		return false
	}
	for i := range a.Consts {
		if a.Consts[i].Cmp(b.Consts[i]) != 0 {
			return false
		}
	}
	return true
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

// TestOptimizeIdentities pins each rewrite of the Builder's value
// numbering on a minimal hand-built program: the identity fires (op
// count drops to the expected floor) and the exact result is unchanged.
func TestOptimizeIdentities(t *testing.T) {
	probs := []*big.Rat{rat("2/7")}
	cases := []struct {
		name    string
		build   func(b *Builder) uint32
		wantOps int
		want    string
	}{
		{"mul by one", func(b *Builder) uint32 {
			return b.Mul(b.Load(0), b.One())
		}, 1, "2/7"}, // just the load
		{"mul by zero", func(b *Builder) uint32 {
			return b.Mul(b.Zero(), b.Load(0))
		}, 1, "0"}, // just the zero const
		{"add zero", func(b *Builder) uint32 {
			return b.Add(b.Zero(), b.Load(0))
		}, 1, "2/7"},
		{"double complement", func(b *Builder) uint32 {
			return b.OneMinus(b.OneMinus(b.Load(0)))
		}, 1, "2/7"},
		{"const folding", func(b *Builder) uint32 {
			// (1/2 · 1/3) + 1/4 → the single constant 5/12.
			return b.Add(b.Mul(b.Const(rat("1/2")), b.Const(rat("1/3"))), b.Const(rat("1/4")))
		}, 1, "5/12"},
		{"cse shares complements", func(b *Builder) uint32 {
			// (1−x)·(1−x) with two separately emitted complements.
			return b.Mul(b.OneMinus(b.Load(0)), b.OneMinus(b.Load(0)))
		}, 3, "25/49"}, // load, one-minus, mul
		{"commutative cse", func(b *Builder) uint32 {
			// x·(1−x) + (1−x)·x: operand order must not defeat sharing.
			x1, x2 := b.Load(0), b.Load(0)
			return b.Add(b.Mul(x1, b.OneMinus(x1)), b.Mul(b.OneMinus(x2), x2))
		}, 4, "20/49"}, // load, one-minus, mul, add
	}
	for _, tc := range cases {
		b := NewBuilder(context.Background(), 1)
		prog, err := b.Finish(tc.build(b))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if prog.NumOps() != tc.wantOps {
			t.Errorf("%s: built %d ops, want %d", tc.name, prog.NumOps(), tc.wantOps)
		}
		if got := execString(t, prog, probs); got != tc.want {
			t.Errorf("%s: ExecCtx %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestOptimizeReducesOpsOnCorpora runs the Builder on the betadnf
// (chain/interval trellis) and ddnnf (polytree circuit) lowerings,
// whose emitters favour regularity and emit mul-by-one seeds and
// repeated complements. The Builder must leave values behind that the
// output does not reach (the seeds' constant 1 once every use folded
// away, partial products of unused trellis states), so Finish emits
// fewer ops than the value table holds; building is deterministic, the
// program must be RatString-byte-identical to possible-world
// enumeration on every random reweight, with a float enclosure that
// contains the exact value, and already be in normal form (a replay
// changes nothing).
func TestOptimizeReducesOpsOnCorpora(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	un := []graph.Label{graph.Unlabeled}
	for trial := 0; trial < 20; trial++ {
		m := 1 + r.Intn(3)
		class, compile := graph.ClassUDWT, dwtPaths
		if trial%2 == 1 {
			class, compile = graph.ClassUPT, polytreePaths
		}
		h := gen.RandProb(r, gen.RandInClass(r, class, 3+r.Intn(6), un), 0.8)
		n := h.G.NumEdges()
		b := NewBuilder(context.Background(), n)
		prog, _, err := compile(b, h, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.vals) <= prog.NumOps() {
			t.Errorf("trial %d: Finish kept all %d values, dropped none", trial, len(b.vals))
		}
		if again, _, err := compile(nil, h, m); err != nil || !sameProgram(again, prog) {
			t.Fatalf("trial %d: a second build differs (err %v)", trial, err)
		}
		again, err := replay(prog)
		if err != nil {
			t.Fatal(err)
		}
		if !sameProgram(prog, again) {
			t.Errorf("trial %d: replaying the lowered program changed it (%d → %d ops)", trial, prog.NumOps(), again.NumOps())
		}
		for reweight := 0; reweight < 3; reweight++ {
			probs := randomProbs(r, n)
			want := worldsProb(h.G, probs, graph.UnlabeledPath(m))
			exact, err := prog.ExecCtx(context.Background(), probs)
			if err != nil {
				t.Fatal(err)
			}
			if exact.RatString() != want.RatString() {
				t.Fatalf("trial %d: ExecCtx %s != worlds %s", trial, exact.RatString(), want.RatString())
			}
			iv, err := execFloat(prog, probs)
			if err != nil {
				t.Fatal(err)
			}
			if !iv.Contains(exact) {
				t.Fatalf("trial %d: enclosure %v misses exact %s", trial, iv, exact.RatString())
			}
		}
	}
}

// TestOptimizeIdempotent: replaying a Builder program through a fresh
// Builder finds nothing further to do and rebuilds the identical
// program (the value table is already canonical).
func TestOptimizeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 100; trial++ {
		numEdges := r.Intn(8)
		raw, err := randomProgram(r, numEdges, 1+r.Intn(40))
		if err != nil {
			t.Fatal(err)
		}
		built, err := replay(raw)
		if err != nil {
			t.Fatal(err)
		}
		again, err := replay(built)
		if err != nil {
			t.Fatal(err)
		}
		if !sameProgram(built, again) {
			t.Fatalf("trial %d: second replay changed the program (%d → %d ops)", trial, built.NumOps(), again.NumOps())
		}
	}
}

// checkReplayEquivalent is the Builder's correctness contract on one
// raw program: replaying its ops must give a valid, no-larger program
// whose exact result is byte-identical and whose float enclosure
// contains the exact value.
func checkReplayEquivalent(t *testing.T, raw *Program, probs []*big.Rat) {
	t.Helper()
	built, err := replay(raw)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if built.NumOps() > raw.NumOps() {
		t.Fatalf("Builder grew the program (%d → %d ops)", raw.NumOps(), built.NumOps())
	}
	exact, err := raw.ExecCtx(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	if got := execString(t, built, probs); got != exact.RatString() {
		t.Fatalf("built ExecCtx %s != raw %s", got, exact.RatString())
	}
	iv, err := execFloat(built, probs)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(exact) {
		t.Fatalf("built enclosure %v misses exact %s", iv, exact.RatString())
	}
}

// TestOptimizeEquivalenceRandom is the deterministic twin of the fuzz
// target below, over seeded random raw programs and probability maps.
func TestOptimizeEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 300; trial++ {
		numEdges := r.Intn(8)
		raw, err := randomProgram(r, numEdges, 1+r.Intn(40))
		if err != nil {
			t.Fatal(err)
		}
		checkReplayEquivalent(t, raw, randomProbs(r, numEdges))
	}
}

// FuzzOptimizeEquivalence fuzzes the Builder's value numbering: whatever
// raw program the fuzzer derives (unfolded constants, identities and
// repeated subterms included), replaying it through a Builder must
// produce a valid, no-larger program whose exact results are
// byte-identical and whose float enclosure still contains the exact
// value.
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
		checkReplayEquivalent(t, raw, randomProbs(r, numEdges))
	})
}
