package plan

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// mustProgram builds a program through the Builder, failing the test on
// lowering errors.
func mustProgram(t *testing.T, build func(b *Builder) uint32, numEdges int) *Program {
	t.Helper()
	b := NewBuilder(numEdges)
	p, err := b.Finish(build(b))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEncloseContainsAndIsTight(t *testing.T) {
	huge := new(big.Rat).SetFrac(new(big.Int).Exp(big.NewInt(10), big.NewInt(400), nil), big.NewInt(1))
	cases := []struct {
		name      string
		r         *big.Rat
		zeroWidth bool
	}{
		{"zero", new(big.Rat), true},
		{"one", big.NewRat(1, 1), true},
		{"half", big.NewRat(1, 2), true},
		{"dyadic", big.NewRat(3, 1<<20), true},
		{"third", big.NewRat(1, 3), false},
		{"tenth", big.NewRat(1, 10), false},
		{"big numerator", new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 80), new(big.Int).SetUint64(1<<63)), true},
		{"near zero", new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Exp(big.NewInt(10), big.NewInt(300), nil)), false},
		{"negative third", big.NewRat(-1, 3), false},
		{"huge", huge, false},
	}
	for _, tc := range cases {
		iv := enclose(tc.r)
		if !iv.Contains(tc.r) {
			t.Fatalf("%s: enclose(%s) = %v does not contain it", tc.name, tc.r.RatString(), iv)
		}
		if got := iv.Width() == 0; got != tc.zeroWidth {
			t.Fatalf("%s: enclose(%s) width %g, want zero=%v", tc.name, tc.r.RatString(), iv.Width(), tc.zeroWidth)
		}
		// Tightness: never wider than two ulps of the midpoint (huge
		// values excepted — they clamp to ±MaxFloat64/Inf).
		if f, _ := tc.r.Float64(); !math.IsInf(f, 0) {
			if maxW := 4 * math.Max(math.Abs(f), minNormal) * 0x1p-52; iv.Width() > maxW {
				t.Fatalf("%s: enclosure %v too wide (%g > %g)", tc.name, iv, iv.Width(), maxW)
			}
		}
	}
}

// TestExecFloatKnownValues pins the kernel against hand-computed
// programs with exactly representable arithmetic.
func TestExecFloatKnownValues(t *testing.T) {
	// 1 − (1−p0)(1−p1) with dyadic probabilities: exact all the way.
	p := mustProgram(t, func(b *Builder) uint32 {
		return b.OneMinus(b.Mul(b.OneMinus(b.Load(0)), b.OneMinus(b.Load(1))))
	}, 2)
	iv, err := execFloat(p, []*big.Rat{big.NewRat(1, 2), big.NewRat(1, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 0.625 || iv.Hi != 0.625 {
		t.Fatalf("float kernel = %v, want exactly [0.625, 0.625]", iv)
	}
	// The same with p1 = 1/3: a genuine enclosure around 2/3·…
	want, err := p.ExecCtx(context.Background(), []*big.Rat{big.NewRat(1, 2), big.NewRat(1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	iv, err = execFloat(p, []*big.Rat{big.NewRat(1, 2), big.NewRat(1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if iv.Width() == 0 {
		t.Fatal("1/3 cannot convert exactly")
	}
	if !iv.Contains(want) {
		t.Fatalf("enclosure %v misses exact %s", iv, want.RatString())
	}
	if iv.Width() > 1e-15 {
		t.Fatalf("enclosure %v too wide for a 7-op program", iv)
	}
}

func TestExecFloatInputErrors(t *testing.T) {
	p := mustProgram(t, func(b *Builder) uint32 { return b.Load(0) }, 1)
	if _, err := execFloat(p, nil); err == nil {
		t.Fatal("accepted a short probability vector")
	}
	if _, err := execFloat(p, []*big.Rat{nil}); err == nil {
		t.Fatal("accepted a nil probability")
	}
}

// TestExecFloatOverflowIsSound pins the hostile-program path: constants
// beyond float64 range must produce a sound (possibly vacuous)
// enclosure or a NaN one, which contains nothing and so is never served
// (core falls back to exact arithmetic) — never an unsound finite
// interval.
func TestExecFloatOverflowIsSound(t *testing.T) {
	huge := new(big.Rat).SetFrac(new(big.Int).Exp(big.NewInt(10), big.NewInt(400), nil), big.NewInt(1))
	// huge · huge: ±Inf bounds are vacuous but sound.
	p := mustProgram(t, func(b *Builder) uint32 {
		h := b.Const(huge)
		return b.Mul(h, h)
	}, 0)
	iv, err := execFloat(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(new(big.Rat).Mul(huge, huge)) {
		t.Fatalf("overflow enclosure %v excludes the exact product", iv)
	}
	// huge · 0 is Inf · 0 = NaN in float arithmetic.
	p = mustProgram(t, func(b *Builder) uint32 {
		return b.Mul(b.Const(huge), b.Zero())
	}, 0)
	if iv, err = execFloat(p, nil); err != nil {
		t.Fatal(err)
	}
	if nan := math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi); nan == iv.Contains(new(big.Rat)) {
		t.Fatalf("enclosure %v is neither NaN nor a sound enclosure of 0", iv)
	}
}

// randomProbs draws a probability vector mixing dyadic, non-dyadic,
// boundary and extreme values — the distributions the containment fuzz
// target and table tests share.
func randomProbs(r *rand.Rand, n int) []*big.Rat {
	probs := make([]*big.Rat, n)
	for i := range probs {
		switch r.Intn(6) {
		case 0:
			probs[i] = new(big.Rat) // exactly 0
		case 1:
			probs[i] = big.NewRat(1, 1) // exactly 1
		case 2:
			probs[i] = big.NewRat(int64(r.Intn(17)), 16) // dyadic
		case 3:
			probs[i] = big.NewRat(int64(r.Intn(10001)), 10000) // decimal
		case 4:
			// Near 0: 1/10^k.
			probs[i] = new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(1+r.Intn(30))), nil))
		default:
			// Near 1: 1 − 1/10^k.
			eps := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(1+r.Intn(30))), nil))
			probs[i] = new(big.Rat).Sub(big.NewRat(1, 1), eps)
		}
	}
	return probs
}

// randomProgram emits a random valid program over numEdges edges: a
// stream of loads, constants and arithmetic over previously defined
// registers, as the Builder's structural discipline guarantees.
func randomProgram(r *rand.Rand, numEdges, numOps int) (*Program, error) {
	b := NewBuilder(numEdges)
	regs := []uint32{b.Const(big.NewRat(int64(r.Intn(5)), 4))}
	pick := func() uint32 { return regs[r.Intn(len(regs))] }
	for i := 0; i < numOps; i++ {
		switch r.Intn(10) {
		case 0:
			regs = append(regs, b.Const(big.NewRat(int64(r.Intn(9)), int64(1+r.Intn(8)))))
		case 1, 2, 3:
			if numEdges > 0 {
				regs = append(regs, b.Load(r.Intn(numEdges)))
			}
		case 4, 5, 6:
			regs = append(regs, b.Mul(pick(), pick()))
		case 7, 8:
			regs = append(regs, b.Add(pick(), pick()))
		default:
			regs = append(regs, b.OneMinus(pick()))
		}
	}
	return b.Finish(pick())
}

// TestExecFloatContainmentRandom is the deterministic twin of the fuzz
// target: across seeded random programs and probability maps, the exact
// ExecCtx answer always lies in the float kernel's certified enclosure.
func TestExecFloatContainmentRandom(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 300; trial++ {
		numEdges := r.Intn(8)
		prog, err := randomProgram(r, numEdges, 1+r.Intn(40))
		if err != nil {
			t.Fatal(err)
		}
		probs := randomProbs(r, numEdges)
		exact, err := prog.ExecCtx(context.Background(), probs)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := execFloat(prog, probs)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(exact) {
			t.Fatalf("trial %d: exact %s outside enclosure %v (program %d ops)",
				trial, exact.RatString(), iv, prog.NumOps())
		}
	}
}

// FuzzExecFloatContainment fuzzes the containment invariant: whatever
// program the fuzzer derives and whatever probabilities it assigns, the
// exact rational result must lie inside the float kernel's certified
// enclosure. The program and probability map are derived
// deterministically from the fuzz seed, so failures replay.
func FuzzExecFloatContainment(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(20))
	f.Add(int64(42), uint8(0), uint8(3))
	f.Add(int64(-7), uint8(7), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, edges, ops uint8) {
		r := rand.New(rand.NewSource(seed))
		numEdges := int(edges % 9)
		prog, err := randomProgram(r, numEdges, 1+int(ops)%64)
		if err != nil {
			t.Fatal(err)
		}
		probs := randomProbs(r, numEdges)
		exact, err := prog.ExecCtx(context.Background(), probs)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := execFloat(prog, probs)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(exact) {
			t.Fatalf("exact %s outside certified enclosure %v", exact.RatString(), iv)
		}
		if iv.Width() < 0 || math.IsNaN(iv.Width()) {
			t.Fatalf("malformed enclosure %v", iv)
		}
	})
}
