package plan

import (
	"context"
	"math/big"
	"math/rand"
	"testing"
)

// randomComposite builds a Builder-made composite over numParts parts
// of perPart edges each: every part is a random expression over its own
// loads and a few constants, and now and then reads a value of an
// earlier part (a cross-part read NewPartOwners must not skip). Register
// allocation by liveness reuses registers across parts.
func randomComposite(r *rand.Rand, numParts, perPart int) (*Program, []int, error) {
	b := NewBuilder(context.Background(), numParts*perPart)
	var earlier []uint32
	out, factors, err := Compose(b, numParts, func(i int) (uint32, error) {
		pool := []uint32{b.Const(big.NewRat(int64(1+r.Intn(3)), 4))}
		for e := 0; e < perPart; e++ {
			pool = append(pool, b.Load(i*perPart+e))
		}
		if len(earlier) > 0 && r.Intn(8) == 0 {
			pool = append(pool, earlier[r.Intn(len(earlier))])
		}
		pick := func() uint32 { return pool[r.Intn(len(pool))] }
		for k := 0; k < 2+r.Intn(3*perPart); k++ {
			var v uint32
			switch r.Intn(4) {
			case 0:
				v = b.Mul(pick(), pick())
			case 1:
				v = b.Add(b.Mul(pick(), pick()), b.Mul(pick(), b.OneMinus(pick())))
			case 2:
				v = b.OneMinus(pick())
			default:
				v = b.Mul(pick(), b.OneMinus(pick()))
			}
			pool = append(pool, v)
		}
		earlier = append(earlier, pool[len(pool)-1])
		return pool[len(pool)-1], nil
	})
	if err != nil {
		return nil, nil, err
	}
	return b.FinishParts(out, factors)
}

// memoProb draws a probability from the families whose denominators
// the interpreter meets: k/16, decimals, thirds, 0 and 1.
func memoProb(r *rand.Rand) *big.Rat {
	switch r.Intn(6) {
	case 0:
		return new(big.Rat)
	case 1:
		return big.NewRat(1, 1)
	case 2:
		return big.NewRat(int64(r.Intn(1001)), 1000)
	case 3:
		return big.NewRat(int64(r.Intn(3)), 3)
	default:
		return big.NewRat(int64(r.Intn(17)), 16)
	}
}

// checkMemoRun runs ExecMemo against memo and asserts it answers what
// ExecCtx answers; it returns the next memo.
func checkMemoRun(t *testing.T, prog *Program, own *PartOwners, probs []*big.Rat, memo *PartMemo) *PartMemo {
	t.Helper()
	got, next, err := prog.ExecMemo(context.Background(), probs, own, memo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.ExecCtx(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	if got.RatString() != want.RatString() {
		t.Fatalf("ExecMemo %s != ExecCtx %s (%d ops)", got.RatString(), want.RatString(), prog.NumOps())
	}
	return next
}

// TestExecMemoMatchesExecComposite drives Builder-made composites
// through streams of probability edits, each edit a fresh value (the
// caller contract), and checks every memoized run against ExecCtx. An
// unchanged vector must reuse every part it can skip.
func TestExecMemoMatchesExecComposite(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	skippedSome := false
	for trial := 0; trial < 200; trial++ {
		numParts, perPart := 2+r.Intn(6), 1+r.Intn(4)
		prog, parts, err := randomComposite(r, numParts, perPart)
		if err != nil {
			t.Fatal(err)
		}
		if parts == nil {
			continue
		}
		own := NewPartOwners(prog, parts)
		if own == nil {
			continue
		}
		probs := make([]*big.Rat, prog.NumEdges)
		for i := range probs {
			probs[i] = memoProb(r)
		}
		var memo *PartMemo
		for step := 0; step < 12; step++ {
			memo = checkMemoRun(t, prog, own, probs, memo)
			if memo == nil {
				continue
			}
			if step > 0 && memo.reused > 0 {
				skippedSome = true
			}
			again := checkMemoRun(t, prog, own, probs, memo)
			if again.evaluated != 0 {
				t.Fatalf("unchanged vector evaluated %d parts (reused %d)", again.evaluated, again.reused)
			}
			probs = append([]*big.Rat(nil), probs...)
			for k := 1 + r.Intn(2); k > 0; k-- {
				probs[r.Intn(len(probs))] = memoProb(r)
			}
		}
	}
	if !skippedSome {
		t.Fatal("no run after an edit skipped a part")
	}
}

// randomRegProgram is randomProgram over a small register file: every
// op writes a random register and reads defined ones, so registers are
// overwritten and read long after their writers, the shapes a hostile
// decoded plan may take.
func randomRegProgram(r *rand.Rand, numEdges, numOps, numRegs int) *Program {
	p := &Program{NumEdges: numEdges, NumRegs: numRegs}
	var defined []uint32
	seen := make([]bool, numRegs)
	for len(p.Ops) < numOps {
		op := Op{Dst: uint32(r.Intn(numRegs))}
		switch c := r.Intn(8); {
		case c == 0 || len(defined) == 0 || numEdges == 0 && c < 4:
			op.Code, op.A = OpConst, uint32(len(p.Consts))
			p.Consts = append(p.Consts, big.NewRat(int64(r.Intn(5)), int64(1+r.Intn(4))))
		case c < 4:
			op.Code, op.A = OpLoad, uint32(r.Intn(numEdges))
		case c < 6:
			op.Code = []OpCode{OpMul, OpAdd}[r.Intn(2)]
			op.A, op.B = defined[r.Intn(len(defined))], defined[r.Intn(len(defined))]
		default:
			op.Code, op.A = OpOneMinus, defined[r.Intn(len(defined))]
		}
		p.Ops = append(p.Ops, op)
		if !seen[op.Dst] {
			seen[op.Dst] = true
			defined = append(defined, op.Dst)
		}
	}
	p.Out = defined[r.Intn(len(defined))]
	return p
}

// randomPartTable draws a part table any program passes
// ValidatePartTable with: increasing op indices, some folded.
func randomPartTable(r *rand.Rand, numOps int) []int {
	var parts []int
	for i := r.Intn(3); i < numOps; i += 1 + r.Intn(6) {
		if r.Intn(5) == 0 {
			parts = append(parts, FoldedPart)
		}
		parts = append(parts, i)
	}
	if len(parts) < 2 {
		parts = append(parts, FoldedPart, FoldedPart)
	}
	return parts
}

// TestPartOwnersHostilePrograms: on arbitrary valid programs with
// arbitrary valid part tables, deriving ownership never panics, and a
// memoized run answers what ExecCtx answers after any edit.
func TestPartOwnersHostilePrograms(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	derived := 0
	for trial := 0; trial < 2000; trial++ {
		numEdges := r.Intn(6)
		prog := randomRegProgram(r, numEdges, 1+r.Intn(40), 1+r.Intn(6))
		if prog.NumRegs > len(prog.Ops) {
			prog.NumRegs = len(prog.Ops)
			for i := range prog.Ops {
				prog.Ops[i].Dst %= uint32(prog.NumRegs)
			}
		}
		if prog.Validate() != nil {
			continue
		}
		parts := randomPartTable(r, len(prog.Ops))
		if ValidatePartTable(parts, len(prog.Ops)) != nil {
			t.Fatalf("drew an invalid part table %v for %d ops", parts, len(prog.Ops))
		}
		own := NewPartOwners(prog, parts)
		if own == nil {
			continue
		}
		derived++
		probs := make([]*big.Rat, numEdges)
		for i := range probs {
			probs[i] = memoProb(r)
		}
		var memo *PartMemo
		for step := 0; step < 6; step++ {
			if next := checkMemoRun(t, prog, own, probs, memo); next != nil {
				memo = next
			}
			if numEdges > 0 && r.Intn(2) == 0 {
				probs = append([]*big.Rat(nil), probs...)
				probs[r.Intn(numEdges)] = memoProb(r)
			}
		}
	}
	if derived == 0 {
		t.Fatal("no random program had a skippable part")
	}
}

// TestPartOwnersRules pins the ownership rule on a hand-built composite:
// a value one part computes and another reads belongs to neither, and
// constants always run.
func TestPartOwnersRules(t *testing.T) {
	b := NewBuilder(context.Background(), 8)
	half := b.Const(big.NewRat(1, 2))
	var shared uint32
	out, factors, err := Compose(b, 3, func(i int) (uint32, error) {
		v := b.Mul(b.Load(i), half)
		switch i {
		case 0:
			shared = b.OneMinus(v)
			return b.Mul(shared, b.Load(0)), nil
		case 1:
			return b.Mul(v, shared), nil // reads part 0's value
		}
		// Five more loads of degree 1 keep the degree guard (the
		// program's Load+Const count) above the composite's degree,
		// which part 1's read of part 0 pushes past multilinear.
		for e := 3; e < 8; e++ {
			v = b.Add(v, b.Load(e))
		}
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, parts, err := b.FinishParts(out, factors)
	if err != nil || parts == nil {
		t.Fatalf("FinishParts: %v, parts %v", err, parts)
	}
	own := NewPartOwners(prog, parts)
	if own == nil {
		t.Fatal("no skippable part")
	}
	for _, run := range own.runs {
		for i := run.lo; i < run.hi; i++ {
			if prog.Ops[i].Code == OpConst && run.part >= 0 {
				t.Errorf("constant op %d owned by part %d", i, run.part)
			}
		}
	}
	// Part 0's shared value is read by part 1: neither owns it, so
	// part 0 keeps only the ops after it, and part 1 depends on part 0's
	// load, so its loads list both edges.
	if len(own.loads[1]) != 2 {
		t.Errorf("part 1 loads %v, want the loads of edges 0 and 1", own.loads[1])
	}
	for j, f := range parts {
		if own.factor[j] != f {
			t.Errorf("part %d: factor %d not owned (table %v)", j, f, parts)
		}
	}
	probs := make([]*big.Rat, 8)
	for i := range probs {
		probs[i] = big.NewRat(1, int64(20+i))
	}
	memo := checkMemoRun(t, prog, own, probs, nil)
	// A new value for edge 0 dirties parts 0 and 1, not part 2.
	probs = append([]*big.Rat{big.NewRat(1, 20)}, probs[1:]...)
	if memo = checkMemoRun(t, prog, own, probs, memo); memo.reused != 1 || memo.evaluated != 2 {
		t.Fatalf("after editing edge 0: reused %d, evaluated %d; want 1, 2", memo.reused, memo.evaluated)
	}
}

// TestNormalizeMatchesSetFrac checks the GCD-free normalization against
// SetFrac(N, D^k), and that a D with a prime factor of 64 or more takes
// the SetFrac fallback.
func TestNormalizeMatchesSetFrac(t *testing.T) {
	pow := func(b, e int64) *big.Int { return new(big.Int).Exp(big.NewInt(b), big.NewInt(e), nil) }
	mul := func(xs ...*big.Int) *big.Int {
		z := big.NewInt(1)
		for _, x := range xs {
			z.Mul(z, x)
		}
		return z
	}
	d2357 := mul(pow(2, 3), pow(3, 2), big.NewInt(5), big.NewInt(7))
	cases := []struct {
		name   string
		d, n   *big.Int
		k      int
		smooth bool
	}{
		{"zero", big.NewInt(16), big.NewInt(0), 5, true},
		{"N = D^k", big.NewInt(10), pow(10, 7), 7, true},
		{"N = D^k, D from 2,3,5,7", d2357, pow(2520, 4), 4, true},
		{"D from 2,3,5,7", d2357, big.NewInt(123456789), 3, true},
		{"high powers", d2357, mul(pow(2, 200), pow(3, 90), pow(5, 41), pow(7, 33), big.NewInt(11)), 9, true},
		{"powers beyond D^k", big.NewInt(6), mul(pow(2, 80), pow(3, 80)), 5, true},
		{"negative", big.NewInt(1000), new(big.Int).Neg(mul(pow(2, 5), big.NewInt(77))), 2, true},
		{"dyadic", pow(2, 20), mul(pow(2, 19), big.NewInt(3)), 2, true},
		{"decimal", pow(10, 9), mul(pow(5, 30), big.NewInt(1234567)), 6, true},
		{"thirds and sixteenths", big.NewInt(48), mul(pow(3, 2), pow(2, 9), big.NewInt(13)), 3, true},
		{"prime 61", big.NewInt(61 * 8), mul(pow(61, 3), big.NewInt(5)), 4, true},
		{"prime 67 falls back", big.NewInt(67 * 4), mul(pow(67, 2), big.NewInt(6)), 3, false},
		{"word-size prime falls back", big.NewInt(2147483647), big.NewInt(2147483647 * 3), 2, false},
		{"degree 0", big.NewInt(16), big.NewInt(5), 0, true},
	}
	for _, c := range cases {
		f := &intFile{}
		f.d.Set(c.d)
		want := new(big.Rat).SetFrac(c.n, new(big.Int).Exp(c.d, big.NewInt(int64(c.k)), nil))
		var exp [len(smallPrimes)]int
		if c.k > 0 {
			if smooth := f.factorD(&exp); smooth != c.smooth {
				t.Errorf("%s: smooth = %v, want %v", c.name, smooth, c.smooth)
			}
		}
		got := f.normalize(new(big.Int).Set(c.n), c.k)
		if got.RatString() != want.RatString() || got.Cmp(want) != 0 {
			t.Errorf("%s: normalize = %s, want %s", c.name, got.RatString(), want.RatString())
		}
		if got.Denom().Sign() <= 0 || new(big.Int).GCD(nil, nil, got.Num(), got.Denom()).Cmp(intOne) != 0 && got.Num().Sign() != 0 {
			t.Errorf("%s: %s is not reduced", c.name, got.RatString())
		}
	}

	// A sweep over smooth denominators and numerators sharing their
	// primes in every multiplicity.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3000; trial++ {
		d := big.NewInt(1)
		for _, p := range []int64{2, 3, 5, 7, 61} {
			d.Mul(d, pow(p, int64(r.Intn(4))))
		}
		k := r.Intn(6)
		n := new(big.Int).Rand(r, new(big.Int).Lsh(intOne, uint(1+r.Intn(300))))
		for _, p := range []int64{2, 3, 5, 7, 61} {
			n.Mul(n, pow(p, int64(r.Intn(30))))
		}
		f := &intFile{}
		f.d.Set(d)
		want := new(big.Rat).SetFrac(n, new(big.Int).Exp(d, big.NewInt(int64(k)), nil))
		if got := f.normalize(new(big.Int).Set(n), k); got.RatString() != want.RatString() {
			t.Fatalf("N=%v D=%v k=%d: %s, want %s", n, d, k, got.RatString(), want.RatString())
		}
	}
}

// BenchmarkNormalize times the closing normalization of a ~2 000-bit
// answer over a decimal and a dyadic D, GCD-free and through SetFrac.
func BenchmarkNormalize(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		d    int64
		k    int
	}{{"decimal9", 1_000_000_000, 67}, {"sixteenths", 16, 500}} {
		f := &intFile{}
		f.d.SetInt64(c.d)
		den := new(big.Int).Exp(&f.d, big.NewInt(int64(c.k)), nil)
		n := new(big.Int).Rand(r, den)
		z := new(big.Int)
		b.Run(c.name+"/strip", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.normalize(z.Set(n), c.k)
			}
		})
		b.Run(c.name+"/setfrac", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				new(big.Rat).SetFrac(n, den)
			}
		})
	}
}
