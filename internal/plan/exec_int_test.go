package plan

import (
	"context"
	"math/big"
	"math/rand"
	"testing"
	"time"
)

// Probability-vector families for the integer interpreter. decimal9 and
// dyadic share their denominators' prime factors (the integer path's
// home ground); coprime draws from distinct ~31-bit primes, whose lcm
// outgrows the largest single denominator and trips the D-size
// fallback; mixed picks a family per edge. Every family sprinkles exact
// 0s and 1s, which load at degree 0.
const (
	famDecimal9 = iota
	famDyadic
	famCoprime
	famMixed
	numFamilies
)

// coprimeDens are distinct primes just below 2^31: any three of them
// have an lcm wider than 64 bits and than twice one of them.
var coprimeDens = func() []*big.Int {
	var ps []*big.Int
	for n := int64(1<<31 - 1); len(ps) < 16; n -= 2 {
		if p := big.NewInt(n); p.ProbablyPrime(20) {
			ps = append(ps, p)
		}
	}
	return ps
}()

func familyProb(r *rand.Rand, fam int) *big.Rat {
	switch r.Intn(8) {
	case 0:
		return big.NewRat(0, 1)
	case 1:
		return big.NewRat(1, 1)
	}
	switch fam {
	case famDecimal9:
		return big.NewRat(r.Int63n(1_000_000_000+1), 1_000_000_000)
	case famDyadic:
		den := int64(1) << r.Intn(11)
		return big.NewRat(r.Int63n(den+1), den)
	case famCoprime:
		p := coprimeDens[r.Intn(len(coprimeDens))]
		return new(big.Rat).SetFrac(big.NewInt(1+r.Int63n(p.Int64()-1)), p)
	default:
		return familyProb(r, r.Intn(famMixed))
	}
}

func familyProbs(r *rand.Rand, fam, numEdges int) []*big.Rat {
	probs := make([]*big.Rat, numEdges)
	for i := range probs {
		probs[i] = familyProb(r, fam)
	}
	return probs
}

// checkIntMatchesRat asserts that ExecCtx (integer path or its
// fallback) is RatString-identical to the big.Rat interpreter.
func checkIntMatchesRat(t *testing.T, prog *Program, probs []*big.Rat) {
	t.Helper()
	got, err := prog.ExecCtx(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.execRat(nil, probs)
	if err != nil {
		t.Fatal(err)
	}
	if got.RatString() != want.RatString() {
		_, ok, _ := prog.execInt(nil, probs, nil)
		t.Fatalf("ExecCtx %s != big.Rat loop %s (integer path taken: %v, %d ops)",
			got.RatString(), want.RatString(), ok, prog.NumOps())
	}
}

// TestExecIntMatchesRatRandom is the deterministic twin of
// FuzzExecIntMatchesRat, and checks that each fallback is exercised.
func TestExecIntMatchesRatRandom(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	taken := make([]int, numFamilies)
	for trial := 0; trial < 400; trial++ {
		numEdges := r.Intn(9)
		prog, err := randomProgram(r, numEdges, 1+r.Intn(60))
		if err != nil {
			t.Fatal(err)
		}
		fam := trial % numFamilies
		probs := familyProbs(r, fam, numEdges)
		checkIntMatchesRat(t, prog, probs)
		if _, ok, _ := prog.execInt(nil, probs, nil); ok {
			taken[fam]++
		}
	}
	if taken[famDecimal9] == 0 || taken[famDyadic] == 0 {
		t.Errorf("integer path never taken on decimal/dyadic vectors: %v", taken)
	}
	// Decimal vectors keep D within bounds, so their declines are the
	// degree guard tripping on Mul r r chains.
	if taken[famDecimal9] == 100 {
		t.Errorf("degree guard never tripped: %v", taken)
	}
	if taken[famCoprime] == 100 {
		t.Errorf("coprime denominators never tripped the D-size fallback: %v", taken)
	}
}

// FuzzExecIntMatchesRat fuzzes the integer interpreter's contract:
// whatever program the fuzzer derives (randomProgram's Mul r r chains
// drive degrees past the Load+Const guard) and whichever vector family
// it draws, ExecCtx must be RatString-identical to the big.Rat loop.
func FuzzExecIntMatchesRat(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(20), uint8(famDecimal9))
	f.Add(int64(42), uint8(0), uint8(3), uint8(famDyadic))
	f.Add(int64(-7), uint8(7), uint8(60), uint8(famCoprime))
	f.Add(int64(9), uint8(5), uint8(63), uint8(famMixed))
	// Smooth denominators, the GCD-free normalization's inputs.
	f.Add(int64(3), uint8(8), uint8(48), uint8(famDecimal9))
	f.Add(int64(17), uint8(6), uint8(63), uint8(famDecimal9))
	f.Add(int64(5), uint8(8), uint8(40), uint8(famDyadic))
	f.Add(int64(-11), uint8(3), uint8(63), uint8(famDyadic))
	f.Fuzz(func(t *testing.T, seed int64, edges, ops, fam uint8) {
		r := rand.New(rand.NewSource(seed))
		numEdges := int(edges % 9)
		prog, err := randomProgram(r, numEdges, 1+int(ops)%64)
		if err != nil {
			t.Fatal(err)
		}
		checkIntMatchesRat(t, prog, familyProbs(r, int(fam)%numFamilies, numEdges))
	})
}

// TestExecIntDegreeGuard: a program that squares a probability-1
// register of degree 1 (π + (1 − π) with π = 1/10) forty times must
// not build (10·…)^(2^40). The degree guard hands it to the big.Rat
// loop, which answers at once.
func TestExecIntDegreeGuard(t *testing.T) {
	ops := []Op{
		{Code: OpLoad, Dst: 0, A: 0},
		{Code: OpOneMinus, Dst: 1, A: 0},
		{Code: OpAdd, Dst: 1, A: 0, B: 1},
	}
	for i := 0; i < 40; i++ {
		ops = append(ops, Op{Code: OpMul, Dst: 1, A: 1, B: 1})
	}
	ops = append(ops,
		Op{Code: OpLoad, Dst: 2, A: 1},
		Op{Code: OpMul, Dst: 1, A: 1, B: 2})
	prog := &Program{NumEdges: 2, NumRegs: 3, Ops: ops, Out: 1}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	probs := []*big.Rat{big.NewRat(1, 10), big.NewRat(1, 1)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok, _ := prog.execInt(nil, probs, nil); ok {
			t.Error("integer path ran a degree-2^40 register")
		}
		got, err := prog.ExecCtx(context.Background(), probs)
		if err != nil {
			t.Error(err)
			return
		}
		if got.RatString() != "1" {
			t.Errorf("ExecCtx = %s, want 1", got.RatString())
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("degree guard did not fire within a second")
	}
}

// TestExecIntCertainEdgesDegreeZero: exact 0/1 probabilities and
// integral constants load at degree 0, so squaring a certain edge's
// register twenty times stays on the integer path (at degree 1 it would
// pass the Load+Const bound of 2 after the second squaring).
func TestExecIntCertainEdgesDegreeZero(t *testing.T) {
	b := NewBuilder(context.Background(), 1)
	acc := b.Load(0)
	for i := 0; i < 20; i++ {
		acc = b.Mul(acc, acc)
	}
	prog, err := b.Finish(b.Add(acc, b.Const(big.NewRat(2, 1))))
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumOps() != 23 {
		t.Fatalf("program has %d ops, want Load, 20 Muls, Const, Add", prog.NumOps())
	}
	got, ok, err := prog.execInt(nil, []*big.Rat{big.NewRat(1, 1)}, nil)
	if err != nil || !ok {
		t.Fatalf("execInt ok=%v err=%v on a certain edge", ok, err)
	}
	if got.RatString() != "3" {
		t.Fatalf("execInt = %s, want 3", got.RatString())
	}
}
