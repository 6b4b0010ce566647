package plan

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"sync"

	"phom/internal/phomerr"
)

// This file defines the flattened evaluation IR: a Program is a linear
// instruction stream over a register file of rationals, the common
// compilation target of every non-opaque plan. Where the substrates
// evaluate through a heterogeneous set of dynamic programs (chain DP,
// interval DP, d-DNNF traversal), a Program is pure data — one op
// array, one constant pool — executed by the single ExecCtx entry
// below, and serializable by internal/graphio. The cell compilers emit
// it through a Builder; the substrates' own Prob methods remain as the
// differential reference of the tests.

// OpCode enumerates the instruction set. The set is deliberately tiny:
// every tractable cell of the paper evaluates by a straight-line
// sequence of loads, constants, multiplications, additions and
// complementations (the chain and interval dynamic programs unroll —
// their trellises are fixed at compile time — and d-DNNF gates map one
// op per gate input).
type OpCode uint8

const (
	// OpConst sets reg[Dst] to the constant pool entry A.
	OpConst OpCode = iota
	// OpLoad sets reg[Dst] to π[A], the probability of instance edge A.
	OpLoad
	// OpMul sets reg[Dst] to reg[A] · reg[B].
	OpMul
	// OpAdd sets reg[Dst] to reg[A] + reg[B].
	OpAdd
	// OpOneMinus sets reg[Dst] to 1 − reg[A].
	OpOneMinus

	numOpCodes = iota // count of defined opcodes, for validation
)

// Op is one instruction. A and B are register indices for OpMul/OpAdd,
// A is a register index for OpOneMinus, a constant-pool index for
// OpConst, and an instance edge index for OpLoad.
type Op struct {
	Code OpCode
	Dst  uint32
	A    uint32
	B    uint32
}

// Program is a compiled plan flattened into straight-line code: execute
// the ops in order against a register file of NumRegs rationals, then
// read the result from register Out. Programs are immutable after
// construction and safe for concurrent ExecCtx calls (each call owns
// its register file). Programs built by a Builder are valid by
// construction; decoded ones must pass Validate before ExecCtx (the
// decoder of internal/graphio enforces this).
type Program struct {
	// NumEdges is the length of the probability vector ExecCtx expects —
	// the edge count of the instance the plan was compiled from.
	NumEdges int
	// NumRegs is the size of the register file.
	NumRegs int
	// Consts is the constant pool (exact rationals).
	Consts []*big.Rat
	// Ops is the instruction stream.
	Ops []Op
	// Out is the register holding the result after the last op.
	Out uint32
}

// NumOps returns the instruction count.
func (p *Program) NumOps() int { return len(p.Ops) }

// Validate checks the program statically: opcode and operand ranges,
// definition before use, and a defined Out register. A valid program
// cannot make ExecCtx panic on any probability vector of length NumEdges.
func (p *Program) Validate() error {
	if p.NumEdges < 0 {
		return fmt.Errorf("plan: negative edge count %d", p.NumEdges)
	}
	if p.NumRegs < 1 {
		return fmt.Errorf("plan: program needs at least one register, has %d", p.NumRegs)
	}
	if len(p.Ops) == 0 {
		return fmt.Errorf("plan: empty instruction stream")
	}
	if p.NumRegs > len(p.Ops) {
		// Every register must be written before use and each op writes
		// exactly one, so more registers than ops means dead registers —
		// and would let a hostile encoding demand unbounded memory.
		return fmt.Errorf("plan: %d registers for %d ops", p.NumRegs, len(p.Ops))
	}
	for i, c := range p.Consts {
		if c == nil {
			return fmt.Errorf("plan: nil constant %d", i)
		}
	}
	defined := make([]bool, p.NumRegs)
	for i, op := range p.Ops {
		if op.Code >= numOpCodes {
			return fmt.Errorf("plan: op %d: unknown opcode %d", i, op.Code)
		}
		if int(op.Dst) >= p.NumRegs {
			return fmt.Errorf("plan: op %d: destination register %d of %d", i, op.Dst, p.NumRegs)
		}
		switch op.Code {
		case OpConst:
			if int(op.A) >= len(p.Consts) {
				return fmt.Errorf("plan: op %d: constant %d of %d", i, op.A, len(p.Consts))
			}
		case OpLoad:
			if int(op.A) >= p.NumEdges {
				return fmt.Errorf("plan: op %d: edge %d of %d", i, op.A, p.NumEdges)
			}
		case OpMul, OpAdd:
			if int(op.A) >= p.NumRegs || !defined[op.A] {
				return fmt.Errorf("plan: op %d: operand register %d undefined", i, op.A)
			}
			if int(op.B) >= p.NumRegs || !defined[op.B] {
				return fmt.Errorf("plan: op %d: operand register %d undefined", i, op.B)
			}
		case OpOneMinus:
			if int(op.A) >= p.NumRegs || !defined[op.A] {
				return fmt.Errorf("plan: op %d: operand register %d undefined", i, op.A)
			}
		}
		defined[op.Dst] = true
	}
	if int(p.Out) >= p.NumRegs || !defined[p.Out] {
		return fmt.Errorf("plan: output register %d undefined", p.Out)
	}
	return nil
}

// ExecCtx interprets the program against the probability vector probs
// (indexed by the edge list of the instance the plan was compiled
// from) and returns a freshly allocated result. All arithmetic is
// exact; the result is the same rational the substrate dynamic
// programs compute, hence RatString-byte-identical.
//
// Registers normally run as big.Int numerators over powers of one
// common denominator D (execInt), normalized once at the end, without
// a GCD when D's prime factors are small; the big.Rat loop (execRat),
// which pays a GCD per op, serves the
// inputs where that representation would not pay off. Either way the
// interpreter polls ctx every phomerr.CheckInterval ops, so a cancelled
// context aborts a long exact evaluation within one checkpoint
// interval.
func (p *Program) ExecCtx(ctx context.Context, probs []*big.Rat) (*big.Rat, error) {
	if len(probs) != p.NumEdges {
		return nil, fmt.Errorf("plan: %d probabilities for a program over %d edges", len(probs), p.NumEdges)
	}
	cp := phomerr.NewCheckpoint(ctx)
	if r, ok, err := p.execInt(cp, probs, nil); ok {
		return r, err
	}
	return p.execRat(cp, probs)
}

// denomBlowup bounds the common denominator D of the integer
// interpreter: D may have at most denomBlowup times the bits of the
// largest single input denominator (but always a machine word's worth).
// Inputs whose denominators share their prime factors — decimals, k/2^j
// — have D equal to the largest denominator; unrelated denominators
// make D their product, and every degree-k register would then carry
// k·|D| bits where the reduced rationals carry far fewer.
const denomBlowup = 2

// intFile is the pooled state of one execInt call: the numerator
// register file with its parallel degree slice, the powers of D
// computed so far (pow[k] = D^k where powOK[k]), D itself and two
// scratch integers. A reused entry keeps the limb storage its integers
// grew on earlier runs, so steady-state reweight serving computes in
// place; define-before-use makes stale register contents invisible.
type intFile struct {
	num   []big.Int
	deg   []int
	pow   []big.Int
	powOK []bool
	d     big.Int
	t, q  big.Int
	w, r  big.Int // normalize's scratch
}

var intFilePool sync.Pool

func getIntFile(n int) *intFile {
	f, _ := intFilePool.Get().(*intFile)
	if f == nil || cap(f.num) < n {
		f = &intFile{num: make([]big.Int, n), deg: make([]int, n)}
	}
	f.num, f.deg = f.num[:n], f.deg[:n]
	clear(f.powOK)
	return f
}

var intOne = big.NewInt(1)

// dpow returns D^k, computed on first use within the call.
func (f *intFile) dpow(k int) *big.Int {
	if k == 0 {
		return intOne
	}
	if k >= len(f.pow) {
		// Grow without copying: big.Int values must not be shallow
		// copied, and powers are cheap to recompute.
		f.pow, f.powOK = make([]big.Int, 2*k), make([]bool, 2*k)
	}
	if !f.powOK[k] {
		if f.powOK[k-1] {
			f.pow[k].Mul(&f.pow[k-1], &f.d)
		} else {
			f.pow[k].Exp(&f.d, big.NewInt(int64(k)), nil)
		}
		f.powOK[k] = true
	}
	return &f.pow[k]
}

// load sets z to the numerator of x over D and returns its degree: 0
// for an integer (a certain or impossible edge, an integral constant),
// 1 otherwise.
func (f *intFile) load(z *big.Int, x *big.Rat) int {
	if x.IsInt() {
		z.Set(x.Num())
		return 0
	}
	if den := x.Denom(); den.Cmp(&f.d) == 0 {
		z.Set(x.Num())
	} else {
		f.q.Quo(&f.d, den)
		z.Mul(x.Num(), &f.q)
	}
	return 1
}

// smallPrimes are the primes below 64. A D whose prime factors all lie
// here (decimals, dyadics, k/16, thirds) is smooth: normalize divides
// them out of the answer a machine word at a time instead of running a
// GCD. wordPow[i] is the largest power of smallPrimes[i] that fits a
// word, and wordExp[i] its exponent.
var (
	smallPrimes      = [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61}
	wordPow, wordExp = func() (pw [len(smallPrimes)]uint64, ex [len(smallPrimes)]int) {
		for i, p := range smallPrimes {
			pw[i] = 1
			for pw[i] <= math.MaxUint64/p {
				pw[i] *= p
				ex[i]++
			}
		}
		return pw, ex
	}()
)

// normalize returns the reduced rational n / D^k, overwriting n. When D
// is smooth it strips D's primes from n, at most as many of each as D^k
// holds, and writes the coprime numerator and the rest of D^k straight
// into the result (big.Rat's Num and Denom are references once it is
// set), so no GCD runs. Any other D goes through SetFrac.
func (f *intFile) normalize(n *big.Int, k int) *big.Rat {
	if k == 0 || n.Sign() == 0 {
		return new(big.Rat).SetInt(n)
	}
	var exp [len(smallPrimes)]int
	if !f.factorD(&exp) {
		return new(big.Rat).SetFrac(n, f.dpow(k))
	}
	neg := n.Sign() < 0
	n.Abs(n)
	r := new(big.Rat).SetInt64(1)
	den := r.Denom()
	var twos int
	for i, e := range exp {
		if e == 0 {
			continue
		}
		left := k*e - f.strip(n, i, k*e)
		if i == 0 {
			twos = left
		} else if left > 0 {
			f.w.SetInt64(int64(left))
			den.Mul(den, f.t.Exp(f.t.SetUint64(smallPrimes[i]), &f.w, nil))
		}
	}
	den.Lsh(den, uint(twos))
	if neg {
		n.Neg(n)
	}
	r.Num().Set(n)
	return r
}

// factorD sets exp[i] to the multiplicity of smallPrimes[i] in D and
// reports whether D is smooth (they make up all of D).
func (f *intFile) factorD(exp *[len(smallPrimes)]int) bool {
	rest := f.r.Set(&f.d)
	for i := range smallPrimes {
		if rest.Cmp(intOne) == 0 {
			break
		}
		exp[i] = f.strip(rest, i, rest.BitLen())
	}
	return rest.Cmp(intOne) == 0
}

// strip divides z (> 0) by smallPrimes[i] as often as that divides it,
// at most e times, and returns how often it did: one word division per
// wordExp[i] factors, and one more once a remainder shows the rest.
func (f *intFile) strip(z *big.Int, i, e int) int {
	if i == 0 {
		m := min(int(z.TrailingZeroBits()), e)
		z.Rsh(z, uint(m))
		return m
	}
	p, m := smallPrimes[i], 0
	for m < e {
		j, pw := wordExp[i], wordPow[i]
		if e-m < j {
			j, pw = e-m, wordPower(p, e-m)
		}
		f.q.QuoRem(z, f.w.SetUint64(pw), &f.t)
		if f.t.Sign() == 0 {
			z.Set(&f.q)
			m += j
			continue
		}
		// z = q·p^j + rem with 0 < rem < p^j, so p divides z exactly as
		// often as it divides rem.
		v, rem := 0, f.t.Uint64()
		for rem%p == 0 {
			rem /= p
			v++
		}
		if v > 0 {
			z.Quo(z, f.w.SetUint64(wordPower(p, v)))
		}
		return m + v
	}
	return m
}

// wordPower returns p^j, which the caller knows fits a word.
func wordPower(p uint64, j int) uint64 {
	r := uint64(1)
	for ; j > 0; j-- {
		r *= p
	}
	return r
}

// input returns the rational a Load or Const op reads; ok is false for
// the other opcodes.
func (p *Program) input(op *Op, probs []*big.Rat) (x *big.Rat, ok bool) {
	switch op.Code {
	case OpLoad:
		return probs[op.A], true
	case OpConst:
		return p.Consts[op.A], true
	}
	return nil, false
}

// execInt is the integer interpreter behind ExecCtx and ExecMemo. Every register
// holds a rational N / D^k as its numerator N and degree k, where D is
// the lcm of the denominators of the probabilities and constants the
// program reads: a Load or non-integer Const has degree 1 (integers have
// degree 0), Mul adds degrees, Add lifts the lower-degree operand by
// D^Δ, and OneMinus computes D^k − N. The d-DNNF lineages are
// decomposable and the chain/interval trellises multiply distinct
// edges, so honest programs keep every degree within their Load+Const
// count. ok is false when execInt declines the input, before or during
// the run, and the caller falls back to execRat:
//   - some probability is nil (execRat reports it if the edge is
//     loaded) or an opcode is unknown;
//   - D outgrows denomBlowup times the largest single denominator;
//   - a degree exceeds the program's Load+Const count, which only a
//     hostile decoded program can reach and which would otherwise
//     build powers like D^(2^k).
//
// With a part run (ExecMemo) the ops of clean parts are skipped, their
// factors' registers filled from the input memo, and every other
// part's factor is recorded for the next run. The result is normalized
// by normalize, without a GCD whenever D is smooth.
func (p *Program) execInt(cp *phomerr.Checkpoint, probs []*big.Rat, run *partRun) (r *big.Rat, ok bool, err error) {
	f := getIntFile(p.NumRegs)
	defer intFilePool.Put(f)
	whole := [1]opRun{{hi: int32(len(p.Ops)), part: -1}}
	runs, maxDeg := whole[:], 0
	if run != nil {
		if maxDeg, ok = run.prepare(p, f, probs); !ok {
			return nil, false, nil
		}
		runs = run.own.runs
	} else {
		// D and the degree bound cover only what the program reads, so
		// edges it never loads cost nothing and cannot trip the fallback.
		inputs, maxBits, ok := p.inputBits(probs, nil)
		if !ok {
			return nil, false, nil
		}
		maxDeg = inputs
		f.d.SetInt64(1)
		if !f.foldInputs(&f.d, p, probs, nil, max(denomBlowup*maxBits, 64)) {
			return nil, false, nil
		}
	}

	num, deg := f.num, f.deg
	for _, seg := range runs {
		rec := -1 // the op whose result part seg.part records
		if j := seg.part; j >= 0 {
			fi := run.own.factor[j]
			if run.clean[j] {
				if fi >= int(seg.lo) && fi < int(seg.hi) {
					op, pv := &p.Ops[fi], run.out.parts[j]
					num[op.Dst].Set(&pv.n)
					deg[op.Dst] = pv.k
				}
				continue
			}
			rec = fi
		}
		for i := int(seg.lo); i < int(seg.hi); i++ {
			if err := cp.Check(); err != nil {
				return nil, true, err
			}
			op := &p.Ops[i]
			dst := &num[op.Dst]
			switch op.Code {
			case OpConst, OpLoad:
				x, _ := p.input(op, probs)
				deg[op.Dst] = f.load(dst, x)
			case OpMul:
				k := deg[op.A] + deg[op.B]
				if k > maxDeg {
					return nil, false, nil
				}
				dst.Mul(&num[op.A], &num[op.B])
				deg[op.Dst] = k
			case OpAdd:
				a, b := op.A, op.B
				if deg[a] > deg[b] {
					a, b = b, a
				}
				k := deg[b]
				if deg[a] == k {
					dst.Add(&num[a], &num[b])
				} else {
					f.t.Mul(&num[a], f.dpow(k-deg[a]))
					dst.Add(&f.t, &num[b])
				}
				deg[op.Dst] = k
			case OpOneMinus:
				k := deg[op.A]
				dst.Sub(f.dpow(k), &num[op.A])
				deg[op.Dst] = k
			default:
				return nil, false, nil
			}
			if i == rec {
				run.record(p, int(seg.part), dst, deg[op.Dst], probs)
			}
		}
	}
	return f.normalize(&num[p.Out], deg[p.Out]), true, nil
}

// inputBits counts the inputs (Load and Const operands) read by the
// ops at idx, every op when idx is nil, and returns the bits of their
// widest non-integer denominator; ok is false on a nil probability.
func (p *Program) inputBits(probs []*big.Rat, idx []int32) (inputs, maxBits int, ok bool) {
	n := len(idx)
	if idx == nil {
		n = len(p.Ops)
	}
	for t := 0; t < n; t++ {
		i := t
		if idx != nil {
			i = int(idx[t])
		}
		x, ok := p.input(&p.Ops[i], probs)
		if !ok {
			continue
		}
		if x == nil {
			return 0, 0, false
		}
		inputs++
		if !x.IsInt() {
			maxBits = max(maxBits, x.Denom().BitLen())
		}
	}
	return inputs, maxBits, true
}

// foldInputs folds the denominators of the inputs read by the ops at
// idx (every op when idx is nil) into z, as fold does.
func (f *intFile) foldInputs(z *big.Int, p *Program, probs []*big.Rat, idx []int32, limit int) bool {
	n := len(idx)
	if idx == nil {
		n = len(p.Ops)
	}
	for t := 0; t < n; t++ {
		i := t
		if idx != nil {
			i = int(idx[t])
		}
		x, ok := p.input(&p.Ops[i], probs)
		if ok && !x.IsInt() && !f.fold(z, x.Denom(), limit) {
			return false
		}
	}
	return true
}

// fold sets z to lcm(z, den) and reports whether z still fits in limit
// bits (D's bound: denomBlowup times the widest input denominator, and
// at least a word).
func (f *intFile) fold(z, den *big.Int, limit int) bool {
	if den.Cmp(z) == 0 {
		return true
	}
	if f.q.QuoRem(z, den, &f.t); f.t.Sign() == 0 {
		return true // den divides z
	}
	f.q.GCD(nil, nil, z, den)
	f.t.Quo(den, &f.q)
	z.Mul(z, &f.t)
	return z.BitLen() <= limit
}

// ratRegPool recycles the register files of execRat. A reused big.Rat
// keeps the big.Int backing arrays its numerator and denominator grew
// on earlier runs, so the GCD-normalizing arithmetic runs mostly in
// place. Register files of different programs share the pool; an entry
// too small for the requesting program is dropped and replaced.
var ratRegPool sync.Pool

func getRatRegs(n int) *[]big.Rat {
	if v, ok := ratRegPool.Get().(*[]big.Rat); ok && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	s := make([]big.Rat, n)
	return &s
}

// execRat is the big.Rat interpreter behind ExecCtx: one normalized
// rational per register, a GCD after every op. It serves the inputs
// execInt declines.
func (p *Program) execRat(cp *phomerr.Checkpoint, probs []*big.Rat) (*big.Rat, error) {
	rp := getRatRegs(p.NumRegs)
	defer ratRegPool.Put(rp)
	regs := *rp
	one := ratOne
	for i := range p.Ops {
		if err := cp.Check(); err != nil {
			return nil, err
		}
		op := &p.Ops[i]
		switch op.Code {
		case OpConst:
			regs[op.Dst].Set(p.Consts[op.A])
		case OpLoad:
			pr := probs[op.A]
			if pr == nil {
				return nil, fmt.Errorf("plan: nil probability for edge %d", op.A)
			}
			regs[op.Dst].Set(pr)
		case OpMul:
			regs[op.Dst].Mul(&regs[op.A], &regs[op.B])
		case OpAdd:
			regs[op.Dst].Add(&regs[op.A], &regs[op.B])
		case OpOneMinus:
			regs[op.Dst].Sub(one, &regs[op.A])
		default:
			return nil, fmt.Errorf("plan: unknown opcode %d", op.Code)
		}
	}
	return new(big.Rat).Set(&regs[p.Out]), nil
}
