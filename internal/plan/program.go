package plan

import (
	"context"
	"fmt"
	"math/big"
	"sync"

	"phom/internal/phomerr"
)

// This file defines the flattened evaluation IR: a Program is a linear
// instruction stream over a register file of rationals, the common
// compilation target of every non-opaque plan. Where the plan tree
// evaluates through a heterogeneous set of Go closures (chain DP,
// interval DP, d-DNNF traversal), a Program is pure data — one op
// array, one constant pool — executed by the single ExecCtx hot loop
// below, and serializable by internal/graphio. The per-substrate tree
// evaluators remain as the differential reference (Plan.Evaluate);
// LowerContext turns a tree into its Program.

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
// its register file). Programs built by LowerContext are valid by
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

// ratRegPool recycles exact register files across ExecCtx calls. Pooling
// does more than skip one make: a reused big.Rat keeps the big.Int
// backing arrays its numerators and denominators grew on earlier runs,
// so steady-state reweight serving performs the GCD-normalizing
// arithmetic of OpMul/OpAdd almost entirely in place instead of
// re-allocating limb storage per op. Register files of different
// programs share the pool; an entry too small for the requesting
// program is dropped and replaced (define-before-use makes stale
// register contents invisible, so no clearing is needed).
var ratRegPool sync.Pool

func getRatRegs(n int) *[]big.Rat {
	if v, ok := ratRegPool.Get().(*[]big.Rat); ok && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	s := make([]big.Rat, n)
	return &s
}

// ExecCtx interprets the program against the probability vector probs
// (indexed by the edge list of the instance the plan was compiled
// from) and returns a freshly allocated result. All arithmetic is
// exact; the result is the same rational the plan tree's Evaluate
// computes, hence RatString-byte-identical. The interpreter polls ctx
// every phomerr.CheckInterval ops, so a cancelled context aborts a
// long exact evaluation (programs over large instances run millions of
// big.Rat operations) within one checkpoint interval.
func (p *Program) ExecCtx(ctx context.Context, probs []*big.Rat) (*big.Rat, error) {
	if len(probs) != p.NumEdges {
		return nil, fmt.Errorf("plan: %d probabilities for a program over %d edges", len(probs), p.NumEdges)
	}
	cp := phomerr.NewCheckpoint(ctx)
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

// Builder assembles a Program. Lowering code obtains registers from the
// emit methods and returns exhausted ones with Release, which bounds
// the register file by the peak live-value count of the computation
// rather than its length. Errors (out-of-range loads, cancellation) are
// sticky and reported by Finish, so lowering code needs no per-call
// checks; once the builder has failed, every emit method becomes a
// cheap no-op, which is what makes cancellation effective inside the
// compile-time dynamic programs of betadnf and ddnnf — the loops may
// keep running, but they stop allocating registers and ops.
type Builder struct {
	numEdges int
	ops      []Op
	consts   []*big.Rat
	constIdx map[string]uint32
	numRegs  uint32
	free     []uint32
	check    *phomerr.Checkpoint
	err      error
}

// NewBuilder returns a Builder for programs over numEdges instance
// edges, without cancellation (the context-free v1 path).
func NewBuilder(numEdges int) *Builder {
	return &Builder{numEdges: numEdges, constIdx: make(map[string]uint32)}
}

// NewBuilderCtx returns a Builder whose emit methods poll ctx every
// phomerr.CheckInterval ops: when ctx is cancelled mid-lowering the
// builder fails sticky with the typed cancellation error, emission
// degenerates to no-ops, and Finish reports the abort.
func NewBuilderCtx(ctx context.Context, numEdges int) *Builder {
	b := NewBuilder(numEdges)
	b.check = phomerr.NewCheckpoint(ctx)
	return b
}

// step gates every emit method: it reports whether emission should
// proceed, polling the cancellation checkpoint and turning a cancelled
// context into the builder's sticky error.
func (b *Builder) step() bool {
	if b.err != nil {
		return false
	}
	if err := b.check.Check(); err != nil {
		b.err = err
		return false
	}
	return true
}

// Failed reports whether the builder is in its sticky-error state
// (lowering bug or cancellation). The emit loops of betadnf and ddnnf
// consult this through their OpEmitter to break out of compile-time
// dynamic programs early instead of spinning through no-op emission.
func (b *Builder) Failed() bool { return b.err != nil }

func (b *Builder) alloc() uint32 {
	if n := len(b.free); n > 0 {
		r := b.free[n-1]
		b.free = b.free[:n-1]
		return r
	}
	r := b.numRegs
	b.numRegs++
	return r
}

// Release returns a register to the free pool. The value it holds must
// not be referenced by any later op.
func (b *Builder) Release(r uint32) { b.free = append(b.free, r) }

// Load emits reg ← π[edge] and returns the register.
func (b *Builder) Load(edge int) uint32 {
	if !b.step() {
		return 0
	}
	if edge < 0 || edge >= b.numEdges {
		b.fail(fmt.Errorf("plan: load of edge %d of %d", edge, b.numEdges))
		return 0
	}
	dst := b.alloc()
	b.ops = append(b.ops, Op{Code: OpLoad, Dst: dst, A: uint32(edge)})
	return dst
}

// Const emits reg ← v and returns the register. Equal rationals share
// one constant-pool entry.
func (b *Builder) Const(v *big.Rat) uint32 {
	if !b.step() {
		return 0
	}
	key := v.RatString()
	idx, ok := b.constIdx[key]
	if !ok {
		idx = uint32(len(b.consts))
		b.consts = append(b.consts, new(big.Rat).Set(v))
		b.constIdx[key] = idx
	}
	dst := b.alloc()
	b.ops = append(b.ops, Op{Code: OpConst, Dst: dst, A: idx})
	return dst
}

// One emits reg ← 1.
func (b *Builder) One() uint32 { return b.Const(ratOne) }

// Zero emits reg ← 0.
func (b *Builder) Zero() uint32 { return b.Const(ratZero) }

// Mul emits reg ← a·b into a fresh register.
func (b *Builder) Mul(a, r2 uint32) uint32 {
	if !b.step() {
		return 0
	}
	dst := b.alloc()
	b.ops = append(b.ops, Op{Code: OpMul, Dst: dst, A: a, B: r2})
	return dst
}

// Add emits reg ← a+b into a fresh register.
func (b *Builder) Add(a, r2 uint32) uint32 {
	if !b.step() {
		return 0
	}
	dst := b.alloc()
	b.ops = append(b.ops, Op{Code: OpAdd, Dst: dst, A: a, B: r2})
	return dst
}

// OneMinus emits reg ← 1−a into a fresh register.
func (b *Builder) OneMinus(a uint32) uint32 {
	if !b.step() {
		return 0
	}
	dst := b.alloc()
	b.ops = append(b.ops, Op{Code: OpOneMinus, Dst: dst, A: a})
	return dst
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Finish seals the program with out as the result register. The
// returned program is valid by construction; Validate is run once as a
// cheap internal consistency check on the lowering itself.
func (b *Builder) Finish(out uint32) (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	p := &Program{
		NumEdges: b.numEdges,
		NumRegs:  int(b.numRegs),
		Consts:   b.consts,
		Ops:      b.ops,
		Out:      out,
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("plan: lowering produced an invalid program: %v", err)
	}
	return p, nil
}

var (
	ratOne  = big.NewRat(1, 1)
	ratZero = new(big.Rat)
)

// LowerContext flattens a plan tree into a Program over numEdges
// instance edges and runs the Optimize pass on the result, so every
// program the solver pipeline executes or serializes is already
// folded, shared and dead-op free. The builder polls ctx every
// phomerr.CheckInterval emitted ops, so cancelling the context aborts
// the compile-time dynamic programs (the chain/interval trellis
// unrolling of betadnf, the per-gate emission of ddnnf) within one
// checkpoint interval and surfaces the typed cancellation error.
func LowerContext(ctx context.Context, p Plan, numEdges int) (*Program, error) {
	b := NewBuilderCtx(ctx, numEdges)
	out, err := p.EmitOps(b)
	if err != nil {
		return nil, err
	}
	prog, err := b.Finish(out)
	if err != nil {
		return nil, err
	}
	return prog.Optimize(), nil
}
