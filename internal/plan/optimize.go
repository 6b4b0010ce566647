package plan

import (
	"math/big"
)

// This file implements the lowering-time optimization pass over the
// Program IR. The emit dynamic programs of betadnf and ddnnf favour
// regularity over minimality: chain and interval trellises emit
// mul-by-one accumulator seeds, per-state complements of the same
// variable, and constant subtrees that never vary with π. Optimize
// removes that redundancy with three classic, exactness-preserving
// transformations — constant folding, global value numbering (CSE with
// commutative operand ordering), and dead-op elimination — plus the
// algebraic identities x·1 = x, x·0 = 0, x+0 = x and 1−(1−x) = x.
//
// Every rewrite is exact: program arithmetic is rational, so folding
// and reassociation cannot change a single result bit (ExecCtx of the
// optimized program is RatString-byte-identical to ExecCtx of the
// original). On the float substrate the optimized program runs the
// same-or-fewer interval operations, so its certified enclosure still
// contains the exact value — it is typically tighter, never unsound
// (soundness is a per-op property of the kernel, not of the schedule).
//
// Optimize runs once per lowering (LowerContext); decoded programs are
// executed exactly as encoded, so snapshot round-trips stay
// byte-identical (see graphio's plan encoding).

// vKind enumerates the value forms of the optimizer's value-numbering
// table, mirroring the opcodes.
type vKind uint8

const (
	vConst vKind = iota
	vLoad
	vMul
	vAdd
	vOneMinus
)

// optValue is one entry of the value table: a canonical, deduplicated
// computation. a and b are value ids (operands) for vMul/vAdd, a is a
// value id for vOneMinus and an instance edge index for vLoad, and c is
// the constant for vConst. Operand ids always precede the value's own
// id, so the table is topologically ordered by construction.
type optValue struct {
	kind vKind
	a, b int
	c    *big.Rat
}

// optKey is the hash-consing key of a value.
type optKey struct {
	kind vKind
	a, b int
	c    string // RatString for vConst, "" otherwise
}

type optimizer struct {
	vals   []optValue
	lookup map[optKey]int
}

func (o *optimizer) intern(key optKey, v optValue) int {
	if id, ok := o.lookup[key]; ok {
		return id
	}
	id := len(o.vals)
	o.vals = append(o.vals, v)
	o.lookup[key] = id
	return id
}

// internConst interns an exact constant. r must not be mutated after
// the call (program constant pools are immutable; folded results are
// fresh rationals).
func (o *optimizer) internConst(r *big.Rat) int {
	return o.intern(optKey{kind: vConst, c: r.RatString()}, optValue{kind: vConst, c: r})
}

func (o *optimizer) internLoad(edge int) int {
	return o.intern(optKey{kind: vLoad, a: edge}, optValue{kind: vLoad, a: edge})
}

func (o *optimizer) internMul(a, b int) int {
	va, vb := &o.vals[a], &o.vals[b]
	if va.kind == vConst && vb.kind == vConst {
		return o.internConst(new(big.Rat).Mul(va.c, vb.c))
	}
	// x·1 = x and x·0 = 0 hold exactly; the float kernel's enclosure of
	// the replacement is the operand's own (tighter or equal, and the
	// exact value is unchanged, so it stays sound).
	if va.kind == vConst {
		if va.c.Cmp(ratOne) == 0 {
			return b
		}
		if va.c.Sign() == 0 {
			return a
		}
	}
	if vb.kind == vConst {
		if vb.c.Cmp(ratOne) == 0 {
			return a
		}
		if vb.c.Sign() == 0 {
			return b
		}
	}
	// Multiplication commutes exactly on both substrates (the interval
	// kernel bounds the same four products either way), so order the
	// operands canonically: a·b and b·a share one value.
	if a > b {
		a, b = b, a
	}
	return o.intern(optKey{kind: vMul, a: a, b: b}, optValue{kind: vMul, a: a, b: b})
}

func (o *optimizer) internAdd(a, b int) int {
	va, vb := &o.vals[a], &o.vals[b]
	if va.kind == vConst && vb.kind == vConst {
		return o.internConst(new(big.Rat).Add(va.c, vb.c))
	}
	if va.kind == vConst && va.c.Sign() == 0 {
		return b
	}
	if vb.kind == vConst && vb.c.Sign() == 0 {
		return a
	}
	if a > b {
		a, b = b, a
	}
	return o.intern(optKey{kind: vAdd, a: a, b: b}, optValue{kind: vAdd, a: a, b: b})
}

func (o *optimizer) internOneMinus(a int) int {
	va := &o.vals[a]
	if va.kind == vConst {
		return o.internConst(new(big.Rat).Sub(ratOne, va.c))
	}
	if va.kind == vOneMinus {
		// 1−(1−x) = x exactly.
		return va.a
	}
	return o.intern(optKey{kind: vOneMinus, a: a}, optValue{kind: vOneMinus, a: a})
}

// Optimize returns an equivalent program with redundant arithmetic
// removed: constant subcomputations folded (exactly — rational
// arithmetic has no rounding, so ExecCtx of the result is
// byte-identical to ExecCtx of the receiver on every probability vector), structurally
// identical subcomputations shared, the identities x·1, x·0, x+0 and
// 1−(1−x) applied, and every op whose value cannot reach the output
// register dropped. The receiver is not modified; the result passes
// Validate and its register file is re-allocated by peak liveness.
// Invalid programs are returned unchanged — Optimize never turns a
// decodable program into a different one it cannot prove equivalent.
func (p *Program) Optimize() *Program {
	if err := p.Validate(); err != nil {
		return p
	}
	o := &optimizer{lookup: make(map[optKey]int, len(p.Ops))}
	regVal := make([]int, p.NumRegs)
	for i := range p.Ops {
		op := &p.Ops[i]
		var id int
		switch op.Code {
		case OpConst:
			id = o.internConst(p.Consts[op.A])
		case OpLoad:
			id = o.internLoad(int(op.A))
		case OpMul:
			id = o.internMul(regVal[op.A], regVal[op.B])
		case OpAdd:
			id = o.internAdd(regVal[op.A], regVal[op.B])
		case OpOneMinus:
			id = o.internOneMinus(regVal[op.A])
		}
		regVal[op.Dst] = id
	}
	outVal := regVal[p.Out]

	// Dead-op elimination: only values reachable from the output are
	// rebuilt. Value ids are topologically ordered (operands precede
	// users), so a single ascending emission pass is a valid schedule.
	needed := make([]bool, len(o.vals))
	stack := []int{outVal}
	needed[outVal] = true
	for len(stack) > 0 {
		v := &o.vals[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		switch v.kind {
		case vMul, vAdd:
			for _, op := range [2]int{v.a, v.b} {
				if !needed[op] {
					needed[op] = true
					stack = append(stack, op)
				}
			}
		case vOneMinus:
			if !needed[v.a] {
				needed[v.a] = true
				stack = append(stack, v.a)
			}
		}
	}

	// lastUse drives register recycling in the rebuild: a value's
	// register is released right after its last needed user emits.
	lastUse := make([]int, len(o.vals))
	for id, v := range o.vals {
		if !needed[id] {
			continue
		}
		switch v.kind {
		case vMul, vAdd:
			lastUse[v.a], lastUse[v.b] = id, id
		case vOneMinus:
			lastUse[v.a] = id
		}
	}
	lastUse[outVal] = len(o.vals) // the output register is never freed

	b := NewBuilder(p.NumEdges)
	regOf := make([]uint32, len(o.vals))
	for id, v := range o.vals {
		if !needed[id] {
			continue
		}
		switch v.kind {
		case vConst:
			regOf[id] = b.Const(v.c)
		case vLoad:
			regOf[id] = b.Load(v.a)
		case vMul:
			regOf[id] = b.Mul(regOf[v.a], regOf[v.b])
		case vAdd:
			regOf[id] = b.Add(regOf[v.a], regOf[v.b])
		case vOneMinus:
			regOf[id] = b.OneMinus(regOf[v.a])
		}
		switch v.kind {
		case vMul, vAdd:
			if lastUse[v.a] == id {
				b.Release(regOf[v.a])
			}
			if v.b != v.a && lastUse[v.b] == id {
				b.Release(regOf[v.b])
			}
		case vOneMinus:
			if lastUse[v.a] == id {
				b.Release(regOf[v.a])
			}
		}
	}
	np, err := b.Finish(regOf[outVal])
	if err != nil {
		return p // cannot happen for a valid input; keep the proven program
	}
	return np
}
