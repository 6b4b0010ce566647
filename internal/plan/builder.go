package plan

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"slices"

	"phom/internal/phomerr"
)

// This file builds Programs. The emit dynamic programs of betadnf and
// ddnnf favour regularity over minimality: chain and interval trellises
// emit mul-by-one accumulator seeds, per-state complements of the same
// variable, and constant subtrees that never vary with π. The Builder
// removes that redundancy as it is emitted, by value numbering: every
// emit call is answered from a table of canonical computations, after
// constant folding and the identities x·1 = x, x·0 = 0, x+0 = x and
// 1−(1−x) = x, with Mul and Add operands in canonical order so that a·b
// and b·a share one value. Finish drops the values that cannot reach
// the output and allocates registers by liveness.
//
// Every rewrite is exact: program arithmetic is rational, so folding
// and sharing cannot change a single result bit. On the float substrate
// the built program runs the same-or-fewer interval operations than the
// emitted arithmetic, so its certified enclosure still contains the
// exact value (soundness is a per-op property of the kernel, not of the
// schedule). Decoded programs are executed exactly as encoded, so
// snapshot round-trips stay byte-identical (see graphio's plan
// encoding).

// value is one entry of the Builder's value list: a canonical,
// deduplicated computation. a and b are value ids (operands) for
// OpMul/OpAdd; a is a value id for OpOneMinus, an instance edge index
// for OpLoad and an index into the Builder's constants for OpConst.
// Operand ids always precede the value's own id, so the table is
// topologically ordered by construction.
type value struct {
	a, b uint32
	code OpCode
}

// Builder assembles a Program. The emit methods return value handles
// (ids into the value table), not registers; equal computations get
// equal handles, and a handle stays valid for the builder's lifetime.
// Errors (out-of-range loads or handles, cancellation) are sticky and
// reported by Finish, so lowering code needs no per-call checks; once
// the builder has failed, every emit method becomes a cheap no-op,
// which is what makes cancellation effective inside the compile-time
// dynamic programs of betadnf and ddnnf — the loops may keep running,
// but they stop growing the table.
type Builder struct {
	numEdges int
	vals     []value
	// table numbers the non-constant values: an open-addressing hash
	// table, probed linearly from a hash of (code, a, b), whose slots
	// hold a handle plus one (0: empty). It holds the
	// len(vals) − len(consts) non-constant handles and is kept at most
	// half full; shift is 64 − log2(len(table)). Handles are still
	// assigned in emit order (the next index into vals), so the table
	// decides only which emits are new.
	table    []uint32
	shift    uint
	consts   []*big.Rat        // the distinct constants, by OpConst's a
	constIdx map[string]uint32 // constant values by RatString
	check    *phomerr.Checkpoint
	err      error
}

// The value table is sized on its first use: a compile interns about
// 11 values per instance edge on the serving corpus, so a table of
// slotsPerEdge = 32 slots per edge (at most 16 values) rarely grows.
// A large instance starts at maxFirstTable slots and grows from there,
// so a compile that interns little never zeroes a huge table.
const (
	slotsPerEdge  = 32
	maxFirstTable = 1 << 16
)

// NewBuilder returns a Builder for programs over numEdges instance
// edges whose emit methods poll ctx every phomerr.CheckInterval calls:
// when ctx is cancelled mid-lowering the builder fails sticky with the
// typed cancellation error, emission degenerates to no-ops, and Finish
// reports the abort.
func NewBuilder(ctx context.Context, numEdges int) *Builder {
	return &Builder{
		numEdges: numEdges,
		constIdx: make(map[string]uint32),
		check:    phomerr.NewCheckpoint(ctx),
	}
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

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// operands reports whether every handle names a value, failing the
// builder otherwise.
func (b *Builder) operands(hs ...uint32) bool {
	for _, h := range hs {
		if int(h) >= len(b.vals) {
			b.fail(fmt.Errorf("plan: operand %d of %d values", h, len(b.vals)))
			return false
		}
	}
	return true
}

// intern returns the handle of the non-constant value v, appending v
// to the value list when it is new.
func (b *Builder) intern(v value) uint32 {
	if 2*(len(b.vals)-len(b.consts)+1) > len(b.table) {
		b.grow()
	}
	s := b.home(v)
	for h := b.table[s]; h != 0; h = b.table[s] {
		if b.vals[h-1] == v {
			return h - 1
		}
		s = (s + 1) & (len(b.table) - 1)
	}
	id := uint32(len(b.vals))
	b.vals = append(b.vals, v)
	b.table[s] = id + 1
	return id
}

// home is the first slot of v's probe sequence.
func (b *Builder) home(v value) int {
	h := (uint64(v.a)<<32 | uint64(v.b)) * 0x9e3779b97f4a7c15
	h = (h ^ uint64(v.code)) * 0xbf58476d1ce4e5b9
	return int(h >> b.shift)
}

// grow doubles the value table and reinserts its handles, or
// allocates the first table when there is none.
func (b *Builder) grow() {
	old := b.table
	size := 2 * len(old)
	if old == nil {
		size = 16
		for size < slotsPerEdge*b.numEdges && size < maxFirstTable {
			size *= 2
		}
	}
	b.table = make([]uint32, size)
	b.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, h := range old {
		if h == 0 {
			continue
		}
		s := b.home(b.vals[h-1])
		for b.table[s] != 0 {
			s = (s + 1) & (len(b.table) - 1)
		}
		b.table[s] = h
	}
}

// konst interns an exact constant; the table keeps its own copy of r.
func (b *Builder) konst(r *big.Rat) uint32 {
	key := r.RatString()
	if id, ok := b.constIdx[key]; ok {
		return id
	}
	id := uint32(len(b.vals))
	b.vals = append(b.vals, value{code: OpConst, a: uint32(len(b.consts))})
	b.consts = append(b.consts, new(big.Rat).Set(r))
	b.constIdx[key] = id
	return id
}

// constant returns the rational of value id when it is a constant.
func (b *Builder) constant(id uint32) (*big.Rat, bool) {
	if v := b.vals[id]; v.code == OpConst {
		return b.consts[v.a], true
	}
	return nil, false
}

// Load returns the value π[edge].
func (b *Builder) Load(edge int) uint32 {
	if !b.step() {
		return 0
	}
	if edge < 0 || edge >= b.numEdges {
		b.fail(fmt.Errorf("plan: load of edge %d of %d", edge, b.numEdges))
		return 0
	}
	return b.intern(value{code: OpLoad, a: uint32(edge)})
}

// Const returns the constant value v.
func (b *Builder) Const(v *big.Rat) uint32 {
	if !b.step() {
		return 0
	}
	return b.konst(v)
}

// One returns the constant 1.
func (b *Builder) One() uint32 { return b.Const(ratOne) }

// Zero returns the constant 0.
func (b *Builder) Zero() uint32 { return b.Const(ratZero) }

// Mul returns the value x·y.
func (b *Builder) Mul(x, y uint32) uint32 {
	if !b.step() || !b.operands(x, y) {
		return 0
	}
	cx, okx := b.constant(x)
	cy, oky := b.constant(y)
	if okx && oky {
		return b.konst(new(big.Rat).Mul(cx, cy))
	}
	// x·1 = x and x·0 = 0 hold exactly; the float kernel's enclosure of
	// the replacement is the operand's own (tighter or equal, and the
	// exact value is unchanged, so it stays sound).
	switch {
	case okx && cx.Cmp(ratOne) == 0:
		return y
	case okx && cx.Sign() == 0:
		return x
	case oky && cy.Cmp(ratOne) == 0:
		return x
	case oky && cy.Sign() == 0:
		return y
	}
	// Multiplication commutes exactly on both substrates (the interval
	// kernel bounds the same four products either way).
	return b.intern(value{code: OpMul, a: min(x, y), b: max(x, y)})
}

// Add returns the value x+y.
func (b *Builder) Add(x, y uint32) uint32 {
	if !b.step() || !b.operands(x, y) {
		return 0
	}
	cx, okx := b.constant(x)
	cy, oky := b.constant(y)
	switch {
	case okx && oky:
		return b.konst(new(big.Rat).Add(cx, cy))
	case okx && cx.Sign() == 0:
		return y
	case oky && cy.Sign() == 0:
		return x
	}
	return b.intern(value{code: OpAdd, a: min(x, y), b: max(x, y)})
}

// OneMinus returns the value 1−x.
func (b *Builder) OneMinus(x uint32) uint32 {
	if !b.step() || !b.operands(x) {
		return 0
	}
	switch vx := b.vals[x]; vx.code {
	case OpConst:
		return b.konst(new(big.Rat).Sub(ratOne, b.consts[vx.a]))
	case OpOneMinus:
		return vx.a // 1−(1−x) = x exactly
	}
	return b.intern(value{code: OpOneMinus, a: x})
}

// Finish seals the program computing value out. Only the values out
// depends on are emitted, in value order (a valid schedule, since
// operands precede their users); a value's register returns to a LIFO
// free list right after its last user, so the register file is bounded
// by peak liveness, and the constant pool is laid out in schedule
// order. Validate is run once as an internal consistency check on the
// lowering itself.
func (b *Builder) Finish(out uint32) (*Program, error) {
	p, _, err := b.FinishParts(out, nil)
	return p, err
}

// FoldedPart is the part-table entry of a Lemma 3.7 component whose
// factor 1 − p_i folded to the constant 1 (the component has no match,
// and x·1 = x dropped the factor from the product).
const FoldedPart = -1

// FinishParts is Finish for a Lemma 3.7 composite whose factor handles
// (Compose's) are factors. Besides the program it returns the part
// table: per component, in order, the op index of its factor or
// FoldedPart. The table is nil when a splice could not use it: fewer
// than two factors, or a factor that is a constant other than 1 (a
// factor 0 collapses the whole miss product) or not among the
// scheduled ops. A composite none of whose components has a match
// keeps a table of FoldedPart entries: its output is the constant 0,
// but a delta can still give one component a match.
func (b *Builder) FinishParts(out uint32, factors []uint32) (*Program, []int, error) {
	if b.err != nil {
		return nil, nil, b.err
	}
	if int(out) >= len(b.vals) {
		return nil, nil, fmt.Errorf("plan: output value %d of %d", out, len(b.vals))
	}
	// lastUse[id] is the id of the last user of a live value and 0 for a
	// dead one (a user's id is never 0: its operands precede it); out is
	// never freed. A descending sweep meets each operand's last user
	// first.
	n := int(out) + 1
	lastUse := make([]int, n)
	lastUse[out] = n
	live := 0
	for id := n - 1; id >= 0; id-- {
		if lastUse[id] == 0 {
			continue
		}
		live++
		v := &b.vals[id]
		switch v.code {
		case OpMul, OpAdd:
			if lastUse[v.b] == 0 {
				lastUse[v.b] = id
			}
			fallthrough
		case OpOneMinus:
			if lastUse[v.a] == 0 {
				lastUse[v.a] = id
			}
		}
	}

	p := &Program{NumEdges: b.numEdges, Ops: make([]Op, 0, live)}
	// regOf[id] is the register of a live value; opOf[id], kept only
	// for a composite, its op index.
	regOf := make([]uint32, n)
	var opOf []int
	if len(factors) > 1 {
		opOf = make([]int, n)
	}
	var free []uint32
	release := func(id uint32, user int) {
		if lastUse[id] == user {
			free = append(free, regOf[id])
		}
	}
	for id := 0; id < n; id++ {
		if lastUse[id] == 0 {
			continue
		}
		var dst uint32
		if k := len(free); k > 0 {
			dst, free = free[k-1], free[:k-1]
		} else {
			dst = uint32(p.NumRegs)
			p.NumRegs++
		}
		regOf[id] = dst
		if opOf != nil {
			opOf[id] = len(p.Ops)
		}
		v := &b.vals[id]
		op := Op{Code: v.code, Dst: dst}
		switch v.code {
		case OpConst:
			op.A = uint32(len(p.Consts))
			p.Consts = append(p.Consts, b.consts[v.a])
		case OpLoad:
			op.A = v.a
		case OpMul, OpAdd:
			op.A, op.B = regOf[v.a], regOf[v.b]
			release(v.a, id)
			if v.b != v.a {
				release(v.b, id)
			}
		case OpOneMinus:
			op.A = regOf[v.a]
			release(v.a, id)
		}
		p.Ops = append(p.Ops, op)
	}
	p.Out = regOf[out]
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("plan: lowering produced an invalid program: %v", err)
	}
	return p, b.partTable(factors, lastUse, opOf, len(p.Ops)), nil
}

// partTable maps the factor handles of a composite to its part table
// (see FinishParts), given Finish's liveness and op numbering.
func (b *Builder) partTable(factors []uint32, lastUse, opOf []int, numOps int) []int {
	if len(factors) < 2 {
		return nil
	}
	parts := make([]int, len(factors))
	for i, f := range factors {
		if c, ok := b.constant(f); ok {
			if c.Cmp(ratOne) != 0 {
				return nil
			}
			parts[i] = FoldedPart
			continue
		}
		if int(f) >= len(lastUse) || lastUse[f] == 0 {
			return nil
		}
		parts[i] = opOf[f]
	}
	if ValidatePartTable(parts, numOps) != nil {
		return nil
	}
	return parts
}

// ValidatePartTable checks a part table against a program of numOps
// ops: at least two entries, each FoldedPart or an op index in range,
// the indices strictly increasing (each component's factor is computed
// after the previous one's).
func ValidatePartTable(parts []int, numOps int) error {
	if len(parts) < 2 {
		return fmt.Errorf("plan: part table of %d entries", len(parts))
	}
	prev := -1
	for i, k := range parts {
		if k == FoldedPart {
			continue
		}
		if k < 0 || k >= numOps {
			return fmt.Errorf("plan: part %d at op %d of %d", i, k, numOps)
		}
		if k <= prev {
			return fmt.Errorf("plan: part %d at op %d does not follow op %d", i, k, prev)
		}
		prev = k
	}
	return nil
}

var (
	ratOne  = big.NewRat(1, 1)
	ratZero = new(big.Rat)
)

// Replayer re-emits dependency slices of one program into one Builder:
// the splice of incremental maintenance copies each intact component's
// factor out of the old program this way. Each op is emitted at most
// once per Replayer (an op two slices share, such as a constant, keeps
// its first handle), so replaying any set of slices costs one pass over
// the program.
type Replayer struct {
	p *Program
	b *Builder
	// def[2k], def[2k+1] are the ops defining op k's register operands
	// (−1: no such operand).
	def []int32
	// val[k] is op k's handle in b once seen[k] is set.
	val    []uint32
	seen   []bool
	failed bool
}

// NewReplayer prepares replays out of the valid program p into b.
func NewReplayer(p *Program, b *Builder) *Replayer {
	rp := &Replayer{
		p:    p,
		b:    b,
		def:  make([]int32, 2*len(p.Ops)),
		val:  make([]uint32, len(p.Ops)),
		seen: make([]bool, len(p.Ops)),
	}
	last := make([]int32, p.NumRegs) // register -> op that last wrote it
	for k, op := range p.Ops {
		rp.def[2*k], rp.def[2*k+1] = -1, -1
		switch op.Code {
		case OpMul, OpAdd:
			rp.def[2*k+1] = last[op.B]
			fallthrough
		case OpOneMinus:
			rp.def[2*k] = last[op.A]
		}
		last[op.Dst] = int32(k)
	}
	return rp
}

// Replay emits the dependency slice of op root — root and every op its
// value is computed from — in program order, with each load of edge e
// re-emitted as a load of edge load(e), and returns root's handle. It
// returns false when load refuses an edge of the slice; the Replayer
// then refuses every later Replay too. Replaying a Builder-made program
// reproduces its values exactly: they are already in the Builder's
// normal form.
func (rp *Replayer) Replay(root int, load func(e int) (int, bool)) (uint32, bool) {
	if rp.failed {
		return 0, false
	}
	var slice []int32
	if !rp.seen[root] {
		slice = append(slice, int32(root))
		rp.seen[root] = true
	}
	for i := 0; i < len(slice); i++ {
		k := slice[i]
		for _, d := range rp.def[2*k : 2*k+2] {
			if d >= 0 && !rp.seen[d] {
				rp.seen[d] = true
				slice = append(slice, d)
			}
		}
	}
	slices.Sort(slice)
	b := rp.b
	for _, k := range slice {
		op := rp.p.Ops[k]
		var v uint32
		switch op.Code {
		case OpConst:
			v = b.Const(rp.p.Consts[op.A])
		case OpLoad:
			e, ok := load(int(op.A))
			if !ok {
				rp.failed = true
				return 0, false
			}
			v = b.Load(e)
		case OpMul:
			v = b.Mul(rp.val[rp.def[2*k]], rp.val[rp.def[2*k+1]])
		case OpAdd:
			v = b.Add(rp.val[rp.def[2*k]], rp.val[rp.def[2*k+1]])
		case OpOneMinus:
			v = b.OneMinus(rp.val[rp.def[2*k]])
		}
		rp.val[k] = v
	}
	return rp.val[root], true
}
