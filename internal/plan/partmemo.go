package plan

import (
	"context"
	"fmt"
	"math/big"
	"slices"

	"phom/internal/phomerr"
)

// This file is the part memo of the integer interpreter. A Lemma 3.7
// composite computes 1 − Π_i f_i, one factor f_i = 1 − p_i per
// connected component, and its part table records which op computes
// each factor. A live instance re-evaluates one plan after every delta,
// and a delta touches one or two components; every other factor is the
// same function of the same probabilities as on the previous run. The
// memo keeps each factor's register, N over D^k, together with the
// probability values its dependency slice loaded, and the next run
// skips every op a clean part owns.
//
// Values are compared by pointer. That is sound when the caller never
// mutates a *big.Rat it has passed, which holds for the snapshots of
// internal/instance (every write stores a fresh copy), and the memo
// holds the pointers it compares, so none of them can be recycled.

// PartOwners is the part ownership of one composite program: which ops
// a clean part lets execInt skip. It depends only on the program and
// its part table, so it is derived once per plan, for decoded plans
// too.
type PartOwners struct {
	// runs cuts the program into maximal runs of ops with one owner:
	// the part whose clean run skips them, or none (−1: they always
	// run). A part owns an op of its dependency slice when the op lies
	// in no other part's slice, is not a constant, and is read only by
	// ops the part owns too — except its factor op, whose register a
	// clean run fills from the memo. A part whose factor op it does not
	// own owns nothing.
	runs []opRun
	// factor[j] is part j's factor op when the part owns it, else −1:
	// the part is never skipped (a folded part, or a factor the rule
	// above does not leave to it).
	factor []int
	// loads[j] lists the Load ops of part j's whole dependency slice,
	// owned or not, in program order: f_j is a function of what they
	// read and of the program's constants.
	loads [][]int32
	// free lists the Load and Const ops no part owns (never nil: a nil
	// list reads as every op), and numInputs counts all of them.
	free      []int32
	numInputs int
}

// opRun is the ops lo…hi−1, all owned by part (−1: by none).
type opRun struct{ lo, hi, part int32 }

// NewPartOwners derives the ownership of program p with part table
// parts (ValidatePartTable). It returns nil when no part can be skipped,
// and also when the parts' dependency slices overlap so much that
// deriving them would cost more than a few passes over the program
// (only a hostile decoded program does that).
func NewPartOwners(p *Program, parts []int) *PartOwners {
	if ValidatePartTable(parts, len(p.Ops)) != nil {
		return nil
	}
	n := len(p.Ops)
	// def[2i], def[2i+1] are the ops defining op i's register operands
	// (−1: no such operand).
	def := make([]int32, 2*n)
	last := make([]int32, p.NumRegs)
	for i := range last {
		last[i] = -1
	}
	for i, op := range p.Ops {
		def[2*i], def[2*i+1] = -1, -1
		switch op.Code {
		case OpMul, OpAdd:
			def[2*i+1] = last[op.B]
			fallthrough
		case OpOneMinus:
			def[2*i] = last[op.A]
		}
		last[op.Dst] = int32(i)
	}

	own := &PartOwners{factor: make([]int, len(parts)), loads: make([][]int32, len(parts))}
	for j := range own.loads {
		own.loads[j] = []int32{} // never nil, as free
	}
	// first[i] is the first part whose slice holds op i (−1: none);
	// shared marks an op in two or more slices. stamp[i] = j+1 once
	// part j's walk has reached op i. owner[i], op i's owning part (−1:
	// none), shares first's storage: the descending pass below reads
	// first[i] just before it writes owner[i].
	owner := make([]int32, n)
	first := owner
	for i := range first {
		first[i] = -1
	}
	shared := make([]bool, n)
	stamp := make([]int32, n)
	budget := 4*n + 16*len(parts)
	var stack []int32
	for j, f := range parts {
		if f == FoldedPart {
			continue
		}
		stack = append(stack[:0], int32(f))
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if stamp[i] == int32(j)+1 {
				continue
			}
			if budget--; budget < 0 {
				return nil
			}
			stamp[i] = int32(j) + 1
			if first[i] < 0 {
				first[i] = int32(j)
			} else {
				shared[i] = true
			}
			if p.Ops[i].Code == OpLoad {
				own.loads[j] = append(own.loads[j], i)
			}
			for _, d := range def[2*i : 2*i+2] {
				if d >= 0 {
					stack = append(stack, d)
				}
			}
		}
		slices.Sort(own.loads[j])
	}

	// One descending pass decides ownership: an op's readers follow it,
	// so all of them are decided when the op is. bad marks an op some
	// reader outside its part's owned set reads; the output register
	// counts as such a reader.
	isFactor := make([]bool, n)
	for _, f := range parts {
		if f != FoldedPart {
			isFactor[f] = true
		}
	}
	bad := make([]bool, n)
	if d := last[p.Out]; d >= 0 {
		bad[d] = true
	}
	for i := n - 1; i >= 0; i-- {
		j := first[i]
		if j < 0 || shared[i] || p.Ops[i].Code == OpConst || (bad[i] && !isFactor[i]) {
			j = -1
		}
		owner[i] = j
		if j < 0 {
			// An op a part owns reads only its own slice, so only an op no
			// part owns can read across.
			for _, d := range def[2*i : 2*i+2] {
				if d >= 0 {
					bad[d] = true
				}
			}
		}
	}
	skippable := false
	for j, f := range parts {
		own.factor[j] = -1
		if f != FoldedPart && owner[f] == int32(j) {
			own.factor[j] = f
			skippable = true
		}
	}
	if !skippable {
		return nil
	}
	own.free = []int32{}
	for i, op := range p.Ops {
		j := owner[i]
		if j >= 0 && own.factor[j] < 0 {
			j = -1 // never skipped: its ops run as everyone's
		}
		if k := len(own.runs) - 1; k >= 0 && own.runs[k].part == j {
			own.runs[k].hi++
		} else {
			own.runs = append(own.runs, opRun{lo: int32(i), hi: int32(i) + 1, part: j})
		}
		if op.Code != OpLoad && op.Code != OpConst {
			continue
		}
		own.numInputs++
		if j < 0 {
			own.free = append(own.free, int32(i))
		}
	}
	return own
}

// PartMemo is what one exact run of a composite program left for the
// next: per part, its factor's register (N, k) over the run's common
// denominator D and the probability values its slice loaded. A memo is
// immutable once returned; runs share the unchanged parts of their
// input memo.
type PartMemo struct {
	prog  *Program
	d     *big.Int
	parts []*partValue // per part; nil: not recorded
	// reused and evaluated count the parts the run that built the memo
	// took from its input memo and computed.
	reused, evaluated int
}

// partValue is one part's factor: the rational n / D^k, computed from
// the values loads, read by the part's Load ops in program order. den
// and bits are the lcm and the widest of their denominators, which a
// run skipping the part folds into D and its bound instead of reading
// the loads again.
type partValue struct {
	n     big.Int
	k     int
	loads []*big.Rat
	den   *big.Int
	bits  int
}

// Counts reports how many parts the run that built m skipped, taking
// their factors from its input memo, and how many it computed.
func (m *PartMemo) Counts() (reused, evaluated int) { return m.reused, m.evaluated }

// Carry returns a memo for the program next, which a splice built by
// replaying parts of m's program: from[j] is the part of m's program
// that next's part j replays, or −1 for a part compiled afresh. A
// replayed slice computes the same function of the same loads, listed
// in the same order, so its recorded factor serves next as long as the
// values still match. Carry returns nil when nothing carries over.
func (m *PartMemo) Carry(next *Program, from []int) *PartMemo {
	if m == nil {
		return nil
	}
	out := &PartMemo{prog: next, d: m.d, parts: make([]*partValue, len(from))}
	kept := false
	for j, i := range from {
		if i >= 0 && i < len(m.parts) && m.parts[i] != nil {
			out.parts[j] = m.parts[i]
			kept = true
		}
	}
	if !kept {
		return nil
	}
	return out
}

// ExecMemo is ExecCtx for a composite program evaluated again and again
// under probability vectors that share most of their values: own is the
// program's ownership (NewPartOwners) and memo what the previous call
// returned (nil at first, or a memo of another program, which is
// ignored). The integer interpreter skips every op of a part whose
// loads read the same *big.Rat values, under the same D, as when memo
// recorded it; the returned memo records this run, and is nil when the
// big.Rat loop answered instead. The caller must never mutate a
// probability value it has passed. A nil own (no part can be skipped)
// runs ExecCtx.
func (p *Program) ExecMemo(ctx context.Context, probs []*big.Rat, own *PartOwners, memo *PartMemo) (*big.Rat, *PartMemo, error) {
	if own == nil {
		r, err := p.ExecCtx(ctx, probs)
		return r, nil, err
	}
	if len(probs) != p.NumEdges {
		return nil, nil, fmt.Errorf("plan: %d probabilities for a program over %d edges", len(probs), p.NumEdges)
	}
	cp := phomerr.NewCheckpoint(ctx)
	run := &partRun{own: own, in: memo}
	if r, ok, err := p.execInt(cp, probs, run); ok {
		if err != nil {
			return nil, nil, err
		}
		return r, run.out, nil
	}
	r, err := p.execRat(cp, probs)
	return r, nil, err
}

// partRun is execInt's part-memo state for one run: the ownership, the
// input memo, which parts are clean, and the memo the run is building.
type partRun struct {
	own   *PartOwners
	in    *PartMemo
	clean []bool
	// dens and bits are the parts' fold of their loads (partValue.den
	// and .bits), taken from the input memo for a part whose loads read
	// the recorded values, else computed.
	dens []*big.Int
	bits []int
	out  *PartMemo
}

// prepare sets f.d to D, the lcm of the denominators of every input the
// program reads, and decides which parts are clean, before execInt
// runs: a part is clean when the input memo belongs to p, its loads
// read the very values the memo recorded for it, and D equals the
// memo's D. Every input is free or owned by one part, and a part's
// loads include those it owns, so folding the free inputs and each
// part's loads gives D exactly, and the decline rule is the plain
// pass's; a part whose loads match contributes its recorded fold
// without its loads being read. It returns the degree bound, the program's input count, and
// false where the plain pass declines: a nil probability, or D
// outgrowing its bound.
func (r *partRun) prepare(p *Program, f *intFile, probs []*big.Rat) (maxDeg int, ok bool) {
	own := r.own
	np := len(own.factor)
	r.clean, r.dens, r.bits = make([]bool, np), make([]*big.Int, np), make([]int, np)
	in := r.in
	if in != nil && (in.prog != p || len(in.parts) != np) {
		in = nil
	}
	_, maxBits, ok := p.inputBits(probs, own.free)
	if !ok {
		return 0, false
	}
	for j := range np {
		if own.factor[j] < 0 {
			continue // owns nothing: its loads are free
		}
		if in != nil && in.parts[j] != nil && loadsMatch(p, probs, own.loads[j], in.parts[j].loads) {
			pv := in.parts[j]
			r.clean[j], r.dens[j], r.bits[j] = true, pv.den, pv.bits
		} else if _, r.bits[j], ok = p.inputBits(probs, own.loads[j]); !ok {
			return 0, false
		}
		maxBits = max(maxBits, r.bits[j])
	}
	limit := max(denomBlowup*maxBits, 64)
	f.d.SetInt64(1)
	if !f.foldInputs(&f.d, p, probs, own.free, limit) {
		return 0, false
	}
	for j, d := range r.dens {
		if own.factor[j] < 0 {
			continue
		}
		if d == nil {
			d = big.NewInt(1)
			if !f.foldInputs(d, p, probs, own.loads[j], limit) {
				return 0, false
			}
			r.dens[j] = d
		}
		if !f.fold(&f.d, d, limit) {
			return 0, false
		}
	}

	r.out = &PartMemo{prog: p, parts: make([]*partValue, np)}
	if in != nil && in.d.Cmp(&f.d) == 0 {
		r.out.d = in.d
	} else {
		r.out.d = new(big.Int).Set(&f.d)
		clear(r.clean)
	}
	for j, clean := range r.clean {
		if clean {
			r.out.parts[j] = in.parts[j]
			r.out.reused++
		}
	}
	return own.numInputs, true
}

// loadsMatch reports whether the Load ops at idx read exactly the
// pointers was lists, in order.
func loadsMatch(p *Program, probs []*big.Rat, idx []int32, was []*big.Rat) bool {
	if len(idx) != len(was) {
		return false
	}
	for k, i := range idx {
		if probs[p.Ops[i].A] != was[k] {
			return false
		}
	}
	return true
}

// record stores part j's freshly computed factor n / D^k.
func (r *partRun) record(p *Program, j int, n *big.Int, k int, probs []*big.Rat) {
	pv := &partValue{k: k, loads: make([]*big.Rat, len(r.own.loads[j])), den: r.dens[j], bits: r.bits[j]}
	pv.n.Set(n)
	for k, i := range r.own.loads[j] {
		pv.loads[k] = probs[p.Ops[i].A]
	}
	r.out.parts[j] = pv
	r.out.evaluated++
}

// Of reports whether m was recorded for program p.
func (m *PartMemo) Of(p *Program) bool { return m != nil && m.prog == p }
