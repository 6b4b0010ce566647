package ddnnf

import (
	"fmt"
	"math/big"
)

// OpEmitter receives the flattened arithmetic of EmitOps: one Mul per
// AND input, one Add per OR input, Load/OneMinus for literals — the
// linear-time d-DNNF probability computation as straight-line code.
// Load yields the probability of circuit variable v (the emitter owns
// the mapping from variables to instance edges). The returned handles
// name values, not registers. Implemented by the Program builder
// adapters of internal/plan.
type OpEmitter interface {
	Load(v int) uint32
	Const(v *big.Rat) uint32
	Mul(a, b uint32) uint32
	Add(a, b uint32) uint32
	OneMinus(a uint32) uint32
	// Failed reports the emitter's sticky-error state (a lowering bug
	// or a cancelled context — plan.Builder polls its context from
	// inside the emit methods). The per-gate recursion consults it and
	// stops descending: emission after a failure would be no-ops
	// anyway, and cutting the traversal short is what makes a cancelled
	// circuit compile return within one checkpoint interval instead of
	// walking every remaining gate.
	Failed() bool
}

var (
	emitOne  = big.NewRat(1, 1)
	emitZero = new(big.Rat)
)

// EmitOps lowers the probability computation of the subcircuit rooted
// at g (the arithmetic of Prob: AND → ×, OR → +) to flat ops on em,
// returning the value of the result. Gate results are memoized like in
// Prob, so shared subcircuits emit once.
func (c *Circuit) EmitOps(g Gate, em OpEmitter) (uint32, error) {
	if int(g) < 0 || int(g) >= len(c.gates) {
		return 0, fmt.Errorf("ddnnf: gate %d of %d", g, len(c.gates))
	}
	memo := make([]uint32, len(c.gates))
	done := make([]bool, len(c.gates))
	var rec func(Gate) uint32
	rec = func(g Gate) uint32 {
		if done[g] {
			return memo[g]
		}
		if em.Failed() {
			return 0 // sticky error; the builder's Finish reports it
		}
		gd := c.gates[g]
		var r uint32
		switch gd.kind {
		case kindFalse:
			r = em.Const(emitZero)
		case kindTrue:
			r = em.Const(emitOne)
		case kindLit:
			if gd.neg {
				r = em.OneMinus(em.Load(gd.v))
			} else {
				r = em.Load(gd.v)
			}
		case kindAnd, kindOr:
			if len(gd.inputs) == 0 {
				if gd.kind == kindAnd {
					r = em.Const(emitOne)
				} else {
					r = em.Const(emitZero)
				}
				break
			}
			r = rec(gd.inputs[0])
			for _, in := range gd.inputs[1:] {
				if ri := rec(in); gd.kind == kindAnd {
					r = em.Mul(r, ri)
				} else {
					r = em.Add(r, ri)
				}
			}
		}
		memo[g], done[g] = r, true
		return r
	}
	return rec(g), nil
}
