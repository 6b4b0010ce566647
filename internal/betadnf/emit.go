package betadnf

import (
	"fmt"
	"math/big"
)

// This file lowers the two β-acyclic evaluators to flat instruction
// streams. Both dynamic programs have a trellis fixed entirely by the
// system's structure — which states are reachable, which clause fires
// at which step — so the per-assignment arithmetic unrolls into
// straight-line loads, multiplications, additions and complementations
// against an OpEmitter (in practice the Program builder of
// internal/plan). The emitted code performs exactly the arithmetic of
// Prob, so its exact rational result is identical.

// OpEmitter receives the flattened arithmetic of EmitOps. Load yields
// the probability of system variable v (the emitter owns the mapping
// from variables to whatever backs them, e.g. instance edges). The
// returned handles name values, not registers: the emitter decides
// which values share a register and when it is free. Implemented by
// plan.Builder adapters.
type OpEmitter interface {
	Load(v int) uint32
	Const(v *big.Rat) uint32
	Mul(a, b uint32) uint32
	Add(a, b uint32) uint32
	OneMinus(a uint32) uint32
	// Failed reports the emitter's sticky-error state (a lowering bug
	// or a cancelled context — plan.Builder polls its context from
	// inside the emit methods). The dynamic-program loops below consult
	// it at their outer steps and abandon the remaining trellis:
	// emission after a failure would be no-ops anyway, and breaking out
	// is what makes a cancelled compile return within one checkpoint
	// interval instead of walking the whole structure.
	Failed() bool
}

var (
	emitOne  = big.NewRat(1, 1)
	emitZero = new(big.Rat)
)

// EmitOps lowers the chain dynamic program of Prob to flat ops,
// returning the value of the final probability. The emitted program
// computes, like Prob, the complementary probability f(v, s) over live
// subtrees only, with the node probabilities loaded once per child.
func (cc *CompiledChain) EmitOps(em OpEmitter) (uint32, error) {
	if cc.cap0 == 0 {
		return em.Const(emitZero), nil
	}
	n := len(cc.chainLen)
	// f[v][s] = the value f(v, s), for live v in traversal order.
	f := make([][]uint32, n)
	for i := len(cc.order) - 1; i >= 0; i-- {
		if em.Failed() {
			return 0, nil // sticky error; Finish reports it
		}
		v := cc.order[i]
		// Load p and 1−p once per live child (Prob recomputes q per
		// state; the value is identical).
		type child struct {
			u    int
			p, q uint32
		}
		var kids []child
		for _, u := range cc.children[v] {
			if !cc.live[u] {
				continue // f[u] ≡ 1: the child's factor is q + p = 1
			}
			p := em.Load(u)
			kids = append(kids, child{u: u, p: p, q: em.OneMinus(p)})
		}
		fv := make([]uint32, cc.cap0+1)
		for s := 0; s <= cc.cap0; s++ {
			acc := em.Const(emitOne)
			for _, k := range kids {
				// Edge to u absent: child streak 0.
				term := em.Mul(k.q, f[k.u][0])
				// Edge to u present: streak extends; clause at u may fire.
				ns := s + 1
				if ns > cc.cap0 {
					ns = cc.cap0
				}
				if !(cc.chainLen[k.u] != 0 && ns >= cc.chainLen[k.u]) {
					term = em.Add(term, em.Mul(k.p, f[k.u][ns]))
				}
				acc = em.Mul(acc, term)
			}
			fv[s] = acc
		}
		// The children's states are fully consumed by this node.
		for _, k := range kids {
			f[k.u] = nil
		}
		f[v] = fv
	}
	alive := em.Const(emitOne)
	for _, r := range cc.roots {
		if cc.live[r] {
			alive = em.Mul(alive, f[r][0])
		}
	}
	return em.OneMinus(alive), nil
}

// EmitOps lowers the interval dynamic program of Prob to flat ops,
// returning the value of the final probability. Streak states that are
// structurally unreachable at a scan position (the symbolic analogue of
// Prob skipping zero-weight states) emit no code.
func (s *IntervalSystem) EmitOps(em OpEmitter) (uint32, error) {
	maxLen := 0
	minEnd := make([]int, s.NumVars)
	for _, c := range s.Clauses {
		if c.Hi < c.Lo {
			return em.Const(emitOne), nil // empty clause: formula is true
		}
		if c.Lo < 0 || c.Hi >= s.NumVars {
			return 0, fmt.Errorf("betadnf: clause [%d,%d] out of range", c.Lo, c.Hi)
		}
		l := c.Hi - c.Lo + 1
		if l > maxLen {
			maxLen = l
		}
		if minEnd[c.Hi] == 0 || l < minEnd[c.Hi] {
			minEnd[c.Hi] = l
		}
	}
	if len(s.Clauses) == 0 {
		return em.Const(emitZero), nil // false
	}
	// cur[st] = the survival weight of streak st; curOK marks states
	// reachable at this position.
	cur := make([]uint32, maxLen+1)
	curOK := make([]bool, maxLen+1)
	cur[0] = em.Const(emitOne)
	curOK[0] = true
	for r := 0; r < s.NumVars; r++ {
		if em.Failed() {
			return 0, nil // sticky error; Finish reports it
		}
		p := em.Load(r)
		q := em.OneMinus(p)
		next := make([]uint32, maxLen+1)
		nextOK := make([]bool, maxLen+1)
		accum := func(st int, v uint32) {
			if nextOK[st] {
				v = em.Add(next[st], v)
			}
			next[st], nextOK[st] = v, true
		}
		for st := 0; st <= maxLen; st++ {
			if !curOK[st] {
				continue
			}
			// Variable r false: streak resets.
			accum(0, em.Mul(cur[st], q))
			// Variable r true: streak extends (capped).
			nst := st + 1
			if nst > maxLen {
				nst = maxLen
			}
			if minEnd[r] != 0 && nst >= minEnd[r] {
				continue // a clause ending at r fired: world lost
			}
			accum(nst, em.Mul(cur[st], p))
		}
		cur, curOK = next, nextOK
	}
	var alive uint32
	has := false
	for st := 0; st <= maxLen; st++ {
		if !curOK[st] {
			continue
		}
		if !has {
			alive, has = cur[st], true
			continue
		}
		alive = em.Add(alive, cur[st])
	}
	if !has {
		alive = em.Const(emitZero) // unreachable: state 0 always survives
	}
	return em.OneMinus(alive), nil
}
