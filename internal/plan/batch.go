package plan

import (
	"context"
	"fmt"
	"math/big"

	"phom/internal/phomerr"
)

// This file is the float evaluation kernel: ExecFloatBatchCtx runs one
// Program against K probability vectors simultaneously, over a float64
// interval register *matrix* instead of a register file. The reweight
// serving pattern — one structure, many probability assignments —
// would otherwise execute the same instruction stream once per vector;
// batching pays instruction dispatch (the op decode, the switch, the
// bounds checks, the loop bookkeeping) once per op for all K lanes, and
// turns the per-lane arithmetic into tight contiguous loops the
// hardware can pipeline. A single vector is simply one lane. Each
// lane's arithmetic is the same op-for-op sequence whatever the batch
// width, so lane k's enclosure is bitwise identical to that of a
// one-lane run on probVecs[k].

// ExecFloatBatchCtx executes the program against K probability vectors
// at once and returns one certified enclosure per lane:
// ExecCtx(probVecs[k]) ∈ [out[k].Lo, out[k].Hi] for every lane whose
// enclosure is finite. It polls ctx once per instruction (each
// instruction being K lanes of work), so a cancelled context aborts
// within one checkpoint interval. Per op it costs a handful of flops
// per lane instead of arbitrary-precision arithmetic, which is what
// makes it the serving fast path; the
// price is a one-ulp outward widening per op, so the final Width grows
// linearly with program length and stays far below any practical
// tolerance for the linear-size programs the tractable cells lower to.
//
// Error contract: malformed inputs — a lane of the wrong length, a nil
// probability, an unknown opcode — fail the whole call. NaN
// degeneration (possible only for decoded programs with overflowing
// constants) does not: a lane that degenerates comes back with NaN
// endpoints and the other lanes stay valid, so a caller can fall back
// per lane instead of discarding the batch. NaN endpoints never escape
// undetected into a served bound: Enclosure arithmetic propagates NaN
// to the output (directed rounding, min/max and the 2Sum test all
// preserve it), and callers route lanes with non-finite enclosures to
// the exact path (core's serveFloat rejects a NaN midpoint).
func (p *Program) ExecFloatBatchCtx(ctx context.Context, probVecs [][]*big.Rat) ([]Enclosure, error) {
	lanes := len(probVecs)
	if lanes == 0 {
		return nil, nil
	}
	for k, v := range probVecs {
		if len(v) != p.NumEdges {
			return nil, fmt.Errorf("plan: lane %d: %d probabilities for a program over %d edges", k, len(v), p.NumEdges)
		}
	}
	cp := phomerr.NewCheckpoint(ctx)
	// Lane-major register matrix: register r of lane k lives at
	// regs[r*lanes+k], so each op's inner loops walk contiguous memory.
	// Pooled like the single-vector register file — the matrix is
	// NumRegs×K and reallocating (and zeroing) it per batch would cost a
	// visible slice of the per-lane budget; define-before-use makes the
	// stale contents invisible.
	rp := getFloatRegs(p.NumRegs * lanes)
	defer floatRegPool.Put(rp)
	regs := *rp
	for i := range p.Ops {
		if err := cp.Check(); err != nil {
			return nil, err
		}
		op := &p.Ops[i]
		dst := regs[int(op.Dst)*lanes : (int(op.Dst)+1)*lanes]
		switch op.Code {
		case OpConst:
			// One rational-to-interval conversion per op, not per lane:
			// constants are lane-invariant.
			e := enclose(p.Consts[op.A])
			for k := range dst {
				dst[k] = e
			}
		case OpLoad:
			for k := range dst {
				pr := probVecs[k][op.A]
				if pr == nil {
					return nil, fmt.Errorf("plan: lane %d: nil probability for edge %d", k, op.A)
				}
				dst[k] = enclose(pr)
			}
		case OpMul:
			a := regs[int(op.A)*lanes : (int(op.A)+1)*lanes]
			b := regs[int(op.B)*lanes : (int(op.B)+1)*lanes]
			for k := range dst {
				dst[k] = mulEnclosure(a[k], b[k])
			}
		case OpAdd:
			a := regs[int(op.A)*lanes : (int(op.A)+1)*lanes]
			b := regs[int(op.B)*lanes : (int(op.B)+1)*lanes]
			for k := range dst {
				dst[k] = Enclosure{Lo: sumLo(a[k].Lo, b[k].Lo), Hi: sumHi(a[k].Hi, b[k].Hi)}
			}
		case OpOneMinus:
			a := regs[int(op.A)*lanes : (int(op.A)+1)*lanes]
			for k := range dst {
				dst[k] = Enclosure{Lo: sumLo(1, -a[k].Hi), Hi: sumHi(1, -a[k].Lo)}
			}
		default:
			return nil, fmt.Errorf("plan: unknown opcode %d", op.Code)
		}
	}
	out := make([]Enclosure, lanes)
	copy(out, regs[int(p.Out)*lanes:(int(p.Out)+1)*lanes])
	return out, nil
}
