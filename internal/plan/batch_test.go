package plan

import (
	"context"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/phomerr"
)

// execFloat evaluates one probability vector on the float kernel: a
// batch of one lane, the way core's single-vector fast path runs it.
func execFloat(p *Program, probs []*big.Rat) (Enclosure, error) {
	ivs, err := p.ExecFloatBatchCtx(context.Background(), [][]*big.Rat{probs})
	if err != nil {
		return Enclosure{}, err
	}
	return ivs[0], nil
}

// TestExecFloatBatchMatchesExecFloat pins the lane-exactness contract:
// every lane of the batched kernel is bitwise identical (Lo and Hi) to
// an independent single-vector (one-lane) run on that lane's
// probability vector.
func TestExecFloatBatchMatchesExecFloat(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 200; trial++ {
		numEdges := r.Intn(8)
		prog, err := randomProgram(r, numEdges, 1+r.Intn(40))
		if err != nil {
			t.Fatal(err)
		}
		lanes := 1 + r.Intn(9)
		probVecs := make([][]*big.Rat, lanes)
		for k := range probVecs {
			probVecs[k] = randomProbs(r, numEdges)
		}
		batch, err := prog.ExecFloatBatchCtx(context.Background(), probVecs)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != lanes {
			t.Fatalf("trial %d: %d enclosures for %d lanes", trial, len(batch), lanes)
		}
		for k := range probVecs {
			single, err := execFloat(prog, probVecs[k])
			if err != nil {
				t.Fatal(err)
			}
			if batch[k].Lo != single.Lo || batch[k].Hi != single.Hi {
				t.Fatalf("trial %d lane %d: batch %v != single %v", trial, k, batch[k], single)
			}
			exact, err := prog.ExecCtx(context.Background(), probVecs[k])
			if err != nil {
				t.Fatal(err)
			}
			if !batch[k].Contains(exact) {
				t.Fatalf("trial %d lane %d: enclosure %v misses exact %s", trial, k, batch[k], exact.RatString())
			}
		}
	}
}

// TestExecFloatBatchInputErrors: malformed lanes fail the whole call
// with an error naming the offending lane, and an empty batch is a
// no-op.
func TestExecFloatBatchInputErrors(t *testing.T) {
	prog := mustProgram(t, func(b *Builder) uint32 {
		return b.OneMinus(b.Mul(b.Load(0), b.Load(1)))
	}, 2)

	if out, err := prog.ExecFloatBatchCtx(context.Background(), nil); out != nil || err != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", out, err)
	}
	good := []*big.Rat{rat("1/2"), rat("1/3")}
	if _, err := prog.ExecFloatBatchCtx(context.Background(), [][]*big.Rat{good, {rat("1/2")}}); err == nil {
		t.Fatal("short lane 1 must fail")
	}
	if _, err := prog.ExecFloatBatchCtx(context.Background(), [][]*big.Rat{good, {rat("1/2"), nil}}); err == nil {
		t.Fatal("nil probability in lane 1 must fail")
	}
}

// TestExecFloatBatchNaNLaneIsolated: a lane whose arithmetic
// degenerates to NaN (overflowing decoded constants) comes back as a
// NaN enclosure without poisoning the other lanes — the per-lane
// fallback contract the engine's batch path relies on.
func TestExecFloatBatchNaNLaneIsolated(t *testing.T) {
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 2000))
	// (huge·huge)·0: the product overflows to +Inf, and Inf·0 is NaN.
	prog := &Program{
		NumEdges: 1,
		NumRegs:  3,
		Consts:   []*big.Rat{huge, new(big.Rat)},
		Ops: []Op{
			{Code: OpLoad, Dst: 0, A: 0},
			{Code: OpMul, Dst: 0, A: 0, B: 0},
			{Code: OpMul, Dst: 0, A: 0, B: 0},
			{Code: OpConst, Dst: 1, A: 1},
			{Code: OpMul, Dst: 2, A: 0, B: 1},
		},
		Out: 2,
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	vecs := [][]*big.Rat{{rat("1/2")}, {huge}, {rat("1/3")}}
	out, err := prog.ExecFloatBatchCtx(context.Background(), vecs)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(out[0].Lo) || math.IsNaN(out[2].Lo) {
		t.Fatalf("finite lanes poisoned: %v / %v", out[0], out[2])
	}
	if !math.IsNaN(out[1].Lo) && !math.IsNaN(out[1].Hi) {
		t.Fatalf("overflowing lane should be NaN, got %v", out[1])
	}
	for _, k := range []int{0, 2} {
		exact, err := prog.ExecCtx(context.Background(), vecs[k])
		if err != nil {
			t.Fatal(err)
		}
		if !out[k].Contains(exact) {
			t.Fatalf("lane %d: enclosure %v misses exact %s", k, out[k], exact.RatString())
		}
	}
}

// TestExecFloatBatchCanceled: the batched kernel honors cooperative
// cancellation at its per-op checkpoint.
func TestExecFloatBatchCanceled(t *testing.T) {
	p := bigIntervalPlan(256, 16)
	prog, err := LowerContext(context.Background(), p, 256)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumOps() <= phomerr.CheckInterval {
		t.Fatalf("test plan too small: %d ops", prog.NumOps())
	}
	probs := make([]*big.Rat, 256)
	for i := range probs {
		probs[i] = big.NewRat(int64(i%7+1), 9)
	}
	vecs := [][]*big.Rat{probs, probs}
	if _, err := prog.ExecFloatBatchCtx(context.Background(), vecs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prog.ExecFloatBatchCtx(ctx, vecs); !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("ExecFloatBatchCtx err = %v, want ErrCanceled", err)
	}
}

// benchProgram lowers a moderately sized trellis program for the
// evaluation benchmarks.
func benchProgram(b *testing.B, nVars int) (*Program, []*big.Rat) {
	b.Helper()
	prog, err := LowerContext(context.Background(), bigIntervalPlan(nVars, 8), nVars)
	if err != nil {
		b.Fatal(err)
	}
	probs := make([]*big.Rat, nVars)
	for i := range probs {
		probs[i] = big.NewRat(int64(i%9+1), 11)
	}
	return prog, probs
}

// BenchmarkExecAllocs pins the pooled exact register file: steady-state
// ExecCtx allocates the result rational and transient big.Int scratch, not
// a fresh register file per call.
func BenchmarkExecAllocs(b *testing.B) {
	prog, probs := benchProgram(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.ExecCtx(context.Background(), probs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecFloatAllocs pins the pooled interval register matrix
// on the single-vector (one-lane) path: steady state allocates only the
// one-enclosure result slice.
func BenchmarkExecFloatAllocs(b *testing.B) {
	prog, probs := benchProgram(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execFloat(prog, probs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecFloatBatch measures per-vector cost across batch widths:
// the amortization of instruction dispatch is the whole point of the
// batched kernel.
func BenchmarkExecFloatBatch(b *testing.B) {
	prog, probs := benchProgram(b, 64)
	for _, width := range []int{1, 8, 64, 256} {
		vecs := make([][]*big.Rat, width)
		for k := range vecs {
			vecs[k] = probs
		}
		b.Run(benchWidthName(width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prog.ExecFloatBatchCtx(context.Background(), vecs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchWidthName(w int) string {
	switch w {
	case 1:
		return "width1"
	case 8:
		return "width8"
	case 64:
		return "width64"
	default:
		return "width256"
	}
}
