package plan

import (
	"fmt"
	"math/big"
)

// This file lowers each plan form to the flat Program IR. The substrate
// evaluators own their arithmetic (betadnf and ddnnf EmitOps); the
// adapters here contribute only the variable-to-edge indirection that
// the tree evaluators apply at evaluation time, so the emitted ops load
// straight from the instance probability vector.

// edgeMapEmitter adapts a Builder to the OpEmitter interfaces of
// betadnf and ddnnf (structurally identical), translating substrate
// variable indices to instance edge indices through varEdge. When
// rootIsOne is set, a negative mapping loads the constant 1 (chain
// roots have no edge above them); otherwise it is an error, recorded
// sticky on the builder.
type edgeMapEmitter struct {
	b         *Builder
	varEdge   []int
	rootIsOne bool
}

func (m *edgeMapEmitter) Load(v int) uint32 {
	if v < 0 || v >= len(m.varEdge) {
		m.b.fail(fmt.Errorf("plan: lowering references variable %d of %d", v, len(m.varEdge)))
		return 0
	}
	ei := m.varEdge[v]
	if ei < 0 {
		if m.rootIsOne {
			return m.b.One()
		}
		m.b.fail(fmt.Errorf("plan: lowering references unmapped variable %d", v))
		return 0
	}
	return m.b.Load(ei)
}

func (m *edgeMapEmitter) Const(v *big.Rat) uint32  { return m.b.Const(v) }
func (m *edgeMapEmitter) Failed() bool             { return m.b.Failed() }
func (m *edgeMapEmitter) Mul(a, b uint32) uint32   { return m.b.Mul(a, b) }
func (m *edgeMapEmitter) Add(a, b uint32) uint32   { return m.b.Add(a, b) }
func (m *edgeMapEmitter) OneMinus(a uint32) uint32 { return m.b.OneMinus(a) }
func (m *edgeMapEmitter) Release(r uint32)         { m.b.Release(r) }

// EmitOps lowers a constant plan to a single constant op.
func (c Const) EmitOps(b *Builder) (uint32, error) {
	return b.Const(c.Value), nil
}

// EmitOps lowers the chain dynamic program with node probabilities
// loaded from the instance edges of NodeEdge (roots load 1).
func (c Chain) EmitOps(b *Builder) (uint32, error) {
	return c.System.EmitOps(&edgeMapEmitter{b: b, varEdge: c.NodeEdge, rootIsOne: true})
}

// EmitOps lowers the interval dynamic program with position
// probabilities loaded from the instance edges of VarEdge.
func (iv Interval) EmitOps(b *Builder) (uint32, error) {
	return iv.System.EmitOps(&edgeMapEmitter{b: b, varEdge: iv.VarEdge})
}

// EmitOps lowers the d-DNNF probability computation with variable
// probabilities loaded from the instance edges of VarEdge.
func (c Circuit) EmitOps(b *Builder) (uint32, error) {
	return c.C.EmitOps(c.Out, &edgeMapEmitter{b: b, varEdge: c.VarEdge})
}

// EmitOps lowers the Lemma 3.7 composite: 1 − Π_i (1 − p_i) over the
// lowered component programs.
func (c Components) EmitOps(b *Builder) (uint32, error) {
	miss := b.One()
	for _, part := range c.Parts {
		p, err := part.EmitOps(b)
		if err != nil {
			return 0, err
		}
		omp := b.OneMinus(p)
		b.Release(p)
		next := b.Mul(miss, omp)
		b.Release(miss)
		b.Release(omp)
		miss = next
	}
	out := b.OneMinus(miss)
	b.Release(miss)
	return out, nil
}
