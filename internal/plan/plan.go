package plan

import (
	"fmt"
	"math/big"

	"phom/internal/betadnf"
	"phom/internal/ddnnf"
	"phom/internal/graph"
)

// Plan is a compiled, probability-independent evaluation artifact. The
// probs argument is indexed by the edge list of the instance the plan
// was compiled from (position i holds π of edge i); callers reweighting
// a structurally identical instance with a different edge numbering must
// permute the vector first (see graphio.CanonicalEdgeOrder).
//
// Evaluate walks the plan tree (the original evaluation path, kept as
// the differential reference); EmitOps lowers the same arithmetic to
// the flat Program IR, which is what the solver pipeline executes and
// what internal/graphio serializes.
type Plan interface {
	Evaluate(probs []*big.Rat) (*big.Rat, error)
	EmitOps(b *Builder) (uint32, error)
}

// Const is the plan of a job decided by structure alone: a trivial
// (edgeless) query, a query label absent from the instance, or a
// non-graded query on forest worlds. Its value is independent of π.
type Const struct {
	Value *big.Rat
}

// NewConst returns a Const plan with the given value (copied).
func NewConst(v *big.Rat) Const {
	return Const{Value: new(big.Rat).Set(v)}
}

// Evaluate returns a fresh copy of the constant.
func (c Const) Evaluate(probs []*big.Rat) (*big.Rat, error) {
	return new(big.Rat).Set(c.Value), nil
}

// Chain evaluates a β-acyclic chain system (the lineages of
// Propositions 4.10 and 3.6 on downward-tree instances), precompiled so
// evaluation runs the dynamic program with no per-call setup. NodeEdge
// maps each system node to the instance edge above it (−1 for roots,
// whose probability is fixed to 1).
type Chain struct {
	System   *betadnf.CompiledChain
	NodeEdge []int
}

// Evaluate runs the chain dynamic program under π.
func (c Chain) Evaluate(probs []*big.Rat) (*big.Rat, error) {
	nodeProbs := make([]*big.Rat, len(c.NodeEdge))
	for v, ei := range c.NodeEdge {
		if ei < 0 {
			nodeProbs[v] = graph.RatOne
			continue
		}
		if ei >= len(probs) {
			return nil, fmt.Errorf("plan: chain node %d references edge %d of %d", v, ei, len(probs))
		}
		nodeProbs[v] = probs[ei]
	}
	return c.System.Prob(nodeProbs)
}

// Interval evaluates a β-acyclic interval system (the lineages of
// Proposition 4.11 on two-way-path instances). VarEdge maps each path
// position to the instance edge at that position.
type Interval struct {
	System  *betadnf.IntervalSystem
	VarEdge []int
}

// Evaluate runs the interval dynamic program under π.
func (iv Interval) Evaluate(probs []*big.Rat) (*big.Rat, error) {
	varProbs := make([]*big.Rat, len(iv.VarEdge))
	for i, ei := range iv.VarEdge {
		if ei < 0 || ei >= len(probs) {
			return nil, fmt.Errorf("plan: interval position %d references edge %d of %d", i, ei, len(probs))
		}
		varProbs[i] = probs[ei]
	}
	return iv.System.Prob(varProbs)
}

// Circuit evaluates a d-DNNF lineage circuit (the automaton pipeline of
// Proposition 5.4 on polytree instances). VarEdge maps each circuit
// variable to an instance edge.
type Circuit struct {
	C       *ddnnf.Circuit
	Out     ddnnf.Gate
	VarEdge []int
}

// Evaluate computes the circuit probability under π in linear time.
func (c Circuit) Evaluate(probs []*big.Rat) (*big.Rat, error) {
	varProbs := make([]*big.Rat, len(c.VarEdge))
	for i, ei := range c.VarEdge {
		if ei < 0 || ei >= len(probs) {
			return nil, fmt.Errorf("plan: circuit variable %d references edge %d of %d", i, ei, len(probs))
		}
		varProbs[i] = probs[ei]
	}
	return c.C.Prob(c.Out, varProbs), nil
}

// Components is the Lemma 3.7 composite: for a connected query over a
// disconnected instance, Pr = 1 − Π_i (1 − p_i) over the per-component
// plans, whose edge references all index the full instance edge list.
type Components struct {
	Parts []Plan
}

// Evaluate combines the component probabilities per Lemma 3.7.
func (c Components) Evaluate(probs []*big.Rat) (*big.Rat, error) {
	miss := big.NewRat(1, 1)
	for _, part := range c.Parts {
		p, err := part.Evaluate(probs)
		if err != nil {
			return nil, err
		}
		miss.Mul(miss, p.Sub(graph.RatOne, p))
	}
	return miss.Sub(graph.RatOne, miss), nil
}
