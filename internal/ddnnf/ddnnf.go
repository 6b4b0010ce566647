package ddnnf

import (
	"fmt"
	"math/big"
)

// Gate identifies a gate of a Circuit.
type Gate int

type kind uint8

const (
	kindFalse kind = iota
	kindTrue
	kindLit
	kindAnd
	kindOr
)

type gateData struct {
	kind   kind
	v      int  // for kindLit
	neg    bool // for kindLit
	inputs []Gate
}

// Circuit is an NNF Boolean circuit over variables 0 … NumVars−1, built
// bottom-up: gates can only reference previously created gates, so the
// circuit is acyclic by construction.
type Circuit struct {
	numVars int
	gates   []gateData
}

// New returns an empty circuit over n variables.
func New(n int) *Circuit { return &Circuit{numVars: n} }

// NumVars returns the number of variables.
func (c *Circuit) NumVars() int { return c.numVars }

func (c *Circuit) add(g gateData) Gate {
	c.gates = append(c.gates, g)
	return Gate(len(c.gates) - 1)
}

// False returns a constant-false gate.
func (c *Circuit) False() Gate { return c.add(gateData{kind: kindFalse}) }

// True returns a constant-true gate.
func (c *Circuit) True() Gate { return c.add(gateData{kind: kindTrue}) }

// Literal returns the gate for variable v (negated if neg).
func (c *Circuit) Literal(v int, neg bool) Gate {
	if v < 0 || v >= c.numVars {
		panic(fmt.Sprintf("ddnnf: variable %d out of range", v))
	}
	return c.add(gateData{kind: kindLit, v: v, neg: neg})
}

// And returns a conjunction gate over the inputs. Zero inputs yield true.
func (c *Circuit) And(inputs ...Gate) Gate {
	if len(inputs) == 1 {
		return inputs[0]
	}
	return c.add(gateData{kind: kindAnd, inputs: append([]Gate(nil), inputs...)})
}

// Or returns a disjunction gate over the inputs. Zero inputs yield false.
func (c *Circuit) Or(inputs ...Gate) Gate {
	if len(inputs) == 1 {
		return inputs[0]
	}
	return c.add(gateData{kind: kindOr, inputs: append([]Gate(nil), inputs...)})
}

// Eval evaluates gate g under valuation nu.
func (c *Circuit) Eval(g Gate, nu []bool) bool {
	memo := make([]int8, len(c.gates)) // 0 unknown, 1 false, 2 true
	var rec func(Gate) bool
	rec = func(g Gate) bool {
		if memo[g] != 0 {
			return memo[g] == 2
		}
		gd := c.gates[g]
		var r bool
		switch gd.kind {
		case kindFalse:
			r = false
		case kindTrue:
			r = true
		case kindLit:
			r = nu[gd.v] != gd.neg
		case kindAnd:
			r = true
			for _, in := range gd.inputs {
				if !rec(in) {
					r = false
					break
				}
			}
		case kindOr:
			r = false
			for _, in := range gd.inputs {
				if rec(in) {
					r = true
					break
				}
			}
		}
		if r {
			memo[g] = 2
		} else {
			memo[g] = 1
		}
		return r
	}
	return rec(g)
}

// Prob computes the probability that gate g evaluates to true when
// variable v is true independently with probability probs[v]. The result
// is correct only for d-DNNF circuits (AND → ×, OR → +); validate with
// CheckDecomposable and CheckDeterministicExhaustive in tests.
func (c *Circuit) Prob(g Gate, probs []*big.Rat) *big.Rat {
	if len(probs) != c.numVars {
		panic("ddnnf: probability vector length mismatch")
	}
	memo := make([]*big.Rat, len(c.gates))
	one := big.NewRat(1, 1)
	var rec func(Gate) *big.Rat
	rec = func(g Gate) *big.Rat {
		if memo[g] != nil {
			return memo[g]
		}
		gd := c.gates[g]
		var r *big.Rat
		switch gd.kind {
		case kindFalse:
			r = new(big.Rat)
		case kindTrue:
			r = big.NewRat(1, 1)
		case kindLit:
			if gd.neg {
				r = new(big.Rat).Sub(one, probs[gd.v])
			} else {
				r = new(big.Rat).Set(probs[gd.v])
			}
		case kindAnd:
			r = big.NewRat(1, 1)
			for _, in := range gd.inputs {
				r.Mul(r, rec(in))
			}
		case kindOr:
			r = new(big.Rat)
			for _, in := range gd.inputs {
				r.Add(r, rec(in))
			}
		}
		memo[g] = r
		return r
	}
	return rec(g)
}

// VarSupport returns the set of variables the subcircuit rooted at g
// depends on (syntactically), as a sorted slice.
func (c *Circuit) VarSupport(g Gate) []int {
	memo := make(map[Gate]map[int]struct{})
	var rec func(Gate) map[int]struct{}
	rec = func(g Gate) map[int]struct{} {
		if s, ok := memo[g]; ok {
			return s
		}
		gd := c.gates[g]
		s := map[int]struct{}{}
		switch gd.kind {
		case kindLit:
			s[gd.v] = struct{}{}
		case kindAnd, kindOr:
			for _, in := range gd.inputs {
				for v := range rec(in) {
					s[v] = struct{}{}
				}
			}
		}
		memo[g] = s
		return s
	}
	set := rec(g)
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sortInts(out)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// CheckDecomposable verifies property (ii) of Definition 5.3 on the
// subcircuit rooted at g: the inputs of every AND gate depend on pairwise
// disjoint variable sets.
func (c *Circuit) CheckDecomposable(g Gate) error {
	supports := make(map[Gate]map[int]struct{})
	var support func(Gate) map[int]struct{}
	support = func(g Gate) map[int]struct{} {
		if s, ok := supports[g]; ok {
			return s
		}
		gd := c.gates[g]
		s := map[int]struct{}{}
		switch gd.kind {
		case kindLit:
			s[gd.v] = struct{}{}
		case kindAnd, kindOr:
			for _, in := range gd.inputs {
				for v := range support(in) {
					s[v] = struct{}{}
				}
			}
		}
		supports[g] = s
		return s
	}
	seen := make(map[Gate]bool)
	var rec func(Gate) error
	rec = func(g Gate) error {
		if seen[g] {
			return nil
		}
		seen[g] = true
		gd := c.gates[g]
		if gd.kind == kindAnd {
			union := map[int]struct{}{}
			for _, in := range gd.inputs {
				for v := range support(in) {
					if _, dup := union[v]; dup {
						return fmt.Errorf("ddnnf: AND gate %d not decomposable on variable %d", g, v)
					}
					union[v] = struct{}{}
				}
			}
		}
		if gd.kind == kindAnd || gd.kind == kindOr {
			for _, in := range gd.inputs {
				if err := rec(in); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return rec(g)
}

// CheckDeterministicExhaustive verifies property (iii) of Definition 5.3
// on the subcircuit rooted at g by enumerating all valuations: under
// every valuation, at most one input of each OR gate is true. Exponential
// in NumVars; the test suite uses it on circuits with few variables.
func (c *Circuit) CheckDeterministicExhaustive(g Gate) error {
	if c.numVars > 24 {
		return fmt.Errorf("ddnnf: exhaustive determinism check refused for %d variables", c.numVars)
	}
	// Collect OR gates reachable from g.
	var ors []Gate
	seen := make(map[Gate]bool)
	var collect func(Gate)
	collect = func(g Gate) {
		if seen[g] {
			return
		}
		seen[g] = true
		gd := c.gates[g]
		if gd.kind == kindOr {
			ors = append(ors, g)
		}
		for _, in := range gd.inputs {
			collect(in)
		}
	}
	collect(g)
	nu := make([]bool, c.numVars)
	for mask := 0; mask < 1<<uint(c.numVars); mask++ {
		for v := 0; v < c.numVars; v++ {
			nu[v] = mask&(1<<uint(v)) != 0
		}
		for _, og := range ors {
			trues := 0
			for _, in := range c.gates[og].inputs {
				if c.Eval(in, nu) {
					trues++
				}
			}
			if trues > 1 {
				return fmt.Errorf("ddnnf: OR gate %d has %d true inputs under valuation %0*b", og, trues, c.numVars, mask)
			}
		}
	}
	return nil
}
