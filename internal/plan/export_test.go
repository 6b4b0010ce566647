package plan

import "math/big"

// ExecInt runs the integer interpreter alone for the external tests of
// this package (which compile real plans through package core), so they
// can assert that an input takes the integer path.
func ExecInt(p *Program, probs []*big.Rat) (*big.Rat, bool, error) {
	return p.execInt(nil, probs, nil)
}
