package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"phom"
	"phom/internal/graph"
)

// verify re-derives a sampled op's answers with the library, outside the
// timed window:
//   - exact answers: RatString equal to phom.SolveContext on the same
//     inputs;
//   - fast lanes: the exact value lies inside the returned enclosure;
//   - approx answers: byte-equal to the library call with the same seed;
//   - live answers: equal to a from-scratch solve of the local mirror at
//     the answering version.
func verify(ctx context.Context, d done) error {
	o := d.o
	q, insts := opInputs(o)
	for k, inst := range insts {
		got := d.answers[k]
		switch {
		case o.opts == approxOpts:
			res, err := phom.SolveContext(ctx, phom.NewRequest(q, inst, phom.WithOptions(approxOpts)))
			if err != nil {
				return fmt.Errorf("library approx solve: %v", err)
			}
			if res.Prob.RatString() != got.prob || res.Bounds == nil || *got.lo != res.Bounds.Lo || *got.hi != res.Bounds.Hi || got.samples != res.ApproxSamples {
				return fmt.Errorf("approx answer %s [%v, %v] (%d samples) differs from the library's %s %v (%d samples)",
					got.prob, *got.lo, *got.hi, got.samples, res.Prob.RatString(), res.Bounds, res.ApproxSamples)
			}
		default:
			res, err := phom.SolveContext(ctx, phom.NewRequest(q, inst))
			if err != nil {
				return fmt.Errorf("library solve: %v", err)
			}
			if o.opts == fastOpts {
				if !(phom.Enclosure{Lo: *got.lo, Hi: *got.hi}).Contains(res.Prob) {
					return fmt.Errorf("lane %d: exact %s outside the enclosure [%v, %v]", k, res.Prob.RatString(), *got.lo, *got.hi)
				}
			} else if res.Prob.RatString() != got.prob {
				return fmt.Errorf("answer %s, library says %s", got.prob, res.Prob.RatString())
			}
		}
	}
	return nil
}

// opInputs returns the op's query and the instance behind each of its
// answers.
func opInputs(o *op) (*graph.Graph, []*graph.ProbGraph) {
	if o.live != nil {
		return o.live.inst.q, []*graph.ProbGraph{o.live.cur.H}
	}
	if len(o.vecs) == 0 {
		return o.s.q, []*graph.ProbGraph{o.s.h}
	}
	insts := make([]*graph.ProbGraph, len(o.vecs))
	for k, v := range o.vecs {
		insts[k] = o.s.apply(v)
	}
	return o.s.q, insts
}

// answerDigest hashes the answers of the first ops of client 0 — a pure
// function of the seed, unlike the set of ops a timed window completes.
func answerDigest(ds []done) string {
	d := sha256.New()
	for _, dn := range ds {
		for _, a := range dn.answers {
			digestWrite(d, a.prob)
		}
	}
	return hex.EncodeToString(d.Sum(nil))[:16]
}
