package graphio

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"phom/internal/graph"
)

// This file defines a canonical serialization of graphs and solver jobs,
// used by package engine to key its memoization cache and to deduplicate
// identical in-flight jobs. Canonical means insertion-order independent:
// two graphs with the same vertex count and the same edge set serialize
// identically no matter in which order the edges were added, and two
// probabilistic graphs additionally need identical (normalized) edge
// probabilities. It is NOT an isomorphism canonical form — vertex
// numbering matters, exactly as it does for the solver itself.

// canonEdgeLine appends the canonical line of an edge — "from>to:"label""
// — to b. Labels are quoted so that arbitrary label tokens cannot
// collide with the serialization syntax. Built with strconv rather than
// fmt: canonicalization runs on every engine submission, so it is part
// of the serving hot path.
func canonEdgeLine(b []byte, e graph.Edge) []byte {
	b = strconv.AppendInt(b, int64(e.From), 10)
	b = append(b, '>')
	b = strconv.AppendInt(b, int64(e.To), 10)
	b = append(b, ':')
	// strconv.AppendQuote leaves printable ASCII other than '"' and '\\'
	// as is, so such a label (the usual case) is quoted by hand.
	for i := 0; i < len(e.Label); i++ {
		if c := e.Label[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, string(e.Label))
		}
	}
	return append(append(append(b, '"'), e.Label...), '"')
}

// CanonicalGraph returns the canonical serialization of g.
func CanonicalGraph(g *graph.Graph) string {
	lines := make([]string, 0, g.NumEdges())
	for _, e := range g.Edges() {
		lines = append(lines, string(canonEdgeLine(nil, e)))
	}
	sort.Strings(lines)
	return fmt.Sprintf("g;n=%d;%s", g.NumVertices(), strings.Join(lines, ";"))
}

// CanonicalProbGraph returns the canonical serialization of p. Edge
// probabilities are rendered with RatString, which is unique per rational
// (big.Rat normalizes), so "0.5" and "1/2" canonicalize identically.
func CanonicalProbGraph(p *graph.ProbGraph) string {
	lines := make([]string, 0, p.G.NumEdges())
	for i, e := range p.G.Edges() {
		b := canonEdgeLine(nil, e)
		b = append(b, '=')
		b = append(b, p.Prob(i).RatString()...)
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	return fmt.Sprintf("pg;n=%d;%s", p.G.NumVertices(), strings.Join(lines, ";"))
}

// JobKey hashes a solver job — the canonical serializations of its query
// disjuncts, the canonical serialization of its instance, and an opaque
// options fingerprint — into a fixed-size hexadecimal key. Every section
// is length-prefixed, so distinct jobs cannot collide by concatenation
// tricks. Callers should sort queryCanon first if they want union
// disjunct order not to matter (Pr(G₁ ∨ G₂) = Pr(G₂ ∨ G₁)).
func JobKey(queryCanon []string, instanceCanon, optsFingerprint string) string {
	h := sha256.New()
	for _, q := range queryCanon {
		fmt.Fprintf(h, "q %d\n%s\n", len(q), q)
	}
	fmt.Fprintf(h, "i %d\n%s\n", len(instanceCanon), instanceCanon)
	fmt.Fprintf(h, "o %d\n%s\n", len(optsFingerprint), optsFingerprint)
	return hex.EncodeToString(h.Sum(nil))
}

// StructKey hashes the structure of a solver job: like JobKey, but the
// instance section is the probability-stripped CanonicalGraph of the
// instance's underlying graph, so jobs that differ only in edge
// probabilities share a key. It is the string-based reference form of
// the structure key; package engine derives its cache keys with a
// Keyer (below) instead, which hashes a different byte stream — the two
// schemes define the same equivalence on jobs but produce different key
// values, so a single cache must use one consistently. A
// leading domain tag keeps StructKey and JobKey values disjoint even
// for identical sections.
func StructKey(queryCanon []string, instanceStructCanon, optsFingerprint string) string {
	h := sha256.New()
	fmt.Fprintf(h, "struct\n")
	for _, q := range queryCanon {
		fmt.Fprintf(h, "q %d\n%s\n", len(q), q)
	}
	fmt.Fprintf(h, "i %d\n%s\n", len(instanceStructCanon), instanceStructCanon)
	fmt.Fprintf(h, "o %d\n%s\n", len(optsFingerprint), optsFingerprint)
	return hex.EncodeToString(h.Sum(nil))
}

// CanonicalQueries returns the sorted canonical serializations of a
// union's disjuncts. Disjunct order is irrelevant to the probability of
// a union (Pr(G₁ ∨ G₂) = Pr(G₂ ∨ G₁)), so every key and route over
// disjuncts reads them through here. Each disjunct's serialization is
// memoized on its graph (graph.Graph.Canonical).
func CanonicalQueries(qs []*graph.Graph) []string {
	canon := make([]string, len(qs))
	for i, q := range qs {
		canon[i] = q.Canonical(CanonicalGraph)
	}
	sort.Strings(canon)
	return canon
}

// The two streams keyed here are written in one place each. The
// structure stream — "struct\n", the query sections, the instance
// header "i n=<vertices>\n", one canonical edge line per edge in
// canonical edge order, the options section — is written by NewKeyer.
// Compiled plans are stamped with its key (package core) and the engine
// looks plans up by it, and plan snapshots persist it, so it must not
// change. The job stream — "job\n", the structure key, the edge
// probabilities in canonical edge order (appendRat), the options
// section — is written by Keyer.Key: the structure enters a job key as
// its 64-byte hash, not as the edge list again.

// Keyer is the structure identity of one job shape (query disjuncts,
// instance graph, compile-affecting options fingerprint): its structure
// key and canonical edge order. Key then hashes one probability
// assignment of that graph into a job key. A Keyer is immutable and
// safe for concurrent use.
type Keyer struct {
	g           *graph.Graph
	queryCanon  []string
	structOptFP string
	structKey   string
	order       []int
}

// NewKeyer keys the structure of jobs with the given (sorted canonical)
// disjuncts, instance graph and structure options fingerprint
// (core.Options.StructFingerprint).
func NewKeyer(queryCanon []string, g *graph.Graph, structOptsFingerprint string) *Keyer {
	k := &Keyer{g: g, queryCanon: queryCanon, structOptFP: structOptsFingerprint, order: CanonicalEdgeOrder(g)}
	b := append(make([]byte, 0, 64+16*g.NumEdges()), "struct\n"...)
	for _, q := range queryCanon {
		b = fmt.Appendf(b, "q %d\n%s\n", len(q), q)
	}
	b = fmt.Appendf(b, "i n=%d\n", g.NumVertices())
	for _, ei := range k.order {
		// Lines self-delimit: labels are quoted, so '\n' cannot occur
		// unescaped inside one.
		b = append(canonEdgeLine(b, g.Edge(ei)), '\n')
	}
	sum := sha256.Sum256(appendOptsSection(b, structOptsFingerprint))
	k.structKey = hex.EncodeToString(sum[:])
	return k
}

// appendOptsSection appends the options fingerprint section closing
// both streams: "o <length>\n<fingerprint>\n".
func appendOptsSection(b []byte, optsFingerprint string) []byte {
	b = strconv.AppendInt(append(b, "o "...), int64(len(optsFingerprint)), 10)
	return append(append(append(b, '\n'), optsFingerprint...), '\n')
}

// For reports whether k keys jobs of exactly this shape: the same graph
// value (pointer identity), disjuncts and structure fingerprint.
func (k *Keyer) For(queryCanon []string, g *graph.Graph, structOptsFingerprint string) bool {
	return k != nil && k.g == g && k.structOptFP == structOptsFingerprint && slices.Equal(k.queryCanon, queryCanon)
}

// StructKey returns the structure key of k's jobs: jobs that differ
// only in edge probabilities or evaluation policy share it.
func (k *Keyer) StructKey() string { return k.structKey }

// Graph returns the graph k keys.
func (k *Keyer) Graph() *graph.Graph { return k.g }

// Order returns the canonical edge order of k's graph. The slice is
// shared and must not be mutated.
func (k *Keyer) Order() []int { return k.order }

// Key returns the job key of p, whose underlying graph must be k's,
// under the full result-affecting options fingerprint
// (core.Options.Fingerprint). The structure key fixes the edge count
// and every probability self-delimits (appendRat), so the stream reads
// one way only.
func (k *Keyer) Key(p *graph.ProbGraph, optsFingerprint string) string {
	if p.G != k.g {
		panic("graphio: Keyer.Key on another graph")
	}
	// One buffer, one hash: per-edge hash writes would dominate keying.
	b := make([]byte, 0, 4+len(k.structKey)+8*len(k.order)+len(optsFingerprint)+16)
	b = append(append(b, "job\n"...), k.structKey...)
	for _, ei := range k.order {
		b = appendRat(b, p.Prob(ei))
	}
	sum := sha256.Sum256(appendOptsSection(b, optsFingerprint))
	return hex.EncodeToString(sum[:])
}

// JobKeys keys one job: the job key and structure key of p with the
// canonical edge order (a Keyer used once). Equal inputs up to edge
// insertion order yield equal keys, like the string-based JobKey and
// StructKey; the key VALUES differ from those (different byte streams),
// so a cache must consistently use one scheme. The job key hashes the
// full result-affecting fingerprint, the structure key the
// compile-affecting subset (core.Options.StructFingerprint), which is
// how jobs differing only in evaluation policy (precision, tolerance)
// share one cached plan while keeping distinct result-cache entries.
// Callers keying the same structure repeatedly keep the Keyer instead.
func JobKeys(queryCanon []string, p *graph.ProbGraph, optsFingerprint, structOptsFingerprint string) (jobKey, structKey string, order []int) {
	k := NewKeyer(queryCanon, p.G, structOptsFingerprint)
	return k.Key(p, optsFingerprint), k.structKey, k.order
}

// appendRat appends r as its numerator then its denominator, each in
// appendInt's form. big.Rat keeps r normalized, so equal rationals
// append equal bytes; no decimal rendering, which would dominate
// keying.
func appendRat(b []byte, r *big.Rat) []byte {
	return appendInt(appendInt(b, r.Num()), r.Denom())
}

// appendInt appends x as a uvarint header — twice its magnitude's byte
// length, plus one if x is negative — followed by the magnitude's
// minimal big-endian bytes, so every integer appends distinct,
// self-delimiting bytes.
func appendInt(b []byte, x *big.Int) []byte {
	words := x.Bits() // little-endian magnitude
	if len(words) <= 1 {
		// One word: the common case of a probability's numerator and
		// denominator, without BitLen's and the general loop's calls.
		var w uint64
		if len(words) == 1 {
			w = uint64(words[0])
		}
		n := (bits.Len64(w) + 7) / 8
		h := byte(2 * n)
		if x.Sign() < 0 {
			h++
		}
		b = append(b, h) // h < 0x80: a one-byte uvarint
		for i := n - 1; i >= 0; i-- {
			b = append(b, byte(w>>(8*i)))
		}
		return b
	}
	n := (x.BitLen() + 7) / 8
	h := uint64(2 * n)
	if x.Sign() < 0 {
		h++
	}
	b = binary.AppendUvarint(b, h)
	const wordBytes = bits.UintSize / 8
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(words[i/wordBytes]>>(8*(i%wordBytes))))
	}
	return b
}

// CanonicalEdgeOrder returns the edge indices of g sorted by endpoint
// pair (from, to) — a deterministic, insertion-order-independent order.
// The ordered pair identifies an edge uniquely (graphs have no
// multi-edges), so two graphs with equal CanonicalGraph serializations
// have pointwise-equal edges (including labels) under their respective
// canonical edge orders. This lets a probability vector indexed by one
// edge numbering be transported onto the other, which is how the engine
// evaluates a cached plan against an instance whose edges were inserted
// in a different order. The edges leaving one vertex are exactly its
// out-list, so the order is the out-lists in vertex order, each sorted
// by target: linear in the edges plus one short sort per vertex. It
// runs on every keying and every plan-cache hit.
func CanonicalEdgeOrder(g *graph.Graph) []int {
	order := make([]int, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		start := len(order)
		order = append(order, g.OutEdges(graph.Vertex(v))...)
		if len(order)-start > 1 {
			slices.SortFunc(order[start:], func(a, b int) int {
				return cmp.Compare(g.Edge(a).To, g.Edge(b).To)
			})
		}
	}
	return order
}
