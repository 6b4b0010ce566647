package graphio

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
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
	return strconv.AppendQuote(b, string(e.Label))
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
// the structure key; package engine derives its cache keys with the
// one-pass JobKeys below instead, which hashes a different byte stream
// — the two schemes define the same equivalence on jobs but produce
// different key values, so a single cache must use one consistently. A
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

// The structure byte stream — "struct\n", the query sections, the
// instance header, one canonical edge line per edge, the options
// section — is written in one place, NewKeyer, behind JobKeys,
// BatchJobKeys and StructKeyJob. Plan-cache correctness depends on
// them producing identical structure keys (compiled plans are stamped
// with StructKeyJob, the engine keys lookups with JobKeys), so the
// stream must have a single definition; TestStructKeyJobMatchesJobKeys
// pins the equality end to end.

// writeJobSections writes the query sections and the instance header
// shared by the job and structure streams.
func writeJobSections(w io.Writer, queryCanon []string, numVertices int) {
	for _, q := range queryCanon {
		fmt.Fprintf(w, "q %d\n%s\n", len(q), q)
	}
	fmt.Fprintf(w, "i n=%d\n", numVertices)
}

// writeOptsSection writes the options fingerprint section closing both
// streams.
func writeOptsSection(w io.Writer, optsFingerprint string) {
	fmt.Fprintf(w, "o %d\n%s\n", len(optsFingerprint), optsFingerprint)
}

// JobKeys computes JobKey and StructKey for an instance in one pass:
// the instance's edges are visited once in canonical edge order
// (numeric, no string sort) and streamed into both hashes, instead of
// materializing the CanonicalProbGraph / CanonicalGraph strings and
// hashing them separately. Equal inputs up to edge insertion order
// yield equal keys, like the string-based forms; the key VALUES differ
// from JobKey/StructKey over Canonical* strings (different byte
// streams), so a cache must consistently use one scheme. Package engine
// uses this one — key derivation runs on every submission, and the
// plan-hit fast path should not spend its win on hashing. The canonical
// edge order is returned so callers can reuse it (probability
// transport) without re-sorting.
//
// The two keys take separate options fingerprints: the job key hashes
// the full result-affecting fingerprint, the structure key hashes the
// compile-affecting subset (core.Options.StructFingerprint) — which is
// how jobs differing only in evaluation policy (precision, tolerance)
// share one cached plan while keeping distinct result-cache entries.
//
// JobKeys is NewKeyer followed by one Keys call; callers keying the
// same structure repeatedly keep the Keyer instead.
func JobKeys(queryCanon []string, p *graph.ProbGraph, optsFingerprint, structOptsFingerprint string) (jobKey, structKey string, order []int) {
	return NewKeyer(queryCanon, p.G, optsFingerprint, structOptsFingerprint).Keys(p)
}

// Keyer is the probability-independent half of JobKeys for one job
// shape (query disjuncts, instance graph, options fingerprints): the
// structure key, the canonical edge order, every canonical edge line
// and the job hash's state after the query and instance header. Keys
// then renders and hashes only the probabilities. A Keyer is immutable
// and safe for concurrent use.
type Keyer struct {
	g                   *graph.Graph
	queryCanon          []string
	optsFP, structOptFP string
	structKey           string
	order               []int
	// lines holds the canonical edge lines in canonical order, each
	// ending in the '=' the probability continues; ends[i] is the end
	// of line i.
	lines []byte
	ends  []int
	// state is the marshaled job hash after the header; prefix is the
	// header itself, re-hashed when the state does not round-trip.
	state, prefix []byte
}

// NewKeyer derives the structure half of the keys of jobs with the
// given disjuncts, instance graph and options fingerprints.
func NewKeyer(queryCanon []string, g *graph.Graph, optsFingerprint, structOptsFingerprint string) *Keyer {
	k := &Keyer{g: g, queryCanon: queryCanon, optsFP: optsFingerprint, structOptFP: structOptsFingerprint}
	var header bytes.Buffer
	writeJobSections(&header, queryCanon, g.NumVertices())
	k.prefix = header.Bytes()
	hp := sha256.New()
	hp.Write(k.prefix)
	k.state, _ = hp.(encoding.BinaryMarshaler).MarshalBinary()

	k.order = CanonicalEdgeOrder(g)
	k.ends = make([]int, len(k.order))
	structLines := make([]byte, 0, 16*len(k.order))
	for i, ei := range k.order {
		start := len(k.lines)
		k.lines = canonEdgeLine(k.lines, g.Edge(ei))
		// Lines self-delimit: labels are quoted, so '\n' cannot occur
		// unescaped inside one.
		structLines = append(append(structLines, k.lines[start:]...), '\n')
		k.lines = append(k.lines, '=')
		k.ends[i] = len(k.lines)
	}
	hs := sha256.New()
	fmt.Fprintf(hs, "struct\n")
	hs.Write(k.prefix)
	hs.Write(structLines)
	writeOptsSection(hs, structOptsFingerprint)
	k.structKey = hex.EncodeToString(hs.Sum(nil))
	return k
}

// For reports whether k keys jobs of exactly this shape: the same graph
// value (pointer identity), disjuncts and options fingerprints.
func (k *Keyer) For(queryCanon []string, g *graph.Graph, optsFingerprint, structOptsFingerprint string) bool {
	return k != nil && k.g == g && k.optsFP == optsFingerprint && k.structOptFP == structOptsFingerprint &&
		slices.Equal(k.queryCanon, queryCanon)
}

// StructKey returns the structure key of k's jobs, equal to the
// StructKeyJob of the same disjuncts, graph and structure fingerprint.
func (k *Keyer) StructKey() string { return k.structKey }

// Keys returns the job key of p, whose underlying graph must be k's,
// with the shared structure key and canonical edge order (the order
// slice is shared and must not be mutated).
func (k *Keyer) Keys(p *graph.ProbGraph) (jobKey, structKey string, order []int) {
	if p.G != k.g {
		panic("graphio: Keyer.Keys on another graph")
	}
	hj := sha256.New()
	if k.state == nil || hj.(encoding.BinaryUnmarshaler).UnmarshalBinary(k.state) != nil {
		hj = sha256.New()
		hj.Write(k.prefix)
	}
	// The whole edge section is rendered into one buffer and hashed with
	// a single Write: per-edge hash writes and big.Int decimal rendering
	// would dominate keying.
	buf := make([]byte, 0, len(k.lines)+8*len(k.order))
	start := 0
	for i, ei := range k.order {
		buf = append(buf, k.lines[start:k.ends[i]]...)
		buf = appendRat(buf, p.Prob(ei))
		buf = append(buf, '\n')
		start = k.ends[i]
	}
	hj.Write(buf)
	writeOptsSection(hj, k.optsFP)
	return hex.EncodeToString(hj.Sum(nil)), k.structKey, k.order
}

// StructKeyJob computes the structure key and canonical edge order of
// a job directly from the instance's underlying graph: the structure
// half of JobKeys (a Keyer), so the two return identical structKey
// values for the same job. It exists for callers that have no
// probability assignment at hand: package core stamps every compiled
// plan with its structure key so plans serialize self-describing (the
// engine's snapshot restore keys them without re-deriving anything).
func StructKeyJob(queryCanon []string, g *graph.Graph, optsFingerprint string) (structKey string, order []int) {
	k := NewKeyer(queryCanon, g, "", optsFingerprint)
	return k.structKey, k.order
}

// BatchJobKeys computes JobKeys for a batch of same-structure lanes in
// one pass: K instances sharing one underlying graph get K job keys,
// one structure key and one canonical edge order, byte-identical to K
// independent JobKeys calls. The shared work is one Keyer; per lane
// only the probability suffixes and the options section are hashed.
// This is the keying half of the engine's batched reweight path:
// deriving K memo-cache keys must not cost K full canonicalizations, or
// batching's win dies in the hasher.
//
// Lanes whose instance does not share instances[0]'s underlying graph
// value are keyed with a full per-lane JobKeys pass — correct, just not
// amortized. Callers that group by graph identity (package engine) never
// hit that path.
func BatchJobKeys(queryCanon []string, instances []*graph.ProbGraph, optsFingerprint, structOptsFingerprint string) (jobKeys []string, structKey string, order []int) {
	if len(instances) == 0 {
		return nil, "", nil
	}
	k := NewKeyer(queryCanon, instances[0].G, optsFingerprint, structOptsFingerprint)
	jobKeys = make([]string, len(instances))
	for i, inst := range instances {
		if inst.G != k.g {
			jobKeys[i], _, _ = JobKeys(queryCanon, inst, optsFingerprint, structOptsFingerprint)
			continue
		}
		jobKeys[i], _, _ = k.Keys(inst)
	}
	return jobKeys, k.structKey, k.order
}

// appendRat appends r in the canonical "num/denom" form, with a fast
// path for machine-word-sized numerators and denominators (the shape of
// real probability traffic) that skips big.Int's slower decimal
// rendering. Byte-identical to Num().Append + "/" + Denom().Append.
func appendRat(buf []byte, r *big.Rat) []byte {
	if n, d := r.Num(), r.Denom(); n.IsInt64() && d.IsInt64() {
		buf = strconv.AppendInt(buf, n.Int64(), 10)
		buf = append(buf, '/')
		return strconv.AppendInt(buf, d.Int64(), 10)
	}
	buf = r.Num().Append(buf, 10)
	buf = append(buf, '/')
	return r.Denom().Append(buf, 10)
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
		slices.SortFunc(order[start:], func(a, b int) int {
			return cmp.Compare(g.Edge(a).To, g.Edge(b).To)
		})
	}
	return order
}
