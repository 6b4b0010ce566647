package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"math/big"
	"math/rand"
	"strconv"

	"phom/internal/core"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/graphio"
)

// Series names of the guard-table rows (Tables 1–3) a structure lands
// on; the traced run reports compile time per row under these names.
const (
	rowXProperty = "xproperty_2wp"
	rowGraded    = "graded_dwt"
	rowBeta      = "beta_acyclic_dwt"
	rowAutomaton = "automaton_pt"
	rowOpaque    = "opaque"
)

var tractableRows = []string{rowXProperty, rowGraded, rowBeta, rowAutomaton}

// rowOfMethod maps a wire method name ("x-property-2wp (Prop 4.11)") to
// its row; methods outside the guard table map to "".
var rowOfMethod = map[string]string{
	core.MethodXProperty2WP.String():   rowXProperty,
	core.MethodGradedDWT.String():      rowGraded,
	core.MethodBetaAcyclicDWT.String(): rowBeta,
	core.MethodAutomatonPT.String():    rowAutomaton,
	core.MethodKarpLuby.String():       rowOpaque,
}

// rowOf names the row a compiled plan took.
func rowOf(cp *core.CompiledPlan) string {
	m, ok := cp.Method()
	if !ok {
		return rowOpaque
	}
	return rowOfMethod[m.String()]
}

// rowCycle fixes the share of each guard-table row: seven in ten
// structures are ⊔2WP (X-property) and the other rows share the rest, so
// the median of a latency sample falls well inside one row's mass
// instead of on a boundary between rows of different cost. Structures
// take their row from this cycle by index rather than by a random draw,
// so every seed gets the same mix.
var rowCycle = []string{
	rowXProperty, rowXProperty, rowXProperty, rowGraded, rowXProperty,
	rowXProperty, rowBeta, rowXProperty, rowXProperty, rowAutomaton,
}

func rowAt(i int) string { return rowCycle[i%len(rowCycle)] }

// probStyle is how a structure's edge probabilities are drawn.
type probStyle int

const (
	// probDefault is gen.RandProb's: half the edges certain, the rest
	// k/d with d ∈ {2, 4, 8}.
	probDefault probStyle = iota
	// probWide makes every edge uncertain with a 9-digit decimal, so
	// exact answers carry denominators of thousands of bits.
	probWide
	// probOpen makes every edge uncertain strictly inside (0, 1), so no
	// lineage clause is decided before sampling.
	probOpen
)

var twoLabels = []graph.Label{"R", "S"}

// structure is one query/instance pair with its wire encoding.
type structure struct {
	row  string
	q    *graph.Graph
	h    *graph.ProbGraph
	text string // query and instance text, for the corpus digest
	// prefix is the JSON object of the job without its closing brace:
	// {"query_text":"…","instance_text":"…"
	prefix []byte
}

// newStructure draws a structure of n vertices on the given row: a fixed
// query on a union of four equal components of the row's instance class,
// exactly as the guard table of core.Compile dispatches them. Fixed
// shapes keep the cost of structures of one row close to each other, so
// a seed's draw moves the measurements little, and the Lemma 3.7
// composite keeps compiled plans small enough for full plan caches.
func newStructure(r *rand.Rand, row string, n int, style probStyle) *structure {
	var q, g *graph.Graph
	switch row {
	case rowXProperty:
		if style == probWide {
			// Unlabeled and connected: every edge takes part in some
			// match, so each answer's denominator spans the instance.
			q = graph.Path2WP(graph.Fwd(graph.Unlabeled), graph.Bwd(graph.Unlabeled), graph.Fwd(graph.Unlabeled))
			g = gen.Rand2WP(r, n, nil)
		} else { // a connected labeled query on a labeled ⊔2WP
			q = graph.Path2WP(graph.Fwd("R"), graph.Bwd("S"), graph.Fwd("R"))
			g = union(r, 4, n, twoLabels, gen.Rand2WP)
		}
	case rowGraded: // an unlabeled query on an unlabeled ⊔DWT
		q = graph.Path2WP(graph.Fwd(graph.Unlabeled), graph.Fwd(graph.Unlabeled), graph.Bwd(graph.Unlabeled))
		g = union(r, 4, n, nil, gen.RandDWT)
	case rowBeta: // a labeled 1WP query on a labeled ⊔DWT
		q = graph.Path1WP("R", "S", "R")
		g = union(r, 4, n, twoLabels, gen.RandDWT)
	case rowAutomaton: // an unlabeled DWT query on an unlabeled ⊔PT
		q = graph.UnlabeledPath(3)
		g = union(r, 4, n, nil, gen.RandPolytree)
	case rowOpaque: // a labeled non-1WP 2WP query on a labeled DWT: no row applies
		q = graph.Path2WP(graph.Fwd("R"), graph.Bwd("R"), graph.Fwd("S"))
		g = gen.RandDWT(r, n, twoLabels)
	default:
		panic("perfbench: unknown row " + row)
	}
	var h *graph.ProbGraph
	switch style {
	case probDefault:
		h = gen.RandProb(r, g, 0.5)
	case probWide:
		h = graph.NewProbGraph(g)
		for i := 0; i < g.NumEdges(); i++ {
			mustSetProb(h, i, wideRat(r))
		}
	case probOpen:
		h = graph.NewProbGraph(g)
		for i := 0; i < g.NumEdges(); i++ {
			d := int64(4 << uint(r.Intn(3)))
			mustSetProb(h, i, big.NewRat(1+r.Int63n(d-1), d))
		}
	}
	qt, it := textOf(q), probTextOf(h)
	s := &structure{row: row, q: q, h: h, text: qt + it}
	s.prefix = appendJSONString([]byte(`{"query_text":`), qt)
	s.prefix = append(s.prefix, `,"instance_text":`...)
	s.prefix = appendJSONString(s.prefix, it)
	return s
}

// union draws k components of n/k vertices each.
func union(r *rand.Rand, k, n int, labels []graph.Label, part func(*rand.Rand, int, []graph.Label) *graph.Graph) *graph.Graph {
	return gen.RandUnion(r, k, func(r *rand.Rand) *graph.Graph { return part(r, n/k, labels) })
}

// textOf and probTextOf render graphs in the text format of cmd/phom.
func textOf(g *graph.Graph) string {
	var b bytes.Buffer
	_ = graphio.WriteGraph(&b, g) // writes to a bytes.Buffer cannot fail
	return b.String()
}

func probTextOf(h *graph.ProbGraph) string {
	var b bytes.Buffer
	_ = graphio.WriteProbGraph(&b, h)
	return b.String()
}

func mustSetProb(h *graph.ProbGraph, i int, p *big.Rat) {
	if err := h.SetProb(i, p); err != nil {
		panic(err) // every generated probability lies in [0, 1]
	}
}

func appendJSONString(b []byte, s string) []byte {
	enc, _ := json.Marshal(s) // a string always marshals
	return append(b, enc...)
}

// wideDecimal draws a 9-digit decimal probability in (0, 1).
func wideDecimal(r *rand.Rand) string {
	return fmt.Sprintf("0.%09d", 1+r.Intn(999999999))
}

func wideRat(r *rand.Rand) *big.Rat {
	p, _ := new(big.Rat).SetString(wideDecimal(r))
	return p
}

// narrowRat draws gen.RandRat's probabilities: k/d with d ∈ {2, 4, 8}.
func narrowRat(r *rand.Rand) (string, *big.Rat) {
	p := gen.RandRat(r)
	return p.RatString(), p
}

// override sets one edge's probability in a /reweight vector.
type override struct {
	edge int
	key  string // "from>to"
	val  string // wire form
	p    *big.Rat
}

// vector is one probability vector of a /reweight request.
type vector []override

// randVector overrides k distinct edges of s with fresh probabilities.
func (s *structure) randVector(r *rand.Rand, k int, style probStyle) vector {
	m := s.h.G.NumEdges()
	if k > m {
		k = m
	}
	v := make(vector, 0, k)
	for _, i := range r.Perm(m)[:k] {
		e := s.h.G.Edge(i)
		o := override{edge: i, key: strconv.Itoa(int(e.From)) + ">" + strconv.Itoa(int(e.To))}
		if style == probWide {
			o.val = wideDecimal(r)
			o.p, _ = new(big.Rat).SetString(o.val)
		} else {
			o.val, o.p = narrowRat(r)
		}
		v = append(v, o)
	}
	return v
}

// appendJSON appends v as a {"from>to":"p",...} object.
func (v vector) appendJSON(b []byte) []byte {
	b = append(b, '{')
	for i, o := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, o.key)
		b = append(b, ':')
		b = appendJSONString(b, o.val)
	}
	return append(b, '}')
}

// apply returns s's instance with v's probabilities substituted.
func (s *structure) apply(v vector) *graph.ProbGraph {
	h := s.h.CloneProbs()
	for _, o := range v {
		mustSetProb(h, o.edge, o.p)
	}
	return h
}

// solveBody is the /solve job of s under the given options object
// ("" for the server's default exact precision).
func (s *structure) solveBody(options string) []byte {
	b := append([]byte(nil), s.prefix...)
	if options != "" {
		b = append(b, `,"options":`...)
		b = append(b, options...)
	}
	return append(b, '}')
}

// reweightBody is the /reweight job of s with one vector (probs) or
// several (probs_batch).
func (s *structure) reweightBody(vecs []vector, options string) []byte {
	b := append([]byte(nil), s.prefix...)
	if len(vecs) == 1 {
		b = append(b, `,"probs":`...)
		b = vecs[0].appendJSON(b)
	} else {
		b = append(b, `,"probs_batch":[`...)
		for i, v := range vecs {
			if i > 0 {
				b = append(b, ',')
			}
			b = v.appendJSON(b)
		}
		b = append(b, ']')
	}
	if options != "" {
		b = append(b, `,"options":`...)
		b = append(b, options...)
	}
	return append(b, '}')
}

// streamSeed derives the seed of one deterministic stream (a corpus, or
// one client's operations in one phase) from the run seed.
func streamSeed(seed int64, parts ...string) int64 {
	var h uint64 = 1469598103934665603 // FNV-1a over the seed and the parts
	mix := func(b []byte) {
		for _, c := range b {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	mix(buf[:])
	for _, p := range parts {
		mix([]byte(p))
		mix([]byte{0})
	}
	return int64(h >> 1)
}

// digestWrite feeds a length-prefixed record into a corpus digest.
func digestWrite(d hash.Hash, s string) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
	d.Write(buf[:])
	d.Write([]byte(s))
}
