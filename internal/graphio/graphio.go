package graphio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"strconv"
	"strings"

	"phom/internal/graph"
)

// MaxParseVertices caps the vertex count accepted by the text and JSON
// parsers. A "vertices" directive is a handful of bytes but makes the
// graph constructor allocate per-vertex adjacency state, so without a
// cap a tiny malicious input could demand gigabytes (the parsers back
// the HTTP serving layer). Raise it here if a workload ever legitimately
// needs more.
const MaxParseVertices = 1 << 20

// maxRatLen caps the length of a probability token, and maxRatExpDigits
// the number of digits of a decimal exponent inside one: big.Rat parses
// "1e9999999999" by materializing the power of ten, so unbounded
// exponents are another tiny-input/huge-allocation vector.
const (
	maxRatLen       = 4096
	maxRatExpDigits = 4
)

// ParseRat parses an exact rational probability token ("1/2", "0.35",
// "1", "2.5e-3") with the malicious-input guards of this package: the
// token length and any decimal exponent are bounded before big.Rat
// allocates. It does not enforce the [0,1] probability range — that is
// the job of the graph.ProbGraph that stores the value.
func ParseRat(s string) (*big.Rat, error) {
	if len(s) > maxRatLen {
		return nil, fmt.Errorf("graphio: rational token longer than %d bytes", maxRatLen)
	}
	if i := strings.IndexAny(s, "eE"); i >= 0 {
		exp := s[i+1:]
		if len(exp) > 0 && (exp[0] == '+' || exp[0] == '-') {
			exp = exp[1:]
		}
		if len(exp) > maxRatExpDigits {
			return nil, fmt.Errorf("graphio: exponent %q too large", s[i+1:])
		}
	}
	p, ok := new(big.Rat).SetString(s)
	if !ok {
		return nil, fmt.Errorf("graphio: bad rational %q", s)
	}
	return p, nil
}

// ParseEdgeKey splits a "from>to" edge designator (the wire form used
// by phomserve's /reweight probability maps and cmd/phom's -setprob
// overrides — one parser, so the two cannot diverge). Whitespace
// around either endpoint is ignored.
func ParseEdgeKey(key string) (from, to int, ok bool) {
	a, b, found := strings.Cut(key, ">")
	if !found {
		return 0, 0, false
	}
	from, err1 := strconv.Atoi(strings.TrimSpace(a))
	to, err2 := strconv.Atoi(strings.TrimSpace(b))
	return from, to, err1 == nil && err2 == nil
}

// ParseProbGraph reads the text format from r.
func ParseProbGraph(r io.Reader) (*graph.ProbGraph, error) {
	var g *graph.Graph
	var probs []*big.Rat // parallel to g's edge list
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "vertices":
			if g != nil {
				return nil, fmt.Errorf("graphio: line %d: duplicate vertices directive", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graphio: line %d: vertices takes one argument", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("graphio: line %d: bad vertex count %q", lineNo, fields[1])
			}
			if n > MaxParseVertices {
				return nil, fmt.Errorf("graphio: line %d: vertex count %d exceeds limit %d", lineNo, n, MaxParseVertices)
			}
			g = graph.New(n)
		case "edge":
			if g == nil {
				return nil, fmt.Errorf("graphio: line %d: edge before vertices", lineNo)
			}
			if len(fields) != 4 && len(fields) != 5 {
				return nil, fmt.Errorf("graphio: line %d: edge takes 3 or 4 arguments", lineNo)
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graphio: line %d: bad endpoints", lineNo)
			}
			if err := g.AddEdge(graph.Vertex(from), graph.Vertex(to), graph.Label(fields[3])); err != nil {
				return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
			}
			p := graph.RatOne
			if len(fields) == 5 {
				var err error
				if p, err = ParseRat(fields[4]); err != nil {
					return nil, fmt.Errorf("graphio: line %d: bad probability %q: %v", lineNo, fields[4], err)
				}
			}
			probs = append(probs, p)
		default:
			return nil, fmt.Errorf("graphio: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graphio: no vertices directive")
	}
	return graph.WithProbs(g, probs)
}

// ParseGraph reads the text format from r, rejecting probability
// annotations (query graphs are deterministic).
func ParseGraph(r io.Reader) (*graph.Graph, error) {
	pg, err := ParseProbGraph(r)
	if err != nil {
		return nil, err
	}
	for i := 0; i < pg.G.NumEdges(); i++ {
		if pg.Prob(i).Cmp(graph.RatOne) != 0 {
			return nil, fmt.Errorf("graphio: query graph has a probability on edge %d", i)
		}
	}
	return pg.G, nil
}

// WriteProbGraph writes p in the text format.
func WriteProbGraph(w io.Writer, p *graph.ProbGraph) error {
	if _, err := fmt.Fprintf(w, "vertices %d\n", p.G.NumVertices()); err != nil {
		return err
	}
	for i, e := range p.G.Edges() {
		pr := p.Prob(i)
		if pr.Cmp(graph.RatOne) == 0 {
			if _, err := fmt.Fprintf(w, "edge %d %d %s\n", e.From, e.To, e.Label); err != nil {
				return err
			}
		} else if _, err := fmt.Fprintf(w, "edge %d %d %s %s\n", e.From, e.To, e.Label, pr.RatString()); err != nil {
			return err
		}
	}
	return nil
}

// WriteGraph writes g in the text format.
func WriteGraph(w io.Writer, g *graph.Graph) error {
	return WriteProbGraph(w, graph.NewProbGraph(g))
}

// jsonGraph is the JSON wire form.
type jsonGraph struct {
	Vertices int        `json:"vertices"`
	Edges    []jsonEdge `json:"edges"`
}

type jsonEdge struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Label string `json:"label"`
	Prob  string `json:"prob,omitempty"` // rational string; omitted = 1
}

// MarshalProbGraphJSON encodes p as JSON.
func MarshalProbGraphJSON(p *graph.ProbGraph) ([]byte, error) {
	jg := jsonGraph{Vertices: p.G.NumVertices()}
	for i, e := range p.G.Edges() {
		je := jsonEdge{From: int(e.From), To: int(e.To), Label: string(e.Label)}
		if pr := p.Prob(i); pr.Cmp(graph.RatOne) != 0 {
			je.Prob = pr.RatString()
		}
		jg.Edges = append(jg.Edges, je)
	}
	return json.MarshalIndent(jg, "", "  ")
}

// UnmarshalProbGraphJSON decodes JSON produced by MarshalProbGraphJSON.
func UnmarshalProbGraphJSON(data []byte) (*graph.ProbGraph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	if jg.Vertices < 1 {
		return nil, fmt.Errorf("graphio: bad vertex count %d", jg.Vertices)
	}
	if jg.Vertices > MaxParseVertices {
		return nil, fmt.Errorf("graphio: vertex count %d exceeds limit %d", jg.Vertices, MaxParseVertices)
	}
	g := graph.New(jg.Vertices)
	probs := make([]*big.Rat, 0, len(jg.Edges)) // parallel to g's edge list
	for _, je := range jg.Edges {
		if err := g.AddEdge(graph.Vertex(je.From), graph.Vertex(je.To), graph.Label(je.Label)); err != nil {
			return nil, err
		}
		p := graph.RatOne
		if je.Prob != "" {
			var err error
			if p, err = ParseRat(je.Prob); err != nil {
				return nil, fmt.Errorf("graphio: bad probability %q: %v", je.Prob, err)
			}
		}
		probs = append(probs, p)
	}
	return graph.WithProbs(g, probs)
}

// WriteDOT renders p as a Graphviz digraph; uncertain edges are dashed
// and annotated with their probability, matching the figures of the
// paper.
func WriteDOT(w io.Writer, p *graph.ProbGraph, name string) error {
	if name == "" {
		name = "H"
	}
	if _, err := fmt.Fprintf(w, "digraph %s {\n", name); err != nil {
		return err
	}
	for v := 0; v < p.G.NumVertices(); v++ {
		if _, err := fmt.Fprintf(w, "  %d;\n", v); err != nil {
			return err
		}
	}
	for i, e := range p.G.Edges() {
		attrs := fmt.Sprintf("label=%q", string(e.Label))
		if pr := p.Prob(i); pr.Cmp(graph.RatOne) != 0 {
			attrs = fmt.Sprintf("label=\"%s:%s\", style=dashed", e.Label, pr.RatString())
		}
		if _, err := fmt.Fprintf(w, "  %d -> %d [%s];\n", e.From, e.To, attrs); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
