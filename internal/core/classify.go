package core

import (
	"fmt"

	"phom/internal/graph"
)

// Verdict is the predicted combined complexity of a PHom cell: one
// (query class, instance class, labeled?) combination of Tables 1–3.
type Verdict struct {
	Tractable bool
	// Reason cites the paper result the verdict follows from, e.g.
	// "Prop 4.10 + Lemma 3.7" or "Prop 4.1 (⊇ 1WP ⊆ query, PT ⊆ instance)".
	Reason string
}

func (v Verdict) String() string {
	if v.Tractable {
		return "PTIME [" + v.Reason + "]"
	}
	return "#P-hard [" + v.Reason + "]"
}

type cell struct {
	q, i   graph.Class
	reason string
}

// Maximal tractable pairs: a cell (qc, ic) is PTIME iff qc ⊆ q and ic ⊆ i
// for one of these.
var (
	tractableLabeled = []cell{
		{graph.Class1WP, graph.ClassUDWT, "Prop 4.10 + Lemma 3.7"},
		{graph.ClassConnected, graph.ClassU2WP, "Prop 4.11 + Lemma 3.7"},
	}
	tractableUnlabeled = []cell{
		{graph.Class1WP, graph.ClassUPT, "Prop 5.4 + Lemma 3.7"},
		{graph.ClassUDWT, graph.ClassUPT, "Prop 5.5 + Lemma 3.7"},
		{graph.ClassConnected, graph.ClassU2WP, "Prop 4.11 + Lemma 3.7"},
		{graph.ClassAll, graph.ClassUDWT, "Prop 3.6"},
	}
	// Minimal hard pairs: a cell (qc, ic) is #P-hard iff q ⊆ qc and
	// i ⊆ ic for one of these. The paper's dichotomy means every cell is
	// covered by exactly one of the two lists; TestDichotomyCoverage
	// verifies this exhaustively.
	hardLabeled = []cell{
		{graph.ClassU1WP, graph.Class1WP, "Prop 3.3"},
		{graph.Class1WP, graph.ClassPT, "Prop 4.1"},
		{graph.Class2WP, graph.ClassDWT, "Prop 4.5"},
		{graph.ClassDWT, graph.ClassDWT, "Prop 4.4"},
	}
	hardUnlabeled = []cell{
		{graph.ClassU2WP, graph.Class2WP, "Prop 3.4"},
		{graph.Class2WP, graph.ClassPT, "Prop 5.6"},
		{graph.Class1WP, graph.ClassConnected, "Prop 5.1"},
	}
)

// PredictInput locates the tightest Tables 1–3 cell of a concrete input
// pair — the tightest classes of query and instance, and whether the
// pair is in the labeled setting — and returns that cell's verdict.
// Shared by cmd/phom -classify and the cmd/phomserve responses so the
// two never diverge.
func PredictInput(q *graph.Graph, h *graph.ProbGraph) (qc, ic graph.Class, labeled bool, v Verdict) {
	qc = q.TightestClass()
	ic = h.G.TightestClass()
	labeled = !h.G.IsUnlabeled() || !q.IsUnlabeled()
	return qc, ic, labeled, Predict(qc, ic, labeled)
}

// Predict returns the combined complexity of PHom restricted to query
// graphs in qc and instance graphs in ic, in the labeled (PHomL) or
// unlabeled (PHom̸L) setting, as classified by the paper's Tables 1–3.
// The classification is a dichotomy: every cell is PTIME or #P-hard.
func Predict(qc, ic graph.Class, labeled bool) Verdict {
	tract, hard := tractableUnlabeled, hardUnlabeled
	if labeled {
		tract, hard = tractableLabeled, hardLabeled
	}
	for _, t := range tract {
		if graph.ClassIncluded(qc, t.q) && graph.ClassIncluded(ic, t.i) {
			return Verdict{Tractable: true, Reason: t.reason}
		}
	}
	for _, hd := range hard {
		if graph.ClassIncluded(hd.q, qc) && graph.ClassIncluded(hd.i, ic) {
			return Verdict{Tractable: false, Reason: hd.reason}
		}
	}
	// The paper's dichotomy leaves no gap; reaching this indicates a bug
	// in the border lists (caught by TestDichotomyCoverage).
	return Verdict{Tractable: false, Reason: fmt.Sprintf("UNCOVERED CELL (%v, %v, labeled=%v)", qc, ic, labeled)}
}
