package serve

import (
	"sync"

	"phom/internal/core"
	"phom/internal/engine"
	"phom/internal/graph"
	"phom/internal/lru"
)

// Bounds of a Server's parsed-structure cache: entries, and edges held
// across the cached queries and instances. An instance larger than the
// edge bound is never kept.
const (
	structCacheEntries = 256
	structCacheEdges   = 1 << 16
)

// structure is what the structure-bearing fields of a stateless wire
// job (query, queries, query_text, queries_text, instance,
// instance_text) parse to, together with everything the serving layer
// derives from the structure alone. Once cached it is read-only:
// requests share its graphs and verdict, and each gets its own
// probability slice (parseJob).
type structure struct {
	query   *graph.Graph
	queries []*graph.Graph
	inst    *graph.ProbGraph
	// verdict is the Tables 1–3 verdict of a single-query job, nil for
	// a union of queries. It depends on the graphs only, so it is
	// computed once, on the miss, and reused by every response on the
	// structure.
	verdict *VerdictResponse
}

// edges is the structure's weight in the cache.
func (st *structure) edges() int {
	n := st.inst.G.NumEdges()
	if st.query != nil {
		n += st.query.NumEdges()
	}
	for _, q := range st.queries {
		n += q.NumEdges()
	}
	return n
}

// predicted returns the Tables 1–3 verdict of a single-query job. The
// verdict is defined per conjunctive query, so a union of queries has
// none (nil).
func predicted(job engine.Job) *VerdictResponse {
	if job.Query == nil {
		return nil
	}
	qc, ic, labeled, v := core.PredictInput(job.Query, job.Instance)
	return &VerdictResponse{
		QueryClass:    qc.String(),
		InstanceClass: ic.String(),
		Labeled:       labeled,
		Tractable:     v.Tractable,
		Verdict:       v.String(),
	}
}

// structCache is a Server's bounded cache from routeFingerprint to the
// parsed structure, with the hit and miss counters /healthz reports.
type structCache struct {
	mu           sync.Mutex
	entries      *lru.Cache[*structure]
	hits, misses uint64
}

func newStructCache() *structCache {
	return &structCache{entries: lru.NewWeighted(structCacheEntries, structCacheEdges, (*structure).edges)}
}

func (c *structCache) get(fp string) (*structure, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.entries.Get(fp)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return st, ok
}

func (c *structCache) add(fp string, st *structure) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Add(fp, st)
}

// stats returns the hit and miss counts and the number of entries.
func (c *structCache) stats() (hits, misses uint64, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.entries.Len()
}

// parseJob resolves a stateless wire job through the structure cache,
// returning the job and its verdict. Options and timeout are parsed
// and validated on every request; the structure is parsed only on a
// miss. A miss parses in toJob's order, so its error (never cached) is
// the one toJob reports; a hit can only fail on options, which is
// also what toJob would report for a body whose structure parses.
func (s *Server) parseJob(r *SolveRequest) (engine.Job, *VerdictResponse, error) {
	fp := routeFingerprint(r)
	st, hit := s.structs.get(fp)
	var job engine.Job
	var err error
	if hit {
		job, err = r.jobOptions(s.defPrec, s.defTol)
	} else if job, err = r.toJob(s.defPrec, s.defTol); err == nil {
		st = &structure{query: job.Query, queries: job.Queries, inst: job.Instance, verdict: predicted(job)}
		s.structs.add(fp, st)
	}
	if err != nil {
		return job, nil, err
	}
	// The instance is a CloneProbs copy: it shares the immutable graph,
	// and with it the graph's TightestClass memo, but owns its
	// probability slice, so a probs override on one request can never
	// reach the cached instance or a concurrent request.
	job.Query, job.Queries, job.Instance = st.query, st.queries, st.inst.CloneProbs()
	return job, st.verdict, nil
}
