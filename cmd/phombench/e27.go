package main

// e27.go — E27: live-instance delta streams — incremental plan
// maintenance vs from-scratch recompilation.
//
// The experiment drives the PR 10 instance subsystem end to end: one
// named instance (a ⊔2WP union of paths, the Lemma 3.7 composite's
// home turf) absorbs a deterministic stream of delta batches —
// probability drift (structure-preserving: plans survive verbatim and
// the next solve is a pure reweight) interleaved with sparse edge
// removals and re-inserts (structural: the engine migrates the tracked
// plan through core.PatchCompile, recompiling only the components
// incident to the delta and replaying the untouched parts out of the
// old program). The from-scratch baseline replays the identical
// stream through a bare instance and pays a full core.Solve — dispatch,
// compile, evaluate — at every version.
//
// Hard assertions: every incremental answer is RatString-byte-identical
// to the from-scratch answer at the same version (the PatchCompile
// contract, here checked through the whole engine path); structural
// batches are served by the incremental splice with full recompiles
// below a pinned 1-in-8 fraction (this workload never legitimately
// needs one — the class census and the route are delta-invariant); and
// the incremental path, each side timed as the best of three
// alternating passes over the stream, beats the from-scratch path by
// at least the 3× floor. The recorded counters (steps, structural
// batches, incremental vs full recompiles, deltas applied) are pure
// functions of the seed, so the BENCH_E27.json record self-diffs clean.

import (
	"fmt"
	"math/big"
	"time"

	"phom/internal/core"
	"phom/internal/engine"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/instance"
)

// e27Stream pre-generates the delta stream by replaying it against a
// scratch instance (batch validity depends on the evolving edge set).
// Every 4th batch is structural — an edge removal, whose re-insert
// (same endpoints, label and probability) is the next structural batch,
// so the instance never drifts out of ⊔2WP; the rest are probability
// drift. Returns the batches and the number of structural ones.
func (e *E) e27Stream(h *graph.ProbGraph, steps int) ([][]instance.Delta, int) {
	scratch, err := instance.New("scratch", h)
	e.check(err)
	stream := make([][]instance.Delta, 0, steps)
	structural := 0
	var pending *instance.Delta
	for len(stream) < steps {
		snap := scratch.Snapshot()
		var batch []instance.Delta
		if len(stream)%4 == 3 {
			structural++
			if pending != nil {
				batch = []instance.Delta{*pending}
				pending = nil
			} else {
				i := e.r.Intn(snap.H.G.NumEdges())
				ed := snap.H.G.Edge(i)
				batch = []instance.Delta{{Op: instance.OpRemoveEdge, From: ed.From, To: ed.To}}
				pending = &instance.Delta{
					Op: instance.OpAddEdge, From: ed.From, To: ed.To,
					Label: ed.Label, Prob: new(big.Rat).Set(snap.H.Prob(i)),
				}
			}
		} else {
			for j := 1 + e.r.Intn(3); j > 0; j-- {
				i := e.r.Intn(snap.H.G.NumEdges())
				ed := snap.H.G.Edge(i)
				batch = append(batch, instance.Delta{
					Op: instance.OpSetProb, From: ed.From, To: ed.To,
					Prob: big.NewRat(int64(e.r.Intn(17)), 16),
				})
			}
		}
		if _, err := scratch.Apply(-1, batch); err != nil {
			e.fatalf("pre-generating delta stream: %v", err)
		}
		stream = append(stream, batch)
	}
	return stream, structural
}

func runDeltaStream(e *E) {
	r := e.r
	rs := []graph.Label{"R", "S"}
	n := *maxN / 4
	if n < 256 {
		n = 256
	}
	// A cyclic connected query (never 1WP) on a ⊔2WP instance: the one
	// applicable route is Prop 4.11, and the compiled plan is the
	// Lemma 3.7 composite PatchCompile splices into.
	q := gen.RandConnected(r, 5, 1, rs)
	g := gen.RandInClass(r, graph.ClassU2WP, n, rs)
	if len(g.ConnectedComponents()) < 2 {
		e.fatalf("⊔2WP instance came out connected — no composite to maintain")
	}
	h := gen.RandProb(r, g, 0.5)
	steps := 2 * (*reweights)
	stream, structural := e.e27Stream(h, steps)
	opts := &core.Options{DisableFallback: true}

	var deltas int64
	for _, batch := range stream {
		deltas += int64(len(batch))
	}
	mBuild := metric(fmt.Sprintf("⊔2WP n=%d stream", n),
		fmt.Sprintf("steps=%d", steps), 0)
	mBuild.Counters = map[string]int64{
		"components": int64(len(g.ConnectedComponents())),
		"edges":      int64(g.NumEdges()),
		"structural": int64(structural),
		"deltas":     deltas,
	}
	e.emit(mBuild)

	// Each side replays the stream from the same start in each of three
	// passes and is timed as its best pass: one pass is a few
	// milliseconds, so a single GC cycle or a neighbour's load would
	// otherwise move the ratio across the floor. The sides alternate, so
	// a slow phase of the machine lands on both. Answers and counters
	// are checked on every pass.
	const passes = 3

	// From-scratch baseline: replay the stream on a bare instance and
	// solve every version cold — full dispatch + compile + evaluate.
	var full []string
	basePass := func(pass int) time.Duration {
		base, err := instance.New("baseline", h)
		e.check(err)
		answers := make([]string, steps)
		start := time.Now()
		for i, batch := range stream {
			if _, err := base.Apply(-1, batch); err != nil {
				e.fatalf("baseline apply %d: %v", i, err)
			}
			res, err := core.Solve(q, base.Snapshot().H, opts)
			e.check(err)
			answers[i] = res.Prob.RatString()
		}
		d := time.Since(start)
		for i := range full {
			if answers[i] != full[i] {
				e.fatalf("baseline pass %d step %d: answer %s differs from pass 0's %s", pass, i, answers[i], full[i])
			}
		}
		full = answers
		return d
	}

	// Incremental: the same stream through a fresh engine's instance
	// registry. Drift batches leave the cached plan valid (zero
	// recompilation — the next solve reweights); structural batches
	// migrate it through PatchCompile inside ApplyDelta.
	incrPass := func(pass int) (time.Duration, engine.Stats) {
		eng := engine.New(engine.Options{Workers: 1})
		defer eng.Close()
		_, err := eng.CreateInstance("e27", h)
		e.check(err)
		solve := func() string {
			job, _, err := eng.InstanceJob("e27", engine.Job{Query: q, Opts: opts})
			e.check(err)
			res := eng.Do(job)
			e.check(res.Err)
			return res.Result.Prob.RatString()
		}
		solve() // warm: the one shared cold compile stays out of the loop
		incr := make([]string, steps)
		start := time.Now()
		for i, batch := range stream {
			if _, err := eng.ApplyDelta("e27", -1, batch); err != nil {
				e.fatalf("incremental apply %d: %v", i, err)
			}
			incr[i] = solve()
		}
		d := time.Since(start)
		st := eng.Stats()

		for i := range stream {
			if incr[i] != full[i] {
				e.fatalf("pass %d step %d: incremental answer %s differs from from-scratch %s",
					pass, i, incr[i], full[i])
			}
		}
		if in, ok := eng.Instance("e27"); !ok || in.Version() != uint64(1+steps) {
			e.fatalf("instance ended at the wrong version (want %d)", 1+steps)
		}
		if st.IncrementalRecompiles == 0 {
			e.fatalf("no structural batch took the incremental splice")
		}
		if 8*st.FullRecompiles > uint64(structural) {
			e.fatalf("full recompiles %d above the pinned 1/8 of %d structural batches",
				st.FullRecompiles, structural)
		}
		return d, st
	}

	var dFull, dIncr time.Duration
	var st engine.Stats
	for pass := 0; pass < passes; pass++ {
		if d := basePass(pass); pass == 0 || d < dFull {
			dFull = d
		}
		d, s := incrPass(pass)
		if pass > 0 && (s.IncrementalRecompiles != st.IncrementalRecompiles ||
			s.FullRecompiles != st.FullRecompiles || s.DeltasApplied != st.DeltasApplied) {
			e.fatalf("pass %d: recompile counters differ from the previous pass's", pass)
		}
		if pass == 0 || d < dIncr {
			dIncr = d
		}
		st = s
	}
	mFull := metric(fmt.Sprintf("from-scratch x%d", steps), "baseline", dFull)
	mFull.OpsPerSec = float64(steps) / dFull.Seconds()
	e.emit(mFull)

	mIncr := metric(fmt.Sprintf("incremental x%d", steps), "match=true", dIncr)
	mIncr.Counters = map[string]int64{
		"incremental_recompiles": int64(st.IncrementalRecompiles),
		"full_recompiles":        int64(st.FullRecompiles),
		"deltas_applied":         int64(st.DeltasApplied),
	}
	mIncr.OpsPerSec = float64(steps) / dIncr.Seconds()
	mIncr.Speedup = float64(dFull) / float64(dIncr)
	e.emit(mIncr)
	if mIncr.Speedup < 3 {
		e.fatalf("incremental path only %.2fx over from-scratch, below the 3x floor", mIncr.Speedup)
	}
}
