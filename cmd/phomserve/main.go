// Command phomserve serves PHom evaluation over HTTP JSON, backed by the
// concurrent engine of internal/engine (bounded execution slots,
// in-flight deduplication, LRU memoization). Probabilities are computed
// exactly by default and returned both as rational strings and float64
// approximations, together with the algorithm used and the predicted
// combined complexity of the input pair (the Tables 1–3 verdict). Jobs
// may instead request the dual-precision fast path ("options":
// {"precision": "fast" | "auto"}) and get a float64 answer with a
// certified error bound (prob_lo/prob_hi in the response); auto falls
// back to exact arithmetic when the bound exceeds float_tolerance. The
// /healthz counters float_fast and float_fallbacks report how often
// each substrate answered.
//
// Endpoints:
//
//	POST /solve    one job: {"query": {...} | "query_text": "...",
//	               "instance": {...} | "instance_text": "...",
//	               "options": {...}}; unions use "queries"/"queries_text".
//	POST /reweight a solve job plus {"probs": {"from>to": "1/2", ...}}:
//	               solves with the given probabilities substituted. Jobs
//	               whose structure was seen before evaluate a cached
//	               compiled plan instead of re-solving ("plan_hit": true
//	               in the response) — the fast path for what-if analysis
//	               and probability sweeps. The multi-vector form
//	               {"probs_batch": [{...}, {...}]} evaluates many
//	               probability vectors over the one structure in a
//	               single vectorized batch and answers with per-vector
//	               results ({"results": [...], "stats": {...}}).
//	POST /batch    {"jobs": [ ... ]}; results in job order, per-job errors.
//	               With ?stream=1 the results come back as NDJSON in
//	               completion order instead — one line per job tagged
//	               with its index, then a {"done":true,...} trailer —
//	               so huge batches start answering immediately and the
//	               server never buffers the full result slice.
//	POST /instances  create a named live instance ({"id": "...",
//	               "instance": {...} | "instance_text": "..."}; an empty
//	               id mints one). GET lists the live instance ids.
//	GET  /instances/{id}  version, size, lifetime delta count and the
//	               per-component class census; DELETE removes the
//	               instance and evicts its cached plans.
//	POST /instances/{id}/delta  apply a batch of typed deltas
//	               ({"deltas": [{"op": "set_prob" | "add_edge" |
//	               "remove_edge", "edge": "from>to", "prob": "1/4",
//	               "label": "R"}]}) atomically as one new version.
//	               Optional "if_version" is an optimistic concurrency
//	               check: a mismatch answers the typed conflict (409)
//	               and changes nothing. Probability-only batches keep
//	               every compiled plan valid (the next solve is a pure
//	               reweight); structural batches migrate plans
//	               incrementally (engine counters
//	               incremental_recompiles / full_recompiles).
//	POST /instances/{id}/solve|reweight|batch  the stateless job
//	               shapes evaluated against the instance's current
//	               snapshot; the answering version rides the
//	               X-Phom-Instance-Version response header. In-flight
//	               solves finish against their pre-delta snapshot.
//	GET  /plans/export  binary snapshot of the compiled-plan cache
//	               (the canonical plan encoding of internal/graphio).
//	POST /plans/import  restore a snapshot into the plan cache; jobs
//	               whose structure is covered then serve reweights
//	               without compiling at all (warm start).
//	GET  /healthz  liveness plus engine statistics (including the
//	               plan-cache counters plan_hits/plan_compiles and the
//	               snapshot counters plans_loaded/plans_saved).
//
// Graphs are accepted as graphio JSON objects or as the line-oriented
// text format that cmd/phom reads. Request bodies are bounded by
// -maxbody (413 beyond it). With -plansnapshot FILE the engine
// restores its plan cache from FILE at boot (if present) and writes it
// back on clean shutdown, so recompilations do not survive restarts.
//
// Failures carry the typed error taxonomy of the phom package, both as
// a machine-readable "code" field and as the HTTP status:
// bad-input → 400, conflict → 409, deadline → 408 (including a job's own
// "options": {"timeout_ms": N} budget), limit/intractable → 422,
// canceled → 499, unavailable → 503. Every job runs under its request
// context plus the server's shutdown context: a dropped connection or
// SIGTERM cancels in-flight solves at their next cooperative
// checkpoint instead of burning CPU on abandoned work.
//
// See DESIGN.md (Serving layer, Request API and cancellation) and
// README.md for examples.
//
// The HTTP layer itself lives in internal/serve (shared with the
// phomgate router and the benchmark harness); this command is the thin
// process wrapper: flags, engine lifecycle, and graceful shutdown.
// Behind cmd/phomgate, give each replica a -shard name so its /healthz
// identifies which slice of the ring it is serving.
//
// Usage:
//
//	phomserve [-addr :8080] [-workers 0] [-cache 4096] [-plancache 1024]
//	          [-maxbody 8388608] [-plansnapshot plans.bin]
//	          [-precision exact] [-floattol 0] [-shard name]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"phom/internal/core"
	"phom/internal/engine"
	"phom/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "engine executions run at once (0 = GOMAXPROCS)")
		cache     = flag.Int("cache", 0, fmt.Sprintf("result cache capacity (0 = %d, negative disables)", engine.DefaultCacheSize))
		planCache = flag.Int("plancache", 0, fmt.Sprintf("compiled-plan cache capacity (0 = %d, negative disables)", engine.DefaultPlanCacheSize))
		maxBody   = flag.Int64("maxbody", serve.DefaultMaxBodyBytes, "request body cap in bytes (oversized requests get 413)")
		planSnap  = flag.String("plansnapshot", "", "plan-cache snapshot file: restored at boot if present, written on shutdown")
		precision = flag.String("precision", "exact", "default precision for jobs that do not choose one: exact, fast or auto")
		floatTol  = flag.Float64("floattol", 0, fmt.Sprintf("default auto-mode tolerance: widest certified error served without exact fallback (0 = %g)", core.DefaultFloatTolerance))
		shard     = flag.String("shard", "", "shard name reported by /healthz (set by the gate's recipe, purely observational)")
	)
	flag.Parse()
	defPrec, err := core.ParsePrecision(*precision)
	if err != nil {
		log.Fatalf("phomserve: -precision: %v", err)
	}
	if err := (&core.Options{FloatTolerance: *floatTol}).Validate(); err != nil {
		log.Fatalf("phomserve: -floattol: %v", err)
	}

	// The signal context is the engine's base context: SIGTERM/SIGINT
	// does not only stop accepting HTTP — it cancels every in-flight
	// solve, so Shutdown's connection drain is not stuck behind
	// exponential jobs nobody will receive.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng := engine.New(engine.Options{
		Workers:          *workers,
		CacheSize:        *cache,
		PlanCacheSize:    *planCache,
		PlanSnapshotPath: *planSnap,
		BaseContext:      ctx,
	})
	defer func() {
		if err := eng.Close(); err != nil {
			log.Printf("phomserve: %v", err)
		}
	}()
	if *planSnap != "" {
		st := eng.Stats()
		log.Printf("phomserve: plan snapshot %s: %d plans restored (%d errors)",
			*planSnap, st.PlansLoaded, st.SnapshotErrors)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.New(eng).WithMaxBody(*maxBody).WithPrecision(defPrec, *floatTol).WithShard(*shard).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("phomserve: listening on %s (%d workers)", *addr, eng.Workers())

	select {
	case <-ctx.Done():
		// In-flight engine jobs are already being cancelled through the
		// base context; Shutdown then drains the (now fast-failing)
		// connections.
		log.Printf("phomserve: signal received, shutting down (cancelling in-flight jobs)")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("phomserve: shutdown: %v", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("phomserve: %v", err)
		}
	}
}
