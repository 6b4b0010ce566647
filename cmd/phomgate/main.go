// Command phomgate fronts a tier of phomserve replicas with
// structure-sharded routing: jobs are consistent-hashed by
// graphio.StructKey so every reweight of a structure hits the replica
// whose plan cache compiled it, and horizontal scale multiplies —
// rather than dilutes — the caches each replica builds.
//
// The gate serves the phomserve wire protocol unchanged: /solve and
// /reweight proxy verbatim to the owning shard; /batch splits the job
// list by shard, fans out, and merges — with ?stream=1 the backend
// NDJSON streams are interleaved into one completion-order client
// stream, original job indices preserved. /healthz reports the tier:
// uptime, per-status response counts, shed, retry and cross-shard-batch
// counters, per-backend and tier-wide live-instance counts, and the
// shard map (backend → vnode count, alive/ejected, in-flight load).
//
// Live instances (/instances and /instances/{id}/...) route sticky:
// an instance's state exists on exactly one replica, so the gate
// hashes the instance id itself on the ring (owner-set width 1) and
// pins every request for that id to the owning replica. A create
// without a client-chosen id mints one at the gate before the ring
// lookup, so the create and every later delta/solve hash identically;
// GET /instances is the one fan-out, merging the per-replica id
// lists. Stateless single-job hops that fail at the transport level —
// no backend byte reached the client — are replayed once against the
// next live owner before the typed 503 (gate_retries in /healthz);
// instance hops are never replayed (the next owner does not hold the
// state), and typed backend errors are relayed untouched, never
// retried.
//
// Replicas are health-probed (-probe); consecutive failures eject one
// from the ring (its keys drain deterministically to ring successors)
// and recovery rejoins it. The gate also pulls GET /plans/export
// snapshots on a timer (-snapinterval) and pushes them back via
// POST /plans/import when a replica restarts (detected by a
// dead→alive transition or a changed /healthz boot_id), so a rejoining
// replica is hot from its first request — zero recompiles. With
// -snapdir the snapshots survive gate restarts too.
//
// Admission control prices every job (instance size × dispatch-class
// weight, refined online from observed latency) against a per-backend
// budget (-costbudget); refused requests get a typed 503 with a
// Retry-After predicting the backend's drain time.
//
// Usage:
//
//	phomgate -backends http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	         [-addr :8080] [-replication 1] [-vnodes 128] [-inflight 32]
//	         [-costbudget 0] [-probe 2s] [-snapinterval 30s]
//	         [-snapdir DIR] [-maxbody 8388608]
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"phom/internal/gateway"
	"phom/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		backends    = flag.String("backends", "", "comma-separated phomserve base URLs (required)")
		replication = flag.Int("replication", 1, "ring owners per key; the least-loaded alive owner serves")
		vnodes      = flag.Int("vnodes", 0, "virtual nodes per backend (0 = default)")
		inflight    = flag.Int("inflight", gateway.DefaultMaxInflight, "max concurrent proxied requests per backend")
		costBudget  = flag.Float64("costbudget", 0, "per-backend admission budget in cost units (0 = no shedding)")
		probe       = flag.Duration("probe", 2*time.Second, "health-probe interval (0 disables probing)")
		snapEvery   = flag.Duration("snapinterval", 30*time.Second, "plan-snapshot pull interval (0 disables warm-start)")
		snapDir     = flag.String("snapdir", "", "directory persisting plan snapshots across gate restarts")
		maxBody     = flag.Int64("maxbody", serve.DefaultMaxBodyBytes, "request body cap in bytes")
	)
	flag.Parse()
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	g, err := gateway.New(gateway.Config{
		Backends:         urls,
		Replication:      *replication,
		VNodes:           *vnodes,
		MaxInflight:      *inflight,
		CostBudget:       *costBudget,
		ProbeInterval:    *probe,
		SnapshotInterval: *snapEvery,
		SnapshotDir:      *snapDir,
		MaxBody:          *maxBody,
	})
	if err != nil {
		log.Fatalf("phomgate: %v", err)
	}
	g.Start()
	defer g.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           g.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("phomgate: listening on %s, %d backends, replication %d", *addr, len(urls), *replication)

	select {
	case <-ctx.Done():
		log.Printf("phomgate: signal received, shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("phomgate: shutdown: %v", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("phomgate: %v", err)
		}
	}
}
