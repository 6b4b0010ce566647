// Package gateway implements phomgate's routing core: a consistent-hash
// front over N phomserve replicas.
//
// Jobs are placed by graphio.StructKey (via serve.RouteCache), so every
// reweight of one structure lands on the replica whose plan cache
// compiled it — sharding multiplies the caches instead of diluting
// them. The ring (internal/ring) identifies replicas by index with
// virtual nodes for balance; a configurable replication factor widens
// each key's owner set, and among the alive owners the gate picks the
// one with the fewest in-flight requests (hot-shard routing). Admission
// control prices each job with internal/costmodel and sheds with a
// typed 503 + Retry-After when a backend's outstanding-work ledger is
// full. A probe loop watches each replica's /healthz: consecutive
// failures eject it from routing (keys deterministically drain to ring
// successors), recovery rejoins it, and a changed boot_id — a restart
// the probes never saw as down — triggers a warm-start push of
// the replica's last /plans/export snapshot so it rejoins hot with
// zero recompiles.
//
// /solve and /reweight proxy bodies verbatim to the owning shard;
// /batch splits by shard, fans out, and merges — see batch.go. A
// single-job hop that dies on a connection error (no backend response
// at all) is retried once against the next live owner before the gate
// sheds it with a typed 503. Live instances (/instances...) are sticky:
// an instance's mutable state lives on exactly one replica, so every
// instance-scoped request routes by instance id to the primary alive
// owner — see instances.go. cmd/phomgate is the thin process wrapper.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"phom/internal/costmodel"
	"phom/internal/engine"
	"phom/internal/phomerr"
	"phom/internal/ring"
	"phom/internal/serve"
)

// Defaults for the zero Config fields.
const (
	DefaultMaxInflight   = 32
	DefaultProbeFailures = 3
	defaultProbeTimeout  = 2 * time.Second
)

// Config describes a gateway tier.
type Config struct {
	// Backends are the replica base URLs ("http://127.0.0.1:8081").
	// Ring placement is by slice index, not URL: a gate restarted with
	// the same backend order routes identically even if the replicas
	// re-bound to new ports.
	Backends []string
	// Replication is the owner-set width per key on the ring (clamped
	// to [1, len(Backends)]); the gate picks the least-loaded alive
	// owner per request.
	Replication int
	// VNodes is the virtual-node count per backend (0 = ring default).
	VNodes int
	// MaxInflight bounds concurrently proxied requests per backend
	// (0 = DefaultMaxInflight); excess requests queue at the gate.
	MaxInflight int
	// CostBudget is the per-backend admission ledger budget in cost
	// units (see internal/costmodel); 0 disables shedding.
	CostBudget float64
	// ProbeInterval is the period of the background health-probe loop;
	// 0 disables it (tests drive probes with ProbeNow).
	ProbeInterval time.Duration
	// ProbeFailures is how many consecutive probe failures eject a
	// backend (0 = DefaultProbeFailures).
	ProbeFailures int
	// SnapshotInterval is the period of the background plan-snapshot
	// pull loop; 0 disables it (tests drive pulls with PullSnapshots).
	SnapshotInterval time.Duration
	// SnapshotDir, when set, persists each backend's latest plan
	// snapshot as plans-<index>.bin so warm-start survives gate
	// restarts; existing files are loaded by New.
	SnapshotDir string
	// MaxBody caps ingress request bodies and pulled plan snapshots
	// (0 = serve.DefaultMaxBodyBytes).
	MaxBody int64
	// Client, when set, is used for all backend hops instead of the
	// gate's pooled keep-alive client (tests inject httptest clients).
	Client *http.Client
}

// backend is the gate's per-replica state.
type backend struct {
	url    string
	node   int
	client *http.Client
	sem    chan struct{}
	ledger *costmodel.Ledger

	inflight atomic.Int64

	mu            sync.Mutex
	alive         bool
	fails         int
	bootID        string // last probed /healthz boot_id; "" until the first probe
	lastInstances int
	snapshot      []byte
}

// Gateway routes phomserve traffic across a replica tier.
type Gateway struct {
	cfg      Config
	ring     *ring.Ring
	model    *costmodel.Model
	routes   *serve.RouteCache
	backends []*backend
	start    time.Time

	shed              atomic.Uint64
	crossShardBatches atomic.Uint64
	retries           atomic.Uint64

	httpMu       sync.Mutex
	httpByStatus map[int]uint64

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds a gateway over cfg.Backends. It does not start the
// background loops — call Start for that (or drive probes and snapshot
// pulls manually with ProbeNow/PullSnapshots).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: no backends")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(cfg.Backends) {
		cfg.Replication = len(cfg.Backends)
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.ProbeFailures <= 0 {
		cfg.ProbeFailures = DefaultProbeFailures
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = serve.DefaultMaxBodyBytes
	}
	client := cfg.Client
	if client == nil {
		// One pooled keep-alive client for the whole tier: per-host
		// idle-connection capacity matching the in-flight bound, so
		// steady-state proxying never pays connection setup.
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        len(cfg.Backends) * cfg.MaxInflight,
			MaxIdleConnsPerHost: cfg.MaxInflight,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	g := &Gateway{
		cfg:          cfg,
		ring:         ring.New(len(cfg.Backends), cfg.VNodes),
		model:        costmodel.New(),
		routes:       serve.NewRouteCache(0),
		start:        time.Now(),
		httpByStatus: make(map[int]uint64),
		stop:         make(chan struct{}),
	}
	for i, url := range cfg.Backends {
		b := &backend{
			url:    url,
			node:   i,
			client: client,
			sem:    make(chan struct{}, cfg.MaxInflight),
			ledger: costmodel.NewLedger(cfg.CostBudget),
			alive:  true,
		}
		if cfg.SnapshotDir != "" {
			if snap, err := os.ReadFile(g.snapshotPath(i)); err == nil && len(snap) > 0 {
				b.snapshot = snap
			}
		}
		g.backends = append(g.backends, b)
	}
	return g, nil
}

func (g *Gateway) snapshotPath(node int) string {
	return filepath.Join(g.cfg.SnapshotDir, "plans-"+strconv.Itoa(node)+".bin")
}

// Start launches the probe and snapshot loops whose intervals are set.
func (g *Gateway) Start() {
	if g.cfg.ProbeInterval > 0 {
		g.wg.Add(1)
		go g.loop(g.cfg.ProbeInterval, g.ProbeNow)
	}
	if g.cfg.SnapshotInterval > 0 {
		g.wg.Add(1)
		go g.loop(g.cfg.SnapshotInterval, func() { g.PullSnapshots() })
	}
}

func (g *Gateway) loop(every time.Duration, step func()) {
	defer g.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			step()
		}
	}
}

// Close stops the background loops and waits for them.
func (g *Gateway) Close() {
	g.once.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// Handler returns the gate's HTTP handler.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", g.handleProxy)
	mux.HandleFunc("/reweight", g.handleProxy)
	mux.HandleFunc("/batch", g.handleBatch)
	mux.HandleFunc("/instances", g.handleInstances)
	mux.HandleFunc("/instances/", g.handleInstanceScoped)
	mux.HandleFunc("/healthz", g.handleHealth)
	return g.instrument(mux)
}

// instrument mirrors the backend's: mint/echo the request id and count
// responses by status, so a replay driven at the gate can reconcile
// fired vs served exactly as it does against a single phomserve.
func (g *Gateway) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.RequestIDHeader, serve.EnsureRequestID(r))
		sw := &serve.StatusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		g.httpMu.Lock()
		g.httpByStatus[sw.Status()]++
		g.httpMu.Unlock()
	})
}

// isAlive is the ring's liveness predicate.
func (g *Gateway) isAlive(node int) bool {
	b := g.backends[node]
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.alive
}

// pick returns the backend that should serve key: the alive ring owner
// (replication-wide owner set) with the fewest in-flight requests, or
// nil when every candidate is down.
func (g *Gateway) pick(key string) *backend {
	owners := g.ring.Owners(key, g.cfg.Replication, g.isAlive)
	var best *backend
	for _, node := range owners {
		b := g.backends[node]
		if best == nil || b.inflight.Load() < best.inflight.Load() {
			best = b
		}
	}
	return best
}

// errUnavailable builds the typed 503 the gate sheds with.
func errUnavailable(msg string) error {
	return phomerr.Wrap(phomerr.CodeUnavailable, errors.New(msg))
}

// shedResponse writes the admission-control refusal: typed 503 with a
// Retry-After predicted by the cost model from the refusing backend's
// outstanding work.
func (g *Gateway) shedResponse(w http.ResponseWriter, b *backend) {
	g.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(g.model.RetryAfter(b.ledger.Outstanding())))
	serve.WriteTypedError(w, errUnavailable(
		fmt.Sprintf("backend %d over admission budget; retry later", b.node)))
}

// BackendHealth is one row of the gate's /healthz shard map.
type BackendHealth struct {
	URL    string `json:"url"`
	Node   int    `json:"node"`
	VNodes int    `json:"vnodes"`
	Alive  bool   `json:"alive"`
	// Ejected is the routing consequence spelled out: an ejected
	// backend owns no keys until it rejoins.
	Ejected          bool    `json:"ejected"`
	Inflight         int64   `json:"inflight"`
	OutstandingUnits float64 `json:"outstanding_units"`
	// HasSnapshot reports whether the gate holds a plan snapshot to
	// warm-start this backend with after a restart.
	HasSnapshot bool `json:"has_snapshot"`
	// Instances is the live-instance count the last successful probe
	// saw on this backend (instance state is sticky per replica).
	Instances int `json:"instances"`
}

// Health is the gate's /healthz body: tier-level counters plus the
// current shard map, so rebalances (ejections, rejoins, load skew) are
// observable without scraping every replica.
type Health struct {
	Status      string          `json:"status"`
	UptimeMS    int64           `json:"uptime_ms"`
	Replication int             `json:"replication"`
	Backends    []BackendHealth `json:"backends"`
	// Shed counts admission-control refusals (typed 503s minted by the
	// gate, not by a backend).
	Shed uint64 `json:"shed"`
	// CrossShardBatches counts /batch requests whose jobs spanned more
	// than one backend and were fanned out and merged.
	CrossShardBatches uint64 `json:"cross_shard_batches"`
	// GateRetries counts single-job hops that failed on a connection
	// error and were retried against the next live owner.
	GateRetries uint64 `json:"gate_retries"`
	// Instances is the tier-wide live-instance total as of the last
	// probe round (sum of the per-backend counts below).
	Instances int               `json:"instances"`
	HTTP      map[string]uint64 `json:"http,omitempty"`
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	h := Health{
		Status:            "ok",
		UptimeMS:          time.Since(g.start).Milliseconds(),
		Replication:       g.cfg.Replication,
		Shed:              g.shed.Load(),
		CrossShardBatches: g.crossShardBatches.Load(),
		GateRetries:       g.retries.Load(),
		HTTP:              make(map[string]uint64),
	}
	g.httpMu.Lock()
	for code, n := range g.httpByStatus {
		h.HTTP[strconv.Itoa(code)] = n
	}
	g.httpMu.Unlock()
	for _, b := range g.backends {
		b.mu.Lock()
		alive, snap, insts := b.alive, len(b.snapshot) > 0, b.lastInstances
		b.mu.Unlock()
		h.Instances += insts
		h.Backends = append(h.Backends, BackendHealth{
			URL:              b.url,
			Node:             b.node,
			VNodes:           g.ring.VNodes(),
			Alive:            alive,
			Ejected:          !alive,
			Inflight:         b.inflight.Load(),
			OutstandingUnits: b.ledger.Outstanding(),
			HasSnapshot:      snap,
			Instances:        insts,
		})
	}
	serve.WriteJSON(w, http.StatusOK, h)
}

// ProbeNow runs one synchronous health-probe round over all backends.
func (g *Gateway) ProbeNow() {
	for _, b := range g.backends {
		g.probe(b)
	}
}

// probe checks one backend's /healthz and reconciles routing state:
// consecutive failures eject, success rejoins, and a restart — seen
// either as a dead→alive transition or as a changed boot_id on a
// replica that was never probed as down — gets the stored plan
// snapshot pushed before traffic resumes, so it rejoins hot.
func (g *Gateway) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), defaultProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := b.client.Do(req)
	if err == nil {
		var hr serve.HealthResponse
		derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&hr)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz status %d (%v)", resp.StatusCode, derr)
		} else {
			b.mu.Lock()
			restarted := !b.alive || (b.bootID != "" && hr.BootID != b.bootID)
			snap := b.snapshot
			b.fails = 0
			b.bootID = hr.BootID
			b.lastInstances = hr.Stats.Instances
			b.mu.Unlock()
			if restarted && len(snap) > 0 {
				g.pushSnapshot(b, snap)
			}
			b.mu.Lock()
			b.alive = true
			b.mu.Unlock()
			return
		}
	}
	_ = err
	b.mu.Lock()
	b.fails++
	if b.fails >= g.cfg.ProbeFailures {
		b.alive = false
	}
	b.mu.Unlock()
}

// PullSnapshots pulls /plans/export from every alive backend into the
// gate's snapshot store (and SnapshotDir when configured). A failed or
// over-cap pull (larger than MaxBody, which the replica's /plans/import
// would refuse) keeps the backend's previous snapshot. It returns how
// many backends were snapshotted.
func (g *Gateway) PullSnapshots() int {
	n := 0
	for _, b := range g.backends {
		b.mu.Lock()
		alive := b.alive
		b.mu.Unlock()
		if !alive {
			continue
		}
		snap, err := g.fetchSnapshot(b)
		if err != nil || len(snap) == 0 {
			continue
		}
		b.mu.Lock()
		b.snapshot = snap
		b.mu.Unlock()
		if g.cfg.SnapshotDir != "" {
			_ = writeFileAtomic(g.snapshotPath(b.node), snap)
		}
		n++
	}
	return n
}

func (g *Gateway) fetchSnapshot(b *backend) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/plans/export", nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("plans/export status %d", resp.StatusCode)
	}
	// Read one byte past the cap: a snapshot the replica's /plans/import
	// would refuse is rejected whole, never stored truncated.
	snap, err := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxBody+1))
	if err != nil {
		return nil, err
	}
	if int64(len(snap)) > g.cfg.MaxBody {
		return nil, fmt.Errorf("plans/export exceeds the %d-byte body cap", g.cfg.MaxBody)
	}
	return snap, nil
}

// writeFileAtomic writes data to path through a temp file in the same
// directory and a rename, so a crash mid-write never leaves a truncated
// snapshot behind.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".phom-gate-plans-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func (g *Gateway) pushSnapshot(b *backend, snap []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/plans/import", bytes.NewReader(snap))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := b.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// sumStats adds src's counters into dst field-wise, by reflection so a
// new engine counter is merged without touching the gate.
func sumStats(dst *engine.Stats, src engine.Stats) {
	dv := reflect.ValueOf(dst).Elem()
	sv := reflect.ValueOf(src)
	for i := 0; i < dv.NumField(); i++ {
		switch f := dv.Field(i); f.Kind() {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + sv.Field(i).Uint())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + sv.Field(i).Int())
		}
	}
}
