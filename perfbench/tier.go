package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"phom/internal/engine"
	"phom/internal/gateway"
	"phom/internal/serve"
)

// tier is the system under test: a phomgate in front of two phomserve
// replicas, all in this process on ephemeral loopback listeners, built
// with the constructors cmd/phomgate and cmd/phomserve wire and their
// shipped defaults. The gate's probe and snapshot loops stay off: the
// tier is static and timers would only add noise.
type tier struct {
	gateURL  string
	replicas []string
	engines  []*engine.Engine
	servers  []*http.Server
	gate     *gateway.Gateway
	client   *http.Client
}

// tierReplicas is the measured tier's replica count.
const tierReplicas = 2

// listen serves h on an ephemeral loopback port and returns its base URL.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on close
	return srv, "http://" + ln.Addr().String(), nil
}

// startTier starts the replicas and the gate. clients bounds the
// connections the load generator may hold open at once.
func startTier(replicas, clients int) (*tier, error) {
	t := &tier{}
	for i := 0; i < replicas; i++ {
		eng := engine.New(engine.Options{})
		srv, url, err := listen(serve.New(eng).WithShard(fmt.Sprintf("r%d", i)).Handler())
		if err != nil {
			_ = eng.Close()
			t.close()
			return nil, err
		}
		t.engines = append(t.engines, eng)
		t.servers = append(t.servers, srv)
		t.replicas = append(t.replicas, url)
	}
	g, err := gateway.New(gateway.Config{Backends: t.replicas, Replication: 1})
	if err != nil {
		t.close()
		return nil, err
	}
	t.gate = g
	srv, url, err := listen(g.Handler())
	if err != nil {
		t.close()
		return nil, err
	}
	t.servers = append(t.servers, srv)
	t.gateURL = url
	t.client = newClient(clients)
	return t, nil
}

// newClient is a keep-alive client holding at most conns connections
// per host, so the closed loop never opens more than one per client.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        2 * conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// close stops listeners first (so no request reaches a closed engine),
// then the gate and the engines.
func (t *tier) close() {
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(t.servers) - 1; i >= 0; i-- {
		if err := t.servers[i].Shutdown(ctx); err != nil {
			_ = t.servers[i].Close()
		}
	}
	if t.gate != nil {
		t.gate.Close()
	}
	for _, eng := range t.engines {
		_ = eng.Close() // no snapshot path is set, so Close cannot fail
	}
}

// response is one HTTP exchange's result as the load generator saw it.
type response struct {
	status int
	header http.Header
	body   []byte
}

// post sends one request carrying the given request id.
func post(ctx context.Context, c *http.Client, url, id string, body []byte) (response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.RequestIDHeader, id)
	resp, err := c.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counters is what the tier's /healthz endpoints report: the replicas'
// engine statistics summed, plus the gate's own shed and retry counts.
type counters struct {
	engine.Stats
	Shed    uint64
	Retries uint64
}

func (t *tier) counters(ctx context.Context) (counters, error) {
	var c counters
	for _, url := range t.replicas {
		var h serve.HealthResponse
		if err := getJSON(ctx, t.client, url+"/healthz", &h); err != nil {
			return c, err
		}
		addStats(&c.Stats, h.Stats)
	}
	var gh gateway.Health
	if err := getJSON(ctx, t.client, t.gateURL+"/healthz", &gh); err != nil {
		return c, err
	}
	c.Shed, c.Retries = gh.Shed, gh.GateRetries
	return c, nil
}

// addStats adds the monotonic counters the mechanism checks read.
func addStats(dst *engine.Stats, s engine.Stats) {
	dst.Submitted += s.Submitted
	dst.CacheHits += s.CacheHits
	dst.PlanHits += s.PlanHits
	dst.PlanCompiles += s.PlanCompiles
	dst.BatchRuns += s.BatchRuns
	dst.BatchLanes += s.BatchLanes
	dst.FloatFast += s.FloatFast
	dst.FloatFallbacks += s.FloatFallbacks
	dst.ApproxRuns += s.ApproxRuns
	dst.ApproxSamples += s.ApproxSamples
	dst.DeltasApplied += s.DeltasApplied
	dst.IncrementalRecompiles += s.IncrementalRecompiles
	dst.FullRecompiles += s.FullRecompiles
}

// sub returns the counter growth from before to c.
func (c counters) sub(before counters) counters {
	d := c
	d.Submitted -= before.Submitted
	d.CacheHits -= before.CacheHits
	d.PlanHits -= before.PlanHits
	d.PlanCompiles -= before.PlanCompiles
	d.BatchRuns -= before.BatchRuns
	d.BatchLanes -= before.BatchLanes
	d.FloatFast -= before.FloatFast
	d.FloatFallbacks -= before.FloatFallbacks
	d.ApproxRuns -= before.ApproxRuns
	d.ApproxSamples -= before.ApproxSamples
	d.DeltasApplied -= before.DeltasApplied
	d.IncrementalRecompiles -= before.IncrementalRecompiles
	d.FullRecompiles -= before.FullRecompiles
	d.Shed -= before.Shed
	d.Retries -= before.Retries
	return d
}

// errStatus reports a non-200 response with the start of its body.
func errStatus(path string, r response) error {
	msg := r.body
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Errorf("%s: status %d: %s", path, r.status, bytes.TrimSpace(msg))
}
