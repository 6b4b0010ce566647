package gateway

// proxy.go: the single-job hop. /solve and /reweight bodies are read
// once, routed by structure key, priced for admission, and forwarded
// verbatim to the owning replica — the gate never re-encodes a
// single-job body, so responses are byte-identical to an unsharded
// deployment's.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"phom/internal/costmodel"
	"phom/internal/phomerr"
	"phom/internal/serve"
)

// readBody drains the ingress body under the gate's cap, answering the
// same 413 a backend would.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			serve.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			serve.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		}
		return nil, false
	}
	return body, true
}

// jobUnits prices one routed job: approx-mode jobs on hard cells cost
// their sample budget (the sampler replaces the exponential baseline),
// everything else the class-weighted estimate. Shared by the single-job
// and batch admission paths so a job is priced identically on both.
func jobUnits(info serve.RouteInfo) float64 {
	if info.Hard && info.Approx {
		return costmodel.EstimateApprox(info.Edges, info.ApproxSamples, info.Vectors)
	}
	return costmodel.Estimate(info.Edges, info.Hard, info.DisableFallback, info.Vectors)
}

// handleProxy serves /solve and /reweight: route, admit, forward.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	info := g.routes.Route(body)
	units := jobUnits(info)
	b := g.pick(info.Key)
	if b == nil {
		serve.WriteTypedError(w, errUnavailable("no backend alive for shard"))
		return
	}
	if !b.ledger.Admit(units) {
		g.shedResponse(w, b)
		return
	}
	defer b.ledger.Release(units)
	if err := g.forward(w, r, b, body, units); err != nil {
		// A connection error means no backend byte reached the client,
		// so the hop is safe to replay: retry once against the next
		// live owner before shedding with the typed 503. (A typed
		// backend error is a response — it is relayed, never retried.)
		if nb := g.pickOther(info.Key, b); nb != nil && nb.ledger.Admit(units) {
			g.retries.Add(1)
			defer nb.ledger.Release(units)
			if rerr := g.forward(w, r, nb, body, units); rerr == nil {
				return
			}
		}
		serve.WriteTypedError(w, errUnavailable("backend unreachable: "+err.Error()))
	}
}

// pickOther returns the first alive owner of key other than not, or
// nil when no such backend exists — the retry target after a transport
// failure on the preferred owner.
func (g *Gateway) pickOther(key string, not *backend) *backend {
	owners := g.ring.Owners(key, 1, func(node int) bool {
		return node != not.node && g.isAlive(node)
	})
	if len(owners) == 0 {
		return nil
	}
	return g.backends[owners[0]]
}

// forward sends body to b and relays the backend response to w
// verbatim (status, content type, request id, body bytes). A transport
// error before any byte reached the client is returned for the caller
// to surface as a typed 503 and counts toward the backend's probe
// failures so a crashed replica is ejected without waiting for the
// next probe tick. A request cancelled while queued for an in-flight
// slot is answered with the typed cancellation error.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, b *backend, body []byte, units float64) error {
	release, err := g.acquire(r.Context(), b)
	if err != nil {
		serve.WriteTypedError(w, phomerr.Wrap(phomerr.CodeCanceled, err))
		return nil
	}
	defer release()

	url := b.url + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	// The ingress id (minted by instrument when the client sent none)
	// rides to the backend, so one id traces the request across hops.
	req.Header.Set(serve.RequestIDHeader, r.Header.Get(serve.RequestIDHeader))

	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		g.noteTransportFailure(b)
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if v := resp.Header.Get(serve.InstanceVersionHeader); v != "" {
		w.Header().Set(serve.InstanceVersionHeader, v)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	if resp.StatusCode == http.StatusOK {
		g.model.Observe(units, time.Since(start))
	}
	return nil
}

// noteTransportFailure charges a connection-level error against the
// backend's probe-failure count: enough of them eject it from routing
// even between probe ticks.
func (g *Gateway) noteTransportFailure(b *backend) {
	b.mu.Lock()
	b.fails++
	if b.fails >= g.cfg.ProbeFailures {
		b.alive = false
	}
	b.mu.Unlock()
}
