package gateway

// instances.go: sticky routing for live instances. A mutable instance
// exists on exactly one replica, so unlike the stateless hops the gate
// cannot balance instance traffic across an owner set: every request
// for an instance id must land on the same backend, and that placement
// must survive gate restarts. Both follow from hashing the id itself on
// the ring (owner-set width 1 among alive nodes). Creation without a
// client-chosen id mints one at the gate and injects it into the body
// before routing, so the create and every later delta/solve hash to the
// same backend; the listing endpoint is the one fan-out — it merges the
// per-replica id lists.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sort"
	"strings"

	"phom/internal/serve"
)

// instanceKey is the ring key for an instance id. The "inst:" prefix
// keeps instance placement from colliding with structure-key placement
// of the stateless endpoints.
func instanceKey(id string) string { return "inst:" + id }

// pickInstance returns the primary alive owner for an instance id —
// owner-set width 1, never load-balanced, so repeat requests for one
// instance always reach the replica that holds its state.
func (g *Gateway) pickInstance(id string) *backend {
	owners := g.ring.Owners(instanceKey(id), 1, g.isAlive)
	if len(owners) == 0 {
		return nil
	}
	return g.backends[owners[0]]
}

// handleInstances routes the collection endpoint: POST create goes to
// the id's sticky owner (minting an id first when the client sent
// none); GET list fans out to every alive backend and merges.
func (g *Gateway) handleInstances(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		g.listInstances(w, r)
	case http.MethodPost:
		body, ok := g.readBody(w, r)
		if !ok {
			return
		}
		var req serve.CreateInstanceRequest
		if err := json.Unmarshal(body, &req); err != nil {
			serve.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		if req.ID == "" {
			// Mint here, not at the backend: the id decides placement,
			// so it must exist before the ring lookup.
			var buf [8]byte
			if _, err := rand.Read(buf[:]); err != nil {
				serve.WriteError(w, http.StatusInternalServerError, "minting instance id: "+err.Error())
				return
			}
			req.ID = "inst-" + hex.EncodeToString(buf[:])
			reencoded, err := json.Marshal(req)
			if err != nil {
				serve.WriteError(w, http.StatusBadRequest, "re-encoding create request: "+err.Error())
				return
			}
			body = reencoded
		}
		g.forwardInstance(w, r, req.ID, body)
	default:
		serve.WriteError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// handleInstanceScoped forwards /instances/{id} and /instances/{id}/op
// to the id's sticky owner, pricing the solve-shaped hops for admission.
func (g *Gateway) handleInstanceScoped(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/instances/")
	id, _, _ := strings.Cut(rest, "/")
	if id == "" {
		serve.WriteError(w, http.StatusNotFound, "missing instance id")
		return
	}
	var body []byte
	if r.Method == http.MethodPost {
		var ok bool
		if body, ok = g.readBody(w, r); !ok {
			return
		}
	}
	g.forwardInstance(w, r, id, body)
}

// forwardInstance sends one instance-scoped hop to the id's sticky
// owner. Solve-shaped bodies are priced for admission like the
// stateless hops; deltas and reads ride free (their cost is a graph
// mutation, not a model evaluation). There is no retry-on-next-owner
// here: the next owner does not hold the instance, so a replayed hop
// could only answer 404 — a transport failure sheds immediately.
func (g *Gateway) forwardInstance(w http.ResponseWriter, r *http.Request, id string, body []byte) {
	b := g.pickInstance(id)
	if b == nil {
		serve.WriteTypedError(w, errUnavailable("no backend alive for instance "+id))
		return
	}
	var units float64
	if r.Method == http.MethodPost {
		switch {
		case strings.HasSuffix(r.URL.Path, "/solve"),
			strings.HasSuffix(r.URL.Path, "/reweight"),
			strings.HasSuffix(r.URL.Path, "/batch"):
			units = jobUnits(g.routes.Route(body))
		}
	}
	if units > 0 {
		if !b.ledger.Admit(units) {
			g.shedResponse(w, b)
			return
		}
		defer b.ledger.Release(units)
	}
	if err := g.forward(w, r, b, body, units); err != nil {
		serve.WriteTypedError(w, errUnavailable("backend unreachable: "+err.Error()))
	}
}

// listInstances merges /instances from every alive backend into one
// sorted tier-wide listing. A backend that fails to answer contributes
// nothing (its instances are unreachable right now anyway).
func (g *Gateway) listInstances(w http.ResponseWriter, r *http.Request) {
	ids := []string{}
	for _, b := range g.backends {
		b.mu.Lock()
		alive := b.alive
		b.mu.Unlock()
		if !alive {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.url+"/instances", nil)
		if err != nil {
			continue
		}
		resp, err := b.client.Do(req)
		if err != nil {
			g.noteTransportFailure(b)
			continue
		}
		var list serve.InstanceListResponse
		derr := json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		ids = append(ids, list.Instances...)
	}
	sort.Strings(ids)
	serve.WriteJSON(w, http.StatusOK, serve.InstanceListResponse{Instances: ids})
}
