package gateway

// batch.go: /batch across shards. The job list is split by ring owner,
// each sub-batch fans out to its backend concurrently, and the results
// come back together in one response. Job bodies travel as raw bytes
// and non-streamed results are scattered back as raw bytes, so every
// per-job answer is byte-identical to what a single backend would have
// produced. Streamed sub-batches (?stream=1) are NDJSON-merged in
// completion order through the shared serve.StreamLine type — same
// field order, remapped to the caller's job indices — with one
// aggregated trailer. Jobs whose backend dies mid-stream get
// synthesized typed-unavailable lines, so the one-line-per-job + one
// trailer invariant holds even under partial failure.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"phom/internal/engine"
	"phom/internal/phomerr"
	"phom/internal/serve"
)

// shardGroup is one backend's slice of a batch.
type shardGroup struct {
	b     *backend
	orig  []int             // original job indices, in sub-batch order
	raws  []json.RawMessage // the jobs' raw bytes, untouched
	units float64
	shed  bool
}

func unavailableResult(msg string) serve.SolveResponse {
	return serve.SolveResponse{Code: phomerr.CodeUnavailable.String(), Error: msg}
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	jobs, infos, err := g.routes.Batch(body)
	if err != nil || len(jobs) == 0 || len(jobs) > serve.MaxBatchJobs {
		// Malformed envelope, empty list, oversized batch: don't shard —
		// forward the body verbatim to one deterministic backend so the
		// client gets the authoritative error, byte-identical to an
		// unsharded deployment's.
		b := g.pick(g.routes.Route(body).Key)
		if b == nil {
			serve.WriteTypedError(w, errUnavailable("no backend alive for shard"))
			return
		}
		if ferr := g.forward(w, r, b, body, 0); ferr != nil {
			serve.WriteTypedError(w, errUnavailable("backend unreachable: "+ferr.Error()))
		}
		return
	}

	// Split by owning backend. Jobs with no alive owner are not lost:
	// they get typed-unavailable results merged in at the end.
	groups := make(map[int]*shardGroup)
	var unrouted []int
	for i, info := range infos {
		b := g.pick(info.Key)
		if b == nil {
			unrouted = append(unrouted, i)
			continue
		}
		grp := groups[b.node]
		if grp == nil {
			grp = &shardGroup{b: b}
			groups[b.node] = grp
		}
		grp.orig = append(grp.orig, i)
		grp.raws = append(grp.raws, jobs[i])
		grp.units += jobUnits(info)
	}
	if len(groups) > 1 {
		g.crossShardBatches.Add(1)
	}
	// Admission is per sub-batch: a refused group sheds its jobs with
	// per-job unavailable results (batch semantics — the batch itself
	// still answers 200, like a backend answering per-job errors).
	for _, grp := range groups {
		if !grp.b.ledger.Admit(grp.units) {
			grp.shed = true
			g.shed.Add(1)
		}
	}
	defer func() {
		for _, grp := range groups {
			if !grp.shed {
				grp.b.ledger.Release(grp.units)
			}
		}
	}()

	if v := r.URL.Query().Get("stream"); v == "1" || v == "true" {
		g.streamMerge(w, r, jobs, groups, unrouted)
		return
	}
	g.collectMerge(w, r, jobs, groups, unrouted)
}

// subBatch re-wraps a group's raw jobs as a /batch body.
func subBatch(raws []json.RawMessage) []byte {
	body, _ := json.Marshal(struct {
		Jobs []json.RawMessage `json:"jobs"`
	}{raws})
	return body
}

// acquire reserves an in-flight slot on b, honoring ctx while queued.
// The returned release is idempotent.
func (g *Gateway) acquire(ctx context.Context, b *backend) (func(), error) {
	select {
	case b.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	b.inflight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			<-b.sem
			b.inflight.Add(-1)
		})
	}, nil
}

// doGroup posts one sub-batch to its backend. The caller owns the
// response body and must call release after draining it.
func (g *Gateway) doGroup(r *http.Request, grp *shardGroup, query string) (*http.Response, func(), error) {
	release, err := g.acquire(r.Context(), grp.b)
	if err != nil {
		return nil, nil, err
	}
	url := grp.b.url + "/batch"
	if query != "" {
		url += "?" + query
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, url, bytes.NewReader(subBatch(grp.raws)))
	if err != nil {
		release()
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.RequestIDHeader, r.Header.Get(serve.RequestIDHeader))
	resp, err := grp.b.client.Do(req)
	if err != nil {
		g.noteTransportFailure(grp.b)
		release()
		return nil, nil, err
	}
	return resp, release, nil
}

// rawBatchResponse mirrors serve.BatchResponse with the per-job results
// kept as raw bytes, so the merge never re-encodes a backend's answer.
type rawBatchResponse struct {
	Results   []json.RawMessage `json:"results"`
	Stats     engine.Stats      `json:"stats"`
	ElapsedUS int64             `json:"elapsed_us"`
}

// collectMerge fans the groups out and answers one buffered batch
// response in original job order.
func (g *Gateway) collectMerge(w http.ResponseWriter, r *http.Request, jobs []json.RawMessage, groups map[int]*shardGroup, unrouted []int) {
	start := time.Now()
	results := make([]json.RawMessage, len(jobs))
	var mu sync.Mutex
	var stats engine.Stats
	fill := func(grp *shardGroup, msg string) {
		raw, _ := json.Marshal(unavailableResult(msg))
		for _, o := range grp.orig {
			results[o] = raw
		}
	}
	var wg sync.WaitGroup
	for _, grp := range groups {
		if grp.shed {
			fill(grp, fmt.Sprintf("backend %d over admission budget; retry later", grp.b.node))
			continue
		}
		wg.Add(1)
		go func(grp *shardGroup) {
			defer wg.Done()
			resp, release, err := g.doGroup(r, grp, "")
			if err != nil {
				mu.Lock()
				fill(grp, "backend unreachable: "+err.Error())
				mu.Unlock()
				return
			}
			defer release()
			defer resp.Body.Close()
			var rb rawBatchResponse
			derr := json.NewDecoder(resp.Body).Decode(&rb)
			if resp.StatusCode != http.StatusOK || derr != nil || len(rb.Results) != len(grp.orig) {
				mu.Lock()
				fill(grp, fmt.Sprintf("backend %d batch failed (status %d)", grp.b.node, resp.StatusCode))
				mu.Unlock()
				return
			}
			mu.Lock()
			for j, o := range grp.orig {
				results[o] = rb.Results[j]
			}
			sumStats(&stats, rb.Stats)
			mu.Unlock()
			g.model.Observe(grp.units, time.Since(start))
		}(grp)
	}
	wg.Wait()
	if len(unrouted) > 0 {
		raw, _ := json.Marshal(unavailableResult("no backend alive for shard"))
		for _, o := range unrouted {
			results[o] = raw
		}
	}
	serve.WriteJSON(w, http.StatusOK, rawBatchResponse{
		Results:   results,
		Stats:     stats,
		ElapsedUS: time.Since(start).Microseconds(),
	})
}

// streamMerge fans the groups out with ?stream=1 and interleaves their
// NDJSON lines into one completion-order client stream: each backend
// line is decoded into serve.StreamLine, remapped to the caller's job
// index, stamped with the ingress request id, and re-encoded — the
// same struct the backend marshaled, so the merged lines stay
// byte-compatible. Backend trailers are absorbed into one aggregated
// gate trailer.
func (g *Gateway) streamMerge(w http.ResponseWriter, r *http.Request, jobs []json.RawMessage, groups map[int]*shardGroup, unrouted []int) {
	start := time.Now()
	reqID := r.Header.Get(serve.RequestIDHeader)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var wmu sync.Mutex
	writeLine := func(v any) {
		wmu.Lock()
		_ = enc.Encode(v)
		if canFlush {
			flusher.Flush()
		}
		wmu.Unlock()
	}
	synth := func(orig int, msg string) {
		writeLine(serve.StreamLine{Index: orig, SolveResponse: unavailableResult(msg), RequestID: reqID})
	}
	var statsMu sync.Mutex
	var stats engine.Stats
	var wg sync.WaitGroup
	for _, grp := range groups {
		if grp.shed {
			msg := fmt.Sprintf("backend %d over admission budget; retry later", grp.b.node)
			for _, o := range grp.orig {
				synth(o, msg)
			}
			continue
		}
		wg.Add(1)
		go func(grp *shardGroup) {
			defer wg.Done()
			delivered := make([]bool, len(grp.orig))
			defer func() {
				// One line per job, no matter how the backend stream
				// ended: jobs the stream never answered get typed
				// unavailable lines.
				for j, d := range delivered {
					if !d {
						synth(grp.orig[j], fmt.Sprintf("backend %d stream ended early", grp.b.node))
					}
				}
			}()
			resp, release, err := g.doGroup(r, grp, "stream=1")
			if err != nil {
				return
			}
			defer release()
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 64<<10), int(g.cfg.MaxBody))
			for sc.Scan() {
				line := sc.Bytes()
				var probe struct {
					Done bool `json:"done"`
				}
				if json.Unmarshal(line, &probe) != nil {
					continue
				}
				if probe.Done {
					var tr serve.StreamTrailer
					if json.Unmarshal(line, &tr) == nil {
						statsMu.Lock()
						sumStats(&stats, tr.Stats)
						statsMu.Unlock()
					}
					continue
				}
				var sl serve.StreamLine
				if json.Unmarshal(line, &sl) != nil || sl.Index < 0 || sl.Index >= len(grp.orig) {
					continue
				}
				delivered[sl.Index] = true
				sl.Index = grp.orig[sl.Index]
				sl.RequestID = reqID
				writeLine(sl)
			}
			g.model.Observe(grp.units, time.Since(start))
		}(grp)
	}
	wg.Wait()
	for _, o := range unrouted {
		synth(o, "no backend alive for shard")
	}
	writeLine(serve.StreamTrailer{
		Done:      true,
		Jobs:      len(jobs),
		Stats:     stats,
		ElapsedUS: time.Since(start).Microseconds(),
	})
}
