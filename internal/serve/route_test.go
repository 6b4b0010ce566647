package serve

import (
	"encoding/json"
	"fmt"
	"testing"
)

func routeBody(t *testing.T, fields map[string]any) []byte {
	t.Helper()
	b, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// RouteJob routes one wire job with no cache: the reference that
// Route's hits and misses must match.
func RouteJob(raw []byte) RouteInfo {
	var req ReweightRequest // superset of SolveRequest; extra fields ignored on plain solves
	if err := json.Unmarshal(raw, &req); err != nil {
		return rawRoute(raw, err)
	}
	return routeParsed(&req)
}

func TestRouteJobKeysAndClasses(t *testing.T) {
	solve := routeBody(t, map[string]any{
		"query_text": tractableQueryText, "instance_text": tractableInstanceText,
	})
	info := RouteJob(solve)
	if info.ParseErr != nil {
		t.Fatalf("parse error: %v", info.ParseErr)
	}
	if info.Key == "" || info.Edges == 0 || info.Vectors != 1 {
		t.Fatalf("bad route info: %+v", info)
	}

	// Probability variants co-locate: same structure, same key.
	rw := routeBody(t, map[string]any{
		"query_text": tractableQueryText, "instance_text": tractableInstanceText,
		"probs": map[string]string{"0>1": "1/7"},
	})
	if got := RouteJob(rw); got.Key != info.Key {
		t.Fatalf("reweight of the same structure routed elsewhere: %s vs %s", got.Key, info.Key)
	}

	// Malformed bodies still get a deterministic key.
	bad := []byte(`{"query_text": 42`)
	b1, b2 := RouteJob(bad), RouteJob(bad)
	if b1.ParseErr == nil || b1.Key == "" || b1.Key != b2.Key {
		t.Fatalf("raw routing not deterministic: %+v vs %+v", b1, b2)
	}
	if b1.Key == info.Key {
		t.Fatal("raw key collided with a parsed key")
	}
}

// TestRouteCacheEquivalence pins the cache's contract: Route returns
// exactly what RouteJob returns, for hits and misses alike, while
// probability variants of one structure share a single cached entry.
func TestRouteCacheEquivalence(t *testing.T) {
	c := NewRouteCache(0)
	bodies := [][]byte{
		routeBody(t, map[string]any{"query_text": tractableQueryText, "instance_text": tractableInstanceText}),
		routeBody(t, map[string]any{
			"query_text": tractableQueryText, "instance_text": tractableInstanceText,
			"probs": map[string]string{"0>1": "1/3"},
		}),
		routeBody(t, map[string]any{
			"query_text": tractableQueryText, "instance_text": tractableInstanceText,
			"probs_batch": []map[string]string{{"0>1": "1/3"}, {"0>1": "2/3"}, {"0>1": "1/5"}},
		}),
		routeBody(t, map[string]any{
			"query_text": tractableQueryText, "instance_text": tractableInstanceText,
			"options": map[string]any{"disable_fallback": true},
		}),
		routeBody(t, map[string]any{"query_text": "vertices 1\n", "instance_text": tractableInstanceText}),
	}
	for pass := 0; pass < 2; pass++ { // second pass served from cache
		for i, b := range bodies {
			want, got := RouteJob(b), c.Route(b)
			if got.Key != want.Key || got.Edges != want.Edges || got.Hard != want.Hard ||
				got.DisableFallback != want.DisableFallback || got.Vectors != want.Vectors {
				t.Fatalf("pass %d body %d: cache diverged: %+v vs %+v", pass, i, got, want)
			}
		}
	}
	// All probability/options variants of the shared structure collapse
	// to one entry; the distinct query is the second.
	if n := c.Len(); n != 2 {
		t.Fatalf("cached %d structures, want 2", n)
	}

	// Unparseable bodies bypass the cache entirely.
	before := c.Len()
	if info := c.Route([]byte(`{"nope`)); info.ParseErr == nil {
		t.Fatal("want parse error")
	}
	if c.Len() != before {
		t.Fatal("parse failure was cached")
	}
}

func TestRouteCacheEviction(t *testing.T) {
	c := NewRouteCache(2)
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("vertices %d\n", i+1)
		c.Route(routeBody(t, map[string]any{"query_text": q, "instance_text": tractableInstanceText}))
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", n)
	}
}
