package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestTightestClassMemo pins the memoization contract: repeated calls
// return the cached answer, mutation invalidates it, and concurrent
// callers on a shared graph agree.
func TestTightestClassMemo(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, "R")
	g.MustAddEdge(1, 2, "R")
	if c := g.TightestClass(); c != Class1WP {
		t.Fatalf("path classified as %v, want %v", c, Class1WP)
	}
	if c := g.TightestClass(); c != Class1WP {
		t.Fatalf("memoized answer %v, want %v", c, Class1WP)
	}

	// Mutation must recompute: adding a back-edge 2->1 leaves the
	// one-way path world.
	g.MustAddEdge(2, 1, "R")
	if c := g.TightestClass(); c == Class1WP {
		t.Fatal("stale memo survived AddEdge")
	}

	// AddVertex invalidates too: a new isolated vertex disconnects g.
	before := g.TightestClass()
	g.AddVertex()
	if after := g.TightestClass(); after == before && before == ClassConnected {
		t.Fatalf("stale memo survived AddVertex: %v", after)
	}

	// Clones never inherit the memo state wrongly: a clone classifies
	// like its source from scratch.
	if c := g.Clone().TightestClass(); c != g.TightestClass() {
		t.Fatal("clone classified differently from its source")
	}
}

func TestTightestClassMemoConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(20)
		g := New(n)
		for i := 0; i < n; i++ {
			from, to := Vertex(r.Intn(n)), Vertex(r.Intn(n))
			_ = g.AddEdge(from, to, "R") // duplicates rejected, fine
		}
		want := g.Clone().TightestClass()
		var wg sync.WaitGroup
		got := make([]Class, 8)
		for k := range got {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				got[k] = g.TightestClass()
			}(k)
		}
		wg.Wait()
		for k, c := range got {
			if c != want {
				t.Fatalf("trial %d goroutine %d: %v, want %v", trial, k, c, want)
			}
		}
	}
}

// TestPartitionMemo pins the Partition memo: repeated calls share one
// Partition, and AddEdge and AddVertex reset it.
func TestPartitionMemo(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, "R")
	g.MustAddEdge(3, 2, "R")
	p := g.Partition()
	if len(p.Comps) != 2 || g.Partition() != p {
		t.Fatalf("Partition = %v, or not memoized", p.Comps)
	}
	g.MustAddEdge(1, 2, "S")
	if q := g.Partition(); q == p || len(q.Comps) != 1 || len(q.Edges[0]) != 3 {
		t.Fatalf("stale partition survived AddEdge: %v", q.Comps)
	}
	p = g.Partition()
	g.AddVertex()
	if q := g.Partition(); q == p || len(q.Comps) != 2 || q.Of[4] != 1 || len(q.Edges[1]) != 0 {
		t.Fatalf("stale partition survived AddVertex: %v", q.Comps)
	}
	if c := g.Clone(); c.Partition() == g.Partition() {
		t.Fatal("a clone shares its source's partition")
	}
}

// TestPartitionAndIndexConcurrent has goroutines share one hub graph
// (both hubs past scanLimit, so hub-to-hub lookups read the lazily
// built pair index) and checks that concurrent Partition and EdgeIndex
// calls agree with a fresh copy's answers; run it under -race.
func TestPartitionAndIndexConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 24 + r.Intn(16)
		g := New(n)
		for k := 0; k < 4*n; k++ {
			from, to := Vertex(r.Intn(n)), Vertex(r.Intn(n))
			if k%2 == 0 {
				from = Vertex(k % 3)
			} else {
				to = Vertex(k % 3)
			}
			_ = g.AddEdge(from, to, "R") // duplicates rejected, fine
		}
		ref := g.Clone()
		want := ref.Partition()
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for k := 0; k < 8; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				if p := g.Partition(); !slices.EqualFunc(p.Comps, want.Comps, slices.Equal[[]Vertex]) || !slices.Equal(p.Of, want.Of) {
					errs <- "partition differs"
					return
				}
				for u := range n {
					for v := range n {
						i, ok := g.EdgeIndex(Vertex(u), Vertex(v))
						j, wok := ref.EdgeIndex(Vertex(u), Vertex(v))
						if ok != wok || i != j {
							errs <- "EdgeIndex differs"
							return
						}
					}
				}
			}(k)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("trial %d: %s", trial, e)
		}
		if g.index.Load() == nil {
			t.Fatalf("trial %d: no lookup built the pair index", trial)
		}
	}
}
