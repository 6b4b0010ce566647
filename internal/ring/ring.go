// Package ring implements the consistent-hash ring that phomgate uses
// to place jobs on backend replicas.
//
// Nodes are identified by dense indices 0..n-1 rather than by address:
// the ring's geometry then depends only on (n, vnodes), so routing is
// reproducible across gate restarts and across test runs that bind
// backends to random ports. Each node projects a configurable number of
// virtual nodes onto a 64-bit hash circle; a key is owned by the first
// vnodes clockwise from its hash, and replication factor r means the
// first r distinct nodes on that walk. Removing (ejecting) a node moves
// only the keys it owned to the next node clockwise — the deterministic
// rehash the serving tier relies on for eject/rejoin.
package ring

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash circle over nodes 0..n-1.
// Liveness is deliberately not ring state: callers pass an alive
// predicate per lookup, so eject/rejoin never mutates the geometry
// (and therefore never moves keys between healthy nodes).
type Ring struct {
	points []point // sorted by hash, ties broken by node index
	vnodes int
}

type point struct {
	hash uint64
	node int
}

// New builds a ring over n nodes with the given number of virtual
// nodes per node. vnodes <= 0 defaults to DefaultVNodes; n <= 0 yields
// an empty ring whose lookups return nothing.
func New(n, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes}
	if n <= 0 {
		return r
	}
	r.points = make([]point, 0, n*vnodes)
	for node := 0; node < n; node++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hashString("node-" + strconv.Itoa(node) + "-vnode-" + strconv.Itoa(v)), node})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// DefaultVNodes spreads each node over enough points that the largest
// node's key share stays within a few percent of fair for small
// clusters (the 2–8 replica deployments phomgate targets).
const DefaultVNodes = 128

// VNodes returns the number of virtual nodes each node projects.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the first owner of key, ignoring liveness, or -1 on an
// empty ring.
func (r *Ring) Owner(key string) int {
	owners := r.Owners(key, 1, nil)
	if len(owners) == 0 {
		return -1
	}
	return owners[0]
}

// Owners walks clockwise from key's hash and returns up to n distinct
// nodes accepted by alive (nil accepts every node). The walk covers the
// whole circle, so as long as any acceptable node exists it is found:
// with every preferred owner ejected, a key deterministically drains to
// the next healthy node on the ring.
func (r *Ring) Owners(key string, n int, alive func(node int) bool) []int {
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[int]bool, n)
	owners := make([]int, 0, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		node := r.points[(start+i)%len(r.points)].node
		if seen[node] {
			continue
		}
		seen[node] = true
		if alive == nil || alive(node) {
			owners = append(owners, node)
		}
	}
	return owners
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return finalize(h.Sum64())
}

// finalize runs a 64-bit avalanche (the splitmix64 finalizer) over the
// fnv sum. fnv-1a alone clusters on the short, structured vnode labels
// ("node-3-vnode-17"), which skews the circle badly at small n; the
// finalizer restores a near-uniform spread without changing determinism.
func finalize(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
