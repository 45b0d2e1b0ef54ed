// The consistent-hash ring: affinity keys map to nodes stably, so a
// key's per-object quarantine history, pinned worker, and cache warmth
// all live on one node — and membership changes move only the keys
// that must move.
//
// Each node owns Vnodes points on a 64-bit circle (fnv64 of
// "addr#i"); a key hashes onto the circle (splitmix64, matching the
// pool's own key mixer) and walks clockwise to the first point. The
// walk order also defines the failover order: Successors(key) lists
// every node in ring order from the key's home, so a failed forward
// retries on the node that would own the key if its home left — the
// same node that will own it after the health machine evicts the
// corpse.
package cluster

import (
	"fmt"
	"sort"
)

// ringPoint is one vnode position on the circle.
type ringPoint struct {
	hash uint64
	node *Node
}

// ring is an immutable consistent-hash ring over a node set. Membership
// changes build a new ring; readers hold whichever they loaded. succ
// holds every point's successor order, stride entries per point (one
// per distinct node on the ring), so a keyed send looks its order up
// instead of building it: Vnodes·N² pointers, built once per membership.
type ring struct {
	points []ringPoint
	nodes  []*Node
	succ   []*Node
	stride int
}

// fnv64 is FNV-1a, used for vnode placement: stable across processes so
// every router instance agrees where a node's points sit.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 finalizes a key onto the circle. Affinity keys are often
// small sequential integers; without mixing they would all land in one
// arc.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newRing builds a ring with vnodes points per node.
func newRing(nodes []*Node, vnodes int) *ring {
	r := &ring{nodes: nodes, points: make([]ringPoint, 0, len(nodes)*vnodes)}
	for _, n := range nodes {
		for i := 0; i < vnodes; i++ {
			// fnv alone clusters similar short addresses; the splitmix
			// finalizer scatters the points evenly around the circle.
			r.points = append(r.points, ringPoint{
				hash: splitmix64(fnv64(fmt.Sprintf("%s#%d", n.BinAddr, i))),
				node: n,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break by address so equal hashes order deterministically.
		return r.points[i].node.BinAddr < r.points[j].node.BinAddr
	})
	seen := make(map[*Node]bool, len(nodes))
	for _, p := range r.points {
		seen[p.node] = true
	}
	r.stride = len(seen)
	// Walk clockwise from each point, keeping each node the first time
	// it is met, until every node on the ring has been.
	r.succ = make([]*Node, 0, len(r.points)*r.stride)
	for i := range r.points {
		clear(seen)
		for k := 0; len(seen) < r.stride; k++ {
			nd := r.points[(i+k)%len(r.points)].node
			if !seen[nd] {
				seen[nd] = true
				r.succ = append(r.succ, nd)
			}
		}
	}
	return r
}

// home answers the index of the key's home point: the first point
// clockwise from the key's place on the circle.
func (r *ring) home(key uint64) int {
	h := splitmix64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return i % len(r.points)
}

// successors answers the distinct nodes in ring order starting at the
// key's home node: the stable routing *and* failover order for the key.
// The slice is the ring's own and must not be modified.
func (r *ring) successors(key uint64) []*Node {
	if len(r.points) == 0 {
		return nil
	}
	i := r.home(key) * r.stride
	return r.succ[i : i+r.stride : i+r.stride]
}

// owner answers just the key's home node.
func (r *ring) owner(key uint64) *Node {
	if len(r.points) == 0 {
		return nil
	}
	return r.points[r.home(key)].node
}
