// Consistent-hash ring: the shard function of the fleet. Each worker
// contributes ringReplicas virtual points derived from its URL alone, so
// the ring a key maps onto is a pure function of the fleet's membership —
// every client sharding over the same URL set routes a key to the same
// worker, which is what keeps each worker's tiered result store hot
// across runs and across clients. Adding a worker moves only the keys
// that fall into the new worker's arcs (~1/N of the space); removing one
// redistributes only its own keys. Removed workers, and workers whose
// circuit is open, are skipped by walking the ring clockwise, so a key's
// failover owner is deterministic too.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringReplicas is how many virtual points each member contributes. 64
// points per worker keeps the expected load imbalance across a small
// fleet within a few percent without making ring construction or lookup
// measurably slower.
const ringReplicas = 64

type ringPoint struct {
	hash   uint64
	member int // index into the fleet's member slice
}

type ring struct {
	points []ringPoint
}

// hashKey positions a key (or a virtual node) on the ring: FNV-1a, then
// a 64-bit finalizer. FNV-1a alone barely moves the high bits for strings
// that differ only near their end — worker URLs that differ in the port,
// keys that differ in the setup label — so points and keys bunch up, and
// a two-worker fleet could be handed a whole small batch on one worker.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// newRing builds the ring for the given member URLs. Points depend only
// on the URLs, never on slice order, so two fleets over the same worker
// set shard identically.
func newRing(urls []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(urls)*ringReplicas)}
	for i, u := range urls {
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{hashKey(fmt.Sprintf("%s#%d", u, v)), i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member // deterministic on (improbable) collisions
	})
	return r
}

// pick returns the member owning key among those alive reports usable:
// the first alive member at or clockwise of the key's position. Returns
// -1 only when no member is alive.
func (r *ring) pick(key string, alive func(member int) bool) int {
	if len(r.points) == 0 {
		return -1
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for off := 0; off < len(r.points); off++ {
		p := r.points[(start+off)%len(r.points)]
		if alive(p.member) {
			return p.member
		}
	}
	return -1
}
