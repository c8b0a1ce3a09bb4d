// Package peer is the cooperative proxy mesh layer: a consistent-hash
// ring that partitions the URL key space across a fleet of proxies, and a
// tracker of which peers recently requested into this proxy's partition
// (the targets of piggyback re-propagation). The ring gives every key a
// single owner, so a fleet of N proxies fetches each resource from the
// origin once instead of N times — the paper's hierarchical-caching
// direction (§1) promoted to a real wire-level tier, in the spirit of the
// cooperative proxy-server and chained-transfer architectures it cites.
//
// The package holds only the partitioning and bookkeeping; the wire work
// (forwarding a miss to the owner, propagating piggyback volume state)
// lives in internal/proxy, which already owns the pooled httpwire client
// and circuit breaker the mesh reuses per peer.
package peer

import (
	"sort"
	"strconv"
)

// vnodes is the virtual-node count per peer. More virtual nodes smooth the
// partition (relative imbalance decays roughly with 1/√vnodes).
const vnodes = 256 // keeps a small fleet within ±20% of even

// fnv1a is the 32-bit FNV-1a hash — the same function internal/cache uses
// to pick shards, so one pass over the key costs no allocation.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// mix32 finalizes a hash with the murmur3 avalanche step. Raw FNV-1a over
// near-identical strings (peer addresses differing in one digit, vnode
// labels "#0".."#255") lands clustered on the circle, which skews arc
// lengths badly; the finalizer spreads those correlated values uniformly.
func mix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// ringHash positions a string on the hash circle.
func ringHash(s string) uint32 { return mix32(fnv1a(s)) }

// point is one virtual node: a position on the hash circle and the peer
// that owns the arc ending there.
type point struct {
	hash  uint32
	owner int // index into peers
}

// Ring is an immutable consistent-hash ring over a set of peer IDs
// (advertised host:port addresses). Each peer contributes vnodes virtual
// points; a key belongs to the first point clockwise from its hash.
// Immutability keeps lookups lock-free: membership changes build a new
// Ring, and consistent hashing guarantees only the departed/arrived peer's
// share of keys changes owner.
type Ring struct {
	peers  []string // sorted, deduplicated
	points []point  // sorted by (hash, owner) for deterministic ties
}

// NewRing builds a ring over the given peer IDs. Duplicates are dropped
// and order is irrelevant: two rings over the same member set are
// identical regardless of construction order. A ring over zero peers is
// valid; Owner returns "".
func NewRing(peers []string) *Ring {
	uniq := make([]string, 0, len(peers))
	seen := make(map[string]struct{}, len(peers))
	for _, p := range peers {
		if p == "" {
			continue
		}
		if _, ok := seen[p]; ok {
			continue
		}
		seen[p] = struct{}{}
		uniq = append(uniq, p)
	}
	sort.Strings(uniq)
	r := &Ring{
		peers:  uniq,
		points: make([]point, 0, len(uniq)*vnodes),
	}
	for i, p := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash:  ringHash(p + "#" + strconv.Itoa(v)),
				owner: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].owner < r.points[b].owner
	})
	return r
}

// Owner returns the peer that owns key: the first virtual node clockwise
// from the key's hash (wrapping past the top of the circle). An empty ring
// owns nothing and returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.peers[r.points[i].owner]
}

// Peers returns the ring's members, sorted. The slice is shared; callers
// must not mutate it.
func (r *Ring) Peers() []string { return r.peers }

// Size returns the number of peers on the ring.
func (r *Ring) Size() int { return len(r.peers) }

// Contains reports whether id is a ring member.
func (r *Ring) Contains(id string) bool {
	i := sort.SearchStrings(r.peers, id)
	return i < len(r.peers) && r.peers[i] == id
}
