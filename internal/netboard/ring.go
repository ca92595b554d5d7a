package netboard

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the ring's default virtual-node count per
// shard. 128 points per shard keeps the worst-case load skew across
// 1–16 shards within a few percent of uniform for topic-name-sized key
// populations (see ring_test.go's skew bound) while the whole ring
// stays small enough that rebuilding it on a topology change is
// trivially cheap.
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring mapping string keys (topic names,
// player keys) to shard indices. Each shard owns VirtualNodes points
// on a 64-bit hash circle; a key belongs to the shard owning the first
// point at or clockwise of the key's hash. The map is a pure
// function of (shard names, vnode count): two processes that build the
// ring from the same cluster spec route every key identically, which
// is what lets independent clients — and a reshard comparing an old
// and a new ring — agree on ownership without coordination.
//
// The zero value is unusable; build rings with newRing. Rings are
// immutable after construction and safe for concurrent readers.
type Ring struct {
	vnodes int
	names  []string // shard names in insertion order; index = shard index
	points []ringPoint
}

// ringPoint is one virtual node: a position on the hash circle and the
// index of the shard owning it.
type ringPoint struct {
	hash  uint64
	shard int
}

// newRing builds a ring over the named shards (typically base URLs)
// with the given virtual-node count (<=0 means DefaultVirtualNodes).
// Shard order defines shard indices; names must be distinct.
func newRing(names []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{
		vnodes: vnodes,
		names:  append([]string(nil), names...),
		points: make([]ringPoint, 0, len(names)*vnodes),
	}
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			// Vnode key: "<name>#<v>". Hashing the name+ordinal (rather
			// than rehashing the previous point) keeps every vnode's
			// position independent of the other shards, which is what
			// makes movement on add/remove minimal.
			h := fnv.New64a()
			h.Write([]byte(name))
			h.Write([]byte{'#'})
			h.Write(strconv.AppendInt(nil, int64(v), 10))
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), shard: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (astronomically rare) break by shard index so the
		// ring order is still a pure function of the spec.
		return r.points[a].shard < r.points[b].shard
	})
	return r
}

// Owner returns the index of the shard owning key.
func (r *Ring) Owner(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return r.ownerOfHash(mix64(h.Sum64()))
}

// PlayerOwner returns the index of the shard owning player p's probe
// results: the owner of the ring key "p/<p>". It hashes that key from a
// stack buffer, so routing a player allocates nothing. Probes route by
// player, as billboard.Board stores them: a player's row lives whole on
// one shard, so each probe operation of one player is one request.
func (r *Ring) PlayerOwner(p int) int {
	var buf [24]byte // "p/" and a signed 64-bit decimal
	key := strconv.AppendInt(append(buf[:0], "p/"...), int64(p), 10)
	h := uint64(fnvOffset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return r.ownerOfHash(mix64(h))
}

// The FNV-1a parameters of hash/fnv's New64a, for PlayerOwner's
// allocation-free hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix64 is the splitmix64 finalizer. Raw FNV-1a is too linear for ring
// positions: keys differing only in a trailing ordinal hash to values
// whose differences are small multiples of the FNV prime, so one
// shard's virtual nodes land in near-arithmetic progressions and the
// load skew blows up. The finalizer's shift-xor-multiply cascade
// destroys that structure while staying a pure function of the key.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (r *Ring) ownerOfHash(hash uint64) int {
	i := sort.Search(len(r.points), func(k int) bool { return r.points[k].hash >= hash })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the first
	}
	return r.points[i].shard
}

// Shards returns the number of shards on the ring.
func (r *Ring) Shards() int { return len(r.names) }

// Name returns the name (base URL) of shard i.
func (r *Ring) Name(i int) string { return r.names[i] }
