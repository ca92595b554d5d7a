package netboard

import "strconv"

// A cluster routes every key by shard position: the shard at index
// owner(key, k) of a k-shard cluster owns the key. Topics are keyed by
// their name and a player's probe results by "p/<player>". The owner
// is a pure function of the key and the shard count, not of any
// shard's address, so two processes that list the same number of
// shards route every key identically, and a shard may restart at any
// address in its position.

// owner returns the index of the shard owning key in a cluster of
// shards shards: mix64(FNV-1a(key)) mod shards, with the 64-bit FNV-1a
// of hash/fnv's New64a.
func owner[K string | []byte](key K, shards int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(mix64(h) % uint64(shards))
}

// playerOwner returns the index of the shard owning player p's probe
// results: the owner of the key "p/<p>". It builds that key in a stack
// buffer, so routing a player allocates nothing. A player's row lives
// whole on one shard, as billboard.Board stores it, so each probe
// operation of one player is one request.
func playerOwner(p, shards int) int {
	var buf [24]byte // "p/" and a signed 64-bit decimal
	return owner(strconv.AppendInt(append(buf[:0], "p/"...), int64(p), 10), shards)
}

// mix64 is the splitmix64 finalizer. FNV-1a alone cannot be reduced
// mod a shard count: its low j bits depend only on the low j bits of
// each key byte (xor and multiply carry upward only), so mod 4 the keys
// "p/1", "p/5" and "p/9" always share a shard. The finalizer's
// shift-xor-multiply cascade spreads every input bit over the whole
// word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
