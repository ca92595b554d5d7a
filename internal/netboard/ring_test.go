package netboard

import (
	"fmt"
	"strconv"
	"testing"
)

// ringKeys is a deterministic key population shaped like real traffic:
// topic names and player keys.
func ringKeys(n int) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		keys = append(keys, "zr/phase"+strconv.Itoa(i%7)+"/t"+strconv.Itoa(i))
		if len(keys) < n {
			keys = append(keys, "p/"+strconv.Itoa(i))
		}
	}
	return keys
}

func ringShards(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("http://shard%d.example:7070", i)
	}
	return out
}

// TestRingDistributionSkew bounds the load skew of the default ring
// across every cluster size the issue targets (1–16 shards): with
// DefaultVirtualNodes points per shard, no shard owns more than 1.5×
// or less than 0.5× its fair share of a 20k-key population.
func TestRingDistributionSkew(t *testing.T) {
	keys := ringKeys(20000)
	for shards := 1; shards <= 16; shards++ {
		r := newRing(ringShards(shards), 0)
		counts := make([]int, shards)
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		fair := float64(len(keys)) / float64(shards)
		for s, c := range counts {
			ratio := float64(c) / fair
			if ratio > 1.5 || ratio < 0.5 {
				t.Errorf("%d shards: shard %d owns %d keys (%.2fx fair share %v)", shards, s, c, ratio, fair)
			}
		}
	}
}

// TestRingOwnerDeterministic: the ring is a pure function of the spec —
// two independently built rings route every key identically.
func TestRingOwnerDeterministic(t *testing.T) {
	a := newRing(ringShards(5), 64)
	b := newRing(ringShards(5), 64)
	for _, k := range ringKeys(2000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("rings disagree on %q: %d vs %d", k, a.Owner(k), b.Owner(k))
		}
	}
}

// TestRingMinimalMovementOnRemove is the consistent-hashing removal
// invariant, exactly: deleting one shard's points moves only the keys
// that shard owned — every other key keeps its owner.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	names := ringShards(5)
	const removed = 2
	before := newRing(names, 0)
	var kept []string
	for i, n := range names {
		if i != removed {
			kept = append(kept, n)
		}
	}
	after := newRing(kept, 0)
	moved := 0
	for _, k := range ringKeys(20000) {
		ob := before.Owner(k)
		oa := after.Owner(k)
		if ob == removed {
			moved++
			continue
		}
		if before.Name(ob) != after.Name(oa) {
			t.Fatalf("key %q moved from surviving shard %s to %s", k, before.Name(ob), after.Name(oa))
		}
	}
	if moved == 0 {
		t.Fatal("removed shard owned no keys")
	}
}

// TestRingMinimalMovementOnAdd is the addition invariant: appending a
// shard moves keys only onto the new shard (never between old shards),
// and the moved fraction is within 2x of the fair 1/(k+1).
func TestRingMinimalMovementOnAdd(t *testing.T) {
	names := ringShards(4)
	before := newRing(names, 0)
	grown := append(append([]string(nil), names...), "http://shard-new.example:7070")
	after := newRing(grown, 0)
	newIdx := len(grown) - 1
	keys := ringKeys(20000)
	moved := 0
	for _, k := range keys {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == oa {
			continue
		}
		if oa != newIdx {
			t.Fatalf("key %q moved between old shards: %d -> %d", k, ob, oa)
		}
		moved++
	}
	fair := float64(len(keys)) / float64(len(grown))
	if f := float64(moved); f > 2*fair || f < fair/2 {
		t.Fatalf("added shard took %d keys, want within 2x of fair share %.0f", moved, fair)
	}
}

// TestRingPlayerOwnerIsOwnerOfPlayerKey: PlayerOwner routes every
// player exactly as Owner routes its ring key "p/<player>", on rings
// of 1–16 shards, and allocates nothing.
func TestRingPlayerOwnerIsOwnerOfPlayerKey(t *testing.T) {
	for shards := 1; shards <= 16; shards++ {
		r := newRing(ringShards(shards), 0)
		for p := 0; p < 1<<17; p++ {
			if got, want := r.PlayerOwner(p), r.Owner("p/"+strconv.Itoa(p)); got != want {
				t.Fatalf("%d shards: player %d routed to shard %d, its key's owner is %d", shards, p, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { r.PlayerOwner(1<<17 - 1) }); allocs != 0 {
			t.Fatalf("%d shards: PlayerOwner made %.0f allocations, want 0", shards, allocs)
		}
	}
}
