package netboard

import (
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

// TestRingDistributionSkew bounds the load skew of position routing
// across every cluster size from 1 to 16 shards: no shard owns more
// than 1.5× or less than 0.5× its fair share of a 20k-key population.
func TestRingDistributionSkew(t *testing.T) {
	keys := ringKeys(20000)
	for shards := 1; shards <= 16; shards++ {
		counts := make([]int, shards)
		for _, k := range keys {
			counts[owner(k, shards)]++
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

// TestRingOwnerDeterministic pins owners of a few keys. Shard -state
// files hold the keys their position owned, so a change of hash would
// leave every saved cluster unreadable; it must fail here first.
func TestRingOwnerDeterministic(t *testing.T) {
	for _, tc := range []struct {
		key    string
		shards int
		want   int
	}{
		{"p/0", 2, 1},
		{"p/3", 4, 0},
		{"p/63", 4, 3},
		{"zr#1", 3, 1},
		{"zr#2", 3, 0},
		{"sr#5", 5, 3},
		{"p/1000000", 16, 10},
	} {
		if got := owner(tc.key, tc.shards); got != tc.want {
			t.Errorf("owner(%q, %d) = %d, want %d", tc.key, tc.shards, got, tc.want)
		}
	}
}

// TestRingPlayerOwnerIsOwnerOfPlayerKey: playerOwner routes every
// player exactly as owner routes its key "p/<player>", on clusters of
// 1–16 shards, and allocates nothing.
func TestRingPlayerOwnerIsOwnerOfPlayerKey(t *testing.T) {
	for shards := 1; shards <= 16; shards++ {
		for p := 0; p < 1<<17; p++ {
			if got, want := playerOwner(p, shards), owner("p/"+strconv.Itoa(p), shards); got != want {
				t.Fatalf("%d shards: player %d routed to shard %d, its key's owner is %d", shards, p, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { playerOwner(1<<17-1, shards) }); allocs != 0 {
			t.Fatalf("%d shards: playerOwner made %.0f allocations, want 0", shards, allocs)
		}
	}
}
