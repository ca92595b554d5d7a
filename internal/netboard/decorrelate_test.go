package netboard

import (
	"context"
	"testing"
	"time"
)

// TestDecorrelateDistinct checks the per-shard seed derivation
// directly: for a spread of base seeds, every shard's derived seed is
// nonzero, differs from the base seed (the standalone client's stream),
// and differs from every other shard's.
func TestDecorrelateDistinct(t *testing.T) {
	seeds := []uint64{1, 2, 3, 99, 0x9e3779b97f4a7c15, ^uint64(0), 1 << 63}
	// Adjacent seeds too: the affine scheme this replaced kept nearby
	// seeds' shard fleets in lockstep.
	for s := uint64(1000); s < 1016; s++ {
		seeds = append(seeds, s)
	}
	const shards = 16
	for _, seed := range seeds {
		derived := map[uint64]uint64{seed: ^uint64(0)} // base seed is taken
		for i := uint64(0); i < shards; i++ {
			d := decorrelate(seed, i)
			if d == 0 {
				t.Fatalf("decorrelate(%#x, %d) = 0", seed, i)
			}
			if d == seed {
				t.Fatalf("decorrelate(%#x, %d) returned the base seed", seed, i)
			}
			if prev, dup := derived[d]; dup {
				t.Fatalf("decorrelate(%#x): shards %d and %d share seed %#x", seed, prev, i, d)
			}
			derived[d] = i
		}
	}
}

// jitterFactors drives a client's backoff i=1 waits through the sleep
// stub and returns the first k jittered durations — a fingerprint of
// the client's jitter stream.
func jitterFactors(c *Client, k int) []time.Duration {
	var out []time.Duration
	c.sleep = func(d time.Duration) { out = append(out, d) }
	for i := 0; i < k; i++ {
		if err := c.backoff(context.Background(), 1); err != nil {
			panic(err)
		}
	}
	return out
}

// TestClusterShardJitterDiverges asserts the observable property the
// derivation exists for: with one configured JitterSeed, every shard
// client's backoff schedule diverges from every other shard's AND from
// a standalone client configured with the same seed. Identical
// schedules re-synchronize the retry stampede the jitter breaks up.
func TestClusterShardJitterDiverges(t *testing.T) {
	const seed = 42
	cl, err := NewCluster(ClusterConfig{
		// NewCluster never contacts the shards; fake URLs are fine.
		Shards: []string{"http://s0", "http://s1", "http://s2", "http://s3"},
		Client: Config{JitterSeed: seed, RetryBackoff: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	standalone := NewClientWithConfig("http://solo", Config{JitterSeed: seed, RetryBackoff: time.Second})
	streams := map[string][]time.Duration{"standalone": jitterFactors(standalone, k)}
	_, clients := cl.topo()
	for i, c := range clients {
		streams["shard"+string(rune('0'+i))] = jitterFactors(c, k)
	}
	for a, sa := range streams {
		for b, sb := range streams {
			if a >= b {
				continue
			}
			same := true
			for i := range sa {
				if sa[i] != sb[i] {
					same = false
					break
				}
			}
			if same {
				t.Errorf("%s and %s run identical backoff schedules %v", a, b, sa)
			}
		}
	}
}
