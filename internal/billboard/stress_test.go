package billboard

import (
	"sync"
	"testing"

	"tellme/internal/bitvec"
)

// Stress tests for the lock-free probe shards and the topic tallies.
// They assert invariants under real interleavings and are
// primarily aimed at `go test -race` (the Makefile's verify target).

// TestStressPostVotesDropTopic interleaves posters, tally readers, and
// topic droppers. Readers only check internal consistency (a tally is
// some consistent snapshot); the final tally must reflect every post
// that happened after the last drop.
func TestStressPostVotesDropTopic(t *testing.T) {
	b := New(64, 8)
	vecs := make([]bitvec.Partial, 4)
	for i := range vecs {
		v := bitvec.New(8)
		for o := 0; o < 8; o++ {
			v.Set(o, byte((i>>uint(o%2))&1))
		}
		vecs[i] = bitvec.PartialOf(v)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: every observed tally must be internally consistent.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				total := 0
				for _, v := range b.Votes("hot") {
					if v.Count != len(v.Voters) {
						t.Errorf("vote count %d != %d voters", v.Count, len(v.Voters))
						return
					}
					total += v.Count
				}
				_ = total
				b.PopularVectors("hot", 2)
			}
		}()
	}
	// A dropper churns an unrelated topic while "hot" stays live.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			b.Post("churn", i%64, vecs[i%len(vecs)])
			b.DropTopic("churn")
		}
	}()
	// Posters.
	const posters, perPoster = 8, 50
	var post sync.WaitGroup
	for g := 0; g < posters; g++ {
		post.Add(1)
		go func(g int) {
			defer post.Done()
			for i := 0; i < perPoster; i++ {
				b.Post("hot", (g*perPoster+i)%64, vecs[(g+i)%len(vecs)])
			}
		}(g)
	}
	post.Wait()
	close(stop)
	wg.Wait()

	got := 0
	for _, v := range b.Votes("hot") {
		got += v.Count
	}
	if got != posters*perPoster {
		t.Fatalf("final tally covers %d posts, want %d", got, posters*perPoster)
	}
	if b.VectorPostCount() != posters*perPoster+200 {
		t.Fatalf("VectorPostCount = %d", b.VectorPostCount())
	}
}

// TestStressProbeShardSingleWriter runs the supported concurrency shape
// for one shard: exactly one writer posting probes for player p, with
// concurrent LookupProbe and ForEachProbe readers. Readers must only
// ever observe published (object, grade) pairs, and the final iteration
// must yield every post in ascending object order.
func TestStressProbeShardSingleWriter(t *testing.T) {
	const m = 1 << 12
	b := New(2, m)
	grade := func(o int) byte { return byte(o>>3) & 1 }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if r%2 == 0 {
					last := -1
					b.ForEachProbe(0, func(o int, g byte) {
						if o <= last {
							t.Errorf("objects out of order: %d after %d", o, last)
						}
						last = o
						if g != grade(o) {
							t.Errorf("object %d: grade %d, want %d", o, g, grade(o))
						}
					})
				} else {
					o := r * 97 % m
					if g, ok := b.LookupProbe(0, o); ok && g != grade(o) {
						t.Errorf("lookup %d: grade %d, want %d", o, g, grade(o))
					}
				}
			}
		}(r)
	}
	// The single writer for shard 0, posting odd objects then some
	// duplicates (which must stay no-ops).
	for o := 1; o < m; o += 2 {
		b.PostProbe(0, o, grade(o))
	}
	for o := 1; o < m; o += 64 {
		b.PostProbe(0, o, 1-grade(o)) // duplicate: first post must win
	}
	close(stop)
	wg.Wait()

	want := m / 2
	if got := b.ProbeCount(); got != int64(want) {
		t.Fatalf("ProbeCount = %d, want %d", got, want)
	}
	n := 0
	b.ForEachProbe(0, func(o int, g byte) {
		if o%2 != 1 {
			t.Fatalf("unexpected object %d", o)
		}
		if g != grade(o) {
			t.Fatalf("object %d: grade %d, want %d (duplicate overwrote)", o, g, grade(o))
		}
		n++
	})
	if n != want {
		t.Fatalf("ForEachProbe yielded %d objects, want %d", n, want)
	}
}

// TestStressProbeShardsParallelWriters exercises the full supported
// shape: every player writes its own shard concurrently (the phase
// runner's layout), with a reader sweeping all shards.
func TestStressProbeShardsParallelWriters(t *testing.T) {
	const n, m = 16, 512
	b := New(n, m)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for o := p % 7; o < m; o += 3 {
				b.PostProbe(p, o, byte((p+o)&1))
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			for p := 0; p < n; p++ {
				b.ForEachProbe(p, func(o int, g byte) {
					if g != byte((p+o)&1) {
						t.Errorf("shard %d object %d: grade %d", p, o, g)
					}
				})
			}
		}
	}()
	wg.Wait()
	close(done)
	var total int64
	for p := 0; p < n; p++ {
		total += int64(len(b.ProbedObjects(p)))
	}
	if b.ProbeCount() != total {
		t.Fatalf("ProbeCount %d != summed shards %d", b.ProbeCount(), total)
	}
}
