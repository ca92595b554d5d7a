package billboard

import (
	"fmt"
	"testing"

	"tellme/internal/bitvec"
	"tellme/internal/rng"
)

// Tally-engine microbenchmarks: rebuild cost as a function of topic
// size. These feed the `core` benchdiff suite (make bench-core).

func benchPostings(n int) []Posting {
	r := rng.New(42)
	const width, distinct = 64, 8
	base := make([]bitvec.Partial, distinct)
	for i := range base {
		v := bitvec.New(width)
		for j := 0; j < width; j++ {
			v.Set(j, byte(r.Intn(2)))
		}
		base[i] = bitvec.PartialOf(v)
	}
	out := make([]Posting, n)
	for i := range out {
		out[i] = Posting{Player: i, Vec: base[r.Intn(distinct)]}
	}
	return out
}

func BenchmarkVotesLargeTopic(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		postings := benchPostings(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v := tallyVotes(postings); len(v) == 0 {
					b.Fatal("empty tally")
				}
			}
		})
	}
}

// BenchmarkPopularVectors measures the board-level read path end to
// end: one full tally plus the popularity filter, as every reader pays.
func BenchmarkPopularVectors(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		bd := New(n, 64)
		for _, p := range benchPostings(n) {
			bd.Post("t", p.Player, p.Vec)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v := bd.PopularVectors("t", 2); len(v) == 0 {
					b.Fatal("no popular vectors")
				}
			}
		})
	}
}

// BenchmarkPostValues measures the slab-backed value-posting path (the
// dominant allocation site of E8 before the slab).
func BenchmarkPostValues(b *testing.B) {
	bd := New(1, 64)
	vals := make([]uint32, 48)
	for i := range vals {
		vals[i] = uint32(i % 3)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd.PostValues("t", 0, vals)
		if i%(1<<16) == 0 {
			bd.DropTopic("t") // keep the topic from growing unboundedly
		}
	}
}

// BenchmarkPostProbes is a fleet shard's apply: one 64-object probe
// round to a player that has not posted yet, on a 1M × 512 board, so
// every iteration takes a first post and, every 512th, a fresh chunk
// of rows. A new board replaces a full one, off the clock.
func BenchmarkPostProbes(b *testing.B) {
	const n, m, batch = 1 << 20, 512, 64
	objs := make([]int, batch)
	grades := make([]byte, batch)
	for k := range objs {
		objs[k] = k
		grades[k] = byte(k & 1)
	}
	var bd *Board
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			b.StopTimer()
			bd = New(n, m)
			b.StartTimer()
		}
		bd.PostProbes(i%n, objs, grades)
	}
}
