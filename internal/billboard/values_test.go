package billboard

import (
	"sync"
	"testing"
)

func TestPostValuesAndPostings(t *testing.T) {
	b := New(4, 8)
	b.PostValues("v", 2, []uint32{1, 2, 3})
	got := b.ValuePostings("v")
	if len(got) != 1 || got[0].Player != 2 {
		t.Fatalf("postings: %+v", got)
	}
	if len(got[0].Vals) != 3 || got[0].Vals[1] != 2 {
		t.Fatalf("vals: %v", got[0].Vals)
	}
}

func TestPostValuesCopiesInput(t *testing.T) {
	b := New(2, 4)
	vals := []uint32{7, 8}
	b.PostValues("v", 0, vals)
	vals[0] = 99 // caller reuse must not corrupt the board
	if got := b.ValuePostings("v")[0].Vals[0]; got != 7 {
		t.Fatalf("board saw caller mutation: %d", got)
	}
}

func TestValueVotesGroupingAndOrder(t *testing.T) {
	b := New(6, 4)
	a := []uint32{1, 1}
	c := []uint32{2, 2}
	d := []uint32{0, 9}
	b.PostValues("t", 3, c)
	b.PostValues("t", 0, a)
	b.PostValues("t", 5, d)
	b.PostValues("t", 2, a)
	b.PostValues("t", 4, c)
	b.PostValues("t", 1, a)
	votes := b.ValueVotes("t")
	if len(votes) != 3 {
		t.Fatalf("%d groups", len(votes))
	}
	if votes[0].Count != 3 || votes[0].Vals[0] != 1 {
		t.Fatalf("top group: %+v", votes[0])
	}
	if votes[1].Count != 2 || votes[2].Count != 1 {
		t.Fatal("counts not sorted")
	}
	want := []int{0, 1, 2}
	for i, p := range votes[0].Voters {
		if p != want[i] {
			t.Fatalf("voters: %v", votes[0].Voters)
		}
	}
}

func TestValueVotesTieLexicographic(t *testing.T) {
	b := New(4, 2)
	lo := []uint32{0, 5}
	hi := []uint32{3, 0}
	b.PostValues("t", 0, hi)
	b.PostValues("t", 1, lo)
	b.PostValues("t", 2, hi)
	b.PostValues("t", 3, lo)
	votes := b.ValueVotes("t")
	if votes[0].Vals[0] != 0 {
		t.Fatalf("tie broken wrong: %+v", votes[0])
	}
}

func TestValueAndVectorPostingsCoexist(t *testing.T) {
	b := New(2, 4)
	b.PostValues("x", 0, []uint32{1})
	if n := len(b.Postings("x")); n != 0 {
		t.Fatalf("value posting leaked into vector postings: %d", n)
	}
	if n := len(b.ValuePostings("x")); n != 1 {
		t.Fatalf("value postings: %d", n)
	}
	if b.VectorPostCount() != 1 {
		t.Fatalf("post count %d", b.VectorPostCount())
	}
}

func TestValueVotesDifferentLengthsDistinct(t *testing.T) {
	b := New(2, 4)
	b.PostValues("t", 0, []uint32{1})
	b.PostValues("t", 1, []uint32{1, 0})
	if len(b.ValueVotes("t")) != 2 {
		t.Fatal("different-length value vectors merged")
	}
}

func TestLessVals(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want bool
	}{
		{[]uint32{1, 2}, []uint32{1, 3}, true},
		{[]uint32{1, 3}, []uint32{1, 2}, false},
		{[]uint32{1}, []uint32{1, 0}, true},
		{[]uint32{1, 0}, []uint32{1}, false},
		{[]uint32{1, 2}, []uint32{1, 2}, false},
	}
	for _, c := range cases {
		if got := lessVals(c.a, c.b); got != c.want {
			t.Fatalf("lessVals(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

func TestConcurrentValuePosting(t *testing.T) {
	const n = 32
	b := New(n, 8)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			b.PostValues("c", p, []uint32{uint32(p % 4)})
			_ = b.ValueVotes("c")
		}(p)
	}
	wg.Wait()
	votes := b.ValueVotes("c")
	total := 0
	for _, v := range votes {
		total += v.Count
	}
	if total != n || len(votes) != 4 {
		t.Fatalf("groups=%d total=%d", len(votes), total)
	}
}

// TestValuePoolReusesSameSizeTopics posts and drops one 12-player topic
// round after round, through the per-post path (the billboard server's)
// and the batched ref path (ZeroRadius's in process). Each round's
// retired storage must serve the next round, so the pool holds about
// one round's worth instead of one posting array per round.
func TestValuePoolReusesSameSizeTopics(t *testing.T) {
	const players, rounds = 12, 3001
	vals := []uint32{1, 2, 3}
	for _, path := range []struct {
		name string
		post func(b *Board)
	}{
		{"PostValues", func(b *Board) {
			for p := 0; p < players; p++ {
				b.PostValues("t", p, vals)
			}
		}},
		{"PostValuesBatchRef", func(b *Board) {
			ps := make([]int, players)
			rows := make([][]uint32, players)
			for p := range ps {
				ps[p], rows[p] = p, vals
			}
			b.PostValuesBatchRef(b.TopicRef("t"), ps, rows)
		}},
	} {
		t.Run(path.name, func(t *testing.T) {
			b := New(players, 8)
			for r := 0; r < rounds; r++ {
				path.post(b)
				b.DropTopic("t")
			}
			b.valPool.mu.Lock()
			arrays, blocks := b.valPool.arrayEl, b.valPool.blockEl
			b.valPool.mu.Unlock()
			if arrays > 64 || blocks > 1024 {
				t.Fatalf("after %d rounds the pool holds %d posting-array and %d block elements; a same-size topic does not reuse them", rounds, arrays, blocks)
			}
		})
	}
}
