package billboard

import (
	"slices"
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

// TestValueTallyOutlivesDrop reads a topic's value tally and postings,
// drops the topic, and posts a topic of the same size: the reads taken
// before the drop must not change.
func TestValueTallyOutlivesDrop(t *testing.T) {
	const players = 12
	b := New(players, 8)
	for p := 0; p < players; p++ {
		b.PostValues("a", p, []uint32{1, 2, 3})
	}
	votes, postings := b.ValueVotes("a"), b.ValuePostings("a")
	b.DropTopic("a")
	for p := 0; p < players; p++ {
		b.PostValues("b", p, []uint32{7, 8, 9})
	}
	want := []uint32{1, 2, 3}
	if len(votes) != 1 || votes[0].Count != players || !slices.Equal(votes[0].Vals, want) {
		t.Fatalf("value tally of the dropped topic changed: %+v", votes)
	}
	for _, po := range postings {
		if !slices.Equal(po.Vals, want) {
			t.Fatalf("value posting of player %d of the dropped topic reads %v, want %v", po.Player, po.Vals, want)
		}
	}
}
