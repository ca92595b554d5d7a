package billboard

import (
	"fmt"
	"reflect"
	"testing"

	"tellme/internal/bitvec"
)

// Votes and ValueVotes must return exactly what a fresh tally over the
// current postings would, at every point in an arbitrary post/read
// interleaving.

func TestVotesMatchFreshTally(t *testing.T) {
	b := New(8, 6)
	vecs := []string{"0101?1", "0101?1", "111???", "000000", "0101?1", "111???"}
	for i, s := range vecs {
		v, err := bitvec.PartialFromString(s)
		if err != nil {
			t.Fatal(err)
		}
		b.Post("t", i, v)

		got := b.Votes("t")
		want := tallyVotes(b.Postings("t"))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after post %d: votes %+v != fresh tally %+v", i, got, want)
		}
	}
}

func TestValueVotesMatchFreshTally(t *testing.T) {
	b := New(8, 4)
	posts := [][]uint32{{1, 2, 3}, {1, 2, 3}, {9, 9, 9}, {1, 2, 3}, {0, 0, 0}}
	for i, vals := range posts {
		b.PostValues("t", i, vals)

		got := b.ValueVotes("t")
		want := tallyValueVotes(b.ValuePostings("t"))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after post %d: %+v != fresh %+v", i, got, want)
		}
	}
}

func TestVotesFollowEachPost(t *testing.T) {
	b := New(4, 4)
	v, _ := bitvec.PartialFromString("0101")
	b.Post("t", 0, v)
	if got := b.Votes("t"); len(got) != 1 || got[0].Count != 1 {
		t.Fatalf("votes = %+v", got)
	}
	b.Post("t", 1, v)
	if got := b.Votes("t"); len(got) != 1 || got[0].Count != 2 {
		t.Fatalf("votes after second post = %+v", got)
	}
	w, _ := bitvec.PartialFromString("1111")
	b.Post("t", 2, w)
	if got := b.Votes("t"); len(got) != 2 || got[0].Count != 2 {
		t.Fatalf("votes after third post = %+v", got)
	}
}

func TestVotesEmptyTopicNonNil(t *testing.T) {
	// A topic with no postings tallies to a non-nil empty slice.
	b := New(2, 2)
	if got := b.Votes("empty"); got == nil || len(got) != 0 {
		t.Fatalf("Votes(empty) = %#v", got)
	}
	if got := b.ValueVotes("empty"); got == nil || len(got) != 0 {
		t.Fatalf("ValueVotes(empty) = %#v", got)
	}
}

// TestVotesDeterministicAcrossPostingOrder re-checks the paper's
// requirement (every reader sees the same list): permuting posting
// order must not change the tally.
func TestVotesDeterministicAcrossPostingOrder(t *testing.T) {
	vecs := []string{"0101", "1111", "0101", "0000", "1111", "0101"}
	mk := func(perm []int) []Vote {
		b := New(8, 4)
		for _, i := range perm {
			v, _ := bitvec.PartialFromString(vecs[i])
			b.Post("t", i, v)
		}
		return b.Votes("t")
	}
	ref := mk([]int{0, 1, 2, 3, 4, 5})
	for _, perm := range [][]int{{5, 4, 3, 2, 1, 0}, {2, 0, 4, 1, 5, 3}} {
		got := mk(perm)
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", ref) {
			t.Fatalf("order %v: %+v != %+v", perm, got, ref)
		}
	}
}
