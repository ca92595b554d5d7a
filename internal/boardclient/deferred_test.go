package boardclient

import (
	"sync"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
)

// batchBoard is an in-memory board that also takes post batches,
// recording each one.
type batchBoard struct {
	*billboard.Board

	mu      sync.Mutex
	batches [][]Post
}

func (b *batchBoard) PostBatch(posts []Post) {
	b.mu.Lock()
	b.batches = append(b.batches, append([]Post(nil), posts...))
	b.mu.Unlock()
	for _, p := range posts {
		switch p.Kind {
		case ProbePost:
			b.Board.PostProbe(p.Player, p.Object, p.Grade)
		case ProbesPost:
			b.Board.PostProbes(p.Player, p.Objs, p.Grades)
		case ValuesPost:
			b.Board.PostValues(p.Topic, p.Player, p.Vals)
		case VectorPost:
			b.Board.Post(p.Topic, p.Player, p.Vec)
		}
	}
}

func (b *batchBoard) batchCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.batches)
}

func TestDeferLeavesOtherBoardsAlone(t *testing.T) {
	b := billboard.New(2, 2)
	if got := Defer(b); got != Interface(b) {
		t.Fatalf("Defer wrapped a board without PostBatch: %T", got)
	}
}

func TestDeferHoldsPostsUntilFlush(t *testing.T) {
	bb := &batchBoard{Board: billboard.New(4, 8)}
	v := Defer(bb)
	objs, grades, vals := []int{2, 3}, []byte{1, 0}, []uint32{5, 6}
	vec, _ := bitvec.PartialFromString("1?0")
	v.PostProbe(0, 1, 1)
	v.PostProbes(1, objs, grades)
	v.PostValues("v", 2, vals)
	v.PostVector("t", 3, bitvec.New(3))
	v.Post("t", 0, vec)
	// The caller's slices are the view's no longer.
	objs[0], grades[0], vals[0] = 7, 0, 99

	if bb.batchCount() != 0 || bb.Board.ProbeCount() != 0 || bb.Board.VectorPostCount() != 0 {
		t.Fatalf("posts reached the board before a flush: %d batches", bb.batchCount())
	}
	v.(interface{ Flush() }).Flush()
	if bb.batchCount() != 1 || len(bb.batches[0]) != 5 {
		t.Fatalf("flush sent %d batches, want one of 5 posts", bb.batchCount())
	}
	for i, want := range []PostKind{ProbePost, ProbesPost, ValuesPost, VectorPost, VectorPost} {
		if got := bb.batches[0][i].Kind; got != want {
			t.Fatalf("post %d has kind %d, want %d: order not kept", i, got, want)
		}
	}
	if g, ok := bb.Board.LookupProbe(1, 2); !ok || g != 1 {
		t.Fatalf("probe set posted as (%d, %v), want the grades at post time", g, ok)
	}
	if got := bb.Board.ValuePostings("v")[0].Vals[0]; got != 5 {
		t.Fatalf("value vector posted as %d, want the value at post time", got)
	}
	v.(interface{ Flush() }).Flush()
	if bb.batchCount() != 1 {
		t.Fatal("an empty flush sent a batch")
	}
}

func TestDeferReadsFlushFirst(t *testing.T) {
	reads := map[string]func(v Interface){
		"LookupProbe":     func(v Interface) { v.LookupProbe(0, 0) },
		"LookupProbes":    func(v Interface) { v.LookupProbes(0, []int{0}, make([]byte, 1), make([]bool, 1)) },
		"ProbedObjects":   func(v Interface) { v.ProbedObjects(0) },
		"ForEachProbe":    func(v Interface) { v.ForEachProbe(0, func(int, byte) {}) },
		"ProbeCount":      func(v Interface) { v.ProbeCount() },
		"Postings":        func(v Interface) { v.Postings("t") },
		"Votes":           func(v Interface) { v.Votes("t") },
		"PopularVectors":  func(v Interface) { v.PopularVectors("t", 1) },
		"ValuePostings":   func(v Interface) { v.ValuePostings("t") },
		"ValueVotes":      func(v Interface) { v.ValueVotes("t") },
		"DropTopic":       func(v Interface) { v.DropTopic("t") },
		"TopicCount":      func(v Interface) { v.TopicCount() },
		"VectorPostCount": func(v Interface) { v.VectorPostCount() },
		"TopicSnapshot":   func(v Interface) { v.TopicSnapshot("t", 0, 0) },
	}
	for name, read := range reads {
		bb := &batchBoard{Board: billboard.New(2, 2)}
		v := Defer(bb)
		v.PostProbe(1, 1, 1)
		read(v)
		if bb.batchCount() != 1 {
			t.Errorf("%s did not flush the held post first", name)
		}
	}
}

// TestDeferSendsEarlyPastBound: a held batch that would grow past
// flushBytes goes out before the post that would take it there.
func TestDeferSendsEarlyPastBound(t *testing.T) {
	bb := &batchBoard{Board: billboard.New(2, 2)}
	v := Defer(bb)
	vals := make([]uint32, 64<<10)
	const posts = 16
	for i := 0; i < posts; i++ {
		v.PostValues("v", 0, vals)
	}
	v.(interface{ Flush() }).Flush()
	if bb.batchCount() < 2 {
		t.Fatalf("%d batches for %d posts of %d bytes' bound; want the batch sent early", bb.batchCount(), posts, (&Post{Vals: vals}).sizeBound())
	}
	sent := 0
	for _, batch := range bb.batches {
		size := 0
		for i := range batch {
			size += batch[i].sizeBound()
		}
		if size > flushBytes {
			t.Fatalf("a batch of %d bytes' bound, over flushBytes %d", size, flushBytes)
		}
		sent += len(batch)
	}
	if sent != posts || len(bb.Board.ValuePostings("v")) != posts {
		t.Fatalf("%d posts sent, %d on the board, want %d", sent, len(bb.Board.ValuePostings("v")), posts)
	}
}

// TestDeferReadSeesOwnPostUnderConcurrency: whatever other players'
// flushes are doing, a player's read after its own post sees the post
// (run under -race).
func TestDeferReadSeesOwnPostUnderConcurrency(t *testing.T) {
	const players, rounds = 8, 50
	bb := &batchBoard{Board: billboard.New(players, rounds)}
	v := Defer(bb)
	var wg sync.WaitGroup
	for p := 0; p < players; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for o := 0; o < rounds; o++ {
				v.PostProbe(p, o, 1)
				if _, ok := v.LookupProbe(p, o); !ok {
					t.Errorf("player %d did not see its post of object %d", p, o)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}
