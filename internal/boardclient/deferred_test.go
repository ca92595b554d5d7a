package boardclient

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
)

// batchBoard is an in-memory board that also takes batches, recording
// the posts of each batch that has posts, and counting the batches that
// carry reads.
type batchBoard struct {
	*billboard.Board

	mu         sync.Mutex
	batches    [][]Post
	readCounts []int // reads of each batch, in batch order
}

func (b *batchBoard) PostBatch(posts []Post, reads []Read) {
	b.mu.Lock()
	if len(posts) > 0 {
		b.batches = append(b.batches, append([]Post(nil), posts...))
	}
	b.readCounts = append(b.readCounts, len(reads))
	b.mu.Unlock()
	applyPosts(b.Board, posts)
	ReadAll(b.Board, reads)
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
	v.DropTopic("t")
	v.Post("t", 0, vec)
	// The caller's slices are the view's no longer.
	objs[0], grades[0], vals[0] = 7, 0, 99

	if bb.batchCount() != 0 || bb.Board.ProbeCount() != 0 || bb.Board.VectorPostCount() != 0 {
		t.Fatalf("posts reached the board before a flush: %d batches", bb.batchCount())
	}
	v.(interface{ Flush() }).Flush()
	if bb.batchCount() != 1 || len(bb.batches[0]) != 6 {
		t.Fatalf("flush sent %d batches, want one of 6 posts", bb.batchCount())
	}
	for i, want := range []PostKind{ProbesPost, ProbesPost, ValuesPost, VectorPost, DropPost, VectorPost} {
		if got := bb.batches[0][i].Kind; got != want {
			t.Fatalf("post %d has kind %d, want %d: order not kept", i, got, want)
		}
	}
	if got := bb.Board.Postings("t"); len(got) != 1 || got[0].Player != 0 {
		t.Fatalf("topic t holds %v, want only the post made after its drop", got)
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

// TestDeferHoldsOneProbeRunPerPlayer: a player's probe posts since the
// last flush go out as one entry, its objects and grades in call
// order, wherever other players' and topic posts fall between them;
// an object the player probed twice is held once, and reads back its
// first grade.
func TestDeferHoldsOneProbeRunPerPlayer(t *testing.T) {
	bb := &batchBoard{Board: billboard.New(2, 8)}
	v := Defer(bb)
	v.PostProbe(0, 5, 1)
	v.PostValues("v", 1, []uint32{3})
	v.PostProbes(1, []int{2, 3}, []byte{0, 1})
	v.PostProbe(0, 1, 0)
	v.PostVector("t", 0, bitvec.New(2))
	v.PostProbes(0, []int{5, 6}, []byte{0, 1})
	v.PostProbe(1, 4, 1)
	v.(interface{ Flush() }).Flush()

	want := []Post{
		{Kind: ProbesPost, Player: 0, Objs: []int{5, 1, 6}, Grades: []byte{1, 0, 1}},
		{Kind: ValuesPost, Player: 1, Topic: "v", Vals: []uint32{3}},
		{Kind: ProbesPost, Player: 1, Objs: []int{2, 3, 4}, Grades: []byte{0, 1, 1}},
		{Kind: VectorPost, Player: 0, Topic: "t", Vec: bitvec.PartialOf(bitvec.New(2))},
	}
	if bb.batchCount() != 1 {
		t.Fatalf("flush sent %d batches, want 1", bb.batchCount())
	}
	if got := bb.batches[0]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("flush sent\n%v\nwant\n%v", got, want)
	}
	if g, ok := bb.Board.LookupProbe(0, 5); !ok || g != 1 {
		t.Fatalf("re-probed object reads back (%d, %v), want its first grade 1", g, ok)
	}
}

// TestDeferHoldsOneRunPerPlayerUnderConcurrency: players posting at
// once, with no read between, each get one entry in the flush holding
// every one of their probes once, in call order (run under -race).
func TestDeferHoldsOneRunPerPlayerUnderConcurrency(t *testing.T) {
	const players, probes = 8, 200
	bb := &batchBoard{Board: billboard.New(players, probes)}
	v := Defer(bb)
	var wg sync.WaitGroup
	for p := 0; p < players; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for o := 0; o < probes; o += 2 {
				v.PostProbe(p, o, 1)
				v.PostProbes(p, []int{o + 1}, []byte{0})
			}
		}(p)
	}
	wg.Wait()
	v.(interface{ Flush() }).Flush()
	if bb.batchCount() != 1 || len(bb.batches[0]) != players {
		t.Fatalf("%d batches, the first of %d entries; want one entry per player in one batch", bb.batchCount(), len(bb.batches[0]))
	}
	seen := make([]bool, players)
	for _, post := range bb.batches[0] {
		if post.Kind != ProbesPost || seen[post.Player] || len(post.Objs) != probes {
			t.Fatalf("entry of kind %d for player %d with %d objects; want one run of %d per player", post.Kind, post.Player, len(post.Objs), probes)
		}
		seen[post.Player] = true
		for k, o := range post.Objs {
			if o != k || post.Grades[k] != byte(1-k%2) {
				t.Fatalf("player %d's run holds (%d, %d) at %d, want its probes in call order", post.Player, o, post.Grades[k], k)
			}
		}
	}
	if got := bb.Board.ProbeCount(); got != players*probes {
		t.Fatalf("%d probes on the board, want %d", got, players*probes)
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

// TestDeferReadsRideTheHeldBatch: a topic read or a probe lookup
// through the view takes the held posts with it, as one batch whose
// read answers after them; ReadAll sends many reads the same way.
func TestDeferReadsRideTheHeldBatch(t *testing.T) {
	reads := map[string]func(v Interface) bool{
		"LookupProbe": func(v Interface) bool { g, ok := v.LookupProbe(1, 1); return ok && g == 1 },
		"LookupProbes": func(v Interface) bool {
			g, ok := make([]byte, 1), make([]bool, 1)
			v.LookupProbes(1, []int{1}, g, ok)
			return ok[0] && g[0] == 1
		},
		"Postings":       func(v Interface) bool { return len(v.Postings("t")) == 1 },
		"Votes":          func(v Interface) bool { return len(v.Votes("t")) == 1 },
		"PopularVectors": func(v Interface) bool { return len(v.PopularVectors("t", 1)) == 1 },
		"ValuePostings":  func(v Interface) bool { return len(v.ValuePostings("v")) == 1 },
		"ValueVotes":     func(v Interface) bool { return len(v.ValueVotes("v")) == 1 },
		"TopicSnapshot": func(v Interface) bool {
			_, _, unchanged, votes, vals := v.TopicSnapshot("t", 0, 0)
			return !unchanged && len(votes) == 1 && len(vals) == 0
		},
		"ReadAll": func(v Interface) bool {
			rs := []Read{{Kind: PostingsRead, Topic: "t"}, {Kind: ValuePostingsRead, Topic: "v"}}
			ReadAll(v, rs)
			return len(rs[0].Postings) == 1 && len(rs[1].ValuePostings) == 1
		},
	}
	vec, _ := bitvec.PartialFromString("01")
	for name, read := range reads {
		bb := &batchBoard{Board: billboard.New(2, 2)}
		v := Defer(bb)
		v.PostProbe(1, 1, 1)
		v.Post("t", 0, vec)
		v.PostValues("v", 0, []uint32{4})
		if !read(v) {
			t.Errorf("%s did not see the held posts", name)
		}
		if bb.batchCount() != 1 || len(bb.readCounts) != 1 || bb.readCounts[0] == 0 {
			t.Errorf("%s sent %d batches with posts and reads %v, want the posts and the reads in one batch", name, bb.batchCount(), bb.readCounts)
		}
	}
}

// TestReadAllCallsOtherBoards: on a board that takes no batches, ReadAll
// answers each read with its own call.
func TestReadAllCallsOtherBoards(t *testing.T) {
	b := billboard.New(2, 4)
	vec, _ := bitvec.PartialFromString("01?")
	b.Post("t", 1, vec)
	b.PostValues("v", 0, []uint32{3})
	b.PostProbes(1, []int{2}, []byte{1})
	reads := []Read{
		{Kind: PostingsRead, Topic: "t"},
		{Kind: ValuePostingsRead, Topic: "v"},
		{Kind: SnapshotRead, Topic: "t"},
		{Kind: LookupsRead, Player: 1, Objs: []int{2, 3}, Grades: make([]byte, 2), Known: make([]bool, 2)},
	}
	ReadAll(b, reads)
	if got := fmt.Sprint(reads[0].Postings, reads[1].ValuePostings, reads[2].Votes, reads[3].Grades, reads[3].Known); got != fmt.Sprint(b.Postings("t"), b.ValuePostings("v"), b.Votes("t"), []byte{1, 0}, []bool{true, false}) {
		t.Fatalf("ReadAll answered %s", got)
	}
}

// blockingBoard is a batchBoard whose read-only batches wait for
// release.
type blockingBoard struct {
	batchBoard
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBoard) PostBatch(posts []Post, reads []Read) {
	if len(posts) == 0 && len(reads) > 0 {
		b.entered <- struct{}{}
		<-b.release
	}
	b.batchBoard.PostBatch(posts, reads)
}

// TestDeferReadsWithNothingHeldRunConcurrently: a read with no posts
// held does not keep the view's flush lock while it is in flight, so a
// second one goes out while the first is still waiting for its answer.
func TestDeferReadsWithNothingHeldRunConcurrently(t *testing.T) {
	bb := &blockingBoard{batchBoard: batchBoard{Board: billboard.New(2, 2)}, entered: make(chan struct{}), release: make(chan struct{})}
	v := Defer(bb)
	done := make(chan struct{})
	for range 2 {
		go func() {
			v.Postings("t")
			done <- struct{}{}
		}()
	}
	for range 2 {
		select {
		case <-bb.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("a read with nothing held waited for another read in flight")
		}
	}
	close(bb.release)
	<-done
	<-done
}

// TestDeferReadsPastBoundLetTheBatchGoFirst: reads that would take the
// held batch past flushBytes go out after it, as a batch of their own.
func TestDeferReadsPastBoundLetTheBatchGoFirst(t *testing.T) {
	const objs = flushBytes / 12
	bb := &batchBoard{Board: billboard.New(1, objs)}
	v := Defer(bb)
	v.PostValues("v", 0, make([]uint32, 64<<10))
	all := make([]int, objs)
	for o := range all {
		all[o] = o
	}
	v.LookupProbes(0, all, make([]byte, objs), make([]bool, objs))
	if bb.batchCount() != 1 || fmt.Sprint(bb.readCounts) != "[0 1]" {
		t.Fatalf("%d batches with posts, reads by batch %v; want the posts alone, then the read", bb.batchCount(), bb.readCounts)
	}
	if len(bb.Board.ValuePostings("v")) != 1 {
		t.Fatal("the held post did not reach the board")
	}
}

// TestDeferSendsEarlyPastBound: a held batch that would grow past
// flushBytes goes out before the post that would take it there, and a
// player's probe run that would grow past it goes out as several runs.
func TestDeferSendsEarlyPastBound(t *testing.T) {
	vals := make([]uint32, 64<<10)
	const probes = flushBytes/12 + 1 // one run's bound passes flushBytes
	for _, tc := range []struct {
		name  string
		calls int
		post  func(v Interface, i int)
		// applied counts the calls the board shows.
		applied func(b *billboard.Board) int
	}{
		{"value vectors", 16,
			func(v Interface, _ int) { v.PostValues("v", 0, vals) },
			func(b *billboard.Board) int { return len(b.ValuePostings("v")) }},
		{"probe run", probes,
			func(v Interface, i int) { v.PostProbe(0, i, byte(i&1)) },
			func(b *billboard.Board) int { return int(b.ProbeCount()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bb := &batchBoard{Board: billboard.New(1, probes)}
			v := Defer(bb)
			for i := 0; i < tc.calls; i++ {
				tc.post(v, i)
			}
			v.(interface{ Flush() }).Flush()
			if bb.batchCount() < 2 {
				t.Fatalf("%d batches for %d calls; want the batch sent early", bb.batchCount(), tc.calls)
			}
			for _, batch := range bb.batches {
				size := 0
				for i := range batch {
					size += batch[i].sizeBound()
				}
				if size > flushBytes {
					t.Fatalf("a batch of %d bytes' bound, over flushBytes %d", size, flushBytes)
				}
			}
			if got := tc.applied(bb.Board); got != tc.calls {
				t.Fatalf("%d of %d calls on the board", got, tc.calls)
			}
		})
	}
}

// TestDeferRepeatsSendNothingEarly: a player that probes one object as
// many times as would take a run of distinct objects past flushBytes
// holds one run of that object, at its first grade, and sends nothing
// before the flush: a repeat adds nothing to the held batch.
func TestDeferRepeatsSendNothingEarly(t *testing.T) {
	const probes = flushBytes/12 + 1
	bb := &batchBoard{Board: billboard.New(1, 4)}
	v := Defer(bb)
	for i := 0; i < probes; i++ {
		v.PostProbe(0, 3, byte(1-i&1))
	}
	if n := bb.batchCount(); n != 0 {
		t.Fatalf("%d batches sent before the flush, want none", n)
	}
	v.(interface{ Flush() }).Flush()
	want := []Post{{Kind: ProbesPost, Player: 0, Objs: []int{3}, Grades: []byte{1}}}
	if bb.batchCount() != 1 || fmt.Sprint(bb.batches[0]) != fmt.Sprint(want) {
		t.Fatalf("%d batches, the first %v; want one batch of %v", bb.batchCount(), bb.batches[0], want)
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

// failingBoard is a batchBoard whose next fails batches panic unsent.
// during, when set, runs inside each failing batch before it panics.
type failingBoard struct {
	batchBoard
	fails  atomic.Int64
	during func()
}

func (b *failingBoard) PostBatch(posts []Post, reads []Read) {
	if b.fails.Add(-1) >= 0 {
		if b.during != nil {
			b.during()
		}
		panic("board down")
	}
	b.batchBoard.PostBatch(posts, reads)
}

// TestDeferFailedSendKeepsItsBatch: a flush or a read whose batch fails
// panics and puts the batch back into the view, in its order and ahead
// of the posts held since, including those held while it was sending;
// the next flush sends it all, and Take empties the view without
// sending.
func TestDeferFailedSendKeepsItsBatch(t *testing.T) {
	want := []Post{
		{Kind: ProbesPost, Player: 0, Objs: []int{1}, Grades: []byte{1}},
		{Kind: ValuesPost, Player: 1, Topic: "v", Vals: []uint32{3}},
		{Kind: DropPost, Topic: "v"},
		{Kind: ProbesPost, Player: 1, Objs: []int{0, 3}, Grades: []byte{1, 0}},
		{Kind: ProbesPost, Player: 0, Objs: []int{2}, Grades: []byte{0}},
	}
	for _, send := range []string{"Flush", "read"} {
		for _, then := range []string{"Flush", "Take"} {
			bb := &failingBoard{batchBoard: batchBoard{Board: billboard.New(2, 4)}}
			bb.fails.Store(1)
			v := Defer(bb)
			bb.during = func() { v.PostProbe(1, 0, 1) }
			v.PostProbe(0, 1, 1)
			v.PostValues("v", 1, []uint32{3})
			v.DropTopic("v")
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s over a failing board did not panic", send)
					}
				}()
				if send == "Flush" {
					v.(interface{ Flush() }).Flush()
				} else {
					v.Postings("t")
				}
			}()
			v.PostProbe(1, 3, 0)
			v.PostProbe(0, 2, 0)
			var got []Post
			if then == "Flush" {
				v.(interface{ Flush() }).Flush()
				if bb.batchCount() != 1 {
					t.Fatalf("%s, then Flush: %d batches, want 1", send, bb.batchCount())
				}
				got = bb.batches[0]
			} else {
				got = v.(interface{ Take() []Post }).Take()
				v.(interface{ Flush() }).Flush()
				if bb.batchCount() != 0 || bb.Board.ProbeCount() != 0 {
					t.Fatalf("%s, then Take: %d batches sent, want none", send, bb.batchCount())
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s, then %s: the view held\n%v\nwant\n%v", send, then, got, want)
			}
		}
	}
}

// TestDeferFailedSendsUnderConcurrency: players posting and reading at
// once while the board fails batches lose no post, since every failed
// batch goes back into the view, and a flush once the board is back
// sends them all (run under -race).
func TestDeferFailedSendsUnderConcurrency(t *testing.T) {
	const players, rounds = 8, 50
	bb := &failingBoard{batchBoard: batchBoard{Board: billboard.New(players, rounds)}}
	bb.fails.Store(players * rounds / 4)
	v := Defer(bb)
	var wg sync.WaitGroup
	for p := 0; p < players; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for o := 0; o < rounds; o++ {
				v.PostProbe(p, o, 1)
				func() {
					defer func() { _ = recover() }()
					v.LookupProbe(p, o)
				}()
			}
		}(p)
	}
	wg.Wait()
	if left := bb.fails.Load(); left > 0 {
		t.Fatalf("%d batch failures left unused; the test proves nothing", left)
	}
	v.(interface{ Flush() }).Flush()
	if got := bb.Board.ProbeCount(); got != players*rounds {
		t.Fatalf("%d probes on the board, want %d", got, players*rounds)
	}
}
