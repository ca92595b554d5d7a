package billboard

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// rowsAllocated counts the rows a board holds in its chunks.
func rowsAllocated(b *Board) int {
	n := 0
	for _, c := range b.chunks {
		n += len(c) / (2 * b.words)
	}
	return n
}

// TestClearProbes: a clear removes exactly the named results of one
// player, ProbeCount falls by the results actually cleared, clearing
// what was never posted changes nothing, and a cleared object takes a
// new grade.
func TestClearProbes(t *testing.T) {
	const n, m = 3, 200
	b := New(n, m)
	grade := func(p, o int) byte { return byte((p + o) % 2) }
	for p := 0; p < 2; p++ {
		for o := 0; o < m; o += 3 {
			b.PostProbe(p, o, grade(p, o))
		}
	}
	posted := b.ProbeCount()

	// Objects 0, 63, 66 and 198 were posted; 1 and 199 were not.
	b.ClearProbes(0, []int{0, 1, 63, 66, 198, 199})
	if got, want := b.ProbeCount(), posted-4; got != want {
		t.Fatalf("ProbeCount after clearing 4 posted results = %d, want %d", got, want)
	}
	for p := 0; p < 2; p++ {
		for o := 0; o < m; o++ {
			g, ok := b.LookupProbe(p, o)
			cleared := p == 0 && (o == 0 || o == 63 || o == 66 || o == 198)
			wantOK := o%3 == 0 && !cleared
			if ok != wantOK || (ok && g != grade(p, o)) {
				t.Fatalf("LookupProbe(%d, %d) = %d, %v after the clear; want known=%v", p, o, g, ok, wantOK)
			}
		}
	}

	// Clearing again, an unposted object, or a player that never posted
	// is a no-op, and the unposted player gets no row.
	b.ClearProbes(0, []int{0, 1, 63})
	b.ClearProbes(2, []int{0, 3, 6})
	if got, want := b.ProbeCount(), posted-4; got != want {
		t.Fatalf("ProbeCount after no-op clears = %d, want %d", got, want)
	}
	if b.rows[2].Load() != 0 {
		t.Fatal("clearing an unposted player gave it a row")
	}

	// A cleared object is posted afresh, new grade and all.
	b.PostProbe(0, 63, 1-grade(0, 63))
	if g, ok := b.LookupProbe(0, 63); !ok || g != 1-grade(0, 63) {
		t.Fatalf("re-posted object reads %d, %v; want %d", g, ok, 1-grade(0, 63))
	}
	if got, want := b.ProbeCount(), posted-3; got != want {
		t.Fatalf("ProbeCount after a re-post = %d, want %d", got, want)
	}
	var objs []int
	b.ForEachProbe(0, func(o int, _ byte) { objs = append(objs, o) })
	if slices.Contains(objs, 0) || !slices.Contains(objs, 63) || len(objs) != int(posted)/2-3 {
		t.Fatalf("ForEachProbe after clear and re-post lists %d objects: %v", len(objs), objs)
	}
}

// TestNewAllocatesNoRows: a board for a million players holds their
// row index, not their rows, whose planes would take 128 MiB here.
func TestNewAllocatesNoRows(t *testing.T) {
	var b *Board
	got := allocated(func() { b = New(1<<20, 512) })
	if got > 8<<20 {
		t.Fatalf("New(1<<20, 512) allocated %d bytes, want at most 8 MiB", got)
	}
	if rowsAllocated(b) != 0 || b.nrows != 0 {
		t.Fatalf("a fresh board holds %d rows", rowsAllocated(b))
	}
	runtime.KeepAlive(b)
}

// TestRowsFollowPostingPlayers: posting a thousand of a million
// players allocates about a thousand rows, in whole chunks.
func TestRowsFollowPostingPlayers(t *testing.T) {
	const n, m, posters = 1 << 20, 512, 1000
	b := New(n, m)
	rowBytes := uint64(2 * b.words * 8)
	perChunk := int(b.chunkMask) + 1
	objs := []int{0, 100, 511}
	grades := []byte{1, 0, 1}
	got := allocated(func() {
		for i := 0; i < posters; i++ {
			b.PostProbes(i*(n/posters), objs, grades)
		}
	})
	if b.nrows != posters {
		t.Fatalf("%d players posted, %d rows handed out", posters, b.nrows)
	}
	if rows := rowsAllocated(b); rows < posters || rows >= posters+perChunk {
		t.Fatalf("%d rows allocated for %d posting players (chunks of %d)", rows, posters, perChunk)
	}
	if limit := uint64(posters+perChunk)*rowBytes + 64<<10; got > limit {
		t.Fatalf("posting %d players allocated %d bytes, want at most %d", posters, got, limit)
	}
	if got, want := b.ProbeCount(), int64(posters*len(objs)); got != want {
		t.Fatalf("ProbeCount = %d, want %d", got, want)
	}
}

// TestRestoreAllocatesReplayedRows: a restored board gives rows to the
// players whose probes the snapshot holds, and to no one else: three
// rows, in one chunk.
func TestRestoreAllocatesReplayedRows(t *testing.T) {
	b := New(1<<14, 128)
	for _, p := range []int{3, 9000, 16383} {
		b.PostProbes(p, []int{0, 64, 127}, []byte{1, 0, 1})
	}
	var buf bytes.Buffer
	if err := b.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if perChunk := int(r.chunkMask) + 1; r.nrows != 3 || rowsAllocated(r) != perChunk {
		t.Fatalf("restored board handed out %d rows and allocated %d, want 3 in one chunk of %d", r.nrows, rowsAllocated(r), perChunk)
	}
	if r.ProbeCount() != 9 {
		t.Fatalf("restored ProbeCount = %d, want 9", r.ProbeCount())
	}
	if g, ok := r.LookupProbe(9000, 127); !ok || g != 1 {
		t.Fatalf("restored LookupProbe(9000, 127) = %d, %v", g, ok)
	}
}

// TestObjectPastTheRowPanics: rows sit next to each other in a chunk,
// so an object past a row's planes must panic, as an index past a
// player's own planes did, instead of landing in a neighbour's row.
func TestObjectPastTheRowPanics(t *testing.T) {
	b := New(2, 64)
	b.PostProbe(0, 1, 1)
	b.PostProbe(1, 1, 1)
	for _, o := range []int{64, 127, 128, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PostProbe(0, %d) on a 64-object board did not panic", o)
				}
			}()
			b.PostProbe(0, o, 1)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LookupProbe(0, %d) on a 64-object board did not panic", o)
				}
			}()
			b.LookupProbe(0, o)
		}()
	}
	if got := b.ProbedObjects(1); len(got) != 1 || got[1] != 1 {
		t.Fatalf("player 1's row reads %v after out-of-range posts for player 0", got)
	}
	if b.ProbeCount() != 2 {
		t.Fatalf("ProbeCount = %d, want 2", b.ProbeCount())
	}
}

// TestReadsOfUnpostedPlayersAllocateNoRow: every read of a player that
// never posted answers "never probed" without giving it a row.
func TestReadsOfUnpostedPlayersAllocateNoRow(t *testing.T) {
	const n, m = 1 << 12, 256
	b := New(n, m)
	objs := []int{0, 5, 255}
	grades := []byte{1, 1, 1}
	known := []bool{true, true, true}
	for p := 0; p < n; p += 97 {
		if _, ok := b.LookupProbe(p, 5); ok {
			t.Fatalf("LookupProbe(%d) found a grade on an empty board", p)
		}
		b.LookupProbes(p, objs, grades, known)
		if slices.Contains(known, true) || slices.Contains(grades, 1) {
			t.Fatalf("LookupProbes(%d) = %v, %v on an empty board", p, grades, known)
		}
		b.ForEachProbe(p, func(o int, _ byte) { t.Fatalf("ForEachProbe(%d) listed object %d", p, o) })
		if got := b.ProbedObjects(p); len(got) != 0 {
			t.Fatalf("ProbedObjects(%d) = %v", p, got)
		}
		b.ClearProbes(p, objs)
		b.PostProbes(p, nil, nil)
	}
	ones, total := b.ProbeTally(nil, nil)
	if slices.Max(ones) != 0 || slices.Max(total) != 0 {
		t.Fatal("ProbeTally counted probes on an empty board")
	}
	if b.nrows != 0 || rowsAllocated(b) != 0 {
		t.Fatalf("reads allocated %d rows", rowsAllocated(b))
	}
	if b.ProbeCount() != 0 {
		t.Fatalf("ProbeCount = %d", b.ProbeCount())
	}
}

// TestConcurrentFirstPosts (run it under -race): disjoint players take
// their rows concurrently, and two writers first-posting one player —
// two requests for it in flight at once — share one row. The shared
// players' two writers walk them in the same order, racing to each
// first post, and post disjoint objects, so ProbeCount stays exact.
func TestConcurrentFirstPosts(t *testing.T) {
	const n, m, shared, writers = 600, 192, 100, 4
	b := New(n, m) // chunks of 512 rows: first posts cross into a second, 88-row chunk
	grade := func(p, o int) byte { return byte((p*7 + o) % 3 % 2) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			objs := make([]int, 0, m)
			grades := make([]byte, 0, m)
			for p := shared + w; p < n; p += writers {
				objs, grades = objs[:0], grades[:0]
				for o := p % 5; o < m; o += 5 {
					objs = append(objs, o)
					grades = append(grades, grade(p, o))
				}
				if p%2 == 0 {
					b.PostProbes(p, objs, grades)
				} else {
					for k, o := range objs {
						b.PostProbe(p, o, grades[k])
					}
				}
			}
		}(w)
	}
	start := make(chan struct{})
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func(half int) {
			defer wg.Done()
			<-start
			for p := 0; p < shared; p++ {
				for o := half; o < m; o += 2 {
					b.PostProbe(p, o, grade(p, o))
				}
			}
		}(half)
	}
	close(start)
	wg.Wait()

	if b.nrows != n || rowsAllocated(b) != n {
		t.Fatalf("%d players posted: %d rows handed out, %d allocated", n, b.nrows, rowsAllocated(b))
	}
	want := int64(shared * m)
	for p := shared; p < n; p++ {
		want += int64((m - p%5 + 4) / 5)
	}
	if got := b.ProbeCount(); got != want {
		t.Fatalf("ProbeCount = %d, want %d", got, want)
	}
	for p := 0; p < n; p++ {
		for o := 0; o < m; o++ {
			g, ok := b.LookupProbe(p, o)
			wantOK := p < shared || o%5 == p%5
			if ok != wantOK || (ok && g != grade(p, o)) {
				t.Fatalf("LookupProbe(%d, %d) = %d, %v; want known=%v grade %d", p, o, g, ok, wantOK, grade(p, o))
			}
		}
	}
}
