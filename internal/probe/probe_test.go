package probe

import (
	"sync"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/boardclient"
	"tellme/internal/prefs"
	"tellme/internal/rng"
)

func newEngine(t *testing.T, opts ...Option) (*Engine, *prefs.Instance) {
	t.Helper()
	in := prefs.Planted(16, 64, 0.5, 4, 7)
	b := billboard.New(in.N, in.M)
	return NewEngine(in, b, rng.NewSource(1), opts...), in
}

func TestProbeReturnsTruth(t *testing.T) {
	e, in := newEngine(t)
	for p := 0; p < in.N; p++ {
		pl := e.Player(p)
		for o := 0; o < in.M; o += 7 {
			if got := pl.Probe(o); got != in.Grade(p, o) {
				t.Fatalf("Probe(%d,%d) = %d, truth %d", p, o, got, in.Grade(p, o))
			}
		}
	}
}

func TestProbePostsToBillboard(t *testing.T) {
	e, in := newEngine(t)
	e.Player(3).Probe(11)
	v, ok := e.Board().LookupProbe(3, 11)
	if !ok || v != in.Grade(3, 11) {
		t.Fatalf("billboard: %v %v", v, ok)
	}
}

func TestChargeAllCountsDuplicates(t *testing.T) {
	e, _ := newEngine(t) // default ChargeAll
	pl := e.Player(0)
	pl.Probe(5)
	pl.Probe(5)
	pl.Probe(5)
	if got := e.Charged(0); got != 3 {
		t.Fatalf("ChargeAll charged %d, want 3", got)
	}
	if got := e.Invoked(0); got != 3 {
		t.Fatalf("Invoked = %d", got)
	}
}

func TestChargeDistinctCachesDuplicates(t *testing.T) {
	e, _ := newEngine(t, WithPolicy(ChargeDistinct))
	pl := e.Player(0)
	a := pl.Probe(5)
	b := pl.Probe(5)
	pl.Probe(6)
	if a != b {
		t.Fatal("cached probe returned different value")
	}
	if got := e.Charged(0); got != 2 {
		t.Fatalf("ChargeDistinct charged %d, want 2", got)
	}
	if got := e.Invoked(0); got != 3 {
		t.Fatalf("Invoked = %d, want 3", got)
	}
}

func TestChargesIsolatedPerPlayer(t *testing.T) {
	e, _ := newEngine(t)
	e.Player(0).Probe(1)
	e.Player(1).Probe(1)
	e.Player(1).Probe(2)
	if e.Charged(0) != 1 || e.Charged(1) != 2 {
		t.Fatalf("charges: %d, %d", e.Charged(0), e.Charged(1))
	}
	if e.TotalCharged() != 3 {
		t.Fatalf("TotalCharged = %d", e.TotalCharged())
	}
}

func TestSnapshotAndMaxDelta(t *testing.T) {
	e, _ := newEngine(t)
	snap := e.Snapshot(nil)
	e.Player(0).Probe(1)
	e.Player(0).Probe(2)
	e.Player(1).Probe(1)
	if d := e.MaxDelta(snap); d != 2 {
		t.Fatalf("MaxDelta = %d, want 2", d)
	}
	snap = e.Snapshot(snap)
	if d := e.MaxDelta(snap); d != 0 {
		t.Fatalf("MaxDelta after snapshot = %d", d)
	}
}

func TestFlipNoiseAlways(t *testing.T) {
	e, in := newEngine(t, WithNoise(FlipNoise(1.0)))
	pl := e.Player(2)
	for o := 0; o < 20; o++ {
		if pl.Probe(o) != 1-in.Grade(2, o) {
			t.Fatal("FlipNoise(1.0) did not flip")
		}
	}
}

func TestFlipNoiseRate(t *testing.T) {
	e, in := newEngine(t, WithNoise(FlipNoise(0.25)))
	pl := e.Player(0)
	flips := 0
	for o := 0; o < 64; o++ {
		if pl.Probe(o) != in.Grade(0, o) {
			flips++
		}
	}
	if flips == 0 || flips == 64 {
		t.Fatalf("FlipNoise(0.25) flipped %d/64", flips)
	}
}

func TestNoiseDeterministicAcrossRuns(t *testing.T) {
	mk := func() []byte {
		in := prefs.Planted(4, 32, 0.5, 2, 7)
		b := billboard.New(in.N, in.M)
		e := NewEngine(in, b, rng.NewSource(9), WithNoise(FlipNoise(0.5)))
		var out []byte
		for o := 0; o < 32; o++ {
			out = append(out, e.Player(1).Probe(o))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("noise not reproducible at %d", i)
		}
	}
}

func TestConcurrentProbing(t *testing.T) {
	in := prefs.Planted(32, 128, 0.5, 4, 3)
	b := billboard.New(in.N, in.M)
	e := NewEngine(in, b, rng.NewSource(2))
	var wg sync.WaitGroup
	for p := 0; p < in.N; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pl := e.Player(p)
			for o := 0; o < in.M; o++ {
				if pl.Probe(o) != in.Grade(p, o) {
					t.Errorf("wrong grade for %d,%d", p, o)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if e.TotalCharged() != int64(in.N*in.M) {
		t.Fatalf("TotalCharged = %d", e.TotalCharged())
	}
	if b.ProbeCount() != int64(in.N*in.M) {
		t.Fatalf("board ProbeCount = %d", b.ProbeCount())
	}
}

// postLog is a board that logs every probe result posted to it, in
// order, and forwards it.
type postLog struct {
	boardclient.Interface

	mu    sync.Mutex
	posts []posted
}

// posted is one probe result a board was handed.
type posted struct {
	player, object int
	grade          byte
}

func (l *postLog) PostProbe(p, o int, val byte) {
	l.mu.Lock()
	l.posts = append(l.posts, posted{p, o, val})
	l.mu.Unlock()
	l.Interface.PostProbe(p, o, val)
}

func (l *postLog) PostProbes(p int, objs []int, grades []byte) {
	l.mu.Lock()
	for k, o := range objs {
		l.posts = append(l.posts, posted{p, o, grades[k]})
	}
	l.mu.Unlock()
	l.Interface.PostProbes(p, objs, grades)
}

// count returns how many times (p, o) was posted, and its first grade.
func (l *postLog) count(p, o int) (n int, first byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.posts {
		if r.player == p && r.object == o {
			if n == 0 {
				first = r.grade
			}
			n++
		}
	}
	return n, first
}

// batchLog is a postLog that also takes batches, so that
// boardclient.Defer holds the engine's posts for it. A batch's probe
// runs are logged and applied as PostProbes calls.
type batchLog struct{ *postLog }

func (b batchLog) PostBatch(posts []boardclient.Post, reads []boardclient.Read) {
	for _, p := range posts {
		if p.Kind == boardclient.ProbesPost {
			b.PostProbes(p.Player, p.Objs, p.Grades)
		}
	}
	boardclient.ReadAll(b.Interface, reads)
}

// TestProbePostsEachObjectOnce: a player's repeated Probe and ProbeMany
// calls post each object once, with its first grade, while Charged and
// Invoked count every call.
func TestProbePostsEachObjectOnce(t *testing.T) {
	in := prefs.Planted(4, 64, 0.5, 2, 7)
	log := &postLog{Interface: billboard.New(in.N, in.M)}
	e := NewEngine(in, log, rng.NewSource(1))
	pl := e.Player(1)
	dst := make([]uint32, 3)
	pl.Probe(5)
	pl.Probe(5)
	pl.ProbeMany([]int{5, 6, 7}, dst)
	pl.ProbeMany([]int{6, 7, 8}, dst)
	pl.Probe(8)
	pl.Probe(9)
	for o := 5; o <= 9; o++ {
		if n, g := log.count(1, o); n != 1 || g != in.Grade(1, o) {
			t.Errorf("object %d posted %d times with first grade %d, want once with %d", o, n, g, in.Grade(1, o))
		}
	}
	if got := e.Charged(1); got != 10 {
		t.Errorf("Charged = %d, want 10", got)
	}
	if got := e.Invoked(1); got != 10 {
		t.Errorf("Invoked = %d, want 10", got)
	}
	// Another player's probe of the same object is its own first post.
	e.Player(2).Probe(5)
	if n, _ := log.count(2, 5); n != 1 {
		t.Errorf("player 2's probe of object 5 posted %d times, want 1", n)
	}
}

// TestNoisyRepeatKeepsFirstGrade: under noise a repeat can return
// another grade than the first probe did; it is not posted, and the
// board holds the first returned grade.
func TestNoisyRepeatKeepsFirstGrade(t *testing.T) {
	in := prefs.Planted(2, 8, 0.5, 2, 7)
	log := &postLog{Interface: billboard.New(in.N, in.M)}
	e := NewEngine(in, log, rng.NewSource(3), WithNoise(FlipNoise(0.5)))
	pl := e.Player(0)
	first := pl.Probe(4)
	flipped := false
	for i := 0; i < 64 && !flipped; i++ {
		flipped = pl.Probe(4) != first
	}
	if !flipped {
		t.Fatal("64 repeats under FlipNoise(0.5) all returned the first grade")
	}
	if n, g := log.count(0, 4); n != 1 || g != first {
		t.Fatalf("object posted %d times with grade %d, want once with %d", n, g, first)
	}
	if v, ok := e.Board().LookupProbe(0, 4); !ok || v != first {
		t.Fatalf("board holds %d (%v), want the first returned grade %d", v, ok, first)
	}
}

// TestNewEnginePostsAgain: the posted set belongs to one engine, so a
// second engine over the same board posts its players' results again.
func TestNewEnginePostsAgain(t *testing.T) {
	in := prefs.Planted(2, 8, 0.5, 2, 7)
	log := &postLog{Interface: billboard.New(in.N, in.M)}
	for run := 1; run <= 2; run++ {
		pl := NewEngine(in, log, rng.NewSource(1)).Player(0)
		pl.Probe(3)
		pl.Probe(3)
		if n, _ := log.count(0, 3); n != run {
			t.Fatalf("after engine %d, object posted %d times, want %d", run, n, run)
		}
	}
}

// TestDeferredFlushesCarryEachObjectOnce: over boardclient.Defer, the
// flushes of a run carry each (player, object) once, even when the
// player probes it again after a flush.
func TestDeferredFlushesCarryEachObjectOnce(t *testing.T) {
	in := prefs.Planted(4, 64, 0.5, 2, 7)
	log := &postLog{Interface: billboard.New(in.N, in.M)}
	e := NewEngine(in, batchLog{log}, rng.NewSource(1))
	view, ok := e.Board().(interface{ Flush() })
	if !ok {
		t.Fatalf("engine board %T is not a deferred view", e.Board())
	}
	dst := make([]uint32, 4)
	for round := 0; round < 3; round++ {
		for p := 0; p < in.N; p++ {
			pl := e.Player(p)
			pl.Probe(p)
			pl.Probe(p)
			pl.ProbeMany([]int{10, 11, 12, 20 + p}, dst)
		}
		view.Flush()
	}
	for p := 0; p < in.N; p++ {
		for _, o := range []int{p, 10, 11, 12, 20 + p} {
			if n, g := log.count(p, o); n != 1 || g != in.Grade(p, o) {
				t.Errorf("player %d object %d sent %d times with first grade %d, want once with %d", p, o, n, g, in.Grade(p, o))
			}
		}
		if got := e.Charged(p); got != 3*6 {
			t.Errorf("player %d charged %d, want %d", p, got, 3*6)
		}
	}
	if len(log.posts) != in.N*5 {
		t.Errorf("%d probe results sent, want %d", len(log.posts), in.N*5)
	}
}

// TestChargeDistinctReadsSharedBoard: ChargeDistinct reads the board,
// not the engine's posted set, so a second engine charges nothing for
// an object the first one posted and returns the first engine's grade.
func TestChargeDistinctReadsSharedBoard(t *testing.T) {
	in := prefs.Planted(2, 8, 0.5, 2, 7)
	board := billboard.New(in.N, in.M)
	first := NewEngine(in, board, rng.NewSource(1), WithNoise(FlipNoise(1)))
	posted := first.Player(0).Probe(2) // the flipped grade
	second := NewEngine(in, board, rng.NewSource(1), WithPolicy(ChargeDistinct))
	pl := second.Player(0)
	if got := pl.Probe(2); got != posted {
		t.Fatalf("second engine read %d, want the first engine's %d", got, posted)
	}
	if got := second.Charged(0); got != 0 {
		t.Fatalf("second engine charged %d for a posted object, want 0", got)
	}
	if got := pl.Probe(3); got != in.Grade(0, 3) {
		t.Fatalf("unposted object read %d, want the truth %d", got, in.Grade(0, 3))
	}
	if got := second.Charged(0); got != 1 {
		t.Fatalf("second engine charged %d, want 1 for its one new object", got)
	}
}

// probeSink keeps BenchmarkProbe's results live.
var probeSink byte

// BenchmarkProbe times one Probe by a player of an object it has not
// probed (fresh), whose result goes to the board, and of one it has
// (repeat), which the engine does not post; each over the in-memory
// board and over boardclient.Defer of a Batcher, which holds posts.
func BenchmarkProbe(b *testing.B) {
	const m = 1 << 16
	in := prefs.Planted(4, m, 0.5, 4, 3)
	for _, bd := range []struct {
		name  string
		board func() boardclient.Interface
	}{
		{"board", func() boardclient.Interface { return billboard.New(in.N, in.M) }},
		{"defer", func() boardclient.Interface { return batchLog{&postLog{Interface: billboard.New(in.N, in.M)}} }},
	} {
		b.Run("fresh/"+bd.name, func(b *testing.B) {
			var pl *Player
			for i := 0; i < b.N; i++ {
				if i&(m-1) == 0 {
					// A new board and engine every m probes, so every
					// probe is the player's first of its object.
					b.StopTimer()
					pl = NewEngine(in, bd.board(), rng.NewSource(2)).Player(0)
					b.StartTimer()
				}
				probeSink = pl.Probe(i & (m - 1))
			}
		})
		b.Run("repeat/"+bd.name, func(b *testing.B) {
			pl := NewEngine(in, bd.board(), rng.NewSource(2)).Player(0)
			for o := 0; o < m; o++ {
				pl.Probe(o)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probeSink = pl.Probe(i & (m - 1))
			}
		})
	}
}
