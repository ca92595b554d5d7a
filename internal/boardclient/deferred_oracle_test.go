package boardclient

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
)

// errSendFailed is what a flakyBatcher's failing send panics with.
var errSendFailed = fmt.Errorf("send failed")

// flakyBatcher is an in-memory board that takes batches and fails sends
// on a seeded schedule: a failing send panics before it applies
// anything, as a request that never reached the board does.
type flakyBatcher struct {
	*billboard.Board

	mu      sync.Mutex
	rng     *rand.Rand
	failing bool
	sent    int // batches applied
	failed  int // batches failed
}

func (b *flakyBatcher) PostBatch(posts []Post, reads []Read) {
	b.mu.Lock()
	fail := b.failing && b.rng.IntN(4) == 0
	if fail {
		b.failed++
	} else {
		b.sent++
	}
	b.mu.Unlock()
	// A send is in flight for a while: let the other goroutines post
	// and read meanwhile.
	runtime.Gosched()
	if fail {
		panic(errSendFailed)
	}
	applyPosts(b.Board, posts)
	ReadAll(b.Board, reads)
}

// stopFailing makes every later send succeed.
func (b *flakyBatcher) stopFailing() {
	b.mu.Lock()
	b.failing = false
	b.mu.Unlock()
}

// applyPosts makes the calls posts stand for on b, in order.
func applyPosts(b billboard.Interface, posts []Post) {
	for _, p := range posts {
		switch p.Kind {
		case ProbesPost:
			b.PostProbes(p.Player, p.Objs, p.Grades)
		case ValuesPost:
			b.PostValues(p.Topic, p.Player, p.Vals)
		case VectorPost:
			b.Post(p.Topic, p.Player, p.Vec)
		case DropPost:
			b.DropTopic(p.Topic)
		}
	}
}

// oracleWorker is one goroutine of TestDeferMatchesSequentialBoard. It
// owns players w, w+workers, … and its own topics, so no other worker's
// call changes what its reads answer.
type oracleWorker struct {
	t       *testing.T
	rng     *rand.Rand
	view    Interface
	own     *billboard.Board // a sequential board fed this worker's posts
	players []int
	topics  []string
	m       int
	posts   []func(billboard.Interface) // this worker's posts, in call order
	reads   int                         // reads that returned
}

// post makes one posting call on the view, and on own and in posts.
func (w *oracleWorker) post(call func(billboard.Interface)) {
	call(w.view)
	call(w.own)
	w.posts = append(w.posts, call)
}

// read makes one read on the view and on own, and checks that the
// view's answer, if its send did not fail, is own's. A read through
// the view sees every post the worker made before it.
func (w *oracleWorker) read(what string, answer func(b billboard.Interface) string) {
	var got string
	failed := func() (failed bool) {
		defer func() {
			if r := recover(); r != nil {
				if r != errSendFailed {
					panic(r)
				}
				failed = true
			}
		}()
		got = answer(w.view)
		return false
	}()
	if failed {
		return
	}
	w.reads++
	if want := answer(w.own); got != want {
		w.t.Errorf("%s read %s through the view, want %s", what, got, want)
	}
}

// objs returns k objects drawn with repeats from a few, so a probe run
// re-probes objects, and their random grades.
func (w *oracleWorker) objs(k int) ([]int, []byte) {
	objs, grades := make([]int, k), make([]byte, k)
	for i := range objs {
		objs[i], grades[i] = w.rng.IntN(w.m), byte(w.rng.IntN(2))
	}
	return objs, grades
}

func (w *oracleWorker) partial(n int) bitvec.Partial {
	v := bitvec.NewPartial(n)
	for i := 0; i < n; i++ {
		if c := w.rng.IntN(3); c < 2 {
			v.SetBit(i, byte(c))
		}
	}
	return v
}

// step makes one random call.
func (w *oracleWorker) step() {
	p := w.players[w.rng.IntN(len(w.players))]
	topic := w.topics[w.rng.IntN(len(w.topics))]
	switch c := w.rng.IntN(20); {
	case c < 4:
		o, g := w.rng.IntN(w.m), byte(w.rng.IntN(2))
		w.post(func(b billboard.Interface) { b.PostProbe(p, o, g) })
	case c < 7:
		objs, grades := w.objs(1 + w.rng.IntN(6))
		w.post(func(b billboard.Interface) { b.PostProbes(p, objs, grades) })
	case c < 9:
		vals := []uint32{uint32(w.rng.IntN(3)), uint32(w.rng.IntN(3))}
		w.post(func(b billboard.Interface) { b.PostValues(topic, p, vals) })
	case c < 10:
		v := w.partial(5)
		w.post(func(b billboard.Interface) { b.Post(topic, p, v) })
	case c < 11:
		v := w.partial(5).Fill(0)
		w.post(func(b billboard.Interface) { b.PostVector(topic, p, v) })
	case c < 12:
		w.post(func(b billboard.Interface) { b.DropTopic(topic) })
	case c < 13:
		o := w.rng.IntN(w.m)
		w.read("LookupProbe", func(b billboard.Interface) string { return fmt.Sprint(b.LookupProbe(p, o)) })
	case c < 14:
		objs, _ := w.objs(1 + w.rng.IntN(8))
		w.read("LookupProbes", func(b billboard.Interface) string {
			grades, known := make([]byte, len(objs)), make([]bool, len(objs))
			b.LookupProbes(p, objs, grades, known)
			return fmt.Sprint(grades, known)
		})
	case c < 15:
		w.read("ProbedObjects", func(b billboard.Interface) string { return fmt.Sprint(b.ProbedObjects(p)) })
	case c < 16:
		w.read("ForEachProbe", func(b billboard.Interface) string { return probeRow(b, p) })
	case c < 17:
		w.read("Postings/Votes", func(b billboard.Interface) string {
			return fmt.Sprint(b.Postings(topic), b.Votes(topic), b.PopularVectors(topic, 2))
		})
	case c < 18:
		w.read("ValuePostings/ValueVotes", func(b billboard.Interface) string {
			return fmt.Sprint(b.ValuePostings(topic), b.ValueVotes(topic))
		})
	case c < 19:
		w.read("TopicSnapshot", func(b billboard.Interface) string {
			_, _, unchanged, votes, vals := b.(Interface).TopicSnapshot(topic, 0, 0)
			return fmt.Sprint(unchanged, votes, vals)
		})
	default:
		objs, _ := w.objs(3)
		w.read("ReadAll", func(b billboard.Interface) string {
			reads := []Read{
				{Kind: ValuePostingsRead, Topic: topic},
				{Kind: LookupsRead, Player: p, Objs: objs, Grades: make([]byte, 3), Known: make([]bool, 3)},
				{Kind: PostingsRead, Topic: topic},
				{Kind: SnapshotRead, Topic: topic},
			}
			ReadAll(b.(Interface), reads)
			return fmt.Sprint(reads[0].ValuePostings, reads[1].Grades, reads[1].Known, reads[2].Postings, reads[3].Votes, reads[3].ValueVotes)
		})
	}
}

// probeRow renders p's probe results on b, in object order.
func probeRow(b billboard.Interface, p int) string {
	row := ""
	b.ForEachProbe(p, func(o int, grade byte) { row += fmt.Sprintf("%d:%d ", o, grade) })
	return row
}

// boardDiff describes how got differs from want in its probe rows,
// topics and tallies, or returns "" if it does not.
func boardDiff(got, want *billboard.Board, n int, topics []string) string {
	for p := 0; p < n; p++ {
		if g, w := probeRow(got, p), probeRow(want, p); g != w {
			return fmt.Sprintf("player %d probed %s, want %s", p, g, w)
		}
	}
	for _, name := range topics {
		g := fmt.Sprint(got.Postings(name), got.ValuePostings(name), got.Votes(name), got.ValueVotes(name))
		w := fmt.Sprint(want.Postings(name), want.ValuePostings(name), want.Votes(name), want.ValueVotes(name))
		if g != w {
			return fmt.Sprintf("topic %s holds %s, want %s", name, g, w)
		}
	}
	g := fmt.Sprint(got.ProbeCount(), got.TopicCount(), got.VectorPostCount())
	if w := fmt.Sprint(want.ProbeCount(), want.TopicCount(), want.VectorPostCount()); g != w {
		return fmt.Sprintf("probes, topics and postings %s, want %s", g, w)
	}
	return ""
}

// TestDeferMatchesSequentialBoard is the randomized oracle of the
// deferred view. Goroutines, each with its own players and topics, post
// probe runs that repeat objects, value and vector posts and drops
// through one view, and read through it, while the board under it
// fails sends on a seeded schedule. Every read that returns answers
// what a sequential in-memory board fed its goroutine's calls answers.
// The run ends with Flush, after which the board equals a sequential
// board fed every call, or with Take, after which it equals it once
// the taken posts are applied (run under -race).
func TestDeferMatchesSequentialBoard(t *testing.T) {
	const workers, playersEach, topicsEach, steps, m = 4, 2, 3, 400, 12
	const n = workers * playersEach
	for _, end := range []string{"Flush", "Take"} {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", end, seed), func(t *testing.T) {
				fb := &flakyBatcher{Board: billboard.New(n, m), rng: rand.New(rand.NewPCG(seed, 0)), failing: true}
				v := Defer(fb)
				ws := make([]*oracleWorker, workers)
				var topics []string
				for i := range ws {
					w := &oracleWorker{t: t, rng: rand.New(rand.NewPCG(seed, uint64(i+1))), view: v, own: billboard.New(n, m), m: m}
					for k := 0; k < playersEach; k++ {
						w.players = append(w.players, i+k*workers)
					}
					for k := 0; k < topicsEach; k++ {
						w.topics = append(w.topics, fmt.Sprintf("w%d/t%d", i, k))
					}
					topics = append(topics, w.topics...)
					ws[i] = w
				}
				var wg sync.WaitGroup
				for _, w := range ws {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for range steps {
							w.step()
						}
					}()
				}
				wg.Wait()
				reads := 0
				for _, w := range ws {
					reads += w.reads
				}
				if fb.failed == 0 || reads == 0 {
					t.Fatalf("%d sends failed and %d reads returned; the run proves nothing", fb.failed, reads)
				}

				fb.stopFailing()
				if end == "Flush" {
					v.(interface{ Flush() }).Flush()
				} else {
					sent := fb.sent
					applyPosts(fb.Board, v.(interface{ Take() []Post }).Take())
					v.(interface{ Flush() }).Flush()
					if fb.sent != sent {
						t.Fatal("a flush after Take sent a batch")
					}
				}
				want := billboard.New(n, m)
				for _, w := range ws {
					for _, call := range w.posts {
						call(want)
					}
				}
				if diff := boardDiff(fb.Board, want, n, topics); diff != "" {
					t.Errorf("after %s: %s", end, diff)
				}
			})
		}
	}
}
