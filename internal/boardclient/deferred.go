package boardclient

import (
	"sync"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/wire"
)

// PostKind says which posting call of billboard.Interface a Post
// stands for.
type PostKind uint8

const (
	// ProbesPost is PostProbes(Player, Objs, Grades).
	ProbesPost PostKind = iota
	// ValuesPost is PostValues(Topic, Player, Vals).
	ValuesPost
	// VectorPost is Post(Topic, Player, Vec); PostVector lifts its
	// vector to a Partial first.
	VectorPost
	// DropPost is DropTopic(Topic).
	DropPost
)

// Post is one board mutation held as data, so a remote board can send
// many of them in one request. Only the fields of its Kind are set.
type Post struct {
	Kind   PostKind
	Player int
	// Objs and Grades are a ProbesPost's results: Grades[k] is the
	// grade for Objs[k]. An object may repeat; its first grade stands.
	Objs   []int
	Grades []byte
	// Topic names the topic of a ValuesPost, a VectorPost or a
	// DropPost.
	Topic string
	Vals  []uint32
	Vec   bitvec.Partial
}

// sizeBound is an upper bound on the post's encoded size under either
// wire codec. JSON is the larger one: a topic byte escapes to at most 6
// bytes, an object or value to 10 digits plus a separator, a vector
// coordinate to one character; the constant covers field names, the
// player and the list punctuation.
func (p *Post) sizeBound() int {
	return 128 + 6*len(p.Topic) + 12*len(p.Objs) + 11*len(p.Vals) + p.Vec.Len()
}

// Batcher is the optional batch-posting interface of a board whose
// posts are round trips: netboard.Cluster sends a batch as one request
// per shard. PostBatch applies the posts as if
// they were made one by one, in order. The in-memory Board does not
// implement it, and it is deliberately not part of Interface, so
// wrappers that embed an Interface keep posting call by call.
type Batcher interface {
	PostBatch(posts []Post)
}

// flushBytes is the largest batch, by Post.sizeBound, that a deferred
// view holds: a post that would take the held batch past it sends the
// batch first. Half the request-body cap, so every request stays under
// it unless a single post alone exceeds this bound.
const flushBytes = wire.MaxBodyBytes / 2

// Defer returns a view of b whose posts wait until its Flush method
// sends them, when b is a Batcher; otherwise it returns b unchanged.
// This is the phase contract of the paper's round-synchronous model
// made into fewer round trips: no player reads what another posted in
// the same phase, so a phase's posts may travel together at its
// barrier. A DropTopic is held the same way, in order with the posts,
// so the drop of a topic nothing reads any more travels with them.
// Every other call through the view — reads, the counters,
// TopicSnapshot — flushes first and then goes straight to b, so a read
// always sees every post and drop made before it. Flushes run one at a
// time, which keeps that true at any parallelism. Err and Failures
// report b's record without flushing: a held post has not failed yet.
//
// Posts are copied, so callers may reuse their slices at once. A
// player's PostProbe and PostProbes calls since the last flush are held
// as one ProbesPost, in call order. A batch that grows past flushBytes
// is sent early; see flushBytes.
//
// A post that fails for good is reported by the flush that sends it:
// the flush panics with b's error, or in degraded mode b records it.
func Defer(b Interface) Interface {
	bt, ok := b.(Batcher)
	if !ok {
		return b
	}
	return &deferred{b: b, batch: bt, runs: make(map[int]int)}
}

type deferred struct {
	b     Interface
	batch Batcher

	// flushMu serializes flushes: a read that flushes waits for any
	// flush already sending, so it never overtakes a post made before
	// it that another goroutine's flush took.
	flushMu sync.Mutex

	mu      sync.Mutex
	pending []Post
	size    int         // sizeBound total of pending
	runs    map[int]int // player → index in pending of its probe run
}

// add holds one value, vector or drop post, sending the held batch
// first when the post would take it past flushBytes.
func (d *deferred) add(p Post) {
	n := p.sizeBound()
	for {
		d.mu.Lock()
		if d.size == 0 || d.size+n <= flushBytes {
			d.pending = append(d.pending, p)
			d.size += n
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()
		d.Flush()
	}
}

// addProbes appends player p's probe results to p's run, the one
// ProbesPost that holds all of p's probes since the last flush in call
// order, opening it with p's first. A run that would take the held
// batch past flushBytes sends the batch first, and p's next probes
// open a new run. Only the run's place among the other posts differs
// from call order, and no read can tell: probe posts of different
// players, and probe and topic posts, touch disjoint board state.
func (d *deferred) addProbes(p int, objs []int, grades []byte) {
	for {
		d.mu.Lock()
		i, open := d.runs[p]
		n := (&Post{Objs: objs}).sizeBound()
		if open {
			n -= (&Post{}).sizeBound() // the run already counts its own part
		}
		if d.size == 0 || d.size+n <= flushBytes {
			if !open {
				i = len(d.pending)
				d.runs[p] = i
				d.pending = append(d.pending, Post{Kind: ProbesPost, Player: p})
			}
			run := &d.pending[i]
			run.Objs = append(run.Objs, objs...)
			run.Grades = append(run.Grades, grades...)
			d.size += n
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()
		d.Flush()
	}
}

// Flush sends every post held so far and returns when the board has
// them.
func (d *deferred) Flush() {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	d.mu.Lock()
	posts := d.pending
	d.pending, d.size = nil, 0
	clear(d.runs)
	d.mu.Unlock()
	if len(posts) > 0 {
		d.batch.PostBatch(posts)
	}
}

func (d *deferred) PostProbe(p, o int, val byte) {
	d.addProbes(p, []int{o}, []byte{val})
}

func (d *deferred) PostProbes(p int, objs []int, grades []byte) {
	if len(objs) == 0 {
		return
	}
	d.addProbes(p, objs, grades)
}

func (d *deferred) PostValues(name string, player int, vals []uint32) {
	d.add(Post{Kind: ValuesPost, Topic: name, Player: player, Vals: append([]uint32(nil), vals...)})
}

func (d *deferred) Post(name string, player int, v bitvec.Partial) {
	d.add(Post{Kind: VectorPost, Topic: name, Player: player, Vec: v})
}

func (d *deferred) PostVector(name string, player int, v bitvec.Vector) {
	d.Post(name, player, bitvec.PartialOf(v))
}

func (d *deferred) LookupProbe(p, o int) (byte, bool) {
	d.Flush()
	return d.b.LookupProbe(p, o)
}

func (d *deferred) LookupProbes(p int, objs []int, grades []byte, known []bool) {
	d.Flush()
	d.b.LookupProbes(p, objs, grades, known)
}

func (d *deferred) ProbedObjects(p int) map[int]byte {
	d.Flush()
	return d.b.ProbedObjects(p)
}

func (d *deferred) ForEachProbe(p int, fn func(o int, grade byte)) {
	d.Flush()
	d.b.ForEachProbe(p, fn)
}

func (d *deferred) ProbeCount() int64 {
	d.Flush()
	return d.b.ProbeCount()
}

func (d *deferred) Postings(name string) []billboard.Posting {
	d.Flush()
	return d.b.Postings(name)
}

func (d *deferred) Votes(name string) []billboard.Vote {
	d.Flush()
	return d.b.Votes(name)
}

func (d *deferred) PopularVectors(name string, minVotes int) []bitvec.Partial {
	d.Flush()
	return d.b.PopularVectors(name, minVotes)
}

func (d *deferred) ValuePostings(name string) []billboard.ValuePosting {
	d.Flush()
	return d.b.ValuePostings(name)
}

func (d *deferred) ValueVotes(name string) []billboard.ValueVote {
	d.Flush()
	return d.b.ValueVotes(name)
}

func (d *deferred) DropTopic(name string) {
	d.add(Post{Kind: DropPost, Topic: name})
}

func (d *deferred) TopicCount() int {
	d.Flush()
	return d.b.TopicCount()
}

func (d *deferred) VectorPostCount() int64 {
	d.Flush()
	return d.b.VectorPostCount()
}

func (d *deferred) TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []billboard.Vote, valVotes []billboard.ValueVote) {
	d.Flush()
	return d.b.TopicSnapshot(name, sinceGen, sinceEpoch)
}

func (d *deferred) Err() error      { return d.b.Err() }
func (d *deferred) Failures() int64 { return d.b.Failures() }
