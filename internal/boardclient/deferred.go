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
	// grade for Objs[k]. A deferred view's run holds each object once;
	// a post made otherwise may repeat one, and its first grade stands.
	Objs   []int
	Grades []byte
	// Topic names the topic of a ValuesPost, a VectorPost or a
	// DropPost.
	Topic string
	Vals  []uint32
	Vec   bitvec.Partial
}

// The parts of Post.sizeBound: postBound covers field names, the
// player and the list punctuation, objBound one probe result (an object
// of 10 digits plus a separator, and its grade).
const (
	postBound = 128
	objBound  = 12
)

// sizeBound is an upper bound on the post's encoded size under either
// wire codec. JSON is the larger one: a topic byte escapes to at most 6
// bytes, a value to 10 digits plus a separator, a vector coordinate to
// one character.
func (p *Post) sizeBound() int {
	return postBound + 6*len(p.Topic) + objBound*len(p.Objs) + 11*len(p.Vals) + p.Vec.Len()
}

// ReadKind says which read of Interface a Read stands for.
type ReadKind uint8

const (
	// PostingsRead is Postings(Topic).
	PostingsRead ReadKind = iota
	// ValuePostingsRead is ValuePostings(Topic).
	ValuePostingsRead
	// SnapshotRead is TopicSnapshot(Topic, SinceGen, SinceEpoch); Votes
	// and ValueVotes are snapshot reads with the zero stamp.
	SnapshotRead
	// LookupsRead is LookupProbes(Player, Objs, Grades, Known).
	LookupsRead
)

// Read is one board read held as data, so a remote board can answer
// many of them, and the posts held before them, in one request. The
// caller sets the fields of its Kind; the board fills in the answer.
type Read struct {
	Kind  ReadKind
	Topic string
	// SinceGen and SinceEpoch are a SnapshotRead's stamp.
	SinceGen, SinceEpoch uint64
	// Player and Objs name a LookupsRead's probe results. Its answer
	// goes into Grades and Known, which the caller sizes like Objs.
	Player int
	Objs   []int
	Grades []byte
	Known  []bool

	// The answer of a PostingsRead, a ValuePostingsRead or a
	// SnapshotRead, as the call it stands for returns it.
	Postings      []billboard.Posting
	ValuePostings []billboard.ValuePosting
	Gen, Epoch    uint64
	Unchanged     bool
	Votes         []billboard.Vote
	ValueVotes    []billboard.ValueVote
}

// sizeBound is an upper bound on the read's encoded size, as
// Post.sizeBound is for a post.
func (r *Read) sizeBound() int {
	return postBound + 6*len(r.Topic) + objBound*len(r.Objs)
}

// readFrom answers r with the one call of b it stands for.
func (r *Read) readFrom(b Interface) {
	switch r.Kind {
	case PostingsRead:
		r.Postings = b.Postings(r.Topic)
	case ValuePostingsRead:
		r.ValuePostings = b.ValuePostings(r.Topic)
	case SnapshotRead:
		r.Gen, r.Epoch, r.Unchanged, r.Votes, r.ValueVotes = b.TopicSnapshot(r.Topic, r.SinceGen, r.SinceEpoch)
	case LookupsRead:
		b.LookupProbes(r.Player, r.Objs, r.Grades, r.Known)
	}
}

// Batcher is the optional batch interface of a board whose posts and
// reads are round trips: netboard.Cluster sends a batch as one request
// per shard. PostBatch applies the posts as if they were made one by
// one, in order, and then answers the reads in order, each from the
// board as it stands after the posts. The in-memory Board does not
// implement it, and it is deliberately not part of Interface, so
// wrappers that embed an Interface keep posting and reading call by
// call.
type Batcher interface {
	PostBatch(posts []Post, reads []Read)
}

// ReadAll answers reads from b, in order, each as the call it stands
// for would. On a deferred view (Defer) they travel with the view's
// held batch, and on a Batcher as one batch; any other board, the
// in-memory Board included, answers them one call each.
func ReadAll(b Interface, reads []Read) {
	switch v := b.(type) {
	case *deferred:
		v.readAll(reads)
	case Batcher:
		v.PostBatch(nil, reads)
	default:
		for i := range reads {
			reads[i].readFrom(b)
		}
	}
}

// flushBytes is the largest batch, by Post.sizeBound, that a deferred
// view holds: a post that would take the held batch past it sends the
// batch first. Half the request-body cap, so every request stays under
// it unless a single post alone exceeds this bound.
const flushBytes = wire.MaxBodyBytes / 2

// Defer returns a view of b whose posts wait for the next read, when
// b is a Batcher; otherwise it returns b unchanged. This is the phase
// contract of the paper's round-synchronous model made into fewer
// round trips: a post only has to be visible to the reads after it, so
// posts travel with the next read, which costs no request of its own.
// A DropTopic is held the same way, in order with the posts, so the
// drop of a topic nothing reads any more travels with them. A topic
// read or a probe lookup through the view (see ReadAll) takes the held
// batch with it, as one batch: b applies the posts and then answers
// the read. Every other call — ProbedObjects, ForEachProbe, the
// counters — flushes first and then goes straight to b. Either way a
// read sees every post and drop made before it. Flushes, and reads
// that carry held posts, run one at a time, which keeps that true at
// any parallelism; a read with nothing held waits only for a flush
// already sending. Err and Failures report b's record without
// flushing: a held post has not failed yet.
//
// Posts are copied, so callers may reuse their slices at once. A
// player's PostProbe and PostProbes calls since the last send are held
// as one ProbesPost, the player's run, which keeps each object once, at
// its first grade, in call order: the board keeps an object's first
// grade, so a repeat would change nothing there. A batch that grows
// past flushBytes is sent early; see flushBytes. What is still held
// when no read follows goes out with the view's Flush method, which
// core calls at the end of a run.
//
// A post that fails for good is reported by the flush or read that
// sends it: the call panics with b's error, and the batch it took goes
// back into the view, ahead of anything held since. Take empties the
// view without sending, for a caller that sends the held batch
// elsewhere, as core's abort path does.
func Defer(b Interface) Interface {
	bt, ok := b.(Batcher)
	if !ok {
		return b
	}
	return &deferred{b: b, batch: bt, runs: make(map[int]*probeRun)}
}

type deferred struct {
	b     Interface
	batch Batcher

	// flushMu serializes flushes and the reads that carry held posts:
	// a read waits for any flush already sending, so it never overtakes
	// a post made before it that another goroutine's flush took.
	flushMu sync.Mutex

	mu      sync.Mutex
	pending []Post
	size    int               // sizeBound total of pending
	runs    map[int]*probeRun // player → its open probe run
	last    *probeRun         // the run addProbes found or opened last
}

// probeRun is a player's open probe run: the ProbesPost at pending[at]
// and the set of objects it holds, kept beside the post so that Post
// stays plain data.
type probeRun struct {
	player, at int
	objs       []uint64 // bit o is set when the run holds object o
}

// holds reports whether the run holds object o.
func (r *probeRun) holds(o int) bool {
	w := o >> 6
	return o >= 0 && w < len(r.objs) && r.objs[w]&(1<<(o&63)) != 0
}

// add puts object o into the run's set. A negative o stays out, so the
// board gets it and rejects it.
func (r *probeRun) add(o int) {
	if o < 0 {
		return
	}
	w := o >> 6
	if w >= len(r.objs) {
		r.objs = append(r.objs, make([]uint64, w+1-len(r.objs))...)
	}
	r.objs[w] |= 1 << (o & 63)
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

// addProbes adds player p's probe results to p's run, the one
// ProbesPost that holds p's probes since the last send, and opens the
// run with p's first. The run keeps each object once, at its first
// grade, in call order, and only a kept object counts toward
// flushBytes. The board ends the same: it applies a run in order and
// keeps an object's first grade. An object that would take the held
// batch past flushBytes sends the batch first, and the rest open a new
// run. Only the run's place among the other posts differs from call
// order, and no read can tell: probe posts of different players, and
// probe and topic posts, touch disjoint board state.
func (d *deferred) addProbes(p int, objs []int, grades []byte) {
	d.mu.Lock()
	r := d.runOf(p)
	for k := 0; k < len(objs); {
		o := objs[k]
		if r != nil && r.holds(o) {
			k++
			continue
		}
		n := objBound
		if r == nil {
			n += postBound
		}
		if d.size != 0 && d.size+n > flushBytes {
			d.mu.Unlock()
			d.Flush()
			d.mu.Lock()
			r = d.runOf(p)
			continue
		}
		if r == nil {
			r = d.open(p)
		}
		r.add(o)
		run := &d.pending[r.at]
		run.Objs = append(run.Objs, o)
		run.Grades = append(run.Grades, grades[k])
		d.size += n
		k++
	}
	d.mu.Unlock()
}

// runOf returns p's open probe run, or nil. A player makes its probes
// one call after another, so the last run found is the likely one, and
// it is checked before the map.
func (d *deferred) runOf(p int) *probeRun {
	if r := d.last; r != nil && r.player == p {
		return r
	}
	r := d.runs[p]
	if r != nil {
		d.last = r
	}
	return r
}

// open opens p's probe run at the end of the held batch.
func (d *deferred) open(p int) *probeRun {
	r := &probeRun{player: p, at: len(d.pending)}
	d.pending = append(d.pending, Post{Kind: ProbesPost, Player: p})
	d.runs[p] = r
	d.last = r
	return r
}

// take empties the held batch and returns it with its sizeBound
// total.
func (d *deferred) take() ([]Post, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	posts, size := d.pending, d.size
	d.pending, d.size = nil, 0
	clear(d.runs)
	d.last = nil
	return posts, size
}

// Flush sends every post held so far and returns when the board has
// them.
func (d *deferred) Flush() {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	if posts, size := d.take(); len(posts) > 0 {
		d.send(posts, size, nil)
	}
}

// Take empties the held batch without sending it and returns it. It
// waits for a flush already sending, so a batch whose send fails is
// back in the view first and Take returns it too.
func (d *deferred) Take() []Post {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	posts, _ := d.take()
	return posts
}

// send sends posts, taken from the held batch with sizeBound total
// size, followed by reads. A send that fails puts posts back ahead of
// anything held since, and panics on.
func (d *deferred) send(posts []Post, size int, reads []Read) {
	sent := false
	defer func() {
		if !sent {
			d.putBack(posts, size)
		}
	}()
	d.batch.PostBatch(posts, reads)
	sent = true
}

// putBack returns posts to the front of the held batch. The probe runs
// held since keep their place among the held posts; a player whose run
// came back opens a new run with its next probes.
func (d *deferred) putBack(posts []Post, size int) {
	if len(posts) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range d.runs {
		r.at += len(posts)
	}
	d.pending = append(posts, d.pending...)
	d.size += size
}

// readAll sends reads with the held batch. Only a read that carries
// held posts keeps flushMu while it is in flight; one with nothing held
// releases it at once, so such reads run concurrently. Reads that
// would take the batch past flushBytes let it go first on its own.
func (d *deferred) readAll(reads []Read) {
	n := 0
	for i := range reads {
		n += reads[i].sizeBound()
	}
	d.flushMu.Lock()
	posts, size := d.take()
	if len(posts) == 0 {
		d.flushMu.Unlock()
		d.batch.PostBatch(nil, reads)
		return
	}
	defer d.flushMu.Unlock()
	if size+n > flushBytes {
		d.send(posts, size, nil)
		posts, size = nil, 0
	}
	d.send(posts, size, reads)
}

// read answers one read through readAll.
func (d *deferred) read(r Read) Read {
	reads := [1]Read{r}
	d.readAll(reads[:])
	return reads[0]
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
	var grade [1]byte
	var known [1]bool
	d.LookupProbes(p, []int{o}, grade[:], known[:])
	return grade[0], known[0]
}

func (d *deferred) LookupProbes(p int, objs []int, grades []byte, known []bool) {
	d.read(Read{Kind: LookupsRead, Player: p, Objs: objs, Grades: grades, Known: known})
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
	return d.read(Read{Kind: PostingsRead, Topic: name}).Postings
}

func (d *deferred) Votes(name string) []billboard.Vote {
	return d.read(Read{Kind: SnapshotRead, Topic: name}).Votes
}

func (d *deferred) PopularVectors(name string, minVotes int) []bitvec.Partial {
	return billboard.PopularOf(d.Votes(name), minVotes)
}

func (d *deferred) ValuePostings(name string) []billboard.ValuePosting {
	return d.read(Read{Kind: ValuePostingsRead, Topic: name}).ValuePostings
}

func (d *deferred) ValueVotes(name string) []billboard.ValueVote {
	return d.read(Read{Kind: SnapshotRead, Topic: name}).ValueVotes
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
	r := d.read(Read{Kind: SnapshotRead, Topic: name, SinceGen: sinceGen, SinceEpoch: sinceEpoch})
	return r.Gen, r.Epoch, r.Unchanged, r.Votes, r.ValueVotes
}

func (d *deferred) Err() error      { return d.b.Err() }
func (d *deferred) Failures() int64 { return d.b.Failures() }
