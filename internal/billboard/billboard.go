// Package billboard implements the shared public billboard of the model:
// the only communication medium between players.
//
// The paper's model lets every player post the result of each probe and
// read everything others posted, for free. Algorithms additionally post
// intermediate output vectors (e.g. the recursive outputs of ZeroRadius)
// under named topics, and count votes over them.
//
// # Concurrency model
//
// The board is safe for concurrent use: n player goroutines post and
// read simultaneously during each simulated phase.
//
// Probe results live in dense per-player rows: a packed value plane
// and a packed known plane of m bits each (the model's grades are
// binary; non-zero grades are stored as 1). A post sets the value bit
// before publishing the known bit, and both planes are accessed with
// atomic word operations, so rows need no lock at all: the atomic
// publish of the known bit is the happens-before edge a concurrent
// reader needs, and the model guarantees a player's probe results are
// written only by that player's goroutine. First post wins; duplicate
// posts of the same (player, object) pair are no-ops. A player gets its
// row on its first post, so the board costs a 4-byte row index per
// player plus 2·m/8 bytes per player that has posted, allocated in
// chunks of about 64 KiB; a player with no row reads as never probed.
// Only a first post takes a lock. See DESIGN.md for the trade-off
// against a sparse map.
//
// Topic postings use a two-level lock (board map, then per-topic). Each
// topic carries an epoch counter, bumped under the topic lock on every
// post, which stamps TopicSnapshot's answers. Votes, ValueVotes and
// PopularVectors tally the topic on every call: one serial grouping
// pass over its postings, under the topic lock. A tally shares its
// vectors with the postings, so callers must not modify the vectors
// inside. Tallies and posting snapshots stay valid after their topic is
// dropped: a drop leaves the topic's storage to the garbage collector,
// and nothing reuses it.
package billboard

import (
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tellme/internal/arena"
	"tellme/internal/bitvec"
	"tellme/internal/telemetry"
)

// Interface is the billboard surface the algorithms depend on. *Board
// is the in-memory implementation; netboard.Cluster speaks the same
// interface against one or more remote billboard servers, so the same
// algorithm code runs in-process or distributed. The paper's billboard
// is reliable shared memory, so no method returns an error: a remote
// board that cannot reach its server panics instead.
type Interface interface {
	// PostProbe records that player p's probe of object o revealed val.
	PostProbe(p, o int, val byte)
	// LookupProbe returns p's posted grade for o, if posted.
	LookupProbe(p, o int) (byte, bool)
	// ProbedObjects returns a copy of the object→grade map posted by p.
	ProbedObjects(p int) map[int]byte
	// ForEachProbe calls fn for every (object, grade) posted by p, in
	// ascending object order, without allocating.
	ForEachProbe(p int, fn func(o int, grade byte))
	// PostProbes records a batch of probe results for player p:
	// grades[k] is p's grade for objs[k]. An object may repeat within
	// one call, as when a player re-probes it; its first grade stands.
	// Equivalent to calling PostProbe per pair, in order, but a remote
	// implementation ships the whole batch in one round trip.
	PostProbes(p int, objs []int, grades []byte)
	// LookupProbes looks up p's posted grades for objs, filling
	// grades[k] and known[k] per object (grades[k] is meaningful only
	// when known[k] is true). Equivalent to calling LookupProbe per
	// object, but batchable over a network transport.
	LookupProbes(p int, objs []int, grades []byte, known []bool)
	// ProbeCount returns the number of distinct probe results posted.
	ProbeCount() int64

	// Post publishes a partial vector by player under the named topic.
	Post(name string, player int, v bitvec.Partial)
	// PostVector publishes a total vector under the named topic.
	PostVector(name string, player int, v bitvec.Vector)
	// Postings returns a snapshot of the topic's vector postings.
	Postings(name string) []Posting
	// Votes tallies the topic's vector postings deterministically.
	// Callers must not modify the vectors in the result.
	Votes(name string) []Vote
	// PopularVectors returns vectors with at least minVotes supporters.
	PopularVectors(name string, minVotes int) []bitvec.Partial

	// PostValues publishes a generic value vector under the topic.
	PostValues(name string, player int, vals []uint32)
	// ValuePostings returns a snapshot of the topic's value postings.
	ValuePostings(name string) []ValuePosting
	// ValueVotes tallies the topic's value postings deterministically.
	// Callers must not modify the value vectors in the result.
	ValueVotes(name string) []ValueVote

	// DropTopic removes a topic and its postings.
	DropTopic(name string)
	// TopicCount returns the number of live topics.
	TopicCount() int
	// VectorPostCount returns the total number of topic postings.
	VectorPostCount() int64
}

// Board is a shared billboard for n players and m objects.
type Board struct {
	n, m int

	// Probe rows, handed out on each player's first post. rows[p] is
	// p's row number plus one (0: p has never posted). Row r lives in
	// chunks[r>>chunkShift] at offset (r&chunkMask)·2·words: words
	// words of value plane, then words words of known plane. A chunk
	// is stored, under rowMu, before the first row index that points
	// into it, and readers reach a chunk only through an index they
	// loaded atomically: that index's atomic store publishes the chunk.
	rows       []atomic.Uint32
	chunks     [][]atomic.Uint64
	words      int
	chunkShift uint32
	chunkMask  uint32
	rowMu      sync.Mutex // taken only by a first post
	nrows      int        // rows handed out, guarded by rowMu

	mu     sync.RWMutex
	topics map[string]*topic
	// Folded stats of dropped topics, guarded by mu; see topicStats.
	dropped      topicStats
	droppedPosts map[string]int64 // by topic kind
	// kindSeen tracks topic kinds already registered with the current
	// registry (guarded by mu), so topicFor touches the registry only
	// on the first topic of each kind, not on every creation.
	kindSeen map[string]bool

	probePosts  atomic.Int64
	vectorPosts atomic.Int64
	topicGen    atomic.Uint64

	tel boardTelemetry
}

// boardTelemetry holds the board's resolved instruments. All fields are
// nil when telemetry is disabled; every instrument method is
// nil-receiver-safe, so the hot paths call them unconditionally.
type boardTelemetry struct {
	reg    *telemetry.Registry
	topics *telemetry.Gauge // live topic count
}

// SetTelemetry attaches a telemetry registry to the board (nil
// detaches; a previously attached registry keeps sampling the board).
// Every counter on the posting and tally paths is sampled at snapshot
// time from state the board already maintains — its own atomic post
// totals and the per-topic stats guarded by each topic lock — so the
// hot paths never touch a shared telemetry cache line. Call before the
// board is shared between goroutines.
func (b *Board) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		b.tel = boardTelemetry{}
		b.mu.Lock()
		b.kindSeen = nil
		b.mu.Unlock()
		return
	}
	b.tel = boardTelemetry{
		reg:    reg,
		topics: reg.Gauge("billboard.topics"),
	}
	reg.CounterFunc("billboard.probe.posts", b.ProbeCount)
	reg.CounterFunc("billboard.vector.posts", b.VectorPostCount)
	reg.CounterFunc("billboard.tally.rebuilds", func() int64 { return b.topicStatTotals().rebuilds })
	reg.CounterFunc("billboard.tally.rebuild_ns", func() int64 { return b.topicStatTotals().rebuildNs })
	b.tel.topics.Set(int64(b.TopicCount()))
	// Per-kind post counters for kinds already seen (live topics or
	// dropped-but-counted ones); later kinds register as their first
	// topic is created.
	kinds := make(map[string]bool)
	b.mu.Lock()
	for name := range b.topics {
		kinds[topicKind(name)] = true
	}
	for kind := range b.droppedPosts {
		kinds[kind] = true
	}
	b.kindSeen = kinds
	b.mu.Unlock()
	for kind := range kinds {
		b.registerKindFunc(reg, kind)
	}
}

// topicKind maps a topic name to its bounded-cardinality telemetry
// label: the prefix before the '#' sequence number of Env.freshTag
// ("zr#17" → "zr"), or the whole name when untagged.
func topicKind(name string) string {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		return name[:i]
	}
	return name
}

// registerKindFunc exposes "billboard.posts.<kind>" as a sampled
// counter: the sum of postings over the kind's live topics plus the
// folded totals of dropped ones. Idempotent (re-registering installs an
// equivalent closure). Must be called without b.mu held — the closure
// read-locks it at snapshot time, and the registry lock is held around
// sampling, so taking them in the opposite order would deadlock.
func (b *Board) registerKindFunc(reg *telemetry.Registry, kind string) {
	reg.CounterFunc("billboard.posts."+kind, func() int64 {
		b.mu.RLock()
		defer b.mu.RUnlock()
		n := b.droppedPosts[kind]
		for name, t := range b.topics {
			if topicKind(name) != kind {
				continue
			}
			t.mu.Lock()
			n += t.stats.posts
			t.mu.Unlock()
		}
		return n
	})
}

// topicStatTotals sums the per-topic stats over live topics plus the
// folded totals of dropped ones.
func (b *Board) topicStatTotals() topicStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	tot := b.dropped
	for _, t := range b.topics {
		t.mu.Lock()
		tot.fold(t.stats)
		t.mu.Unlock()
	}
	return tot
}

// topic holds one topic's postings. epoch counts mutations, and gen is
// a board-unique creation stamp, so a (gen, epoch) pair identifies topic
// content even across DropTopic + re-create (a recreated topic restarts
// at epoch 0 but gets a fresh gen, so a caller holding the dropped
// topic's stamp never reads it as unchanged).
type topic struct {
	mu       sync.Mutex
	gen      uint64
	postings []Posting
	values   []ValuePosting
	// valSlab backs the copies PostValues makes: per-topic slab blocks
	// instead of one heap allocation per posting. Guarded by mu (a slab
	// is not concurrency-safe on its own); the memory is released
	// wholesale when the topic is dropped and its last reader lets go.
	valSlab arena.Slab[uint32]
	stats   topicStats // guarded by mu

	// retired marks a handle whose topic was dropped from the registry.
	// Name-based posting re-resolves when it finds the flag set, so a
	// post that lost the race with DropTopic lands in the live registry
	// instead of orphaned storage. TopicRef-based posting ignores the
	// flag (refs must not outlive their phase; see TopicRef).
	retired bool

	epoch uint64
}

// votes tallies the topic's vector postings, charging stats. Caller
// holds t.mu.
func (t *topic) votes() []Vote {
	start := time.Now()
	out := tallyVotes(t.postings)
	t.stats.rebuilds++
	t.stats.rebuildNs += time.Since(start).Nanoseconds()
	return out
}

// valVotes is votes for value postings. Caller holds t.mu.
func (t *topic) valVotes() []ValueVote {
	start := time.Now()
	out := tallyValueVotes(t.values)
	t.stats.rebuilds++
	t.stats.rebuildNs += time.Since(start).Nanoseconds()
	return out
}

// topicStats are the per-topic bookkeeping counts behind the board's
// sampled telemetry counters. Plain ints on purpose: the hot paths
// update them while already holding the topic lock exclusively, so
// counting adds no shared cache-line traffic; board-wide totals are
// summed only at telemetry snapshot time (and folded into
// Board.dropped when a topic is dropped, keeping the sampled counters
// monotone).
type topicStats struct {
	posts     int64 // vector + value postings
	rebuilds  int64 // tallies computed
	rebuildNs int64 // wall time spent in tallies
}

func (s *topicStats) fold(o topicStats) {
	s.posts += o.posts
	s.rebuilds += o.rebuilds
	s.rebuildNs += o.rebuildNs
}

// Posting is one vector posted by one player under a topic.
type Posting struct {
	Player int
	Vec    bitvec.Partial
}

// Vote aggregates identical postings under a topic.
type Vote struct {
	Vec    bitvec.Partial
	Count  int
	Voters []int
}

// probeChunkBytes is the size a chunk of probe rows aims at: small
// enough that a shard writing a few of a large fleet's players holds
// little beyond their rows, large enough that first posts rarely
// allocate.
const probeChunkBytes = 64 << 10

// New returns an empty board for n players and m objects. It allocates
// the row index, not the rows: a player's row comes with its first
// post.
func New(n, m int) *Board {
	words := (m + 63) / 64
	// The largest power-of-two row count that fits the chunk size (at
	// least one row) and n.
	shift := uint(0)
	for 2<<shift*words*16 <= probeChunkBytes && 2<<shift <= n {
		shift++
	}
	per := 1 << shift
	return &Board{
		n: n, m: m,
		rows:       make([]atomic.Uint32, n),
		chunks:     make([][]atomic.Uint64, (n+per-1)/per),
		words:      words,
		chunkShift: uint32(shift),
		chunkMask:  uint32(per - 1),
		topics:     make(map[string]*topic),
	}
}

// row returns the chunk that holds p's probe row and the index of the
// row's first word in it, or a nil chunk when p has never posted. The
// row is words words of value plane, then words words of known plane.
// It must stay inlinable: LookupProbe and PostProbe call it once per
// probe, and handing back an index rather than two slices keeps their
// cost near a plain slice lookup.
func (b *Board) row(p int) ([]atomic.Uint64, int) {
	r := b.rows[p].Load()
	if r == 0 {
		return nil, 0
	}
	r--
	c := b.chunks[r>>(b.chunkShift&31)] // &31 spares a guard for shifts ≥ 32
	return c, int(r&b.chunkMask) * 2 * b.words
}

// planes returns p's value and known planes, both nil when p has never
// posted.
func (b *Board) planes(p int) (val, known []atomic.Uint64) {
	c, at := b.row(p)
	if c == nil {
		return nil, nil
	}
	return c[at : at+b.words], c[at+b.words : at+2*b.words]
}

// newRow gives p its probe row on p's first post and returns it as row
// does. The index is checked again under the lock, so two requests
// first-posting one player create one row.
func (b *Board) newRow(p int) ([]atomic.Uint64, int) {
	b.rowMu.Lock()
	defer b.rowMu.Unlock()
	if c, at := b.row(p); c != nil {
		return c, at
	}
	r := b.nrows
	if c := r >> b.chunkShift; b.chunks[c] == nil {
		// The last chunk holds only the rows left below n.
		rows := min(int(b.chunkMask)+1, b.n-r)
		b.chunks[c] = make([]atomic.Uint64, rows*2*b.words)
	}
	b.nrows++
	b.rows[p].Store(uint32(r + 1))
	return b.row(p)
}

// N returns the number of players the board was created for.
func (b *Board) N() int { return b.n }

// M returns the number of objects the board was created for.
func (b *Board) M() int { return b.m }

// PostProbe records that player p's probe of object o revealed val.
// Grades are binary; a non-zero val is stored as 1. The first post for
// a (player, object) pair wins; duplicates are no-ops.
func (b *Board) PostProbe(p, o int, val byte) {
	c, at := b.row(p)
	if c == nil {
		c, at = b.newRow(p)
	}
	if postBit(c, at, b.words, o, val) {
		b.probePosts.Add(1)
	}
}

// postBit posts one grade into the row at c[at:] (planes of words
// words) and reports whether it was new. The duplicate check is
// authoritative: probe results for a player are posted only from its
// goroutine (single-writer contract), so no other writer can set the
// known bit between the Load and the Or. The Or's return value is
// deliberately unused — consuming it makes the compiler emit a CMPXCHG
// loop instead of a plain LOCK OR.
func postBit(c []atomic.Uint64, at, words, o int, grade byte) bool {
	mask := uint64(1) << (uint(o) & 63)
	w := o >> 6
	if uint(w) >= uint(words) {
		panic("billboard: object out of range") // not another row's word
	}
	known := &c[at+words+w]
	if known.Load()&mask != 0 {
		return false // duplicate
	}
	if grade != 0 {
		c[at+w].Or(mask)
	}
	known.Or(mask)
	return true
}

// LookupProbe returns player p's posted grade for object o, if posted.
func (b *Board) LookupProbe(p, o int) (byte, bool) {
	c, at := b.row(p)
	if c == nil {
		return 0, false
	}
	return lookupBit(c, at, b.words, o)
}

// lookupBit reads one grade from the row at c[at:], as postBit posts it.
func lookupBit(c []atomic.Uint64, at, words, o int) (byte, bool) {
	mask := uint64(1) << (uint(o) & 63)
	w := o >> 6
	if uint(w) >= uint(words) {
		panic("billboard: object out of range")
	}
	if c[at+words+w].Load()&mask == 0 {
		return 0, false
	}
	if c[at+w].Load()&mask != 0 {
		return 1, true
	}
	return 0, true
}

// ForEachProbe calls fn for every (object, grade) posted by p, in
// ascending object order. It performs no allocation; fn must not post
// probes for p reentrantly.
func (b *Board) ForEachProbe(p int, fn func(o int, grade byte)) {
	val, known := b.planes(p)
	for w := range known {
		k := known[w].Load()
		if k == 0 {
			continue
		}
		v := val[w].Load()
		base := w << 6
		for k != 0 {
			tz := bits.TrailingZeros64(k)
			o := base + tz
			g := byte(v >> uint(tz) & 1)
			fn(o, g)
			k &= k - 1
		}
	}
}

// ProbeTally tallies the probe planes column-wise: ones[o] counts the
// players whose posted grade for object o is 1 and total[o] the players
// with any posted grade for o, for every o < M(). ones and total are
// reused when they have capacity (pass nil to allocate). The rows are
// fed straight into a bit-plane set, so the tally runs word-parallel
// instead of bit-by-bit per player; players with no row add nothing and
// are skipped. The value plane is masked with the known plane so a
// concurrent half-published post (value bit stored, known bit not yet)
// never counts.
func (b *Board) ProbeTally(ones, total []int) ([]int, []int) {
	ps := bitvec.NewPlaneSet(b.m)
	w := b.words
	row := make([]uint64, 2*w)
	vr, kr := row[:w], row[w:]
	for p := range b.rows {
		val, known := b.planes(p)
		if known == nil {
			continue
		}
		for i := range kr {
			k := known[i].Load()
			kr[i] = k
			vr[i] = val[i].Load() & k
		}
		ps.AddBits(vr, kr)
	}
	return ps.TallyColumns(ones), ps.TallyKnown(total)
}

// ProbedObjects returns a copy of the object→grade map posted by p.
// Prefer ForEachProbe on hot paths; this allocates the map.
func (b *Board) ProbedObjects(p int) map[int]byte {
	out := make(map[int]byte)
	b.ForEachProbe(p, func(o int, g byte) { out[o] = g })
	return out
}

// PostProbes records a batch of probe results for player p; see
// Interface. It resolves p's row and charges ProbeCount once per batch;
// the point of the batch entry is that netboard ships it as one
// request. An empty batch gives p no row.
func (b *Board) PostProbes(p int, objs []int, grades []byte) {
	if len(objs) == 0 {
		return
	}
	c, at := b.row(p)
	if c == nil {
		c, at = b.newRow(p)
	}
	var posted int64
	for k, o := range objs {
		if postBit(c, at, b.words, o, grades[k]) {
			posted++
		}
	}
	if posted > 0 {
		// Skipped for an all-duplicate batch: the counter is one cache
		// line every posting goroutine writes.
		b.probePosts.Add(posted)
	}
}

// LookupProbes fills grades/known with p's posted results for objs;
// see Interface.
func (b *Board) LookupProbes(p int, objs []int, grades []byte, known []bool) {
	c, at := b.row(p)
	if c == nil {
		clear(grades[:len(objs)])
		clear(known[:len(objs)])
		return
	}
	for k, o := range objs {
		grades[k], known[k] = lookupBit(c, at, b.words, o)
	}
}

// ProbeCount returns the total number of distinct probe results posted.
func (b *Board) ProbeCount() int64 { return b.probePosts.Load() }

// VectorPostCount returns the total number of topic postings.
func (b *Board) VectorPostCount() int64 { return b.vectorPosts.Load() }

func (b *Board) topicFor(name string) *topic {
	b.mu.RLock()
	t, ok := b.topics[name]
	b.mu.RUnlock()
	if ok {
		return t
	}
	b.mu.Lock()
	if t, ok = b.topics[name]; ok {
		b.mu.Unlock()
		return t
	}
	t = &topic{gen: b.topicGen.Add(1)}
	// The value slab is write-once per topic (released wholesale on
	// drop), and its last block is rarely full. Capping the doubling at
	// 8192 uint32s (32 KiB) bounds that unused tail, which unbounded
	// doubling lets grow as large as everything posted before it.
	t.valSlab.SetMaxBlock(8192)
	b.topics[name] = t
	reg := b.tel.reg
	newKind := false
	var kind string
	if reg != nil {
		if kind = topicKind(name); !b.kindSeen[kind] {
			if b.kindSeen == nil {
				b.kindSeen = make(map[string]bool)
			}
			b.kindSeen[kind] = true
			newKind = true
		}
	}
	b.mu.Unlock()
	b.tel.topics.Add(1)
	if newKind {
		// Outside b.mu — see registerKindFunc.
		b.registerKindFunc(reg, kind)
	}
	return t
}

// growPostings returns s with room for at least n more postings: four
// times its capacity, at least 16. Topics routinely take dozens to
// hundreds of posts between drops, and append's power-of-two doubling
// from capacity 1 made posting the board's hottest allocation site
// under the recursive algorithms.
func growPostings[T any](s []T, n int) []T {
	ns := make([]T, len(s), max(len(s)+n, 4*cap(s), 16))
	copy(ns, s)
	return ns
}

// Post publishes a partial vector by player under the named topic.
func (b *Board) Post(name string, player int, v bitvec.Partial) {
	for {
		t := b.topicFor(name)
		t.mu.Lock()
		if t.retired {
			// The handle resolved before a concurrent drop committed;
			// re-resolve so the post is visible to later readers.
			t.mu.Unlock()
			continue
		}
		if len(t.postings) == cap(t.postings) {
			t.postings = growPostings(t.postings, 1)
		}
		t.postings = append(t.postings, Posting{Player: player, Vec: v})
		t.epoch++
		t.stats.posts++
		// Under the topic lock so VectorPostCount never under-reports a
		// posting already visible via Postings.
		b.vectorPosts.Add(1)
		t.mu.Unlock()
		return
	}
}

// PostVector publishes a total vector (lifted to a fully-known Partial).
func (b *Board) PostVector(name string, player int, v bitvec.Vector) {
	b.Post(name, player, bitvec.PartialOf(v))
}

// peekTopic looks a topic up without creating it: the read-only
// counterpart of topicFor. Reads of a topic nobody ever posted to (or
// that was dropped) must not resurrect an empty shell: a read that
// recreated it would leave a phantom topic that no drop follows.
func (b *Board) peekTopic(name string) (*topic, bool) {
	b.mu.RLock()
	t, ok := b.topics[name]
	b.mu.RUnlock()
	return t, ok
}

// Postings returns a snapshot of everything posted under the topic, in
// posting order. The result is a copy; callers may not mutate vectors.
func (b *Board) Postings(name string) []Posting {
	t, ok := b.peekTopic(name)
	if !ok {
		return nil
	}
	t.mu.Lock()
	out := append([]Posting(nil), t.postings...)
	t.mu.Unlock()
	return out
}

// Votes tallies the postings under a topic, grouping identical vectors.
// The result is sorted by descending count, ties broken by the vectors'
// lexicographic order, so it is deterministic regardless of posting
// order — every player computing Votes sees the same list, which the
// paper's vote-threshold steps require. Each call tallies afresh;
// callers must not modify the vectors, which the postings share.
func (b *Board) Votes(name string) []Vote {
	t, ok := b.peekTopic(name)
	if !ok {
		return []Vote{} // non-nil, like a created-but-unposted topic
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.votes()
}

// PopularVectors returns the distinct vectors posted under the topic by
// at least minVotes players, in the deterministic order of Votes.
func (b *Board) PopularVectors(name string, minVotes int) []bitvec.Partial {
	return PopularOf(b.Votes(name), minVotes)
}

// PopularOf is PopularVectors over a topic's tally votes: the vectors
// with at least minVotes voters, in the order of votes.
func PopularOf(votes []Vote, minVotes int) []bitvec.Partial {
	var out []bitvec.Partial
	for _, v := range votes {
		if v.Count >= minVotes {
			out = append(out, v.Vec)
		}
	}
	return out
}

// DropTopic removes a topic and its postings, releasing memory for
// phases that are complete. Dropping an absent topic is a no-op.
//
// The drop folds the topic's stats into the board totals so the
// sampled telemetry counters stay monotone across drops. It leaves the
// topic's storage to the garbage collector: postings and tallies read
// before the drop stay valid for as long as their reader holds them.
func (b *Board) DropTopic(name string) {
	b.mu.Lock()
	t, existed := b.topics[name]
	if !existed {
		b.mu.Unlock()
		return
	}
	t.mu.Lock()
	b.dropped.fold(t.stats)
	if t.stats.posts > 0 {
		if b.droppedPosts == nil {
			b.droppedPosts = make(map[string]int64)
		}
		b.droppedPosts[topicKind(name)] += t.stats.posts
	}
	t.retired = true
	t.mu.Unlock()
	delete(b.topics, name)
	b.mu.Unlock()
	b.tel.topics.Add(-1)
}

// TopicCount returns the number of live topics (for tests and stats).
func (b *Board) TopicCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.topics)
}

// ClearProbes removes player p's posted probe results for objs,
// decrementing ProbeCount for each result actually cleared. This is an
// administrative operation: the serving daemon frees a departed
// player's slot with it at an epoch boundary, before the slot's next
// holder posts. It must not race with p posting probes. The known bit
// is cleared before the value bit, so a concurrent reader never
// observes a half-cleared grade as posted. A player with no row has
// nothing to clear, and keeps no row; a cleared row stays p's.
func (b *Board) ClearProbes(p int, objs []int) {
	val, known := b.planes(p)
	if known == nil {
		return
	}
	var cleared int64
	for _, o := range objs {
		mask := uint64(1) << (uint(o) & 63)
		w := o >> 6
		// A compare-and-swap loop rather than And's result, which
		// go1.24.0 miscompiles on amd64 as it does Or's (see postBit):
		// exactly one of two concurrent clears counts a bit.
		for {
			old := known[w].Load()
			if old&mask == 0 {
				break
			}
			if known[w].CompareAndSwap(old, old&^mask) {
				cleared++
				break
			}
		}
		val[w].And(^mask)
	}
	if cleared > 0 {
		b.probePosts.Add(-cleared)
	}
}

// Err implements the failure-record half of the unified board-client
// contract (see internal/boardclient): the in-memory board has no
// transport and can never fail, so Err is always nil.
func (b *Board) Err() error { return nil }

// Failures implements the failure record; always 0 for the in-memory
// board.
func (b *Board) Failures() int64 { return 0 }

// ValuePosting is one generic value vector posted by one player. Value
// vectors arise when ZeroRadius runs over virtual objects whose "grades"
// are candidate indices rather than bits (Large Radius, Step 4).
type ValuePosting struct {
	Player int
	Vals   []uint32
}

// ValueVote aggregates identical value vectors under a topic.
type ValueVote struct {
	Vals   []uint32
	Count  int
	Voters []int
}

// PostValues publishes a generic value vector under the named topic.
// The slice is copied (into the topic's slab; one heap allocation per
// slab block, not per posting); callers may reuse it.
func (b *Board) PostValues(name string, player int, vals []uint32) {
	for !b.postValuesTo(b.topicFor(name), player, vals) {
		// Re-resolve: the handle lost a race with a drop (see Post).
	}
}

// TopicRef is a resolved handle to a live topic, letting a phase that
// posts once per player skip the registry lookup PostValues does on
// every post (see PostValuesBatchRef). A ref is only meaningful while
// its topic is live: posting through it after DropTopic lands in the
// dropped topic's orphaned storage, invisible to readers — refs must
// not outlive the phase they were resolved for.
type TopicRef struct{ t *topic }

// TopicRef resolves (creating if needed) the named topic to a handle.
func (b *Board) TopicRef(name string) TopicRef {
	return TopicRef{t: b.topicFor(name)}
}

// PostValuesBatchRef publishes one value vector per player — rows[i]
// by players[i] — under the topic, equivalent to calling PostValues
// for each pair in order but with a single lock acquisition, at most
// one growth of the posting array and one slab carve covering every
// copy. ZeroRadius posts each node's burst this way on an in-process
// board: with per-player posts, BenchmarkE1ZeroRadius allocated 8% more
// bytes and ran slower in 6 of 8 interleaved pairs on 2 vCPUs (median
// 1.16×).
// Nothing may read the topic between the individual posts being
// batched (the phase-barrier discipline already guarantees that for
// per-phase posting bursts), so readers cannot distinguish the batch
// from the per-post sequence.
func (b *Board) PostValuesBatchRef(r TopicRef, players []int, rows [][]uint32) {
	n := len(players)
	if n == 0 {
		return
	}
	t := r.t
	t.mu.Lock()
	if len(t.values)+n > cap(t.values) {
		t.values = growPostings(t.values, n)
	}
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	buf := t.valSlab.Raw(total) // fully overwritten below
	off := 0
	for i, p := range players {
		dst := buf[off : off+len(rows[i]) : off+len(rows[i])]
		copy(dst, rows[i])
		off += len(rows[i])
		t.values = append(t.values, ValuePosting{Player: p, Vals: dst})
	}
	t.epoch += uint64(n)
	t.stats.posts += int64(n)
	b.vectorPosts.Add(int64(n)) // under the lock; see Post
	t.mu.Unlock()
}

// postValuesTo appends one value posting under t, growing the posting
// array as Post does. It reports false without posting when t is a
// retired handle, and PostValues then re-resolves the name.
func (b *Board) postValuesTo(t *topic, player int, vals []uint32) bool {
	t.mu.Lock()
	if t.retired {
		t.mu.Unlock()
		return false
	}
	if len(t.values) == cap(t.values) {
		t.values = growPostings(t.values, 1)
	}
	t.values = append(t.values, ValuePosting{Player: player, Vals: t.valSlab.Copy(vals)})
	t.epoch++
	t.stats.posts++
	b.vectorPosts.Add(1) // under the lock; see Post
	t.mu.Unlock()
	return true
}

// ValuePostings returns a snapshot of the value vectors posted under the
// topic, in posting order.
func (b *Board) ValuePostings(name string) []ValuePosting {
	t, ok := b.peekTopic(name)
	if !ok {
		return nil
	}
	t.mu.Lock()
	out := append([]ValuePosting(nil), t.values...)
	t.mu.Unlock()
	return out
}

// ValueVotes tallies value-vector postings, sorted by descending count
// with ties broken by the vectors' lexicographic order (deterministic
// for every reader, like Votes). Each call tallies afresh; callers
// must not modify the value vectors, which the postings share.
func (b *Board) ValueVotes(name string) []ValueVote {
	t, ok := b.peekTopic(name)
	if !ok {
		return []ValueVote{} // non-nil, like a created-but-unposted topic
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.valVotes()
}

// TopicSnapshot returns the topic's identity stamp (gen, epoch) and,
// unless the caller's (sinceGen, sinceEpoch) already matches it, the
// vote tallies of both posting kinds, as Votes and ValueVotes compute
// them. unchanged reports a match, in which case the returned tallies
// are nil and the caller should keep whatever it fetched at that stamp.
// The stamp is comparable across DropTopic: a recreated topic has a
// fresh gen, so a copy kept under the old stamp can never be mistaken
// for current content. The zero stamp matches nothing, so it always
// brings the tallies; Votes and ValueVotes over the wire send it. This
// is the server half of netboard's snapshot read.
func (b *Board) TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []Vote, valVotes []ValueVote) {
	t, ok := b.peekTopic(name)
	if !ok {
		// An absent topic reads as the zero stamp and empty tallies,
		// non-nil as Votes and ValueVotes return them; real topics
		// always carry gen >= 1.
		return 0, 0, false, []Vote{}, []ValueVote{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	gen, epoch = t.gen, t.epoch
	if gen == sinceGen && epoch == sinceEpoch {
		return gen, epoch, true, nil, nil
	}
	return gen, epoch, false, t.votes(), t.valVotes()
}

func appendValsKey(buf []byte, vals []uint32) []byte {
	for _, v := range vals {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}

func lessVals(a, b []uint32) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

var _ Interface = (*Board)(nil)
