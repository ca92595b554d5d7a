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
// post, and lazily caches its vote tally at a given epoch: Votes,
// ValueVotes and PopularVectors return the cached tally while the epoch
// is unchanged, so the n identical per-phase tallies of ZeroRadius and
// SmallRadius cost one tally instead of n. Cached tallies are immutable;
// callers must not modify the returned slices or the vectors inside.
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
// is the in-memory implementation; netboard.Client speaks the same
// interface against a remote billboard server, so the same algorithm
// code runs in-process or distributed.
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
	// Votes tallies the topic's vector postings deterministically. The
	// result is shared and immutable; callers must not modify it.
	Votes(name string) []Vote
	// PopularVectors returns vectors with at least minVotes supporters.
	PopularVectors(name string, minVotes int) []bitvec.Partial

	// PostValues publishes a generic value vector under the topic.
	PostValues(name string, player int, vals []uint32)
	// ValuePostings returns a snapshot of the topic's value postings.
	ValuePostings(name string) []ValuePosting
	// ValueVotes tallies the topic's value postings deterministically.
	// The result is shared and immutable; callers must not modify it.
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

	// valPool recycles value-posting storage across dropped topics; its
	// own leaf lock keeps it acquirable from under mu and topic locks.
	valPool valPool

	tel boardTelemetry
}

// valPool recycles the storage behind a dropped topic's value postings —
// the valSlab backing blocks and the []ValuePosting array — into the
// next topics created on the board. The recursive algorithms churn
// through thousands of short-lived topics per run with one posting
// burst each; without recycling, that storage is the board's dominant
// allocation and GC-pressure source.
//
// Only the value side is recycled. Vector postings (and their Votes
// tallies) may legitimately be retained by callers across a DropTopic —
// Refresh tallies a topic and drops it before consuming the votes — so
// their storage is left to the garbage collector. Value-side snapshots
// (ValuePostings, ValueVotes) must not be read after their topic is
// dropped: the memory is reused, in keeping with DropTopic's "phases
// that are complete" contract.
//
// The pool is bounded (element counts below); beyond the caps, retiring
// storage falls through to the GC as before.
// Both sides are bucketed by floor-log2 size class: bucket c holds
// entries of size [2^c, 2^(c+1)), so a request of min elements is
// satisfied by any entry in bucket ceil-log2(min) or above, found in
// O(#buckets). When min is not a power of two, bucket floor-log2(min)
// may hold entries that fit too — an exact-fit array retired by a
// topic of the same size lands there — so its most recent entries are
// checked first. Plain LIFO with a shallow scan was tried first and
// missed ~2/3 of requests once big and tiny blocks interleaved.
type valPool struct {
	mu      sync.Mutex
	blocks  [32][][]uint32 // retired valSlab blocks, LIFO per class
	blockEl int            // total elements across blocks
	arrays  [32][][]ValuePosting
	arrayEl int // total capacity across arrays
}

const (
	valPoolMaxBlockEl = 1 << 21 // 8 MiB of uint32 block storage
	valPoolMaxArrayEl = 1 << 17 // ~4 MiB of ValuePosting array storage
)

// valPoolClass returns the bucket whose every entry has size ≥ n (for
// taking); put files an entry of size n under bits.Len(n)-1 so entries
// land where that holds.
func valPoolClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// valPoolFitScan is how many of the most recent entries of bucket
// floor-log2(min) a take checks for one of size ≥ min.
const valPoolFitScan = 8

// poolTake removes and returns an entry of size ≥ min from buckets, or
// nil. size is the entry's usable size (length for blocks, capacity
// for arrays). Caller holds the pool lock.
func poolTake[T any](buckets *[32][][]T, min int, size func([]T) int) []T {
	lo := valPoolClass(min)
	if c := bits.Len(uint(min)) - 1; c >= 0 && c < lo {
		bucket := buckets[c]
		for i := len(bucket) - 1; i >= 0 && i >= len(bucket)-valPoolFitScan; i-- {
			if e := bucket[i]; size(e) >= min {
				last := len(bucket) - 1
				bucket[i], bucket[last] = bucket[last], nil
				buckets[c] = bucket[:last]
				return e
			}
		}
	}
	for c := lo; c < len(buckets); c++ {
		if bucket := buckets[c]; len(bucket) > 0 {
			e := bucket[len(bucket)-1]
			bucket[len(bucket)-1] = nil
			buckets[c] = bucket[:len(bucket)-1]
			return e
		}
	}
	return nil
}

// NextBlock implements arena.BlockSource for the topics' value slabs:
// it returns a retired block of at least min elements, or nil to let
// the slab allocate fresh.
func (p *valPool) NextBlock(min int) []uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	blk := poolTake(&p.blocks, min, func(b []uint32) int { return len(b) })
	p.blockEl -= len(blk)
	return blk
}

// takeArray returns a retired posting array with capacity ≥ min
// (length reset to 0), or nil.
func (p *valPool) takeArray(min int) []ValuePosting {
	p.mu.Lock()
	defer p.mu.Unlock()
	arr := poolTake(&p.arrays, min, func(a []ValuePosting) int { return cap(a) })
	p.arrayEl -= cap(arr)
	return arr
}

// put retires a topic's value storage into the pool, dropping whatever
// exceeds the caps.
func (p *valPool) put(blocks [][]uint32, arr []ValuePosting) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, blk := range blocks {
		if len(blk) == 0 || p.blockEl+len(blk) > valPoolMaxBlockEl {
			continue
		}
		c := bits.Len(uint(len(blk))) - 1
		p.blocks[c] = append(p.blocks[c], blk)
		p.blockEl += len(blk)
	}
	if cap(arr) > 0 && p.arrayEl+cap(arr) <= valPoolMaxArrayEl {
		// Entries keep stale Vals pointers into the pooled blocks; both
		// sides are reused together, so nothing leaks past the caps.
		c := bits.Len(uint(cap(arr))) - 1
		p.arrays[c] = append(p.arrays[c], arr[:0])
		p.arrayEl += cap(arr)
	}
}

// growValues moves t's value postings into an array with capacity of
// at least need, taken from the pool when one fits. Caller holds t.mu.
func (b *Board) growValues(t *topic, need int) {
	nv := b.valPool.takeArray(need)
	if nv == nil {
		nv = make([]ValuePosting, 0, need)
	}
	nv = nv[:len(t.values)]
	copy(nv, t.values)
	t.values = nv
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
	reg.CounterFunc("billboard.tally.cache_hits", func() int64 { return b.topicStatTotals().tallyHits })
	reg.CounterFunc("billboard.tally.rebuilds", func() int64 { return b.topicStatTotals().rebuilds })
	reg.CounterFunc("billboard.tally.rebuild_ns", func() int64 { return b.topicStatTotals().rebuildNs })
	reg.CounterFunc("billboard.tally.par_rebuilds", func() int64 { return b.topicStatTotals().parRebuilds })
	reg.CounterFunc("billboard.snapshot.unchanged", func() int64 { return b.topicStatTotals().snapUnch })
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

// topic holds one topic's postings plus its lazily cached vote tallies.
// epoch counts mutations; votesAt/valVotesAt record the epoch at which
// the corresponding cached tally was computed (^0 = never). gen is a
// board-unique creation stamp, so a (gen, epoch) pair identifies topic
// content even across DropTopic + re-create (a recreated topic restarts
// at epoch 0 but gets a fresh gen, which keeps remote snapshot caches
// from mistaking it for the dropped one).
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

	epoch      uint64
	votesAt    uint64
	votes      []Vote
	valVotesAt uint64
	valVotes   []ValueVote
}

// rebuildVotes recomputes the vector-vote cache at the current epoch,
// charging stats. Caller holds t.mu.
func (t *topic) rebuildVotes() {
	start := time.Now()
	t.votes = tallyVotes(t.postings)
	t.votesAt = t.epoch
	t.stats.rebuilds++
	t.stats.rebuildNs += time.Since(start).Nanoseconds()
	if len(t.postings) >= tallyParallelThreshold && tallyWorkers() > 1 {
		t.stats.parRebuilds++
	}
}

// rebuildValVotes is rebuildVotes for value postings. Caller holds t.mu.
func (t *topic) rebuildValVotes() {
	start := time.Now()
	t.valVotes = tallyValueVotes(t.values)
	t.valVotesAt = t.epoch
	t.stats.rebuilds++
	t.stats.rebuildNs += time.Since(start).Nanoseconds()
	if len(t.values) >= tallyParallelThreshold && tallyWorkers() > 1 {
		t.stats.parRebuilds++
	}
}

// topicStats are the per-topic bookkeeping counts behind the board's
// sampled telemetry counters. Plain ints on purpose: the hot paths
// update them while already holding the topic lock exclusively, so
// counting adds no shared cache-line traffic; board-wide totals are
// summed only at telemetry snapshot time (and folded into
// Board.dropped when a topic is dropped, keeping the sampled counters
// monotone).
type topicStats struct {
	posts       int64 // vector + value postings
	tallyHits   int64 // Votes/ValueVotes served from the epoch cache
	rebuilds    int64 // tally rebuilds (cache invalidated by a post)
	rebuildNs   int64 // wall time spent in tally rebuilds
	parRebuilds int64 // rebuilds that took the parallel grouping path
	snapUnch    int64 // TopicSnapshot "unchanged" answers
}

func (s *topicStats) fold(o topicStats) {
	s.posts += o.posts
	s.tallyHits += o.tallyHits
	s.rebuilds += o.rebuilds
	s.rebuildNs += o.rebuildNs
	s.parRebuilds += o.parRebuilds
	s.snapUnch += o.snapUnch
}

const neverTallied = ^uint64(0)

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
	t = &topic{
		gen:        b.topicGen.Add(1),
		votesAt:    neverTallied,
		valVotesAt: neverTallied,
	}
	// The value slab is write-once per topic (released wholesale on
	// drop), so unbounded doubling would overshoot a busy topic's
	// footprint by up to 2× in eagerly-zeroed large blocks; 8192
	// uint32s keeps every block within the runtime's 32 KiB
	// small-object classes.
	t.valSlab.SetMaxBlock(8192)
	t.valSlab.SetSource(&b.valPool)
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

// growPostings quadruples a posting slice's capacity (minimum 16).
// Topics routinely take dozens to hundreds of posts between drops, and
// append's power-of-two doubling from capacity 1 made posting the
// board's hottest allocation site under the recursive algorithms.
func growPostings[T any](s []T) []T {
	c := 4 * cap(s)
	if c < 16 {
		c = 16
	}
	ns := make([]T, len(s), c)
	copy(ns, s)
	return ns
}

// HintPosts presizes the named topic's posting storage for `vectors`
// upcoming Post calls and `values` upcoming PostValues calls, so a
// known burst of posts (one per player of a ZeroRadius node, say) costs
// one exact-fit allocation instead of a growth sequence. Purely a
// capacity hint: it never shrinks, and posting beyond the hint just
// grows as usual.
func (b *Board) HintPosts(name string, vectors, values int) {
	t := b.topicFor(name)
	t.mu.Lock()
	if need := len(t.postings) + vectors; need > cap(t.postings) {
		np := make([]Posting, len(t.postings), need)
		copy(np, t.postings)
		t.postings = np
	}
	if need := len(t.values) + values; need > cap(t.values) {
		b.growValues(t, need)
	}
	t.mu.Unlock()
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
			t.postings = growPostings(t.postings)
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
// paper's vote-threshold steps require.
//
// The tally is cached per topic epoch: while no new posting arrives,
// every call returns the same immutable slice, computed once. Callers
// must not modify it.
func (b *Board) Votes(name string) []Vote {
	t, ok := b.peekTopic(name)
	if !ok {
		return []Vote{} // non-nil, like a created-but-unposted topic
	}
	t.mu.Lock()
	if t.votesAt != t.epoch {
		t.rebuildVotes()
	} else {
		t.stats.tallyHits++
	}
	out := t.votes
	t.mu.Unlock()
	return out
}

// PopularVectors returns the distinct vectors posted under the topic by
// at least minVotes players, in the deterministic order of Votes.
func (b *Board) PopularVectors(name string, minVotes int) []bitvec.Partial {
	var out []bitvec.Partial
	for _, v := range b.Votes(name) {
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
// sampled telemetry counters stay monotone across drops, then retires
// the topic's value storage into the pool. Value-side snapshots must
// not be read after the drop (see valPool); the vector side is
// deliberately left alone.
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
	blocks := t.valSlab.TakeBlocks()
	arr := t.values
	t.values, t.valVotes, t.valVotesAt = nil, nil, neverTallied
	t.retired = true
	t.mu.Unlock()
	b.valPool.put(blocks, arr)
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

// Err implements the degraded-mode half of the unified board-client
// contract (see internal/boardclient): the in-memory board has no
// transport and can never fail, so Err is always nil.
func (b *Board) Err() error { return nil }

// Failures implements the degraded-mode contract; always 0 for the
// in-memory board.
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
// for each pair in order but with a single lock acquisition and one
// slab carve covering every copy. Nothing may read the topic between
// the individual posts being batched (the phase-barrier discipline
// already guarantees that for per-phase posting bursts), so readers
// cannot distinguish the batch from the per-post sequence.
func (b *Board) PostValuesBatchRef(r TopicRef, players []int, rows [][]uint32) {
	n := len(players)
	if n == 0 {
		return
	}
	t := r.t
	t.mu.Lock()
	if need := len(t.values) + n; need > cap(t.values) {
		b.growValues(t, need)
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

// postValuesTo appends one value posting under t. It reports false
// without posting when t is a retired handle, and PostValues then
// re-resolves the name.
func (b *Board) postValuesTo(t *topic, player int, vals []uint32) bool {
	t.mu.Lock()
	if t.retired {
		t.mu.Unlock()
		return false
	}
	if len(t.values) == cap(t.values) {
		// growPostings' sizing, but from the pool: the per-post path
		// (the billboard server's) must recycle too.
		b.growValues(t, max(16, 4*cap(t.values)))
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
// for every reader, like Votes). Cached per topic epoch like Votes; the
// result is immutable and must not be modified.
func (b *Board) ValueVotes(name string) []ValueVote {
	t, ok := b.peekTopic(name)
	if !ok {
		return []ValueVote{} // non-nil, like a created-but-unposted topic
	}
	t.mu.Lock()
	if t.valVotesAt != t.epoch {
		t.rebuildValVotes()
	} else {
		t.stats.tallyHits++
	}
	out := t.valVotes
	t.mu.Unlock()
	return out
}

// TopicSnapshot returns the topic's identity stamp (gen, epoch) and,
// unless the caller's (sinceGen, sinceEpoch) already matches it, the
// cached vote tallies of both posting kinds. unchanged reports a match,
// in which case the returned tallies are nil and the caller should keep
// whatever it fetched at that stamp. The stamp is comparable across
// DropTopic: a recreated topic has a fresh gen, so a stale cache keyed
// by the old stamp can never be mistaken for current content. This is
// the server half of netboard's epoch-tagged snapshot endpoint; the
// returned tallies are the shared immutable epoch caches of Votes and
// ValueVotes.
func (b *Board) TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []Vote, valVotes []ValueVote) {
	t, ok := b.peekTopic(name)
	if !ok {
		// An absent topic reads as the zero stamp; real topics always
		// carry gen >= 1, so a caller holding the zero stamp sees it
		// unchanged and anything else refetches (empty) content.
		return 0, 0, sinceGen == 0 && sinceEpoch == 0, nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	gen, epoch = t.gen, t.epoch
	if gen == sinceGen && epoch == sinceEpoch {
		t.stats.snapUnch++
		return gen, epoch, true, nil, nil
	}
	if t.votesAt != t.epoch {
		t.rebuildVotes()
	} else {
		t.stats.tallyHits++
	}
	if t.valVotesAt != t.epoch {
		t.rebuildValVotes()
	} else {
		t.stats.tallyHits++
	}
	return gen, epoch, false, t.votes, t.valVotes
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
