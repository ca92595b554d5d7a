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
// Probe results live in dense per-player shards: a packed value plane
// and a packed known plane of m bits each (the model's grades are
// binary; non-zero grades are stored as 1). A post sets the value bit
// before publishing the known bit, and both planes are accessed with
// atomic word operations, so shards need no lock at all: the atomic
// publish of the known bit is the happens-before edge a concurrent
// reader needs, and the model guarantees a player's probe results are
// written only by that player's goroutine. First post wins; duplicate
// posts of the same (player, object) pair are no-ops. The cost is Θ(m)
// bits per player up front instead of a sparse map that grows with the
// number of probes — see DESIGN.md for the trade-off threshold.
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
	"sort"
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

	probeShards []probeShard

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

// probeShard is one player's probe results as two packed bit planes.
// known[o] publishes that object o was probed; val[o] holds the grade.
// The value bit is set before the known bit, so any reader that
// observes known also observes the grade (atomic operations order the
// two stores).
type probeShard struct {
	val   []atomic.Uint64
	known []atomic.Uint64
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
	// post that lost the race with DropTopic/DropTopicIf lands in the
	// live registry instead of orphaned storage — the visibility
	// guarantee shard drains rely on. TopicRef-based posting ignores the
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

// New returns an empty board for n players and m objects.
func New(n, m int) *Board {
	words := (m + 63) / 64
	planes := make([]atomic.Uint64, 2*n*words)
	b := &Board{
		n: n, m: m,
		probeShards: make([]probeShard, n),
		topics:      make(map[string]*topic),
	}
	for i := range b.probeShards {
		b.probeShards[i].val = planes[2*i*words : (2*i+1)*words]
		b.probeShards[i].known = planes[(2*i+1)*words : (2*i+2)*words]
	}
	return b
}

// N returns the number of players the board was created for.
func (b *Board) N() int { return b.n }

// M returns the number of objects the board was created for.
func (b *Board) M() int { return b.m }

// PostProbe records that player p's probe of object o revealed val.
// Grades are binary; a non-zero val is stored as 1. The first post for
// a (player, object) pair wins; duplicates are no-ops.
func (b *Board) PostProbe(p, o int, val byte) {
	s := &b.probeShards[p]
	mask := uint64(1) << (uint(o) & 63)
	w := o >> 6
	if s.known[w].Load()&mask != 0 {
		return // duplicate
	}
	if val != 0 {
		s.val[w].Or(mask)
	}
	// The duplicate check above is authoritative: probe results for p are
	// posted only from p's goroutine (single-writer contract), so no other
	// writer can set the known bit between the Load and the Or. The Or's
	// return value is deliberately unused — consuming it makes the
	// compiler emit a CMPXCHG loop instead of a plain LOCK OR.
	s.known[w].Or(mask)
	b.probePosts.Add(1)
}

// LookupProbe returns player p's posted grade for object o, if posted.
func (b *Board) LookupProbe(p, o int) (byte, bool) {
	s := &b.probeShards[p]
	mask := uint64(1) << (uint(o) & 63)
	w := o >> 6
	if s.known[w].Load()&mask == 0 {
		return 0, false
	}
	if s.val[w].Load()&mask != 0 {
		return 1, true
	}
	return 0, true
}

// ForEachProbe calls fn for every (object, grade) posted by p, in
// ascending object order. It performs no allocation; fn must not post
// probes for p reentrantly.
func (b *Board) ForEachProbe(p int, fn func(o int, grade byte)) {
	s := &b.probeShards[p]
	for w := range s.known {
		k := s.known[w].Load()
		if k == 0 {
			continue
		}
		v := s.val[w].Load()
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
// reused when they have capacity (pass nil to allocate). The shards are
// fed straight into a bit-plane set, so the tally runs word-parallel
// instead of bit-by-bit per player; the value plane is masked with the
// known plane so a concurrent half-published post (value bit stored,
// known bit not yet) never counts.
func (b *Board) ProbeTally(ones, total []int) ([]int, []int) {
	ps := bitvec.NewPlaneSet(b.m)
	w := bitvec.WordsFor(b.m)
	row := make([]uint64, 2*w)
	vr, kr := row[:w], row[w:]
	for p := range b.probeShards {
		s := &b.probeShards[p]
		for i := range kr {
			k := s.known[i].Load()
			kr[i] = k
			vr[i] = s.val[i].Load() & k
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
// Interface. On the in-memory board a batch is just a loop — the point
// of the batch entry is that netboard ships it as one request.
func (b *Board) PostProbes(p int, objs []int, grades []byte) {
	for k, o := range objs {
		b.PostProbe(p, o, grades[k])
	}
}

// LookupProbes fills grades/known with p's posted results for objs;
// see Interface.
func (b *Board) LookupProbes(p int, objs []int, grades []byte, known []bool) {
	for k, o := range objs {
		grades[k], known[k] = b.LookupProbe(p, o)
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
// that was dropped) must not resurrect an empty shell — the cluster
// drain verifies a conditional drop by re-reading the topic, and a read
// that recreated it would leave a phantom topic on the donor forever.
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
func (b *Board) DropTopic(name string) {
	b.mu.Lock()
	t, existed := b.topics[name]
	if existed {
		t.mu.Lock()
		b.dropTopicLocked(name, t)
	}
	b.mu.Unlock()
	if existed {
		b.tel.topics.Add(-1)
	}
}

// DropTopicIf drops the topic only if it currently holds exactly nVec
// vector postings and nVal value postings, reporting whether it did.
// The check and the drop are atomic under the topic lock, so a posting
// that commits concurrently either makes the drop fail (it arrived
// before the check) or recreates the topic afterwards (visible to the
// next enumeration) — never vanishes with the drop. This is the
// primitive a shard drain needs: "drop what I replayed, and only if
// nothing arrived since I read it". Dropping an absent topic succeeds
// iff both expected counts are zero.
func (b *Board) DropTopicIf(name string, nVec, nVal int) bool {
	b.mu.Lock()
	t, existed := b.topics[name]
	if !existed {
		b.mu.Unlock()
		return nVec == 0 && nVal == 0
	}
	t.mu.Lock()
	if len(t.postings) != nVec || len(t.values) != nVal {
		t.mu.Unlock()
		b.mu.Unlock()
		return false
	}
	b.dropTopicLocked(name, t)
	b.mu.Unlock()
	b.tel.topics.Add(-1)
	return true
}

// dropTopicLocked completes a drop with b.mu and t.mu held; it releases
// t.mu. Folds the topic's stats into the board totals so the sampled
// telemetry counters stay monotone across drops, then retires the
// topic's value storage into the pool. Value-side snapshots must not be
// read after the drop (see valPool); the vector side is deliberately
// left alone.
func (b *Board) dropTopicLocked(name string, t *topic) {
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
}

// TopicCount returns the number of live topics (for tests and stats).
func (b *Board) TopicCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.topics)
}

// Topics returns the names of all live topics in sorted order — the
// enumeration a shard drain needs to move every topic it owns. The
// result is a fresh slice.
func (b *Board) Topics() []string {
	b.mu.RLock()
	out := make([]string, 0, len(b.topics))
	for name := range b.topics {
		out = append(out, name)
	}
	b.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ClearProbes removes player p's posted probe results for objs,
// decrementing ProbeCount for each result actually cleared. This is an
// administrative operation for resharding (probe results migrating to
// another shard are cleared from the donor after replay); it must not
// race with p posting probes — the reshard path runs on a quiescent
// cluster, which guarantees that. The known bit is cleared before the
// value bit, so a concurrent reader never observes a half-cleared
// grade as posted.
func (b *Board) ClearProbes(p int, objs []int) {
	s := &b.probeShards[p]
	var cleared int64
	for _, o := range objs {
		mask := uint64(1) << (uint(o) & 63)
		w := o >> 6
		if old := s.known[w].And(^mask); old&mask != 0 {
			cleared++
		}
		s.val[w].And(^mask)
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
