package netboard

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
)

// ClusterConfig configures a Cluster.
type ClusterConfig struct {
	// Shards are the base URLs of the shard servers, e.g.
	// ["http://localhost:7070", "http://localhost:7071"]. At least one,
	// all distinct. Shard order defines shard indices (telemetry keys,
	// deterministic merge order); every process addressing the same
	// cluster must list the shards in the same order.
	Shards []string
	// VirtualNodes is the consistent-hash ring's per-shard virtual-node
	// count (<=0 means DefaultVirtualNodes).
	VirtualNodes int
	// Client configures the per-shard clients. TelemetryPrefix is used
	// as the *base*: shard i's instruments are keyed under
	// "<base>.shard<i>" (base defaults to "netboard.cluster"), so all
	// request/latency/retry counters come out keyed by shard. A nonzero
	// JitterSeed is decorrelated per shard, keeping runs reproducible
	// without synchronizing the shards' backoff schedules.
	Client Config
}

// Cluster implements boardclient.Interface over N shard servers,
// routing every key to its owner on a consistent-hash ring: topics by
// topic name, probe results by object. The same algorithm code that
// runs against an in-memory Board or a single Client runs against a
// Cluster unchanged.
//
// Batch operations are split by owning shard, the per-shard
// sub-batches dispatched concurrently over the batched wire protocol
// (each with the Client's idempotent request-id retries), and the
// results merged in deterministic order — LookupProbes answers land at
// their original indices, ForEachProbe k-way-merges the per-shard
// ascending streams — so a Cluster run is byte-identical to a
// single-board run of the same seeds.
//
// Failure semantics are the Client's, per shard: a terminal failure on
// any shard panics with its *TransportError unless Config.OnError is
// installed, in which case that shard's client goes degraded and
// Err/Failures aggregate across shards. A concurrent scatter that
// panics on several shards at once re-panics the lowest-indexed
// shard's value, deterministically.
//
// AddShard/RemoveShard reshard a quiescent cluster in place; see their
// docs for the (static-topology) contract.
type Cluster struct {
	cfg ClusterConfig

	// topoMu guards the (ring, clients) pair, swapped atomically by a
	// reshard. Board operations take the read lock only long enough to
	// snapshot the pair.
	topoMu  sync.RWMutex
	ring    *Ring
	clients []*Client
}

var _ boardclient.Interface = (*Cluster)(nil)
var _ boardclient.ContextBinder = (*Cluster)(nil)

// NewCluster builds a Cluster from cfg (see ClusterConfig for the
// validated defaults). The shard servers are not contacted.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("netboard: cluster needs at least one shard")
	}
	seen := make(map[string]bool, len(cfg.Shards))
	for _, u := range cfg.Shards {
		if u == "" {
			return nil, fmt.Errorf("netboard: empty shard URL")
		}
		if seen[u] {
			return nil, fmt.Errorf("netboard: duplicate shard URL %q", u)
		}
		seen[u] = true
	}
	cl := &Cluster{cfg: cfg}
	if cl.cfg.Client.HTTPClient == nil {
		// Resolve the pooled client ONCE and share it across shards (and
		// any shards added later): per-host pool limits apply per shard
		// server either way, but a shared transport keeps the process at
		// one coherent connection pool instead of len(Shards) of them.
		cl.cfg.Client.HTTPClient = cl.cfg.Client.PooledHTTPClient()
	}
	cl.ring = newRing(cfg.Shards, cfg.VirtualNodes)
	cl.clients = make([]*Client, len(cfg.Shards))
	for i, u := range cfg.Shards {
		cl.clients[i] = cl.shardClient(u, i)
	}
	return cl, nil
}

// shardClient builds shard i's client: the shared Config with the
// telemetry prefix specialized to the shard and the jitter seed
// decorrelated from the other shards'.
func (cl *Cluster) shardClient(baseURL string, i int) *Client {
	shardCfg := cl.cfg.Client
	base := shardCfg.TelemetryPrefix
	if base == "" {
		base = "netboard.cluster"
	}
	shardCfg.TelemetryPrefix = base + ".shard" + strconv.Itoa(i)
	if shardCfg.JitterSeed != 0 {
		// Same fixed seed on every shard would sync their backoff
		// schedules — exactly the stampede jitter exists to break.
		shardCfg.JitterSeed = decorrelate(shardCfg.JitterSeed, uint64(i))
	}
	return NewClientWithConfig(baseURL, shardCfg)
}

// decorrelate derives a distinct nonzero per-shard seed that also
// differs from the base seed itself. A bare golden-ratio shift is
// affine: shard i of seed s equals shard i+k of seed s−k·φ, so nearby
// seeds run their shard fleets on shifted copies of the same backoff
// schedule, and wraparound can hand a shard the base seed back — which
// a standalone client with the same configured seed is already using.
// Running the shifted value through the splitmix64 finalizer makes
// every (seed, shard) pair land pseudo-independently; the guards keep
// the result nonzero (zero means "seed randomly" downstream) and never
// the base seed (the standalone client's stream).
func decorrelate(seed, i uint64) uint64 {
	s := seed + (i+1)*0x9e3779b97f4a7c15 // golden-ratio stream separation
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 27
	s *= 0x94d049bb133111eb
	s ^= s >> 31
	if s == 0 || s == seed {
		s = seed ^ 0x74656c6c6d65 // "tellme"
		if s == 0 {
			s = 1
		}
	}
	return s
}

// topo snapshots the current (ring, clients) pair.
func (cl *Cluster) topo() (*Ring, []*Client) {
	cl.topoMu.RLock()
	defer cl.topoMu.RUnlock()
	return cl.ring, cl.clients
}

// Shards returns the current shard base URLs, in shard-index order.
func (cl *Cluster) Shards() []string {
	ring, _ := cl.topo()
	return append([]string(nil), ring.names...)
}

// objKey is the ring key of object o. Probes route by object (not by
// player): one object's column lives whole on one shard, and a
// player's probe batch splits across shards.
func objKey(o int) string { return "o/" + strconv.Itoa(o) }

// topicClient resolves the shard owning topic name.
func (cl *Cluster) topicClient(name string) *Client {
	ring, clients := cl.topo()
	return clients[ring.Owner(name)]
}

// scatter runs fn(k) for k in 0..n-1 concurrently and waits for all of
// them. Panics (a shard client's default failure mode) are captured
// per goroutine and the lowest-k panic is re-thrown on the caller, so
// concurrent shard failures surface deterministically and the
// WaitGroup barrier is never abandoned.
func scatter(n int, fn func(k int)) {
	if n == 1 {
		fn(0)
		return
	}
	panics := make([]any, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer func() { panics[k] = recover() }()
			fn(k)
		}(k)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// ── Probe operations (routed by object) ──────────────────────────────

// PostProbe implements billboard.Interface.
func (cl *Cluster) PostProbe(p, o int, val byte) { cl.postProbe(bg, p, o, val) }

func (cl *Cluster) postProbe(ctx context.Context, p, o int, val byte) {
	ring, clients := cl.topo()
	clients[ring.Owner(objKey(o))].postProbe(ctx, p, o, val)
}

// LookupProbe implements billboard.Interface.
func (cl *Cluster) LookupProbe(p, o int) (byte, bool) { return cl.lookupProbe(bg, p, o) }

func (cl *Cluster) lookupProbe(ctx context.Context, p, o int) (byte, bool) {
	ring, clients := cl.topo()
	return clients[ring.Owner(objKey(o))].lookupProbe(ctx, p, o)
}

// shardSplit partitions a batch's positions by owning shard:
// byShard[s] lists the batch indices owned by shard s, in batch order.
// Only shards with at least one index appear.
func shardSplit(ring *Ring, objs []int) map[int][]int {
	byShard := make(map[int][]int)
	for k, o := range objs {
		s := ring.Owner(objKey(o))
		byShard[s] = append(byShard[s], k)
	}
	return byShard
}

// shardList returns the shard indices of byShard in ascending order —
// the deterministic dispatch/merge order of a split batch.
func shardList[T any](byShard map[int]T) []int {
	out := make([]int, 0, len(byShard))
	for s := range byShard {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// PostProbes implements billboard.Interface: the batch is split by
// owning shard and the per-shard sub-batches are posted concurrently,
// each as one idempotent request.
func (cl *Cluster) PostProbes(p int, objs []int, grades []byte) { cl.postProbes(bg, p, objs, grades) }

func (cl *Cluster) postProbes(ctx context.Context, p int, objs []int, grades []byte) {
	if len(objs) == 0 {
		return
	}
	ring, clients := cl.topo()
	byShard := shardSplit(ring, objs)
	shards := shardList(byShard)
	scatter(len(shards), func(k int) {
		idx := byShard[shards[k]]
		subObjs := make([]int, len(idx))
		subGrades := make([]byte, len(idx))
		for j, i := range idx {
			subObjs[j] = objs[i]
			subGrades[j] = grades[i]
		}
		clients[shards[k]].postProbes(ctx, p, subObjs, subGrades)
	})
}

// LookupProbes implements billboard.Interface: split by shard, looked
// up concurrently, and each answer written back at its original batch
// index — the merged result is independent of shard completion order.
func (cl *Cluster) LookupProbes(p int, objs []int, grades []byte, known []bool) {
	cl.lookupProbes(bg, p, objs, grades, known)
}

func (cl *Cluster) lookupProbes(ctx context.Context, p int, objs []int, grades []byte, known []bool) {
	if len(objs) == 0 {
		return
	}
	ring, clients := cl.topo()
	byShard := shardSplit(ring, objs)
	shards := shardList(byShard)
	scatter(len(shards), func(k int) {
		idx := byShard[shards[k]]
		subObjs := make([]int, len(idx))
		for j, i := range idx {
			subObjs[j] = objs[i]
		}
		subGrades := make([]byte, len(idx))
		subKnown := make([]bool, len(idx))
		clients[shards[k]].lookupProbes(ctx, p, subObjs, subGrades, subKnown)
		for j, i := range idx {
			grades[i], known[i] = subGrades[j], subKnown[j]
		}
	})
}

// ProbedObjects implements billboard.Interface. Objects are
// partitioned across shards, so the per-shard maps are disjoint.
func (cl *Cluster) ProbedObjects(p int) map[int]byte { return cl.probedObjects(bg, p) }

func (cl *Cluster) probedObjects(ctx context.Context, p int) map[int]byte {
	out := make(map[int]byte)
	var mu sync.Mutex
	_, clients := cl.topo()
	scatter(len(clients), func(k int) {
		m := clients[k].probedObjects(ctx, p)
		mu.Lock()
		for o, g := range m {
			out[o] = g
		}
		mu.Unlock()
	})
	return out
}

// ForEachProbe implements billboard.Interface: the per-shard ascending
// (object, grade) streams are fetched concurrently and merged into one
// ascending iteration, matching the in-memory board's order exactly.
func (cl *Cluster) ForEachProbe(p int, fn func(o int, grade byte)) { cl.forEachProbe(bg, p, fn) }

func (cl *Cluster) forEachProbe(ctx context.Context, p int, fn func(o int, grade byte)) {
	_, clients := cl.topo()
	perShard := make([][]objGrade, len(clients))
	scatter(len(clients), func(k int) {
		perShard[k] = clients[k].probedPairs(ctx, p)
	})
	var all []objGrade
	for _, pairs := range perShard {
		all = append(all, pairs...)
	}
	// Shards partition objects, so objects are distinct and the sort is
	// a pure k-way merge of the per-shard ascending runs.
	sort.Slice(all, func(a, b int) bool { return all[a].Object < all[b].Object })
	for _, og := range all {
		fn(og.Object, og.Grade)
	}
}

// ProbeCount implements billboard.Interface: the sum over shards.
func (cl *Cluster) ProbeCount() int64 {
	return cl.sumStats(bg, func(s statsReply) int64 { return s.ProbeCount })
}

// ClearProbes removes player p's probe results for objs, each object
// routed to its owner shard (mirrors billboard.Board.ClearProbes and
// Client.ClearProbes, including the quiescence requirement). The
// serving daemon uses it to release a departed player's probe storage
// at an epoch boundary. Not part of boardclient.Interface.
func (cl *Cluster) ClearProbes(p int, objs []int) {
	if len(objs) == 0 {
		return
	}
	ring, clients := cl.topo()
	byShard := shardSplit(ring, objs)
	shards := shardList(byShard)
	scatter(len(shards), func(k int) {
		idx := byShard[shards[k]]
		sub := make([]int, len(idx))
		for j, i := range idx {
			sub[j] = objs[i]
		}
		clients[shards[k]].clearProbes(bg, p, sub)
	})
}

// ── Topic operations (routed by topic name) ──────────────────────────

// Post implements billboard.Interface.
func (cl *Cluster) Post(name string, player int, v bitvec.Partial) {
	cl.postTopic(bg, name, player, v)
}

func (cl *Cluster) postTopic(ctx context.Context, name string, player int, v bitvec.Partial) {
	cl.topicClient(name).postTopic(ctx, name, player, v)
}

// PostVector implements billboard.Interface.
func (cl *Cluster) PostVector(name string, player int, v bitvec.Vector) {
	cl.postTopic(bg, name, player, bitvec.PartialOf(v))
}

// Postings implements billboard.Interface.
func (cl *Cluster) Postings(name string) []billboard.Posting { return cl.postings(bg, name) }

func (cl *Cluster) postings(ctx context.Context, name string) []billboard.Posting {
	return cl.topicClient(name).postings(ctx, name)
}

// Votes implements billboard.Interface.
func (cl *Cluster) Votes(name string) []billboard.Vote { return cl.votes(bg, name) }

func (cl *Cluster) votes(ctx context.Context, name string) []billboard.Vote {
	return cl.topicClient(name).votes(ctx, name)
}

// PopularVectors implements billboard.Interface.
func (cl *Cluster) PopularVectors(name string, minVotes int) []bitvec.Partial {
	return cl.popularVectors(bg, name, minVotes)
}

func (cl *Cluster) popularVectors(ctx context.Context, name string, minVotes int) []bitvec.Partial {
	return cl.topicClient(name).popularVectors(ctx, name, minVotes)
}

// PostValues implements billboard.Interface.
func (cl *Cluster) PostValues(name string, player int, vals []uint32) {
	cl.postValues(bg, name, player, vals)
}

func (cl *Cluster) postValues(ctx context.Context, name string, player int, vals []uint32) {
	cl.topicClient(name).postValues(ctx, name, player, vals)
}

// ValuePostings implements billboard.Interface.
func (cl *Cluster) ValuePostings(name string) []billboard.ValuePosting {
	return cl.valuePostings(bg, name)
}

func (cl *Cluster) valuePostings(ctx context.Context, name string) []billboard.ValuePosting {
	return cl.topicClient(name).valuePostings(ctx, name)
}

// ValueVotes implements billboard.Interface.
func (cl *Cluster) ValueVotes(name string) []billboard.ValueVote { return cl.valueVotes(bg, name) }

func (cl *Cluster) valueVotes(ctx context.Context, name string) []billboard.ValueVote {
	return cl.topicClient(name).valueVotes(ctx, name)
}

// DropTopic implements billboard.Interface.
func (cl *Cluster) DropTopic(name string) { cl.dropTopic(bg, name) }

func (cl *Cluster) dropTopic(ctx context.Context, name string) {
	cl.topicClient(name).dropTopic(ctx, name)
}

// TopicSnapshot implements boardclient.Interface.
func (cl *Cluster) TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []billboard.Vote, valVotes []billboard.ValueVote) {
	return cl.topicSnapshot(bg, name, sinceGen, sinceEpoch)
}

func (cl *Cluster) topicSnapshot(ctx context.Context, name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []billboard.Vote, valVotes []billboard.ValueVote) {
	return cl.topicClient(name).topicSnapshot(ctx, name, sinceGen, sinceEpoch)
}

// TopicCount implements billboard.Interface: the sum over shards
// (topics are partitioned, so no topic is counted twice).
func (cl *Cluster) TopicCount() int {
	return int(cl.sumStats(bg, func(s statsReply) int64 { return int64(s.TopicCount) }))
}

// VectorPostCount implements billboard.Interface: the sum over shards.
func (cl *Cluster) VectorPostCount() int64 {
	return cl.sumStats(bg, func(s statsReply) int64 { return s.VectorPostCount })
}

// sumStats fetches all shards' stats concurrently and sums field.
func (cl *Cluster) sumStats(ctx context.Context, field func(statsReply) int64) int64 {
	_, clients := cl.topo()
	per := make([]int64, len(clients))
	scatter(len(clients), func(k int) {
		per[k] = field(clients[k].stats(ctx))
	})
	var total int64
	for _, v := range per {
		total += v
	}
	return total
}

// Quiesce drains every shard client's posting pipeline (concurrently)
// and returns once all previously issued posts are acknowledged — the
// cluster-wide analogue of Client.Quiesce, needed before reading
// cluster-wide counters like ProbeCount for exact accounting.
func (cl *Cluster) Quiesce() {
	_, clients := cl.topo()
	scatter(len(clients), func(k int) {
		clients[k].Quiesce()
	})
}

// ── Degraded-mode aggregation ────────────────────────────────────────

// Err implements boardclient.Interface: the first swallowed terminal
// failure across shards, lowest shard index first (nil if none). See
// Client.Err for the degraded-mode contract.
func (cl *Cluster) Err() error {
	_, clients := cl.topo()
	for _, c := range clients {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Failures implements boardclient.Interface: the total number of
// terminally failed calls across shards.
func (cl *Cluster) Failures() int64 {
	_, clients := cl.topo()
	var total int64
	for _, c := range clients {
		total += c.Failures()
	}
	return total
}

// ── Context binding ──────────────────────────────────────────────────

// BindContext implements boardclient.ContextBinder: the returned view
// shares all state with cl but every shard request runs under ctx.
func (cl *Cluster) BindContext(ctx context.Context) boardclient.Interface {
	if ctx == nil || ctx.Done() == nil {
		return cl
	}
	return &boundCluster{cl: cl, ctx: ctx}
}

// boundCluster is the context-bound view of a Cluster, mirroring
// boundClient: it forwards every operation with the bound context.
type boundCluster struct {
	cl  *Cluster
	ctx context.Context
}

var _ boardclient.Interface = (*boundCluster)(nil)
var _ boardclient.ContextBinder = (*boundCluster)(nil)

// BindContext rebinds to a different context, still sharing the cluster.
func (b *boundCluster) BindContext(ctx context.Context) boardclient.Interface {
	return b.cl.BindContext(ctx)
}

func (b *boundCluster) PostProbe(p, o int, val byte) { b.cl.postProbe(b.ctx, p, o, val) }
func (b *boundCluster) PostProbes(p int, objs []int, grades []byte) {
	b.cl.postProbes(b.ctx, p, objs, grades)
}
func (b *boundCluster) LookupProbe(p, o int) (byte, bool) { return b.cl.lookupProbe(b.ctx, p, o) }
func (b *boundCluster) LookupProbes(p int, objs []int, grades []byte, known []bool) {
	b.cl.lookupProbes(b.ctx, p, objs, grades, known)
}
func (b *boundCluster) ProbedObjects(p int) map[int]byte { return b.cl.probedObjects(b.ctx, p) }
func (b *boundCluster) ForEachProbe(p int, fn func(o int, grade byte)) {
	b.cl.forEachProbe(b.ctx, p, fn)
}
func (b *boundCluster) ProbeCount() int64 {
	return b.cl.sumStats(b.ctx, func(s statsReply) int64 { return s.ProbeCount })
}
func (b *boundCluster) Post(name string, player int, v bitvec.Partial) {
	b.cl.postTopic(b.ctx, name, player, v)
}
func (b *boundCluster) PostVector(name string, player int, v bitvec.Vector) {
	b.cl.postTopic(b.ctx, name, player, bitvec.PartialOf(v))
}
func (b *boundCluster) Postings(name string) []billboard.Posting {
	return b.cl.postings(b.ctx, name)
}
func (b *boundCluster) Votes(name string) []billboard.Vote { return b.cl.votes(b.ctx, name) }
func (b *boundCluster) PopularVectors(name string, minVotes int) []bitvec.Partial {
	return b.cl.popularVectors(b.ctx, name, minVotes)
}
func (b *boundCluster) PostValues(name string, player int, vals []uint32) {
	b.cl.postValues(b.ctx, name, player, vals)
}
func (b *boundCluster) ValuePostings(name string) []billboard.ValuePosting {
	return b.cl.valuePostings(b.ctx, name)
}
func (b *boundCluster) ValueVotes(name string) []billboard.ValueVote {
	return b.cl.valueVotes(b.ctx, name)
}
func (b *boundCluster) DropTopic(name string) { b.cl.dropTopic(b.ctx, name) }
func (b *boundCluster) TopicCount() int {
	return int(b.cl.sumStats(b.ctx, func(s statsReply) int64 { return int64(s.TopicCount) }))
}
func (b *boundCluster) VectorPostCount() int64 {
	return b.cl.sumStats(b.ctx, func(s statsReply) int64 { return s.VectorPostCount })
}
func (b *boundCluster) TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []billboard.Vote, valVotes []billboard.ValueVote) {
	return b.cl.topicSnapshot(b.ctx, name, sinceGen, sinceEpoch)
}
func (b *boundCluster) Err() error      { return b.cl.Err() }
func (b *boundCluster) Failures() int64 { return b.cl.Failures() }

// ── Static-topology resharding ───────────────────────────────────────

// AddShard grows a *quiescent* cluster by one shard server and drains
// every key whose owner changed onto it: for each moved topic, the
// donor's postings (vector and value, in posting order) are replayed
// onto the new owner and the topic is dropped from the donor; for each
// moved probe column, the probe results are re-posted to the new owner
// and cleared from the donor (copy-then-drop, so a failure mid-drain
// leaves data present on the donor, never lost — rerunning the same
// AddShard on a consistent snapshot converges).
//
// The topology is static while AddShard runs: no concurrent board
// traffic through this or any other process (the consistent-hash ring
// is a pure function of the cluster spec, so *other* processes keep
// routing by the old spec until they are restarted with the new one —
// this is the PR's static-topology contract, not a live migration).
// Transport failures abort the drain and are returned as errors (the
// per-shard OnError is not consulted).
func (cl *Cluster) AddShard(ctx context.Context, baseURL string) error {
	cl.topoMu.RLock()
	oldRing, oldClients := cl.ring, cl.clients
	cl.topoMu.RUnlock()
	for _, name := range oldRing.names {
		if name == baseURL {
			return fmt.Errorf("netboard: shard %q already in cluster", baseURL)
		}
	}
	if baseURL == "" {
		return fmt.Errorf("netboard: empty shard URL")
	}
	newNames := append(append([]string(nil), oldRing.names...), baseURL)
	newRing := newRing(newNames, cl.cfg.VirtualNodes)
	newClients := append(append([]*Client(nil), oldClients...), cl.shardClient(baseURL, len(oldClients)))

	// Existing shard indices are unchanged by an append, so a key moved
	// iff its new owner differs from its old one — and then the new
	// owner is the added shard.
	err := captureTransport(func() {
		converge(ctx, oldClients, func() int {
			moved := 0
			for donorIdx, donor := range oldClients {
				moved += cl.drainMoved(ctx, donor, donorIdx, oldRing, newRing, newClients)
			}
			return moved
		})
	})
	if err != nil {
		return fmt.Errorf("netboard: add shard %s: %w", baseURL, err)
	}
	cl.topoMu.Lock()
	cl.ring, cl.clients = newRing, newClients
	cl.topoMu.Unlock()
	return nil
}

// RemoveShard shrinks a *quiescent* cluster by one shard server,
// draining everything it owns onto the shards that own those keys in
// the shrunken ring (same copy-then-drop replay as AddShard, same
// static-topology contract). The last shard cannot be removed.
func (cl *Cluster) RemoveShard(ctx context.Context, baseURL string) error {
	cl.topoMu.RLock()
	oldRing, oldClients := cl.ring, cl.clients
	cl.topoMu.RUnlock()
	donorIdx := -1
	for i, name := range oldRing.names {
		if name == baseURL {
			donorIdx = i
			break
		}
	}
	if donorIdx < 0 {
		return fmt.Errorf("netboard: shard %q not in cluster", baseURL)
	}
	if len(oldClients) == 1 {
		return fmt.Errorf("netboard: cannot remove the last shard")
	}
	newNames := make([]string, 0, len(oldRing.names)-1)
	newClients := make([]*Client, 0, len(oldClients)-1)
	for i, name := range oldRing.names {
		if i == donorIdx {
			continue
		}
		newNames = append(newNames, name)
		newClients = append(newClients, oldClients[i])
	}
	newRing := newRing(newNames, cl.cfg.VirtualNodes)

	// Every key the donor owned moves; keys on other shards stay put
	// (removing a shard's points leaves all other points in place).
	donor := oldClients[donorIdx]
	err := captureTransport(func() {
		converge(ctx, []*Client{donor}, func() int {
			return cl.drainAll(ctx, donor, newRing, newClients)
		})
	})
	if err != nil {
		return fmt.Errorf("netboard: remove shard %s: %w", baseURL, err)
	}
	cl.topoMu.Lock()
	cl.ring, cl.clients = newRing, newClients
	cl.topoMu.Unlock()
	return nil
}

// maxDrainPasses bounds the drain's converge loop. A pass beyond the
// first only happens when a straggler committed on a donor between the
// previous pass's snapshot and its conditional drop; stragglers are
// bounded by the mutations in flight when the drain started, so two
// passes (move everything, verify nothing is left) is the norm.
const maxDrainPasses = 16

// converge closes the copy-then-drop window: before each pass it
// quiesces the donors — a post the network delivered but whose response
// was lost is applied and visible before the pass snapshots anything —
// and it repeats the pass until one moves nothing, so a retry or
// network duplicate that commits on a donor *after* a snapshot (the
// conditional drop refuses to erase it) is picked up by the next pass
// instead of being silently lost.
func converge(ctx context.Context, donors []*Client, pass func() int) {
	for i := 0; ; i++ {
		if i == maxDrainPasses {
			panic(&TransportError{Err: fmt.Errorf("drain did not converge after %d passes: new postings keep arriving on the donor (cluster is not quiescent)", maxDrainPasses)})
		}
		scatter(len(donors), func(k int) { donors[k].quiesce(ctx) })
		if pass() == 0 {
			return
		}
	}
}

// drainMoved moves the donor's keys whose owner changed between
// oldRing and newRing (shard indices aligned) to their new owners,
// returning how many postings and probe results it moved.
func (cl *Cluster) drainMoved(ctx context.Context, donor *Client, donorIdx int, oldRing, newRing *Ring, newClients []*Client) int {
	moved := 0
	for _, topic := range donor.topics(ctx) {
		if oldRing.Owner(topic) != donorIdx {
			// Not this donor's key (possible only if the cluster was fed
			// through a differently-specced client); leave it alone.
			continue
		}
		if dest := newRing.Owner(topic); dest != donorIdx {
			moved += moveTopic(ctx, donor, newClients[dest], topic)
		}
	}
	n := donor.stats(ctx).N
	for p := 0; p < n; p++ {
		moved += cl.moveProbes(ctx, donor, donorIdx, newRing, newClients, p, func(o int) bool {
			return oldRing.Owner(objKey(o)) == donorIdx
		})
	}
	return moved
}

// drainAll moves everything the donor holds to its owner in newRing
// (the donor is not in newRing), returning how much it moved.
func (cl *Cluster) drainAll(ctx context.Context, donor *Client, newRing *Ring, newClients []*Client) int {
	moved := 0
	for _, topic := range donor.topics(ctx) {
		moved += moveTopic(ctx, donor, newClients[newRing.Owner(topic)], topic)
	}
	n := donor.stats(ctx).N
	for p := 0; p < n; p++ {
		moved += cl.moveProbes(ctx, donor, -1, newRing, newClients, p, func(int) bool { return true })
	}
	return moved
}

// moveTopic replays one topic's postings — vector then value, each in
// the donor's posting order, so the destination's tallies come out
// byte-identical — onto dest, then drops the topic from the donor with
// a conditional drop that only erases exactly what was replayed. If a
// straggler commits on the donor between the snapshot and the drop, the
// drop refuses, and the loop replays just the delta (donor postings are
// append-ordered) and tries again. Returns the number of postings
// replayed.
func moveTopic(ctx context.Context, donor, dest *Client, topic string) int {
	replayedVec, replayedVal, moved := 0, 0, 0
	for attempt := 0; ; attempt++ {
		if attempt == maxDrainPasses {
			panic(&TransportError{Err: fmt.Errorf("drain of topic %q did not converge after %d attempts", topic, maxDrainPasses)})
		}
		posts := donor.postings(ctx, topic)
		vals := donor.valuePostings(ctx, topic)
		if len(posts) == 0 && len(vals) == 0 {
			// Dropped (this loop's previous attempt succeeded) or the
			// topic never existed.
			return moved
		}
		if len(posts) < replayedVec || len(vals) < replayedVal {
			// The previous conditional drop succeeded and a straggler
			// recreated the topic: everything now on the donor is new.
			replayedVec, replayedVal = 0, 0
		}
		for _, p := range posts[replayedVec:] {
			dest.postTopic(ctx, topic, p.Player, p.Vec)
		}
		for _, vp := range vals[replayedVal:] {
			dest.postValues(ctx, topic, vp.Player, vp.Vals)
		}
		moved += len(posts) - replayedVec + len(vals) - replayedVal
		replayedVec, replayedVal = len(posts), len(vals)
		// The acknowledgement carries no outcome (a deduplicated retry
		// could not reproduce it); the re-read at the top of the loop
		// verifies the drop took.
		donor.dropTopicIf(ctx, topic, replayedVec, replayedVal)
	}
}

// moveProbes migrates player p's probe results held by donor whose
// object is owned (per owned) by the donor and whose new owner is a
// different shard (donorIdx; -1 means every object moves). Results are
// posted to their new owners first, then cleared from the donor —
// clearing exactly the snapshot that was replayed, so a probe result a
// straggler lands after the snapshot survives on the donor for the next
// converge pass instead of being erased unmoved. Returns the number of
// results moved.
func (cl *Cluster) moveProbes(ctx context.Context, donor *Client, donorIdx int, newRing *Ring, newClients []*Client, p int, owned func(o int) bool) int {
	pairs := donor.probedPairs(ctx, p)
	byDest := make(map[int][]objGrade)
	for _, og := range pairs {
		if !owned(og.Object) {
			continue
		}
		dest := newRing.Owner(objKey(og.Object))
		if dest == donorIdx {
			continue
		}
		byDest[dest] = append(byDest[dest], og)
	}
	var moved []int
	for _, dest := range shardList(byDest) {
		group := byDest[dest]
		objs := make([]int, len(group))
		grades := make([]byte, len(group))
		for j, og := range group {
			objs[j] = og.Object
			grades[j] = og.Grade
		}
		newClients[dest].postProbes(ctx, p, objs, grades)
		moved = append(moved, objs...)
	}
	donor.clearProbes(ctx, p, moved)
	return len(moved)
}

// captureTransport runs fn, converting a shard client's terminal-panic
// failure mode (*TransportError) into a returned error; anything else
// propagates.
func captureTransport(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if te, ok := r.(*TransportError); ok {
				err = te
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}
