package netboard

import (
	"context"
	"fmt"
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
// topic name, probe results by player. The same algorithm code that
// runs against an in-memory Board or a single Client runs against a
// Cluster unchanged.
//
// A topic's tally and a player's probe row each live whole on one
// shard, so every read and every probe operation is one request to
// that shard (with the Client's idempotent request-id retries) and
// answers exactly as a single board would: a Cluster run is
// byte-identical to a single-board run of the same seeds. A post batch
// is split by owning shard and its parts sent concurrently; ProbeCount,
// the other counters and Quiesce ask every shard.
//
// Failure semantics are the Client's, per shard: a terminal failure on
// any shard panics with its *TransportError unless Config.OnError is
// installed, in which case that shard's client goes degraded and
// Err/Failures aggregate across shards. A concurrent scatter that
// panics on several shards at once re-panics the lowest-indexed
// shard's value, deterministically.
//
// Like a Client, a Cluster carries the context its requests run under:
// NewCluster's runs uncancellable, and BindContext returns a view that
// sends every shard request under the bound context.
//
// AddShard/RemoveShard reshard a quiescent cluster in place; see their
// docs for the (static-topology) contract.
type Cluster struct {
	// ctx governs every shard request sent through this cluster or
	// view; never nil.
	ctx context.Context

	*clusterState
}

// clusterState is everything a cluster shares with its views.
type clusterState struct {
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
var _ boardclient.Batcher = (*Cluster)(nil)

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
	cl := &Cluster{ctx: context.Background(), clusterState: &clusterState{cfg: cfg}}
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

// on returns the client to send a shard request through: the shard
// client itself when cl is unbound, else a view of it under cl's
// context.
func (cl *Cluster) on(c *Client) *Client {
	if cl.ctx.Done() == nil {
		return c
	}
	return c.view(cl.ctx, false)
}

// topicClient resolves the shard owning topic name.
func (cl *Cluster) topicClient(name string) *Client {
	ring, clients := cl.topo()
	return cl.on(clients[ring.Owner(name)])
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

// ── Probe operations (routed by player) ──────────────────────────────

// probeClient resolves the shard holding player p's probe results.
func (cl *Cluster) probeClient(p int) *Client {
	ring, clients := cl.topo()
	return cl.on(clients[ring.PlayerOwner(p)])
}

// PostProbe implements billboard.Interface as a one-object PostProbes.
func (cl *Cluster) PostProbe(p, o int, val byte) { cl.PostProbes(p, []int{o}, []byte{val}) }

// LookupProbe implements billboard.Interface as a one-object
// LookupProbes.
func (cl *Cluster) LookupProbe(p, o int) (byte, bool) { return lookupOne(cl, p, o) }

// PostProbes implements billboard.Interface: the whole batch goes to
// p's shard as one idempotent request.
func (cl *Cluster) PostProbes(p int, objs []int, grades []byte) {
	cl.probeClient(p).PostProbes(p, objs, grades)
}

// LookupProbes implements billboard.Interface: one request to p's
// shard.
func (cl *Cluster) LookupProbes(p int, objs []int, grades []byte, known []bool) {
	cl.probeClient(p).LookupProbes(p, objs, grades, known)
}

// ProbedObjects implements billboard.Interface: one request to p's
// shard.
func (cl *Cluster) ProbedObjects(p int) map[int]byte { return cl.probeClient(p).ProbedObjects(p) }

// ForEachProbe implements billboard.Interface: p's shard streams its
// row in ascending object order, the in-memory board's order.
func (cl *Cluster) ForEachProbe(p int, fn func(o int, grade byte)) {
	cl.probeClient(p).ForEachProbe(p, fn)
}

// ProbeCount implements billboard.Interface: the sum over shards.
func (cl *Cluster) ProbeCount() int64 {
	return cl.sumStats(func(s statsReply) int64 { return s.ProbeCount })
}

// ClearProbes removes player p's probe results for objs on p's shard
// (mirrors billboard.Board.ClearProbes and Client.ClearProbes,
// including the quiescence requirement). The serving daemon uses it to
// release a departed player's probe storage at an epoch boundary. Not
// part of boardclient.Interface.
func (cl *Cluster) ClearProbes(p int, objs []int) { cl.probeClient(p).ClearProbes(p, objs) }

// PostBatch implements boardclient.Batcher: the batch is split by
// owning shard — probe sets by player, topic posts and drops by topic —
// with post order kept within each shard, and every touched shard gets
// its part as one request, concurrently.
func (cl *Cluster) PostBatch(posts []boardclient.Post) {
	if len(posts) == 0 {
		return
	}
	ring, clients := cl.topo()
	byShard := make([][]boardclient.Post, len(clients))
	for _, p := range posts {
		var s int
		if p.Kind == boardclient.ProbesPost {
			s = ring.PlayerOwner(p.Player)
		} else {
			s = ring.Owner(p.Topic)
		}
		byShard[s] = append(byShard[s], p)
	}
	var shards []int
	for s, part := range byShard {
		if len(part) > 0 {
			shards = append(shards, s)
		}
	}
	scatter(len(shards), func(k int) {
		cl.on(clients[shards[k]]).PostBatch(byShard[shards[k]])
	})
}

// ── Topic operations (routed by topic name) ──────────────────────────

// Post implements billboard.Interface as a one-entry PostBatch, as do
// PostVector, PostValues and DropTopic.
func (cl *Cluster) Post(name string, player int, v bitvec.Partial) {
	cl.PostBatch([]boardclient.Post{{Kind: boardclient.VectorPost, Topic: name, Player: player, Vec: v}})
}

// PostVector implements billboard.Interface.
func (cl *Cluster) PostVector(name string, player int, v bitvec.Vector) {
	cl.Post(name, player, bitvec.PartialOf(v))
}

// Postings implements billboard.Interface.
func (cl *Cluster) Postings(name string) []billboard.Posting {
	return cl.topicClient(name).Postings(name)
}

// Votes implements billboard.Interface.
func (cl *Cluster) Votes(name string) []billboard.Vote { return cl.topicClient(name).Votes(name) }

// PopularVectors implements billboard.Interface.
func (cl *Cluster) PopularVectors(name string, minVotes int) []bitvec.Partial {
	return cl.topicClient(name).PopularVectors(name, minVotes)
}

// PostValues implements billboard.Interface.
func (cl *Cluster) PostValues(name string, player int, vals []uint32) {
	cl.PostBatch([]boardclient.Post{{Kind: boardclient.ValuesPost, Topic: name, Player: player, Vals: vals}})
}

// ValuePostings implements billboard.Interface.
func (cl *Cluster) ValuePostings(name string) []billboard.ValuePosting {
	return cl.topicClient(name).ValuePostings(name)
}

// ValueVotes implements billboard.Interface.
func (cl *Cluster) ValueVotes(name string) []billboard.ValueVote {
	return cl.topicClient(name).ValueVotes(name)
}

// DropTopic implements billboard.Interface.
func (cl *Cluster) DropTopic(name string) {
	cl.PostBatch([]boardclient.Post{{Kind: boardclient.DropPost, Topic: name}})
}

// TopicSnapshot implements boardclient.Interface.
func (cl *Cluster) TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []billboard.Vote, valVotes []billboard.ValueVote) {
	return cl.topicClient(name).TopicSnapshot(name, sinceGen, sinceEpoch)
}

// TopicCount implements billboard.Interface: the sum over shards
// (topics are partitioned, so no topic is counted twice).
func (cl *Cluster) TopicCount() int {
	return int(cl.sumStats(func(s statsReply) int64 { return int64(s.TopicCount) }))
}

// VectorPostCount implements billboard.Interface: the sum over shards.
func (cl *Cluster) VectorPostCount() int64 {
	return cl.sumStats(func(s statsReply) int64 { return s.VectorPostCount })
}

// sumStats fetches all shards' stats concurrently and sums field.
func (cl *Cluster) sumStats(field func(statsReply) int64) int64 {
	_, clients := cl.topo()
	per := make([]int64, len(clients))
	scatter(len(clients), func(k int) {
		per[k] = field(cl.on(clients[k]).stats())
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
		cl.on(clients[k]).Quiesce()
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
// shares all state with cl but every shard request runs under ctx. An
// unbound cluster given a nil or never-done context returns itself.
func (cl *Cluster) BindContext(ctx context.Context) boardclient.Interface {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && cl.ctx.Done() == nil {
		return cl
	}
	return &Cluster{ctx: ctx, clusterState: cl.clusterState}
}

// ── Static-topology resharding ───────────────────────────────────────

// AddShard grows a *quiescent* cluster by one shard server and drains
// every key whose owner changed onto it: for each moved topic, the
// donor's postings (vector and value, in posting order) are replayed
// onto the new owner and the topic is dropped from the donor; for each
// moved player, the player's probe row is re-posted to the new owner
// and cleared from the donor (copy-then-drop, so a failure mid-drain
// leaves data present on the donor, never lost — rerunning the same
// AddShard on a consistent snapshot converges).
//
// The topology is static while AddShard runs: no concurrent board
// traffic through this or any other process (the consistent-hash ring
// is a pure function of the cluster spec, so *other* processes keep
// routing by the old spec until they are restarted with the new one —
// this is the static-topology contract, not a live migration).
//
// Every drain request runs under ctx. A terminal transport failure
// aborts the drain and is returned, wrapping its *TransportError, with
// the topology unchanged. OnError is not consulted, so the drain never
// takes a degraded zero value for an empty donor.
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
	dests := drainViews(ctx, newClients)
	donors := dests[:len(oldClients)]
	err := captureTransport(func() {
		converge(donors, func() int {
			moved := 0
			for donorIdx, donor := range donors {
				moved += drainMoved(donor, donorIdx, oldRing, newRing, dests)
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
// the shrunken ring (the copy-then-drop replay, static-topology
// contract and failure handling of AddShard). The last shard cannot be
// removed.
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
	donor := oldClients[donorIdx].view(ctx, true)
	dests := drainViews(ctx, newClients)
	err := captureTransport(func() {
		converge([]*Client{donor}, func() int {
			return drainAll(donor, newRing, dests)
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

// drainViews returns strict views of clients under ctx: a drain's
// terminal failure panics into captureTransport even when OnError is
// set.
func drainViews(ctx context.Context, clients []*Client) []*Client {
	views := make([]*Client, len(clients))
	for i, c := range clients {
		views[i] = c.view(ctx, true)
	}
	return views
}

// converge closes the copy-then-drop window: before each pass it
// quiesces the donors — a post the network delivered but whose response
// was lost is applied and visible before the pass snapshots anything —
// and it repeats the pass until one moves nothing, so a retry or
// network duplicate that commits on a donor *after* a snapshot (the
// conditional drop refuses to erase it) is picked up by the next pass
// instead of being silently lost.
func converge(donors []*Client, pass func() int) {
	for i := 0; ; i++ {
		if i == maxDrainPasses {
			panic(&TransportError{Err: fmt.Errorf("drain did not converge after %d passes: new postings keep arriving on the donor (cluster is not quiescent)", maxDrainPasses)})
		}
		scatter(len(donors), func(k int) { donors[k].Quiesce() })
		if pass() == 0 {
			return
		}
	}
}

// drainMoved moves the donor's keys whose owner changed between
// oldRing and newRing (shard indices aligned) to their new owners,
// returning how many postings and probe results it moved.
func drainMoved(donor *Client, donorIdx int, oldRing, newRing *Ring, newClients []*Client) int {
	moved := 0
	for _, topic := range donor.Topics() {
		if oldRing.Owner(topic) != donorIdx {
			// Not this donor's key (possible only if the cluster was fed
			// through a differently-specced client); leave it alone.
			continue
		}
		if dest := newRing.Owner(topic); dest != donorIdx {
			moved += moveTopic(donor, newClients[dest], topic)
		}
	}
	n := donor.stats().N
	for p := 0; p < n; p++ {
		if oldRing.PlayerOwner(p) != donorIdx {
			continue
		}
		if dest := newRing.PlayerOwner(p); dest != donorIdx {
			moved += moveProbes(donor, newClients[dest], p)
		}
	}
	return moved
}

// drainAll moves everything the donor holds to its owner in newRing
// (the donor is not in newRing), returning how much it moved.
func drainAll(donor *Client, newRing *Ring, newClients []*Client) int {
	moved := 0
	for _, topic := range donor.Topics() {
		moved += moveTopic(donor, newClients[newRing.Owner(topic)], topic)
	}
	n := donor.stats().N
	for p := 0; p < n; p++ {
		moved += moveProbes(donor, newClients[newRing.PlayerOwner(p)], p)
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
func moveTopic(donor, dest *Client, topic string) int {
	replayedVec, replayedVal, moved := 0, 0, 0
	for attempt := 0; ; attempt++ {
		if attempt == maxDrainPasses {
			panic(&TransportError{Err: fmt.Errorf("drain of topic %q did not converge after %d attempts", topic, maxDrainPasses)})
		}
		posts := donor.Postings(topic)
		vals := donor.ValuePostings(topic)
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
			dest.Post(topic, p.Player, p.Vec)
		}
		for _, vp := range vals[replayedVal:] {
			dest.PostValues(topic, vp.Player, vp.Vals)
		}
		moved += len(posts) - replayedVec + len(vals) - replayedVal
		replayedVec, replayedVal = len(posts), len(vals)
		// The acknowledgement carries no outcome (a deduplicated retry
		// could not reproduce it); the re-read at the top of the loop
		// verifies the drop took.
		donor.dropTopicIf(topic, replayedVec, replayedVal)
	}
}

// moveProbes migrates player p's probe row from donor to dest: the row
// is posted to dest first, then cleared from the donor — clearing
// exactly the snapshot that was replayed, so a probe result a straggler
// lands after the snapshot survives on the donor for the next converge
// pass instead of being erased unmoved. Returns the number of results
// moved.
func moveProbes(donor, dest *Client, p int) int {
	pairs := donor.probedPairs(p)
	objs := make([]int, len(pairs))
	grades := make([]byte, len(pairs))
	for j, og := range pairs {
		objs[j], grades[j] = og.Object, og.Grade
	}
	dest.PostProbes(p, objs, grades)
	donor.ClearProbes(p, objs)
	return len(objs)
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
