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
	// all distinct. A shard's position in the list is its index: it
	// decides which keys the shard owns and keys its telemetry. Every
	// process addressing the same cluster must list its shards in the
	// same order; a shard may move to a new address in its position.
	Shards []string
	// Client configures the per-shard clients. Shard i's instruments
	// are keyed under "netboard.cluster.shard<i>", so all
	// request/latency/retry counters come out keyed by shard. A nonzero
	// JitterSeed is decorrelated per shard, keeping runs reproducible
	// without synchronizing the shards' backoff schedules.
	Client Config
}

// Cluster implements boardclient.Interface over a fixed list of shard
// servers, routing every key to the shard at its position (see owner):
// topics by topic name, probe results by player. The same algorithm
// code that runs against an in-memory Board or a single Client runs
// against a Cluster unchanged.
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
type Cluster struct {
	// ctx governs every shard request sent through this cluster or
	// view; never nil.
	ctx context.Context

	*clusterState
}

// clusterState is everything a cluster shares with its views.
type clusterState struct {
	cfg ClusterConfig
	// clients holds shard i's client at index i.
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
	cl.cfg.Shards = append([]string(nil), cfg.Shards...)
	if cl.cfg.Client.HTTPClient == nil {
		// Resolve the pooled client ONCE and share it across shards:
		// per-host pool limits apply per shard server either way, but a
		// shared transport keeps the process at one coherent connection
		// pool instead of len(Shards) of them.
		cl.cfg.Client.HTTPClient = cl.cfg.Client.PooledHTTPClient()
	}
	cl.clients = make([]*Client, len(cfg.Shards))
	for i, u := range cfg.Shards {
		// Shard i's client: the shared Config with its own telemetry
		// prefix and the jitter seed decorrelated from the other shards'.
		shardCfg := cl.cfg.Client
		if shardCfg.JitterSeed != 0 {
			// Same fixed seed on every shard would sync their backoff
			// schedules — exactly the stampede jitter exists to break.
			shardCfg.JitterSeed = decorrelate(shardCfg.JitterSeed, uint64(i))
		}
		cl.clients[i] = newClient(u, shardCfg, "netboard.cluster.shard"+strconv.Itoa(i))
	}
	return cl, nil
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
	s := mix64(seed + (i+1)*0x9e3779b97f4a7c15) // golden-ratio stream separation
	if s == 0 || s == seed {
		s = seed ^ 0x74656c6c6d65 // "tellme"
		if s == 0 {
			s = 1
		}
	}
	return s
}

// Shards returns the shard base URLs, in shard-index order.
func (cl *Cluster) Shards() []string { return append([]string(nil), cl.cfg.Shards...) }

// on returns the client to send a shard request through: the shard
// client itself when cl is unbound, else a view of it under cl's
// context.
func (cl *Cluster) on(c *Client) *Client {
	if cl.ctx.Done() == nil {
		return c
	}
	return c.view(cl.ctx)
}

// topicClient resolves the shard owning topic name.
func (cl *Cluster) topicClient(name string) *Client {
	return cl.on(cl.clients[owner(name, len(cl.clients))])
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
	return cl.on(cl.clients[playerOwner(p, len(cl.clients))])
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
	k := len(cl.clients)
	byShard := make([][]boardclient.Post, k)
	for _, p := range posts {
		var s int
		if p.Kind == boardclient.ProbesPost {
			s = playerOwner(p.Player, k)
		} else {
			s = owner(p.Topic, k)
		}
		byShard[s] = append(byShard[s], p)
	}
	var shards []int
	for s, part := range byShard {
		if len(part) > 0 {
			shards = append(shards, s)
		}
	}
	scatter(len(shards), func(i int) {
		cl.on(cl.clients[shards[i]]).PostBatch(byShard[shards[i]])
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
	per := make([]int64, len(cl.clients))
	scatter(len(cl.clients), func(k int) {
		per[k] = field(cl.on(cl.clients[k]).stats())
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
	scatter(len(cl.clients), func(k int) {
		cl.on(cl.clients[k]).Quiesce()
	})
}

// ── Degraded-mode aggregation ────────────────────────────────────────

// Err implements boardclient.Interface: the first swallowed terminal
// failure across shards, lowest shard index first (nil if none). See
// Client.Err for the degraded-mode contract.
func (cl *Cluster) Err() error {
	for _, c := range cl.clients {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Failures implements boardclient.Interface: the total number of
// terminally failed calls across shards.
func (cl *Cluster) Failures() int64 {
	var total int64
	for _, c := range cl.clients {
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
