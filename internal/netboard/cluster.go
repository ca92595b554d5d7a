package netboard

import (
	"context"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/wire"
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
	// Client configures the per-shard transports. Shard i's instruments
	// are keyed under "netboard.cluster.shard<i>", so all
	// request/latency/retry counters come out keyed by shard.
	Client Config
}

// Cluster implements boardclient.Interface over a fixed list of shard
// servers, routing every key to the shard at its position (see owner):
// topics by topic name, probe results by player. It is the one remote
// board: a single server is a one-shard Cluster. The same algorithm
// code that runs against an in-memory Board runs against a Cluster
// unchanged.
//
// A topic's tally and a player's probe row each live whole on one
// shard, so every read and every probe operation is one request to
// that shard (with idempotent request-id retries) and answers exactly
// as a single board would: a Cluster run is byte-identical to an
// in-memory run of the same seeds. Every write is a /v1/batch/posts
// request: a post batch is split by owning shard and its parts sent
// concurrently, and a single post or DropTopic is a one-entry batch.
// LookupProbes is one /v1/batch/lookups request, and each vote read
// (Votes, ValueVotes, PopularVectors) one /v1/topic-snapshot request.
// ProbeCount, the other counters and Quiesce ask every shard.
//
// billboard.Interface is error-free (the model treats the billboard as
// reliable shared memory), so a terminal failure — retries exhausted or
// cut short, a 4xx, a protocol mismatch — panics with its
// *TransportError. Err and Failures record it first. A concurrent
// scatter that panics on several shards at once re-panics the
// lowest-indexed shard's value, deterministically.
//
// A Cluster carries the context its requests run under. The one
// NewCluster returns runs uncancellable (context.Background).
// BindContext returns a view — a *Cluster sharing all of its state —
// whose every request, including retry backoff sleeps, aborts when the
// bound context is cancelled; the probe engine binds the run context
// this way, so a deadline cuts through in-flight HTTP calls instead of
// waiting out the full retry schedule.
type Cluster struct {
	// ctx governs every shard request sent through this cluster or
	// view; never nil.
	ctx context.Context

	*clusterState
}

// clusterState is everything a cluster shares with its views.
type clusterState struct {
	// clients holds shard i's transport at index i.
	clients []*client

	// The failure record: first terminal error and failure count.
	errMu    sync.Mutex
	firstErr error
	failures atomic.Int64
}

var _ boardclient.Interface = (*Cluster)(nil)
var _ boardclient.ContextBinder = (*Cluster)(nil)
var _ boardclient.Batcher = (*Cluster)(nil)

// NewCluster builds a Cluster from cfg (see ClusterConfig and Config
// for the validated defaults). An unknown Config.Codec is an error.
// The shard servers are not contacted.
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
	codec, err := wire.ByName(cfg.Client.Codec)
	if err != nil {
		return nil, err
	}
	shardCfg := cfg.Client.normalized()
	if shardCfg.HTTPClient == nil {
		// Resolve the pooled client ONCE and share it across shards:
		// per-host pool limits apply per shard server either way, but a
		// shared transport keeps the process at one coherent connection
		// pool instead of len(Shards) of them.
		shardCfg.HTTPClient = shardCfg.PooledHTTPClient()
	}
	st := &clusterState{clients: make([]*client, len(cfg.Shards))}
	for i, u := range cfg.Shards {
		st.clients[i] = newClient(u, shardCfg, codec, "netboard.cluster.shard"+strconv.Itoa(i))
	}
	return &Cluster{ctx: context.Background(), clusterState: st}, nil
}

// Shards returns the shard base URLs, in shard-index order.
func (cl *Cluster) Shards() []string {
	urls := make([]string, len(cl.clients))
	for i, c := range cl.clients {
		urls[i] = c.baseURL
	}
	return urls
}

// check records a terminal failure for Err and Failures and panics
// with it as a *TransportError; a nil err is no failure.
func (cl *Cluster) check(err error) {
	if err == nil {
		return
	}
	terr := &TransportError{Err: err}
	cl.failures.Add(1)
	cl.errMu.Lock()
	if cl.firstErr == nil {
		cl.firstErr = terr
	}
	cl.errMu.Unlock()
	panic(terr)
}

// get fetches path?query from shard s into out, under cl's context.
func (cl *Cluster) get(s int, path string, query url.Values, out wire.Message) {
	cl.check(cl.clients[s].do(cl.ctx, path, query, nil, out))
}

// post sends body to path on shard s, under cl's context.
func (cl *Cluster) post(s int, path string, body wire.Message) {
	cl.check(cl.clients[s].do(cl.ctx, path, nil, body, nil))
}

// scatter runs fn(k) for k in 0..n-1 concurrently and waits for all of
// them. Panics (a failed shard request's failure mode) are captured per
// goroutine and the lowest-k panic is re-thrown on the caller, so
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

// probeShard is the shard holding player p's probe results.
func (cl *Cluster) probeShard(p int) int { return playerOwner(p, len(cl.clients)) }

// PostProbe implements billboard.Interface as a one-object PostProbes.
// A nonzero grade posts as 1, as billboard.Board.PostProbe stores it.
func (cl *Cluster) PostProbe(p, o int, val byte) { cl.PostProbes(p, []int{o}, []byte{val}) }

// LookupProbe implements billboard.Interface as a one-object
// LookupProbes.
func (cl *Cluster) LookupProbe(p, o int) (byte, bool) {
	var grade [1]byte
	var known [1]bool
	cl.LookupProbes(p, []int{o}, grade[:], known[:])
	return grade[0], known[0]
}

// PostProbes implements billboard.Interface: the whole batch goes to
// p's shard as one idempotent request.
func (cl *Cluster) PostProbes(p int, objs []int, grades []byte) {
	if len(objs) == 0 {
		return
	}
	cl.postBatch(cl.probeShard(p), []boardclient.Post{{Kind: boardclient.ProbesPost, Player: p, Objs: objs, Grades: grades}})
}

// LookupProbes implements billboard.Interface: one request to p's
// shard.
func (cl *Cluster) LookupProbes(p int, objs []int, grades []byte, known []bool) {
	if len(objs) == 0 {
		return
	}
	var sb strings.Builder
	for k, o := range objs {
		if k > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(o))
	}
	var reply batchLookupsReply
	cl.get(cl.probeShard(p), PathBatchLookups, url.Values{
		"player":  {strconv.Itoa(p)},
		"objects": {sb.String()},
	}, &reply)
	if len(reply.Grades) != len(objs) {
		cl.check(fmt.Errorf("batch lookup: %d grades for %d objects", len(reply.Grades), len(objs)))
	}
	for k := range objs {
		switch reply.Grades[k] {
		case '1':
			grades[k], known[k] = 1, true
		case '0':
			grades[k], known[k] = 0, true
		default:
			grades[k], known[k] = 0, false
		}
	}
}

// ProbedObjects implements billboard.Interface: one request to p's
// shard.
func (cl *Cluster) ProbedObjects(p int) map[int]byte {
	pairs := cl.probedPairs(p)
	out := make(map[int]byte, len(pairs))
	for _, og := range pairs {
		out[og.Object] = og.Grade
	}
	return out
}

// ForEachProbe implements billboard.Interface: p's shard sends its row
// once, in ascending object order, the in-memory board's order.
func (cl *Cluster) ForEachProbe(p int, fn func(o int, grade byte)) {
	for _, og := range cl.probedPairs(p) {
		fn(og.Object, og.Grade)
	}
}

// probedPairs fetches p's probe results as ordered (object, grade)
// pairs, the server's order. ProbedObjects and ForEachProbe share it.
func (cl *Cluster) probedPairs(p int) []objGrade {
	var reply probedObjectsReply
	cl.get(cl.probeShard(p), PathProbedObjects, url.Values{"player": {strconv.Itoa(p)}}, &reply)
	return reply.Objects
}

// ProbeCount implements billboard.Interface: the sum over shards.
func (cl *Cluster) ProbeCount() int64 {
	return cl.sumStats(func(s statsReply) int64 { return s.ProbeCount })
}

// ClearProbes removes player p's probe results for objs on p's shard
// (mirrors billboard.Board.ClearProbes, including the quiescence
// requirement). The serving daemon uses it to release a departed
// player's probe storage at an epoch boundary. Not part of
// boardclient.Interface.
func (cl *Cluster) ClearProbes(p int, objs []int) {
	if len(objs) == 0 {
		return
	}
	cl.post(cl.probeShard(p), PathClearProbes, &clearProbesPost{Player: p, Objects: objs})
}

// PostBatch implements boardclient.Batcher: the batch is split by
// owning shard — probe sets by player, topic posts and drops by topic —
// with post order kept within each shard, and every touched shard gets
// its part as one idempotent request, concurrently.
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
		cl.postBatch(shards[i], byShard[shards[i]])
	})
}

// postBatch sends posts, all owned by shard s, as one request.
func (cl *Cluster) postBatch(s int, posts []boardclient.Post) {
	msg := postBatch{Posts: make([]batchPost, len(posts))}
	for i := range posts {
		msg.Posts[i] = wirePost(&posts[i])
	}
	cl.post(s, PathPostBatch, &msg)
}

// ── Topic operations (routed by topic name) ──────────────────────────

// topicShard is the shard owning topic name.
func (cl *Cluster) topicShard(name string) int { return owner(name, len(cl.clients)) }

// Post implements billboard.Interface as a one-entry batch to the
// topic's shard, as do PostVector, PostValues and DropTopic.
func (cl *Cluster) Post(name string, player int, v bitvec.Partial) {
	cl.postBatch(cl.topicShard(name), []boardclient.Post{{Kind: boardclient.VectorPost, Topic: name, Player: player, Vec: v}})
}

// PostVector implements billboard.Interface.
func (cl *Cluster) PostVector(name string, player int, v bitvec.Vector) {
	cl.Post(name, player, bitvec.PartialOf(v))
}

// Postings implements billboard.Interface.
func (cl *Cluster) Postings(name string) []billboard.Posting {
	var reply postingList
	cl.get(cl.topicShard(name), PathPostings, url.Values{"topic": {name}}, &reply)
	out := make([]billboard.Posting, len(reply))
	for i, p := range reply {
		out[i] = billboard.Posting{Player: p.Player, Vec: p.Bits.P}
	}
	return out
}

// Votes implements billboard.Interface: a TopicSnapshot read with the
// zero stamp, which no live topic carries.
func (cl *Cluster) Votes(name string) []billboard.Vote {
	_, _, _, votes, _ := cl.TopicSnapshot(name, 0, 0)
	return votes
}

// PopularVectors implements billboard.Interface.
func (cl *Cluster) PopularVectors(name string, minVotes int) []bitvec.Partial {
	var out []bitvec.Partial
	for _, v := range cl.Votes(name) {
		if v.Count >= minVotes {
			out = append(out, v.Vec)
		}
	}
	return out
}

// PostValues implements billboard.Interface.
func (cl *Cluster) PostValues(name string, player int, vals []uint32) {
	cl.postBatch(cl.topicShard(name), []boardclient.Post{{Kind: boardclient.ValuesPost, Topic: name, Player: player, Vals: vals}})
}

// ValuePostings implements billboard.Interface.
func (cl *Cluster) ValuePostings(name string) []billboard.ValuePosting {
	var reply valuePostingList
	cl.get(cl.topicShard(name), PathValuePostings, url.Values{"topic": {name}}, &reply)
	out := make([]billboard.ValuePosting, len(reply))
	for i, p := range reply {
		out[i] = billboard.ValuePosting{Player: p.Player, Vals: p.Vals}
	}
	return out
}

// ValueVotes implements billboard.Interface like Votes.
func (cl *Cluster) ValueVotes(name string) []billboard.ValueVote {
	_, _, _, _, valVotes := cl.TopicSnapshot(name, 0, 0)
	return valVotes
}

// DropTopic implements billboard.Interface.
func (cl *Cluster) DropTopic(name string) {
	cl.postBatch(cl.topicShard(name), []boardclient.Post{{Kind: boardclient.DropPost, Topic: name}})
}

// TopicSnapshot implements boardclient.Interface: one
// /v1/topic-snapshot GET to the topic's shard returning the server's
// (gen, epoch) stamp of the topic and, unless it still equals
// (sinceGen, sinceEpoch), the decoded tallies.
func (cl *Cluster) TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []billboard.Vote, valVotes []billboard.ValueVote) {
	var reply topicSnapshotReply
	cl.get(cl.topicShard(name), PathTopicSnapshot, url.Values{
		"topic": {name},
		"gen":   {strconv.FormatUint(sinceGen, 10)},
		"epoch": {strconv.FormatUint(sinceEpoch, 10)},
	}, &reply)
	if reply.Unchanged {
		return reply.Gen, reply.Epoch, true, nil, nil
	}
	votes = make([]billboard.Vote, len(reply.Votes))
	for i, v := range reply.Votes {
		votes[i] = billboard.Vote{Vec: v.Bits.P, Count: v.Count, Voters: v.Voters}
	}
	valVotes = make([]billboard.ValueVote, len(reply.ValueVotes))
	for i, v := range reply.ValueVotes {
		valVotes[i] = billboard.ValueVote{Vals: v.Vals, Count: v.Count, Voters: v.Voters}
	}
	return reply.Gen, reply.Epoch, false, votes, valVotes
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
		var reply statsReply
		cl.get(k, PathStats, nil, &reply)
		per[k] = field(reply)
	})
	var total int64
	for _, v := range per {
		total += v
	}
	return total
}

// Quiesce blocks until every mutation each shard server has started
// applying has finished (the shards are asked concurrently), so the
// counters read next are exact: the barrier before loadgen's and
// perfbench's probe audits. Not part of boardclient.Interface.
func (cl *Cluster) Quiesce() {
	scatter(len(cl.clients), func(k int) {
		var reply quiesceReply
		cl.get(k, PathQuiesce, nil, &reply)
	})
}

// ── Failure record and context binding ──────────────────────────────

// Err implements boardclient.Interface: the first terminal failure of
// any shard request (nil if none). Every such failure also panicked
// with the same *TransportError.
func (cl *Cluster) Err() error {
	cl.errMu.Lock()
	defer cl.errMu.Unlock()
	return cl.firstErr
}

// Failures implements boardclient.Interface: how many shard requests
// failed terminally.
func (cl *Cluster) Failures() int64 { return cl.failures.Load() }

// BindContext implements boardclient.ContextBinder: the returned view
// shares all state with cl (request ids, the failure record) but every
// shard request runs under ctx — in-flight HTTP calls are aborted and
// backoff sleeps return early when ctx is cancelled. An unbound
// cluster given a nil or never-done context returns itself.
func (cl *Cluster) BindContext(ctx context.Context) boardclient.Interface {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && cl.ctx.Done() == nil {
		return cl
	}
	return &Cluster{ctx: ctx, clusterState: cl.clusterState}
}
