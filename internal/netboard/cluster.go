package netboard

import (
	"context"
	"fmt"
	"net/url"
	"strconv"
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
// in-memory run of the same seeds. Every post and every topic read or
// probe lookup is a /v1/batch/posts request: a batch of posts and
// reads is split by owning shard and its parts sent concurrently, each
// shard answering its reads after applying its posts, and a single
// post, DropTopic, read or lookup is a one-entry batch. Each vote read
// (Votes, ValueVotes, PopularVectors) is a snapshot read.
// ProbedObjects and ForEachProbe are one GET of the player's row, and
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

// LookupProbes implements billboard.Interface: a one-read batch to p's
// shard.
func (cl *Cluster) LookupProbes(p int, objs []int, grades []byte, known []bool) {
	if len(objs) == 0 {
		return
	}
	cl.read(boardclient.Read{Kind: boardclient.LookupsRead, Player: p, Objs: objs, Grades: grades, Known: known})
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

// PostBatch implements boardclient.Batcher: posts and reads are split
// by owning shard — probe sets and lookups by player, topic posts,
// drops and topic reads by topic — keeping their order within each
// shard, and every touched shard gets its part as one idempotent
// request, concurrently. A shard answers its reads after applying its
// posts, and it holds every post a read of its keys can see.
func (cl *Cluster) PostBatch(posts []boardclient.Post, reads []boardclient.Read) {
	k := len(cl.clients)
	parts := make([]shardPart, k)
	for i := range posts {
		p := &posts[i]
		var s int
		if p.Kind == boardclient.ProbesPost {
			s = playerOwner(p.Player, k)
		} else {
			s = owner(p.Topic, k)
		}
		parts[s].msg.Posts = append(parts[s].msg.Posts, wirePost(p))
	}
	for i := range reads {
		s := cl.readShard(&reads[i])
		parts[s].msg.Reads = append(parts[s].msg.Reads, wireRead(&reads[i]))
		parts[s].reads = append(parts[s].reads, &reads[i])
	}
	var shards []int
	for s := range parts {
		if len(parts[s].msg.Posts) > 0 || len(parts[s].msg.Reads) > 0 {
			shards = append(shards, s)
		}
	}
	scatter(len(shards), func(i int) {
		cl.send(shards[i], &parts[shards[i]].msg, parts[shards[i]].reads)
	})
}

// shardPart is one shard's part of a batch: the request and the reads
// its Reads ask, in order.
type shardPart struct {
	msg   postBatch
	reads []*boardclient.Read
}

// readShard is the shard that answers r: its player's for a lookup,
// its topic's otherwise.
func (cl *Cluster) readShard(r *boardclient.Read) int {
	if r.Kind == boardclient.LookupsRead {
		return cl.probeShard(r.Player)
	}
	return cl.topicShard(r.Topic)
}

// send sends msg to shard s as one request and fills in reads, the
// reads msg.Reads asks, from the reply.
func (cl *Cluster) send(s int, msg *postBatch, reads []*boardclient.Read) {
	if len(reads) == 0 {
		cl.post(s, PathPostBatch, msg)
		return
	}
	var reply batchReply
	cl.check(cl.clients[s].do(cl.ctx, PathPostBatch, nil, msg, &reply))
	if len(reply.Results) != len(reads) {
		cl.check(fmt.Errorf("post batch: %d results for %d reads", len(reply.Results), len(reads)))
	}
	for i, r := range reads {
		cl.check(answer(r, &reply.Results[i]))
	}
}

// answer fills r in from res, the answer its shard sent, or returns
// why res does not answer r.
func answer(r *boardclient.Read, res *readResult) error {
	switch r.Kind {
	case boardclient.PostingsRead:
		if res.Postings == nil {
			break
		}
		r.Postings = make([]billboard.Posting, len(*res.Postings))
		for i, p := range *res.Postings {
			r.Postings[i] = billboard.Posting{Player: p.Player, Vec: p.Bits.P}
		}
		return nil
	case boardclient.ValuePostingsRead:
		if res.ValuePostings == nil {
			break
		}
		r.ValuePostings = make([]billboard.ValuePosting, len(*res.ValuePostings))
		for i, p := range *res.ValuePostings {
			r.ValuePostings[i] = billboard.ValuePosting{Player: p.Player, Vals: p.Vals}
		}
		return nil
	case boardclient.SnapshotRead:
		snap := res.Snapshot
		if snap == nil {
			break
		}
		r.Gen, r.Epoch, r.Unchanged = snap.Gen, snap.Epoch, snap.Unchanged
		r.Votes, r.ValueVotes = nil, nil
		if snap.Unchanged {
			return nil
		}
		r.Votes = make([]billboard.Vote, len(snap.Votes))
		for i, v := range snap.Votes {
			r.Votes[i] = billboard.Vote{Vec: v.Bits.P, Count: v.Count, Voters: v.Voters}
		}
		r.ValueVotes = make([]billboard.ValueVote, len(snap.ValueVotes))
		for i, v := range snap.ValueVotes {
			r.ValueVotes[i] = billboard.ValueVote{Vals: v.Vals, Count: v.Count, Voters: v.Voters}
		}
		return nil
	case boardclient.LookupsRead:
		if res.Lookups == nil {
			break
		}
		grades := res.Lookups.Grades
		if len(grades) != len(r.Objs) {
			return fmt.Errorf("batch lookup: %d grades for %d objects", len(grades), len(r.Objs))
		}
		for k := range r.Objs {
			switch grades[k] {
			case '1':
				r.Grades[k], r.Known[k] = 1, true
			case '0':
				r.Grades[k], r.Known[k] = 0, true
			default:
				r.Grades[k], r.Known[k] = 0, false
			}
		}
		return nil
	}
	return fmt.Errorf("post batch: no answer for a read of kind %d", r.Kind)
}

// postBatch sends posts, all owned by shard s, as one request.
func (cl *Cluster) postBatch(s int, posts []boardclient.Post) {
	msg := postBatch{Posts: make([]batchPost, len(posts))}
	for i := range posts {
		msg.Posts[i] = wirePost(&posts[i])
	}
	cl.post(s, PathPostBatch, &msg)
}

// read answers r with a one-read batch to its shard and returns it.
func (cl *Cluster) read(r boardclient.Read) boardclient.Read {
	cl.send(cl.readShard(&r), &postBatch{Reads: []batchRead{wireRead(&r)}}, []*boardclient.Read{&r})
	return r
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

// Postings implements billboard.Interface as a one-read batch to the
// topic's shard, as do ValuePostings, the vote reads and
// TopicSnapshot.
func (cl *Cluster) Postings(name string) []billboard.Posting {
	return cl.read(boardclient.Read{Kind: boardclient.PostingsRead, Topic: name}).Postings
}

// Votes implements billboard.Interface: a snapshot read with the zero
// stamp, which no live topic carries.
func (cl *Cluster) Votes(name string) []billboard.Vote {
	return cl.read(boardclient.Read{Kind: boardclient.SnapshotRead, Topic: name}).Votes
}

// PopularVectors implements billboard.Interface.
func (cl *Cluster) PopularVectors(name string, minVotes int) []bitvec.Partial {
	return billboard.PopularOf(cl.Votes(name), minVotes)
}

// PostValues implements billboard.Interface.
func (cl *Cluster) PostValues(name string, player int, vals []uint32) {
	cl.postBatch(cl.topicShard(name), []boardclient.Post{{Kind: boardclient.ValuesPost, Topic: name, Player: player, Vals: vals}})
}

// ValuePostings implements billboard.Interface.
func (cl *Cluster) ValuePostings(name string) []billboard.ValuePosting {
	return cl.read(boardclient.Read{Kind: boardclient.ValuePostingsRead, Topic: name}).ValuePostings
}

// ValueVotes implements billboard.Interface like Votes.
func (cl *Cluster) ValueVotes(name string) []billboard.ValueVote {
	return cl.read(boardclient.Read{Kind: boardclient.SnapshotRead, Topic: name}).ValueVotes
}

// DropTopic implements billboard.Interface.
func (cl *Cluster) DropTopic(name string) {
	cl.postBatch(cl.topicShard(name), []boardclient.Post{{Kind: boardclient.DropPost, Topic: name}})
}

// TopicSnapshot implements boardclient.Interface: a one-read batch to
// the topic's shard returning the server's (gen, epoch) stamp of the
// topic and, unless it still equals (sinceGen, sinceEpoch), the
// decoded tallies.
func (cl *Cluster) TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []billboard.Vote, valVotes []billboard.ValueVote) {
	r := cl.read(boardclient.Read{Kind: boardclient.SnapshotRead, Topic: name, SinceGen: sinceGen, SinceEpoch: sinceEpoch})
	return r.Gen, r.Epoch, r.Unchanged, r.Votes, r.ValueVotes
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
