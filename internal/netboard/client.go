package netboard

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/telemetry"
	"tellme/internal/wire"
)

// Client implements boardclient.Interface against a remote Server. It
// is configured once, by NewClientWithConfig (or NewClient for the zero
// Config); nothing about it is settable afterwards.
//
// billboard.Interface is error-free (the model treats the billboard as
// reliable shared memory), so transport failures are routed to
// Config.OnError, which defaults to panicking with a *TransportError.
// If OnError returns instead of panicking, the client enters degraded
// mode: the failed call returns the zero value of its type (LookupProbe
// → (0,false), Postings → nil, ProbeCount → 0, ...), the error is
// recorded, and Err/Failures report it. Degraded zero values are
// indistinguishable from an empty board at the call site, so any caller
// installing a non-panicking OnError MUST check Err before trusting
// results — a dead transport must not masquerade as an empty billboard.
//
// Every mutating request carries a client-generated idempotency key
// (HeaderRequestID) that is reused verbatim across retries, so a retry
// of a request the server already applied — but whose response was lost
// — is deduplicated server-side instead of double-applied.
//
// Every write, a deferred view's PostBatch or a single post, is one
// /v1/batch/posts request. LookupProbes and the vote reads (Votes,
// ValueVotes, PopularVectors) use the batched wire protocol too: one
// request per batch, and an epoch-tagged per-topic snapshot cache that
// re-downloads a tally only when the topic actually changed.
//
// A client carries the context its requests run under. The one
// NewClientWithConfig returns runs uncancellable (context.Background).
// BindContext returns a view of the client — a *Client sharing all of
// its state — whose every request, including retry backoff sleeps,
// aborts when the bound context is cancelled; the probe engine binds
// the run context this way, so a deadline cuts through in-flight HTTP
// calls instead of waiting out the full retry schedule.
type Client struct {
	// BaseURL is the server's root, e.g. "http://localhost:7070".
	BaseURL string

	// ctx governs every request sent through this client or view; never
	// nil.
	ctx context.Context
	// strict is set only on a reshard drain's views: a terminal failure
	// panics whatever OnError says, so the drain aborts instead of
	// carrying on with degraded zero values.
	strict bool

	*clientState
}

// clientState is everything a client shares with its views.
type clientState struct {
	// cfg is the normalized Config the client was built from, with
	// HTTPClient and TelemetryPrefix resolved; codec is cfg.Codec's
	// wire codec.
	cfg   Config
	codec wire.Codec

	// sleep stubs the backoff wait for tests. The stub is only invoked
	// with a live context; a cancelled context skips the wait entirely,
	// which is what the cancellation tests assert.
	sleep func(time.Duration)

	// jitter is the lazily seeded backoff jitter stream (see
	// Config.JitterSeed), guarded by jitterMu: one client may retry from
	// many player goroutines at once.
	jitterMu sync.Mutex
	jitter   *mrand.Rand

	// Request-id state: a random per-client prefix plus a sequence
	// number, unique across processes sharing one server.
	idOnce   sync.Once
	idPrefix string
	idSeq    atomic.Uint64

	// Degraded-mode record: first transport error and failure count.
	errMu    sync.Mutex
	firstErr error
	failures atomic.Int64

	// Connection-accounting instruments (lazily resolved once; nil when
	// telemetry is off). See traceContext.
	connOnce                            sync.Once
	connDialed, connReused, connStalled *telemetry.Counter

	// Per-topic snapshot cache keyed by the server's (gen, epoch) stamp.
	cacheMu sync.Mutex
	cache   map[string]*topicCacheEntry
}

// topicCacheEntry is one topic's decoded tallies at a (gen, epoch) stamp.
type topicCacheEntry struct {
	gen, epoch uint64
	votes      []billboard.Vote
	valVotes   []billboard.ValueVote
}

var _ boardclient.Interface = (*Client)(nil)
var _ boardclient.ContextBinder = (*Client)(nil)
var _ boardclient.Batcher = (*Client)(nil)

// TransportError is a terminal transport/protocol failure: retries were
// exhausted (or cut short by cancellation) for one logical request. It
// is the value fail panics with when no OnError is installed, and the
// value recorded by Err, so callers can errors.As for it — and
// errors.Is through it to the underlying cause (e.g.
// context.DeadlineExceeded when a deadline cut the retry loop short).
type TransportError struct {
	// Err is the last attempt's failure.
	Err error
}

// Error implements error, keeping the historical "netboard: " prefix.
func (e *TransportError) Error() string { return fmt.Sprintf("netboard: %v", e.Err) }

// Unwrap exposes the underlying failure.
func (e *TransportError) Unwrap() error { return e.Err }

// ProtoError reports a wire-protocol version mismatch: a 2xx response
// arrived without the expected "Tellme-Proto: 1" stamp, meaning the
// peer is not a tellme billboard of this protocol generation (an older
// server, or something else entirely). It is terminal — retries cannot
// change what the peer speaks — and reaches the caller wrapped in the
// *TransportError that fail records/panics with, so
// errors.As(err, &pe) with a *ProtoError target matches.
type ProtoError struct {
	// Path is the endpoint whose response lacked the stamp.
	Path string
	// Got is the Tellme-Proto value received ("" when absent).
	Got string
}

// Error implements error.
func (e *ProtoError) Error() string {
	if e.Got == "" {
		return fmt.Sprintf("netboard: %s: server did not identify protocol %s (missing %s header; not a tellme billboard?)", e.Path, ProtoVersion, HeaderProto)
	}
	return fmt.Sprintf("netboard: %s: protocol version mismatch: server speaks %s=%s, client speaks %s", e.Path, HeaderProto, e.Got, ProtoVersion)
}

// NewClient returns a Client for the server at baseURL with the
// zero-value Config; use NewClientWithConfig to tune the transport,
// retries, failure handling, codec and telemetry.
func NewClient(baseURL string) *Client {
	return NewClientWithConfig(baseURL, Config{})
}

// BindContext implements boardclient.ContextBinder: the returned view
// shares all state with c (request ids, snapshot cache, degraded-mode
// record) but runs every request under ctx — in-flight HTTP calls are
// aborted and backoff sleeps return early when ctx is cancelled. An
// unbound client given a nil or never-done context returns itself.
func (c *Client) BindContext(ctx context.Context) boardclient.Interface {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && c.ctx.Done() == nil {
		return c
	}
	return c.view(ctx, c.strict)
}

// view returns a view of c under ctx; see Client.strict for strict.
func (c *Client) view(ctx context.Context, strict bool) *Client {
	v := *c
	v.ctx, v.strict = ctx, strict
	return &v
}

// Err returns the first transport/protocol error the client swallowed
// via a non-panicking OnError (nil if none). Once Err is non-nil the
// client has returned at least one degraded zero value; results
// obtained since then must not be interpreted as board state.
func (c *Client) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.firstErr
}

// Failures returns how many calls failed terminally (each one invoked
// OnError and returned a degraded zero value).
func (c *Client) Failures() int64 { return c.failures.Load() }

func (c *Client) fail(err error) {
	terr := &TransportError{Err: err}
	c.failures.Add(1)
	c.errMu.Lock()
	if c.firstErr == nil {
		c.firstErr = terr
	}
	c.errMu.Unlock()
	if c.cfg.OnError != nil && !c.strict {
		c.cfg.OnError(terr)
		return
	}
	panic(terr)
}

// backoff waits before retry attempt i (1-based): i·RetryBackoff scaled
// by a uniform factor in [0.5, 1.5). Deterministic linear backoff
// synchronizes retry stampedes — every client that failed on the same
// server blip would sleep the same schedule and re-arrive together; the
// seeded jitter desynchronizes the herd while keeping the linear growth
// (and the i·RetryBackoff mean) intact. The wait selects on ctx: a
// cancellation cuts it short, and backoff returns the cancellation
// cause so the retry loop stops instead of issuing doomed attempts.
func (c *Client) backoff(ctx context.Context, i int) error {
	c.jitterMu.Lock()
	if c.jitter == nil {
		seed := c.cfg.JitterSeed
		for seed == 0 {
			seed = mrand.Uint64()
		}
		c.jitter = mrand.New(mrand.NewPCG(seed, 0x74656c6c6d65)) // "tellme"
	}
	f := 0.5 + c.jitter.Float64()
	c.jitterMu.Unlock()
	d := time.Duration(float64(i) * float64(c.cfg.RetryBackoff) * f)
	c.cfg.Telemetry.Counter(c.cfg.TelemetryPrefix + ".retries").Inc()
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return context.Cause(ctx)
		default:
		}
	}
	if c.sleep != nil {
		c.sleep(d)
		return nil
	}
	if done == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-done:
		return context.Cause(ctx)
	}
}

// requestID mints a fresh idempotency key: random client prefix plus a
// sequence number. One id is generated per logical mutation and reused
// across its retries.
func (c *Client) requestID() string {
	c.idOnce.Do(func() {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			c.idPrefix = hex.EncodeToString(b[:])
		} else {
			c.idPrefix = fmt.Sprintf("t%d", time.Now().UnixNano())
		}
	})
	return c.idPrefix + "-" + strconv.FormatUint(c.idSeq.Add(1), 10)
}

// instruments resolves the per-endpoint request counter and latency
// histogram for one logical call (nil instruments when telemetry is
// off). The registry lookup happens once per call, not per attempt.
func (c *Client) instruments(path string) (reqs *telemetry.Counter, lat *telemetry.Histogram) {
	tel, prefix := c.cfg.Telemetry, c.cfg.TelemetryPrefix
	if tel == nil {
		return nil, nil
	}
	return tel.Counter(prefix + ".requests." + path),
		tel.Histogram(prefix+".latency_ns."+path, telemetry.LatencyBuckets())
}

// connStallThreshold separates "the pool handed over a connection" from
// "the request waited for one": a GetConn→GotConn gap above it counts as
// a stall — the pool was saturated (MaxConnsPerHost reached, or every
// idle connection taken) and the request queued or dialed.
const connStallThreshold = time.Millisecond

// traceContext attaches connection accounting to a request context:
// "<prefix>.conns.dialed" counts fresh dials (pool misses),
// "<prefix>.conns.reused" counts pooled handoffs, and
// "<prefix>.conns.stalled" counts requests that waited longer than
// connStallThreshold for a connection — the pool-saturation signal a
// load run watches to size MaxIdleConnsPerHost. No telemetry, no trace.
func (c *Client) traceContext(ctx context.Context) context.Context {
	tel, prefix := c.cfg.Telemetry, c.cfg.TelemetryPrefix
	if tel == nil {
		return ctx
	}
	c.connOnce.Do(func() {
		c.connDialed = tel.Counter(prefix + ".conns.dialed")
		c.connReused = tel.Counter(prefix + ".conns.reused")
		c.connStalled = tel.Counter(prefix + ".conns.stalled")
	})
	var wait time.Time
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GetConn: func(string) { wait = time.Now() },
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				c.connReused.Inc()
			} else {
				c.connDialed.Inc()
			}
			if !wait.IsZero() && time.Since(wait) > connStallThreshold {
				c.connStalled.Inc()
			}
		},
	})
}

// wireInstruments resolves the per-endpoint wire telemetry — body bytes
// in/out and encode/decode latency (the zero no-op value when telemetry
// is off).
func (c *Client) wireInstruments(path string) wire.Instruments {
	return wire.NewInstruments(c.cfg.Telemetry, c.cfg.TelemetryPrefix, path)
}

// post sends a POST and expects 2xx, retrying transient failures. All
// attempts carry the same request id, so a retry of a post the server
// already applied is acknowledged, not re-applied. A 4xx ends the call
// whatever the codec: it is a protocol error, not a transient failure.
// Cancelling ctx aborts the in-flight request and the backoff wait.
//
// The body is encoded into a pooled scratch buffer but sent from its
// own copy: net/http may still read a request body after Do returns
// (Body "may be closed asynchronously"), so a pooled buffer must not
// back it.
func (c *Client) post(ctx context.Context, path string, body wire.Message) {
	ins := c.wireInstruments(path)
	bufp := wire.GetBuffer()
	start := time.Now()
	enc, err := c.codec.Append((*bufp)[:0], body)
	ins.EncodeNs.ObserveSince(start)
	if err != nil {
		wire.PutBuffer(bufp)
		c.fail(err)
		return
	}
	buf := bytes.Clone(enc)
	*bufp = enc[:0] // keep the grown capacity for reuse
	wire.PutBuffer(bufp)
	id := c.requestID()
	reqs, lat := c.instruments(path)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			if cerr := c.backoff(ctx, attempt); cerr != nil {
				lastErr = fmt.Errorf("POST %s: canceled during retry backoff: %w (last attempt: %v)", path, cerr, lastErr)
				break
			}
		}
		req, err := http.NewRequestWithContext(c.traceContext(ctx), http.MethodPost, c.BaseURL+path, bytes.NewReader(buf))
		if err != nil {
			c.fail(err)
			return
		}
		req.Header.Set("Content-Type", c.codec.ContentType())
		req.Header.Set(HeaderRequestID, id)
		req.Header.Set(HeaderProto, ProtoVersion)
		reqs.Inc()
		ins.BytesOut.Add(int64(len(buf)))
		start := time.Now()
		resp, err := c.cfg.HTTPClient.Do(req)
		lat.ObserveSince(start)
		if err != nil {
			lastErr = err
			continue
		}
		code := resp.StatusCode
		if code/100 == 2 {
			got := resp.Header.Get(HeaderProto)
			resp.Body.Close()
			if got != ProtoVersion {
				// Wrong or missing protocol stamp: this is not a tellme
				// billboard speaking our protocol version. Terminal — a
				// retry cannot change what the peer speaks.
				lastErr = &ProtoError{Path: path, Got: got}
				break
			}
			return
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		lastErr = fmt.Errorf("POST %s: %s: %s", path, resp.Status, msg)
		if code/100 == 4 {
			break // protocol error; retrying cannot help
		}
	}
	c.fail(lastErr)
}

// get fetches a reply into out, retrying transient failures. A
// binary-configured client advertises the binary codec via Accept and
// decodes the reply by its Content-Type. It reports whether it
// succeeded; on false the client has already failed (and, in degraded
// mode, out is untouched). Cancelling ctx aborts the in-flight request
// and the backoff wait.
func (c *Client) get(ctx context.Context, path string, query url.Values, out wire.Message) bool {
	u := c.BaseURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	ins := c.wireInstruments(path)
	reqs, lat := c.instruments(path)
	bufp := wire.GetBuffer()
	defer wire.PutBuffer(bufp)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			if cerr := c.backoff(ctx, attempt); cerr != nil {
				lastErr = fmt.Errorf("GET %s: canceled during retry backoff: %w (last attempt: %v)", path, cerr, lastErr)
				break
			}
		}
		req, err := http.NewRequestWithContext(c.traceContext(ctx), http.MethodGet, u, nil)
		if err != nil {
			c.fail(err)
			return false
		}
		req.Header.Set(HeaderProto, ProtoVersion)
		if c.codec == wire.Binary {
			req.Header.Set("Accept", wire.ContentTypeBinary)
		}
		reqs.Inc()
		start := time.Now()
		resp, err := c.cfg.HTTPClient.Do(req)
		lat.ObserveSince(start)
		if err != nil {
			lastErr = err
			continue
		}
		code := resp.StatusCode
		if code/100 != 2 {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			lastErr = fmt.Errorf("GET %s: %s: %s", path, resp.Status, msg)
			if code/100 == 4 {
				break
			}
			continue
		}
		if got := resp.Header.Get(HeaderProto); got != ProtoVersion {
			// Refuse to decode a response from a peer that does not
			// stamp our protocol version — see ProtoError.
			resp.Body.Close()
			lastErr = &ProtoError{Path: path, Got: got}
			break
		}
		data, err := wire.ReadAll(*bufp, resp.Body)
		resp.Body.Close()
		*bufp = data[:0] // keep the grown capacity for reuse/return
		if err != nil {
			lastErr = fmt.Errorf("GET %s: read: %v", path, err)
			continue
		}
		ins.BytesIn.Add(int64(len(data)))
		codec := wire.JSON
		if wire.ClassifyContentType(resp.Header.Get("Content-Type")) != wire.KindJSON {
			// Any binary-family media type decodes with the binary
			// codec, which itself rejects frame versions it does not
			// speak — a future v2 reply fails loudly, not quietly.
			codec = wire.Binary
		}
		start = time.Now()
		err = codec.Decode(data, out)
		ins.DecodeNs.ObserveSince(start)
		if err != nil {
			lastErr = fmt.Errorf("GET %s: decode: %v", path, err)
			continue
		}
		return true
	}
	c.fail(lastErr)
	return false
}

// PostProbe implements billboard.Interface as a one-entry PostBatch,
// as do PostProbes, Post, PostValues and DropTopic. A nonzero grade
// posts as 1, as billboard.Board.PostProbe stores it.
func (c *Client) PostProbe(p, o int, val byte) {
	c.PostProbes(p, []int{o}, []byte{val})
}

// PostProbes implements billboard.Interface: the whole batch travels as
// one idempotent request.
func (c *Client) PostProbes(p int, objs []int, grades []byte) {
	if len(objs) == 0 {
		return
	}
	c.PostBatch([]boardclient.Post{{Kind: boardclient.ProbesPost, Player: p, Objs: objs, Grades: grades}})
}

// gradeString is grades in the '0'/'1' wire alphabet of a probe batch.
func gradeString(grades []byte) string {
	var sb strings.Builder
	sb.Grow(len(grades))
	for _, g := range grades {
		sb.WriteByte('0' + min(g, 1))
	}
	return sb.String()
}

// PostBatch implements boardclient.Batcher: the posts travel in order
// as one idempotent request. Each dropped topic's snapshot-cache entry
// is evicted once the request is done.
func (c *Client) PostBatch(posts []boardclient.Post) {
	if len(posts) == 0 {
		return
	}
	msg := postBatch{Posts: make([]batchPost, len(posts))}
	for i := range posts {
		msg.Posts[i] = wirePost(&posts[i])
	}
	c.post(c.ctx, PathPostBatch, &msg)
	for i := range posts {
		if posts[i].Kind == boardclient.DropPost {
			c.evict(posts[i].Topic)
		}
	}
}

// wirePost is p as an entry of a post batch.
func wirePost(p *boardclient.Post) batchPost {
	switch p.Kind {
	case boardclient.ProbesPost:
		return batchPost{Probes: &batchProbesPost{Player: p.Player, Objects: p.Objs, Grades: gradeString(p.Grades)}}
	case boardclient.ValuesPost:
		return batchPost{Values: &valuesPost{Topic: p.Topic, Player: p.Player, Vals: p.Vals}}
	case boardclient.VectorPost:
		return batchPost{Vector: &vectorPost{Topic: p.Topic, Player: p.Player, Bits: wire.Bits{P: p.Vec}}}
	default:
		return batchPost{Drop: &dropPost{Topic: p.Topic}}
	}
}

// LookupProbe implements billboard.Interface as a one-object
// LookupProbes.
func (c *Client) LookupProbe(p, o int) (byte, bool) { return lookupOne(c, p, o) }

// lookupOne is b.LookupProbe(p, o) as a one-object LookupProbes.
func lookupOne(b billboard.Interface, p, o int) (byte, bool) {
	var grade [1]byte
	var known [1]bool
	b.LookupProbes(p, []int{o}, grade[:], known[:])
	return grade[0], known[0]
}

// LookupProbes implements billboard.Interface: one request for the
// whole batch.
func (c *Client) LookupProbes(p int, objs []int, grades []byte, known []bool) {
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
	ok := c.get(c.ctx, PathBatchLookups, url.Values{
		"player":  {strconv.Itoa(p)},
		"objects": {sb.String()},
	}, &reply)
	if ok && len(reply.Grades) != len(objs) {
		ok = false
		c.fail(fmt.Errorf("batch lookup: %d grades for %d objects", len(reply.Grades), len(objs)))
	}
	if !ok {
		// Degraded: nothing is known. The caller's slices may hold
		// answers from an earlier call, which must not survive.
		clear(grades[:len(objs)])
		clear(known[:len(objs)])
		return
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

// ProbedObjects implements billboard.Interface.
func (c *Client) ProbedObjects(p int) map[int]byte {
	pairs := c.probedPairs(p)
	out := make(map[int]byte, len(pairs))
	for _, og := range pairs {
		out[og.Object] = og.Grade
	}
	return out
}

// probedPairs fetches p's probe results as ordered (object, grade)
// pairs — the server's order, ascending by object for a Board-backed
// server. A cluster drain replays them on the player's new shard.
func (c *Client) probedPairs(p int) []objGrade {
	var reply probedObjectsReply
	c.get(c.ctx, PathProbedObjects, url.Values{"player": {strconv.Itoa(p)}}, &reply)
	return reply.Objects
}

// ForEachProbe implements billboard.Interface. It fetches the player's
// probe results once and iterates them in the server's order (ascending
// object order for a billboard.Board-backed server).
func (c *Client) ForEachProbe(p int, fn func(o int, grade byte)) {
	for _, og := range c.probedPairs(p) {
		fn(og.Object, og.Grade)
	}
}

// ProbeCount implements billboard.Interface.
func (c *Client) ProbeCount() int64 { return c.stats().ProbeCount }

// Post implements billboard.Interface.
func (c *Client) Post(name string, player int, v bitvec.Partial) {
	c.PostBatch([]boardclient.Post{{Kind: boardclient.VectorPost, Topic: name, Player: player, Vec: v}})
}

// PostVector implements billboard.Interface.
func (c *Client) PostVector(name string, player int, v bitvec.Vector) {
	c.Post(name, player, bitvec.PartialOf(v))
}

// Postings implements billboard.Interface.
func (c *Client) Postings(name string) []billboard.Posting {
	var reply postingList
	c.get(c.ctx, PathPostings, url.Values{"topic": {name}}, &reply)
	out := make([]billboard.Posting, len(reply))
	for i, p := range reply {
		out[i] = billboard.Posting{Player: p.Player, Vec: p.Bits.P}
	}
	return out
}

// fetchSnapshot is the one topic-snapshot read: the server's (gen,
// epoch) stamp of the topic and, unless it still equals (sinceGen,
// sinceEpoch), the decoded tallies. No topic generation is 0, so a zero
// stamp always fetches. Returns nil in degraded mode.
func (c *Client) fetchSnapshot(name string, sinceGen, sinceEpoch uint64) (entry *topicCacheEntry, unchanged bool) {
	q := url.Values{
		"topic": {name},
		"gen":   {strconv.FormatUint(sinceGen, 10)},
		"epoch": {strconv.FormatUint(sinceEpoch, 10)},
	}
	var reply topicSnapshotReply
	if !c.get(c.ctx, PathTopicSnapshot, q, &reply) {
		return nil, false // degraded; c.fail already fired
	}
	entry = &topicCacheEntry{gen: reply.Gen, epoch: reply.Epoch}
	if reply.Unchanged {
		return entry, true
	}
	entry.votes = make([]billboard.Vote, len(reply.Votes))
	for i, v := range reply.Votes {
		entry.votes[i] = billboard.Vote{Vec: v.Bits.P, Count: v.Count, Voters: v.Voters}
	}
	entry.valVotes = make([]billboard.ValueVote, len(reply.ValueVotes))
	for i, v := range reply.ValueVotes {
		entry.valVotes[i] = billboard.ValueVote{Vals: v.Vals, Count: v.Count, Voters: v.Voters}
	}
	return entry, false
}

// snapshot returns the topic's tallies through the epoch-tagged
// snapshot cache: one GET when the cached (gen, epoch) stamp is stale,
// zero decode work when the server answers "unchanged". The returned
// entry is shared and immutable, matching the billboard.Interface
// contract for Votes/ValueVotes. Returns nil in degraded mode.
func (c *Client) snapshot(name string) *topicCacheEntry {
	c.cacheMu.Lock()
	if c.cache == nil {
		c.cache = make(map[string]*topicCacheEntry)
	}
	cached := c.cache[name]
	c.cacheMu.Unlock()

	var gen, epoch uint64
	if cached != nil {
		gen, epoch = cached.gen, cached.epoch
	}
	entry, unchanged := c.fetchSnapshot(name, gen, epoch)
	if entry == nil {
		return nil
	}
	if unchanged && cached != nil {
		return cached
	}
	c.cacheMu.Lock()
	// Last writer wins; concurrent fetchers decoded the same stamp or a
	// newer one, and a stale overwrite only costs one extra refetch.
	c.cache[name] = entry
	c.cacheMu.Unlock()
	return entry
}

// Votes implements billboard.Interface. The result is the shared,
// immutable snapshot-cache entry (same contract as the in-memory
// board's epoch-cached tallies).
func (c *Client) Votes(name string) []billboard.Vote {
	if entry := c.snapshot(name); entry != nil {
		return entry.votes
	}
	return nil
}

// PopularVectors implements billboard.Interface.
func (c *Client) PopularVectors(name string, minVotes int) []bitvec.Partial {
	var out []bitvec.Partial
	for _, v := range c.Votes(name) {
		if v.Count >= minVotes {
			out = append(out, v.Vec)
		}
	}
	return out
}

// PostValues implements billboard.Interface.
func (c *Client) PostValues(name string, player int, vals []uint32) {
	c.PostBatch([]boardclient.Post{{Kind: boardclient.ValuesPost, Topic: name, Player: player, Vals: vals}})
}

// ValuePostings implements billboard.Interface.
func (c *Client) ValuePostings(name string) []billboard.ValuePosting {
	var reply valuePostingList
	c.get(c.ctx, PathValuePostings, url.Values{"topic": {name}}, &reply)
	out := make([]billboard.ValuePosting, len(reply))
	for i, p := range reply {
		out[i] = billboard.ValuePosting{Player: p.Player, Vals: p.Vals}
	}
	return out
}

// ValueVotes implements billboard.Interface. Like Votes, the result is
// the shared immutable snapshot-cache entry.
func (c *Client) ValueVotes(name string) []billboard.ValueVote {
	if entry := c.snapshot(name); entry != nil {
		return entry.valVotes
	}
	return nil
}

// DropTopic implements billboard.Interface.
func (c *Client) DropTopic(name string) {
	c.PostBatch([]boardclient.Post{{Kind: boardclient.DropPost, Topic: name}})
}

// dropTopicIf asks the server to drop the topic only if its posting
// counts still match (nVec vector postings, nVal value postings). The
// outcome is not reported — a deduplicated retry could not reproduce it
// — so callers verify by re-reading the topic.
func (c *Client) dropTopicIf(name string, nVec, nVal int) {
	c.post(c.ctx, PathDropTopicIf, &dropIfPost{Topic: name, Vectors: nVec, Values: nVal})
	c.evict(name)
}

// evict removes topic name's snapshot-cache entry after a drop.
func (c *Client) evict(name string) {
	c.cacheMu.Lock()
	delete(c.cache, name)
	c.cacheMu.Unlock()
}

// TopicCount implements billboard.Interface.
func (c *Client) TopicCount() int { return c.stats().TopicCount }

// VectorPostCount implements billboard.Interface.
func (c *Client) VectorPostCount() int64 { return c.stats().VectorPostCount }

func (c *Client) stats() statsReply {
	var reply statsReply
	c.get(c.ctx, PathStats, nil, &reply)
	return reply
}

// TopicSnapshot implements boardclient.Interface: the raw epoch-tagged
// tally read behind the batched protocol, bypassing the client's own
// snapshot cache (the caller manages its stamps — this is what a
// caller layering its own cache uses). Votes/ValueVotes go through the
// cache instead.
func (c *Client) TopicSnapshot(name string, sinceGen, sinceEpoch uint64) (gen, epoch uint64, unchanged bool, votes []billboard.Vote, valVotes []billboard.ValueVote) {
	entry, unchanged := c.fetchSnapshot(name, sinceGen, sinceEpoch)
	if entry == nil {
		return 0, 0, false, nil, nil
	}
	return entry.gen, entry.epoch, unchanged, entry.votes, entry.valVotes
}

// Topics returns the names of all live topics on the server, sorted.
// It is the drain-path enumeration (mirrors billboard.Board.Topics) and
// is not part of boardclient.Interface.
func (c *Client) Topics() []string {
	var reply topicsReply
	c.get(c.ctx, PathTopics, nil, &reply)
	return reply.Topics
}

// ClearProbes removes player p's probe results for objs on the server
// (mirrors billboard.Board.ClearProbes; see there for the quiescence
// requirement). It is the second half of the cluster probe-migration
// step and is not part of boardclient.Interface.
func (c *Client) ClearProbes(p int, objs []int) {
	if len(objs) == 0 {
		return
	}
	c.post(c.ctx, PathClearProbes, &clearProbesPost{Player: p, Objects: objs})
}

// Quiesce blocks until every mutation the server has started applying
// has finished — the drain-path barrier before snapshotting a donor.
// Not part of boardclient.Interface.
func (c *Client) Quiesce() {
	var reply quiesceReply
	c.get(c.ctx, PathQuiesce, nil, &reply)
}
