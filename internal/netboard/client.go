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

	"tellme/internal/boardclient"
	"tellme/internal/telemetry"
	"tellme/internal/wire"
)

// client is a Cluster's transport to one shard server: the retry loop,
// the request ids, the backoff jitter and the shard's instruments. Each
// request runs under the context the Cluster passes in.
//
// Every mutating request carries a client-generated idempotency key
// (HeaderRequestID) that is reused verbatim across retries, so a retry
// of a request the server already applied — but whose response was lost
// — is deduplicated server-side instead of double-applied.
type client struct {
	// baseURL is the server's root, e.g. "http://localhost:7070".
	baseURL string
	// cfg is the normalized Config with HTTPClient resolved; codec is
	// cfg.Codec's wire codec; prefix keys the shard's instruments.
	cfg    Config
	codec  wire.Codec
	prefix string

	// sleep stubs the backoff wait for tests. The stub is only invoked
	// with a live context; a cancelled context skips the wait entirely,
	// which is what the cancellation tests assert.
	sleep func(time.Duration)

	// jitter is the randomly seeded backoff jitter stream, guarded by
	// jitterMu: one shard may retry from many player goroutines at once.
	// Every shard draws its own seed, so shards that fail together do not
	// retry in lockstep.
	jitterMu sync.Mutex
	jitter   *mrand.Rand

	// Request-id state: a random per-client prefix plus a sequence
	// number, unique across processes sharing one server.
	idOnce   sync.Once
	idPrefix string
	idSeq    atomic.Uint64

	// Connection-accounting instruments (lazily resolved once; nil when
	// telemetry is off). See traceContext.
	connOnce                            sync.Once
	connDialed, connReused, connStalled *telemetry.Counter
}

// newClient returns the transport to the server at baseURL. cfg is
// normalized with HTTPClient resolved, codec is its resolved Codec, and
// prefix keys the instruments.
func newClient(baseURL string, cfg Config, codec wire.Codec, prefix string) *client {
	return &client{
		baseURL: baseURL,
		cfg:     cfg,
		codec:   codec,
		prefix:  prefix,
		jitter:  mrand.New(mrand.NewPCG(mrand.Uint64(), mrand.Uint64())),
	}
}

// TransportError is a terminal transport/protocol failure: retries were
// exhausted (or cut short by cancellation) for one logical request. It
// is the value a Cluster panics with and records for Err, so callers
// can errors.As for it — and errors.Is through it to the underlying
// cause (e.g. context.DeadlineExceeded when a deadline cut the retry
// loop short).
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
// *TransportError the Cluster panics with, so errors.As(err, &pe) with
// a *ProtoError target matches.
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

// backoff waits before retry attempt i (1-based): i·RetryBackoff scaled
// by a uniform factor in [0.5, 1.5). Deterministic linear backoff
// synchronizes retry stampedes — every client that failed on the same
// server blip would sleep the same schedule and re-arrive together; the
// jitter desynchronizes the herd while keeping the linear growth (and
// the i·RetryBackoff mean) intact. The wait selects on ctx: a
// cancellation cuts it short, and backoff returns the cancellation
// cause so the retry loop stops instead of issuing doomed attempts.
func (c *client) backoff(ctx context.Context, i int) error {
	c.jitterMu.Lock()
	f := 0.5 + c.jitter.Float64()
	c.jitterMu.Unlock()
	d := time.Duration(float64(i) * float64(c.cfg.RetryBackoff) * f)
	c.cfg.Telemetry.Counter(c.prefix + ".retries").Inc()
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
func (c *client) requestID() string {
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
func (c *client) instruments(path string) (reqs *telemetry.Counter, lat *telemetry.Histogram) {
	tel, prefix := c.cfg.Telemetry, c.prefix
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
func (c *client) traceContext(ctx context.Context) context.Context {
	tel, prefix := c.cfg.Telemetry, c.prefix
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

// do sends one logical request under ctx and returns its terminal
// failure, or nil. A non-nil body makes it a POST of body under one
// fresh request id; otherwise it is a GET of path?query. The 2xx reply
// decodes into out when out is non-nil: a GET's always, a POST's when
// the batch has reads (a batch without reads answers 204, which is not
// read). Transient failures are retried with backoff, and every
// attempt of a POST carries the same request id, so a retry of a post
// the server already applied is acknowledged, not re-applied, and its
// reads are answered again. A 4xx or a reply without this protocol's
// stamp ends the call at once: retrying cannot help. Cancelling ctx
// aborts the in-flight request and the backoff wait.
//
// A GET advertises a binary-configured client's codec via Accept; a
// POST's reply comes in the codec of its body. Either reply decodes by
// its Content-Type. A POST body is encoded into a pooled scratch buffer
// but sent from its own copy: net/http may still read a request body
// after Do returns (Body "may be closed asynchronously"), so a pooled
// buffer must not back it.
func (c *client) do(ctx context.Context, path string, query url.Values, body, out wire.Message) error {
	u := c.baseURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	ins := c.wireInstruments(path)
	post := body != nil
	method, id := http.MethodGet, ""
	var sent []byte
	if post {
		bufp := wire.GetBuffer()
		start := time.Now()
		enc, err := c.codec.Append((*bufp)[:0], body)
		ins.EncodeNs.ObserveSince(start)
		if err != nil {
			wire.PutBuffer(bufp)
			return err
		}
		sent = bytes.Clone(enc)
		*bufp = enc[:0] // keep the grown capacity for reuse
		wire.PutBuffer(bufp)
		method, id = http.MethodPost, c.requestID()
	}
	reqs, lat := c.instruments(path)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			if cerr := c.backoff(ctx, attempt); cerr != nil {
				lastErr = fmt.Errorf("%s %s: canceled during retry backoff: %w (last attempt: %v)", method, path, cerr, lastErr)
				break
			}
		}
		var rd io.Reader
		if post {
			rd = bytes.NewReader(sent)
		}
		req, err := http.NewRequestWithContext(c.traceContext(ctx), method, u, rd)
		if err != nil {
			return err
		}
		req.Header.Set(HeaderProto, ProtoVersion)
		if post {
			req.Header.Set("Content-Type", c.codec.ContentType())
			req.Header.Set(HeaderRequestID, id)
			ins.BytesOut.Add(int64(len(sent)))
		} else if c.codec == wire.Binary {
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
		if code := resp.StatusCode; code/100 != 2 {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			lastErr = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, msg)
			if code/100 == 4 {
				break // protocol error; retrying cannot help
			}
			continue
		}
		if got := resp.Header.Get(HeaderProto); got != ProtoVersion {
			// Wrong or missing protocol stamp: this is not a tellme
			// billboard speaking our protocol version — see ProtoError.
			resp.Body.Close()
			lastErr = &ProtoError{Path: path, Got: got}
			break
		}
		if out == nil {
			resp.Body.Close()
			return nil
		}
		if lastErr = c.decodeReply(resp, method, path, ins, out); lastErr == nil {
			return nil
		}
	}
	return lastErr
}

// decodeReply reads a 2xx reply into out, decoding it by its
// Content-Type: any binary-family media type decodes with the binary
// codec, which itself rejects frame versions it does not speak — a
// future v2 reply fails loudly, not quietly.
func (c *client) decodeReply(resp *http.Response, method, path string, ins wire.Instruments, out wire.Message) error {
	bufp := wire.GetBuffer()
	defer wire.PutBuffer(bufp)
	data, err := wire.ReadAll(*bufp, resp.Body)
	resp.Body.Close()
	*bufp = data[:0] // keep the grown capacity for reuse
	if err != nil {
		return fmt.Errorf("%s %s: read: %v", method, path, err)
	}
	ins.BytesIn.Add(int64(len(data)))
	codec := wire.JSON
	if wire.ClassifyContentType(resp.Header.Get("Content-Type")) != wire.KindJSON {
		codec = wire.Binary
	}
	start := time.Now()
	err = codec.Decode(data, out)
	ins.DecodeNs.ObserveSince(start)
	if err != nil {
		return fmt.Errorf("%s %s: decode: %v", method, path, err)
	}
	return nil
}

// wireInstruments resolves the per-endpoint wire telemetry — body bytes
// in/out and encode/decode latency (the zero no-op value when telemetry
// is off).
func (c *client) wireInstruments(path string) wire.Instruments {
	return wire.NewInstruments(c.cfg.Telemetry, c.prefix, path)
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

// wireRead is r as a read of a post batch.
func wireRead(r *boardclient.Read) batchRead {
	switch r.Kind {
	case boardclient.PostingsRead:
		return batchRead{Postings: &topicRead{Topic: r.Topic}}
	case boardclient.ValuePostingsRead:
		return batchRead{ValuePostings: &topicRead{Topic: r.Topic}}
	case boardclient.SnapshotRead:
		return batchRead{Snapshot: &snapshotRead{Topic: r.Topic, Gen: r.SinceGen, Epoch: r.SinceEpoch}}
	default:
		return batchRead{Lookups: &lookupsRead{Player: r.Player, Objects: r.Objs}}
	}
}
