package netboard

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"tellme/internal/boardclient"
	"tellme/internal/telemetry"
	"tellme/internal/wire"
)

// Default client tuning; see Config.
const (
	// DefaultRetryBackoff is the per-attempt backoff unit when
	// Config.RetryBackoff is unset.
	DefaultRetryBackoff = 50 * time.Millisecond
	// DefaultTelemetryPrefix keys the client's request/latency/retry
	// instruments when Config.TelemetryPrefix is unset. A Cluster
	// overrides it per shard ("netboard.cluster.shard<i>") so the same
	// instruments come out keyed by shard.
	DefaultTelemetryPrefix = "netboard.client"
	// DefaultMaxIdleConnsPerHost sizes the per-host idle connection pool
	// when Config.MaxIdleConnsPerHost is unset. http.DefaultTransport
	// keeps only 2 — under fleet-scale fan-in every burst past 2
	// in-flight requests dials (and then discards) fresh connections,
	// churning through ephemeral ports. 64 holds a realistic worker
	// pool's connections open between rounds.
	DefaultMaxIdleConnsPerHost = 64
	// DefaultIdleConnTimeout is how long a pooled idle connection is
	// kept before being closed when Config.IdleConnTimeout is unset.
	DefaultIdleConnTimeout = 90 * time.Second
)

// Config is the only way to configure a Client: transport, failure
// handling, retry schedule, codec and telemetry in one validated
// struct, fixed at construction. The zero value is a working
// configuration (no retries, pooled transport, JSON codec, panic on
// terminal failure), which is what NewClient produces.
type Config struct {
	// HTTPClient performs the requests; nil builds a pooled client from
	// the three pool knobs below (PooledHTTPClient). Setting HTTPClient
	// explicitly bypasses the knobs entirely — the caller owns the
	// transport.
	HTTPClient *http.Client
	// MaxIdleConnsPerHost caps the idle connections kept per server.
	// Zero or negative means DefaultMaxIdleConnsPerHost. (The Go
	// default of 2 collapses under fleet fan-in: every burst re-dials.)
	MaxIdleConnsPerHost int
	// MaxConnsPerHost caps total connections (idle + in-flight + dialing)
	// per server; requests beyond the cap block waiting for a free
	// connection — visible as "<prefix>.conns.stalled" telemetry. Zero
	// or negative means unlimited.
	MaxConnsPerHost int
	// IdleConnTimeout closes pooled connections idle this long. Zero or
	// negative means DefaultIdleConnTimeout.
	IdleConnTimeout time.Duration
	// OnError handles terminal transport/protocol failures after
	// retries are exhausted; nil means panic with the *TransportError.
	// A handler that returns opts the client into degraded mode (see
	// Client).
	OnError func(error)
	// Retries is how many times a failed request is retried with
	// jittered linear backoff (negative values are clamped to 0). 4xx
	// responses are never retried — they are protocol errors, not
	// transient failures.
	Retries int
	// RetryBackoff is the per-attempt backoff unit; zero or negative
	// means DefaultRetryBackoff. Attempt i waits i·RetryBackoff scaled
	// by a uniform ±50% jitter, so a fleet of clients that failed
	// together does not retry in lockstep and re-stampede a recovering
	// server.
	RetryBackoff time.Duration
	// JitterSeed seeds the backoff jitter stream (0 = a random seed).
	// Distinct clients should use distinct seeds (the default); a fixed
	// seed makes a single client's backoff sequence reproducible.
	JitterSeed uint64
	// Telemetry, when non-nil, records per-endpoint request counts
	// ("<prefix>.requests.<path>", one per HTTP attempt), request
	// latency histograms ("<prefix>.latency_ns.<path>") and the
	// "<prefix>.retries" counter, where <prefix> is TelemetryPrefix.
	// Nil costs nothing.
	Telemetry *telemetry.Registry
	// TelemetryPrefix keys the client's instruments; empty means
	// DefaultTelemetryPrefix. A Cluster sets a per-shard prefix so every
	// instrument comes out keyed by shard.
	TelemetryPrefix string
	// Codec selects the request/reply encoding: "json" (the default,
	// also the empty string) or "binary" (the length-prefixed packed
	// codec; see internal/wire). The client uses exactly this codec;
	// servers accept either.
	Codec string
}

// normalized returns cfg with invalid values clamped to the documented
// defaults. Defaults that NewClientWithConfig resolves itself (nil
// HTTPClient, empty TelemetryPrefix) and the zero JitterSeed are left
// as-is.
func (cfg Config) normalized() Config {
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.MaxIdleConnsPerHost <= 0 {
		cfg.MaxIdleConnsPerHost = DefaultMaxIdleConnsPerHost
	}
	if cfg.MaxConnsPerHost < 0 {
		cfg.MaxConnsPerHost = 0 // unlimited
	}
	if cfg.IdleConnTimeout <= 0 {
		cfg.IdleConnTimeout = DefaultIdleConnTimeout
	}
	return cfg
}

// PooledHTTPClient builds the http.Client a nil Config.HTTPClient
// resolves to: http.DefaultTransport's dialer and timeouts with the
// connection pool opened up per cfg's (normalized) knobs. Exposed so a
// Cluster can build ONE pooled client and share it across its shard
// clients — per-host limits then apply per shard server, and the
// process keeps a single coherent pool instead of one per shard.
func (cfg Config) PooledHTTPClient() *http.Client {
	cfg = cfg.normalized()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	// MaxIdleConns is a global cap across hosts; zero it so the per-host
	// knob is the only limit (a 16-shard cluster at 64 idle conns each
	// would otherwise thrash against the global default of 100).
	tr.MaxIdleConns = 0
	tr.MaxIdleConnsPerHost = cfg.MaxIdleConnsPerHost
	tr.MaxConnsPerHost = cfg.MaxConnsPerHost
	tr.IdleConnTimeout = cfg.IdleConnTimeout
	return &http.Client{Transport: tr}
}

// NewClientWithConfig returns a Client for the server at baseURL,
// configured from cfg (validated defaults applied). This is the
// primary constructor; NewClient is the zero-config shorthand.
func NewClientWithConfig(baseURL string, cfg Config) *Client {
	cfg = cfg.normalized()
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = cfg.PooledHTTPClient()
	}
	if cfg.TelemetryPrefix == "" {
		cfg.TelemetryPrefix = DefaultTelemetryPrefix
	}
	codec := wire.JSON
	if cfg.Codec == wire.Binary.Name() {
		codec = wire.Binary
	}
	return &Client{BaseURL: baseURL, ctx: context.Background(), clientState: &clientState{cfg: cfg, codec: codec}}
}

// FromSpec builds the board a spec names: one base URL is a *Client,
// and a comma-separated list of base URLs is a *Cluster whose shards
// share cfg. Each URL is trimmed of surrounding space, and one that is
// empty or not an absolute http(s) URL is an error. An in-process
// board has no spec: that case is the caller's.
func FromSpec(spec string, cfg Config) (boardclient.Interface, error) {
	urls := strings.Split(spec, ",")
	for i, u := range urls {
		urls[i] = strings.TrimSpace(u)
		if pu, err := url.Parse(urls[i]); err != nil || pu.Host == "" || (pu.Scheme != "http" && pu.Scheme != "https") {
			return nil, fmt.Errorf("netboard: board spec %q: %q is not an absolute http(s) URL", spec, urls[i])
		}
	}
	if len(urls) == 1 {
		return NewClientWithConfig(urls[0], cfg), nil
	}
	cl, err := NewCluster(ClusterConfig{Shards: urls, Client: cfg})
	if err != nil {
		return nil, err
	}
	return cl, nil
}
