package netboard

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"tellme/internal/telemetry"
)

// Default client tuning; see Config.
const (
	// DefaultRetryBackoff is the per-attempt backoff unit when
	// Config.RetryBackoff is unset.
	DefaultRetryBackoff = 50 * time.Millisecond
	// DefaultMaxIdleConnsPerHost sizes the pooled client's per-host idle
	// connection pool. http.DefaultTransport keeps only 2 — under
	// fleet-scale fan-in every burst past 2 in-flight requests dials
	// (and then discards) fresh connections, churning through ephemeral
	// ports. 64 holds a realistic worker pool's connections open
	// between rounds.
	DefaultMaxIdleConnsPerHost = 64
	// DefaultIdleConnTimeout is how long the pooled client keeps an
	// idle connection before closing it.
	DefaultIdleConnTimeout = 90 * time.Second
)

// Config configures a Cluster's shard transports: transport, retry
// schedule, codec and telemetry in one validated struct, fixed at
// construction. The zero value is a working configuration (pooled
// transport, no retries, JSON codec, no telemetry).
type Config struct {
	// HTTPClient performs the requests; nil builds a pooled client
	// (PooledHTTPClient). Setting HTTPClient explicitly bypasses the
	// pool settings entirely — the caller owns the transport.
	HTTPClient *http.Client
	// MaxConnsPerHost caps total connections (idle + in-flight + dialing)
	// per server; requests beyond the cap block waiting for a free
	// connection — visible as "<prefix>.conns.stalled" telemetry. Zero
	// or negative means unlimited.
	MaxConnsPerHost int
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
	// Telemetry, when non-nil, records per-endpoint request counts
	// ("<prefix>.requests.<path>", one per HTTP attempt), request
	// latency histograms ("<prefix>.latency_ns.<path>") and the
	// "<prefix>.retries" counter, where <prefix> is
	// "netboard.cluster.shard<i>" for shard i. Nil costs nothing.
	Telemetry *telemetry.Registry
	// Codec selects the request/reply encoding: "json" (the default,
	// also the empty string) or "binary" (the length-prefixed packed
	// codec; see internal/wire). The shard transports use exactly this
	// codec, and NewCluster rejects any other name; servers accept
	// either.
	Codec string
}

// normalized returns cfg with invalid values clamped to the documented
// defaults. A nil HTTPClient, which NewCluster resolves itself, is left
// as-is.
func (cfg Config) normalized() Config {
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.MaxConnsPerHost < 0 {
		cfg.MaxConnsPerHost = 0 // unlimited
	}
	return cfg
}

// PooledHTTPClient builds the http.Client a nil Config.HTTPClient
// resolves to: http.DefaultTransport's dialer and timeouts with the
// connection pool opened up to DefaultMaxIdleConnsPerHost idle
// connections per host, kept DefaultIdleConnTimeout, and capped at
// cfg's MaxConnsPerHost. A Cluster builds ONE pooled client and
// shares it across its shards — per-host limits then apply per shard
// server, and the process keeps a single coherent pool instead of one
// per shard. Exposed so a caller that wraps the transport can start
// from the same pool.
func (cfg Config) PooledHTTPClient() *http.Client {
	cfg = cfg.normalized()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	// MaxIdleConns is a global cap across hosts; zero it so the per-host
	// knob is the only limit (a 16-shard cluster at 64 idle conns each
	// would otherwise thrash against the global default of 100).
	tr.MaxIdleConns = 0
	tr.MaxIdleConnsPerHost = DefaultMaxIdleConnsPerHost
	tr.MaxConnsPerHost = cfg.MaxConnsPerHost
	tr.IdleConnTimeout = DefaultIdleConnTimeout
	return &http.Client{Transport: tr}
}

// FromSpec builds the board a spec names: a comma-separated list of
// one or more base URLs, the Cluster whose shards they are, sharing
// cfg. One URL is a one-shard Cluster: a single server. Each URL is
// trimmed of surrounding space, and one that is empty or not an
// absolute http(s) URL is an error, as is an unknown cfg.Codec. An
// in-process board has no spec: that case is the caller's.
func FromSpec(spec string, cfg Config) (*Cluster, error) {
	urls := strings.Split(spec, ",")
	for i, u := range urls {
		urls[i] = strings.TrimSpace(u)
		if pu, err := url.Parse(urls[i]); err != nil || pu.Host == "" || (pu.Scheme != "http" && pu.Scheme != "https") {
			return nil, fmt.Errorf("netboard: board spec %q: %q is not an absolute http(s) URL", spec, urls[i])
		}
	}
	return NewCluster(ClusterConfig{Shards: urls, Client: cfg})
}
