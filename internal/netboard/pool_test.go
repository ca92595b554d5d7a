package netboard

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/telemetry"
)

func TestConfigPoolKnobDefaults(t *testing.T) {
	n := Config{}.normalized()
	if n.MaxIdleConnsPerHost != DefaultMaxIdleConnsPerHost {
		t.Fatalf("MaxIdleConnsPerHost = %d, want %d", n.MaxIdleConnsPerHost, DefaultMaxIdleConnsPerHost)
	}
	if n.MaxConnsPerHost != 0 {
		t.Fatalf("MaxConnsPerHost = %d, want 0 (unlimited)", n.MaxConnsPerHost)
	}
	if n.IdleConnTimeout != DefaultIdleConnTimeout {
		t.Fatalf("IdleConnTimeout = %v, want %v", n.IdleConnTimeout, DefaultIdleConnTimeout)
	}
	n = Config{MaxIdleConnsPerHost: -3, MaxConnsPerHost: -1, IdleConnTimeout: -time.Second}.normalized()
	if n.MaxIdleConnsPerHost != DefaultMaxIdleConnsPerHost || n.MaxConnsPerHost != 0 || n.IdleConnTimeout != DefaultIdleConnTimeout {
		t.Fatalf("negative knobs not clamped: %+v", n)
	}
	n = Config{MaxIdleConnsPerHost: 7, MaxConnsPerHost: 9, IdleConnTimeout: time.Minute}.normalized()
	if n.MaxIdleConnsPerHost != 7 || n.MaxConnsPerHost != 9 || n.IdleConnTimeout != time.Minute {
		t.Fatalf("explicit knobs overridden: %+v", n)
	}
}

// TestClientUsesPooledTransport is the regression test for the
// MaxIdleConnsPerHost=2 bug: NewClient must resolve a transport with
// the load-safe pool defaults, not http.DefaultClient (whose per-host
// idle pool of 2 churns connections under fleet fan-in).
func TestClientUsesPooledTransport(t *testing.T) {
	c := NewClient("http://example.invalid")
	if c.cfg.HTTPClient == nil || c.cfg.HTTPClient == http.DefaultClient {
		t.Fatal("NewClient left the default http client in place")
	}
	tr, ok := c.cfg.HTTPClient.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("transport is %T, want *http.Transport", c.cfg.HTTPClient.Transport)
	}
	if tr.MaxIdleConnsPerHost != DefaultMaxIdleConnsPerHost {
		t.Fatalf("MaxIdleConnsPerHost = %d, want %d", tr.MaxIdleConnsPerHost, DefaultMaxIdleConnsPerHost)
	}
	if tr.MaxIdleConns != 0 {
		t.Fatalf("MaxIdleConns = %d, want 0 (per-host knob is the only limit)", tr.MaxIdleConns)
	}

	// An explicit HTTPClient is the caller's to own — no override.
	own := &http.Client{}
	c = NewClientWithConfig("http://example.invalid", Config{HTTPClient: own})
	if c.cfg.HTTPClient != own {
		t.Fatal("explicit HTTPClient replaced by the pooled builder")
	}
}

func TestClusterShardsShareOneTransport(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Shards: []string{"http://a.invalid", "http://b.invalid", "http://c.invalid"}})
	if err != nil {
		t.Fatal(err)
	}
	first := cl.clients[0].cfg.HTTPClient
	if first == nil || first == http.DefaultClient {
		t.Fatal("shard 0 has no pooled client")
	}
	for i, c := range cl.clients {
		if c.cfg.HTTPClient != first {
			t.Fatalf("shard %d has its own http client; cluster must share one pool", i)
		}
	}
}

func TestConnAccountingCounters(t *testing.T) {
	board := billboard.New(4, 8)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	reg := telemetry.New()
	c := NewClientWithConfig(srv.URL, Config{Telemetry: reg})
	for i := 0; i < 5; i++ {
		c.PostProbe(0, i%8, 1)
	}
	s := reg.Snapshot()
	dialed := s.Counters[DefaultTelemetryPrefix+".conns.dialed"]
	reused := s.Counters[DefaultTelemetryPrefix+".conns.reused"]
	if dialed+reused != 5 {
		t.Fatalf("dialed %d + reused %d = %d, want 5 (one per request)", dialed, reused, dialed+reused)
	}
	if dialed < 1 {
		t.Fatalf("dialed = %d, want >= 1 (first request must dial)", dialed)
	}
	if reused < 1 {
		t.Fatalf("reused = %d, want >= 1 (sequential requests must reuse the pooled conn)", reused)
	}
}
