package netboard

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/telemetry"
)

func TestConfigPoolKnobDefaults(t *testing.T) {
	for _, c := range []struct{ set, want int }{{0, 0}, {-1, 0}, {9, 9}} {
		if n := (Config{MaxConnsPerHost: c.set}).normalized(); n.MaxConnsPerHost != c.want {
			t.Fatalf("MaxConnsPerHost %d normalized to %d, want %d (0 = unlimited)", c.set, n.MaxConnsPerHost, c.want)
		}
	}
	tr := Config{MaxConnsPerHost: 9}.PooledHTTPClient().Transport.(*http.Transport)
	if tr.MaxIdleConnsPerHost != DefaultMaxIdleConnsPerHost || tr.IdleConnTimeout != DefaultIdleConnTimeout || tr.MaxConnsPerHost != 9 {
		t.Fatalf("pooled transport idle %d, idle timeout %v, max conns %d; want %d, %v, 9",
			tr.MaxIdleConnsPerHost, tr.IdleConnTimeout, tr.MaxConnsPerHost, DefaultMaxIdleConnsPerHost, DefaultIdleConnTimeout)
	}
}

// TestClientUsesPooledTransport is the regression test for the
// MaxIdleConnsPerHost=2 bug: NewCluster must resolve a transport with
// the load-safe pool defaults, not http.DefaultClient (whose per-host
// idle pool of 2 churns connections under fleet fan-in).
func TestClientUsesPooledTransport(t *testing.T) {
	c := dial(t, "http://example.invalid", Config{}).clients[0]
	if c.cfg.HTTPClient == nil || c.cfg.HTTPClient == http.DefaultClient {
		t.Fatal("NewCluster left the default http client in place")
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
	c = dial(t, "http://example.invalid", Config{HTTPClient: own}).clients[0]
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
	c := dial(t, srv.URL, Config{Telemetry: reg})
	for i := 0; i < 5; i++ {
		c.PostProbe(0, i%8, 1)
	}
	s := reg.Snapshot()
	dialed := s.Counters["netboard.cluster.shard0.conns.dialed"]
	reused := s.Counters["netboard.cluster.shard0.conns.reused"]
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
