package netboard

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/telemetry"
)

// collectBackoffs drives retries failed attempts of one logical call
// through a one-shard cluster and returns the sleep durations the
// backoff requested, without actually sleeping.
func collectBackoffs(t *testing.T, retries int, unit time.Duration) []time.Duration {
	t.Helper()
	srv := httptest.NewServer(statusHandler{code: http.StatusInternalServerError})
	defer srv.Close()
	c := dial(t, srv.URL, Config{Retries: retries, RetryBackoff: unit})
	var slept []time.Duration
	c.clients[0].sleep = func(d time.Duration) { slept = append(slept, d) }
	if failure(func() { c.PostProbe(0, 0, 1) }) == nil {
		t.Fatal("a call against an always-failing server succeeded")
	}
	return slept
}

// TestBackoffJitterBounds: retry attempt i waits inside
// [0.5, 1.5)·i·unit.
func TestBackoffJitterBounds(t *testing.T) {
	const unit = 10 * time.Millisecond
	slept := collectBackoffs(t, 8, unit)
	if len(slept) != 8 {
		t.Fatalf("slept %d times, want 8", len(slept))
	}
	for i, d := range slept {
		base := time.Duration(i+1) * unit
		if d < base/2 || d >= base+base/2 {
			t.Fatalf("attempt %d slept %v, outside [%v, %v)", i+1, d, base/2, base+base/2)
		}
	}
}

// TestBackoffZeroSeedStillJitters: the jitter stream, which no caller
// seeds, draws a factor that varies from wait to wait — a constant
// multiplier would mean the jitter is dead and synchronized retry
// storms come back.
func TestBackoffZeroSeedStillJitters(t *testing.T) {
	const unit = 10 * time.Millisecond
	distinct := map[float64]bool{}
	for i, d := range collectBackoffs(t, 8, unit) {
		distinct[float64(d)/float64(time.Duration(i+1)*unit)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("jitter factors %v never varied across 8 attempts", distinct)
	}
}

// jitterFactors drives a shard transport's backoff i=1 waits through
// the sleep stub and returns the first k jittered durations — a
// fingerprint of its jitter stream.
func jitterFactors(c *client, k int) []time.Duration {
	var out []time.Duration
	c.sleep = func(d time.Duration) { out = append(out, d) }
	for i := 0; i < k; i++ {
		if err := c.backoff(context.Background(), 1); err != nil {
			panic(err)
		}
	}
	return out
}

// TestClusterShardJitterDiverges: every shard draws its own jitter
// stream, so no two shards of one cluster run the same backoff
// schedule. Identical schedules re-synchronize the retry stampede the
// jitter breaks up.
func TestClusterShardJitterDiverges(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		// NewCluster never contacts the shards; fake URLs are fine.
		Shards: []string{"http://s0", "http://s1", "http://s2", "http://s3"},
		Client: Config{RetryBackoff: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	streams := make([][]time.Duration, len(cl.clients))
	for i, c := range cl.clients {
		streams[i] = jitterFactors(c, k)
	}
	for a := range streams {
		for b := a + 1; b < len(streams); b++ {
			if slices.Equal(streams[a], streams[b]) {
				t.Errorf("shards %d and %d run identical backoff schedules %v", a, b, streams[a])
			}
		}
	}
}

// TestDebugTelemetryEndpoints serves a board with a shared registry and
// cross-checks the JSON and Prometheus exports against the board's own
// post/probe counts.
func TestDebugTelemetryEndpoints(t *testing.T) {
	reg := telemetry.New()
	board := billboard.New(4, 16)
	board.SetTelemetry(reg)
	srv := httptest.NewServer(NewServer(board, WithTelemetry(reg)))
	defer srv.Close()
	c := dial(t, srv.URL, Config{Telemetry: reg})

	c.PostProbe(0, 3, 1)
	c.PostProbe(1, 5, 0)
	c.PostProbe(2, 7, 1)
	p, _ := bitvec.PartialFromString("01?1" + strings.Repeat("?", 12))
	c.Post("zr#1", 0, p)
	c.Post("zr#1", 1, p)
	if _, ok := c.LookupProbe(0, 3); !ok {
		t.Fatal("lookup failed")
	}

	resp, err := http.Get(srv.URL + PathTelemetry)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding %s: %v", PathTelemetry, err)
	}

	// The board-side counters must agree with the board's own counts.
	if got, want := snap.Counters["billboard.probe.posts"], board.ProbeCount(); got != want {
		t.Fatalf("billboard.probe.posts = %d, board.ProbeCount() = %d", got, want)
	}
	if got, want := snap.Counters["billboard.vector.posts"], board.VectorPostCount(); got != want {
		t.Fatalf("billboard.vector.posts = %d, board.VectorPostCount() = %d", got, want)
	}
	if got := snap.Counters["billboard.posts.zr"]; got != 2 {
		t.Fatalf("billboard.posts.zr = %d, want 2", got)
	}
	// Server-side: the three probe posts and the two vector posts each
	// went through PathPostBatch as a one-entry batch; the lookup went
	// through PathBatchLookups.
	if got := snap.Counters["netboard.server.requests."+PathPostBatch]; got != 5 {
		t.Fatalf("server %s requests = %d, want 5 (3 probe posts + 2 vector posts)", PathPostBatch, got)
	}
	if got := snap.Counters["netboard.server.requests."+PathBatchLookups]; got != 1 {
		t.Fatalf("server %s requests = %d, want 1", PathBatchLookups, got)
	}
	// Client-side mirrors: same logical calls, counted per path under
	// the one shard's prefix.
	if got := snap.Counters["netboard.cluster.shard0.requests."+PathPostBatch]; got != 5 {
		t.Fatalf("client %s requests = %d, want 5", PathPostBatch, got)
	}
	if got := snap.Counters["netboard.cluster.shard0.requests."+PathBatchLookups]; got != 1 {
		t.Fatalf("client %s requests = %d, want 1", PathBatchLookups, got)
	}
	// Every applied mutation passed the dedupe window exactly once, with
	// an id, and none were replays.
	if got := snap.Counters["netboard.server.dedupe.applied"]; got != 5 {
		t.Fatalf("dedupe.applied = %d, want 5 (3 probes + 2 vector posts)", got)
	}
	if got := snap.Counters["netboard.server.dedupe.hits"]; got != 0 {
		t.Fatalf("dedupe.hits = %d, want 0", got)
	}
	if got := snap.Counters["netboard.server.dedupe.no_id"]; got != 0 {
		t.Fatalf("dedupe.no_id = %d, want 0", got)
	}
	// Latency histograms observed one sample per request.
	h, ok := snap.Histograms["netboard.server.latency_ns."+PathPostBatch]
	if !ok || h.Count != 5 {
		t.Fatalf("server latency histogram for %s: ok=%v count=%d, want 5", PathPostBatch, ok, h.Count)
	}

	// Prometheus text form of the same registry.
	resp2, err := http.Get(srv.URL + PathTelemetryProm)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.HasPrefix(resp2.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("prometheus Content-Type = %q", resp2.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"tellme_billboard_probe_posts 3",
		"tellme_billboard_vector_posts 2",
		"# TYPE tellme_netboard_server_latency_ns__v1_batch_posts histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

// TestDedupeHitCounter replays one request id and expects exactly one
// dedupe hit on the server counter.
func TestDedupeHitCounter(t *testing.T) {
	reg := telemetry.New()
	board := billboard.New(2, 8)
	srv := httptest.NewServer(NewServer(board, WithTelemetry(reg)))
	defer srv.Close()

	post := func(id string) {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+PathPostBatch, strings.NewReader(`{"posts":[{"probes":{"player":0,"objects":[1],"grades":"1"}}]}`))
		req.Header.Set("Content-Type", "application/json")
		if id != "" {
			req.Header.Set(HeaderRequestID, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post("dup-1")
	post("dup-1") // replay
	post("")      // no id: applied unconditionally

	snap := reg.Snapshot()
	if got := snap.Counters["netboard.server.dedupe.hits"]; got != 1 {
		t.Fatalf("dedupe.hits = %d, want 1", got)
	}
	if got := snap.Counters["netboard.server.dedupe.applied"]; got != 2 {
		t.Fatalf("dedupe.applied = %d, want 2", got)
	}
	if got := snap.Counters["netboard.server.dedupe.no_id"]; got != 1 {
		t.Fatalf("dedupe.no_id = %d, want 1", got)
	}
	if got := snap.Counters["netboard.server.requests."+PathPostBatch]; got != 3 {
		t.Fatalf("server %s requests = %d, want 3", PathPostBatch, got)
	}
}

// TestClientRetryCounter checks that each backoff wait bumps the
// client-side retry counter.
func TestClientRetryCounter(t *testing.T) {
	srv := httptest.NewServer(statusHandler{code: http.StatusInternalServerError})
	defer srv.Close()
	reg := telemetry.New()
	c := dial(t, srv.URL, Config{
		Telemetry:    reg,
		Retries:      3,
		RetryBackoff: time.Millisecond,
	})
	c.clients[0].sleep = func(time.Duration) {}
	failure(func() { c.PostProbe(0, 0, 1) })
	if got := reg.Snapshot().Counters["netboard.cluster.shard0.retries"]; got != 3 {
		t.Fatalf("netboard.cluster.shard0.retries = %d, want 3", got)
	}
}
