package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", LatencyBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v", c, g, h)
	}
	c.Add(5)
	c.Inc()
	g.Set(3)
	g.Add(-1)
	h.Observe(10)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := New()
	c := r.Counter("probe.charged")
	if c2 := r.Counter("probe.charged"); c2 != c {
		t.Fatal("Counter must get-or-create by name")
	}
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	g := r.Gauge("topics")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	h := r.Histogram("lat", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs := s.Histograms["lat"]
	if hs.Count != 4 || hs.Sum != 1022 || hs.Max != 1000 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	wantBuckets := []int64{2, 1, 1} // ≤10, ≤100, +Inf
	for i, want := range wantBuckets {
		if hs.Buckets[i].Count != want {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, hs.Buckets[i].Count, want, hs.Buckets)
		}
	}
	if !hs.Buckets[2].Inf {
		t.Fatal("last bucket must be +Inf")
	}
	if got := hs.Mean(); got != 1022.0/4 {
		t.Fatalf("mean = %v", got)
	}
}

// TestTelemetryConcurrentUpdates hammers one registry from many
// goroutines; run under -race it proves the instruments are safe for
// the simulator's n-player phases.
func TestTelemetryConcurrentUpdates(t *testing.T) {
	r := New()
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared")
			g := r.Gauge("g")
			h := r.Histogram("h", LatencyBuckets())
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 50))
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent readers
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(workers * perWorker)
	if got := r.Counter("shared").Value(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	if got := r.Gauge("g").Value(); got != total {
		t.Fatalf("gauge = %d, want %d", got, total)
	}
	if got := r.Histogram("h", nil).Count(); got != total {
		t.Fatalf("histogram count = %d, want %d", got, total)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := New()
	r.Counter("a.b").Add(2)
	r.Gauge("c").Set(-4)
	r.Histogram("h", []int64{5}).Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["a.b"] != 2 || s.Gauges["c"] != -4 || s.Histograms["h"].Count != 1 {
		t.Fatalf("round-trip mismatch: %+v", s)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("netboard.server.requests./v1/probe").Add(3)
	r.Gauge("billboard.topics").Set(2)
	h := r.Histogram("lat.ns", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE tellme_netboard_server_requests__v1_probe counter",
		"tellme_netboard_server_requests__v1_probe 3",
		"# TYPE tellme_billboard_topics gauge",
		"tellme_billboard_topics 2",
		"# TYPE tellme_lat_ns histogram",
		`tellme_lat_ns_bucket{le="10"} 1`,
		`tellme_lat_ns_bucket{le="100"} 2`,
		`tellme_lat_ns_bucket{le="+Inf"} 3`,
		"tellme_lat_ns_sum 555",
		"tellme_lat_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestCannedBuckets(t *testing.T) {
	lat := LatencyBuckets()
	if len(lat) == 0 {
		t.Fatal("empty canned buckets")
	}
	for i := 1; i < len(lat); i++ {
		if lat[i] <= lat[i-1] {
			t.Fatalf("latency bounds not ascending: %v", lat)
		}
	}
}

func TestCounterFuncSampledAtSnapshot(t *testing.T) {
	r := New()
	var src int64 = 7
	r.CounterFunc("sampled.total", func() int64 { return src })
	if got := r.Snapshot().Counters["sampled.total"]; got != 7 {
		t.Fatalf("sampled.total = %d, want 7", got)
	}
	// The function is re-sampled on every snapshot, not cached.
	src = 42
	if got := r.Snapshot().Counters["sampled.total"]; got != 42 {
		t.Fatalf("sampled.total after update = %d, want 42", got)
	}
	// A sampled name shadows a regular counter of the same name.
	r.Counter("sampled.total").Add(1000)
	if got := r.Snapshot().Counters["sampled.total"]; got != 42 {
		t.Fatalf("sampled.total shadowing = %d, want 42", got)
	}
	// Nil registry: registration is a no-op, no panic.
	var nilReg *Registry
	nilReg.CounterFunc("x", func() int64 { return 1 })
}

// BenchmarkNilCounterAdd measures the disabled fast path: a nil
// counter's Add must be a predicted branch, no atomics.
func BenchmarkNilCounterAdd(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkEnabledCounterAdd is the enabled cost: one atomic add.
func BenchmarkEnabledCounterAdd(b *testing.B) {
	c := New().Counter("x")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkNilHistogramObserve measures the disabled histogram path.
func BenchmarkNilHistogramObserve(b *testing.B) {
	var h *Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("q.ns", []int64{100, 200, 400, 800})

	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}

	// 100 observations uniform in (0, 100]: every quantile lands in the
	// first bucket and interpolates from 0.
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i))
	}
	s := h.Snapshot()
	if got := s.Quantile(0); got < 0 || got > 10 {
		t.Fatalf("q0 = %d, want near the low edge of (0,100]", got)
	}
	p50 := s.Quantile(0.5)
	if p50 < 40 || p50 > 60 {
		t.Fatalf("p50 = %d, want ~50", p50)
	}
	// q=1 ranks the last observation; the cap against the exact Max
	// keeps the interpolation from overshooting it.
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1 = %d, want 100 (exact max)", got)
	}

	// Push 100 more into (200, 400]: p50 stays in bucket 1, p99 moves.
	for i := 0; i < 100; i++ {
		h.Observe(300)
	}
	s = h.Snapshot()
	if got := s.Quantile(0.25); got > 100 {
		t.Fatalf("p25 = %d, want <= 100", got)
	}
	p75 := s.Quantile(0.75)
	if p75 <= 200 || p75 > 400 {
		t.Fatalf("p75 = %d, want in (200, 400]", p75)
	}

	// Quantiles are monotone in q.
	prev := int64(-1)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: q=%v gave %d after %d", q, v, prev)
		}
		prev = v
	}

	// q outside [0,1] clamps instead of panicking.
	if got := s.Quantile(-3); got != s.Quantile(0) {
		t.Fatalf("q<0 = %d, want clamp to q0 = %d", got, s.Quantile(0))
	}
	if got := s.Quantile(7); got != s.Quantile(1) {
		t.Fatalf("q>1 = %d, want clamp to q1 = %d", got, s.Quantile(1))
	}
}

func TestHistogramQuantileInfBucketReturnsMax(t *testing.T) {
	r := New()
	h := r.Histogram("inf.ns", []int64{10})
	h.Observe(5)
	h.Observe(123456) // beyond the last bound: lands in +Inf
	s := h.Snapshot()
	if got := s.Quantile(1); got != 123456 {
		t.Fatalf("q1 in +Inf bucket = %d, want exact max 123456", got)
	}
	if got := s.Quantile(0); got > 10 {
		t.Fatalf("q0 = %d, want <= 10", got)
	}
}

func TestHistogramSnapshotNilSafe(t *testing.T) {
	var h *Histogram
	s := h.Snapshot()
	if s.Count != 0 || len(s.Buckets) != 0 || s.Quantile(0.99) != 0 {
		t.Fatalf("nil histogram snapshot = %+v, want zero", s)
	}
}

func TestLatencyBucketsFine(t *testing.T) {
	fine := LatencyBucketsFine()
	if len(fine) != 24 {
		t.Fatalf("fine buckets = %d, want 24", len(fine))
	}
	for i := 1; i < len(fine); i++ {
		if fine[i] != 2*fine[i-1] {
			t.Fatalf("fine bounds not x2: %v", fine)
		}
	}
	if fine[0] != 10_000 {
		t.Fatalf("fine bounds should start at 10us: %v", fine)
	}
}
