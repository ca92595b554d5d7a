// Package telemetry provides runtime counters, gauges and fixed-bucket
// histograms for the probe stack, with a nil-safe no-op fast path.
//
// The design constraint is the probe hot path: a disabled registry must
// cost essentially nothing. Both the registry and every instrument are
// nil-receiver-safe, so instrumented code holds plain instrument
// pointers and calls them unconditionally:
//
//	c := reg.Counter("probe.charged") // nil reg → nil c
//	...
//	c.Add(1) // nil c → a predicted branch, no atomics, no allocation
//
// Instruments are identified by dotted names ("billboard.tally.rebuilds").
// Registry.Counter/Gauge/Histogram get-or-create by name, so independent
// components can share one registry without coordination; resolve
// instruments once at construction and keep the pointers — the lookup
// takes the registry mutex and is not meant for hot loops.
//
// A Snapshot is a consistent-enough copy for monitoring (each value is
// read atomically; the set is not a cross-instrument transaction).
// WriteJSON and WritePrometheus render a snapshot for the
// /debug/telemetry endpoints (see netboard.Server and cmd/billboard).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil
// *Counter is a valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (e.g. live topic count). The
// nil *Gauge is a valid no-op instrument.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (negative to decrease). No-op on a nil
// receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: counts of observations at
// most each upper bound, plus count/sum/max. Buckets are fixed at
// creation; Observe is lock-free (one atomic add per observation plus a
// max CAS). The nil *Histogram is a valid no-op instrument.
type Histogram struct {
	bounds []int64 // ascending upper bounds; implicit +Inf bucket after
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveSince records the elapsed nanoseconds since start — the usual
// way to feed a latency histogram. No-op on a nil receiver.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Nanoseconds())
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Snapshot copies the histogram's current state (see
// HistogramSnapshot). Each value is read atomically; the set is not a
// transaction, matching Registry.Snapshot. Returns the zero snapshot on
// a nil receiver.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	hs := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Max:     h.max.Load(),
		Buckets: make([]BucketCount, len(h.counts)),
	}
	for i := range h.counts {
		b := BucketCount{Count: h.counts[i].Load()}
		if i < len(h.bounds) {
			b.UpperBound = h.bounds[i]
		} else {
			b.Inf = true
		}
		hs.Buckets[i] = b
	}
	return hs
}

// LatencyBuckets returns the canned request-latency bounds in
// nanoseconds: 50µs to ~26s, ×4 per bucket.
func LatencyBuckets() []int64 {
	b := make([]int64, 0, 10)
	for v := int64(50_000); len(b) < 10; v *= 4 {
		b = append(b, v)
	}
	return b
}

// LatencyBucketsFine returns finer request-latency bounds in
// nanoseconds: 10µs to ~84s, ×2 per bucket (24 buckets). The ×4 spacing
// of LatencyBuckets keeps hot-path histograms cheap but caps quantile
// resolution at a factor of 4; load harnesses that report p50/p99 (see
// HistogramSnapshot.Quantile and cmd/loadgen) use this set, bounding
// the interpolation error of any quantile to a factor of 2.
func LatencyBucketsFine() []int64 {
	b := make([]int64, 0, 24)
	for v := int64(10_000); len(b) < 24; v *= 2 {
		b = append(b, v)
	}
	return b
}

// MicroLatencyBuckets returns canned bounds for sub-request work —
// encode/decode CPU time: 1µs to ~16ms, ×4 per bucket (8 buckets).
// LatencyBuckets starts at 50µs, too coarse for codec passes that
// finish in single-digit microseconds.
func MicroLatencyBuckets() []int64 {
	b := make([]int64, 0, 8)
	for v := int64(1_000); len(b) < 8; v *= 4 {
		b = append(b, v)
	}
	return b
}

// Registry holds named instruments. The nil *Registry is the disabled
// registry: every lookup returns a nil instrument and every nil
// instrument method is a no-op, so instrumentation can be threaded
// unconditionally.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
	}
}

// CounterFunc registers a sampled counter: snapshots (and the JSON and
// Prometheus exports) report fn() under name. Use it for hot-path
// totals a component already maintains in contention-free form (the
// probe engine's per-player counters, the board's post counts): the
// per-event cost stays zero and the shared value is computed only at
// snapshot time. fn must be monotone non-decreasing and safe to call
// concurrently; a sampled name shadows a regular counter of the same
// name. fn is invoked with the registry lock held and must not call
// back into the registry. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// upper bounds on first use (later calls keep the original bounds).
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// BucketCount is one histogram bucket in a snapshot: observations at
// most UpperBound. The final bucket has UpperBound 0 with Inf true.
type BucketCount struct {
	UpperBound int64 `json:"le"`
	Inf        bool  `json:"inf,omitempty"`
	Count      int64 `json:"count"`
}

// HistogramSnapshot is one histogram's state in a snapshot.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	Buckets []BucketCount `json:"buckets"`
}

// Mean returns Sum/Count (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution from the fixed buckets: the bucket holding the rank is
// located by cumulative count and the value is interpolated linearly
// inside it. The estimate is therefore only as sharp as the bucket
// spacing — with ×2 bounds (LatencyBucketsFine) any quantile is correct
// within a factor of 2; see DESIGN.md §14 for what that can and cannot
// resolve. Ranks falling in the +Inf bucket return Max, which the
// histogram tracks exactly. Returns 0 when the histogram is empty; q is
// clamped to [0,1].
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the q-quantile in the sorted observations, 1-based:
	// q=0 is the first observation, q=1 the last.
	rank := int64(q*float64(h.Count-1)) + 1
	cum := int64(0)
	lo := int64(0)
	for _, b := range h.Buckets {
		if b.Count == 0 {
			if !b.Inf {
				lo = b.UpperBound
			}
			continue
		}
		if cum+b.Count >= rank {
			if b.Inf {
				return h.Max
			}
			// Interpolate the rank's position within [lo, upper]. The
			// bucket's observations are assumed uniform across its span,
			// the standard fixed-bucket estimate.
			frac := float64(rank-cum) / float64(b.Count)
			v := lo + int64(frac*float64(b.UpperBound-lo))
			// Max is exact; no estimate should exceed it.
			if h.Max > 0 && v > h.Max {
				v = h.Max
			}
			return v
		}
		cum += b.Count
		lo = b.UpperBound
	}
	return h.Max
}

// Snapshot is a point-in-time copy of every instrument.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every instrument. Returns an
// empty snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, fn := range r.funcs {
		s.Counters[name] = fn()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON renders a snapshot as indented JSON (the /debug/telemetry
// wire format).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format. Instrument names are prefixed with "tellme_" and sanitized
// (every non-alphanumeric rune becomes '_'); histograms emit cumulative
// _bucket{le=...} series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		pn := promName(name)
		h := s.Histograms[name]
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		cum := int64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			le := "+Inf"
			if !bk.Inf {
				le = fmt.Sprint(bk.UpperBound)
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", pn, le, cum)
		}
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", pn, h.Sum, pn, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promName sanitizes a dotted instrument name into a Prometheus metric
// name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("tellme_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
