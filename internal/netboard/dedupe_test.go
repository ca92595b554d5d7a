package netboard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/telemetry"
)

// TestDedupeBoundedUnderDistinctIDStream replays a long stream of
// distinct request ids — the loadgen steady state — and asserts the
// window's memory stays bounded by the count cap while the dedupe
// semantics are unchanged: a recent id deduplicates, an evicted one
// re-applies.
func TestDedupeBoundedUnderDistinctIDStream(t *testing.T) {
	const window = 64
	d := newDedupe(window)
	applied := 0
	for i := 0; i < 50*window; i++ {
		if !d.Do(fmt.Sprintf("id-%d", i), func() { applied++ }) {
			t.Fatalf("fresh id %d was deduplicated", i)
		}
	}
	if applied != 50*window {
		t.Fatalf("applied %d of %d distinct ids", applied, 50*window)
	}
	d.mu.Lock()
	seen, orderLive, orderCap := len(d.seen), len(d.order)-d.head, len(d.order)
	d.mu.Unlock()
	if seen > window {
		t.Fatalf("seen holds %d ids, want <= %d", seen, window)
	}
	if orderLive > window || orderCap > 2*window+1 {
		t.Fatalf("order holds %d live / %d total, want <= %d / <= %d", orderLive, orderCap, window, 2*window+1)
	}
	// A recent id still deduplicates; the long-evicted first id re-applies.
	if d.Do(fmt.Sprintf("id-%d", 50*window-1), func() { applied++ }) {
		t.Fatal("recent id was re-applied")
	}
	if !d.Do("id-0", func() { applied++ }) {
		t.Fatal("evicted id was still deduplicated")
	}
	if applied != 50*window+1 {
		t.Fatalf("applied = %d, want %d", applied, 50*window+1)
	}
}

// TestDedupeAgeEviction pins the age bound: an id older than maxAge is
// forgotten even though the count window never filled. Pre-fix the
// window had no age eviction — a quiet server held every id forever and
// kept deduplicating against arbitrarily ancient applications.
func TestDedupeAgeEviction(t *testing.T) {
	d := newDedupe(1024)
	d.maxAge = time.Minute
	clock := time.Unix(1000, 0)
	d.now = func() time.Time { return clock }

	applied := 0
	d.Do("old", func() { applied++ })
	clock = clock.Add(30 * time.Second)
	d.Do("young", func() { applied++ })

	// At +30s both are within age; duplicates dedupe.
	if d.Do("old", func() { applied++ }) || d.Do("young", func() { applied++ }) {
		t.Fatal("in-window duplicate re-applied")
	}

	// At +61s from "old" (but +31s from "young") only "old" expires.
	clock = clock.Add(31 * time.Second)
	if !d.Do("old", func() { applied++ }) {
		t.Fatal("expired id still deduplicated")
	}
	if d.Do("young", func() { applied++ }) {
		t.Fatal("unexpired id re-applied")
	}
	if applied != 3 {
		t.Fatalf("applied = %d, want 3", applied)
	}
	d.mu.Lock()
	seen := len(d.seen)
	d.mu.Unlock()
	if seen != 2 { // "young" and the re-applied "old"
		t.Fatalf("seen holds %d ids, want 2", seen)
	}

	// Pure idle aging: everything expires, the window drains to empty.
	clock = clock.Add(time.Hour)
	d.Do("", func() {}) // any traffic triggers eviction... but empty id skips the window
	d.Do("fresh", func() {})
	d.mu.Lock()
	seen = len(d.seen)
	d.mu.Unlock()
	if seen != 1 {
		t.Fatalf("after idle hour, seen holds %d ids, want 1 (just the fresh one)", seen)
	}
}

// TestDedupePanicReleasesIDAndWaiters is the crash-safety regression:
// pre-fix, a panic out of apply() left the entry in the map with its
// done channel never closed — every duplicate of that id blocked
// forever, and the in-flight count never dropped, deadlocking Quiesce.
// Post-fix the id is released (the mutation did not happen), parked
// duplicates wake and one of them re-applies, and Quiesce returns.
func TestDedupePanicReleasesIDAndWaiters(t *testing.T) {
	d := newDedupe(16)

	release := make(chan struct{})
	originalEntered := make(chan struct{})
	go func() {
		defer func() { recover() }() // the panic propagates to the caller; swallow it here
		d.Do("crash", func() {
			close(originalEntered)
			<-release
			panic("apply crashed")
		})
	}()
	<-originalEntered

	// Park a duplicate on the in-flight entry, then crash the original.
	dupApplied := make(chan bool, 1)
	go func() {
		applied := false
		d.Do("crash", func() { applied = true })
		dupApplied <- applied
	}()
	time.Sleep(10 * time.Millisecond) // let the duplicate park
	close(release)

	select {
	case applied := <-dupApplied:
		if !applied {
			t.Fatal("duplicate acknowledged a mutation that never applied")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate still parked after the original panicked")
	}

	quiesced := make(chan struct{})
	go func() { d.Quiesce(); close(quiesced) }()
	select {
	case <-quiesced:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce deadlocked: the crashed application leaked its in-flight registration")
	}

	// The empty-id fast path must be panic-safe too.
	func() {
		defer func() { recover() }()
		d.Do("", func() { panic("boom") })
	}()
	quiesced2 := make(chan struct{})
	go func() { d.Quiesce(); close(quiesced2) }()
	select {
	case <-quiesced2:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce deadlocked after empty-id panic")
	}
}

// TestDedupeConcurrentDuplicatesApplyOnce is the original contract
// under the new implementation: N racing duplicates of one id apply
// exactly once, everyone acknowledges.
func TestDedupeConcurrentDuplicatesApplyOnce(t *testing.T) {
	d := newDedupe(16)
	var mu sync.Mutex
	applied := 0
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Do("same", func() {
				mu.Lock()
				applied++
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	if applied != 1 {
		t.Fatalf("applied = %d, want exactly 1", applied)
	}
	d.Quiesce()
}

func TestWithDedupeOptionOrderIndependence(t *testing.T) {
	b := billboard.New(2, 4)
	reg := telemetry.New()
	s1 := NewServer(b, WithTelemetry(reg), WithDedupeWindow(7))
	s2 := NewServer(b, WithDedupeWindow(7), WithTelemetry(reg))
	for i, s := range []*Server{s1, s2} {
		if s.dedupe.cap != 7 || s.dedupe.maxAge != DefaultDedupeMaxAge || s.tel != reg {
			t.Fatalf("server %d: cap=%d maxAge=%v telemetry=%v, want 7/%v/attached", i, s.dedupe.cap, s.dedupe.maxAge, s.tel != nil, DefaultDedupeMaxAge)
		}
	}
	if s := NewServer(b); s.dedupe.maxAge != DefaultDedupeMaxAge || s.dedupe.cap != DefaultDedupeWindow {
		t.Fatalf("defaults: cap=%d maxAge=%v", s.dedupe.cap, s.dedupe.maxAge)
	}
}

// TestDedupeQuiesceWaitsForInflight: Quiesce must not return while an
// application is still executing, and must return once it finishes.
func TestDedupeQuiesceWaitsForInflight(t *testing.T) {
	d := newDedupe(8)
	started := make(chan struct{})
	release := make(chan struct{})
	go d.Do("id-1", func() {
		close(started)
		<-release
	})
	<-started
	quiesced := make(chan struct{})
	go func() {
		d.Quiesce()
		close(quiesced)
	}()
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned while an application was executing")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-quiesced:
	case <-time.After(2 * time.Second):
		t.Fatal("Quiesce did not return after the application finished")
	}
	// Idle dedupe: Quiesce returns immediately.
	d.Quiesce()
}
