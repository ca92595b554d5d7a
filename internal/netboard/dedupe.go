package netboard

import (
	"sync"
	"time"
)

// dedupe is the server-side idempotency window: a set of recently seen
// request ids with FIFO count eviction plus age eviction. Do applies a
// mutation at most once per id; a concurrent duplicate (a
// network-duplicated request racing its original) waits for the first
// application to finish instead of re-applying, so "applied exactly
// once, acknowledged many times" holds even under duplication faults.
//
// The window is bounded two ways: at most cap completed ids are
// retained (FIFO), and a completed id older than maxAge is evicted even
// when the window is not full — a server that saw one traffic burst
// does not hold the burst's ids for the rest of its life, and an id can
// never be deduplicated against an arbitrarily ancient application.
// In-flight ids are never evicted: a duplicate waiting on its original
// always finds it.
type dedupe struct {
	mu   sync.Mutex
	seen map[string]*dedupeEntry
	// order holds completed ids in completion order; only completed
	// entries are evicted, so an in-flight id can never be forgotten
	// while its duplicate is waiting on it. head indexes the oldest
	// live entry; the slice is compacted when the dead prefix exceeds
	// the window, keeping memory bounded.
	order  []string
	head   int
	cap    int
	maxAge time.Duration // 0 = count eviction only

	// now stubs the clock for age-eviction tests.
	now func() time.Time

	// inflight counts applications currently executing (with or without
	// an id); idle is closed when inflight returns to zero, waking
	// Quiesce waiters. Registration happens in the same critical section
	// that claims the id, so a mutation is either not yet acknowledged
	// to its client or visible to Quiesce — never in between.
	inflight int
	idle     chan struct{}
}

type dedupeEntry struct {
	done chan struct{}
	// failed is set (before done is closed) when the application
	// panicked: the mutation did NOT apply, so a parked duplicate must
	// claim the id and apply it itself rather than acknowledge a
	// mutation that never happened.
	failed bool
	// completedAt stamps a successful application for age eviction.
	completedAt time.Time
}

func newDedupe(capacity int) *dedupe {
	return &dedupe{
		seen:   make(map[string]*dedupeEntry),
		cap:    capacity,
		maxAge: DefaultDedupeMaxAge,
	}
}

func (d *dedupe) clock() time.Time {
	if d.now != nil {
		return d.now()
	}
	return time.Now()
}

// Do runs apply exactly once per id within the window. An empty id is
// applied unconditionally. The return value reports whether this call
// performed the application (false = deduplicated). A panic out of
// apply propagates, but first the id is released (the mutation did not
// happen — a retry must be able to re-apply it) and any parked
// duplicates are woken to claim it.
func (d *dedupe) Do(id string, apply func()) bool {
	if id == "" || d.cap <= 0 {
		d.mu.Lock()
		d.inflight++
		d.mu.Unlock()
		defer d.done() // panic-safe: a crashed apply must not wedge Quiesce
		apply()
		return true
	}
	for {
		d.mu.Lock()
		d.evictExpiredLocked()
		if e, ok := d.seen[id]; ok {
			d.mu.Unlock()
			<-e.done // duplicate of an in-flight request: wait, don't re-apply
			if !e.failed {
				return false
			}
			// The original panicked without applying; race the other
			// parked duplicates to claim the id and apply it ourselves.
			continue
		}
		e := &dedupeEntry{done: make(chan struct{})}
		d.seen[id] = e
		d.inflight++
		d.mu.Unlock()
		d.runClaimed(id, e, apply)
		return true
	}
}

// runClaimed executes apply for the id claimed by entry e, completing
// the entry on success and releasing the id on panic — in both cases
// retiring the in-flight registration and waking waiters, so neither
// parked duplicates nor Quiesce can hang on a crashed application.
func (d *dedupe) runClaimed(id string, e *dedupeEntry, apply func()) {
	applied := false
	defer func() {
		d.mu.Lock()
		if applied {
			e.completedAt = d.clock()
			d.order = append(d.order, id)
			for len(d.order)-d.head > d.cap {
				delete(d.seen, d.order[d.head])
				d.order[d.head] = ""
				d.head++
			}
			d.compactLocked()
		} else {
			e.failed = true
			delete(d.seen, id)
		}
		d.finishLocked()
		d.mu.Unlock()
		close(e.done)
	}()
	apply()
	applied = true
}

// evictExpiredLocked drops completed ids older than maxAge. order is in
// completion order, so expired entries form a prefix.
func (d *dedupe) evictExpiredLocked() {
	if d.maxAge <= 0 || d.head >= len(d.order) {
		return
	}
	cutoff := d.clock().Add(-d.maxAge)
	for d.head < len(d.order) {
		e := d.seen[d.order[d.head]]
		if e != nil && !e.completedAt.Before(cutoff) {
			break
		}
		delete(d.seen, d.order[d.head])
		d.order[d.head] = ""
		d.head++
	}
	d.compactLocked()
}

// compactLocked trims the dead prefix once it outgrows the window.
func (d *dedupe) compactLocked() {
	if d.head > d.cap {
		d.order = append(d.order[:0], d.order[d.head:]...)
		d.head = 0
	}
}

// done retires one in-flight application.
func (d *dedupe) done() {
	d.mu.Lock()
	d.finishLocked()
	d.mu.Unlock()
}

func (d *dedupe) finishLocked() {
	d.inflight--
	if d.inflight == 0 && d.idle != nil {
		close(d.idle)
		d.idle = nil
	}
}

// Quiesce blocks until no application is executing: every mutation the
// server has started applying — including a retry's original whose
// response was lost — has finished and is visible to subsequent reads.
// It does not wait for duplicates parked on an in-flight entry (they
// never re-apply) and cannot see a request the HTTP layer has accepted
// but whose handler has not reached Do yet. An audit that quiesces
// after its own posts were acknowledged can meet only duplicates
// there, which the window does not re-apply.
func (d *dedupe) Quiesce() {
	for {
		d.mu.Lock()
		if d.inflight == 0 {
			d.mu.Unlock()
			return
		}
		if d.idle == nil {
			d.idle = make(chan struct{})
		}
		ch := d.idle
		d.mu.Unlock()
		<-ch
	}
}
