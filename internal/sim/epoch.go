package sim

import (
	"context"
	"sort"
	"sync"
)

// EpochScheduler lifts the round-lockstep discipline of Gate from round
// granularity to epoch granularity for long-lived serving: a population
// of player slots runs an unbounded sequence of epochs (one full
// algorithm run each), and players may join or leave at any time — but
// membership changes are applied only at epoch boundaries.
//
// This is the churn contract of the serving daemon (cmd/tellmed): the
// phases inside an epoch run through the ordinary PhaseRunner, whose
// workers drain at the phase barrier before the coordinator moves on,
// so a phase always executes against a fixed member set. The scheduler
// adds the outer invariant: Join and Leave only *enqueue* churn; the
// pending queue is applied when the coordinator calls Epoch (or
// BeginEpoch), never while an epoch is in flight. A churn event can
// therefore never tear a phase — the epoch it lands in simply hasn't
// started yet.
//
// The scheduler tracks slots (small ints), not application identities:
// the serving layer maps external player ids onto slots and back.
// Exactly one goroutine — the epoch coordinator — may call
// Epoch/BeginEpoch/Complete/Abort; Join, Leave and the read accessors
// are safe from any goroutine.
type EpochScheduler struct {
	mu        sync.Mutex
	active    map[int]bool
	pending   []churnOp
	inEpoch   bool
	completed int64
}

// churnOp is one queued membership change, applied in FIFO order at the
// next epoch boundary (so a Join followed by a Leave of the same slot
// before the boundary cancels out, and the reverse order re-admits).
type churnOp struct {
	slot int
	join bool
}

// EpochPlan describes one epoch the coordinator is about to run: the
// epoch number, the member slots participating, and the churn applied
// at this boundary.
type EpochPlan struct {
	// Epoch is the 1-based number of the epoch about to run; it becomes
	// the scheduler's CompletedEpochs value once Complete is called.
	Epoch int64
	// Members are the active slots for this epoch, ascending.
	Members []int
	// Joined are the slots admitted at this boundary (subset of
	// Members), ascending.
	Joined []int
	// Left are the slots retired at this boundary — they do NOT
	// participate in this epoch. Ascending.
	Left []int
}

// NewEpochScheduler returns an empty scheduler: no members, no pending
// churn, zero completed epochs.
func NewEpochScheduler() *EpochScheduler {
	return &EpochScheduler{active: make(map[int]bool)}
}

// Join enqueues the admission of slot at the next epoch boundary.
// Joining a slot that is already active (and not retired by a pending
// Leave) is a no-op at application time.
func (s *EpochScheduler) Join(slot int) {
	s.mu.Lock()
	s.pending = append(s.pending, churnOp{slot: slot, join: true})
	s.mu.Unlock()
}

// JoinAll enqueues the admission of every slot in slots at the next
// epoch boundary, under one lock acquisition. Semantically identical to
// calling Join for each slot in order; it exists so bulk admission of a
// large fleet doesn't take len(slots) lock round trips.
func (s *EpochScheduler) JoinAll(slots []int) {
	if len(slots) == 0 {
		return
	}
	s.mu.Lock()
	for _, slot := range slots {
		s.pending = append(s.pending, churnOp{slot: slot, join: true})
	}
	s.mu.Unlock()
}

// Leave enqueues the retirement of slot at the next epoch boundary. An
// epoch already running still computes the slot's output; the slot
// stops participating from the next epoch on. Leaving an inactive slot
// is a no-op at application time.
func (s *EpochScheduler) Leave(slot int) {
	s.mu.Lock()
	s.pending = append(s.pending, churnOp{slot: slot, join: false})
	s.mu.Unlock()
}

// Pending returns the number of queued churn operations — the serving
// loop uses it to schedule an epoch early instead of waiting out the
// full interval.
func (s *EpochScheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Members returns the currently active slots, ascending. Between
// BeginEpoch and Complete/Abort this is the running epoch's member set.
func (s *EpochScheduler) Members() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedKeys(s.active)
}

// CompletedEpochs returns how many epochs have completed — the epoch
// number recommendation snapshots are stamped with.
func (s *EpochScheduler) CompletedEpochs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completed
}

// BeginEpoch applies all pending churn in FIFO order and returns the
// plan of the epoch about to run. It panics if an epoch is already in
// flight — the scheduler serializes one coordinator by contract.
// Prefer Epoch, which brackets Begin/Complete/Abort correctly.
func (s *EpochScheduler) BeginEpoch() EpochPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inEpoch {
		panic("sim: BeginEpoch while an epoch is in flight")
	}
	s.inEpoch = true
	joined := make(map[int]bool)
	left := make(map[int]bool)
	// Joined/Left report the boundary's *net* effect: a slot that both
	// joins and leaves (in either order) within one boundary appears in
	// neither list.
	for _, op := range s.pending {
		if op.join && !s.active[op.slot] {
			s.active[op.slot] = true
			if left[op.slot] {
				delete(left, op.slot)
			} else {
				joined[op.slot] = true
			}
		} else if !op.join && s.active[op.slot] {
			delete(s.active, op.slot)
			if joined[op.slot] {
				delete(joined, op.slot)
			} else {
				left[op.slot] = true
			}
		}
	}
	s.pending = s.pending[:0]
	return EpochPlan{
		Epoch:   s.completed + 1,
		Members: sortedKeys(s.active),
		Joined:  sortedKeys(joined),
		Left:    sortedKeys(left),
	}
}

// Complete marks the in-flight epoch as completed, incrementing the
// completed-epoch counter.
func (s *EpochScheduler) Complete() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inEpoch {
		panic("sim: Complete without BeginEpoch")
	}
	s.inEpoch = false
	s.completed++
}

// Abort marks the in-flight epoch as abandoned: the completed-epoch
// counter does not advance (no snapshot may be published for it), but
// the churn applied at BeginEpoch stands — admissions and retirements
// happened at the boundary; only the epoch's outputs are void.
func (s *EpochScheduler) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inEpoch {
		panic("sim: Abort without BeginEpoch")
	}
	s.inEpoch = false
}

// Epoch runs one epoch: it applies pending churn, invokes body with the
// plan, and completes the epoch if body returns nil (aborts it
// otherwise, returning body's error). A context already cancelled when
// Epoch is called skips the boundary entirely — no churn is applied, no
// epoch number is consumed.
func (s *EpochScheduler) Epoch(ctx context.Context, body func(EpochPlan) error) (EpochPlan, error) {
	if ctx != nil && ctx.Err() != nil {
		return EpochPlan{}, context.Cause(ctx)
	}
	plan := s.BeginEpoch()
	if err := body(plan); err != nil {
		s.Abort()
		return plan, err
	}
	s.Complete()
	return plan, nil
}

// sortedKeys returns m's keys ascending.
func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
