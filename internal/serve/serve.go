// Package serve is the online serving layer of the recommendation
// system: a long-lived Engine over one shared billboard where players
// join and leave dynamically and recommendations are answered from the
// latest completed epoch.
//
// The paper's algorithms are batch procedures over a fixed player set.
// The Engine lifts them to a service with three pieces:
//
//   - A sim.EpochScheduler holds the churn contract: Join and Leave only
//     enqueue; membership changes apply at epoch boundaries, so an epoch
//     always computes over a fixed member set (DESIGN.md §13).
//   - Each epoch runs one reconstruction over the current members — a
//     full unknown-D run, or the incremental Refresh repair seeded with
//     the previous epoch's outputs (joiners marked with zero-length
//     partials adopt a consensus group's repaired vector).
//   - Completed epochs publish an immutable Snapshot behind an atomic
//     pointer. The recommendation read path is one atomic load — no
//     RWMutex — and requests for players not yet covered wait on a
//     broadcast channel until the next epoch publishes, bounded by the
//     caller's context deadline.
//
// The Engine talks to its billboard only through boardclient.Interface,
// so the same serving loop runs against the in-process board, a single
// netboard server, or a sharded netboard.Cluster.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/core"
	"tellme/internal/ints"
	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
	"tellme/internal/telemetry"
)

// Typed failures of the serving API.
var (
	// ErrFull means Join was refused: every slot is reserved.
	ErrFull = errors.New("serve: at capacity")
	// ErrUnknownPlayer means the player id is not (or no longer) registered.
	ErrUnknownPlayer = errors.New("serve: unknown player")
	// ErrNotReady means no completed epoch covers the player yet and the
	// request's deadline expired before one did.
	ErrNotReady = errors.New("serve: no completed epoch for player")
)

// Config configures an Engine.
type Config struct {
	// M is the object universe size.
	M int
	// Capacity is the maximum number of concurrently registered players
	// (the board's player dimension).
	Capacity int
	// Alpha is the assumed community fraction handed to the algorithms.
	Alpha float64
	// Board is the billboard the epochs run against; nil builds a fresh
	// in-process board sized Capacity × M.
	Board boardclient.Interface
	// Seed makes the serving runs reproducible: two engines fed the same
	// churn/probe schedule compute identical epochs.
	Seed uint64
	// Parallelism bounds the phase worker pool (0 = GOMAXPROCS).
	Parallelism int
	// EpochTimeout bounds one epoch's wall-clock time; an epoch that
	// exceeds it aborts (the previous snapshot keeps serving). 0 = no
	// bound.
	EpochTimeout time.Duration
	// ExpectedDrift sizes Refresh's patch-verification budget.
	ExpectedDrift int
	// Telemetry, if non-nil, receives serving counters under "serve.*"
	// plus the usual core/probe instruments.
	Telemetry *telemetry.Registry
	// Logf, if non-nil, receives one line per aborted epoch.
	Logf func(format string, args ...any)
}

// Snapshot is one completed epoch's published state: the outputs of
// every member, keyed by external player id, plus quality stats graded
// against the members' registered preference vectors. Snapshots are
// immutable; the read path shares them freely.
type Snapshot struct {
	// Epoch is the completed epoch's 1-based number.
	Epoch int64
	// Refresh reports whether the epoch ran the incremental repair
	// instead of a full reconstruction.
	Refresh bool
	// Duration is the epoch's wall-clock compute time.
	Duration time.Duration
	// Outputs maps external player id → reconstructed w(p).
	Outputs map[uint64]bitvec.Partial
	// Stats grades Outputs against the registered preference vectors.
	Stats Stats
}

// Stats summarizes one epoch's reconstruction quality.
type Stats struct {
	// Members is the epoch's member count.
	Members int
	// MaxErr is the worst member's Hamming error (outputs filled with 0,
	// the paper's output convention).
	MaxErr int
	// MeanErr is the average member error.
	MeanErr float64
}

// slot is one reserved player slot: the registered ground-truth
// preferences and the external identity occupying it.
type slot struct {
	id      uint64
	truth   bitvec.Vector
	leaving bool
}

// Engine is the serving daemon's core: a player registry, the epoch
// loop, and the snapshot read path. All methods are safe for concurrent
// use; RunEpoch/Run must be called from exactly one goroutine (the
// epoch coordinator).
type Engine struct {
	cfg    Config
	board  boardclient.Interface
	sched  *sim.EpochScheduler
	runner *sim.Runner
	src    rng.Source
	objs   []int
	zero   bitvec.Vector

	mu    sync.Mutex
	slots map[int]*slot
	byID  map[uint64]int
	free  []int // ascending; lowest slot is reserved first (determinism)
	next  uint64
	last  []bitvec.Partial // slot-indexed outputs of the last completed epoch
	watch chan struct{}    // closed and replaced on every publish

	snap  atomic.Pointer[Snapshot]
	churn chan struct{} // size-1 wake signal for the Run loop

	tel struct {
		joins, leaves, epochs, aborts, recommends, waited *telemetry.Counter
		epoch, members                                    *telemetry.Gauge
		epochNs, recommendNs                              *telemetry.Histogram
	}
}

// New builds an Engine. The board (Config.Board or the in-process
// default) must be dimensioned for at least Capacity players and M
// objects.
func New(cfg Config) (*Engine, error) {
	if cfg.M <= 0 || cfg.Capacity <= 0 {
		return nil, fmt.Errorf("serve: invalid dimensions capacity=%d m=%d", cfg.Capacity, cfg.M)
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("serve: alpha %v out of (0,1]", cfg.Alpha)
	}
	board := cfg.Board
	if board == nil {
		mem := billboard.New(cfg.Capacity, cfg.M)
		mem.SetTelemetry(cfg.Telemetry)
		board = mem
	}
	e := &Engine{
		cfg:    cfg,
		board:  board,
		sched:  sim.NewEpochScheduler(),
		runner: sim.NewRunner(cfg.Parallelism),
		src:    rng.NewSource(cfg.Seed),
		objs:   ints.Iota(cfg.M),
		zero:   bitvec.New(cfg.M),
		slots:  make(map[int]*slot),
		byID:   make(map[uint64]int),
		free:   ints.Iota(cfg.Capacity),
		watch:  make(chan struct{}),
		churn:  make(chan struct{}, 1),
	}
	if reg := cfg.Telemetry; reg != nil {
		e.tel.joins = reg.Counter("serve.joins")
		e.tel.leaves = reg.Counter("serve.leaves")
		e.tel.epochs = reg.Counter("serve.epochs.completed")
		e.tel.aborts = reg.Counter("serve.epochs.aborted")
		e.tel.recommends = reg.Counter("serve.recommend.served")
		e.tel.waited = reg.Counter("serve.recommend.waited")
		e.tel.epoch = reg.Gauge("serve.epoch")
		e.tel.members = reg.Gauge("serve.members")
		e.tel.epochNs = reg.Histogram("serve.epoch.ns", telemetry.LatencyBuckets())
		e.tel.recommendNs = reg.Histogram("serve.recommend.ns", telemetry.LatencyBucketsFine())
	}
	return e, nil
}

// Board returns the billboard the engine serves from.
func (e *Engine) Board() boardclient.Interface { return e.board }

// probeClearer is the admin surface for releasing a player's probe
// storage, implemented by billboard.Board and netboard.Cluster (it is
// deliberately not part of the algorithm-facing boardclient.Interface).
type probeClearer interface {
	ClearProbes(p int, objs []int)
}

// Join registers a player by its preference vector and returns the
// external id recommendations are requested under. The player
// participates from the next epoch boundary on; Recommend blocks (up to
// its deadline) until an epoch covering the player completes.
func (e *Engine) Join(truth bitvec.Vector) (uint64, error) {
	if truth.Len() != e.cfg.M {
		return 0, fmt.Errorf("serve: preference vector length %d, want %d", truth.Len(), e.cfg.M)
	}
	e.mu.Lock()
	if len(e.free) == 0 {
		e.mu.Unlock()
		return 0, ErrFull
	}
	s, id := e.reserveLocked(truth)
	e.mu.Unlock()
	e.sched.Join(s)
	e.tel.joins.Inc()
	e.wake()
	return id, nil
}

// reserveLocked takes the lowest free slot for truth and registers a
// fresh external id. Caller holds e.mu and has checked len(e.free) > 0.
func (e *Engine) reserveLocked(truth bitvec.Vector) (s int, id uint64) {
	s = e.free[0]
	e.free = e.free[1:]
	e.next++
	id = e.next
	e.slots[s] = &slot{id: id, truth: truth}
	e.byID[id] = s
	return s, id
}

// JoinBatch registers many players in one registry pass: one lock
// acquisition, one scheduler append, one coordinator wake — the bulk
// admission path a fleet driver needs so n joins don't cost n lock and
// churn-queue round trips. The batch is all-or-nothing: if any vector
// has the wrong length or fewer than len(truths) slots are free, no
// player is admitted and the error reports why. Ids are assigned in
// input order. All players in the batch participate from the next epoch
// boundary on, exactly as if Join had been called for each.
func (e *Engine) JoinBatch(truths []bitvec.Vector) ([]uint64, error) {
	for i, v := range truths {
		if v.Len() != e.cfg.M {
			return nil, fmt.Errorf("serve: preference vector %d length %d, want %d", i, v.Len(), e.cfg.M)
		}
	}
	if len(truths) == 0 {
		return nil, nil
	}
	ids := make([]uint64, len(truths))
	slots := make([]int, len(truths))
	e.mu.Lock()
	if len(e.free) < len(truths) {
		free := len(e.free)
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: batch of %d, %d slots free", ErrFull, len(truths), free)
	}
	for i, v := range truths {
		slots[i], ids[i] = e.reserveLocked(v)
	}
	e.mu.Unlock()
	e.sched.JoinAll(slots)
	e.tel.joins.Add(int64(len(truths)))
	e.wake()
	return ids, nil
}

// Leave retires the player at the next epoch boundary. An epoch already
// in flight still computes its output; the id stops resolving once the
// boundary applies. Leave is idempotent until then.
func (e *Engine) Leave(id uint64) error {
	e.mu.Lock()
	s, ok := e.byID[id]
	if !ok {
		e.mu.Unlock()
		return ErrUnknownPlayer
	}
	sl := e.slots[s]
	if sl.leaving {
		e.mu.Unlock()
		return nil
	}
	sl.leaving = true
	e.mu.Unlock()
	e.sched.Leave(s)
	e.tel.leaves.Inc()
	e.wake()
	return nil
}

// Players returns the number of registered players (including ones
// whose join or leave has not reached a boundary yet).
func (e *Engine) Players() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.slots)
}

// CompletedEpochs returns the number of completed epochs.
func (e *Engine) CompletedEpochs() int64 { return e.sched.CompletedEpochs() }

// Snapshot returns the latest completed epoch's published state (nil
// before the first epoch completes). This is the serving fast path: one
// atomic load, no locks.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// wake nudges the Run loop to schedule the next epoch early (pending
// churn should not wait out a full interval).
func (e *Engine) wake() {
	select {
	case e.churn <- struct{}{}:
	default:
	}
}

// watchCh returns the channel closed at the next publish. Grab it
// BEFORE loading the snapshot: publish stores first and closes second,
// so a waiter that saw the old snapshot after grabbing the channel is
// guaranteed a wakeup.
func (e *Engine) watchCh() <-chan struct{} {
	e.mu.Lock()
	ch := e.watch
	e.mu.Unlock()
	return ch
}

// Recommend returns the player's reconstructed preference vector from
// the latest completed epoch, along with the epoch number it came from.
// If no completed epoch covers the player yet (the player joined after
// the last boundary, or no epoch has completed at all), Recommend waits
// for the next publish, bounded by ctx's deadline — the per-request
// deadline contract of the serving daemon.
func (e *Engine) Recommend(ctx context.Context, id uint64) (bitvec.Partial, int64, error) {
	start := time.Now()
	waited := false
	for {
		ch := e.watchCh()
		e.mu.Lock()
		_, known := e.byID[id]
		e.mu.Unlock()
		if !known {
			return bitvec.Partial{}, 0, ErrUnknownPlayer
		}
		if s := e.snap.Load(); s != nil {
			if w, ok := s.Outputs[id]; ok {
				e.tel.recommends.Inc()
				if waited {
					e.tel.waited.Inc()
				}
				e.tel.recommendNs.ObserveSince(start)
				return w, s.Epoch, nil
			}
		}
		waited = true
		select {
		case <-ctx.Done():
			return bitvec.Partial{}, 0, fmt.Errorf("%w: %w", ErrNotReady, context.Cause(ctx))
		case <-ch:
		}
	}
}

// RunEpoch runs one epoch: applies pending churn at the boundary, frees
// retired slots (clearing their probe storage so a future occupant
// starts clean), computes the member outputs, and publishes the
// snapshot. An error (cancellation, transport failure, player panic)
// aborts the epoch — membership changes stand, no snapshot is
// published, and the previous snapshot keeps serving.
func (e *Engine) RunEpoch(ctx context.Context) (sim.EpochPlan, error) {
	plan, err := e.sched.Epoch(ctx, func(plan sim.EpochPlan) error {
		inst := e.applyBoundary(plan)
		start := time.Now()
		outs, refreshed, err := e.compute(ctx, inst, plan)
		if err != nil {
			e.tel.aborts.Inc()
			return err
		}
		took := time.Since(start)

		stats := Stats{Members: len(plan.Members)}
		outMap := make(map[uint64]bitvec.Partial, len(plan.Members))
		e.mu.Lock()
		e.last = outs
		for _, s := range plan.Members {
			sl := e.slots[s]
			if sl == nil {
				continue
			}
			outMap[sl.id] = outs[s]
			if outs[s].Len() == e.cfg.M {
				errP := inst.Err(s, outs[s])
				if errP > stats.MaxErr {
					stats.MaxErr = errP
				}
				stats.MeanErr += float64(errP)
			}
		}
		e.mu.Unlock()
		if stats.Members > 0 {
			stats.MeanErr /= float64(stats.Members)
		}
		e.publish(&Snapshot{
			Epoch:    plan.Epoch,
			Refresh:  refreshed,
			Duration: took,
			Outputs:  outMap,
			Stats:    stats,
		})
		e.tel.epochs.Inc()
		e.tel.epochNs.Observe(took.Nanoseconds())
		return nil
	})
	e.tel.epoch.Set(e.sched.CompletedEpochs())
	e.tel.members.Set(int64(len(plan.Members)))
	return plan, err
}

// applyBoundary finalizes the churn the scheduler applied at
// BeginEpoch: slots whose leave took effect (marked leaving and absent
// from the plan's member set) are released — identity unregistered,
// probe storage cleared, slot returned to the free list — and the
// epoch's ground-truth instance is built from the remaining
// registrations.
func (e *Engine) applyBoundary(plan sim.EpochPlan) *prefs.Instance {
	member := make(map[int]bool, len(plan.Members))
	for _, s := range plan.Members {
		member[s] = true
	}
	var freed []int
	vs := make([]bitvec.Vector, e.cfg.Capacity)
	for i := range vs {
		vs[i] = e.zero
	}
	e.mu.Lock()
	for s, sl := range e.slots {
		if sl.leaving && !member[s] {
			delete(e.slots, s)
			delete(e.byID, sl.id)
			freed = append(freed, s)
			if e.last != nil {
				e.last[s] = bitvec.Partial{}
			}
			continue
		}
		vs[s] = sl.truth
	}
	sort.Ints(freed)
	for _, s := range freed {
		i := sort.SearchInts(e.free, s)
		e.free = append(e.free, 0)
		copy(e.free[i+1:], e.free[i:])
		e.free[i] = s
	}
	e.mu.Unlock()
	// A released slot's probe results describe its former occupant's
	// preferences; clear them so the board never answers a future
	// occupant's probe from a stranger's grades. Every board transport
	// (in-process, single server, cluster) implements the admin op.
	if pc, ok := e.board.(probeClearer); ok {
		for _, s := range freed {
			pc.ClearProbes(s, e.objs)
		}
	}
	return prefs.FromVectors(vs)
}

// compute runs one epoch's reconstruction: a full unknown-D run when no
// usable previous outputs exist (first epoch, or more joiners than
// incumbents), the incremental Refresh repair otherwise (joiners carry
// the zero-length marker and adopt from the repaired consensus groups).
// A joiner that no consensus group could take in comes out of Refresh
// still zero-length; the epoch then falls back to the full run, as
// Refresh asks of its caller.
// Panics from the algorithm stack — cancellation, transport failure,
// player code — unwind to an error here, mirroring the batch facade.
func (e *Engine) compute(ctx context.Context, inst *prefs.Instance, plan sim.EpochPlan) (outs []bitvec.Partial, refreshed bool, err error) {
	epCtx := ctx
	if e.cfg.EpochTimeout > 0 {
		var cancel context.CancelFunc
		epCtx, cancel = context.WithTimeout(ctx, e.cfg.EpochTimeout)
		defer cancel()
	}
	defer func() {
		if rec := recover(); rec != nil {
			outs, refreshed = nil, false
			err = core.AbortCause(rec)
		}
	}()

	// The algorithms drop their own topics, on success and, through
	// their abort-path cleanups, on abort, so the long-lived board keeps
	// no epoch's scratch (DESIGN.md §13).
	epoch := int(plan.Epoch)
	var popts []probe.Option
	if epCtx.Done() != nil {
		popts = append(popts, probe.WithContext(epCtx))
	}
	engine := probe.NewEngine(inst, e.board, e.src.Child("engine", epoch), popts...)
	env := core.NewEnv(engine, e.runner, e.src.Child("public", epoch), core.DefaultConfig())
	env.Telemetry = e.cfg.Telemetry

	if len(plan.Members) == 0 {
		return make([]bitvec.Partial, e.cfg.Capacity), false, nil
	}
	if stale := e.staleFor(plan.Members); stale != nil {
		red, maxP := core.RefreshBudget(e.cfg.ExpectedDrift)
		outs := core.Refresh(env, plan.Members, e.objs, stale, e.cfg.Alpha, red, maxP)
		if e.covers(outs, plan.Members) {
			return outs, true, nil
		}
	}
	return core.UnknownDFor(env, e.cfg.Alpha, plan.Members, e.objs), false, nil
}

// covers reports whether every member has a full-length output.
func (e *Engine) covers(outs []bitvec.Partial, members []int) bool {
	for _, s := range members {
		if outs[s].Len() != e.cfg.M {
			return false
		}
	}
	return true
}

// staleFor builds Refresh's stale-output slice for the member set, or
// returns nil when a full run is warranted: no previous epoch, or
// joiners (members without a previous full-length output) outnumbering
// incumbents — too little consensus mass to repair from.
func (e *Engine) staleFor(members []int) []bitvec.Partial {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last == nil {
		return nil
	}
	stale := make([]bitvec.Partial, e.cfg.Capacity)
	joiners := 0
	for _, s := range members {
		if e.last[s].Len() != e.cfg.M {
			joiners++ // keeps the zero-length joiner marker
			continue
		}
		stale[s] = e.last[s]
	}
	if joiners*2 > len(members) {
		return nil
	}
	return stale
}

// publish installs the snapshot and wakes every waiting Recommend.
// Store-then-close pairs with watchCh's grab-then-load.
func (e *Engine) publish(s *Snapshot) {
	e.snap.Store(s)
	e.mu.Lock()
	close(e.watch)
	e.watch = make(chan struct{})
	e.mu.Unlock()
}

// Run is the epoch coordinator loop: one epoch per interval, scheduled
// early when churn is pending. Aborted epochs are logged and the loop
// continues — the previous snapshot keeps serving. Run returns when ctx
// is cancelled.
func (e *Engine) Run(ctx context.Context, every time.Duration) error {
	if every <= 0 {
		every = time.Second
	}
	for {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		if _, err := e.RunEpoch(ctx); err != nil {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			e.logf("serve: epoch aborted: %v", err)
		}
		timer := time.NewTimer(every)
		select {
		case <-ctx.Done():
			timer.Stop()
			return context.Cause(ctx)
		case <-timer.C:
		case <-e.churn:
			timer.Stop()
		}
	}
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}
