// Package sim runs the distributed algorithms: n players execute
// concurrently in lockstep phases separated by barriers.
//
// The paper's model is round-synchronous — in each round every player
// reads the billboard, probes one object, and posts. We simulate at the
// granularity of phases: within a phase each player performs some number
// of probes; player code within one phase never depends on another
// player's actions in the same phase, only on postings from completed
// phases, so the phase is embarrassingly parallel. The parallel round
// cost of a phase is the maximum number of probes any single player
// charged during it: probe.Engine.MaxDelta against a Snapshot taken
// before the phase.
//
// # Cancellation and failure
//
// A phase is fallible: Phase takes a context and returns an error. A
// nil (or never-cancelled) context takes the pre-context fast path —
// no per-item synchronization beyond what the barrier already needs.
// When the context is cancelled mid-phase, workers observe it at chunk
// boundaries: they stop claiming new work, finish the chunk in hand,
// and drain at the barrier, so Phase never returns with player code
// still running. A panic inside player code no longer escapes the
// barrier; it is recovered per call (every other player still runs)
// and returned as a *PanicError after the barrier.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"tellme/internal/probe"
)

// PhaseRunner executes one per-player function per phase. Runner is the
// standard worker-pool implementation; LockstepRunner executes under
// the strict one-probe-per-round model for validation.
type PhaseRunner interface {
	// Phase runs f(p) for every p in players and returns when all
	// started calls complete (the barrier). ctx may be nil (never
	// cancelled). On cancellation, players not yet started are skipped
	// and the context's cause is returned; a panic in f is returned as
	// a *PanicError after every other player has run.
	Phase(ctx context.Context, players []int, f func(p int)) error
	// PhaseAll runs f for players 0..n-1 under the same contract.
	PhaseAll(ctx context.Context, n int, f func(p int)) error
}

// PanicError is a panic from player code, captured at the phase barrier
// and returned as an error instead of unwinding through the simulator.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: panic in player code: %v", e.Value)
}

// Unwrap exposes the panic value when it is itself an error, so
// errors.Is/As see through player code that panicked with a typed
// error (e.g. a netboard transport failure).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// MustPhase runs a non-cancellable phase, re-panicking any player
// panic — the pre-context behavior, for analyses outside the
// cancellable spine (baselines, onegood).
func MustPhase(r PhaseRunner, players []int, f func(p int)) {
	if err := r.Phase(nil, players, f); err != nil {
		panic(err)
	}
}

// MustPhaseAll is MustPhase over players 0..n-1.
func MustPhaseAll(r PhaseRunner, n int, f func(p int)) {
	if err := r.PhaseAll(nil, n, f); err != nil {
		panic(err)
	}
}

// ctxDone returns the context's done channel, or nil for a nil or
// never-cancelled context — the fast-path discriminator.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// cancelled reports whether done is closed, without blocking.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// panicRec is one recovered panic with its origin stack.
type panicRec struct {
	val   any
	stack []byte
}

// safeCall runs g(i), converting a panic into a panicRec. The stack is
// captured inside the deferred recover, while the panicking frames are
// still live.
func safeCall(g func(i int), i int) (rec *panicRec) {
	defer func() {
		if v := recover(); v != nil {
			rec = &panicRec{val: v, stack: debug.Stack()}
		}
	}()
	g(i)
	return nil
}

// phaseError converts a phase's outcome into its returned error:
// a cancellation panic from the probe engine or a done context yields
// the cancellation cause; any other panic yields a *PanicError.
func phaseError(ctx context.Context, rec *panicRec) error {
	if rec != nil {
		if c, ok := rec.val.(*probe.Canceled); ok {
			return c.Cause
		}
		return &PanicError{Value: rec.val, Stack: rec.stack}
	}
	if cancelled(ctxDone(ctx)) {
		return context.Cause(ctx)
	}
	return nil
}

// Runner executes per-player functions concurrently with a bounded
// worker pool. It is reusable across phases and safe for sequential use
// from one coordinating goroutine.
type Runner struct {
	workers int
}

var _ PhaseRunner = (*Runner)(nil)

// NewRunner returns a Runner with the given parallelism; if workers <= 0
// it defaults to GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers}
}

// Phase runs f(p) for every p in players concurrently and returns when
// all started calls complete (the barrier). See PhaseRunner.
func (r *Runner) Phase(ctx context.Context, players []int, f func(p int)) error {
	n := len(players)
	if n == 0 {
		return phaseError(ctx, nil)
	}
	if r.width(n) == 1 {
		return r.serial(ctx, n, func(i int) { f(players[i]) })
	}
	return r.parallel(ctx, n, func(i int) { f(players[i]) })
}

// PhaseAll runs f for players 0..n-1, without materializing the id list.
func (r *Runner) PhaseAll(ctx context.Context, n int, f func(p int)) error {
	if n == 0 {
		return phaseError(ctx, nil)
	}
	if r.width(n) == 1 {
		return r.serial(ctx, n, f)
	}
	return r.parallel(ctx, n, f)
}

// width is the worker count for a phase of n items.
func (r *Runner) width(n int) int {
	if r.workers < n {
		return r.workers
	}
	return n
}

// serial is the one-worker phase: cancellation is observed between
// calls, and like the parallel path a panic is recorded and every
// remaining player still runs.
func (r *Runner) serial(ctx context.Context, n int, g func(i int)) error {
	done := ctxDone(ctx)
	var first *panicRec
	for i := 0; i < n; i++ {
		if cancelled(done) {
			break
		}
		if rec := safeCall(g, i); rec != nil && first == nil {
			first = rec
		}
	}
	return phaseError(ctx, first)
}

// parallel dispatches g(0..n-1) over width(n) workers. Work is handed
// out in chunks claimed off one atomic counter — no mutex, no per-item
// closure, and the worker body is a single closure shared by all
// goroutines, so a phase allocates O(workers) regardless of n.
// Cancellation is observed before each chunk claim: a cancelled worker
// stops claiming, finishes nothing further, and drains at the barrier.
func (r *Runner) parallel(ctx context.Context, n int, g func(i int)) error {
	w := r.width(n)
	chunk := n / (w * 4)
	if chunk < 1 {
		chunk = 1
	} else if chunk > 64 {
		chunk = 64
	}
	done := ctxDone(ctx)
	var (
		next       atomic.Int64
		firstPanic atomic.Pointer[panicRec]
		wg         sync.WaitGroup
	)
	// Per-call recovery keeps the original barrier semantics: one
	// panicking player does not stop the others; the first recorded
	// panic is returned after the barrier.
	worker := func() {
		defer wg.Done()
		for {
			if cancelled(done) {
				return
			}
			end := int(next.Add(int64(chunk)))
			start := end - chunk
			if start >= n {
				return
			}
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				if rec := safeCall(g, i); rec != nil {
					firstPanic.CompareAndSwap(nil, rec)
				}
			}
		}
	}
	wg.Add(w)
	for i := 0; i < w; i++ {
		go worker()
	}
	wg.Wait()
	return phaseError(ctx, firstPanic.Load())
}
