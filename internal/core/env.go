// Package core implements the paper's algorithms: Select and RSelect
// (Choose Closest), ZeroRadius, SmallRadius, Coalesce, LargeRadius, the
// main dispatcher, and the unknown-parameter wrappers.
//
// # Execution model
//
// Algorithms run over an Env: a billboard, a probe engine, a parallel
// runner and a public-coin randomness source. All random partitions are
// public-coin (derived from Env.Public with a per-invocation tag), so
// every player computes the same partitions without communication, and
// whole runs are reproducible from one seed. Player-private randomness
// (RSelect sampling) comes from per-player streams.
//
// # Cost accounting
//
// The paper measures cost in probing rounds: players probe in parallel,
// one probe per round, so an algorithm's round count is the maximum
// number of probes any single player performs. Callers measure this by
// snapshotting the probe engine around an algorithm invocation (the
// facade in package tellme does this); the algorithms themselves only
// probe through their *probe.Player handles.
package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/ints"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
	"tellme/internal/telemetry"
)

// Config holds the constants the paper leaves as O(·) knobs. The zero
// value is not usable; call DefaultConfig.
type Config struct {
	// LeafC scales the ZeroRadius leaf threshold: recursion stops when
	// min(|P|,|O|) < LeafC·ln(n)/α (paper: 8c·ln(n)/α).
	LeafC float64
	// PartC scales the SmallRadius partition count: s = ceil(PartC·D^{3/2})
	// (paper: 100·d^{3/2} makes Lemma 4.1's failure probability < 1/2;
	// much smaller constants work in practice — see experiment E11).
	PartC float64
	// K is the SmallRadius confidence parameter (number of independent
	// iterations). K ≤ 0 means ceil(log2 n)+1.
	K int
	// GroupC scales the LargeRadius group count: cD/log n groups
	// (paper's c). Larger GroupC means smaller groups.
	GroupC float64
	// RSelC scales RSelect's per-pair sample count c·log n.
	RSelC float64
	// LambdaC scales LargeRadius's per-group distance bound:
	// λ = ceil(LambdaC·D/groups)+4, capped at D. The paper's Lemma 5.5
	// only fixes λ = O(log n); LambdaC sets the concentration margin
	// over the mean D/groups.
	LambdaC float64
	// CoalDC scales the Coalesce distance parameter in LargeRadius:
	// coalD = CoalDC·λ. The worst-case chain bound is 11λ, but at
	// simulator scales that can exceed the group size and degenerate
	// Coalesce (every vector in one ball); the realized pairwise spread
	// of typical outputs is ≈ 2λ, so a small constant suffices.
	CoalDC float64
	// VoteFrac is the ZeroRadius vote threshold as a fraction of α:
	// a vector needs VoteFrac·α·|P''| votes to become a candidate. The
	// paper uses 1/2 together with a leaf size of 8c·ln(n)/α; with the
	// simulator's cheaper LeafC the default is 1/4, which restores the
	// Chernoff margin at small leaves for the same O(1/α) candidate
	// bound (ablated in E11c).
	VoteFrac float64
}

// DefaultConfig returns constants that satisfy the theorems' premises at
// the simulator's scales while keeping probing budgets practical.
func DefaultConfig() Config {
	return Config{
		LeafC:    2,
		PartC:    1,
		K:        0,
		GroupC:   1,
		RSelC:    4,
		LambdaC:  2,
		CoalDC:   3,
		VoteFrac: 0.25,
	}
}

// Env bundles the shared state one algorithm run executes against.
type Env struct {
	Board  boardclient.Interface
	Engine *probe.Engine
	Run    sim.PhaseRunner
	// Public is the shared-coin source: all players derive identical
	// partitions from it.
	Public rng.Source
	// N and M are the instance dimensions.
	N, M int
	Cfg  Config

	// held is Board when Board holds posts until the next read (see
	// phase); nil otherwise.
	held postHolder
	// dropBy is the deadline all of the run's abort-path drops share
	// (see dropQuietly), zero until the first abort site runs.
	dropBy time.Time

	topicSeq atomic.Int64
	counters [nCounters]atomic.Int64

	// scratch is the coordinator-side region allocator (see coScratch).
	// Like the rest of the coordinator state it is single-goroutine:
	// only the goroutine driving the algorithms may run them on one Env.
	scratch coScratch

	// Telemetry, when non-nil, accumulates per-sub-algorithm cost
	// counters ("core.<kind>.{calls,probes,ns}"), one span per
	// invocation — the registry behind the -telemetry cost breakdown of
	// cmd/experiments.
	Telemetry *telemetry.Registry

	telOnce  sync.Once
	spanTels [nSpanKinds]spanCounters

	// ctx/done carry the run's cancellation signal, taken from the probe
	// engine in NewEnv. done is nil for an uncancellable run — every
	// check is then a single nil comparison. Read-only after NewEnv.
	ctx  context.Context
	done <-chan struct{}

	// cur is the innermost sub-algorithm kind running, set by span and
	// restored to the enclosing kind when the span ends, and reported
	// through ActiveKind so an abort can say which phase it
	// interrupted. Written only by the coordinator goroutine (spans
	// start and end between phases, never inside one).
	cur string

	// ckOuts/ckEpochs are the last completed-epoch checkpoint: the
	// epoch-structured algorithms (Anytime after each completed phase,
	// Refresh at entry with the stale inputs) save a consistent output
	// set here so an abort mid-epoch can report the last *completed*
	// epoch instead of nothing — never a mix of a half-written epoch
	// with the prior one. Coordinator-goroutine only, written between
	// phases; the facade reads it after the run unwinds.
	ckOuts   []bitvec.Partial
	ckEpochs int
}

// Abort is the panic payload the Env helpers use to unwind a cancelled
// or failed run out of the recursive algorithms: the algorithms return
// values, not errors, so a mid-recursion failure has no error path and
// unwinds instead. The run's owner (the facade in package tellme, or a
// serving epoch) recovers it at the run boundary and maps it with
// AbortCause; code between the two — the algorithm bodies — only needs
// panic-safety, which they have by construction (the billboard cleanup
// is handled by the abort-cleanup defers in the topic-owning
// algorithms).
type Abort struct {
	// Err is the underlying failure: a cancellation cause such as
	// context.DeadlineExceeded, a *sim.PanicError from player code, or a
	// transport error like *netboard.TransportError.
	Err error
}

// Error implements error.
func (a *Abort) Error() string { return fmt.Sprintf("core: run aborted: %v", a.Err) }

// Unwrap exposes the failure to errors.Is/As.
func (a *Abort) Unwrap() error { return a.Err }

// AbortCause maps a value recovered from an aborted run to the failure
// behind it: an *Abort to its Err, a *probe.Canceled (a cancellation
// observed outside a phase body, by coordinator code probing directly)
// to its Cause, any other error to itself, and anything else to a
// *sim.PanicError.
func AbortCause(rec any) error {
	switch v := rec.(type) {
	case *Abort:
		return v.Err
	case *probe.Canceled:
		return v.Cause
	case error:
		return v
	default:
		return &sim.PanicError{Value: rec}
	}
}

// phase runs one fallible phase over the Env's context and unwinds with
// *Abort when it fails. All algorithm phase bodies go through this, so
// cancellation and player panics surface at the run boundary no matter
// how deep the recursion is.
//
// The barrier sends nothing. In the paper's synchronous rounds a post
// only has to be visible to the reads of later phases, and a deferred
// board view (boardclient.Defer) holds the phase's posts and drops
// until the next read, which carries them, or until the held batch
// would pass its size bound; the run's outermost span sends what is
// left (see spanEnd.end), so every phase runs inside a span. So a failed post is reported by the read or
// flush that sends it, and an abort sends the held batch with its own
// drops (see dropQuietly).
func (env *Env) phase(players []int, f func(p int)) {
	if err := env.Run.Phase(env.ctx, players, f); err != nil {
		panic(&Abort{Err: err})
	}
}

// postHolder is implemented by a board view that holds posts until
// Flush sends them or Take empties it unsent (boardclient.Defer).
type postHolder interface {
	Flush()
	Take() []boardclient.Post
}

// quietly runs f, swallowing any panic: the abort-path cleanups use it,
// where the transport may be the very thing that died, and a cleanup
// panic must not mask the original abort cause.
func quietly(f func()) { _ = catch(f) }

// catch runs f and returns the value it panicked with, nil if none.
func catch(f func()) (rec any) {
	defer func() { rec = recover() }()
	f()
	return nil
}

// checkAborted unwinds with *Abort if the run's context is done. The
// coordinator loops call it between phases so a cancelled run stops at
// the next loop boundary even when no player probes again (phases and
// probes have their own checks).
func (env *Env) checkAborted() {
	if env.done == nil {
		return
	}
	select {
	case <-env.done:
		panic(&Abort{Err: context.Cause(env.ctx)})
	default:
	}
}

// ActiveKind returns the innermost sub-algorithm kind running ("" when
// none is); the facade stamps it into RunError.Phase.
func (env *Env) ActiveKind() string { return env.cur }

// Context returns the run's context (nil for an uncancellable run).
func (env *Env) Context() context.Context { return env.ctx }

// saveCheckpoint records outs as the outputs of the last completed
// epoch (epochs completed so far). The slice header is copied so later
// element reassignments by the caller cannot tear the checkpoint; the
// elements themselves must be immutable once stored (the callers only
// ever *replace* entries, never mutate them in place).
func (env *Env) saveCheckpoint(outs []bitvec.Partial, epochs int) {
	env.ckOuts = append(env.ckOuts[:0], outs...)
	env.ckEpochs = epochs
}

// Checkpoint returns the last completed-epoch outputs and the number of
// completed epochs (nil, 0 when the run's algorithm keeps no epoch
// checkpoints or none completed). Valid only after the run has unwound;
// the caller may keep the slice.
func (env *Env) Checkpoint() ([]bitvec.Partial, int) {
	return env.ckOuts, env.ckEpochs
}

// abortDropBudget bounds the abort-path drops of one run: all of its
// abort sites drop by the same deadline, this long after the first
// one starts, so a dead board delays an abort by at most this much.
const abortDropBudget = 250 * time.Millisecond

// dropQuietly removes the named topics of an aborting run (see Abort):
// topic tags are deterministic (freshTag is a plain sequence number,
// load-bearing for the public-coin streams), so a topic an aborted run
// leaves behind would be read by the next run on the same board as its
// own. The drops go to the engine's unbound board under a context
// detached from the run's cancellation, so a cancelled or timed-out
// run still cleans up, with the run's one abort-drop deadline
// (abortDropBudget).
//
// On a deferred view the run's batch is still held: the drops of
// finished levels and finished sub-algorithms, which no abort site
// names, and the probe results. dropQuietly takes it and sends its
// probe results and drops, followed by the named drops, as one post
// batch per shard, so no held topic post can outlive its drop. The
// held value and vector posts are discarded: every topic they post to
// is dropped here or by an enclosing abort site. The drops are quiet:
// a failure does not mask the abort.
func (env *Env) dropQuietly(names ...string) {
	var held []boardclient.Post
	if env.held != nil {
		held = env.held.Take()
	}
	if len(held)+len(names) == 0 {
		return
	}
	if env.dropBy.IsZero() {
		env.dropBy = time.Now().Add(abortDropBudget)
	}
	parent := context.Background()
	if env.ctx != nil {
		parent = context.WithoutCancel(env.ctx)
	}
	ctx, cancel := context.WithDeadline(parent, env.dropBy)
	defer cancel()
	b := boardclient.Defer(boardclient.BindContext(ctx, env.Engine.UnboundBoard()))
	quietly(func() {
		for _, p := range held {
			switch p.Kind {
			case boardclient.ProbesPost:
				b.PostProbes(p.Player, p.Objs, p.Grades)
			case boardclient.DropPost:
				b.DropTopic(p.Topic)
			}
		}
		for _, name := range names {
			b.DropTopic(name)
		}
		if h, ok := b.(postHolder); ok {
			h.Flush()
		}
	})
}

// spanCounters are one span kind's pre-resolved instruments. Spans run
// inside the recursion (hundreds to tens of thousands per run), so the
// registry's get-or-create lookup must not happen per span.
type spanCounters struct {
	calls, probes, ns *telemetry.Counter
}

// spanKind is a sub-algorithm span kind, indexable without a map.
type spanKind int

const (
	spanRefresh spanKind = iota
	spanSmallRadius
	spanZeroRadius
	spanLargeRadius
	spanUnknownD
	spanAnytime
	nSpanKinds
)

var spanKindNames = [nSpanKinds]string{
	spanRefresh:     "refresh",
	spanSmallRadius: "smallradius",
	spanZeroRadius:  "zeroradius",
	spanLargeRadius: "largeradius",
	spanUnknownD:    "unknownd",
	spanAnytime:     "anytime",
}

// spanCountersFor returns the cached instruments for kind, resolving
// all kinds once on first use.
func (env *Env) spanCountersFor(kind spanKind) *spanCounters {
	env.telOnce.Do(func() {
		tel := env.Telemetry
		for k, name := range spanKindNames {
			env.spanTels[k] = spanCounters{
				calls:  tel.Counter("core." + name + ".calls"),
				probes: tel.Counter("core." + name + ".probes"),
				ns:     tel.Counter("core." + name + ".ns"),
			}
		}
	})
	return &env.spanTels[kind]
}

// spanEnd closes a span (see span). It is a value, not a closure, so
// a span costs no allocation.
type spanEnd struct {
	env     *Env
	prev    string
	tel     *spanCounters // nil with Telemetry nil
	players []int
	before  int64
	start   time.Time
}

// span records kind as the active sub-algorithm (for abort reporting)
// until the returned spanEnd's end restores the enclosing kind. With
// Telemetry set, the span adds calls to the kind's call counter now,
// and at its end the probes the participating players consumed and
// the wall time spent in between. A fused call (several independent
// instances sharing their phases) is one span of as many calls as
// instances, over the union of their players. players restricts the
// probe measurement (nil means all), so a span costs two O(group)
// counter sweeps, not two O(n) ones. Exact because players only probe
// their own grades, so a span's consumption is entirely attributed to
// its participants. With Telemetry nil the span is free: no counter
// sweep and no allocation.
func (env *Env) span(kind spanKind, players []int, calls int) spanEnd {
	s := spanEnd{env: env, prev: env.cur}
	env.cur = spanKindNames[kind]
	if env.Telemetry == nil {
		return s
	}
	s.tel = env.spanCountersFor(kind)
	s.tel.calls.Add(int64(calls))
	s.players = players
	s.before = env.chargedSum(players)
	s.start = time.Now()
	return s
}

// end closes the span; callers defer it. A span an abort unwinds keeps
// its kind active, so the facade reports the kind the abort
// interrupted, not the outermost one.
//
// The outermost span ends the run, so it also flushes a deferred board
// view: the posts and drops made since the run's last read are still
// held there, and a run never returns with one. A flush that fails
// unwinds like an abort, with the kind still active. When the run
// unwinds with an abort, or its final flush fails, the outermost span
// sends the held batch the way an abort site does (dropQuietly, with
// no names of its own): a sub-algorithm that has already returned,
// such as a ZeroRadius inside SmallRadius, has no abort site left to
// send its held drops.
func (s spanEnd) end() {
	rec := recover()
	if s.tel != nil {
		s.tel.probes.Add(s.env.chargedSum(s.players) - s.before)
		s.tel.ns.Add(time.Since(s.start).Nanoseconds())
	}
	if s.prev == "" && s.env.held != nil {
		if rec == nil {
			rec = catch(s.env.held.Flush)
		}
		if rec != nil {
			s.env.dropQuietly()
		}
	}
	if rec != nil {
		panic(rec)
	}
	s.env.cur = s.prev
}

func (env *Env) chargedSum(players []int) int64 {
	if players == nil {
		return env.Engine.TotalCharged()
	}
	return env.Engine.ChargedSum(players)
}

// Counter identifies one invocation counter on an Env.
type Counter int

// Invocation counters, incremented once per (possibly nested) call.
const (
	CountZeroRadius Counter = iota
	CountSmallRadius
	CountLargeRadius
	CountCoalesce
	nCounters
)

// String names the counter.
func (c Counter) String() string {
	switch c {
	case CountZeroRadius:
		return "ZeroRadius"
	case CountSmallRadius:
		return "SmallRadius"
	case CountLargeRadius:
		return "LargeRadius"
	case CountCoalesce:
		return "Coalesce"
	default:
		return "unknown"
	}
}

func (env *Env) count(c Counter) { env.counters[c].Add(1) }

// RunCounts reports how many times each sub-algorithm ran on this Env —
// useful for understanding where an algorithm's probes went (e.g. one
// LargeRadius call fans out into Θ(D/log n) SmallRadius calls, each
// fanning out into K·s ZeroRadius calls).
func (env *Env) RunCounts() map[string]int64 {
	out := make(map[string]int64, int(nCounters))
	for c := Counter(0); c < nCounters; c++ {
		out[c.String()] = env.counters[c].Load()
	}
	return out
}

// NewEnv builds an execution environment. runner may be nil for a
// default parallel runner.
func NewEnv(e *probe.Engine, runner sim.PhaseRunner, public rng.Source, cfg Config) *Env {
	if runner == nil {
		runner = sim.NewRunner(0)
	}
	env := &Env{
		Board:  e.Board(),
		Engine: e,
		Run:    runner,
		Public: public,
		N:      e.Instance().N,
		M:      e.Instance().M,
		Cfg:    cfg,
	}
	env.held, _ = env.Board.(postHolder)
	// The engine's context (probe.WithContext) is the run's context: the
	// coordinator loops observe the same cancellation the players do.
	if ctx := e.Context(); ctx != nil && ctx.Done() != nil {
		env.ctx = ctx
		env.done = ctx.Done()
	}
	return env
}

// freshTag returns a unique topic prefix for one algorithm invocation,
// so nested and repeated invocations never collide on the billboard.
// Built in one allocation: ZeroRadius mints a tag per call, thousands
// of times per recursion.
func (env *Env) freshTag(kind string) string {
	var buf [24]byte
	b := append(buf[:0], kind...)
	b = append(b, '#')
	b = strconv.AppendInt(b, env.topicSeq.Add(1), 10)
	return string(b)
}

// leafThreshold is the ZeroRadius recursion cutoff for the given α.
func (env *Env) leafThreshold(alpha float64) int {
	t := int(math.Ceil(env.Cfg.LeafC * math.Log(float64(env.N)+1) / alpha))
	if t < 2 {
		t = 2
	}
	return t
}

// confidenceK resolves the SmallRadius iteration count.
func (env *Env) confidenceK() int {
	if env.Cfg.K > 0 {
		return env.Cfg.K
	}
	return int(math.Ceil(math.Log2(float64(env.N)+1))) + 1
}

// allPlayers returns [0, n).
func allPlayers(n int) []int { return ints.Iota(n) }

// splitHalf randomly partitions ids into two halves of sizes ⌈k/2⌉ and
// ⌊k/2⌋ using the given public-coin stream. The halves are a fresh
// shuffled copy: callers keep their original order, and — load-bearing
// for determinism — a recursive caller's own slice keeps its positional
// order when the halves are split further (posted value vectors are
// positional, and the deterministic vote order compares them
// lexicographically).
func splitHalf(r *rng.Rand, ids []int) (a, b []int) {
	shuffled := append([]int(nil), ids...)
	r.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	half := (len(shuffled) + 1) / 2
	return shuffled[:half], shuffled[half:]
}

// assignParts assigns each of the ids independently and uniformly to one
// of s parts (the paper's random object partition). All parts share one
// backing array, allocated once, instead of s independently grown
// slices.
func assignParts(r *rng.Rand, ids []int, s int) [][]int {
	assign := make([]int, len(ids))
	counts := make([]int, s)
	for i := range ids {
		a := r.Intn(s)
		assign[i] = a
		counts[a]++
	}
	backing := make([]int, len(ids))
	parts := make([][]int, s)
	off := 0
	for a, c := range counts {
		parts[a] = backing[off : off : off+c]
		off += c
	}
	for i, id := range ids {
		a := assign[i]
		parts[a] = append(parts[a], id)
	}
	return parts
}
