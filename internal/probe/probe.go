// Package probe implements the probe engine: the only way a player can
// learn one of its own hidden grades, at unit cost per probe.
//
// Every probe result is automatically posted to the shared billboard, as
// the model requires. The engine keeps per-player cost counters so the
// simulator can convert "max probes per player in a phase" into the
// paper's parallel round count.
//
// Charging policy: the paper charges one unit per Probe invocation, and
// its Select remark explicitly forbids reusing earlier probes, so the
// default policy ChargeAll counts every invocation. ChargeDistinct is the
// systems-flavored alternative (re-reading your own posted result is
// free); experiments use it to show the bounds are insensitive to the
// choice.
//
// The engine also supports fault injection (a NoiseFunc that corrupts
// returned grades) for robustness experiments beyond the paper's
// noise-free model.
package probe

import (
	"context"
	"fmt"
	"sync/atomic"

	"tellme/internal/arena"
	"tellme/internal/boardclient"
	"tellme/internal/prefs"
	"tellme/internal/rng"
	"tellme/internal/telemetry"
)

// Canceled is panicked by Player.Probe/ProbeMany when the engine's
// context is cancelled mid-phase: a player deep inside a recursive
// algorithm has no error return path, so cancellation unwinds its phase
// body the same way any player panic would, and the simulator
// (sim.Runner) recognizes the type and reports Cause as the phase error
// instead of a panic.
type Canceled struct {
	// Cause is the context's cancellation cause (context.Canceled,
	// context.DeadlineExceeded, or the cause passed to the cancel func).
	Cause error
}

// Error implements error.
func (c *Canceled) Error() string { return fmt.Sprintf("probe: run canceled: %v", c.Cause) }

// Unwrap exposes the cancellation cause to errors.Is/As.
func (c *Canceled) Unwrap() error { return c.Cause }

// Policy selects how repeated probes of the same (player, object) pair
// are charged.
type Policy int

const (
	// ChargeAll charges every Probe invocation (paper-faithful).
	ChargeAll Policy = iota
	// ChargeDistinct charges only the first probe of each object;
	// re-probes are answered from the player's own billboard postings.
	ChargeDistinct
)

// String names the policy (used as a telemetry label).
func (p Policy) String() string {
	switch p {
	case ChargeAll:
		return "charge_all"
	case ChargeDistinct:
		return "charge_distinct"
	default:
		return "unknown"
	}
}

// NoiseFunc optionally corrupts a probe result. It receives the player,
// object, true grade, and a per-player random stream, and returns the
// observed grade. A nil NoiseFunc means noise-free probes.
type NoiseFunc func(player, object int, truth byte, r *rng.Rand) byte

// Engine mediates all probes against one instance.
type Engine struct {
	inst    *prefs.Instance
	board   boardclient.Interface
	unbound boardclient.Interface // board before binding; see UnboundBoard
	policy  Policy
	noise   NoiseFunc
	hook    func(player int)

	charged []atomic.Int64 // per-player charged probes
	invoked []atomic.Int64 // per-player Probe invocations

	// telemetry, when set by WithTelemetry, samples the per-player
	// counters into "probe.charged.<policy>" / "probe.invoked.<policy>"
	// at snapshot time (CounterFunc) — the hot path never touches a
	// shared telemetry atomic.
	telemetry *telemetry.Registry

	// ctx/done, when set by WithContext, make probing cancellable: the
	// board is bound to ctx (a networked board aborts in-flight
	// requests) and Probe panics *Canceled on a periodic done check.
	// done is nil for an uncancellable engine — the zero-cost fast path.
	ctx  context.Context
	done <-chan struct{}

	players []Player
}

// Option configures an Engine.
type Option func(*Engine)

// WithPolicy sets the charging policy (default ChargeAll).
func WithPolicy(p Policy) Option { return func(e *Engine) { e.policy = p } }

// WithNoise installs a fault-injection function.
func WithNoise(f NoiseFunc) Option { return func(e *Engine) { e.noise = f } }

// WithProbeHook installs a function invoked before every charged probe,
// e.g. a sim.Gate tick for strict round-lockstep execution.
func WithProbeHook(h func(player int)) Option { return func(e *Engine) { e.hook = h } }

// WithContext makes the engine's probes observe ctx: the billboard is
// bound to it via boardclient.BindContext (a networked board's requests
// and retry sleeps then abort on cancellation), and Probe itself checks
// ctx every 64th invocation per player, panicking *Canceled so an
// in-memory run also stops promptly instead of only at the next phase
// boundary. A nil or never-cancellable ctx leaves the engine on the
// uncancellable fast path.
func WithContext(ctx context.Context) Option {
	return func(e *Engine) {
		if ctx == nil || ctx.Done() == nil {
			return
		}
		e.ctx = ctx
		e.done = ctx.Done()
	}
}

// WithTelemetry exposes the engine's charged/invoked totals in reg
// under "probe.charged.<policy>" / "probe.invoked.<policy>". The
// totals are sampled from the per-player counters when the registry is
// snapshotted, so enabling telemetry adds nothing to the per-probe
// cost (the per-player counters exist regardless).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(e *Engine) { e.telemetry = reg }
}

// NewEngine builds a probe engine over inst that posts results to board.
func NewEngine(inst *prefs.Instance, board boardclient.Interface, src rng.Source, opts ...Option) *Engine {
	e := &Engine{
		inst:    inst,
		board:   board,
		unbound: board,
		charged: make([]atomic.Int64, inst.N),
		invoked: make([]atomic.Int64, inst.N),
	}
	for _, o := range opts {
		o(e)
	}
	if e.ctx != nil {
		e.board = boardclient.BindContext(e.ctx, e.board)
	}
	// A board whose posts are round trips holds them until the phase
	// barrier (core.Env flushes there) or the next read, and sends each
	// phase's posts as one request per shard.
	e.board = boardclient.Defer(e.board)
	if e.telemetry != nil {
		// Registered after all options so the policy label is final.
		e.telemetry.CounterFunc("probe.charged."+e.policy.String(), e.TotalCharged)
		e.telemetry.CounterFunc("probe.invoked."+e.policy.String(), e.TotalInvoked)
	}
	e.players = make([]Player, inst.N)
	for p := 0; p < inst.N; p++ {
		e.players[p] = Player{engine: e, id: p}
	}
	if e.noise != nil {
		// Noise streams are only materialized when a NoiseFunc is
		// installed; noise-free engines skip n stream allocations.
		for p := 0; p < inst.N; p++ {
			e.players[p].noiseRand = src.Stream("probe-noise", p)
		}
	}
	return e
}

// Player returns the probe handle for player p. The handle must be used
// only from p's goroutine (its noise stream is not synchronized); the
// shared engine state it touches is synchronized.
func (e *Engine) Player(p int) *Player { return &e.players[p] }

// Charged returns the number of probes charged to player p so far.
func (e *Engine) Charged(p int) int64 { return e.charged[p].Load() }

// Invoked returns the number of Probe invocations by player p so far.
func (e *Engine) Invoked(p int) int64 { return e.invoked[p].Load() }

// TotalCharged sums charged probes over all players.
func (e *Engine) TotalCharged() int64 {
	var t int64
	for i := range e.charged {
		t += e.charged[i].Load()
	}
	return t
}

// ChargedSum sums charged probes over the given players.
func (e *Engine) ChargedSum(players []int) int64 {
	var t int64
	for _, p := range players {
		t += e.charged[p].Load()
	}
	return t
}

// TotalInvoked sums Probe invocations over all players.
func (e *Engine) TotalInvoked() int64 {
	var t int64
	for i := range e.invoked {
		t += e.invoked[i].Load()
	}
	return t
}

// Snapshot copies the per-player charged counters into dst (allocating
// if dst is short). The simulator diffs snapshots to compute the round
// count of a phase.
func (e *Engine) Snapshot(dst []int64) []int64 {
	if cap(dst) < len(e.charged) {
		dst = make([]int64, len(e.charged))
	}
	dst = dst[:len(e.charged)]
	for i := range e.charged {
		dst[i] = e.charged[i].Load()
	}
	return dst
}

// MaxDelta returns the maximum per-player difference between the current
// counters and the snapshot prev: the parallel round count of the phase
// that ran since prev was taken.
func (e *Engine) MaxDelta(prev []int64) int64 {
	var worst int64
	for i := range e.charged {
		if d := e.charged[i].Load() - prev[i]; d > worst {
			worst = d
		}
	}
	return worst
}

// Board returns the billboard the engine posts to. When the engine was
// built with WithContext this is the context-bound view, and when that
// board is a boardclient.Batcher it is the deferred view over it (see
// boardclient.Defer): its posts wait for a Flush.
func (e *Engine) Board() boardclient.Interface { return e.board }

// UnboundBoard returns the board NewEngine was given, before
// WithContext bound it and Defer wrapped it: its calls still go out
// after the engine's context is done, and none of them waits for a
// Flush. core.Env drops an aborted run's topics on it.
func (e *Engine) UnboundBoard() boardclient.Interface { return e.unbound }

// Context returns the context the engine was built with, or nil for an
// uncancellable engine. core.NewEnv reads it so the coordinator loops
// observe the same cancellation the players do.
func (e *Engine) Context() context.Context { return e.ctx }

// checkCanceled panics *Canceled if the engine's context is done. Only
// called on the sampled slow path (done != nil and the invocation
// counter hit the sampling mask).
func (e *Engine) checkCanceled() {
	select {
	case <-e.done:
		panic(&Canceled{Cause: context.Cause(e.ctx)})
	default:
	}
}

// Instance returns the instance being probed (for metrics; algorithms
// must not touch ground truth).
func (e *Engine) Instance() *prefs.Instance { return e.inst }

// Player is a single player's probing capability.
type Player struct {
	engine    *Engine
	id        int
	noiseRand *rng.Rand

	// Reusable batch scratch, safe because a Player handle is owned by
	// one goroutine (see Engine.Player).
	objScratch []int
	postObjs   []int
	postGrades []byte
	lookGrades []byte
	lookKnown  []bool

	// arena is the player's region allocator for per-call scratch inside
	// phase bodies (Select working sets and the like), lazily created by
	// Arena. Owned by this player's goroutine like the scratch above.
	arena *arena.Arena
}

// Arena returns the player's scratch arena, creating it on first use.
// Callers must follow arena discipline: take a Mark, allocate, and
// Release before returning — nested Mark/Release pairs (a Select inside
// a Select) must unwind LIFO. Like the Player itself, the arena must
// only be used from the player's goroutine.
func (pl *Player) Arena() *arena.Arena {
	if pl.arena == nil {
		pl.arena = new(arena.Arena)
	}
	return pl.arena
}

// ID returns the player index.
func (pl *Player) ID() int { return pl.id }

// Probe reveals the player's grade for object o, charges the configured
// cost, and posts the result to the billboard.
func (pl *Player) Probe(o int) byte {
	e := pl.engine
	// The invocation counter doubles as the cancellation sampler: every
	// 64th probe by a player checks the engine's done channel, so an
	// in-memory run observes cancellation within a bounded number of
	// probes without a per-probe select on the fast path.
	if k := e.invoked[pl.id].Add(1); e.done != nil && k&63 == 0 {
		e.checkCanceled()
	}
	if e.policy == ChargeDistinct {
		if v, ok := e.board.LookupProbe(pl.id, o); ok {
			return v
		}
	}
	if e.hook != nil {
		e.hook(pl.id)
	}
	v := e.inst.Grade(pl.id, o)
	if e.noise != nil {
		v = e.noise(pl.id, o, v, pl.noiseRand)
	}
	e.charged[pl.id].Add(1)
	e.board.PostProbe(pl.id, o, v)
	return v
}

// ObjScratch returns a reusable length-n object-id buffer owned by this
// player's goroutine. Batched object spaces (core.BatchObjectSpace) use
// it to build the real-object list for ProbeMany without allocating in
// phase bodies. The buffer is invalidated by the next ObjScratch call;
// ProbeMany does not touch it.
func (pl *Player) ObjScratch(n int) []int {
	if cap(pl.objScratch) < n {
		pl.objScratch = make([]int, n)
	}
	return pl.objScratch[:n]
}

// ProbeMany probes every object in objs and writes the observed grades
// into dst (dst[k] for objs[k]). It is observably equivalent to calling
// Probe per object in order — same charging, same hook ticks, same
// noise-stream consumption — except that the results reach the
// billboard as one batched post (and, under ChargeDistinct, the cache
// check is one batched lookup), which a networked billboard ships as a
// single round trip instead of len(objs). Objects within one call must
// be distinct; under ChargeDistinct a duplicate would be recharged
// because the batch is posted only at the end.
func (pl *Player) ProbeMany(objs []int, dst []uint32) {
	n := len(objs)
	if n == 0 {
		return
	}
	e := pl.engine
	e.invoked[pl.id].Add(int64(n))
	if e.done != nil {
		// One check per batch: a batch is one round trip, so per-object
		// sampling buys nothing here.
		e.checkCanceled()
	}
	var known []bool
	if e.policy == ChargeDistinct {
		if cap(pl.lookGrades) < n {
			pl.lookGrades = make([]byte, n)
			pl.lookKnown = make([]bool, n)
		}
		grades := pl.lookGrades[:n]
		known = pl.lookKnown[:n]
		e.board.LookupProbes(pl.id, objs, grades, known)
		for k := range known {
			if known[k] {
				dst[k] = uint32(grades[k])
			}
		}
	}
	if cap(pl.postObjs) < n {
		pl.postObjs = make([]int, 0, n)
		pl.postGrades = make([]byte, 0, n)
	}
	postObjs, postGrades := pl.postObjs[:0], pl.postGrades[:0]
	for k, o := range objs {
		if known != nil && known[k] {
			continue
		}
		if e.hook != nil {
			e.hook(pl.id)
		}
		v := e.inst.Grade(pl.id, o)
		if e.noise != nil {
			v = e.noise(pl.id, o, v, pl.noiseRand)
		}
		dst[k] = uint32(v)
		postObjs = append(postObjs, o)
		postGrades = append(postGrades, v)
	}
	if len(postObjs) > 0 {
		// One charge update for the batch: totals match the per-object
		// path exactly, and charges are only read between phases.
		e.charged[pl.id].Add(int64(len(postObjs)))
		e.board.PostProbes(pl.id, postObjs, postGrades)
	}
}

// Charged returns the probes charged to this player so far.
func (pl *Player) Charged() int64 { return pl.engine.Charged(pl.id) }

// FlipNoise returns a NoiseFunc that flips each probe result
// independently with probability p.
func FlipNoise(p float64) NoiseFunc {
	return func(_, _ int, truth byte, r *rng.Rand) byte {
		if r.Float64() < p {
			return 1 - truth
		}
		return truth
	}
}
