// Package tellme is an interactive recommendation system: a Go
// implementation of Alon, Awerbuch, Azar and Patt-Shamir, "Tell Me Who I
// Am: An Interactive Recommendation System" (SPAA 2006).
//
// n players each hold an unknown 0/1 preference vector over m objects.
// A player can learn one of its own grades by probing an object (unit
// cost); every probe result is posted on a shared billboard. Players
// with similar taste — an (α,D)-typical community — can split the
// probing work: the paper's algorithms let every member of a large
// community reconstruct its entire preference vector to within a
// constant factor of the community diameter using only polylogarithmic
// probes per player, with no assumptions on the preference matrix.
//
// # Quick start
//
//	inst := tellme.PlantedInstance(1024, 1024, 0.5, 8, 42)
//	rep, err := tellme.Run(inst, tellme.Options{
//		Algorithm: tellme.AlgoAuto, // diameter unknown
//		Alpha:     0.5,
//		Seed:      7,
//	})
//	// rep.Outputs[p] is player p's reconstructed preference vector;
//	// rep.MaxProbes is the paper's "rounds" cost measure.
//
// The underlying algorithms are also available individually through
// Options.Algorithm: AlgoZero (identical communities, Theorem 3.1),
// AlgoSmall (small diameter, Theorem 4.4), AlgoLarge (large diameter,
// Theorem 5.4), AlgoMain (known-D dispatcher, Fig. 1), AlgoAuto
// (unknown D, Section 6) and AlgoAnytime (unknown α and D, Section 6).
package tellme

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/core"
	"tellme/internal/ints"
	"tellme/internal/metrics"
	"tellme/internal/netboard"
	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
	"tellme/internal/telemetry"
	"tellme/internal/wire"
)

// Vector is a packed binary preference vector.
type Vector = bitvec.Vector

// Partial is a preference vector over {0,1,?}; algorithm outputs may
// leave a bounded number of coordinates undetermined.
type Partial = bitvec.Partial

// Instance is a ground-truth preference matrix with planted community
// metadata.
type Instance = prefs.Instance

// Community is a planted (α,D)-typical player set.
type Community = prefs.Community

// Config exposes the algorithms' tunable constants; see DefaultConfig.
type Config = core.Config

// DefaultConfig returns the constants used throughout the experiments.
func DefaultConfig() Config { return core.DefaultConfig() }

// Algorithm selects which of the paper's procedures Run executes.
type Algorithm int

const (
	// AlgoAuto runs the Section 6 wrapper: D unknown, α given.
	AlgoAuto Algorithm = iota
	// AlgoMain runs the known-(α,D) dispatcher of Fig. 1.
	AlgoMain
	// AlgoZero runs Algorithm Zero Radius (D = 0, Theorem 3.1).
	AlgoZero
	// AlgoSmall runs Algorithm Small Radius (Theorem 4.4).
	AlgoSmall
	// AlgoLarge runs Algorithm Large Radius (Theorem 5.4).
	AlgoLarge
	// AlgoAnytime runs the unknown-α anytime algorithm (Section 6).
	AlgoAnytime
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto(unknown D)"
	case AlgoMain:
		return "main(known D)"
	case AlgoZero:
		return "zero-radius"
	case AlgoSmall:
		return "small-radius"
	case AlgoLarge:
		return "large-radius"
	case AlgoAnytime:
		return "anytime"
	default:
		return "invalid"
	}
}

// Options configure a Run.
type Options struct {
	// Algorithm picks the procedure; AlgoAuto is the default.
	Algorithm Algorithm
	// Alpha is the assumed community fraction (0,1]. Required except
	// for AlgoAnytime, which discovers it.
	Alpha float64
	// D is the assumed community diameter; used by AlgoMain, AlgoSmall
	// and AlgoLarge.
	D int
	// Seed makes the run reproducible. Two runs with equal seeds and
	// options produce identical outputs.
	Seed uint64
	// Config overrides algorithm constants; zero value means defaults.
	Config *Config
	// Parallelism bounds the worker pool (0 = GOMAXPROCS).
	Parallelism int
	// Budget caps per-player probes for AlgoAnytime (0 = run all
	// phases).
	Budget int64
	// K overrides the SmallRadius confidence parameter (0 = Θ(log n)).
	K int
	// FlipNoise, if positive, flips each probe result independently
	// with this probability — fault injection beyond the paper's model.
	FlipNoise float64
	// OnPhase, if set with AlgoAnytime, is invoked after each phase;
	// returning false stops early.
	OnPhase func(PhaseInfo) bool
	// BoardURL, if non-empty, runs against a remote billboard instead
	// of an in-memory board: one base URL addresses a single server
	// (cmd/billboard), and a comma-separated list of base URLs
	// addresses a sharded cluster (cmd/billboard -shards), routed by
	// consistent hashing (see DESIGN.md §12). netboard.FromSpec parses
	// the spec, ignoring space around each URL. The simulation is
	// deterministic either way; probe posts and vote reads travel over
	// the batched wire protocol (see DESIGN.md §8).
	BoardURL string
	// BoardCodec selects the wire encoding for BoardURL targets:
	// "json" (the default) or "binary" (packed bit-plane frames, see
	// DESIGN.md §15; billboard servers accept both). Ignored when Board
	// is set or the board is in-memory.
	BoardCodec string
	// Board, if non-nil, is used as the billboard directly and takes
	// precedence over BoardURL. This is how a pre-configured
	// netboard.Client or netboard.Cluster (custom retries, backoff,
	// fault-injecting transport) or any other boardclient.Interface
	// implementation is injected into a run.
	Board boardclient.Interface
	// Telemetry, if non-nil, receives runtime counters from the whole
	// stack during the run: billboard cache hits and posts (when Run
	// creates the in-memory board), probe charges per policy,
	// per-sub-algorithm cost ("core.<kind>.{calls,probes,ns}"), and
	// netboard client request/retry counters (when BoardURL is used).
	// A nil registry costs nothing on the probe hot path.
	Telemetry *telemetry.Registry
	// Timeout, if positive, bounds the run's wall-clock time: RunContext
	// derives a deadline from it (on top of any deadline already on the
	// caller's context) and a run that exceeds it returns a partial
	// Report with a *RunError whose cause is context.DeadlineExceeded.
	// Negative timeouts are a validation error.
	Timeout time.Duration
}

// RunError is the typed failure of a cancelled or crashed run: Phase
// says where in the algorithm stack the run died, Cause says why.
// errors.Is sees through it — errors.Is(err, context.DeadlineExceeded)
// identifies a blown deadline whether cancellation was observed by a
// coordinator loop, a phase worker, the probe engine, or an in-flight
// netboard request.
type RunError struct {
	// Phase is the innermost sub-algorithm that was running when the
	// run aborted ("zeroradius", "smallradius", ...), falling back to
	// the Options.Algorithm name when the run died before entering one.
	Phase string
	// Cause is the underlying failure: a context cancellation cause, a
	// *sim.PanicError from player code, or a transport error such as
	// *netboard.TransportError.
	Cause error
}

// Error implements error.
func (e *RunError) Error() string {
	return fmt.Sprintf("tellme: run aborted during %s: %v", e.Phase, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Cause }

// Timeout reports whether the run died to a blown deadline.
func (e *RunError) Timeout() bool { return errors.Is(e.Cause, context.DeadlineExceeded) }

// PhaseInfo reports anytime progress.
type PhaseInfo struct {
	Phase     int
	Alpha     float64
	MaxProbes int64
}

// Report is the result of a Run.
type Report struct {
	// Outputs[p] is player p's reconstructed preference vector.
	Outputs []Partial
	// MaxProbes is the maximum probes charged to one player — the
	// paper's parallel round count.
	MaxProbes int64
	// TotalProbes sums probes over all players.
	TotalProbes int64
	// MeanProbes is TotalProbes / n.
	MeanProbes float64
	// Duration is the wall-clock simulation time.
	Duration time.Duration
	// Algorithm echoes what ran.
	Algorithm Algorithm
	// CompletedEpochs is the number of completed anytime phases whose
	// results Outputs reflects (0 for the single-shot algorithms and for
	// refresh runs). On a partial report it identifies exactly which
	// epoch's outputs survived the abort: Outputs is byte-identical to a
	// run stopped cleanly after that phase.
	CompletedEpochs int
	// Communities reports reconstruction quality for each planted
	// community of the instance (empty if the instance has none).
	Communities []CommunityReport
	// SubAlgorithmRuns counts nested invocations of each sub-algorithm
	// (ZeroRadius, SmallRadius, LargeRadius, Coalesce) during the run.
	SubAlgorithmRuns map[string]int64
}

// CommunityReport measures output quality over one planted community.
type CommunityReport struct {
	// Size is the community's member count.
	Size int
	// Diameter is the exact realized diameter D(P*).
	Diameter int
	// Discrepancy is the paper's Δ(P*): worst member error.
	Discrepancy int
	// Stretch is ρ(P*) = Δ/D (D treated as 1 when zero).
	Stretch float64
	// MeanErr is the average member error.
	MeanErr float64
}

// Run executes one algorithm over the instance and reports outputs and
// costs. It is RunContext with an uncancellable context — the zero-cost
// fast path through every layer.
func Run(in *Instance, opt Options) (*Report, error) {
	return RunContext(context.Background(), in, opt)
}

// RunContext is Run governed by a context: cancelling ctx (or blowing
// Options.Timeout) aborts the run promptly at every layer — coordinator
// loops stop at the next iteration, phase workers stop claiming work at
// chunk boundaries, the probe engine aborts players mid-phase, and a
// networked billboard cancels in-flight requests and retry waits.
//
// A cancelled or crashed run returns a non-nil *RunError together with
// a partial Report: probe costs, duration and sub-algorithm counts
// reflect the work actually done. For algorithms with epoch structure
// (AlgoAnytime, and Refresh's stale inputs) Outputs is the last
// *completed* epoch's checkpoint — a consistent output set, never a mix
// of a half-written epoch with the previous one — with CompletedEpochs
// naming the epoch, and Communities grading those same outputs. For
// single-shot algorithms no epoch ever completes, so Outputs and
// Communities are absent. An uncancellable ctx (nil,
// context.Background, ...) with zero Timeout takes the same fast path
// as Run.
func RunContext(ctx context.Context, in *Instance, opt Options) (*Report, error) {
	if in == nil || in.N == 0 || in.M == 0 {
		return nil, errors.New("tellme: empty instance")
	}
	if opt.Algorithm != AlgoAnytime {
		if opt.Alpha <= 0 || opt.Alpha > 1 {
			return nil, fmt.Errorf("tellme: alpha %v out of (0,1]", opt.Alpha)
		}
	}
	if opt.D < 0 || opt.D > in.M {
		return nil, fmt.Errorf("tellme: D %d out of [0,%d]", opt.D, in.M)
	}
	if opt.Algorithm < AlgoAuto || opt.Algorithm > AlgoAnytime {
		return nil, fmt.Errorf("tellme: unknown algorithm %d", opt.Algorithm)
	}
	if opt.Timeout < 0 {
		return nil, fmt.Errorf("tellme: negative timeout %v", opt.Timeout)
	}
	if opt.BoardCodec != "" {
		if _, err := wire.ByName(opt.BoardCodec); err != nil {
			return nil, fmt.Errorf("tellme: %w", err)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	cfg := core.DefaultConfig()
	if opt.Config != nil {
		cfg = *opt.Config
	}
	if opt.K > 0 {
		cfg.K = opt.K
	}

	src := rng.NewSource(opt.Seed)
	var board boardclient.Interface
	switch {
	case opt.Board != nil:
		board = opt.Board
	case opt.BoardURL != "":
		b, err := netboard.FromSpec(opt.BoardURL, netboard.Config{Telemetry: opt.Telemetry, Codec: opt.BoardCodec})
		if err != nil {
			return nil, fmt.Errorf("tellme: board url %q: %w", opt.BoardURL, err)
		}
		board = b
	default:
		mem := billboard.New(in.N, in.M)
		mem.SetTelemetry(opt.Telemetry)
		board = mem
	}
	var popts []probe.Option
	if opt.FlipNoise > 0 {
		popts = append(popts, probe.WithNoise(probe.FlipNoise(opt.FlipNoise)))
	}
	if opt.Telemetry != nil {
		popts = append(popts, probe.WithTelemetry(opt.Telemetry))
	}
	if ctx.Done() != nil {
		// The engine binds the board to ctx and checks it between
		// probes; core.NewEnv picks the same context up for the
		// coordinator loops and phases.
		popts = append(popts, probe.WithContext(ctx))
	}
	engine := probe.NewEngine(in, board, src.Child("engine", 0), popts...)
	runner := sim.NewRunner(opt.Parallelism)
	env := core.NewEnv(engine, runner, src.Child("public", 0), cfg)
	env.Telemetry = opt.Telemetry

	start := time.Now()
	outputs, runErr := execute(env, in, opt, cfg)
	elapsed := time.Since(start)

	st := metrics.Probes(engine, in.N, nil)
	rep := &Report{
		Outputs:          outputs,
		MaxProbes:        st.Max,
		TotalProbes:      st.Total,
		MeanProbes:       st.Mean,
		Duration:         elapsed,
		Algorithm:        opt.Algorithm,
		SubAlgorithmRuns: env.RunCounts(),
	}
	_, rep.CompletedEpochs = env.Checkpoint()
	if fullOutputs(outputs, in.M) {
		rep.Communities = gradeCommunities(in, outputs)
	}
	if runErr != nil {
		// Partial report: cost accounting is valid (probes charged are
		// real); Outputs is the last completed epoch's checkpoint, or nil
		// when no epoch completed.
		return rep, runErr
	}
	return rep, nil
}

// fullOutputs reports whether every player has a full-length output —
// the precondition for grading communities. A partial report whose
// checkpoint predates some players' first output fails this.
func fullOutputs(outputs []Partial, m int) bool {
	if outputs == nil {
		return false
	}
	for _, o := range outputs {
		if o.Len() != m {
			return false
		}
	}
	return true
}

// gradeCommunities measures output quality over each planted community.
func gradeCommunities(in *Instance, outputs []Partial) []CommunityReport {
	var reps []CommunityReport
	for _, c := range in.Communities {
		diam := in.Diameter(c.Members)
		reps = append(reps, CommunityReport{
			Size:        len(c.Members),
			Diameter:    diam,
			Discrepancy: metrics.Discrepancy(in, c.Members, outputs),
			Stretch:     metrics.Stretch(in, c.Members, outputs),
			MeanErr:     metrics.MeanErr(in, c.Members, outputs),
		})
	}
	return reps
}

// execute dispatches to the selected algorithm and converts an abort —
// cancellation or a player panic, unwound through the recursion as a
// panic because the algorithms return values, not errors — into a
// *RunError at this single boundary.
func execute(env *core.Env, in *Instance, opt Options, cfg Config) (outputs []Partial, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			// Report the last completed epoch's checkpoint (nil when the
			// algorithm has no epoch structure or none completed) instead
			// of the aborted epoch's half-written outputs.
			outputs, _ = env.Checkpoint()
			err = asRunError(rec, env, opt)
		}
	}()
	players := ints.Iota(in.N)
	objs := ints.Iota(in.M)
	switch opt.Algorithm {
	case AlgoAuto:
		outputs = core.UnknownD(env, opt.Alpha)
	case AlgoMain:
		outputs = core.Main(env, opt.Alpha, opt.D)
	case AlgoZero:
		zr := core.ZeroRadiusBits(env, players, objs, opt.Alpha)
		outputs = make([]Partial, in.N)
		for p := range outputs {
			v := bitvec.New(in.M)
			for j, x := range zr[p] {
				if x != 0 {
					v.Set(j, 1)
				}
			}
			outputs[p] = bitvec.PartialOf(v)
		}
	case AlgoSmall:
		sr := core.SmallRadius(env, players, objs, opt.Alpha, opt.D, cfg.K)
		outputs = make([]Partial, in.N)
		for p := range outputs {
			outputs[p] = bitvec.PartialOf(sr[p])
		}
	case AlgoLarge:
		outputs = core.LargeRadius(env, players, objs, opt.Alpha, opt.D)
	case AlgoAnytime:
		var cb func(core.AnytimePhase) bool
		if opt.OnPhase != nil {
			cb = func(ph core.AnytimePhase) bool {
				return opt.OnPhase(PhaseInfo{Phase: ph.Phase, Alpha: ph.Alpha, MaxProbes: ph.MaxProbes})
			}
		}
		outputs = core.Anytime(env, opt.Budget, cb)
	}
	return outputs, nil
}

// asRunError maps a recovered run panic to the *RunError the facade
// returns. The phase is the innermost sub-algorithm the Env saw start.
func asRunError(rec any, env *core.Env, opt Options) error {
	phase := env.ActiveKind()
	if phase == "" {
		phase = opt.Algorithm.String()
	}
	return &RunError{Phase: phase, Cause: core.AbortCause(rec)}
}

// Evaluate measures output quality over an arbitrary player set — the
// same numbers Run reports per planted community, usable with
// CustomInstance data or ad-hoc groupings.
func Evaluate(in *Instance, players []int, outputs []Partial) CommunityReport {
	diam := in.Diameter(players)
	return CommunityReport{
		Size:        len(players),
		Diameter:    diam,
		Discrepancy: metrics.Discrepancy(in, players, outputs),
		Stretch:     metrics.Stretch(in, players, outputs),
		MeanErr:     metrics.MeanErr(in, players, outputs),
	}
}

// RefreshOptions configure RunRefresh.
type RefreshOptions struct {
	// Alpha is the consensus-group threshold: stale vectors shared by
	// at least alpha·n players form repair groups.
	Alpha float64
	// ExpectedDrift sizes the patch-verification budget (0 = generous
	// default).
	ExpectedDrift int
	// Seed makes the run reproducible.
	Seed uint64
	// Parallelism bounds the worker pool (0 = GOMAXPROCS).
	Parallelism int
	// Timeout, if positive, bounds the repair's wall-clock time; see
	// Options.Timeout.
	Timeout time.Duration
}

// RunRefresh repairs previously-computed outputs against the current
// (possibly drifted) instance, at ~2m/(αn) + drift probes per community
// member instead of a fresh polylog run — the incremental-repair
// extension measured in experiments E17/E20. Players whose stale output
// is not shared by an α fraction keep it unchanged.
//
// Each stale[p] is either a previous output of length in.M or the
// zero-value Partial (length 0), which marks a joiner with no previous
// output: the joiner adopts the repaired consensus that looks closest
// to its own taste, or keeps the empty output when no consensus forms.
// Any other length is a validation error.
func RunRefresh(in *Instance, stale []Partial, opt RefreshOptions) (*Report, error) {
	return RunRefreshContext(context.Background(), in, stale, opt)
}

// RunRefreshContext is RunRefresh governed by a context; the
// cancellation and partial-report semantics match RunContext.
func RunRefreshContext(ctx context.Context, in *Instance, stale []Partial, opt RefreshOptions) (*Report, error) {
	if in == nil || in.N == 0 || in.M == 0 {
		return nil, errors.New("tellme: empty instance")
	}
	if len(stale) != in.N {
		return nil, fmt.Errorf("tellme: %d stale outputs for %d players", len(stale), in.N)
	}
	for p, o := range stale {
		if n := o.Len(); n != in.M && n != 0 {
			return nil, fmt.Errorf("tellme: stale output of player %d has %d coordinates, want %d (or 0 for a joiner)", p, n, in.M)
		}
	}
	if opt.Alpha <= 0 || opt.Alpha > 1 {
		return nil, fmt.Errorf("tellme: alpha %v out of (0,1]", opt.Alpha)
	}
	if opt.Timeout < 0 {
		return nil, fmt.Errorf("tellme: negative timeout %v", opt.Timeout)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	src := rng.NewSource(opt.Seed)
	board := billboard.New(in.N, in.M)
	var popts []probe.Option
	if ctx.Done() != nil {
		popts = append(popts, probe.WithContext(ctx))
	}
	engine := probe.NewEngine(in, board, src.Child("engine", 0), popts...)
	env := core.NewEnv(engine, sim.NewRunner(opt.Parallelism), src.Child("public", 0), core.DefaultConfig())
	players := ints.Iota(in.N)
	objs := ints.Iota(in.M)
	red, maxP := core.RefreshBudget(opt.ExpectedDrift)
	start := time.Now()
	outputs, runErr := executeRefresh(env, players, objs, stale, opt, red, maxP)
	elapsed := time.Since(start)
	st := metrics.Probes(engine, in.N, nil)
	rep := &Report{
		Outputs:     outputs,
		MaxProbes:   st.Max,
		TotalProbes: st.Total,
		MeanProbes:  st.Mean,
		Duration:    elapsed,
	}
	if fullOutputs(outputs, in.M) {
		rep.Communities = gradeCommunities(in, outputs)
	}
	if runErr != nil {
		// Partial report: an aborted repair reports the stale inputs
		// unchanged — the last completed epoch — never a half-patched mix.
		return rep, runErr
	}
	return rep, nil
}

// executeRefresh runs Refresh under the same abort-recovery boundary as
// execute.
func executeRefresh(env *core.Env, players, objs []int, stale []Partial, opt RefreshOptions, red, maxP int) (outputs []Partial, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			outputs, _ = env.Checkpoint()
			err = asRunError(rec, env, Options{})
		}
	}()
	return core.Refresh(env, players, objs, stale, opt.Alpha, red, maxP), nil
}
