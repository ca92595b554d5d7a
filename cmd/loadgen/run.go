package main

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"tellme/internal/telemetry"
	"tellme/internal/wire"
)

// config is one loadgen run, fully specified — run() is deterministic
// in it up to wall-clock jitter (the probe/post schedule and all truth
// vectors derive from Seed and the arrival indices alone).
type config struct {
	Players   int
	M         int
	PostBatch int
	Workers   int
	// Rates are the target rounds/sec steps to sweep; empty means
	// auto-ramp (RampStart, doubling until a step fails to sustain).
	Rates     []float64
	RampStart float64
	RampMax   float64
	// Duration sizes each step: arrivals = rate × Duration, unless
	// RoundsPerStep pins the arrival count exactly (tests do).
	Duration      time.Duration
	RoundsPerStep int64
	// Warmup runs the sweep's first rate unmeasured for this long at
	// the start of each leg, so the measured rows don't eat the
	// cold-start tail (first-touch page faults on freshly allocated
	// boards, connection-pool establishment). Warmup rounds still count
	// toward the exact probe audit — they hit the same board.
	Warmup time.Duration
	// Repeat runs the whole codec sweep this many times (codec legs
	// interleaved, so machine-speed drift hits every codec equally) and
	// keeps, per (codec, rate), the repetition with the median p99, so
	// a rate counts as sustained only when most of its repetitions met
	// the SLO. 0 means 1.
	Repeat int

	// Board target: mutually exclusive spec / LocalShards.
	Board       string
	LocalShards int
	// Codecs are the wire codecs to sweep ("json", "binary"); each
	// codec runs the full rate sweep as its own leg against a fresh
	// target, so the legs' capacity rows A/B the encoding layer under
	// identical schedules. Empty means just "json". Ignored (single
	// unlabeled leg) when the target is the in-process board — there is
	// no wire to encode for.
	Codecs []string

	Seed   uint64
	SLO    time.Duration
	Verify bool
	Out    string
	Logf   func(string, ...any)
}

func (cfg *config) validate() error {
	if cfg.Players <= 0 {
		return fmt.Errorf("loadgen: players must be positive, got %d", cfg.Players)
	}
	if cfg.M <= 0 || cfg.PostBatch <= 0 || cfg.PostBatch > cfg.M {
		return fmt.Errorf("loadgen: need 0 < post-batch <= m, got batch %d m %d", cfg.PostBatch, cfg.M)
	}
	if cfg.M%cfg.PostBatch != 0 {
		// The exact-counter audit needs the per-round windows to tile
		// the universe: min(k·B, M) counts distinct probes only when the
		// wrapped windows land exactly on earlier ones.
		return fmt.Errorf("loadgen: post-batch %d must divide m %d (exact probe accounting)", cfg.PostBatch, cfg.M)
	}
	for _, r := range cfg.Rates {
		if r <= 0 {
			return fmt.Errorf("loadgen: non-positive rate %v", r)
		}
	}
	if len(cfg.Codecs) == 0 {
		cfg.Codecs = []string{wire.JSON.Name()}
	}
	for _, c := range cfg.Codecs {
		if _, err := wire.ByName(c); err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 64
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.SLO <= 0 {
		cfg.SLO = 50 * time.Millisecond
	}
	if cfg.RampStart <= 0 {
		cfg.RampStart = 1000
	}
	if cfg.RampMax <= 0 {
		cfg.RampMax = 1 << 22 // ~4.2M rounds/sec: past any plausible single host
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return nil
}

// parseRates parses the -rates CSV ("1000,2000,4000").
func parseRates(s string) ([]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("loadgen: bad rate %q", p)
		}
		out = append(out, r)
	}
	return out, nil
}

// quiescer is the optional drain barrier of remote boards (Client and
// Cluster implement it; the in-process board needs none).
type quiescer interface{ Quiesce() }

// probeCounter reads the authoritative distinct-probe counter.
type probeCounter interface{ ProbeCount() int64 }

// run executes the configured sweep — once per requested codec, each
// leg against a fresh target — and returns the capacity artifact.
func run(ctx context.Context, cfg *config) (*BenchNetFile, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	codecs := cfg.Codecs
	inproc := strings.TrimSpace(cfg.Board) == "" && cfg.LocalShards <= 0
	if inproc {
		// No wire between the fleet and an in-process board: one leg,
		// and its rows claim no codec.
		codecs = codecs[:1]
	}

	file := &BenchNetFile{
		Command: fmt.Sprintf("loadgen -players %d -m %d -post-batch %d -codec %s",
			cfg.Players, cfg.M, cfg.PostBatch, strings.Join(codecs, ",")),
		Go:        goVersion(),
		Commit:    gitCommit(""),
		Players:   cfg.Players,
		M:         cfg.M,
		PostBatch: cfg.PostBatch,
		SLONs:     cfg.SLO.Nanoseconds(),
	}

	// Each leg audits its own fresh board; the artifact reports the
	// union (a lost post in any leg fails the run). Repetitions
	// interleave the codec legs so a machine slowdown mid-run biases
	// every codec equally, then the rows reduce to the median-p99 one
	// per (codec, rate).
	repeat := cfg.Repeat
	if repeat <= 0 {
		repeat = 1
	}
	var total *VerifyResult
	for rep := 0; rep < repeat; rep++ {
		for i, codec := range codecs {
			if rep > 0 || i > 0 {
				// Level the heap between legs: the previous leg's shard
				// boards (a 4-byte row index per player and a probe row
				// per posting player, up to about 150 MB at a million
				// players × 512 objects) are dead but uncollected, and on
				// small machines their collection would otherwise land in
				// the next leg's tail latency — leg order must not color
				// the codec comparison.
				runtime.GC()
				debug.FreeOSMemory()
			}
			v, err := runLeg(ctx, cfg, codec, inproc, file)
			if err != nil {
				return nil, err
			}
			if v != nil {
				if total == nil {
					total = &VerifyResult{OK: true}
				}
				total.ExpectedProbes += v.ExpectedProbes
				total.BoardProbes += v.BoardProbes
				total.Lost += v.Lost
				total.Duplicated += v.Duplicated
				total.OK = total.OK && v.OK
			}
		}
	}
	file.Rows = reduceRows(file.Rows, codecs)
	file.MaxSustainedRate = maxSustained(file.Rows)
	file.Verify = total
	file.RSSPeakMB = peakRSSMB("/proc/self/status")
	return file, nil
}

// reduceRows keeps, for each (codec, target rate), the repetition with
// the median p99 (the upper median of an even count), in leg order: by
// the codec's position in codecs, then by ascending rate. A rate's row
// is then sustained only if most of its repetitions kept p99 within the
// SLO: the minimum would call a rate sustained on one lucky
// repetition. Leg order keeps each codec's rows together even when the
// repetitions' ramps stop at different steps. A single repetition of a
// single codec at ascending rates comes back unchanged.
func reduceRows(rows []CapacityRow, codecs []string) []CapacityRow {
	type key struct {
		codec string
		rate  float64
	}
	reps := map[key][]CapacityRow{}
	var order []key
	for _, r := range rows {
		k := key{r.Codec, r.TargetRate}
		if _, seen := reps[k]; !seen {
			order = append(order, k)
		}
		reps[k] = append(reps[k], r)
	}
	slices.SortFunc(order, func(a, b key) int {
		return cmp.Or(cmp.Compare(slices.Index(codecs, a.codec), slices.Index(codecs, b.codec)), cmp.Compare(a.rate, b.rate))
	})
	out := make([]CapacityRow, 0, len(order))
	for _, k := range order {
		rs := reps[k]
		slices.SortStableFunc(rs, func(a, b CapacityRow) int { return cmp.Compare(a.P99Ns, b.P99Ns) })
		out = append(out, rs[len(rs)/2])
	}
	return out
}

// runLeg sweeps the configured rates once with the fleet's client
// encoding with the given codec, against a freshly resolved target (so
// the legs of a multi-codec run start from identical empty boards and
// a reset arrival schedule), appends the codec-labeled rows to the
// artifact, and returns the leg's exact-counter audit (nil when off).
func runLeg(ctx context.Context, cfg *config, codec string, inproc bool, file *BenchNetFile) (*VerifyResult, error) {
	reg := telemetry.New()
	target, err := resolveTarget(cfg.Board, cfg.LocalShards, cfg.Players, cfg.M, codec, reg)
	if err != nil {
		return nil, err
	}
	if target.close != nil {
		defer target.close()
	}
	file.Target, file.Shards = target.kind, target.shards
	label := codec
	if inproc {
		label = ""
	}
	cfg.Logf("fleet: %d players, m=%d, batch=%d, target %s, codec %s, %d workers",
		cfg.Players, cfg.M, cfg.PostBatch, target.kind, codec, cfg.Workers)

	next := int64(0) // global arrival index, continuous across steps

	if cfg.Warmup > 0 {
		rate := cfg.RampStart
		if len(cfg.Rates) > 0 {
			rate = cfg.Rates[0]
		}
		n := int64(rate * cfg.Warmup.Seconds())
		if n < int64(cfg.Workers) {
			n = int64(cfg.Workers)
		}
		if _, err := runStep(ctx, target.board, cfg, next, n, rate); err != nil {
			return nil, err
		}
		next += n
	}

	step := func(rate float64) (CapacityRow, error) {
		n := cfg.RoundsPerStep
		if n <= 0 {
			n = int64(rate * cfg.Duration.Seconds())
		}
		if n < int64(cfg.Workers) {
			n = int64(cfg.Workers)
		}
		res, err := runStep(ctx, target.board, cfg, next, n, rate)
		if err != nil {
			return CapacityRow{}, err
		}
		next += n
		row := buildRow(cfg.Players, target.shards, rate, res.rounds, res.elapsed, res.hist, cfg.SLO)
		row.Codec = label
		cfg.Logf("rate %8.0f: achieved %8.0f r/s, p50 %v, p99 %v, sustained=%v",
			rate, row.AchievedRate,
			time.Duration(row.P50Ns).Round(time.Microsecond),
			time.Duration(row.P99Ns).Round(time.Microsecond), row.Sustained)
		return row, nil
	}

	if len(cfg.Rates) > 0 {
		for _, rate := range cfg.Rates {
			row, err := step(rate)
			if err != nil {
				return nil, err
			}
			file.Rows = append(file.Rows, row)
		}
	} else {
		for rate := cfg.RampStart; rate <= cfg.RampMax; rate *= 2 {
			row, err := step(rate)
			if err != nil {
				return nil, err
			}
			file.Rows = append(file.Rows, row)
			if !row.Sustained {
				break // past the knee; the previous row is the capacity
			}
		}
	}

	if !cfg.Verify {
		return nil, nil
	}
	if q, ok := target.board.(quiescer); ok {
		q.Quiesce()
	}
	pc, ok := target.board.(probeCounter)
	if !ok {
		return nil, fmt.Errorf("loadgen: board target %s cannot report ProbeCount", target.kind)
	}
	v := verifyCounts(expectedProbes(next, cfg.Players, cfg.PostBatch, cfg.M), pc.ProbeCount())
	return &v, nil
}
