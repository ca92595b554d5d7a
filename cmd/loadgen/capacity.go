package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tellme/internal/telemetry"
)

// CapacityRow is one (players × shards × target rate) measurement of
// the capacity table: what the fleet asked for, what it got, and the
// latency quantiles read from the telemetry histogram. The open-loop
// arrival model makes the latency column honest about overload: a round
// is charged from its *scheduled* arrival time, so when the target rate
// exceeds capacity the backlog shows up as latency instead of the
// generator politely slowing down.
type CapacityRow struct {
	Players int `json:"players"`
	Shards  int `json:"shards"`
	// Codec is the client wire encoding of this row's leg ("json" or
	// "binary"; empty for the in-process board, which has no wire).
	Codec      string  `json:"codec,omitempty"`
	TargetRate float64 `json:"target_rounds_per_sec"`
	// AchievedRate is rounds completed over the step's wall clock.
	AchievedRate float64 `json:"achieved_rounds_per_sec"`
	Rounds       int64   `json:"rounds"`
	P50Ns        int64   `json:"p50_ns"`
	P99Ns        int64   `json:"p99_ns"`
	MaxNs        int64   `json:"max_ns"`
	// Sustained means the step kept up: achieved ≥ 95% of target AND
	// p99 within the SLO. The capacity claim for a configuration is the
	// highest sustained target.
	Sustained bool `json:"sustained"`
}

// VerifyResult is the exact-counter audit of a run: every posted probe
// is accounted for against the board's authoritative counter, so lost
// or double-applied posts cannot hide inside latency statistics.
type VerifyResult struct {
	// ExpectedProbes is Σ_p min(k_p·B, M) over the fleet — the number of
	// distinct (player, object) probes the deterministic schedule must
	// have landed on the board.
	ExpectedProbes int64 `json:"expected_probes"`
	// BoardProbes is the board's ProbeCount after the run quiesced.
	BoardProbes int64 `json:"board_probes"`
	// Lost is max(0, expected-board): posts that never applied.
	Lost int64 `json:"lost"`
	// Duplicated is max(0, board-expected): posts applied twice (the
	// board is first-post-wins, so any excess means the idempotency
	// machinery double-applied).
	Duplicated int64 `json:"duplicated"`
	OK         bool  `json:"ok"`
}

// ServeStats summarizes the serve plane of a run (zero value when the
// serve plane was off).
type ServeStats struct {
	Players         int     `json:"players"`
	Epochs          int64   `json:"epochs_completed"`
	Recommends      int64   `json:"recommends"`
	RecommendRate   float64 `json:"recommend_per_sec"`
	RecommendP50Ns  int64   `json:"recommend_p50_ns"`
	RecommendP99Ns  int64   `json:"recommend_p99_ns"`
	ChurnApplied    int64   `json:"churn_applied"`
	RecommendErrors int64   `json:"recommend_errors"`
}

// BenchNetFile is the BENCH_NET.json artifact, following the benchdiff
// File conventions (command/go/commit header + result rows) so the
// trajectory tooling can diff capacity tables across PRs.
type BenchNetFile struct {
	Command string `json:"command"`
	Go      string `json:"go"`
	Commit  string `json:"commit,omitempty"`

	Players   int    `json:"players"`
	Shards    int    `json:"shards"`
	M         int    `json:"m"`
	PostBatch int    `json:"post_batch"`
	Target    string `json:"target"` // inproc | server | cluster(n) | local-shards(n)
	SLONs     int64  `json:"slo_ns"`

	Rows []CapacityRow `json:"rows"`
	// MaxSustainedRate is the capacity claim: the highest sustained
	// target rate in Rows (0 when nothing sustained).
	MaxSustainedRate float64 `json:"max_sustained_rounds_per_sec"`

	Verify *VerifyResult `json:"verify,omitempty"`
	Serve  *ServeStats   `json:"serve,omitempty"`
	// RSSPeakMB is the loadgen process's peak resident set (VmHWM),
	// which with -local-shards includes every shard's board; omitted
	// where /proc is absent.
	RSSPeakMB float64 `json:"rss_peak_mb,omitempty"`
}

// buildRow computes one capacity-table row from a completed step: the
// step's target, how many rounds ran, the elapsed wall clock, and the
// step's latency histogram snapshot. Pure math — the unit tests pin it.
func buildRow(players, shards int, target float64, rounds int64, elapsed time.Duration, h telemetry.HistogramSnapshot, slo time.Duration) CapacityRow {
	row := CapacityRow{
		Players:    players,
		Shards:     shards,
		TargetRate: target,
		Rounds:     rounds,
		P50Ns:      h.Quantile(0.50),
		P99Ns:      h.Quantile(0.99),
		MaxNs:      h.Max,
	}
	if elapsed > 0 {
		row.AchievedRate = float64(rounds) / elapsed.Seconds()
	}
	row.Sustained = row.AchievedRate >= 0.95*target && row.P99Ns <= slo.Nanoseconds()
	return row
}

// maxSustained returns the capacity claim over a table: the highest
// sustained target rate (0 when no row sustained).
func maxSustained(rows []CapacityRow) float64 {
	best := 0.0
	for _, r := range rows {
		if r.Sustained && r.TargetRate > best {
			best = r.TargetRate
		}
	}
	return best
}

// verifyCounts audits expected vs the board's counter.
func verifyCounts(expected, board int64) VerifyResult {
	v := VerifyResult{ExpectedProbes: expected, BoardProbes: board}
	if d := expected - board; d > 0 {
		v.Lost = d
	} else {
		v.Duplicated = -d
	}
	v.OK = v.Lost == 0 && v.Duplicated == 0
	return v
}

// writeBenchNet writes the artifact (pretty-printed, trailing newline,
// like benchdiff).
func writeBenchNet(path string, f *BenchNetFile) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printTable renders the capacity table for the terminal.
func printTable(w io.Writer, f *BenchNetFile) {
	fmt.Fprintf(w, "%10s %7s %7s %12s %12s %10s %10s %s\n", "players", "shards", "codec", "target r/s", "achieved", "p50", "p99", "sustained")
	for _, r := range f.Rows {
		codec := r.Codec
		if codec == "" {
			codec = "-"
		}
		fmt.Fprintf(w, "%10d %7d %7s %12.0f %12.0f %10v %10v %v\n",
			r.Players, r.Shards, codec, r.TargetRate, r.AchievedRate,
			time.Duration(r.P50Ns).Round(time.Microsecond),
			time.Duration(r.P99Ns).Round(time.Microsecond),
			r.Sustained)
	}
	if f.MaxSustainedRate > 0 {
		fmt.Fprintf(w, "max sustained: %.0f rounds/sec (p99 SLO %v)\n", f.MaxSustainedRate, time.Duration(f.SLONs))
	} else {
		fmt.Fprintln(w, "no target sustained within SLO")
	}
	if f.Verify != nil {
		fmt.Fprintf(w, "verify: expected %d probes, board %d (lost %d, duplicated %d) ok=%v\n",
			f.Verify.ExpectedProbes, f.Verify.BoardProbes, f.Verify.Lost, f.Verify.Duplicated, f.Verify.OK)
	}
	if f.Serve != nil {
		s := f.Serve
		fmt.Fprintf(w, "serve: %d players, %d epochs, %d recommends (%.0f/s, p50 %v, p99 %v), churn %d, errors %d\n",
			s.Players, s.Epochs, s.Recommends, s.RecommendRate,
			time.Duration(s.RecommendP50Ns).Round(time.Microsecond),
			time.Duration(s.RecommendP99Ns).Round(time.Microsecond),
			s.ChurnApplied, s.RecommendErrors)
	}
	if f.RSSPeakMB > 0 {
		fmt.Fprintf(w, "rss peak: %.0f MB (VmHWM of this process)\n", f.RSSPeakMB)
	}
}

// peakRSSMB reads VmHWM, the peak resident set, from a
// /proc/<pid>/status file, in MB (MiB, as perfbench counts them); 0
// when the file or the field is missing.
func peakRSSMB(status string) float64 {
	buf, err := os.ReadFile(status)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// goVersion / gitCommit mirror benchdiff's header fields.
func goVersion() string { return runtime.Version() }

// gitCommit is the HEAD commit of the git tree at dir ("" is the
// working directory), with "-dirty" appended when the tree has changes
// beyond it, or "" outside a git tree.
func gitCommit(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(out))
	// A dirty tree means the numbers reflect code beyond the commit;
	// say so rather than record a misleadingly precise provenance.
	if st, err := exec.Command("git", "-C", dir, "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}
