package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tellme/internal/boardclient"
	"tellme/internal/telemetry"
)

// The fleet simulates players running probe rounds against the
// billboard. The schedule is fully deterministic in the global arrival
// index i:
//
//	player  p = i mod P
//	round   k = i div P        (how many rounds p has run before this one)
//	objects   = offset..offset+B-1, offset = (k·B) mod M
//	grade     = (p + o) & 1    (stable per (player, object))
//
// Because B divides M, a player's first M/B rounds cover M distinct
// objects and every later round re-posts an already-covered window —
// the board is first-post-wins, so re-posts are no-ops. The number of
// distinct probes the board must hold after N arrivals is therefore
// exactly computable (expectedProbes), which is what lets the run
// assert zero lost and zero duplicated posts from the server's own
// counter instead of trusting client-side bookkeeping.
//
// Arrivals are open-loop: arrival i is *due* at start + i/rate,
// regardless of how the previous rounds are doing. Workers stride the
// arrival sequence (worker w takes i ≡ w mod W), sleep until each
// arrival's due time, and charge the round's latency from the due time
// — so queueing delay under overload is measured, not hidden.

// dueOffset returns arrival i's scheduled offset from the step start at
// the target rate.
func dueOffset(i int64, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// expectedProbes is the exact distinct-probe count after n arrivals
// over a fleet of players, batch objects per round, universe m:
// Σ_p min(k_p·B, M) with k_p = per-player round count. Requires B | M
// (validated at config time) — otherwise wrapped windows would overlap
// partially and the count would not be closed-form.
func expectedProbes(n int64, players, batch, m int) int64 {
	if players <= 0 || n <= 0 {
		return 0
	}
	q, r := n/int64(players), n%int64(players)
	distinct := func(k int64) int64 {
		d := k * int64(batch)
		if d > int64(m) {
			return int64(m)
		}
		return d
	}
	return r*distinct(q+1) + (int64(players)-r)*distinct(q)
}

// roundObjects fills objs/grades for arrival i's round. Buffers are
// caller-owned (one pair per worker; the board client copies what it
// needs).
func roundObjects(i int64, players, batch, m int, objs []int, grades []byte) (player int) {
	p := int(i % int64(players))
	k := i / int64(players)
	offset := int(k*int64(batch)) % m
	for j := 0; j < batch; j++ {
		o := offset + j
		objs[j] = o
		grades[j] = byte((p + o) & 1)
	}
	return p
}

// stepResult is one rate step's raw outcome.
type stepResult struct {
	rounds  int64
	elapsed time.Duration
	hist    telemetry.HistogramSnapshot
}

// runStep drives n open-loop arrivals at the target rate against the
// board, starting from global arrival index first (the fleet's schedule
// continues across steps so the expected-count math stays exact).
// Latencies land in reg's "loadgen.round.ns" histogram, reset per step
// by using a fresh registry.
func runStep(ctx context.Context, board boardclient.Interface, cfg *config, first, n int64, rate float64) (stepResult, error) {
	if n <= 0 {
		return stepResult{}, fmt.Errorf("loadgen: step with %d arrivals", n)
	}
	reg := telemetry.New()
	hist := reg.Histogram("loadgen.round.ns", telemetry.LatencyBucketsFine())
	// The board's PostProbe duplicate check relies on a single writer per
	// player. Worker w takes arrivals i ≡ w (mod W), and player is
	// i mod P — so every arrival of a given player lands on the same
	// worker exactly when W divides P. Round W down to a divisor.
	workers := cfg.Workers
	if workers > cfg.Players {
		workers = cfg.Players
	}
	for cfg.Players%workers != 0 {
		workers--
	}

	b := boardclient.BindContext(ctx, board)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			objs := make([]int, cfg.PostBatch)
			grades := make([]byte, cfg.PostBatch)
			for i := int64(w); i < n; i += int64(workers) {
				due := start.Add(dueOffset(i, rate))
				if d := time.Until(due); d > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(d):
					}
				} else if ctx.Err() != nil {
					return
				}
				p := roundObjects(first+i, cfg.Players, cfg.PostBatch, cfg.M, objs, grades)
				b.PostProbes(p, objs, grades)
				hist.Observe(time.Since(due).Nanoseconds())
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return stepResult{}, context.Cause(ctx)
	}
	elapsed := time.Since(start)
	snap := reg.Snapshot().Histograms["loadgen.round.ns"]
	return stepResult{rounds: snap.Count, elapsed: elapsed, hist: snap}, nil
}
