package main

import (
	"context"
	"testing"
)

// TestSmokeInprocTenThousandPlayers is the CI smoke: a 10k-player fleet
// runs three full rounds each against the in-process board at an
// unconstrained rate, and the run's exact-counter audit must come back
// clean — every scheduled probe on the board, none double-applied.
func TestSmokeInprocTenThousandPlayers(t *testing.T) {
	const players, m, batch = 10_000, 64, 16
	const arrivals = 3 * players
	cfg := &config{
		Players:       players,
		M:             m,
		PostBatch:     batch,
		Workers:       40,
		Rates:         []float64{1e9}, // flat out: pacing sleeps vanish
		RoundsPerStep: arrivals,
		Seed:          1,
		Verify:        true,
		Logf:          t.Logf,
	}
	file, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(file.Rows) != 1 || file.Rows[0].Rounds != arrivals {
		t.Fatalf("rows = %+v, want one row of %d rounds", file.Rows, arrivals)
	}
	if file.Verify == nil {
		t.Fatal("verification missing from artifact")
	}
	wantProbes := int64(players) * 3 * batch // 3 rounds each, no wrap (48 < 64)
	if file.Verify.ExpectedProbes != wantProbes {
		t.Fatalf("expected probes %d, want %d", file.Verify.ExpectedProbes, wantProbes)
	}
	if !file.Verify.OK || file.Verify.Lost != 0 || file.Verify.Duplicated != 0 {
		t.Fatalf("probe audit failed: %+v", file.Verify)
	}
	if file.Target != "inproc" || file.Players != players {
		t.Fatalf("artifact header wrong: target=%q players=%d", file.Target, file.Players)
	}
}

// TestSmokeLocalShardCluster drives a smaller fleet through two real
// loopback netboard shards — wire protocol, batching, dedupe, and the
// pooled transport all under load — and audits the cluster-wide counter.
func TestSmokeLocalShardCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("network smoke")
	}
	const players, m, batch = 600, 64, 16
	cfg := &config{
		Players:       players,
		M:             m,
		PostBatch:     batch,
		Workers:       8,
		LocalShards:   2,
		Rates:         []float64{1e9},
		RoundsPerStep: 3 * players,
		Seed:          1,
		Verify:        true,
		Logf:          t.Logf,
	}
	file, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if file.Target != "local-shards(2)" || file.Shards != 2 {
		t.Fatalf("artifact header wrong: %q/%d", file.Target, file.Shards)
	}
	if !file.Verify.OK {
		t.Fatalf("cluster probe audit failed: %+v", file.Verify)
	}
	if want := int64(players) * 3 * batch; file.Verify.BoardProbes != want {
		t.Fatalf("cluster holds %d probes, want %d", file.Verify.BoardProbes, want)
	}
}
