package tellme

import (
	"testing"

	"tellme/internal/telemetry"
)

// TestRunTelemetryCountsMatchReport runs the full stack with telemetry
// attached — players probing concurrently, all instruments shared — and
// cross-checks the registry against the report's own accounting. Run
// under -race this doubles as the concurrency test for the registry.
func TestRunTelemetryCountsMatchReport(t *testing.T) {
	cases := []struct {
		name string
		in   *Instance
		opt  Options
		// top is the span kind that wraps the whole run; nested are
		// kinds it must have entered at least once.
		top    string
		nested []string
	}{
		{"auto", PlantedInstance(128, 128, 0.5, 6, 1),
			Options{Algorithm: AlgoAuto, Alpha: 0.5, Seed: 2}, "unknownd", nil},
		{"large", PlantedInstance(128, 128, 0.5, 16, 30),
			Options{Algorithm: AlgoLarge, Alpha: 0.5, D: 16, Seed: 31}, "largeradius", []string{"smallradius", "zeroradius"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			opt := tc.opt
			opt.Telemetry = reg
			rep, err := Run(tc.in, opt)
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()

			// Every charged probe incremented the per-policy counter
			// exactly once; the default policy is charge_all.
			if got := snap.Counters["probe.charged.charge_all"]; got != rep.TotalProbes {
				t.Fatalf("probe.charged.charge_all = %d, report.TotalProbes = %d", got, rep.TotalProbes)
			}
			if got := snap.Counters["probe.invoked.charge_all"]; got < rep.TotalProbes {
				t.Fatalf("probe.invoked.charge_all = %d < charged %d", got, rep.TotalProbes)
			}
			// The in-memory board Run created was instrumented too:
			// posts can't exceed charges (duplicate posts are dropped,
			// every post was charged first).
			posts := snap.Counters["billboard.probe.posts"]
			if posts <= 0 || posts > rep.TotalProbes {
				t.Fatalf("billboard.probe.posts = %d, want in (0, %d]", posts, rep.TotalProbes)
			}
			// The core spans attributed every charged probe to some
			// sub-algorithm; the top-level span wraps the whole run, so
			// its probe counter is the total.
			if got := snap.Counters["core."+tc.top+".probes"]; got != rep.TotalProbes {
				t.Fatalf("core.%s.probes = %d, want %d (the top-level span wraps the whole run)", tc.top, got, rep.TotalProbes)
			}
			if got := snap.Counters["core."+tc.top+".calls"]; got != 1 {
				t.Fatalf("core.%s.calls = %d, want 1", tc.top, got)
			}
			for _, kind := range tc.nested {
				if got := snap.Counters["core."+kind+".calls"]; got < 1 {
					t.Fatalf("core.%s.calls = %d, want nested calls under %s", kind, got, tc.top)
				}
			}

			// Telemetry must not perturb the simulation: same seed
			// without a registry reproduces the exact outputs.
			rep2, err := Run(tc.in, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Outputs) != len(rep2.Outputs) {
				t.Fatalf("output count diverged: %d vs %d", len(rep.Outputs), len(rep2.Outputs))
			}
			for p := range rep.Outputs {
				if rep.Outputs[p].String() != rep2.Outputs[p].String() {
					t.Fatalf("player %d output diverged with telemetry enabled", p)
				}
			}
			if rep.TotalProbes != rep2.TotalProbes {
				t.Fatalf("probe totals diverged: %d with telemetry, %d without", rep.TotalProbes, rep2.TotalProbes)
			}
		})
	}
}

// TestRunAutoTallyCount pins how many vote tallies the benchmark's solve
// shape computes. Each tally is read once, by the coordinator before
// the phase that needs it, so the count is the number of topic reads
// and does not move with Parallelism.
func TestRunAutoTallyCount(t *testing.T) {
	for _, par := range []int{1, 4} {
		reg := telemetry.New()
		in := PlantedInstance(128, 128, 0.5, 8, 1)
		if _, err := Run(in, Options{Algorithm: AlgoAuto, Alpha: 0.5, Seed: 1, Parallelism: par, Telemetry: reg}); err != nil {
			t.Fatal(err)
		}
		if got := reg.Snapshot().Counters["billboard.tally.rebuilds"]; got != 34 {
			t.Errorf("parallelism %d: billboard.tally.rebuilds = %d, want 34", par, got)
		}
	}
}
