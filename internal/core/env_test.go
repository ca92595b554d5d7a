package core

import (
	"testing"

	"tellme/internal/prefs"
)

// TestSpanWithoutTelemetryIsFree checks that a span on an Env without
// telemetry only records the active kind: ZeroRadius opens thousands
// of spans per recursion, so a disabled span must not allocate.
func TestSpanWithoutTelemetryIsFree(t *testing.T) {
	env, _ := newTestEnv(t, prefs.Identical(8, 8, 0.5, 1), 1)
	players := []int{0, 1, 2}
	allocs := testing.AllocsPerRun(100, func() {
		defer env.span(spanZeroRadius, players)()
	})
	if allocs != 0 {
		t.Fatalf("disabled span allocates %v times per call", allocs)
	}
	if got := env.ActiveKind(); got != "zeroradius" {
		t.Fatalf("ActiveKind = %q, want zeroradius", got)
	}
}
