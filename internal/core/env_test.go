package core

import (
	"testing"

	"tellme/internal/prefs"
)

// TestSpanWithoutTelemetryIsFree checks that a span on an Env without
// telemetry only records the active kind, and gives the enclosing kind
// back when it ends: ZeroRadius opens a span per call, so a disabled
// span must not allocate.
func TestSpanWithoutTelemetryIsFree(t *testing.T) {
	env, _ := newTestEnv(t, prefs.Identical(8, 8, 0.5, 1), 1)
	players := []int{0, 1, 2}
	var inner, after string
	allocs := testing.AllocsPerRun(100, func() {
		defer env.span(spanUnknownD, players, 1).end()
		func() {
			defer env.span(spanZeroRadius, players, 1).end()
			inner = env.ActiveKind()
		}()
		after = env.ActiveKind()
	})
	if allocs != 0 {
		t.Fatalf("disabled span allocates %v times per call", allocs)
	}
	if inner != "zeroradius" || after != "unknownd" {
		t.Fatalf("ActiveKind = %q inside the span and %q after it, want zeroradius and unknownd", inner, after)
	}
	if got := env.ActiveKind(); got != "" {
		t.Fatalf("ActiveKind = %q after every span ended, want none", got)
	}
}
