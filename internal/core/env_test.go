package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/sim"
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

// TestAbortCause checks the one mapping from a value recovered at a
// run boundary to the run's error.
func TestAbortCause(t *testing.T) {
	boom := errors.New("boom")
	perr := &sim.PanicError{Value: "player exploded"}
	for _, tc := range []struct {
		name string
		rec  any
		want error
	}{
		{"abort", &Abort{Err: context.DeadlineExceeded}, context.DeadlineExceeded},
		{"abort of a player panic", &Abort{Err: perr}, perr},
		{"canceled", &probe.Canceled{Cause: context.Canceled}, context.Canceled},
		{"error", boom, boom},
		{"panic error", perr, perr},
		{"string", "player exploded", &sim.PanicError{Value: "player exploded"}},
		{"int", 42, &sim.PanicError{Value: 42}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := AbortCause(tc.rec); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("AbortCause(%#v) = %#v, want %#v", tc.rec, got, tc.want)
			}
		})
	}
}
