package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/boardclient"
	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/rng"
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

// batchLog is an in-memory board that takes batches, so the probe
// engine gives it a deferred view, and records the posts of each.
type batchLog struct {
	*billboard.Board
	batches [][]boardclient.Post
}

func (b *batchLog) PostBatch(posts []boardclient.Post, reads []boardclient.Read) {
	if len(posts) > 0 {
		b.batches = append(b.batches, append([]boardclient.Post(nil), posts...))
	}
	for _, p := range posts {
		switch p.Kind {
		case boardclient.ProbesPost:
			b.Board.PostProbes(p.Player, p.Objs, p.Grades)
		case boardclient.ValuesPost:
			b.Board.PostValues(p.Topic, p.Player, p.Vals)
		case boardclient.VectorPost:
			b.Board.Post(p.Topic, p.Player, p.Vec)
		case boardclient.DropPost:
			b.Board.DropTopic(p.Topic)
		}
	}
	boardclient.ReadAll(b.Board, reads)
}

// batchEnv is an Env over in and a batchLog, run one player at a time.
func batchEnv(in *prefs.Instance) (*Env, *batchLog) {
	b := &batchLog{Board: billboard.New(in.N, in.M)}
	e := probe.NewEngine(in, b, rng.NewSource(1))
	return NewEnv(e, sim.NewRunner(1), rng.NewSource(2), DefaultConfig()), b
}

// TestPhasesWithoutReadsShareABatch: a phase barrier sends nothing, so
// two phases with no read between them reach the board as one batch,
// at the end of the run's outermost span, holding one probe run per
// player across both phases.
func TestPhasesWithoutReadsShareABatch(t *testing.T) {
	env, b := batchEnv(prefs.Identical(2, 4, 1, 1))
	func() {
		defer env.span(spanZeroRadius, nil, 1).end()
		for o := range 2 {
			env.phase([]int{0, 1}, func(p int) { env.Engine.Player(p).Probe(o) })
			if len(b.batches) != 0 {
				t.Fatalf("phase %d's barrier sent a batch", o)
			}
		}
	}()
	want := [][]boardclient.Post{{
		{Kind: boardclient.ProbesPost, Player: 0, Objs: []int{0, 1}, Grades: []byte{1, 1}},
		{Kind: boardclient.ProbesPost, Player: 1, Objs: []int{0, 1}, Grades: []byte{1, 1}},
	}}
	if got := fmt.Sprint(b.batches); got != fmt.Sprint(want) {
		t.Fatalf("the run sent %s, want one batch of one probe run per player", got)
	}
}

// TestAbortSendsTheHeldBatch: when a run unwinds with an abort, its
// outermost span sends what the view still holds as one batch: the
// probe results and the drops, which a sub-algorithm that has already
// returned can no longer send, but not the held value posts.
func TestAbortSendsTheHeldBatch(t *testing.T) {
	env, b := batchEnv(prefs.Identical(2, 4, 1, 1))
	func() {
		defer func() { _ = recover() }()
		defer env.span(spanSmallRadius, nil, 1).end()
		env.Board.PostValues("done", 0, []uint32{1})
		_ = env.Board.ValueVotes("done") // sends the post
		env.phase([]int{0, 1}, func(p int) {
			env.Engine.Player(p).Probe(p)
			env.Board.PostValues("running", p, []uint32{2})
		})
		env.Board.DropTopic("done")
		env.phase([]int{0}, func(int) { panic("player failed") })
	}()
	if len(b.batches) != 2 {
		t.Fatalf("the run sent %d batches, want its post and the abort's", len(b.batches))
	}
	var kinds []boardclient.PostKind
	for _, p := range b.batches[1] {
		kinds = append(kinds, p.Kind)
	}
	if want := []boardclient.PostKind{boardclient.ProbesPost, boardclient.ProbesPost, boardclient.DropPost}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("the abort sent posts of kinds %v, want %v", kinds, want)
	}
	if n := b.Board.TopicCount(); n != 0 || b.Board.ProbeCount() != 2 {
		t.Fatalf("%d topics and %d probes left on the board, want none and 2", n, b.Board.ProbeCount())
	}
}

// TestAnytimeSendsItsLastPhase: Anytime's keep-best phases run in its
// own span, so the probes of its last one, which no read follows, go
// out when it returns instead of staying held in the view.
func TestAnytimeSendsItsLastPhase(t *testing.T) {
	env, _ := batchEnv(prefs.Planted(32, 32, 0.5, 2, 5))
	Anytime(env, 0, func(ph AnytimePhase) bool { return ph.Phase < 2 })
	if held := env.Board.(postHolder).Take(); len(held) != 0 {
		t.Fatalf("%d posts still held after Anytime returned", len(held))
	}
}
