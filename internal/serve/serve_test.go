package serve

import (
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
)

// vec parses a '0'/'1' string into a Vector.
func vec(t *testing.T, bits string) bitvec.Vector {
	t.Helper()
	v, err := vectorFromBits(bits, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// twoCommunities returns 2k preference vectors: k copies of a, k of b.
func twoCommunities(t *testing.T, k, m int) []bitvec.Vector {
	t.Helper()
	a := strings.Repeat("10", m/2)
	b := strings.Repeat("01", m/2)
	out := make([]bitvec.Vector, 0, 2*k)
	for i := 0; i < k; i++ {
		out = append(out, vec(t, a), vec(t, b))
	}
	return out
}

func newEngine(t *testing.T, capacity, m int) *Engine {
	t.Helper()
	e, err := New(Config{M: m, Capacity: capacity, Alpha: 0.4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEpochLifecycleAndRecommend(t *testing.T) {
	e := newEngine(t, 8, 32)
	vs := twoCommunities(t, 3, 32)
	ids := make([]uint64, len(vs))
	for i, v := range vs {
		id, err := e.Join(v)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if _, err := e.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap == nil || snap.Epoch != 1 {
		t.Fatalf("snapshot after first epoch: %+v", snap)
	}
	if snap.Refresh {
		t.Fatal("first epoch must be a full run, not a refresh")
	}
	if snap.Stats.Members != len(vs) {
		t.Fatalf("members = %d, want %d", snap.Stats.Members, len(vs))
	}
	// Identical-community instance: everyone reconstructs exactly.
	if snap.Stats.MaxErr != 0 {
		t.Fatalf("max err = %d over identical communities, want 0", snap.Stats.MaxErr)
	}
	for i, id := range ids {
		out, epoch, err := e.Recommend(context.Background(), id)
		if err != nil {
			t.Fatalf("recommend %d: %v", id, err)
		}
		if epoch != 1 {
			t.Fatalf("recommend epoch = %d, want 1", epoch)
		}
		if out.String() != bitvec.PartialOf(vs[i]).String() {
			t.Fatalf("player %d got %s, want %s", id, out.String(), vs[i].String())
		}
	}
}

func TestSecondEpochRefreshesAndMatches(t *testing.T) {
	e := newEngine(t, 8, 32)
	for _, v := range twoCommunities(t, 3, 32) {
		if _, err := e.Join(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := e.Snapshot()
	if _, err := e.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	second := e.Snapshot()
	if second.Epoch != 2 || !second.Refresh {
		t.Fatalf("second epoch = %d refresh = %v, want 2/true", second.Epoch, second.Refresh)
	}
	for id, w := range first.Outputs {
		if second.Outputs[id].String() != w.String() {
			t.Fatalf("player %d drifted across a churn-free refresh: %s → %s",
				id, w.String(), second.Outputs[id].String())
		}
	}
}

// TestJoinerOutsideEveryConsensusGroupGetsFullRun: when no previous
// output reaches Refresh's consensus threshold, a joiner has no group
// to adopt from and Refresh leaves it zero-length. The epoch must fall
// back to a full run, so every member is still served m bits.
func TestJoinerOutsideEveryConsensusGroupGetsFullRun(t *testing.T) {
	const m = 32
	e := newEngine(t, 16, m)
	r := rand.New(rand.NewPCG(1, 2))
	tastes := make([]bitvec.Vector, 6)
	for i := range tastes {
		b := make([]byte, m)
		for j := range b {
			b[j] = "01"[r.IntN(2)]
		}
		tastes[i] = vec(t, string(b))
		if _, err := e.Join(tastes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	joiner, err := e.Join(tastes[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Epoch != 2 || snap.Refresh {
		t.Fatalf("epoch %d refresh %v, want 2 and a full run", snap.Epoch, snap.Refresh)
	}
	for id, w := range snap.Outputs {
		if w.Len() != m {
			t.Fatalf("player %d served %d bits, want %d", id, w.Len(), m)
		}
	}
	out, epoch, err := e.Recommend(context.Background(), joiner)
	if err != nil || epoch != 2 || out.Len() != m {
		t.Fatalf("joiner: %d bits at epoch %d (err %v), want %d bits at epoch 2", out.Len(), epoch, err, m)
	}
}

func TestChurnBoundarySemantics(t *testing.T) {
	e := newEngine(t, 8, 32)
	vs := twoCommunities(t, 2, 32)
	ids := make([]uint64, len(vs))
	for i, v := range vs {
		id, err := e.Join(v)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if _, err := e.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Retire one player, admit a new one: both take effect at epoch 2.
	if err := e.Leave(ids[0]); err != nil {
		t.Fatal(err)
	}
	newID, err := e.Join(vec(t, strings.Repeat("10", 16)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Recommend(context.Background(), ids[0]); err != nil {
		t.Fatalf("leaving player must be served until the boundary: %v", err)
	}
	if _, err := e.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Recommend(context.Background(), ids[0]); !errors.Is(err, ErrUnknownPlayer) {
		t.Fatalf("departed player: err = %v, want ErrUnknownPlayer", err)
	}
	out, epoch, err := e.Recommend(context.Background(), newID)
	if err != nil || epoch != 2 {
		t.Fatalf("joiner: epoch %d err %v, want 2/nil", epoch, err)
	}
	if out.Len() != 32 {
		t.Fatalf("joiner output length %d, want 32", out.Len())
	}
	// Leave of an unknown id is a typed error; double leave is idempotent.
	if err := e.Leave(9999); !errors.Is(err, ErrUnknownPlayer) {
		t.Fatalf("leave unknown: %v", err)
	}
	if err := e.Leave(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := e.Leave(ids[1]); err != nil {
		t.Fatalf("second leave before boundary: %v", err)
	}
}

func TestRecommendWaitsForCoveringEpoch(t *testing.T) {
	e := newEngine(t, 4, 16)
	id, err := e.Join(vec(t, strings.Repeat("1", 16)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := e.Recommend(ctx, id); !errors.Is(err, ErrNotReady) {
		t.Fatalf("recommend before any epoch: %v, want ErrNotReady", err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, epoch, err := e.Recommend(ctx, id)
		if err == nil && epoch != 1 {
			err = errors.New("woke on wrong epoch")
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter park on the watch channel
	if _, err := e.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiting recommend: %v", err)
	}
}

func TestCapacityAndSlotReuse(t *testing.T) {
	e := newEngine(t, 2, 16)
	a, err := e.Join(vec(t, strings.Repeat("1", 16)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Join(vec(t, strings.Repeat("0", 16))); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Join(vec(t, strings.Repeat("1", 16))); !errors.Is(err, ErrFull) {
		t.Fatalf("join at capacity: %v, want ErrFull", err)
	}
	if err := e.Leave(a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Join(vec(t, strings.Repeat("1", 16))); err != nil {
		t.Fatalf("join after a slot freed: %v", err)
	}
	if got := e.Players(); got != 2 {
		t.Fatalf("players = %d, want 2", got)
	}
}

// TestBoardStaysClean pins the long-lived-board contract: epochs leave
// no topics behind (scratch dropped even though the board outlives
// every run), and a retired slot's probe storage is released.
func TestBoardStaysClean(t *testing.T) {
	board := billboard.New(8, 32)
	e, err := New(Config{M: 32, Capacity: 8, Alpha: 0.4, Seed: 1, Board: board})
	if err != nil {
		t.Fatal(err)
	}
	vs := twoCommunities(t, 3, 32)
	ids := make([]uint64, len(vs))
	for i, v := range vs {
		ids[i], err = e.Join(v)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := e.RunEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
		if tc := board.TopicCount(); tc != 0 {
			t.Fatalf("after epoch %d: %d topics left on the board", i+1, tc)
		}
	}
	if board.ProbeCount() == 0 {
		t.Fatal("expected probe results on the board")
	}
	for _, id := range ids {
		if err := e.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if pc := board.ProbeCount(); pc != 0 {
		t.Fatalf("%d probe results left after every player retired", pc)
	}
}

// TestDeterministicAcrossEngines: two engines with equal seeds fed the
// same churn schedule publish identical snapshots — the property the
// churn stress gate uses to compare board backends.
func TestDeterministicAcrossEngines(t *testing.T) {
	run := func() []*Snapshot {
		e, err := New(Config{M: 32, Capacity: 8, Alpha: 0.4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var snaps []*Snapshot
		vs := twoCommunities(t, 3, 32)
		var ids []uint64
		for _, v := range vs[:4] {
			id, err := e.Join(v)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if _, err := e.RunEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, e.Snapshot())
		e.Leave(ids[1])
		for _, v := range vs[4:] {
			if _, err := e.Join(v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.RunEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, e.Snapshot())
		return snaps
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Epoch != b[i].Epoch || len(a[i].Outputs) != len(b[i].Outputs) {
			t.Fatalf("snapshot %d shape differs: %+v vs %+v", i, a[i], b[i])
		}
		for id, w := range a[i].Outputs {
			if b[i].Outputs[id].String() != w.String() {
				t.Fatalf("snapshot %d player %d: %s vs %s", i, id, w.String(), b[i].Outputs[id].String())
			}
		}
	}
}
