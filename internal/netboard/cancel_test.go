package netboard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
)

// TestBackoffSkippedWhenContextCancelled is the regression test for the
// unconditional backoff sleep: once the context is cancelled, the retry
// loop must stop before the next wait, observed through the sleep stub
// (zero stub calls after cancellation) rather than wall-clock timing.
func TestBackoffSkippedWhenContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cancel() // the first (and only) attempt kills the run
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := dial(t, srv.URL, Config{
		Retries:      5,
		RetryBackoff: time.Hour, // a single un-cut wait would hang the test
	})
	var slept int
	c.clients[0].sleep = func(time.Duration) { slept++ }

	b := c.BindContext(ctx)
	got := failure(func() { b.PostProbe(0, 0, 1) })

	if slept != 0 {
		t.Fatalf("backoff slept %d times after cancellation, want 0", slept)
	}
	if got == nil || !errors.Is(got, context.Canceled) {
		t.Fatalf("error = %v, want one wrapping context.Canceled", got)
	}
	var terr *TransportError
	if !errors.As(got, &terr) {
		t.Fatalf("error %v is not a *TransportError", got)
	}
}

// TestBackoffRealTimerCutShort covers the non-stubbed path: a cancelled
// context interrupts an in-progress timer wait, so a client configured
// with a long backoff against a dead server returns promptly.
func TestBackoffRealTimerCutShort(t *testing.T) {
	c := dial(t, "http://127.0.0.1:1", Config{ // nothing listening
		Retries:      3,
		RetryBackoff: 5 * time.Second,
	})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	b := c.BindContext(ctx)
	start := time.Now()
	got := failure(func() { b.PostProbe(0, 0, 1) })
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled retry loop took %v, want well under the 5s backoff unit", elapsed)
	}
	if got == nil || !errors.Is(got, context.Canceled) {
		t.Fatalf("error = %v, want one wrapping context.Canceled", got)
	}
}

// TestBindContextSharesState checks the bound view is the same logical
// board, on one server (a one-shard Cluster, the "client" row) and on
// two shards: posts through the bound view are visible through the
// plain one, a nil-Done context binds to the board itself, and
// rebinding a view to context.Background gives a view that outlives
// the first context.
func TestBindContextSharesState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		board func(t *testing.T) boardclient.Interface
	}{
		{"client", func(t *testing.T) boardclient.Interface { return newCountingCluster(t, 1, new(atomic.Int64)) }},
		{"cluster", func(t *testing.T) boardclient.Interface { return newCountingCluster(t, 2, new(atomic.Int64)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.board(t)
			cb := c.(boardclient.ContextBinder)
			if got := cb.BindContext(context.Background()); got != c {
				t.Fatal("Background context should bind to the board itself")
			}
			if got := cb.BindContext(nil); got != c {
				t.Fatal("nil context should bind to the board itself")
			}
			ctx, cancel := context.WithCancel(context.Background())
			b := cb.BindContext(ctx)
			b.PostProbe(1, 2, 1)
			if v, ok := c.LookupProbe(1, 2); !ok || v != 1 {
				t.Fatalf("post through bound view not visible: (%d,%v)", v, ok)
			}
			if got := boardclient.BindContext(ctx, c); got == c {
				t.Fatal("BindContext helper did not bind a cancellable context")
			}
			rebound := b.(boardclient.ContextBinder).BindContext(context.Background())
			cancel()
			rebound.PostProbe(1, 3, 1)
			if v, ok := c.LookupProbe(1, 3); !ok || v != 1 {
				t.Fatalf("post through a view rebound to Background after cancel: (%d,%v)", v, ok)
			}
			if err := c.Err(); err != nil {
				t.Fatalf("rebound view failed: %v", err)
			}
		})
	}
}

// countingServer serves board over HTTP and counts the requests it
// receives.
func countingServer(t *testing.T, board *billboard.Board, n *atomic.Int64) *httptest.Server {
	inner := NewServer(board)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// newCountingCluster is a k-shard cluster over counting servers that
// share the counter n.
func newCountingCluster(t *testing.T, k int, n *atomic.Int64) *Cluster {
	urls := make([]string, k)
	for i := range urls {
		urls[i] = countingServer(t, billboard.New(4, 8), n).URL
	}
	cl, err := NewCluster(ClusterConfig{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestCancelledViewSendsNothing checks every board operation of a view
// bound to an already-cancelled context, on one server (a one-shard
// Cluster, the "client" row) and on two shards: it sends no request,
// panics with a *TransportError matching context.Canceled, and adds
// to the board's failure record. The same call on the unbound board
// sends a request, so the counting handler does see that operation.
func TestCancelledViewSendsNothing(t *testing.T) {
	vec := bitvec.New(8)
	vec.Set(1, 1)
	ops := []struct {
		name string
		call func(b boardclient.Interface)
	}{
		{"PostProbe", func(b boardclient.Interface) { b.PostProbe(1, 2, 1) }},
		{"PostProbes", func(b boardclient.Interface) {
			b.PostProbes(1, []int{0, 1, 2, 3, 4, 5, 6, 7}, []byte{1, 0, 1, 0, 1, 0, 1, 0})
		}},
		{"PostBatch", func(b boardclient.Interface) {
			b.(boardclient.Batcher).PostBatch([]boardclient.Post{
				{Kind: boardclient.ProbesPost, Player: 2, Objs: []int{0, 1, 2, 3, 4, 5, 6, 7}, Grades: make([]byte, 8)},
				{Kind: boardclient.ValuesPost, Topic: "t", Player: 2, Vals: []uint32{7}},
				{Kind: boardclient.VectorPost, Topic: "t", Player: 2, Vec: bitvec.PartialOf(vec)},
			}, []boardclient.Read{
				{Kind: boardclient.PostingsRead, Topic: "t"},
				{Kind: boardclient.LookupsRead, Player: 2, Objs: []int{0}, Grades: make([]byte, 1), Known: make([]bool, 1)},
			})
		}},
		{"ReadAll", func(b boardclient.Interface) {
			boardclient.ReadAll(b, []boardclient.Read{
				{Kind: boardclient.ValuePostingsRead, Topic: "t"},
				{Kind: boardclient.SnapshotRead, Topic: "u"},
			})
		}},
		{"LookupProbe", func(b boardclient.Interface) { b.LookupProbe(0, 0) }},
		{"LookupProbes", func(b boardclient.Interface) {
			b.LookupProbes(0, []int{0, 1, 2, 3, 4, 5, 6, 7}, make([]byte, 8), make([]bool, 8))
		}},
		{"ProbedObjects", func(b boardclient.Interface) { b.ProbedObjects(0) }},
		{"ForEachProbe", func(b boardclient.Interface) { b.ForEachProbe(0, func(int, byte) {}) }},
		{"ProbeCount", func(b boardclient.Interface) { b.ProbeCount() }},
		{"Post", func(b boardclient.Interface) { b.Post("t", 3, bitvec.PartialOf(vec)) }},
		{"PostVector", func(b boardclient.Interface) { b.PostVector("t", 3, vec) }},
		{"Postings", func(b boardclient.Interface) { b.Postings("t") }},
		{"Votes", func(b boardclient.Interface) { b.Votes("t") }},
		{"PopularVectors", func(b boardclient.Interface) { b.PopularVectors("t", 1) }},
		{"PostValues", func(b boardclient.Interface) { b.PostValues("t", 3, []uint32{1}) }},
		{"ValuePostings", func(b boardclient.Interface) { b.ValuePostings("t") }},
		{"ValueVotes", func(b boardclient.Interface) { b.ValueVotes("t") }},
		{"DropTopic", func(b boardclient.Interface) { b.DropTopic("gone") }},
		{"TopicCount", func(b boardclient.Interface) { b.TopicCount() }},
		{"VectorPostCount", func(b boardclient.Interface) { b.VectorPostCount() }},
		{"TopicSnapshot", func(b boardclient.Interface) { b.TopicSnapshot("t", 0, 0) }},
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{{"client", 1}, {"cluster", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			var sent atomic.Int64
			board := newCountingCluster(t, tc.shards, &sent)
			// Seed every board read with something to find.
			board.PostProbes(0, []int{0, 1, 2, 3, 4, 5, 6, 7}, []byte{1, 1, 0, 0, 1, 1, 0, 0})
			board.PostVector("t", 0, vec)
			board.PostValues("t", 0, []uint32{5})
			board.PostVector("gone", 0, vec)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			view := board.BindContext(ctx)
			for _, op := range ops {
				before, failed := sent.Load(), board.Failures()
				err := failure(func() { op.call(view) })
				if got := sent.Load() - before; got != 0 {
					t.Errorf("%s: cancelled view sent %d requests, want 0", op.name, got)
				}
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s: cancelled view failed with %v, want an error matching context.Canceled", op.name, err)
				}
				if board.Failures() == failed {
					t.Errorf("%s: cancelled view recorded no failure", op.name)
				}
				before = sent.Load()
				op.call(board)
				if sent.Load() == before {
					t.Errorf("%s: the unbound board sent no request", op.name)
				}
			}
		})
	}
}
