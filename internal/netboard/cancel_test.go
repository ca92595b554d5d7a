package netboard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
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

	var got error
	c := NewClientWithConfig(srv.URL, Config{
		Retries:      5,
		RetryBackoff: time.Hour, // a single un-cut wait would hang the test
		OnError:      func(err error) { got = err },
	})
	var slept int
	c.sleep = func(time.Duration) { slept++ }

	b := c.BindContext(ctx)
	b.PostProbe(0, 0, 1)

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
	var got error
	c := NewClientWithConfig("http://127.0.0.1:1", Config{ // nothing listening
		Retries:      3,
		RetryBackoff: 5 * time.Second,
		OnError:      func(err error) { got = err },
	})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	b := c.BindContext(ctx)
	start := time.Now()
	b.PostProbe(0, 0, 1)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled retry loop took %v, want well under the 5s backoff unit", elapsed)
	}
	if got == nil || !errors.Is(got, context.Canceled) {
		t.Fatalf("error = %v, want one wrapping context.Canceled", got)
	}
}

// TestBindContextSharesState checks the bound view is the same logical
// board, on a Client and on a Cluster: posts through the bound view are
// visible through the plain one, a nil-Done context binds to the board
// itself, and rebinding a view to context.Background gives a view that
// outlives the first context.
func TestBindContextSharesState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		board func(t *testing.T) boardclient.Interface
	}{
		{"client", func(t *testing.T) boardclient.Interface {
			srv := httptest.NewServer(NewServer(billboard.New(4, 8)))
			t.Cleanup(srv.Close)
			return NewClient(srv.URL)
		}},
		{"cluster", func(t *testing.T) boardclient.Interface { return newCountingCluster(t, new(atomic.Int64), Config{}) }},
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

// newCountingCluster is a 2-shard cluster over counting servers that
// share the counter n.
func newCountingCluster(t *testing.T, n *atomic.Int64, cfg Config) *Cluster {
	urls := []string{countingServer(t, billboard.New(4, 8), n).URL, countingServer(t, billboard.New(4, 8), n).URL}
	cl, err := NewCluster(ClusterConfig{Shards: urls, Client: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestCancelledViewSendsNothing checks every board operation of a view
// bound to an already-cancelled context, on a Client and on a 2-shard
// Cluster: it sends no request, returns zero values, and records an
// error matching context.Canceled. The same call on the unbound board
// sends a request, so the counting handler does see that operation.
func TestCancelledViewSendsNothing(t *testing.T) {
	vec := bitvec.New(8)
	vec.Set(1, 1)
	ops := []struct {
		name string
		// call runs the operation and reports whether its results are
		// the zero values of a degraded call.
		call func(b boardclient.Interface) bool
	}{
		{"PostProbe", func(b boardclient.Interface) bool { b.PostProbe(1, 2, 1); return true }},
		{"PostProbes", func(b boardclient.Interface) bool {
			b.PostProbes(1, []int{0, 1, 2, 3, 4, 5, 6, 7}, []byte{1, 0, 1, 0, 1, 0, 1, 0})
			return true
		}},
		{"PostBatch", func(b boardclient.Interface) bool {
			b.(boardclient.Batcher).PostBatch([]boardclient.Post{
				{Kind: boardclient.ProbesPost, Player: 2, Objs: []int{0, 1, 2, 3, 4, 5, 6, 7}, Grades: make([]byte, 8)},
				{Kind: boardclient.ValuesPost, Topic: "t", Player: 2, Vals: []uint32{7}},
				{Kind: boardclient.VectorPost, Topic: "t", Player: 2, Vec: bitvec.PartialOf(vec)},
			})
			return true
		}},
		{"LookupProbe", func(b boardclient.Interface) bool {
			v, ok := b.LookupProbe(0, 0)
			return v == 0 && !ok
		}},
		{"LookupProbes", func(b boardclient.Interface) bool {
			objs := []int{0, 1, 2, 3, 4, 5, 6, 7}
			grades, known := []byte{1, 1, 1, 1, 1, 1, 1, 1}, []bool{true, true, true, true, true, true, true, true}
			b.LookupProbes(0, objs, grades, known)
			for k := range objs {
				if grades[k] != 0 || known[k] {
					return false
				}
			}
			return true
		}},
		{"ProbedObjects", func(b boardclient.Interface) bool { return len(b.ProbedObjects(0)) == 0 }},
		{"ForEachProbe", func(b boardclient.Interface) bool {
			seen := 0
			b.ForEachProbe(0, func(int, byte) { seen++ })
			return seen == 0
		}},
		{"ProbeCount", func(b boardclient.Interface) bool { return b.ProbeCount() == 0 }},
		{"Post", func(b boardclient.Interface) bool { b.Post("t", 3, bitvec.PartialOf(vec)); return true }},
		{"PostVector", func(b boardclient.Interface) bool { b.PostVector("t", 3, vec); return true }},
		{"Postings", func(b boardclient.Interface) bool { return len(b.Postings("t")) == 0 }},
		{"Votes", func(b boardclient.Interface) bool { return len(b.Votes("t")) == 0 }},
		{"PopularVectors", func(b boardclient.Interface) bool { return len(b.PopularVectors("t", 1)) == 0 }},
		{"PostValues", func(b boardclient.Interface) bool { b.PostValues("t", 3, []uint32{1}); return true }},
		{"ValuePostings", func(b boardclient.Interface) bool { return len(b.ValuePostings("t")) == 0 }},
		{"ValueVotes", func(b boardclient.Interface) bool { return len(b.ValueVotes("t")) == 0 }},
		{"DropTopic", func(b boardclient.Interface) bool { b.DropTopic("gone"); return true }},
		{"TopicCount", func(b boardclient.Interface) bool { return b.TopicCount() == 0 }},
		{"VectorPostCount", func(b boardclient.Interface) bool { return b.VectorPostCount() == 0 }},
		{"TopicSnapshot", func(b boardclient.Interface) bool {
			gen, epoch, unchanged, votes, valVotes := b.TopicSnapshot("t", 0, 0)
			return gen == 0 && epoch == 0 && !unchanged && votes == nil && valVotes == nil
		}},
	}
	var mu sync.Mutex
	var errs []error
	onError := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	for _, transport := range []string{"client", "cluster"} {
		t.Run(transport, func(t *testing.T) {
			var sent atomic.Int64
			var board boardclient.Interface
			if transport == "client" {
				board = NewClientWithConfig(countingServer(t, billboard.New(4, 8), &sent).URL, Config{OnError: onError})
			} else {
				board = newCountingCluster(t, &sent, Config{OnError: onError})
			}
			// Seed every board read with something to find.
			board.PostProbes(0, []int{0, 1, 2, 3, 4, 5, 6, 7}, []byte{1, 1, 0, 0, 1, 1, 0, 0})
			board.PostVector("t", 0, vec)
			board.PostValues("t", 0, []uint32{5})
			board.PostVector("gone", 0, vec)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			view := board.(boardclient.ContextBinder).BindContext(ctx)
			for _, op := range ops {
				mu.Lock()
				errs = nil
				mu.Unlock()
				before := sent.Load()
				zero := op.call(view)
				if got := sent.Load() - before; got != 0 {
					t.Errorf("%s: cancelled view sent %d requests, want 0", op.name, got)
				}
				if !zero {
					t.Errorf("%s: cancelled view returned non-zero results", op.name)
				}
				mu.Lock()
				got := errs
				mu.Unlock()
				if len(got) == 0 {
					t.Errorf("%s: cancelled view recorded no error", op.name)
				}
				for _, err := range got {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("%s: recorded %v, want an error matching context.Canceled", op.name, err)
					}
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
