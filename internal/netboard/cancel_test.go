package netboard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tellme/internal/billboard"
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
// client: posts through the bound view are visible through the plain
// one, and a nil-Done context binds to the client itself.
func TestBindContextSharesState(t *testing.T) {
	board := billboard.New(4, 8)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	c := NewClient(srv.URL)

	if got := c.BindContext(context.Background()); got != boardclient.Interface(c) {
		t.Fatal("Background context should bind to the client itself")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := c.BindContext(ctx)
	b.PostProbe(1, 2, 1)
	if v, ok := c.LookupProbe(1, 2); !ok || v != 1 {
		t.Fatalf("post through bound view not visible: (%d,%v)", v, ok)
	}
	if got := boardclient.BindContext(ctx, c); got == boardclient.Interface(c) {
		t.Fatal("BindContext helper did not bind a cancellable context")
	}
}
