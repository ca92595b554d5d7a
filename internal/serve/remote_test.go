package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/netboard"
	"tellme/internal/netboard/faultnet"
)

// Shape of the remote-board epoch tests: 32 players of two communities
// over 32 objects.
const remotePlayers, remoteM = 32, 32

// joinAll registers the remote tests' players on e.
func joinAll(t *testing.T, e *Engine) {
	t.Helper()
	for _, v := range twoCommunities(t, remotePlayers/2, remoteM) {
		if _, err := e.Join(v); err != nil {
			t.Fatal(err)
		}
	}
}

// remoteEngine returns an engine over a one-server netboard.Cluster
// whose requests go through rt to a fresh server, with the players
// joined, and the server's board.
func remoteEngine(t *testing.T, rt http.RoundTripper, codec string, parallelism int) (*Engine, *billboard.Board) {
	t.Helper()
	board := billboard.New(remotePlayers, remoteM)
	srv := httptest.NewServer(netboard.NewServer(board))
	t.Cleanup(srv.Close)
	client, err := netboard.FromSpec(srv.URL, netboard.Config{HTTPClient: &http.Client{Transport: rt}, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{M: remoteM, Capacity: remotePlayers, Alpha: 0.4, Seed: 42, Board: client, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	joinAll(t, e)
	return e, board
}

// referenceSnapshots runs a full epoch and then a refresh epoch on an
// in-process engine with the remote tests' players and seed.
func referenceSnapshots(t *testing.T) []*Snapshot {
	t.Helper()
	e, err := New(Config{M: remoteM, Capacity: remotePlayers, Alpha: 0.4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	joinAll(t, e)
	var snaps []*Snapshot
	for i := 0; i < 2; i++ {
		if _, err := e.RunEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, e.Snapshot())
	}
	if snaps[0].Refresh || !snaps[1].Refresh {
		t.Fatalf("reference epochs refresh %v, %v; want a full epoch, then a refresh", snaps[0].Refresh, snaps[1].Refresh)
	}
	return snaps
}

// sameSnapshot fails t unless got publishes what want does.
func sameSnapshot(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got == nil || got.Epoch != want.Epoch || got.Refresh != want.Refresh || got.Stats != want.Stats || len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("snapshot %+v, want %+v", got, want)
	}
	for id, w := range want.Outputs {
		if got.Outputs[id].String() != w.String() {
			t.Fatalf("epoch %d player %d: %s, want %s", want.Epoch, id, got.Outputs[id].String(), w.String())
		}
	}
}

// TestEpochRequestCount pins the requests of a full epoch and of a
// refresh epoch over one server. The epoch's board is the
// engine's own, so its posts and topic drops wait for each phase
// barrier and go out as one request (boardclient.Defer); a wrapper
// that hid the cluster's batch interface would send one request per
// post and per drop. The counts are the
// same under both codecs and at any parallelism, and the snapshots are
// the in-process engine's.
func TestEpochRequestCount(t *testing.T) {
	want := referenceSnapshots(t)
	for _, codec := range []string{"json", "binary"} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par%d", codec, par), func(t *testing.T) {
				meter := faultnet.New(nil, 1)
				e, board := remoteEngine(t, meter, codec, par)
				for i, requests := range []int64{41, 8} {
					before := meter.Delivered()
					if _, err := e.RunEpoch(context.Background()); err != nil {
						t.Fatal(err)
					}
					if got := meter.Delivered() - before; got != requests {
						t.Errorf("epoch %d (refresh %v): %d requests, want %d", i+1, want[i].Refresh, got, requests)
					}
					sameSnapshot(t, e.Snapshot(), want[i])
					if n := board.TopicCount(); n != 0 {
						t.Fatalf("epoch %d left %d topics", i+1, n)
					}
				}
			})
		}
	}
}

// cancelAt cancels an epoch's context as the epoch's k-th request goes
// out and then hands that request on, so the transport sees a
// cancelled context and sends nothing. A request that reaches it with
// a live context completes on the server before the client sees its
// answer: a flush already on the wire when the epoch is cancelled may
// still be applied after the abort's drops, the limit DESIGN.md §10
// records, so this transport cancels no request in flight.
type cancelAt struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	k, n   int
}

// arm resets the request count and cancels with cancel at the k-th.
func (c *cancelAt) arm(cancel context.CancelFunc, k int) {
	c.mu.Lock()
	c.cancel, c.k, c.n = cancel, k, 0
	c.mu.Unlock()
}

func (c *cancelAt) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	if c.n++; c.n == c.k {
		c.cancel()
	}
	c.mu.Unlock()
	if r.Context().Err() == nil {
		r = r.WithContext(context.WithoutCancel(r.Context()))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestCancelledEpochLeavesNoTopic cancels a full epoch over one server
// at each of its requests in turn, until one
// completes, and then a refresh epoch the same way. An aborted epoch
// leaves no topic on the server and publishes nothing, and the epoch
// that completes publishes the undisturbed in-process engine's
// snapshot.
func TestCancelledEpochLeavesNoTopic(t *testing.T) {
	want := referenceSnapshots(t)
	tr := new(cancelAt)
	e, board := remoteEngine(t, tr, "", 0)
	for i := range want {
		aborts := 0
		for k := 1; ; k++ {
			prev := e.Snapshot()
			ctx, cancel := context.WithCancel(context.Background())
			tr.arm(cancel, k)
			_, err := e.RunEpoch(ctx)
			cancel()
			if err == nil {
				break
			}
			aborts++
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("epoch %d, request %d: err = %v, want context.Canceled in chain", i+1, k, err)
			}
			if n := board.TopicCount(); n != 0 {
				t.Fatalf("epoch %d, request %d: %d topics left on the server after an aborted epoch", i+1, k, n)
			}
			if e.Snapshot() != prev {
				t.Fatalf("epoch %d, request %d: an aborted epoch published", i+1, k)
			}
		}
		if aborts == 0 {
			t.Fatalf("epoch %d: no attempt was aborted", i+1)
		}
		t.Logf("epoch %d: %d aborted attempts", i+1, aborts)
		sameSnapshot(t, e.Snapshot(), want[i])
	}
}
