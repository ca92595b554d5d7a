package netboard

// Fault-injection stress: the batched, idempotent transport must keep
// the billboard exact — zero lost posts, zero double-applied posts —
// while the network drops requests, loses responses after the server
// committed, duplicates deliveries concurrently, and adds latency.
// Run under -race (make verify does).

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/core"
	"tellme/internal/ints"
	"tellme/internal/netboard/faultnet"
	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
)

// faultClient returns a retrying client whose transport injects the
// given fault schedule.
func faultClient(url string, ft *faultnet.Transport) *Client {
	return NewClientWithConfig(url, Config{
		HTTPClient:   &http.Client{Transport: ft},
		Retries:      40,
		RetryBackoff: 100 * time.Microsecond,
	})
}

func TestFaultScheduleExactlyOnce(t *testing.T) {
	// Concurrent players hammer every mutating endpoint through a
	// hostile transport; afterwards the board must hold exactly the
	// posts issued — nothing lost (retries recovered every drop) and
	// nothing duplicated (request-id dedupe absorbed every re-delivery).
	schedules := []struct {
		name                   string
		dropReq, dropResp, dup float64
	}{
		{"drops", 0.15, 0, 0},
		{"lost-responses", 0, 0.15, 0},
		{"duplicates", 0, 0, 0.3},
		{"everything", 0.1, 0.1, 0.2},
	}
	for si, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			const players, vecPosts, probesPer = 12, 6, 8
			board := billboard.New(players, 64)
			srv := httptest.NewServer(NewServer(board))
			defer srv.Close()

			ft := faultnet.New(nil, int64(1000+si))
			ft.DropRequest = sc.dropReq
			ft.DropResponse = sc.dropResp
			ft.Duplicate = sc.dup
			ft.MaxDelay = 200 * time.Microsecond
			c := faultClient(srv.URL, ft)

			var wg sync.WaitGroup
			for p := 0; p < players; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					part, _ := bitvec.PartialFromString("01?1")
					for i := 0; i < vecPosts; i++ {
						c.Post(fmt.Sprintf("t%d", i%3), p, part)
					}
					objs := make([]int, probesPer)
					grades := make([]byte, probesPer)
					for k := range objs {
						objs[k] = (p*probesPer + k) % 64
						grades[k] = byte(k & 1)
					}
					c.PostProbes(p, objs, grades)
					c.PostValues("vals", p, []uint32{uint32(p)})
				}(p)
			}
			wg.Wait()

			// Zero lost, zero duplicated: the counters are exact.
			if got, want := board.VectorPostCount(), int64(players*(vecPosts+1)); got != want {
				t.Errorf("VectorPostCount = %d, want %d", got, want)
			}
			if got, want := board.ProbeCount(), int64(players*probesPer); got != want {
				t.Errorf("ProbeCount = %d, want %d", got, want)
			}
			for i := 0; i < 3; i++ {
				topic := fmt.Sprintf("t%d", i)
				if got := board.Postings(topic); len(got) != players*vecPosts/3 {
					t.Errorf("topic %s: %d postings, want %d", topic, len(got), players*vecPosts/3)
				}
			}
			if got := board.ValuePostings("vals"); len(got) != players {
				t.Errorf("%d value postings, want %d", len(got), players)
			}
			// The schedule actually fired the faults it claims to cover.
			if sc.dropReq > 0 && ft.DroppedRequests() == 0 {
				t.Error("schedule dropped no requests")
			}
			if sc.dropResp > 0 && ft.LostResponses() == 0 {
				t.Error("schedule lost no responses")
			}
			if sc.dup > 0 && ft.Duplicated() == 0 {
				t.Error("schedule duplicated nothing")
			}
		})
	}
}

func TestZeroRadiusOverFaultyHTTP(t *testing.T) {
	// End to end: the full algorithm over a flaky transport produces the
	// exact same output as the in-memory run. Faults change timing, not
	// results.
	in := prefs.Identical(32, 64, 0.5, 5)
	run := func(b boardclient.Interface) [][]uint32 {
		e := probe.NewEngine(in, b, rng.NewSource(8))
		env := core.NewEnv(e, sim.NewRunner(4), rng.NewSource(9), core.DefaultConfig())
		return core.ZeroRadiusBits(env, ints.Iota(in.N), ints.Iota(in.M), 0.5)
	}
	local := run(billboard.New(in.N, in.M))

	board := billboard.New(in.N, in.M)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	ft := faultnet.New(nil, 77)
	ft.DropRequest, ft.DropResponse, ft.Duplicate = 0.08, 0.08, 0.15
	remote := run(faultClient(srv.URL, ft))

	for p := 0; p < in.N; p++ {
		for j := 0; j < in.M; j++ {
			if local[p][j] != remote[p][j] {
				t.Fatalf("faulty-transport run diverged at player %d object %d", p, j)
			}
		}
	}
	if ft.DroppedRequests()+ft.LostResponses()+ft.Duplicated() == 0 {
		t.Fatal("fault schedule never fired; test proves nothing")
	}
}

func TestFaultnetCounters(t *testing.T) {
	// Unit check of the injector itself against a live server.
	board := billboard.New(4, 8)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()

	// No faults: pure request meter.
	meter := faultnet.New(nil, 1)
	c := NewClientWithConfig(srv.URL, Config{HTTPClient: &http.Client{Transport: meter}})
	c.PostProbe(0, 0, 1)
	c.LookupProbe(0, 0)
	if meter.Delivered() != 2 || meter.DroppedRequests() != 0 || meter.LostResponses() != 0 || meter.Duplicated() != 0 {
		t.Fatalf("meter counters: %d %d %d %d", meter.Delivered(), meter.DroppedRequests(), meter.LostResponses(), meter.Duplicated())
	}

	// DropRequest=1: nothing is ever delivered.
	drop := faultnet.New(nil, 2)
	drop.DropRequest = 1
	var errs int
	c2 := NewClientWithConfig(srv.URL, Config{
		HTTPClient:   &http.Client{Transport: drop},
		Retries:      2,
		RetryBackoff: time.Microsecond,
		OnError:      func(error) { errs++ },
	})
	c2.PostProbe(0, 1, 1)
	if drop.Delivered() != 0 || drop.DroppedRequests() != 3 || errs != 1 {
		t.Fatalf("drop-all: delivered=%d dropped=%d errs=%d", drop.Delivered(), drop.DroppedRequests(), errs)
	}
	if _, ok := board.LookupProbe(0, 1); ok {
		t.Fatal("dropped request reached the board")
	}

	// DropResponse=1: the server commits, the client never hears back.
	lost := faultnet.New(nil, 3)
	lost.DropResponse = 1
	c3 := NewClientWithConfig(srv.URL, Config{
		HTTPClient: &http.Client{Transport: lost},
		OnError:    func(error) {},
	})
	c3.PostProbe(0, 2, 1)
	if lost.LostResponses() != 1 {
		t.Fatalf("LostResponses = %d", lost.LostResponses())
	}
	if _, ok := board.LookupProbe(0, 2); !ok {
		t.Fatal("lost-response request should still have committed")
	}
}

// zeroRadiusOverMeter sets up one full ZeroRadius simulation on the
// 48×256 instance DESIGN.md §8 quotes, against an HTTP billboard whose
// client transport counts delivered requests. run executes the
// simulation and returns that count; setup and stop stay outside it so
// the benchmark times the simulation alone.
func zeroRadiusOverMeter() (run func() int64, stop func()) {
	in := prefs.Identical(48, 256, 0.6, 3)
	board := billboard.New(in.N, in.M)
	srv := httptest.NewServer(NewServer(board))
	meter := faultnet.New(nil, 1)
	c := NewClientWithConfig(srv.URL, Config{HTTPClient: &http.Client{Transport: meter}})
	e := probe.NewEngine(in, c, rng.NewSource(8))
	env := core.NewEnv(e, sim.NewRunner(4), rng.NewSource(9), core.DefaultConfig())
	return func() int64 {
		core.ZeroRadiusBits(env, ints.Iota(in.N), ints.Iota(in.M), 0.5)
		return meter.Delivered()
	}, srv.Close
}

// TestZeroRadiusRequestCount pins the batched protocol's request count
// for one full ZeroRadius run: a protocol change that adds or saves a
// round trip shows up here, not only in BenchmarkNetboardRunBatched's
// requests/op.
func TestZeroRadiusRequestCount(t *testing.T) {
	run, stop := zeroRadiusOverMeter()
	defer stop()
	if got := run(); got != 205 {
		t.Fatalf("ZeroRadius took %d HTTP requests, want 205", got)
	}
}

// BenchmarkNetboardRunBatched measures one full ZeroRadius simulation
// against an HTTP billboard and reports the number of HTTP requests it
// took.
func BenchmarkNetboardRunBatched(b *testing.B) {
	var requests int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run, stop := zeroRadiusOverMeter()
		b.StartTimer()
		n := run()
		b.StopTimer()
		requests += n
		stop()
		b.StartTimer()
	}
	b.ReportMetric(float64(requests)/float64(b.N), "requests/op")
}
