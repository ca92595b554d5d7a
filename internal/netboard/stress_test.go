package netboard

// Fault-injection stress: the batched, idempotent transport must keep
// the billboard exact — zero lost posts, zero double-applied posts —
// while the network drops requests, loses responses after the server
// committed, duplicates deliveries concurrently, and adds latency.
// Run under -race (make verify does).

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
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

// meteredRun is one simulation whose HTTP request count is pinned.
type meteredRun struct {
	name string
	in   *prefs.Instance
	// run executes the simulation on env and renders its outputs.
	run func(env *core.Env) string
}

// zeroRadiusRow is ZeroRadius on the 48×256 instance DESIGN.md §8
// quotes.
var zeroRadiusRow = meteredRun{
	name: "zeroradius",
	in:   prefs.Identical(48, 256, 0.6, 3),
	run: func(env *core.Env) string {
		return fmt.Sprint(core.ZeroRadiusBits(env, ints.Iota(env.N), ints.Iota(env.M), 0.5))
	},
}

// solveRow is Run(AlgoAuto) — core.UnknownD — on the instance of the
// benchmark's solve-net workload, PlantedInstance(16, 16, 0.5, 2, 1).
var solveRow = meteredRun{
	name: "solve",
	in:   prefs.Planted(16, 16, 0.5, 2, 1),
	run: func(env *core.Env) string {
		return fmt.Sprint(core.UnknownD(env, 0.5))
	},
}

// phaseCounter is a sim.PhaseRunner that counts the phases it runs:
// a networked run sends its held posts once per phase.
type phaseCounter struct {
	sim.PhaseRunner
	n int64 // phases are started by the one coordinator goroutine
}

func (c *phaseCounter) Phase(ctx context.Context, players []int, f func(p int)) error {
	c.n++
	return c.PhaseRunner.Phase(ctx, players, f)
}

func (c *phaseCounter) PhaseAll(ctx context.Context, n int, f func(p int)) error {
	c.n++
	return c.PhaseRunner.PhaseAll(ctx, n, f)
}

// newMeteredEnv builds the Env a facade run with Seed 1 builds over b,
// with a runner that counts its phases.
func newMeteredEnv(in *prefs.Instance, b boardclient.Interface, parallelism int) (*core.Env, *phaseCounter) {
	src := rng.NewSource(1)
	e := probe.NewEngine(in, b, src.Child("engine", 0))
	pc := &phaseCounter{PhaseRunner: sim.NewRunner(parallelism)}
	return core.NewEnv(e, pc, src.Child("public", 0), core.DefaultConfig()), pc
}

// entryCounter is a Client that counts the post batches its PostBatch
// receives and the posts in them, the batch entries. The Client's
// BindContext would return a view that bypasses it, but
// newMeteredEnv's engine binds no context.
type entryCounter struct {
	*Client
	batches, entries atomic.Int64
}

func (c *entryCounter) PostBatch(posts []boardclient.Post) {
	c.batches.Add(1)
	c.entries.Add(int64(len(posts)))
	c.Client.PostBatch(posts)
}

// runCost is what a metered run sent and how many phases it ran.
type runCost struct {
	requests, phases, batches, entries int64
}

// overMeter sets up rc against an HTTP billboard whose one client
// counts delivered requests and post-batch entries. run executes the
// simulation and returns its outputs and cost; setup and stop stay
// outside it so the benchmark times the simulation alone.
func overMeter(rc meteredRun, codec string, parallelism int) (board *billboard.Board, run func() (string, runCost), stop func()) {
	board = billboard.New(rc.in.N, rc.in.M)
	srv := httptest.NewServer(NewServer(board))
	meter := faultnet.New(nil, 1)
	c := &entryCounter{Client: NewClientWithConfig(srv.URL, Config{HTTPClient: &http.Client{Transport: meter}, Codec: codec})}
	env, pc := newMeteredEnv(rc.in, c, parallelism)
	return board, func() (string, runCost) {
		out := rc.run(env)
		return out, runCost{meter.Delivered(), pc.n, c.batches.Load(), c.entries.Load()}
	}, srv.Close
}

// TestZeroRadiusRequestCount pins the request and phase counts of full
// runs over one netboard.Client: a protocol or schedule change that
// adds or saves a round trip shows up here, not only in the requests/op
// of BenchmarkNetboardRunBatched. Posts and topic drops wait for the
// phase barrier (boardclient.Defer), so a run costs one post request
// per phase that posts or drops, plus its reads (DESIGN.md §8);
// sibling sub-algorithm calls share their phases (DESIGN.md §3). It
// also pins the post batches and their entries: a flush holds one
// probe run per player that probed, plus its topic posts and drops.
// The counts are the same under both codecs and at any parallelism;
// the outputs and the server's counters equal the in-process run's.
func TestZeroRadiusRequestCount(t *testing.T) {
	for _, tc := range []struct {
		rc   meteredRun
		want runCost
	}{
		{zeroRadiusRow, runCost{requests: 9, phases: 3, batches: 3, entries: 150}},
		{solveRow, runCost{requests: 33, phases: 24, batches: 20, entries: 325}},
	} {
		local := billboard.New(tc.rc.in.N, tc.rc.in.M)
		localEnv, localPhases := newMeteredEnv(tc.rc.in, local, 4)
		wantOut := tc.rc.run(localEnv)
		if localPhases.n != tc.want.phases {
			t.Errorf("%s: %d phases in process, want %d", tc.rc.name, localPhases.n, tc.want.phases)
		}
		for _, codec := range []string{"json", "binary"} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/par%d", tc.rc.name, codec, par), func(t *testing.T) {
					board, run, stop := overMeter(tc.rc, codec, par)
					defer stop()
					out, cost := run()
					if cost != tc.want {
						t.Errorf("%d HTTP requests in %d phases, %d post batches of %d entries; want %d in %d, %d of %d",
							cost.requests, cost.phases, cost.batches, cost.entries,
							tc.want.requests, tc.want.phases, tc.want.batches, tc.want.entries)
					}
					if out != wantOut {
						t.Error("outputs differ from the in-process run")
					}
					if board.ProbeCount() != local.ProbeCount() || board.VectorPostCount() != local.VectorPostCount() || board.TopicCount() != local.TopicCount() {
						t.Errorf("server probes/posts/topics %d/%d/%d, in-process %d/%d/%d",
							board.ProbeCount(), board.VectorPostCount(), board.TopicCount(),
							local.ProbeCount(), local.VectorPostCount(), local.TopicCount())
					}
				})
			}
		}
	}
}

// TestRefreshWithoutGroupsLeavesNoTopic: with pairwise-distinct stale
// outputs no consensus group forms, so Refresh runs no phase after it
// drops its stale topic and returns with the drop still held. The end
// of the run's outermost span sends it: the server is left with no
// topic.
func TestRefreshWithoutGroupsLeavesNoTopic(t *testing.T) {
	const n, m = 8, 16
	board := billboard.New(n, m)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	env, _ := newMeteredEnv(prefs.Identical(n, m, 1, 1), NewClient(srv.URL), 1)
	stale := make([]bitvec.Partial, n)
	for p := range stale {
		v := bitvec.New(m)
		v.Set(p, 1)
		stale[p] = bitvec.PartialOf(v)
	}
	out := core.Refresh(env, ints.Iota(n), ints.Iota(m), stale, 0.5, 2, 8)
	for p := range stale {
		if !out[p].Equal(stale[p]) {
			t.Fatalf("player %d output %s, want its stale output %s kept", p, out[p], stale[p])
		}
	}
	if got := board.VectorPostCount(); got != n {
		t.Fatalf("%d stale outputs posted, want %d", got, n)
	}
	if got := board.TopicCount(); got != 0 {
		t.Fatalf("Refresh left %d topics on the server", got)
	}
}

// BenchmarkNetboardRunBatched measures both TestZeroRadiusRequestCount
// runs against an HTTP billboard and reports the HTTP requests, the
// phases and the post-batch entries each took.
func BenchmarkNetboardRunBatched(b *testing.B) {
	for _, rc := range []meteredRun{zeroRadiusRow, solveRow} {
		b.Run(rc.name, func(b *testing.B) {
			var total runCost
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, run, stop := overMeter(rc, "", 4)
				b.StartTimer()
				_, cost := run()
				b.StopTimer()
				total.requests += cost.requests
				total.phases += cost.phases
				total.entries += cost.entries
				stop()
				b.StartTimer()
			}
			b.ReportMetric(float64(total.requests)/float64(b.N), "requests/op")
			b.ReportMetric(float64(total.phases)/float64(b.N), "phases/op")
			b.ReportMetric(float64(total.entries)/float64(b.N), "entries/op")
		})
	}
}
