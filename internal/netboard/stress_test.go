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
	"reflect"
	"strings"
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

// faultBoard returns a retrying one-shard cluster over the server at
// url whose transport injects the given fault schedule.
func faultBoard(t *testing.T, url string, ft *faultnet.Transport) *Cluster {
	return dial(t, url, Config{
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
			c := faultBoard(t, srv.URL, ft)

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
	remote := run(faultBoard(t, srv.URL, ft))

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
	c := dial(t, srv.URL, Config{HTTPClient: &http.Client{Transport: meter}})
	c.PostProbe(0, 0, 1)
	c.LookupProbe(0, 0)
	if meter.Delivered() != 2 || meter.DroppedRequests() != 0 || meter.LostResponses() != 0 || meter.Duplicated() != 0 {
		t.Fatalf("meter counters: %d %d %d %d", meter.Delivered(), meter.DroppedRequests(), meter.LostResponses(), meter.Duplicated())
	}

	// DropRequest=1: nothing is ever delivered.
	drop := faultnet.New(nil, 2)
	drop.DropRequest = 1
	c2 := dial(t, srv.URL, Config{
		HTTPClient:   &http.Client{Transport: drop},
		Retries:      2,
		RetryBackoff: time.Microsecond,
	})
	err := failure(func() { c2.PostProbe(0, 1, 1) })
	if drop.Delivered() != 0 || drop.DroppedRequests() != 3 || err == nil {
		t.Fatalf("drop-all: delivered=%d dropped=%d err=%v", drop.Delivered(), drop.DroppedRequests(), err)
	}
	if _, ok := board.LookupProbe(0, 1); ok {
		t.Fatal("dropped request reached the board")
	}

	// DropResponse=1: the server commits, the client never hears back.
	lost := faultnet.New(nil, 3)
	lost.DropResponse = 1
	c3 := dial(t, srv.URL, Config{HTTPClient: &http.Client{Transport: lost}})
	if failure(func() { c3.PostProbe(0, 2, 1) }) == nil {
		t.Fatal("a lost response did not fail the call")
	}
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

// phaseCounter is a sim.PhaseRunner that counts the phases it runs.
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

// meteredBoard is the Cluster a metered run posts through.
type meteredBoard interface {
	boardclient.Interface
	boardclient.Batcher
}

// entryCounter is a board that counts the batches with posts its
// PostBatch receives, the posts in them (the batch entries), the probe
// results in those posts, and the reads of every batch, and forwards
// both. It hides the board's BindContext, which would return a view
// that bypasses it; newMeteredEnv's engine binds no context.
type entryCounter struct {
	meteredBoard
	batches, entries, objects, reads atomic.Int64
}

func (c *entryCounter) PostBatch(posts []boardclient.Post, reads []boardclient.Read) {
	if len(posts) > 0 {
		c.batches.Add(1)
	}
	objects := 0
	for i := range posts {
		objects += len(posts[i].Objs)
	}
	c.entries.Add(int64(len(posts)))
	c.objects.Add(int64(objects))
	c.reads.Add(int64(len(reads)))
	c.meteredBoard.PostBatch(posts, reads)
}

// runCost is what a metered run sent and how many phases it ran.
type runCost struct {
	// objects counts the probe results in the batch entries.
	requests, phases, batches, entries, objects, reads int64
	// perShard is the requests by shard, in shard order.
	perShard []int64
}

// overMeter sets up rc against shards HTTP billboards, behind a
// Cluster that counts requests by shard and post-batch entries. run
// executes the simulation and returns its outputs, its cost and the
// bytes of its request bodies; setup and stop stay outside it so the
// benchmark times the simulation alone.
func overMeter(rc meteredRun, shards int, codec string, parallelism int) (boards []*billboard.Board, run func() (string, runCost, int64), stop func()) {
	hosts := make([]string, shards)
	urls := make([]string, shards)
	srvs := make([]*httptest.Server, shards)
	for i := range srvs {
		boards = append(boards, billboard.New(rc.in.N, rc.in.M))
		srvs[i] = httptest.NewServer(NewServer(boards[i]))
		urls[i] = srvs[i].URL
		hosts[i] = srvs[i].Listener.Addr().String()
	}
	meter := &hostCounter{counts: make(map[string]int)}
	b, err := FromSpec(strings.Join(urls, ","), Config{HTTPClient: &http.Client{Transport: meter}, Codec: codec})
	if err != nil {
		panic(err)
	}
	c := &entryCounter{meteredBoard: b}
	env, pc := newMeteredEnv(rc.in, c, parallelism)
	run = func() (string, runCost, int64) {
		out := rc.run(env)
		counts, bodyBytes := meter.take()
		cost := runCost{phases: pc.n, batches: c.batches.Load(), entries: c.entries.Load(), objects: c.objects.Load(), reads: c.reads.Load()}
		for _, h := range hosts {
			cost.requests += int64(counts[h])
			cost.perShard = append(cost.perShard, int64(counts[h]))
		}
		return out, cost, bodyBytes
	}
	stop = func() {
		for _, srv := range srvs {
			srv.Close()
		}
	}
	return boards, run, stop
}

// TestZeroRadiusRequestCount pins the request and phase counts of full
// runs over one server, a one-shard Cluster, and of the solve over a
// 2-shard Cluster: a protocol or schedule change that adds or saves a round
// trip shows up here, not only in the requests/op of
// BenchmarkNetboardRunBatched. Posts and topic drops wait for the next
// read (boardclient.Defer), which carries them (DESIGN.md §8). So a run
// sends requests when it reads, one to each shard that the reads or the
// posts they carry touch, when a held batch passes its size bound, and
// at the run's end: the phase count sets no floor. Sibling sub-algorithm calls share their phases
// (DESIGN.md §3). It also pins the batches with posts and their entries
// as the run hands them to its board, the probe results in those
// entries, and the reads of all its batches: a batch holds one probe
// run per player that posted since the last one, across phases, plus
// its topic posts and drops. The probe engine posts a player's result
// for an object once per run (probe.Player.Probe), so the solve's
// probe results are the 256 pairs of its 16×16 instance, each once, and
// ZeroRadius's 3,072 hold no repeat. The cluster
// routes every key by shard position (DESIGN.md §12), so its per-shard
// counts do not depend on the shards' ports. The counts are the same
// under both codecs and at any parallelism; the outputs and the
// servers' counters equal the in-process run's.
func TestZeroRadiusRequestCount(t *testing.T) {
	for _, tc := range []struct {
		rc   meteredRun
		want runCost
	}{
		{zeroRadiusRow, runCost{requests: 7, phases: 3, batches: 3, entries: 150, objects: 3072, reads: 6, perShard: []int64{7}}},
		{solveRow, runCost{requests: 6, phases: 24, batches: 5, entries: 125, objects: 256, reads: 13, perShard: []int64{6}}},
		{solveRow, runCost{requests: 11, phases: 24, batches: 5, entries: 125, objects: 256, reads: 13, perShard: []int64{6, 5}}},
	} {
		name := tc.rc.name
		if shards := len(tc.want.perShard); shards > 1 {
			name += fmt.Sprintf("-%dshards", shards)
		}
		local := billboard.New(tc.rc.in.N, tc.rc.in.M)
		localEnv, localPhases := newMeteredEnv(tc.rc.in, local, 4)
		wantOut := tc.rc.run(localEnv)
		if localPhases.n != tc.want.phases {
			t.Errorf("%s: %d phases in process, want %d", tc.rc.name, localPhases.n, tc.want.phases)
		}
		for _, codec := range []string{"json", "binary"} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/par%d", name, codec, par), func(t *testing.T) {
					boards, run, stop := overMeter(tc.rc, len(tc.want.perShard), codec, par)
					defer stop()
					out, cost, _ := run()
					if !reflect.DeepEqual(cost, tc.want) {
						t.Errorf("%d HTTP requests (by shard %v) in %d phases, %d post batches of %d entries holding %d probe results, %d reads; want %d (%v) in %d, %d of %d holding %d, %d",
							cost.requests, cost.perShard, cost.phases, cost.batches, cost.entries, cost.objects, cost.reads,
							tc.want.requests, tc.want.perShard, tc.want.phases, tc.want.batches, tc.want.entries, tc.want.objects, tc.want.reads)
					}
					if out != wantOut {
						t.Error("outputs differ from the in-process run")
					}
					var probes, posts int64
					topics := 0
					for _, b := range boards {
						probes += b.ProbeCount()
						posts += b.VectorPostCount()
						topics += b.TopicCount()
					}
					if probes != local.ProbeCount() || posts != local.VectorPostCount() || topics != local.TopicCount() {
						t.Errorf("server probes/posts/topics %d/%d/%d, in-process %d/%d/%d",
							probes, posts, topics, local.ProbeCount(), local.VectorPostCount(), local.TopicCount())
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
	env, _ := newMeteredEnv(prefs.Identical(n, m, 1, 1), dial(t, srv.URL, Config{}), 1)
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

// BenchmarkNetboardRunBatched measures the TestZeroRadiusRequestCount
// runs against HTTP billboards and reports the HTTP requests, the
// phases, the batches with posts, their entries, the probe results in
// those entries and the reads each took, and the bytes of its request
// bodies as body-bytes/op (B/op is the benchmark's own allocation).
func BenchmarkNetboardRunBatched(b *testing.B) {
	for _, row := range []struct {
		name   string
		rc     meteredRun
		shards int
	}{
		{"zeroradius", zeroRadiusRow, 1},
		{"solve", solveRow, 1},
		{"solve-2shards", solveRow, 2},
	} {
		rc := row.rc
		b.Run(row.name, func(b *testing.B) {
			var total runCost
			var bodyBytes int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, run, stop := overMeter(rc, row.shards, "", 4)
				b.StartTimer()
				_, cost, body := run()
				b.StopTimer()
				total.requests += cost.requests
				total.phases += cost.phases
				total.batches += cost.batches
				total.entries += cost.entries
				total.objects += cost.objects
				total.reads += cost.reads
				bodyBytes += body
				stop()
				b.StartTimer()
			}
			b.ReportMetric(float64(total.requests)/float64(b.N), "requests/op")
			b.ReportMetric(float64(total.phases)/float64(b.N), "phases/op")
			b.ReportMetric(float64(total.batches)/float64(b.N), "batches/op")
			b.ReportMetric(float64(total.entries)/float64(b.N), "entries/op")
			b.ReportMetric(float64(total.objects)/float64(b.N), "objects/op")
			b.ReportMetric(float64(total.reads)/float64(b.N), "reads/op")
			b.ReportMetric(float64(bodyBytes)/float64(b.N), "body-bytes/op")
		})
	}
}
