package tellme

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/boardclient"
	"tellme/internal/core"
	"tellme/internal/netboard"
	"tellme/internal/netboard/faultnet"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
)

func TestRunOptionsValidation(t *testing.T) {
	ok := IdenticalInstance(16, 16, 0.5, 1)
	cases := []struct {
		name string
		in   *Instance
		opt  Options
		want string
	}{
		{"nil instance", nil, Options{Alpha: 0.5}, "empty instance"},
		{"empty instance", new(Instance), Options{Alpha: 0.5}, "empty instance"},
		{"alpha zero", ok, Options{Alpha: 0}, "alpha"},
		{"alpha above one", ok, Options{Alpha: 1.5}, "alpha"},
		{"negative D", ok, Options{Alpha: 0.5, D: -1}, "out of"},
		{"D above m", ok, Options{Alpha: 0.5, D: 17}, "out of"},
		{"unknown algorithm", ok, Options{Alpha: 0.5, Algorithm: Algorithm(42)}, "unknown algorithm"},
		{"negative timeout", ok, Options{Alpha: 0.5, Timeout: -time.Second}, "negative timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(tc.in, tc.opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			if rep != nil {
				t.Fatalf("validation error returned a report: %+v", rep)
			}
			var rerr *RunError
			if errors.As(err, &rerr) {
				t.Fatalf("validation failure is a *RunError: %v", err)
			}
		})
	}
}

// panicBoard panics on the victim player's first probe post and
// records which other players got theirs through.
type panicBoard struct {
	boardclient.Interface
	victim int

	mu     sync.Mutex
	posted map[int]bool
}

func (b *panicBoard) post(p int) {
	if p == b.victim {
		panic("player exploded")
	}
	b.mu.Lock()
	b.posted[p] = true
	b.mu.Unlock()
}

func (b *panicBoard) PostProbe(p, o int, val byte) {
	b.post(p)
	b.Interface.PostProbe(p, o, val)
}

func (b *panicBoard) PostProbes(p int, objs []int, grades []byte) {
	b.post(p)
	b.Interface.PostProbes(p, objs, grades)
}

// runHooked runs opt's algorithm on an in-memory board as Run does,
// with hook called before every charged probe, and returns what
// execute returns.
func runHooked(in *Instance, opt Options, hook func(player int)) ([]Partial, error) {
	cfg := core.DefaultConfig()
	src := rng.NewSource(opt.Seed)
	engine := probe.NewEngine(in, billboard.New(in.N, in.M), src.Child("engine", 0), probe.WithProbeHook(hook))
	env := core.NewEnv(engine, sim.NewRunner(opt.Parallelism), src.Child("public", 0), cfg)
	return execute(env, in, opt, cfg)
}

// TestPlayerPanicBecomesRunError checks that a player panic aborts the
// run with a *RunError whose Phase is the sub-algorithm running when it
// happened: the innermost one, not the last one entered.
func TestPlayerPanicBecomesRunError(t *testing.T) {
	small := PlantedInstance(16, 16, 0.5, 2, 1)
	for _, tc := range []struct {
		name string
		in   *Instance
		opt  Options
		// last panics on the run's last charged probe, not on the
		// victim's first post. The engine posts each result once per
		// run, so the last post can come long before the last probe.
		last bool
		want string
	}{
		{"zero", IdenticalInstance(32, 64, 0.5, 9), Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 10}, false, "zeroradius"},
		{"small", small, Options{Algorithm: AlgoSmall, Alpha: 0.5, D: 2, Seed: 1}, true, "smallradius"},
		{"auto", small, Options{Algorithm: AlgoAuto, Alpha: 0.5, Seed: 1}, true, "unknownd"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pb := &panicBoard{Interface: billboard.New(tc.in.N, tc.in.M), posted: map[int]bool{}}
			var outputs []Partial
			var err error
			if tc.last {
				var probes atomic.Int64
				if _, err := runHooked(tc.in, tc.opt, func(int) { probes.Add(1) }); err != nil {
					t.Fatal(err)
				}
				last := probes.Load()
				probes.Store(0)
				outputs, err = runHooked(tc.in, tc.opt, func(int) {
					if probes.Add(1) == last {
						panic("player exploded")
					}
				})
			} else {
				opt := tc.opt
				opt.Board = pb
				var rep *Report
				rep, err = Run(tc.in, opt)
				if rep == nil {
					t.Fatalf("no partial report: %v", err)
				}
				outputs = rep.Outputs
			}
			if err == nil {
				t.Fatal("panicking player produced no error")
			}
			var rerr *RunError
			if !errors.As(err, &rerr) {
				t.Fatalf("err = %T %v, want *RunError", err, err)
			}
			if rerr.Phase != tc.want {
				t.Fatalf("Phase = %q, want %s", rerr.Phase, tc.want)
			}
			var perr *sim.PanicError
			if !errors.As(err, &perr) {
				t.Fatalf("cause = %T %v, want *sim.PanicError in chain", rerr.Cause, rerr.Cause)
			}
			if perr.Value != "player exploded" {
				t.Fatalf("panic value = %v", perr.Value)
			}
			if outputs != nil {
				t.Fatalf("want a partial result without outputs, got %d outputs", len(outputs))
			}
			if tc.last {
				return
			}
			// The barrier still completed: the other workers kept
			// claiming players after the panic, so everyone but the
			// victim posted.
			pb.mu.Lock()
			defer pb.mu.Unlock()
			for p := 0; p < tc.in.N; p++ {
				if p == pb.victim {
					continue
				}
				if !pb.posted[p] {
					t.Fatalf("player %d never posted: barrier abandoned after panic", p)
				}
			}
		})
	}
}

func TestDeadRemoteBoardHitsDeadline(t *testing.T) {
	// A netboard client whose every request vanishes (faultnet drop
	// probability 1) must not spin in retry backoff forever: the run's
	// deadline cancels in-flight requests and backoff waits, the
	// aborted run's cleanup drops share one budget of their own, and
	// the whole run returns a *RunError well within a small multiple of
	// the deadline. LargeRadius and Auto nest their abort sites
	// (ZeroRadius inside SmallRadius inside LargeRadius).
	in := IdenticalInstance(16, 16, 0.5, 11)
	for _, tc := range []struct {
		algo Algorithm
		d    int
	}{
		{AlgoZero, 0},
		{AlgoLarge, 4},
		{AlgoAuto, 0},
	} {
		t.Run(tc.algo.String(), func(t *testing.T) {
			ft := faultnet.New(nil, 7)
			ft.DropRequest = 1.0
			client, err := netboard.FromSpec("http://127.0.0.1:0", netboard.Config{
				HTTPClient:   &http.Client{Transport: ft},
				Retries:      1000,
				RetryBackoff: 50 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}

			const deadline = 100 * time.Millisecond
			start := time.Now()
			rep, err := Run(in, Options{Algorithm: tc.algo, Alpha: 0.5, D: tc.d, Seed: 12, Board: client, Timeout: deadline})
			elapsed := time.Since(start)

			var rerr *RunError
			if !errors.As(err, &rerr) {
				t.Fatalf("err = %T %v, want *RunError", err, err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err chain hides the deadline: %v", err)
			}
			if !rerr.Timeout() {
				t.Fatal("RunError.Timeout() = false for a blown deadline")
			}
			if rep == nil {
				t.Fatal("no partial report")
			}
			// The deadline plus the abort-drop budget is the spec; allow
			// generous CI slack on top.
			if elapsed > 10*deadline {
				t.Fatalf("run took %v against a %v deadline", elapsed, deadline)
			}
			t.Logf("returned after %v", elapsed)
		})
	}
}

// cancelBoard cancels the run's context after the k-th topic post.
type cancelBoard struct {
	boardclient.Interface
	cancel context.CancelFunc

	mu    sync.Mutex
	posts int
	after int
}

func (b *cancelBoard) PostValues(name string, player int, vals []uint32) {
	b.Interface.PostValues(name, player, vals)
	b.mu.Lock()
	b.posts++
	if b.posts == b.after {
		b.cancel()
	}
	b.mu.Unlock()
}

func TestCancelMidZeroRadiusLeavesBoardConsistent(t *testing.T) {
	in := IdenticalInstance(32, 64, 0.5, 13)
	opt := Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 14}

	// Reference: the outputs of an undisturbed run on a fresh board.
	want, err := Run(in, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Aborted run: cancel mid-ZeroRadius, on a board we keep.
	shared := billboard.New(in.N, in.M)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cb := &cancelBoard{Interface: shared, cancel: cancel, after: 5}
	aopt := opt
	aopt.Board = cb
	_, err = RunContext(ctx, in, aopt)
	var rerr *RunError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %T %v, want *RunError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err chain hides the cancellation: %v", err)
	}

	// Consistency 1: the abort path dropped every partially-posted
	// topic, so no in-flight phase state leaks to the next run.
	if n := shared.TopicCount(); n != 0 {
		t.Fatalf("%d topics left on the board after an aborted run", n)
	}

	// Consistency 2: a subsequent run on the same board sees only
	// committed probe postings (which are deterministic ground truth)
	// and reproduces the fresh-board outputs exactly.
	ropt := opt
	ropt.Board = shared
	got, err := Run(in, ropt)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < in.N; p++ {
		if !want.Outputs[p].Equal(got.Outputs[p]) {
			t.Fatalf("player %d output differs after running on the aborted run's board", p)
		}
	}
}

// TestCancelBetweenEpochsReportsLastCompleted pins the anytime
// checkpoint contract: a run cancelled between epochs J and J+1 returns
// a partial Report whose Outputs are byte-identical to a clean run
// stopped at epoch J (OnPhase returning false), and whose
// CompletedEpochs says J — never the aborted epoch's half-written
// outputs, and never one epoch stale.
func TestCancelBetweenEpochsReportsLastCompleted(t *testing.T) {
	in := IdenticalInstance(32, 64, 0.25, 17)
	const stopAt = 2

	// Reference: stop cleanly right after epoch stopAt completes.
	clean, err := Run(in, Options{
		Algorithm: AlgoAnytime,
		Alpha:     0.5,
		Seed:      18,
		OnPhase:   func(ph PhaseInfo) bool { return ph.Phase < stopAt },
	})
	if err != nil {
		t.Fatal(err)
	}
	if clean.CompletedEpochs != stopAt {
		t.Fatalf("clean run completed %d epochs, want %d", clean.CompletedEpochs, stopAt)
	}
	if clean.Outputs == nil {
		t.Fatal("clean run has no outputs")
	}

	// Cancelled run: same seed, but the context dies between epochs —
	// OnPhase keeps going and epoch stopAt+1 aborts on entry.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := RunContext(ctx, in, Options{
		Algorithm: AlgoAnytime,
		Alpha:     0.5,
		Seed:      18,
		OnPhase: func(ph PhaseInfo) bool {
			if ph.Phase == stopAt {
				cancel()
			}
			return true
		},
	})
	var rerr *RunError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %T %v, want *RunError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err chain hides the cancellation: %v", err)
	}
	if rep == nil {
		t.Fatal("no partial report")
	}
	if rep.CompletedEpochs != stopAt {
		t.Fatalf("partial report says %d completed epochs, want %d", rep.CompletedEpochs, stopAt)
	}
	if rep.Outputs == nil {
		t.Fatal("partial report lost the completed epoch's checkpoint")
	}
	for p := 0; p < in.N; p++ {
		if !clean.Outputs[p].Equal(rep.Outputs[p]) {
			t.Fatalf("player %d: cancelled-run output %s differs from clean epoch-%d output %s",
				p, rep.Outputs[p].String(), stopAt, clean.Outputs[p].String())
		}
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	in := IdenticalInstance(16, 16, 0.5, 15)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunContext(ctx, in, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 16})
	var rerr *RunError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %T %v, want *RunError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if rep == nil || rep.Outputs != nil {
		t.Fatalf("want partial report without outputs, got %+v", rep)
	}
}

// cancelAtRequest cancels the run's context as the run's k-th request
// goes out and then hands that request on, so the transport sees a
// cancelled context and sends nothing. A request that reaches it with
// a live context completes on the server before the client sees its
// answer, even when the run is cancelled meanwhile: a flush already on
// the wire when its run is cancelled may still be applied after the
// abort's drops, the limit DESIGN.md §10 records, so this transport
// cancels no request in flight.
type cancelAtRequest struct {
	cancel context.CancelFunc
	k      int64
	n      atomic.Int64
}

func (c *cancelAtRequest) RoundTrip(r *http.Request) (*http.Response, error) {
	if c.n.Add(1) == c.k {
		c.cancel()
	}
	if r.Context().Err() == nil {
		r = r.WithContext(context.WithoutCancel(r.Context()))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestCancelMidZeroRadiusOverNetboard is the networked twin of
// TestCancelMidZeroRadiusLeavesBoardConsistent. It cancels a run over
// one server, and over a 2-shard netboard.Cluster, at each of
// its requests in turn, until one run completes. The rows are
// ZeroRadius and the benchmark's solve-net solve. After each abort no
// server holds a topic, and a rerun against the same servers
// reproduces the fresh-board outputs.
func TestCancelMidZeroRadiusOverNetboard(t *testing.T) {
	for _, tc := range []struct {
		name  string
		in    *Instance
		opt   Options
		phase string // every abort's RunError.Phase; "" when it varies
	}{
		{"zeroradius", IdenticalInstance(32, 64, 0.5, 13), Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 14}, "zeroradius"},
		{"solve-net", PlantedInstance(16, 16, 0.5, 2, 1), Options{Algorithm: AlgoAuto, Alpha: 0.5, Seed: 1}, ""},
	} {
		want, err := Run(tc.in, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		same := func(t *testing.T, got *Report) {
			t.Helper()
			for p := 0; p < tc.in.N; p++ {
				if !want.Outputs[p].Equal(got.Outputs[p]) {
					t.Fatalf("player %d output differs from the fresh-board run", p)
				}
			}
		}
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards%d", tc.name, shards), func(t *testing.T) {
				boards := make([]*billboard.Board, shards)
				urls := make([]string, shards)
				for i := range boards {
					boards[i] = billboard.New(tc.in.N, tc.in.M)
					srv := httptest.NewServer(netboard.NewServer(boards[i]))
					t.Cleanup(srv.Close)
					urls[i] = srv.URL
				}
				spec := strings.Join(urls, ",")
				aborts := 0
				for k := int64(1); ; k++ {
					ctx, cancel := context.WithCancel(context.Background())
					board, err := netboard.FromSpec(spec, netboard.Config{
						HTTPClient: &http.Client{Transport: &cancelAtRequest{cancel: cancel, k: k}},
					})
					if err != nil {
						t.Fatal(err)
					}
					aopt := tc.opt
					aopt.Board = board
					got, err := RunContext(ctx, tc.in, aopt)
					cancel()
					if err == nil {
						// The k-th request came after the run's last one.
						same(t, got)
						break
					}
					aborts++
					var rerr *RunError
					if !errors.As(err, &rerr) || (tc.phase != "" && rerr.Phase != tc.phase) {
						t.Fatalf("request %d: err = %T %v, want *RunError in %q", k, err, err, tc.phase)
					}
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("request %d: err chain hides the cancellation: %v", k, err)
					}
					for i, b := range boards {
						if n := b.TopicCount(); n != 0 {
							t.Fatalf("request %d: %d topics left on shard %d after an aborted run", k, n, i)
						}
					}
					ropt := tc.opt
					ropt.BoardURL = spec
					got, err = Run(tc.in, ropt)
					if err != nil {
						t.Fatalf("request %d: rerun: %v", k, err)
					}
					same(t, got)
				}
				if aborts == 0 {
					t.Fatal("no run was aborted")
				}
				t.Logf("%d aborted runs", aborts)
			})
		}
	}
}

// TestBarrierFlushFailureIsRunError: a shard that refuses every post
// batch fails the run's first send of held posts for good. Posts no
// longer wait for a phase barrier: that send is ZeroRadius's first tally
// read, which carries the posts held before it. Run returns a *RunError
// naming the phase, with the shard's *netboard.TransportError in the
// chain, and the cluster's Err records it.
func TestBarrierFlushFailureIsRunError(t *testing.T) {
	in := IdenticalInstance(32, 64, 0.5, 9)
	t.Run("panicking", func(t *testing.T) {
		var urls []string
		for i := 0; i < 2; i++ {
			h := netboard.NewServer(billboard.New(in.N, in.M))
			var handler http.Handler = h
			if i == 1 {
				handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == netboard.PathPostBatch {
						http.Error(w, "shard down", http.StatusServiceUnavailable)
						return
					}
					h.ServeHTTP(w, r)
				})
			}
			srv := httptest.NewServer(handler)
			t.Cleanup(srv.Close)
			urls = append(urls, srv.URL)
		}
		cl, err := netboard.NewCluster(netboard.ClusterConfig{Shards: urls, Client: netboard.Config{
			Retries: 2, RetryBackoff: time.Millisecond,
		}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(in, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 10, Board: cl})
		var rerr *RunError
		if !errors.As(err, &rerr) || rerr.Phase != "zeroradius" {
			t.Fatalf("err = %T %v, want *RunError in zeroradius", err, err)
		}
		var terr *netboard.TransportError
		if !errors.As(err, &terr) {
			t.Fatalf("err chain has no *netboard.TransportError: %v", err)
		}
		if err := cl.Err(); !errors.As(err, &terr) || cl.Failures() == 0 {
			t.Fatalf("Err() = %v after %d failures, want the refused send's *netboard.TransportError", err, cl.Failures())
		}
	})
}
