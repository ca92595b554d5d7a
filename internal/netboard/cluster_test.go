package netboard

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/core"
	"tellme/internal/ints"
	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
	"tellme/internal/telemetry"
)

// newShardFleet starts k independent billboard servers and returns
// their boards, a Cluster over them, and a shutdown func.
func newShardFleet(t *testing.T, k, n, m int, cfg Config) ([]*billboard.Board, *Cluster) {
	t.Helper()
	boards := make([]*billboard.Board, k)
	urls := make([]string, k)
	for i := range boards {
		boards[i] = billboard.New(n, m)
		srv := httptest.NewServer(NewServer(boards[i]))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	cluster, err := NewCluster(ClusterConfig{Shards: urls, Client: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return boards, cluster
}

func runZeroRadius(in *prefs.Instance, b boardclient.Interface) [][]uint32 {
	e := probe.NewEngine(in, b, rng.NewSource(8))
	env := core.NewEnv(e, sim.NewRunner(4), rng.NewSource(9), core.DefaultConfig())
	return core.ZeroRadiusBits(env, ints.Iota(in.N), ints.Iota(in.M), 0.5)
}

func runUnknownD(in *prefs.Instance, b boardclient.Interface) []bitvec.Partial {
	e := probe.NewEngine(in, b, rng.NewSource(8))
	env := core.NewEnv(e, sim.NewRunner(4), rng.NewSource(9), core.DefaultConfig())
	return core.UnknownD(env, 0.5)
}

// TestClusterZeroRadiusOracle is the E1-style byte-identity oracle: a
// full Zero Radius run over a 3-shard cluster must produce exactly the
// outputs of the same seeded run on one in-memory board, and the
// shards' counters must sum to the single board's. Both wire codecs
// must pass the identical oracle — the encoding layer may never change
// results.
func TestClusterZeroRadiusOracle(t *testing.T) {
	in := prefs.Identical(64, 64, 0.5, 7)
	ref := billboard.New(in.N, in.M)
	want := runZeroRadius(in, ref)

	for _, codec := range []string{"json", "binary"} {
		t.Run(codec, func(t *testing.T) {
			boards, cluster := newShardFleet(t, 3, in.N, in.M, Config{Codec: codec})
			got := runZeroRadius(in, cluster)
			for p := range want {
				for j := range want[p] {
					if want[p][j] != got[p][j] {
						t.Fatalf("player %d bit %d: cluster %d, single board %d", p, j, got[p][j], want[p][j])
					}
				}
			}
			var probes, vectors int64
			topics := 0
			nonEmpty := 0
			for _, b := range boards {
				probes += b.ProbeCount()
				vectors += b.VectorPostCount()
				topics += b.TopicCount()
				if b.ProbeCount() > 0 || b.VectorPostCount() > 0 {
					nonEmpty++
				}
			}
			if probes != ref.ProbeCount() || vectors != ref.VectorPostCount() || topics != ref.TopicCount() {
				t.Fatalf("shard totals %d/%d/%d, single board %d/%d/%d",
					probes, vectors, topics, ref.ProbeCount(), ref.VectorPostCount(), ref.TopicCount())
			}
			if cluster.ProbeCount() != probes || cluster.VectorPostCount() != vectors || cluster.TopicCount() != topics {
				t.Fatalf("cluster stats (%d,%d,%d) disagree with shard sums (%d,%d,%d)",
					cluster.ProbeCount(), cluster.VectorPostCount(), cluster.TopicCount(), probes, vectors, topics)
			}
			if nonEmpty < 2 {
				t.Fatalf("only %d shards hold data; the ring routed everything to one shard", nonEmpty)
			}
			if err := cluster.Err(); err != nil {
				t.Fatalf("cluster degraded: %v", err)
			}
		})
	}
}

// TestClusterUnknownDOracle is the E8-style oracle: the full unknown-D
// wrapper (the Fig. 1 dispatcher under the Section 6 doubling loop) on
// a planted instance, cluster vs in-memory, byte-identical.
func TestClusterUnknownDOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full UnknownD run over HTTP")
	}
	in := prefs.Planted(48, 48, 0.5, 4, 21)
	want := runUnknownD(in, billboard.New(in.N, in.M))
	for _, codec := range []string{"json", "binary"} {
		t.Run(codec, func(t *testing.T) {
			_, cluster := newShardFleet(t, 3, in.N, in.M, Config{Codec: codec})
			got := runUnknownD(in, cluster)
			if len(want) != len(got) {
				t.Fatalf("%d outputs vs %d", len(got), len(want))
			}
			for p := range want {
				if !want[p].Equal(got[p]) {
					t.Fatalf("player %d output differs between cluster and single board", p)
				}
			}
		})
	}
}

// TestClusterBatchMergeOrder checks the order contracts of the probe
// reads directly: LookupProbes answers land at their original indices
// and ForEachProbe iterates in ascending object order.
func TestClusterBatchMergeOrder(t *testing.T) {
	const n, m = 4, 64
	_, cluster := newShardFleet(t, 3, n, m, Config{})
	objs := make([]int, m)
	grades := make([]byte, m)
	for o := 0; o < m; o++ {
		objs[o] = o
		grades[o] = byte(o % 2)
	}
	cluster.PostProbes(1, objs, grades)

	gotGrades := make([]byte, m)
	known := make([]bool, m)
	cluster.LookupProbes(1, objs, gotGrades, known)
	for o := 0; o < m; o++ {
		if !known[o] || gotGrades[o] != grades[o] {
			t.Fatalf("object %d: got (%d,%v), want (%d,true)", o, gotGrades[o], known[o], grades[o])
		}
	}

	last := -1
	seen := 0
	cluster.ForEachProbe(1, func(o int, g byte) {
		if o <= last {
			t.Fatalf("ForEachProbe out of order: %d after %d", o, last)
		}
		if g != grades[o] {
			t.Fatalf("object %d grade %d, want %d", o, g, grades[o])
		}
		last = o
		seen++
	})
	if seen != m {
		t.Fatalf("ForEachProbe visited %d objects, want %d", seen, m)
	}
	if got := cluster.ProbedObjects(1); len(got) != m {
		t.Fatalf("ProbedObjects returned %d entries, want %d", len(got), m)
	}
}

// TestClusterReshard drives the static-topology drain both ways: grow
// a loaded 3-shard cluster to 4, shrink it back to 3, and require the
// cluster view (topic tallies, probe lookups, totals) to be identical
// before and after each move — zero lost, zero duplicated.
func TestClusterReshard(t *testing.T) {
	// The ring is keyed by the servers' ports. With 8 players and 5
	// topics the added shard took none of the 13 keys once in 42 port
	// sets; with 64 players, none of 69 once in 4·10^8.
	const n, m = 64, 96
	boards, cluster := newShardFleet(t, 3, n, m, Config{})

	// Load: every player probes a stripe of objects; several topics get
	// vector and value postings.
	for p := 0; p < n; p++ {
		var objs []int
		var grades []byte
		for o := p; o < m; o += n {
			objs = append(objs, o)
			grades = append(grades, byte((p+o)%2))
		}
		cluster.PostProbes(p, objs, grades)
	}
	topics := []string{"zr/a", "zr/b", "sr/c", "sr/d", "lr/e"}
	for ti, name := range topics {
		for p := 0; p < n; p++ {
			v := bitvec.New(8)
			if (p+ti)%2 == 0 {
				v.Set(ti%8, 1)
			}
			cluster.PostVector(name, p, v)
			cluster.PostValues(name, p, []uint32{uint32(p), uint32(ti)})
		}
	}

	snapshot := func() (probes int64, view map[string]string) {
		view = make(map[string]string)
		for _, name := range topics {
			s := ""
			for _, v := range cluster.Votes(name) {
				s += v.Vec.String() + "|"
				for _, p := range v.Voters {
					s += string(rune('a' + p))
				}
				s += ";"
			}
			for _, v := range cluster.ValueVotes(name) {
				for _, x := range v.Vals {
					s += string(rune('0' + x%10))
				}
				s += ";"
			}
			view[name] = s
		}
		return cluster.ProbeCount(), view
	}
	wantProbes, wantView := snapshot()

	// Grow: add a fourth shard and drain moved keys onto it.
	extra := billboard.New(n, m)
	srv := httptest.NewServer(NewServer(extra))
	t.Cleanup(srv.Close)
	if err := cluster.AddShard(context.Background(), srv.URL); err != nil {
		t.Fatal(err)
	}
	if got := len(cluster.Shards()); got != 4 {
		t.Fatalf("cluster has %d shards after AddShard, want 4", got)
	}
	if extra.ProbeCount() == 0 && extra.VectorPostCount() == 0 {
		t.Fatal("added shard received nothing from the drain")
	}
	gotProbes, gotView := snapshot()
	if gotProbes != wantProbes {
		t.Fatalf("probe count after AddShard: %d, want %d", gotProbes, wantProbes)
	}
	for name, want := range wantView {
		if gotView[name] != want {
			t.Fatalf("topic %q changed across AddShard:\n got %q\nwant %q", name, gotView[name], want)
		}
	}
	// The donors cleared what moved: totals across all four boards
	// still sum to the originals (nothing duplicated).
	var sum int64
	for _, b := range append(append([]*billboard.Board(nil), boards...), extra) {
		sum += b.ProbeCount()
	}
	if sum != wantProbes {
		t.Fatalf("probe results across boards sum to %d after AddShard, want %d", sum, wantProbes)
	}

	// Shrink: remove the shard we just added; everything drains back.
	if err := cluster.RemoveShard(context.Background(), srv.URL); err != nil {
		t.Fatal(err)
	}
	if got := len(cluster.Shards()); got != 3 {
		t.Fatalf("cluster has %d shards after RemoveShard, want 3", got)
	}
	// The removed shard holds no live state. (VectorPostCount is
	// cumulative by design — dropped topics fold into it — so it is not
	// expected to return to zero.)
	if pc, tc := extra.ProbeCount(), extra.TopicCount(); pc != 0 || tc != 0 {
		t.Fatalf("removed shard still holds %d probes, %d topics", pc, tc)
	}
	gotProbes, gotView = snapshot()
	if gotProbes != wantProbes {
		t.Fatalf("probe count after RemoveShard: %d, want %d", gotProbes, wantProbes)
	}
	for name, want := range wantView {
		if gotView[name] != want {
			t.Fatalf("topic %q changed across RemoveShard:\n got %q\nwant %q", name, gotView[name], want)
		}
	}
}

// TestClusterConfigValidation covers NewCluster's input checks and
// RemoveShard's guardrails.
func TestClusterConfigValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Fatal("empty shard list accepted")
	}
	if _, err := NewCluster(ClusterConfig{Shards: []string{"http://a", ""}}); err == nil {
		t.Fatal("empty shard URL accepted")
	}
	if _, err := NewCluster(ClusterConfig{Shards: []string{"http://a", "http://a"}}); err == nil {
		t.Fatal("duplicate shard URL accepted")
	}
	cl, err := NewCluster(ClusterConfig{Shards: []string{"http://a"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveShard(context.Background(), "http://b"); err == nil {
		t.Fatal("removing an unknown shard succeeded")
	}
	if err := cl.RemoveShard(context.Background(), "http://a"); err == nil {
		t.Fatal("removing the last shard succeeded")
	}
	if err := cl.AddShard(context.Background(), "http://a"); err == nil {
		t.Fatal("adding a duplicate shard succeeded")
	}
}

// TestFromSpec pins the one board-spec parser: one URL is a Client, a
// comma-separated list is a Cluster, every URL is trimmed, and an empty
// or non-absolute URL is rejected when the board is built.
func TestFromSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string // the client's BaseURL, or the cluster's shards; nil: an error
	}{
		{"http://a:1", []string{"http://a:1"}},
		{" https://a:1\t", []string{"https://a:1"}},
		{"http://a:1,http://b:2", []string{"http://a:1", "http://b:2"}},
		{"http://a:1, http://b:2", []string{"http://a:1", "http://b:2"}},
		{" http://a:1 ,\thttp://b:2 ,http://c:3 ", []string{"http://a:1", "http://b:2", "http://c:3"}},
		{"", nil},
		{" ", nil},
		{"http://a:1,", nil},
		{",http://a:1", nil},
		{"http://a:1, ,http://b:2", nil},
		{"localhost:7070", nil},
		{"/v1/probe", nil},
		{"ftp://a:1", nil},
		{"http://a b:1", nil},
		{"http://a:1,http:// a:1", nil},
		{"http://a:1, http://a:1", nil},
	} {
		b, err := FromSpec(tc.spec, Config{})
		var got []string
		switch b := b.(type) {
		case *Client:
			got = []string{b.BaseURL}
		case *Cluster:
			got = b.Shards()
		}
		if tc.want == nil {
			if err == nil {
				t.Errorf("FromSpec(%q) = %T %v, want an error", tc.spec, b, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("FromSpec(%q): %v", tc.spec, err)
			continue
		}
		if _, isCluster := b.(*Cluster); isCluster != (len(tc.want) > 1) {
			t.Errorf("FromSpec(%q) built a %T", tc.spec, b)
		}
		if strings.Join(got, "|") != strings.Join(tc.want, "|") {
			t.Errorf("FromSpec(%q) addresses %q, want %q", tc.spec, got, tc.want)
		}
	}
}

// TestClusterPerShardTelemetry: every shard's requests come out under
// its own instrument prefix.
func TestClusterPerShardTelemetry(t *testing.T) {
	// Telemetry shared across the per-shard clients via the config.
	reg := telemetry.New()
	const n, m = 64, 64
	_, cluster := newShardFleet(t, 3, n, m, Config{Telemetry: reg})
	objs := make([]int, m)
	grades := make([]byte, m)
	for o := range objs {
		objs[o] = o
	}
	// One player per shard: a player's probes go to its owner alone, and
	// the ring is keyed by the servers' random ports.
	ring, _ := cluster.topo()
	for s := 0; s < 3; s++ {
		p := 0
		for ring.PlayerOwner(p) != s {
			p++
		}
		cluster.PostProbes(p, objs, grades)
	}
	snap := reg.Snapshot()
	perShard := 0
	for i := 0; i < 3; i++ {
		key := "netboard.cluster.shard" + string(rune('0'+i)) + ".requests." + PathPostBatch
		if c, ok := snap.Counters[key]; ok && c > 0 {
			perShard++
		}
	}
	if perShard < 2 {
		t.Fatalf("per-shard request counters present for %d shards, want >=2 (snapshot: %v)", perShard, snap.Counters)
	}
}

// hostCounter is a transport that counts the requests it passes on to
// http.DefaultTransport, per host.
type hostCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func (h *hostCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	h.mu.Lock()
	h.counts[r.URL.Host]++
	h.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

// take returns the counts since the last take and starts over.
func (h *hostCounter) take() map[string]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts := h.counts
	h.counts = make(map[string]int)
	return counts
}

// TestClusterProbeOpsGoToPlayerShard pins probe routing by player on a
// 4-shard cluster, under both codecs: each probe operation of one
// player is one request, to the shard PlayerOwner names, and a post
// batch of probe sets sends one request per shard its players live on.
func TestClusterProbeOpsGoToPlayerShard(t *testing.T) {
	const shards, n, m = 4, 64, 64
	for _, codec := range []string{"json", "binary"} {
		t.Run(codec, func(t *testing.T) {
			hosts := make([]string, shards)
			urls := make([]string, shards)
			for i := range urls {
				srv := httptest.NewServer(NewServer(billboard.New(n, m)))
				t.Cleanup(srv.Close)
				u, err := url.Parse(srv.URL)
				if err != nil {
					t.Fatal(err)
				}
				urls[i], hosts[i] = srv.URL, u.Host
			}
			counter := &hostCounter{counts: make(map[string]int)}
			cl, err := NewCluster(ClusterConfig{Shards: urls, Client: Config{
				Codec:      codec,
				HTTPClient: &http.Client{Transport: counter},
			}})
			if err != nil {
				t.Fatal(err)
			}
			ring, _ := cl.topo()
			// sends checks that op sent one request to each listed shard
			// and none to any other.
			sends := func(op string, do func(), want ...int) {
				t.Helper()
				counter.take()
				do()
				wantCounts := make(map[string]int)
				for _, s := range want {
					wantCounts[hosts[s]]++
				}
				if got := counter.take(); !maps.Equal(got, wantCounts) {
					t.Errorf("%s sent %v requests by host, want %v (shards %v)", op, got, wantCounts, want)
				}
			}

			objs, grades := ints.Iota(m), make([]byte, m)
			for o := range grades {
				grades[o] = byte(o % 2)
			}
			for p := 0; p < 8; p++ {
				s := ring.PlayerOwner(p)
				sends(fmt.Sprint("PostProbes of player ", p), func() { cl.PostProbes(p, objs, grades) }, s)
				gotGrades, known := make([]byte, m), make([]bool, m)
				sends(fmt.Sprint("LookupProbes of player ", p), func() { cl.LookupProbes(p, objs, gotGrades, known) }, s)
				for o := range objs {
					if !known[o] || gotGrades[o] != grades[o] {
						t.Fatalf("player %d object %d: got (%d,%v), want (%d,true)", p, o, gotGrades[o], known[o], grades[o])
					}
				}
				seen := 0
				sends(fmt.Sprint("ForEachProbe of player ", p), func() { cl.ForEachProbe(p, func(int, byte) { seen++ }) }, s)
				var probed map[int]byte
				sends(fmt.Sprint("ProbedObjects of player ", p), func() { probed = cl.ProbedObjects(p) }, s)
				if seen != m || len(probed) != m {
					t.Fatalf("player %d: ForEachProbe visited %d objects, ProbedObjects returned %d, want %d", p, seen, len(probed), m)
				}
				sends(fmt.Sprint("ClearProbes of player ", p), func() { cl.ClearProbes(p, objs) }, s)
				if left := cl.ProbedObjects(p); len(left) != 0 {
					t.Fatalf("player %d keeps %d probes after ClearProbes", p, len(left))
				}
			}

			// Two players on each shard, in player order.
			byShard := make([][]int, shards)
			for p := 0; p < n; p++ {
				s := ring.PlayerOwner(p)
				if len(byShard[s]) < 2 {
					byShard[s] = append(byShard[s], p)
				}
			}
			for s, players := range byShard {
				if len(players) < 2 {
					t.Fatalf("shard %d owns %d of players 0..%d", s, len(players), n-1)
				}
			}
			// A batch of probe sets of the players on shards 0..k-1.
			for k := 1; k <= shards; k++ {
				var posts []boardclient.Post
				var want []int
				for s := 0; s < k; s++ {
					for _, p := range byShard[s] {
						posts = append(posts, boardclient.Post{Kind: boardclient.ProbesPost, Player: p, Objs: objs, Grades: grades})
					}
					want = append(want, s)
				}
				sends(fmt.Sprintf("PostBatch of %d probe sets", len(posts)), func() { cl.PostBatch(posts) }, want...)
			}
		})
	}
}
