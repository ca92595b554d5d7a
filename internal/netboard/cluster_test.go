package netboard

import (
	"bytes"
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
	"tellme/internal/wire"
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
				t.Fatalf("cluster recorded a failure: %v", err)
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

// TestClusterShardRestartsAtNewAddress: routing is a function of
// shard position, not address. Shard 1 of a loaded 2-shard cluster is
// snapshotted, its server closed, and its board restored behind a new
// server; a cluster listing the new address in position 1 reads back
// every probe row and every topic tally unchanged.
func TestClusterShardRestartsAtNewAddress(t *testing.T) {
	const n, m, topics = 64, 64, 16
	boards := []*billboard.Board{billboard.New(n, m), billboard.New(n, m)}
	srv0 := httptest.NewServer(NewServer(boards[0]))
	t.Cleanup(srv0.Close)
	srv1 := httptest.NewServer(NewServer(boards[1]))
	t.Cleanup(srv1.Close)
	before, err := NewCluster(ClusterConfig{Shards: []string{srv0.URL, srv1.URL}})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		var objs []int
		var grades []byte
		for o := p % 4; o < m; o += 4 {
			objs = append(objs, o)
			grades = append(grades, byte((p+o)%2))
		}
		before.PostProbes(p, objs, grades)
	}
	for ti := 0; ti < topics; ti++ {
		name := fmt.Sprintf("zr#%d", ti)
		for p := 0; p < n; p += 3 {
			v := bitvec.New(8)
			v.Set((p+ti)%8, 1)
			before.PostVector(name, p, v)
			before.PostValues(name, p, []uint32{uint32(p % 5), uint32(ti)})
		}
	}
	// view reads every probe row and every topic tally through cl.
	view := func(cl *Cluster) (rows []map[int]byte, tallies []string) {
		for p := 0; p < n; p++ {
			rows = append(rows, cl.ProbedObjects(p))
		}
		for ti := 0; ti < topics; ti++ {
			name := fmt.Sprintf("zr#%d", ti)
			tallies = append(tallies, fmt.Sprint(cl.Votes(name), cl.ValueVotes(name)))
		}
		return rows, tallies
	}
	wantRows, wantTallies := view(before)
	if boards[1].ProbeCount() == 0 || boards[1].TopicCount() == 0 {
		t.Fatalf("shard 1 holds %d probes and %d topics; the restart would move nothing", boards[1].ProbeCount(), boards[1].TopicCount())
	}

	var state bytes.Buffer
	if err := boards[1].Snapshot(&state); err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	restored, err := billboard.Restore(&state)
	if err != nil {
		t.Fatal(err)
	}
	moved := httptest.NewServer(NewServer(restored))
	t.Cleanup(moved.Close)
	after, err := NewCluster(ClusterConfig{Shards: []string{srv0.URL, moved.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gotRows, gotTallies := view(after)
	for p := range wantRows {
		if !maps.Equal(gotRows[p], wantRows[p]) {
			t.Errorf("player %d: probe row %v after the restart, %v before", p, gotRows[p], wantRows[p])
		}
	}
	for ti := range wantTallies {
		if gotTallies[ti] != wantTallies[ti] {
			t.Errorf("topic zr#%d: tally %s after the restart, %s before", ti, gotTallies[ti], wantTallies[ti])
		}
	}
}

// TestClusterConfigValidation covers NewCluster's input checks.
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
	if _, err := NewCluster(ClusterConfig{Shards: []string{"http://a"}}); err != nil {
		t.Fatal(err)
	}
	// Config.Codec resolves through wire.ByName: a misspelled codec
	// fails the build instead of quietly speaking JSON.
	for _, codec := range []string{"Binary", "JSON", "gob"} {
		if _, err := NewCluster(ClusterConfig{Shards: []string{"http://a"}, Client: Config{Codec: codec}}); err == nil {
			t.Errorf("codec %q accepted", codec)
		}
		if _, err := FromSpec("http://a", Config{Codec: codec}); err == nil {
			t.Errorf("FromSpec accepted codec %q", codec)
		}
	}
	cl, err := NewCluster(ClusterConfig{Shards: []string{"http://a"}, Client: Config{Codec: "binary"}})
	if err != nil || cl.clients[0].codec != wire.Binary {
		t.Fatalf("codec \"binary\": %v", err)
	}
}

// TestFromSpec pins the one board-spec parser: a comma-separated list
// of one or more URLs is a Cluster with those shards, every URL is
// trimmed, and an empty or non-absolute URL is rejected when the board
// is built.
func TestFromSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string // the cluster's shards; nil: an error
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
		if tc.want == nil {
			if err == nil {
				t.Errorf("FromSpec(%q) = %v, want an error", tc.spec, b.Shards())
			}
			continue
		}
		if err != nil {
			t.Errorf("FromSpec(%q): %v", tc.spec, err)
			continue
		}
		if got := b.Shards(); strings.Join(got, "|") != strings.Join(tc.want, "|") {
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
	// One player per shard: a player's probes go to its owner alone.
	for s := 0; s < 3; s++ {
		p := 0
		for playerOwner(p, 3) != s {
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
// player is one request, to the shard playerOwner names, and a post
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
				s := playerOwner(p, shards)
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
				s := playerOwner(p, shards)
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
