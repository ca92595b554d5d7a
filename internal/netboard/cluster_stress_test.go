package netboard

// Multi-shard fault-injection stress: a Cluster over several shard
// servers, with one shard's network heavily degraded, must keep the
// sharded billboard exact — zero lost posts, zero double-applied posts
// — exactly like the single-server suite in stress_test.go. Run under
// -race (make stress-cluster and make verify do).

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/netboard/faultnet"
	"tellme/internal/prefs"
)

// hostFaultRouter injects a per-shard fault schedule: requests to the
// degraded host go through its hostile faultnet transport, everything
// else through the clean one. This is how one Cluster http.Client
// degrades exactly one shard.
type hostFaultRouter struct {
	degradedHost string
	degraded     http.RoundTripper
	clean        http.RoundTripper
}

func (h *hostFaultRouter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Host == h.degradedHost {
		return h.degraded.RoundTrip(r)
	}
	return h.clean.RoundTrip(r)
}

// degradedFleet builds a 3-shard cluster whose shard 1 suffers the
// given fault schedule while the other shards' network stays clean.
func degradedFleet(t *testing.T, n, m int, dropReq, dropResp, dup float64) ([]*billboard.Board, *Cluster, *faultnet.Transport) {
	t.Helper()
	boards := make([]*billboard.Board, 3)
	urls := make([]string, 3)
	for i := range boards {
		boards[i] = billboard.New(n, m)
		srv := httptest.NewServer(NewServer(boards[i]))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	ft := faultnet.New(nil, 1234)
	ft.DropRequest, ft.DropResponse, ft.Duplicate = dropReq, dropResp, dup
	ft.MaxDelay = 200 * time.Microsecond
	u, err := url.Parse(urls[1])
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{
		Shards: urls,
		Client: Config{
			HTTPClient:   &http.Client{Transport: &hostFaultRouter{degradedHost: u.Host, degraded: ft, clean: http.DefaultTransport}},
			Retries:      40,
			RetryBackoff: 100 * time.Microsecond,
			JitterSeed:   99,
			// The stress gates run over the binary codec: dropped and
			// duplicated binary frames must stay exactly-once just like
			// JSON ones (the dedupe window is codec-agnostic).
			Codec: "binary",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return boards, cluster, ft
}

// TestClusterFaultnetExactlyOnce hammers a degraded cluster with
// concurrent probe batches and topic posts, then requires the sharded
// board to hold exactly what was issued: every probe readable with its
// grade, shard probe counts summing to the issued total, and every
// topic's vote tally carrying each player exactly once.
func TestClusterFaultnetExactlyOnce(t *testing.T) {
	const players, m, vecPosts = 12, 96, 4
	boards, cluster, ft := degradedFleet(t, 256, m, 0.15, 0.15, 0.3)

	// Each player's probe batch is one request to the shard that owns
	// the player, and the ring is keyed by the servers' random ports.
	// So choose the players by owner: 8 on the degraded shard 1, whose
	// fault schedule injects each kind of fault within its first 8
	// requests, and 2 on each clean shard.
	ring, _ := cluster.topo()
	need := []int{2, 8, 2}
	var ids []int
	for p := 0; len(ids) < players; p++ {
		if s := ring.PlayerOwner(p); need[s] > 0 {
			need[s]--
			ids = append(ids, p)
		}
	}
	// stripe is the probe batch of player ids[i]: every players-th
	// object from i.
	stripe := func(i int) (objs []int, grades []byte) {
		for o := i; o < m; o += players {
			objs = append(objs, o)
			grades = append(grades, byte((ids[i]+o)%2))
		}
		return objs, grades
	}

	var wg sync.WaitGroup
	for i, p := range ids {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			// Interleave batched probe posts with topic traffic, all
			// through the shared cluster.
			objs, grades := stripe(i)
			cluster.PostProbes(p, objs, grades)
			for k := 0; k < vecPosts; k++ {
				v := bitvec.New(8)
				if (p+k)%2 == 0 {
					v.Set(k%8, 1)
				}
				cluster.PostVector("stress/t"+string(rune('0'+k)), p, v)
				cluster.PostValues("stress/v"+string(rune('0'+k)), p, []uint32{uint32(p)})
			}
		}(i, p)
	}
	wg.Wait()

	if ft.DroppedRequests() == 0 || ft.LostResponses() == 0 || ft.Duplicated() == 0 {
		t.Fatalf("fault schedule injected nothing: %d dropped, %d lost, %d duplicated",
			ft.DroppedRequests(), ft.LostResponses(), ft.Duplicated())
	}

	// Zero lost: every issued probe is readable with its grade.
	for i, p := range ids {
		objs, want := stripe(i)
		got := make([]byte, len(objs))
		known := make([]bool, len(objs))
		cluster.LookupProbes(p, objs, got, known)
		for k, o := range objs {
			if !known[k] || got[k] != want[k] {
				t.Fatalf("player %d object %d: got (%d,%v), want (%d,true)", p, o, got[k], known[k], want[k])
			}
		}
	}

	// Zero duplicated: shard probe counts sum to exactly the issued
	// total (a double-applied post would inflate it), and every topic
	// tally carries each player exactly once.
	var sum int64
	for _, b := range boards {
		sum += b.ProbeCount()
	}
	if want := int64(players * (m / players)); sum != want {
		t.Fatalf("probe results across shards sum to %d, want %d", sum, want)
	}
	for k := 0; k < vecPosts; k++ {
		for _, name := range []string{"stress/t" + string(rune('0'+k)), "stress/v" + string(rune('0'+k))} {
			seen := make(map[int]int)
			if name[7] == 't' {
				for _, v := range cluster.Votes(name) {
					for _, p := range v.Voters {
						seen[p]++
					}
				}
			} else {
				for _, v := range cluster.ValueVotes(name) {
					for _, p := range v.Voters {
						seen[p]++
					}
				}
			}
			if len(seen) != players {
				t.Fatalf("topic %s: %d players voted, want %d", name, len(seen), players)
			}
			for p, c := range seen {
				if c != 1 {
					t.Fatalf("topic %s: player %d appears %d times", name, p, c)
				}
			}
		}
	}
	if err := cluster.Err(); err != nil {
		t.Fatalf("cluster went degraded under a recoverable fault schedule: %v", err)
	}
}

// TestClusterFaultnetZeroRadius is the end-to-end acceptance check: a
// full Zero Radius run over a cluster with one heavily degraded shard
// produces byte-identical outputs to the in-memory run — faults change
// timing, never results. Posts travel once per phase, so the degraded
// shard sees one post request per ZeroRadius level plus its share of
// topic reads and drops; 256 players over 256 objects give five levels
// and 31 topics, enough requests for the schedule to fire whichever
// topics the shard happens to own (the hash ring is keyed by the
// servers' random ports).
func TestClusterFaultnetZeroRadius(t *testing.T) {
	in := prefs.Identical(256, 256, 0.5, 5)
	local := runZeroRadius(in, billboard.New(in.N, in.M))

	boards, cluster, ft := degradedFleet(t, in.N, in.M, 0.2, 0.15, 0.25)
	remote := runZeroRadius(in, cluster)

	for p := range local {
		for j := range local[p] {
			if local[p][j] != remote[p][j] {
				t.Fatalf("player %d bit %d differs under shard faults", p, j)
			}
		}
	}
	if ft.DroppedRequests() == 0 && ft.LostResponses() == 0 && ft.Duplicated() == 0 {
		t.Fatal("degraded shard saw no faults; schedule too weak to prove anything")
	}
	ref := billboard.New(in.N, in.M)
	runZeroRadius(in, ref)
	var probes, posts int64
	for _, b := range boards {
		probes += b.ProbeCount()
		posts += b.VectorPostCount()
	}
	if probes != ref.ProbeCount() {
		t.Fatalf("cluster probe results %d, in-memory run %d: posts lost or duplicated", probes, ref.ProbeCount())
	}
	// Value posts are appends, not first-post-wins like probe results:
	// a batch of them applied twice shows up only here.
	if posts != ref.VectorPostCount() {
		t.Fatalf("cluster topic postings %d, in-memory run %d: posts lost or duplicated", posts, ref.VectorPostCount())
	}
}
