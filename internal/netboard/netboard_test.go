package netboard

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/core"
	"tellme/internal/ints"
	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
)

// newPair serves a fresh n×m board and returns it with a one-shard
// Cluster over its server: the single-server board.
func newPair(t *testing.T, n, m int) (*billboard.Board, *Cluster, func()) {
	t.Helper()
	board := billboard.New(n, m)
	srv := httptest.NewServer(NewServer(board))
	return board, dial(t, srv.URL, Config{}), srv.Close
}

// dial returns a one-shard Cluster over the server at url.
func dial(t testing.TB, url string, cfg Config) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{Shards: []string{url}, Client: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// failure runs f and returns the *TransportError it panicked with, or
// nil if it returned. Any other panic goes on.
func failure(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			terr, ok := r.(*TransportError)
			if !ok {
				panic(r)
			}
			err = terr
		}
	}()
	f()
	return nil
}

func TestProbeRoundTrip(t *testing.T) {
	_, c, done := newPair(t, 4, 16)
	defer done()
	if _, ok := c.LookupProbe(1, 5); ok {
		t.Fatal("empty board lookup succeeded")
	}
	c.PostProbe(1, 5, 1)
	v, ok := c.LookupProbe(1, 5)
	if !ok || v != 1 {
		t.Fatalf("lookup = %v,%v", v, ok)
	}
	if c.ProbeCount() != 1 {
		t.Fatalf("ProbeCount = %d", c.ProbeCount())
	}
	m := c.ProbedObjects(1)
	if len(m) != 1 || m[5] != 1 {
		t.Fatalf("ProbedObjects = %v", m)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	_, c, done := newPair(t, 4, 8)
	defer done()
	p, _ := bitvec.PartialFromString("01?1")
	c.Post("topic", 2, p)
	got := c.Postings("topic")
	if len(got) != 1 || got[0].Player != 2 || !got[0].Vec.Equal(p) {
		t.Fatalf("Postings = %+v", got)
	}
	q, _ := bitvec.PartialFromString("0101")
	c.Post("topic", 3, q)
	c.Post("topic", 1, q)
	votes := c.Votes("topic")
	if len(votes) != 2 || votes[0].Count != 2 {
		t.Fatalf("Votes = %+v", votes)
	}
	pop := c.PopularVectors("topic", 2)
	if len(pop) != 1 || !pop[0].Equal(q) {
		t.Fatalf("PopularVectors = %+v", pop)
	}
}

func TestValueRoundTrip(t *testing.T) {
	_, c, done := newPair(t, 4, 8)
	defer done()
	c.PostValues("v", 0, []uint32{1, 2, 3})
	c.PostValues("v", 1, []uint32{1, 2, 3})
	c.PostValues("v", 2, []uint32{9})
	postings := c.ValuePostings("v")
	if len(postings) != 3 {
		t.Fatalf("%d value postings", len(postings))
	}
	votes := c.ValueVotes("v")
	if len(votes) != 2 || votes[0].Count != 2 || votes[0].Vals[2] != 3 {
		t.Fatalf("ValueVotes = %+v", votes)
	}
}

func TestDropTopicAndStats(t *testing.T) {
	_, c, done := newPair(t, 2, 4)
	defer done()
	c.PostVector("a", 0, bitvec.New(4))
	c.PostValues("b", 1, []uint32{1})
	if c.TopicCount() != 2 {
		t.Fatalf("TopicCount = %d", c.TopicCount())
	}
	if c.VectorPostCount() != 2 {
		t.Fatalf("VectorPostCount = %d", c.VectorPostCount())
	}
	c.DropTopic("a")
	if c.TopicCount() != 1 {
		t.Fatal("DropTopic failed")
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(NewServer(billboard.New(4, 8)))
	defer srv.Close()
	c := dial(t, srv.URL, Config{})
	for _, post := range []func(){
		func() { c.PostProbe(99, 0, 1) }, // player out of range
		func() { c.PostProbe(0, 99, 1) }, // object out of range
	} {
		if err := failure(post); err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("expected a 400 error, got %v", err)
		}
	}
	if c.Failures() != 2 {
		t.Fatalf("Failures = %d, want 2", c.Failures())
	}
}

func TestClientPanicsByDefault(t *testing.T) {
	c := dial(t, "http://127.0.0.1:1", Config{}) // nothing listening
	defer func() {
		if _, ok := recover().(*TransportError); !ok {
			t.Fatal("no *TransportError panic on unreachable server")
		}
	}()
	c.ProbeCount()
}

func TestConcurrentClients(t *testing.T) {
	board, c, done := newPair(t, 32, 64)
	defer done()
	var wg sync.WaitGroup
	for p := 0; p < 32; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for o := 0; o < 16; o++ {
				c.PostProbe(p, o, byte(o&1))
			}
			c.PostValues("t", p, []uint32{uint32(p % 3)})
		}(p)
	}
	wg.Wait()
	if board.ProbeCount() != 32*16 {
		t.Fatalf("ProbeCount = %d", board.ProbeCount())
	}
	if len(c.ValueVotes("t")) != 3 {
		t.Fatal("value votes wrong")
	}
}

// TestZeroRadiusOverHTTP is the end-to-end check: the full distributed
// algorithm runs against the remote billboard and produces exactly the
// same outputs as against the in-memory board (the simulation is
// deterministic given the seed, and the board is just shared state).
func TestZeroRadiusOverHTTP(t *testing.T) {
	in := prefs.Identical(64, 64, 0.5, 7)

	run := func(b boardclient.Interface) [][]uint32 {
		e := probe.NewEngine(in, b, rng.NewSource(8))
		env := core.NewEnv(e, sim.NewRunner(4), rng.NewSource(9), core.DefaultConfig())
		players := ints.Iota(in.N)
		objs := ints.Iota(in.M)
		return core.ZeroRadiusBits(env, players, objs, 0.5)
	}

	local := run(billboard.New(in.N, in.M))

	board := billboard.New(in.N, in.M)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	remote := run(dial(t, srv.URL, Config{}))

	for p := 0; p < in.N; p++ {
		for j := 0; j < in.M; j++ {
			if local[p][j] != remote[p][j] {
				t.Fatalf("remote run diverged at player %d object %d", p, j)
			}
		}
	}
	// and the community actually recovered its vector
	c := in.Communities[0]
	for _, p := range c.Members {
		for j := 0; j < in.M; j++ {
			if byte(remote[p][j]) != c.Center.Get(j) {
				t.Fatalf("HTTP run wrong at member %d object %d", p, j)
			}
		}
	}
}

func BenchmarkHTTPProbeRoundTrip(b *testing.B) {
	board := billboard.New(4, 1024)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	c := dial(b, srv.URL, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PostProbe(0, i&1023, 1)
	}
}

func BenchmarkHTTPValueVotes(b *testing.B) {
	board := billboard.New(64, 64)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	c := dial(b, srv.URL, Config{})
	for p := 0; p < 64; p++ {
		c.PostValues("t", p, []uint32{uint32(p % 4), 1, 2})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ValueVotes("t")
	}
}

// flakyHandler fails the first `fails` requests with 500, then proxies.
type flakyHandler struct {
	inner http.Handler
	mu    sync.Mutex
	fails int
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	shouldFail := f.fails > 0
	if shouldFail {
		f.fails--
	}
	f.mu.Unlock()
	if shouldFail {
		http.Error(w, "transient", http.StatusInternalServerError)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func TestClientRetriesTransientFailures(t *testing.T) {
	board := billboard.New(4, 8)
	fh := &flakyHandler{inner: NewServer(board), fails: 2}
	srv := httptest.NewServer(fh)
	defer srv.Close()
	c := dial(t, srv.URL, Config{Retries: 3, RetryBackoff: time.Millisecond})
	c.PostProbe(1, 2, 1) // would panic without retries
	if v, ok := c.LookupProbe(1, 2); !ok || v != 1 {
		t.Fatalf("lookup after retries: %v %v", v, ok)
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	board := billboard.New(4, 8)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	c := dial(t, srv.URL, Config{Retries: 5, RetryBackoff: time.Millisecond})
	start := time.Now()
	if err := failure(func() { c.PostProbe(99, 0, 1) }); err == nil { // 400: must fail once, quickly
		t.Fatal("a 400 did not fail the call")
	}
	if c.Failures() != 1 {
		t.Fatalf("Failures = %d, want 1", c.Failures())
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("4xx was retried with backoff")
	}
}

func TestClientRetriesExhausted(t *testing.T) {
	board := billboard.New(4, 8)
	fh := &flakyHandler{inner: NewServer(board), fails: 100}
	srv := httptest.NewServer(fh)
	defer srv.Close()
	c := dial(t, srv.URL, Config{Retries: 2, RetryBackoff: time.Millisecond})
	got := failure(func() { c.PostProbe(0, 0, 1) })
	if got == nil || !strings.Contains(got.Error(), "500") {
		t.Fatalf("error after exhausted retries: %v", got)
	}
}

func TestClientForEachProbe(t *testing.T) {
	board, c, done := newPair(t, 4, 128)
	defer done()
	for o := 1; o < 128; o += 3 {
		board.PostProbe(2, o, byte(o&1))
	}
	var got []int
	last := -1
	c.ForEachProbe(2, func(o int, g byte) {
		if o <= last {
			t.Fatalf("object %d after %d: not ascending", o, last)
		}
		last = o
		if g != byte(o&1) {
			t.Fatalf("object %d: grade %d", o, g)
		}
		got = append(got, o)
	})
	if want := len(board.ProbedObjects(2)); len(got) != want {
		t.Fatalf("iterated %d objects, want %d", len(got), want)
	}
	// An empty shard iterates nothing.
	c.ForEachProbe(3, func(o int, g byte) { t.Fatalf("unexpected probe %d", o) })
}
