package netboard

// Tests for the hardened wire protocol: server-side input validation,
// method enforcement, batched endpoints, the epoch-tagged topic
// snapshot, request-id deduplication, the failure record, and
// retry/backoff accounting. The fault-injection stress lives in
// stress_test.go.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/netboard/faultnet"
	"tellme/internal/wire"
)

// postJSON sends a raw JSON POST and returns the status code.
func postJSON(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestMutatingHandlersValidateInput: every kind of post-batch entry is
// checked against the board; a bad one, alone in its batch, answers
// 400.
func TestMutatingHandlersValidateInput(t *testing.T) {
	board := billboard.New(4, 8)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()

	cases := []struct {
		name, entry string
	}{
		{"vector player out of range", `{"vector":{"topic":"t","player":99,"bits":"0101"}}`},
		{"vector negative player", `{"vector":{"topic":"t","player":-1,"bits":"0101"}}`},
		{"vector empty topic", `{"vector":{"topic":"","player":0,"bits":"0101"}}`},
		{"values player out of range", `{"values":{"topic":"t","player":99,"vals":[1]}}`},
		{"values negative player", `{"values":{"topic":"t","player":-1,"vals":[1]}}`},
		{"values empty topic", `{"values":{"topic":"","player":0,"vals":[1]}}`},
		{"drop empty topic", `{"drop":{"topic":""}}`},
		{"probes player out of range", `{"probes":{"player":99,"objects":[0],"grades":"1"}}`},
		{"probes object out of range", `{"probes":{"player":0,"objects":[99],"grades":"1"}}`},
		{"probes length mismatch", `{"probes":{"player":0,"objects":[0,1],"grades":"1"}}`},
		{"probes bad grade", `{"probes":{"player":0,"objects":[0],"grades":"x"}}`},
		{"probes grade 7", `{"probes":{"player":0,"objects":[0],"grades":"7"}}`},
	}
	for _, tc := range cases {
		if code := postJSON(t, srv.URL+PathPostBatch, `{"posts":[`+tc.entry+`]}`); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	// Nothing of the above reached the board.
	if board.VectorPostCount() != 0 || board.ProbeCount() != 0 || board.TopicCount() != 0 {
		t.Fatalf("invalid requests mutated the board: %d vectors, %d probes, %d topics",
			board.VectorPostCount(), board.ProbeCount(), board.TopicCount())
	}
}

// TestReadHandlersValidateInput: every read checks its query against
// the board; a missing or out-of-range player, a bad object list or an
// empty topic answers 400.
func TestReadHandlersValidateInput(t *testing.T) {
	srv := httptest.NewServer(NewServer(billboard.New(4, 8)))
	defer srv.Close()
	for _, query := range []string{
		PathProbedObjects + "?player=",
		PathProbedObjects + "?player=4",
		PathProbedObjects + "?player=-1",
		PathBatchLookups + "?player=9&objects=0",
		PathBatchLookups + "?player=0",
		PathBatchLookups + "?player=0&objects=0,8",
		PathBatchLookups + "?player=0&objects=0,x",
		PathPostings + "?topic=",
		PathValuePostings + "?topic=",
		PathTopicSnapshot + "?topic=",
	} {
		resp, err := http.Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", query, resp.StatusCode)
		}
	}
}

func TestReadHandlersRequireGET(t *testing.T) {
	board := billboard.New(4, 8)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()

	paths := []string{
		PathPostings, PathValuePostings,
		PathProbedObjects, PathStats, PathBatchLookups, PathTopicSnapshot,
	}
	for _, path := range paths {
		if code := postJSON(t, srv.URL+path+"?topic=t&player=0&objects=0", `{}`); code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, code)
		}
	}
}

// TestRetiredVoteEndpointsAreGone: tallies travel only in topic
// snapshots; the old per-operation vote reads, and the topic-name list
// of the retired reshard drains, answer 404.
func TestRetiredVoteEndpointsAreGone(t *testing.T) {
	srv := httptest.NewServer(NewServer(billboard.New(4, 8)))
	defer srv.Close()
	for _, path := range []string{"/v1/votes", "/v1/value-votes", "/v1/topics"} {
		resp, err := http.Get(srv.URL + path + "?topic=t")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRetiredWriteEndpointsAreGone: /v1/batch/posts is the one
// endpoint that writes board data; the per-call write endpoints, the
// conditional drop of the retired reshard drains and the single-probe
// lookup answer 404, and the board's one topic stays.
func TestRetiredWriteEndpointsAreGone(t *testing.T) {
	board := billboard.New(4, 8)
	board.PostValues("kept", 1, []uint32{7})
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	for _, path := range []string{"/v1/probe", "/v1/batch/probes", "/v1/vector", "/v1/values", "/v1/drop-topic", "/v1/admin/drop-topic-if"} {
		if code := postJSON(t, srv.URL+path, `{"player":0,"object":0,"value":1,"objects":[0],"grades":"1","topic":"kept","vals":[1],"bits":"0101","vectors":0,"values":1}`); code != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, code)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/probe?player=0&object=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/probe: status %d, want 404", resp.StatusCode)
	}
	if board.ProbeCount() != 0 || board.TopicCount() != 1 || len(board.ValuePostings("kept")) != 1 {
		t.Fatalf("a retired endpoint wrote to the board: %d probes, %d topics, %d value postings in topic kept",
			board.ProbeCount(), board.TopicCount(), len(board.ValuePostings("kept")))
	}
}

func TestBatchProbesParity(t *testing.T) {
	// A batched post+lookup round trip must land on the board exactly
	// like the equivalent singles.
	board, c, done := newPair(t, 4, 64)
	defer done()

	objs := []int{3, 17, 40, 63}
	grades := []byte{1, 0, 1, 1}
	c.PostProbes(2, objs, grades)

	if got := board.ProbeCount(); got != int64(len(objs)) {
		t.Fatalf("ProbeCount = %d, want %d", got, len(objs))
	}
	for k, o := range objs {
		if v, ok := board.LookupProbe(2, o); !ok || v != grades[k] {
			t.Fatalf("object %d: board has (%d,%v), want (%d,true)", o, v, ok, grades[k])
		}
	}

	// Batched lookup: known objects mixed with unknown ones.
	look := []int{3, 4, 40, 5}
	gotGrades := make([]byte, len(look))
	gotKnown := make([]bool, len(look))
	c.LookupProbes(2, look, gotGrades, gotKnown)
	wantKnown := []bool{true, false, true, false}
	wantGrades := []byte{1, 0, 1, 0}
	for k := range look {
		if gotKnown[k] != wantKnown[k] || gotGrades[k] != wantGrades[k] {
			t.Fatalf("lookup[%d] = (%d,%v), want (%d,%v)", k, gotGrades[k], gotKnown[k], wantGrades[k], wantKnown[k])
		}
	}
}

// TestTopicSnapshotStamps pins TopicSnapshot's (gen, epoch) contract on
// the in-memory board and through a client: the current stamp reads
// unchanged with nil tallies, a post moves the epoch and brings full
// tallies, and a dropped and re-created topic gets a new gen, so the
// old stamp never reads unchanged, even once the epoch catches up.
func TestTopicSnapshotStamps(t *testing.T) {
	_, c, done := newPair(t, 8, 8)
	defer done()
	boards := []struct {
		name string
		b    boardclient.Interface
	}{{"board", billboard.New(8, 8)}, {"client", c}}
	for _, bc := range boards {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.b
			b.PostValues("s", 0, []uint32{1, 2})
			b.PostValues("s", 1, []uint32{1, 2})
			vec, _ := bitvec.PartialFromString("01?")
			b.Post("s", 2, vec)
			gen, epoch, unchanged, votes, vals := b.TopicSnapshot("s", 0, 0)
			if unchanged || gen == 0 || len(votes) != 1 || len(vals) != 1 || vals[0].Count != 2 {
				t.Fatalf("first read: gen %d unchanged %v votes %+v vals %+v", gen, unchanged, votes, vals)
			}

			g, e, unchanged, votes, vals := b.TopicSnapshot("s", gen, epoch)
			if !unchanged || g != gen || e != epoch || votes != nil || vals != nil {
				t.Fatalf("same stamp: (%d,%d) unchanged %v votes %+v vals %+v", g, e, unchanged, votes, vals)
			}

			b.PostValues("s", 3, []uint32{9})
			g, e, unchanged, votes, vals = b.TopicSnapshot("s", gen, epoch)
			if unchanged || g != gen || e == epoch || len(votes) != 1 || len(vals) != 2 {
				t.Fatalf("after a post: (%d,%d) unchanged %v votes %+v vals %+v", g, e, unchanged, votes, vals)
			}
			gen, epoch = g, e

			// As many posts as before the drop bring the new topic back to
			// the old epoch; only its gen tells the two apart.
			b.DropTopic("s")
			for p := range 4 {
				b.PostValues("s", 4+p, []uint32{7})
			}
			g, e, unchanged, _, vals = b.TopicSnapshot("s", gen, epoch)
			if unchanged || g == gen || e != epoch || len(vals) != 1 || vals[0].Count != 4 {
				t.Fatalf("after drop and re-create: (%d,%d) from (%d,%d), unchanged %v vals %+v", g, e, gen, epoch, unchanged, vals)
			}
		})
	}
}

func TestSnapshotCacheStaleGenerationMissesAcrossClients(t *testing.T) {
	// Two clients against one server: client A reads a tally, client B
	// drops the topic and posts fresh content at the same epoch. A's next
	// read must see the new content.
	_, a, done := newPair(t, 8, 8)
	defer done()
	bcl := dial(t, a.Shards()[0], Config{})

	a.PostValues("g", 0, []uint32{1})
	if got := a.ValueVotes("g"); len(got) != 1 || got[0].Voters[0] != 0 {
		t.Fatalf("initial votes: %+v", got)
	}
	bcl.DropTopic("g")
	bcl.PostValues("g", 1, []uint32{2}) // recreated topic, epoch 1 again
	got := a.ValueVotes("g")
	if len(got) != 1 || got[0].Voters[0] != 1 || got[0].Vals[0] != 2 {
		t.Fatalf("read the dropped topic's tally: %+v", got)
	}
}

func TestDedupeDo(t *testing.T) {
	d := newDedupe(2)
	applied := 0
	d.Do("a", func() { applied++ })
	d.Do("a", func() { applied++ })
	if applied != 1 {
		t.Fatalf("id applied %d times", applied)
	}
	// Empty ids are never deduplicated.
	d.Do("", func() { applied++ })
	d.Do("", func() { applied++ })
	if applied != 3 {
		t.Fatalf("empty ids: %d", applied)
	}
	// Eviction: capacity 2, so after b and c, a is forgotten.
	d.Do("b", func() {})
	d.Do("c", func() {})
	if !d.Do("a", func() { applied++ }) || applied != 4 {
		t.Fatal("evicted id was still deduplicated")
	}
}

func TestDedupeConcurrentDuplicates(t *testing.T) {
	// Racing duplicates of one id: exactly one applies, the others wait
	// for it rather than racing the mutation.
	d := newDedupe(64)
	var applied atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d.Do(fmt.Sprintf("id%d", i), func() {
					applied.Add(1)
					time.Sleep(time.Microsecond)
				})
			}
		}()
	}
	wg.Wait()
	if applied.Load() != 50 {
		t.Fatalf("applied %d mutations for 50 ids", applied.Load())
	}
}

// commitThenKill applies the first `kills` POSTs on the real board but
// severs the connection before any response bytes are written — the
// "server committed, response lost" failure that makes naive retries
// double-apply.
type commitThenKill struct {
	inner http.Handler
	kills atomic.Int32
}

func (h *commitThenKill) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && h.kills.Add(-1) >= 0 {
		rec := httptest.NewRecorder()
		h.inner.ServeHTTP(rec, r) // the server really commits
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	h.inner.ServeHTTP(w, r)
}

func TestRetryAfterCommitDoesNotDoubleApply(t *testing.T) {
	// Regression for the double-apply bug: the server applies a vector
	// post, the response is lost, the client retries. With request-id
	// dedupe the retry is acknowledged without re-applying.
	board := billboard.New(4, 8)
	h := &commitThenKill{inner: NewServer(board)}
	h.kills.Store(1)
	srv := httptest.NewServer(h)
	defer srv.Close()

	retrying := Config{Retries: 4, RetryBackoff: time.Millisecond}
	c := dial(t, srv.URL, retrying)
	p, _ := bitvec.PartialFromString("0101")
	c.Post("t", 1, p)

	if got := board.VectorPostCount(); got != 1 {
		t.Fatalf("VectorPostCount = %d, want 1 (retry double-applied the post)", got)
	}
	if got := board.Postings("t"); len(got) != 1 {
		t.Fatalf("%d postings, want 1", len(got))
	}

	// Control: with the dedupe window disabled the same schedule
	// double-applies — the window is what fixes the bug.
	board2 := billboard.New(4, 8)
	h2 := &commitThenKill{inner: NewServer(board2, WithDedupeWindow(0))}
	h2.kills.Store(1)
	srv2 := httptest.NewServer(h2)
	defer srv2.Close()
	c2 := dial(t, srv2.URL, retrying)
	c2.Post("t", 1, p)
	if got := board2.VectorPostCount(); got != 2 {
		t.Fatalf("control without dedupe: VectorPostCount = %d, want 2", got)
	}
}

func TestIdempotentBatchProbeRetry(t *testing.T) {
	// Same schedule for the batched probe endpoint; probe posts are
	// first-write-wins anyway, but the counter must not inflate either.
	board := billboard.New(4, 16)
	h := &commitThenKill{inner: NewServer(board)}
	h.kills.Store(1)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := dial(t, srv.URL, Config{Retries: 4, RetryBackoff: time.Millisecond})
	c.PostProbes(0, []int{1, 2, 3}, []byte{1, 0, 1})
	if got := board.ProbeCount(); got != 3 {
		t.Fatalf("ProbeCount = %d, want 3", got)
	}
}

// TestFailureRecord: every terminal failure panics with its
// *TransportError and is recorded. Err keeps the first one, Failures
// counts each failed call, and a bound view shares the record.
func TestFailureRecord(t *testing.T) {
	c := dial(t, "http://127.0.0.1:1", Config{}) // nothing listening
	if c.Err() != nil || c.Failures() != 0 {
		t.Fatalf("fresh cluster already failed: err=%v failures=%d", c.Err(), c.Failures())
	}
	first := failure(func() { c.Postings("t") })
	if first == nil || c.Err() != first || c.Failures() != 1 {
		t.Fatalf("failed call: panic %v, Err %v, Failures %d; want the panic recorded once", first, c.Err(), c.Failures())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	view := c.BindContext(ctx)
	for i, call := range []func(){
		func() { c.LookupProbe(0, 0) },
		func() { c.Votes("t") },
		func() { view.LookupProbes(0, []int{0}, make([]byte, 1), make([]bool, 1)) },
		func() { view.ProbeCount() },
	} {
		if err := failure(call); err == nil || err == first {
			t.Fatalf("call %d: panic %v, want a failure of its own", i, err)
		}
		if got, want := c.Failures(), int64(i+2); got != want || view.Failures() != want {
			t.Fatalf("call %d: Failures %d (view %d), want %d", i, got, view.Failures(), want)
		}
	}
	if c.Err() != first || view.Err() != first {
		t.Fatal("Err did not stick to the first failure")
	}
}

// status500 always fails with an injectable status.
type statusHandler struct{ code int }

func (h statusHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "nope", h.code)
}

func TestRetryAttemptCountAndLinearBackoff(t *testing.T) {
	srv := httptest.NewServer(statusHandler{code: http.StatusInternalServerError})
	defer srv.Close()

	meter := faultnet.New(nil, 1)
	const unit = 10 * time.Millisecond
	c := dial(t, srv.URL, Config{
		HTTPClient:   &http.Client{Transport: meter},
		Retries:      3,
		RetryBackoff: unit,
	})
	var slept []time.Duration
	c.clients[0].sleep = func(d time.Duration) { slept = append(slept, d) }

	if err := failure(func() { c.PostProbe(0, 0, 1) }); err == nil {
		t.Fatal("exhausted retries did not fail the call")
	}
	if got := meter.Delivered(); got != 4 {
		t.Fatalf("delivered %d attempts, want 1 + 3 retries", got)
	}
	if c.Failures() != 1 {
		t.Fatalf("Failures = %d, want 1", c.Failures())
	}
	// Attempt i waits i·RetryBackoff scaled by a jitter factor in
	// [0.5, 1.5), so the linear ramp shows through the randomness.
	if len(slept) != 3 {
		t.Fatalf("backoff slept %v, want 3 waits", slept)
	}
	for i, d := range slept {
		base := time.Duration(i+1) * unit
		lo, hi := base/2, base+base/2
		if d < lo || d >= hi {
			t.Fatalf("backoff attempt %d slept %v, want [%v, %v) (linear in the attempt number, ±50%% jitter)", i+1, d, lo, hi)
		}
	}
}

// TestNoRetryOn4xxCountsOneAttempt: a 4xx ends the call after one
// attempt under either codec — a rejected binary body is not resent in
// another encoding.
func TestNoRetryOn4xxCountsOneAttempt(t *testing.T) {
	srv := httptest.NewServer(statusHandler{code: http.StatusBadRequest})
	defer srv.Close()
	for _, codec := range []string{"json", "binary"} {
		t.Run(codec, func(t *testing.T) {
			meter := faultnet.New(nil, 1)
			c := dial(t, srv.URL, Config{
				HTTPClient: &http.Client{Transport: meter},
				Retries:    5,
				Codec:      codec,
			})
			var slept int
			c.clients[0].sleep = func(time.Duration) { slept++ }

			for _, call := range []func(){func() { c.PostProbe(0, 0, 1) }, func() { c.LookupProbe(0, 0) }} {
				if err := failure(call); err == nil {
					t.Fatal("a 4xx did not fail the call")
				}
			}
			if got := meter.Delivered(); got != 2 {
				t.Fatalf("delivered %d attempts for two 4xx calls, want 2", got)
			}
			if slept != 0 {
				t.Fatalf("4xx slept %d times", slept)
			}
			if c.Failures() != 2 {
				t.Fatalf("Failures = %d, want 2", c.Failures())
			}
		})
	}
}

func TestRetriesKeepOneRequestID(t *testing.T) {
	// All attempts of one logical post must carry the same idempotency
	// key, and distinct posts must carry distinct keys.
	var mu sync.Mutex
	ids := map[string]int{}
	board := billboard.New(4, 8)
	inner := NewServer(board)
	var failFirst atomic.Int32
	failFirst.Store(1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(HeaderRequestID)
		if id == "" {
			t.Error("mutating request without request id")
		}
		mu.Lock()
		ids[id]++
		mu.Unlock()
		if failFirst.Add(-1) >= 0 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := dial(t, srv.URL, Config{Retries: 3, RetryBackoff: time.Millisecond})
	c.PostProbe(0, 0, 1)
	c.PostProbe(0, 1, 1)

	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 2 {
		t.Fatalf("saw %d distinct request ids, want 2 (one per logical post)", len(ids))
	}
	var counts []int
	for _, n := range ids {
		counts = append(counts, n)
	}
	if counts[0]+counts[1] != 3 {
		t.Fatalf("attempt counts %v, want 3 total (one retried once)", counts)
	}
}

// replayingTransport acknowledges every request at once but keeps its
// body's replay function, as a transport does that re-sends a request
// after the caller's Do returned (a duplicating network, a rewind onto
// a fresh connection).
type replayingTransport struct {
	replays []func() (io.ReadCloser, error)
}

func (rt *replayingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rt.replays = append(rt.replays, r.GetBody)
	r.Body.Close()
	return &http.Response{
		StatusCode: http.StatusNoContent,
		Header:     http.Header{HeaderProto: {ProtoVersion}},
		Body:       http.NoBody,
		Request:    r,
	}, nil
}

// TestPostBodyOutlivesTheCall: a request body read after post returned
// must still hold that post's bytes, not a later post's encoding in a
// recycled pooled buffer.
func TestPostBodyOutlivesTheCall(t *testing.T) {
	rt := &replayingTransport{}
	c := dial(t, "http://board.invalid", Config{HTTPClient: &http.Client{Transport: rt}})
	p, _ := bitvec.PartialFromString("0101")
	c.Post("first", 0, p)
	c.Post("second", 1, p)

	body, err := rt.replays[0]()
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	var got postBatch
	if err := wire.JSON.Decode(data, &got); err != nil || len(got.Posts) != 1 || got.Posts[0].Vector == nil || got.Posts[0].Vector.Topic != "first" {
		t.Fatalf("first post's body replayed as %q (decode err %v), want one vector entry with topic \"first\"", data, err)
	}
}
