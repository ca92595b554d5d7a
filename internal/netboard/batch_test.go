package netboard

// Tests for the post-batch protocol behind deferred posting
// (boardclient.Defer): the /v1/batch/posts endpoint's all-or-nothing
// check and exactly-once apply, the deferred view's early flush under
// the request-body cap, and the body cap itself.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/boardclient"
	"tellme/internal/netboard/faultnet"
	"tellme/internal/wire"
)

// mixedPosts is a batch of every post kind, with topics and probe
// objects spread so a multi-shard cluster splits it. Each player's
// second probe set repeats an object of its own and one of the first
// set, with the other grade: a deferred view's run does that when its
// player probes an object again, and the first grade must stand. The
// drops at the end remove a topic of value postings, drop a topic of
// vectors and post to it again, and drop a topic that never existed.
func mixedPosts() []boardclient.Post {
	vec, _ := bitvec.PartialFromString("01?1")
	var posts []boardclient.Post
	for p := 0; p < 4; p++ {
		g := byte(p & 1)
		posts = append(posts,
			boardclient.Post{Kind: boardclient.ProbesPost, Player: p, Objs: []int{p}, Grades: []byte{g}},
			boardclient.Post{Kind: boardclient.ProbesPost, Player: p, Objs: []int{8, 9, 10, 11, 12, 13, 9, p}, Grades: []byte{1, 0, 1, 1, 0, 0, 1, 1 - g}},
			boardclient.Post{Kind: boardclient.ValuesPost, Topic: fmt.Sprintf("v%d", p%3), Player: p, Vals: []uint32{uint32(p), 7}},
			boardclient.Post{Kind: boardclient.VectorPost, Topic: fmt.Sprintf("t%d", p%2), Player: p, Vec: vec},
		)
	}
	return append(posts,
		boardclient.Post{Kind: boardclient.DropPost, Topic: "v2"},
		boardclient.Post{Kind: boardclient.DropPost, Topic: "t1"},
		boardclient.Post{Kind: boardclient.VectorPost, Topic: "t1", Player: 2, Vec: vec},
		boardclient.Post{Kind: boardclient.DropPost, Topic: "never"},
	)
}

// postOneByOne makes posts through b's per-call methods.
func postOneByOne(b billboard.Interface, posts []boardclient.Post) {
	for _, p := range posts {
		switch p.Kind {
		case boardclient.ProbesPost:
			b.PostProbes(p.Player, p.Objs, p.Grades)
		case boardclient.ValuesPost:
			b.PostValues(p.Topic, p.Player, p.Vals)
		case boardclient.VectorPost:
			b.Post(p.Topic, p.Player, p.Vec)
		case boardclient.DropPost:
			b.DropTopic(p.Topic)
		}
	}
}

// sameBoard fails unless got holds exactly what want holds: probe
// results, and every named topic's postings in posting order.
func sameBoard(t *testing.T, got, want billboard.Interface, topics ...string) {
	t.Helper()
	if got.ProbeCount() != want.ProbeCount() || got.VectorPostCount() != want.VectorPostCount() || got.TopicCount() != want.TopicCount() {
		t.Fatalf("probes/posts/topics %d/%d/%d, want %d/%d/%d",
			got.ProbeCount(), got.VectorPostCount(), got.TopicCount(),
			want.ProbeCount(), want.VectorPostCount(), want.TopicCount())
	}
	for p := 0; p < 4; p++ {
		if g, w := fmt.Sprint(got.ProbedObjects(p)), fmt.Sprint(want.ProbedObjects(p)); g != w {
			t.Fatalf("player %d probes %s, want %s", p, g, w)
		}
	}
	for _, topic := range topics {
		gp, wp := got.Postings(topic), want.Postings(topic)
		if len(gp) != len(wp) {
			t.Fatalf("topic %s: %d postings, want %d", topic, len(gp), len(wp))
		}
		for i := range gp {
			if gp[i].Player != wp[i].Player || !gp[i].Vec.Equal(wp[i].Vec) {
				t.Fatalf("topic %s posting %d: %d %s, want %d %s", topic, i, gp[i].Player, gp[i].Vec, wp[i].Player, wp[i].Vec)
			}
		}
		if g, w := fmt.Sprint(got.ValuePostings(topic)), fmt.Sprint(want.ValuePostings(topic)); g != w {
			t.Fatalf("topic %s value postings %s, want %s", topic, g, w)
		}
	}
}

var mixedTopics = []string{"v0", "v1", "v2", "t0", "t1"}

// TestPostBatchMatchesPerCallPosts: a batch applies exactly as its
// posts made one by one, under both codecs, on one server (a one-shard
// Cluster, the "client" rows) and split across three shards — one
// request per touched shard.
func TestPostBatchMatchesPerCallPosts(t *testing.T) {
	want := billboard.New(4, 16)
	postOneByOne(want, mixedPosts())
	for _, codec := range []string{"json", "binary"} {
		t.Run(codec+"/client", func(t *testing.T) {
			board := billboard.New(4, 16)
			meter := faultnet.New(nil, 1)
			meteredCluster(t, []*billboard.Board{board}, meter, codec).PostBatch(mixedPosts())
			if meter.Delivered() != 1 {
				t.Fatalf("batch took %d requests, want 1", meter.Delivered())
			}
			sameBoard(t, board, want, mixedTopics...)
		})
		t.Run(codec+"/cluster", func(t *testing.T) {
			boards := []*billboard.Board{billboard.New(4, 16), billboard.New(4, 16), billboard.New(4, 16)}
			meter := faultnet.New(nil, 1)
			cl := meteredCluster(t, boards, meter, codec)
			cl.PostBatch(mixedPosts())
			touched := 0
			for _, b := range boards {
				if b.ProbeCount() > 0 || b.VectorPostCount() > 0 {
					touched++
				}
			}
			if touched < 2 || meter.Delivered() != int64(touched) {
				t.Fatalf("batch took %d requests over %d touched shards, want one per touched shard (at least 2)", meter.Delivered(), touched)
			}
			sameBoard(t, cl, want, mixedTopics...)
		})
	}
}

// meteredCluster serves boards behind fresh servers and returns a
// cluster over them whose transport counts delivered requests.
func meteredCluster(t *testing.T, boards []*billboard.Board, meter *faultnet.Transport, codec string) *Cluster {
	t.Helper()
	urls := make([]string, len(boards))
	for i, b := range boards {
		srv := httptest.NewServer(NewServer(b))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	cl, err := NewCluster(ClusterConfig{Shards: urls, Client: Config{HTTPClient: &http.Client{Transport: meter}, Codec: codec}})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestPostBatchIsAllOrNothing: one bad post rejects the whole batch
// with 400 before anything applies.
func TestPostBatchIsAllOrNothing(t *testing.T) {
	board := billboard.New(4, 8)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	good := `{"probes":{"player":0,"objects":[1],"grades":"1"}},{"values":{"topic":"v","player":1,"vals":[3]}}`
	for name, bad := range map[string]string{
		"player out of range": `{"vector":{"topic":"t","player":99,"bits":"01"}}`,
		"object out of range": `{"probes":{"player":0,"objects":[99],"grades":"1"}}`,
		"bad grade":           `{"probes":{"player":0,"objects":[2],"grades":"7"}}`,
		"empty topic":         `{"values":{"topic":"","player":0,"vals":[1]}}`,
		"empty drop topic":    `{"drop":{"topic":""}}`,
		"no kind":             `{}`,
		"single-probe entry":  `{"probe":{"player":0,"object":2,"value":1}}`,
		"two kinds":           `{"probes":{"player":0,"objects":[2],"grades":"1"},"values":{"topic":"v","player":0,"vals":[1]}}`,
	} {
		body := `{"posts":[` + good + `,` + bad + `]}`
		if code := postJSON(t, srv.URL+PathPostBatch, body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if board.ProbeCount() != 0 || board.VectorPostCount() != 0 || board.TopicCount() != 0 {
		t.Fatalf("rejected batches mutated the board: %d probes, %d posts, %d topics",
			board.ProbeCount(), board.VectorPostCount(), board.TopicCount())
	}
}

// TestPostBatchAppliesOncePerRequestID: a batch re-delivered under its
// request id — a retry after a lost response, a duplicated delivery —
// applies once; its value and vector posts would otherwise double.
func TestPostBatchAppliesOncePerRequestID(t *testing.T) {
	board := billboard.New(4, 16)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	data, err := wire.JSON.Append(nil, &postBatch{Posts: []batchPost{
		wirePost(&boardclient.Post{Kind: boardclient.ValuesPost, Topic: "v", Player: 1, Vals: []uint32{4}}),
		wirePost(&boardclient.Post{Kind: boardclient.ProbesPost, Player: 2, Objs: []int{3}, Grades: []byte{1}}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, srv.URL+PathPostBatch, strings.NewReader(string(data)))
			req.Header.Set(HeaderRequestID, "batch-1")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Errorf("status %d, want 204", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if board.VectorPostCount() != 1 || board.ProbeCount() != 1 {
		t.Fatalf("four deliveries of one batch left %d value posts and %d probes, want 1 and 1", board.VectorPostCount(), board.ProbeCount())
	}
}

// TestDeferredFlushSplitsOverBodyCap: posts whose encoding exceeds the
// request-body cap, held by one deferred view and flushed once, arrive
// as several requests, each under the cap, and leave the board exactly
// as posting them one by one does.
func TestDeferredFlushSplitsOverBodyCap(t *testing.T) {
	const bits = 1 << 20 // one byte per coordinate in JSON
	big, _ := bitvec.PartialFromString(strings.Repeat("01?", bits/3))
	var posts []boardclient.Post
	for p := 0; p < 12; p++ {
		posts = append(posts,
			boardclient.Post{Kind: boardclient.VectorPost, Topic: fmt.Sprintf("t%d", p%2), Player: p % 4, Vec: big},
			boardclient.Post{Kind: boardclient.ProbesPost, Player: p % 4, Objs: []int{p, p + 12}, Grades: []byte{1, 0}},
			boardclient.Post{Kind: boardclient.ValuesPost, Topic: "v0", Player: p % 4, Vals: []uint32{uint32(p)}},
		)
	}
	want := billboard.New(4, 32)
	postOneByOne(want, posts)

	board := billboard.New(4, 32)
	var (
		mu      sync.Mutex
		bodies  []int64
		handler = NewServer(board)
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathPostBatch {
			mu.Lock()
			bodies = append(bodies, r.ContentLength)
			mu.Unlock()
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	view := boardclient.Defer(dial(t, srv.URL, Config{}))
	postOneByOne(view, posts)
	view.(interface{ Flush() }).Flush()

	var total int64
	for _, n := range bodies {
		if n <= 0 || n > wire.MaxBodyBytes {
			t.Fatalf("a post batch of %d bytes; every one must be under the %d-byte cap", n, wire.MaxBodyBytes)
		}
		total += n
	}
	if len(bodies) < 2 || total <= wire.MaxBodyBytes {
		t.Fatalf("%d requests of %d bytes in all; want a flush over the %d-byte cap split into several", len(bodies), total, wire.MaxBodyBytes)
	}
	sameBoard(t, board, want, "t0", "t1", "v0")
}

// TestOverCapBodyIs413: a request body past wire.MaxBodyBytes is
// refused with 413 and leaves the board unchanged, whether its length
// is declared up front or only found while reading a chunked body.
func TestOverCapBodyIs413(t *testing.T) {
	board := billboard.New(4, 8)
	srv := httptest.NewServer(NewServer(board))
	defer srv.Close()
	n := wire.MaxBodyBytes / 2
	body := `{"posts":[{"probes":{"player":0,"objects":[` + strings.Repeat("0,", n) + `0],"grades":"` + strings.Repeat("1", n+1) + `"}}]}`
	for _, declared := range []bool{true, false} {
		var r io.Reader = strings.NewReader(body)
		if !declared {
			r = io.MultiReader(r) // hides the length: sent chunked
		}
		resp, err := http.Post(srv.URL+PathPostBatch, "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("declared length %v: status %d, want 413", declared, resp.StatusCode)
		}
	}
	if board.ProbeCount() != 0 {
		t.Fatalf("an over-cap body reached the board: %d probes", board.ProbeCount())
	}
}

// TestShortLookupReplyFails: a batch-lookup reply with fewer grades
// than objects asked for fails the call, and is recorded, rather than
// answering for objects the server never looked up.
func TestShortLookupReplyFails(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderProto, ProtoVersion)
		w.Header().Set("Content-Type", wire.MediaJSON)
		io.WriteString(w, `{"grades":"1"}`)
	}))
	defer srv.Close()
	c := dial(t, srv.URL, Config{})
	err := failure(func() { c.LookupProbes(0, []int{0, 1, 2}, make([]byte, 3), make([]bool, 3)) })
	if err == nil || !strings.Contains(err.Error(), "1 grades for 3 objects") {
		t.Fatalf("short lookup reply failed with %v, want the grade count mismatch", err)
	}
	if c.Err() != err || c.Failures() != 1 {
		t.Fatalf("failed lookup not recorded: Err %v, Failures %d", c.Err(), c.Failures())
	}
}
