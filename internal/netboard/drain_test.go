package netboard

// Regression tests for the reshard drain's copy-then-drop window: a
// mutation that commits on the donor *after* the drain snapshotted it
// (a retry whose original response was lost, or a network duplicate)
// must survive the drain — the conditional drop refuses to erase it and
// the converge loop replays it — never be silently lost with the
// departing shard.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/netboard/faultnet"
)

// TestDedupeQuiesceWaitsForInflight: Quiesce must not return while an
// application is still executing, and must return once it finishes.
func TestDedupeQuiesceWaitsForInflight(t *testing.T) {
	d := newDedupe(8)
	started := make(chan struct{})
	release := make(chan struct{})
	go d.Do("id-1", func() {
		close(started)
		<-release
	})
	<-started
	quiesced := make(chan struct{})
	go func() {
		d.Quiesce()
		close(quiesced)
	}()
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned while an application was executing")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-quiesced:
	case <-time.After(2 * time.Second):
		t.Fatal("Quiesce did not return after the application finished")
	}
	// Idle dedupe: Quiesce returns immediately.
	d.Quiesce()
}

// TestRemoveShardLateCommitSurvivesDrain pins the exact interleaving of
// the bug: a posting and a probe result commit on the donor *after* the
// drain snapshotted their keys but before (or after) it issued the
// drop/clear. The donor server's handler injects the late commits at
// the precise seams — a vector posting when the first conditional drop
// arrives (between snapshot and drop), a probe result for an
// already-drained player when the first clear arrives (only a second
// converge pass can see it). With the old unconditional copy-then-drop
// both commits vanished; now both must be on the surviving shard.
func TestRemoveShardLateCommitSurvivesDrain(t *testing.T) {
	// The ring is keyed by the servers' ports. Shard 1 owns none of
	// players 1..7 once in 128 port pairs, and none of 1..31 once in 2^31.
	const n, m, lateObj = 32, 64, 5
	b0 := billboard.New(n, m)
	b1 := billboard.New(n, m)
	srv0 := httptest.NewServer(NewServer(b0))
	t.Cleanup(srv0.Close)

	var lateTopic string
	lateVec := bitvec.New(8)
	lateVec.Set(3, 1)
	inner := NewServer(b1)
	var topicGate, probeGate sync.Once
	srv1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathDropTopicIf:
			// The drain has replayed its snapshot of the topic and is
			// asking to drop it: commit one more posting first.
			topicGate.Do(func() { b1.Post(lateTopic, 7, bitvec.PartialOf(lateVec)) })
		case PathClearProbes:
			// The drain is clearing the seeded player's moved probes:
			// commit a probe for player 0, whom this pass already
			// visited.
			probeGate.Do(func() { b1.PostProbe(0, lateObj, 1) })
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv1.Close)

	cluster, err := NewCluster(ClusterConfig{Shards: []string{srv0.URL, srv1.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := cluster.topo()
	for i := 0; ; i++ {
		if name := fmt.Sprintf("drain/t%d", i); ring.Owner(name) == 1 {
			lateTopic = name
			break
		}
	}
	// The seeded player is one the drain visits after player 0.
	seeded := 0
	for p := 1; p < n && seeded == 0; p++ {
		if ring.PlayerOwner(p) == 1 {
			seeded = p
		}
	}
	if seeded == 0 {
		t.Fatalf("shard 1 owns none of players 1..%d", n-1)
	}

	// Seed the donor: four postings under its topic, one probe result
	// (the seeded player's) so the drain sends a clear.
	for p := 0; p < 4; p++ {
		v := bitvec.New(8)
		v.Set(p%8, 1)
		cluster.PostVector(lateTopic, p, v)
		cluster.PostValues(lateTopic, p, []uint32{uint32(p)})
	}
	cluster.PostProbe(seeded, lateObj, 1)

	if err := cluster.RemoveShard(context.Background(), srv1.URL); err != nil {
		t.Fatal(err)
	}

	if pc, tc := b1.ProbeCount(), b1.TopicCount(); pc != 0 || tc != 0 {
		t.Fatalf("removed shard still holds %d probes, %d topics", pc, tc)
	}
	postings := cluster.Postings(lateTopic)
	if len(postings) != 5 {
		t.Fatalf("topic has %d postings after drain, want 5 (4 seeded + 1 late)", len(postings))
	}
	found := false
	for _, p := range postings {
		if p.Player == 7 && p.Vec.String() == bitvec.PartialOf(lateVec).String() {
			found = true
		}
	}
	if !found {
		t.Fatal("late vector posting was lost by the drain")
	}
	if vals := cluster.ValuePostings(lateTopic); len(vals) != 4 {
		t.Fatalf("topic has %d value postings after drain, want 4", len(vals))
	}
	if v, ok := cluster.LookupProbe(seeded, lateObj); !ok || v != 1 {
		t.Fatalf("seeded probe after drain: (%d, %v), want (1, true)", v, ok)
	}
	if v, ok := cluster.LookupProbe(0, lateObj); !ok || v != 1 {
		t.Fatalf("late probe after drain: (%d, %v), want (1, true) — lost in the clear window", v, ok)
	}
}

// TestRemoveShardFaultnetMidDrain kills connections mid-drain: every
// request to the departing shard — the drain's own snapshot, drop, and
// clear traffic included — can lose its request or its response or be
// delivered twice. Retried drops are deduplicated, re-appearing
// duplicates commit late, and the drain must still converge to an exact
// final state: everything the donor held present on the survivor
// exactly once.
func TestRemoveShardFaultnetMidDrain(t *testing.T) {
	const n, m = 8, 96
	boards := make([]*billboard.Board, 2)
	urls := make([]string, 2)
	for i := range boards {
		boards[i] = billboard.New(n, m)
		srv := httptest.NewServer(NewServer(boards[i]))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	ft := faultnet.New(nil, 20260808)
	ft.DropRequest, ft.DropResponse, ft.Duplicate = 0.15, 0.15, 0.3
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
			JitterSeed:   7,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	topics := []string{"mid/a", "mid/b", "mid/c", "mid/d"}
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
	for p := 0; p < n; p++ {
		var objs []int
		var grades []byte
		for o := p; o < m; o += n {
			objs = append(objs, o)
			grades = append(grades, byte((p+o)%2))
		}
		cluster.PostProbes(p, objs, grades)
	}

	wantProbes := cluster.ProbeCount()
	wantVotes := make(map[string]string)
	for _, name := range topics {
		s := ""
		for _, v := range cluster.Votes(name) {
			s += v.Vec.String() + "|"
			for _, p := range v.Voters {
				s += string(rune('a' + p))
			}
			s += ";"
		}
		wantVotes[name] = s
	}

	if err := cluster.RemoveShard(context.Background(), urls[1]); err != nil {
		t.Fatal(err)
	}

	if got := len(cluster.Shards()); got != 1 {
		t.Fatalf("cluster has %d shards after RemoveShard, want 1", got)
	}
	if pc, tc := boards[1].ProbeCount(), boards[1].TopicCount(); pc != 0 || tc != 0 {
		t.Fatalf("removed shard still holds %d probes, %d topics", pc, tc)
	}
	if got := boards[0].ProbeCount(); got != wantProbes {
		t.Fatalf("survivor holds %d probe results, want %d (lost or duplicated mid-drain)", got, wantProbes)
	}
	for p := 0; p < n; p++ {
		for o := p; o < m; o += n {
			v, ok := boards[0].LookupProbe(p, o)
			if !ok || v != byte((p+o)%2) {
				t.Fatalf("probe (%d,%d) after drain: (%d, %v), want (%d, true)", p, o, v, ok, (p+o)%2)
			}
		}
	}
	for _, name := range topics {
		s := ""
		for _, v := range boards[0].Votes(name) {
			s += v.Vec.String() + "|"
			for _, p := range v.Voters {
				s += string(rune('a' + p))
			}
			s += ";"
		}
		if s != wantVotes[name] {
			t.Fatalf("topic %q after drain:\n got %q\nwant %q", name, s, wantVotes[name])
		}
	}
	if ft.LostResponses() == 0 && ft.DroppedRequests() == 0 {
		t.Fatal("fault injection never fired; the test exercised nothing")
	}
}

// TestClusterReshardFailsUnderOnError pins that a drain fails loudly
// even when Config.OnError is set: a terminal transport failure must
// abort AddShard/RemoveShard with its *TransportError, leave the
// topology and every board untouched, and never reach OnError — a
// drain that took degraded zero values for an empty donor would drop
// topics whose replay had failed, or retire a shard with its data.
func TestClusterReshardFailsUnderOnError(t *testing.T) {
	const n, m = 8, 64
	for _, tc := range []struct {
		name string
		// reshard breaks the cluster's surroundings and runs the drain.
		reshard func(cl *Cluster, servers []*httptest.Server) error
	}{
		{"AddShard onto a shard answering 503", func(cl *Cluster, _ []*httptest.Server) error {
			bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "unavailable", http.StatusServiceUnavailable)
			}))
			defer bad.Close()
			return cl.AddShard(context.Background(), bad.URL)
		}},
		{"RemoveShard of a shard whose server is down", func(cl *Cluster, servers []*httptest.Server) error {
			servers[1].Close()
			return cl.RemoveShard(context.Background(), servers[1].URL)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			boards := []*billboard.Board{billboard.New(n, m), billboard.New(n, m)}
			servers := make([]*httptest.Server, len(boards))
			urls := make([]string, len(boards))
			for i, b := range boards {
				servers[i] = httptest.NewServer(NewServer(b))
				t.Cleanup(servers[i].Close)
				urls[i] = servers[i].URL
			}
			var onErrors atomic.Int64
			cl, err := NewCluster(ClusterConfig{Shards: urls, Client: Config{OnError: func(error) { onErrors.Add(1) }}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				name := fmt.Sprintf("fail/t%d", i)
				v := bitvec.New(8)
				v.Set(i%8, 1)
				cl.PostVector(name, i%n, v)
				cl.PostValues(name, (i+1)%n, []uint32{uint32(i)})
			}
			for p := 0; p < n; p++ {
				objs, grades := make([]int, m), make([]byte, m)
				for o := range objs {
					objs[o], grades[o] = o, byte((p+o)%2)
				}
				cl.PostProbes(p, objs, grades)
			}
			state := func() []string {
				out := make([]string, len(boards))
				for i, b := range boards {
					s := fmt.Sprintf("probes=%d", b.ProbeCount())
					for _, name := range b.Topics() {
						s += fmt.Sprintf(" %s:%d/%d", name, len(b.Postings(name)), len(b.ValuePostings(name)))
					}
					out[i] = s
				}
				return out
			}
			wantShards, wantState := cl.Shards(), state()

			err = tc.reshard(cl, servers)
			var terr *TransportError
			if !errors.As(err, &terr) {
				t.Errorf("reshard returned %v, want an error wrapping *TransportError", err)
			}
			if got := cl.Shards(); fmt.Sprint(got) != fmt.Sprint(wantShards) {
				t.Errorf("shards after a failed drain = %v, want %v", got, wantShards)
			}
			for i, got := range state() {
				if got != wantState[i] {
					t.Errorf("board %d after a failed drain:\n got %s\nwant %s", i, got, wantState[i])
				}
			}
			if got := onErrors.Load(); got != 0 {
				t.Errorf("the drain called OnError %d times, want 0", got)
			}
		})
	}
}
