package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/netboard"
	"tellme/internal/netboard/faultnet"
)

// TestStressChurnClusterMatchesInProcess is the churn stress gate
// (`make stress-churn`): two serving engines with the same seed — one
// on the in-process board, one on a 4-shard cluster whose every request
// crosses a fault-injecting transport (drops, lost responses,
// duplicated deliveries) — are fed the same join/leave-every-epoch
// schedule. Every epoch the published snapshots must be byte-identical,
// and every recommendation must carry the epoch it claims. Afterwards
// the shard boards must hold exactly the reference board's probe state:
// nothing lost to a dropped request, nothing double-applied by a
// duplicated one, no scratch topics leaked over the wire.
func TestStressChurnClusterMatchesInProcess(t *testing.T) {
	const (
		m        = 32
		capacity = 8
		shards   = 4
		epochs   = 6
		seed     = 42
	)
	boards := make([]*billboard.Board, shards)
	urls := make([]string, shards)
	for i := range boards {
		boards[i] = billboard.New(capacity, m)
		srv := httptest.NewServer(netboard.NewServer(boards[i]))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	ft := faultnet.New(nil, 20260809)
	ft.DropRequest, ft.DropResponse, ft.Duplicate = 0.1, 0.1, 0.25
	ft.MaxDelay = 200 * time.Microsecond
	cluster, err := netboard.NewCluster(netboard.ClusterConfig{
		Shards: urls,
		Client: netboard.Config{
			HTTPClient:   &http.Client{Transport: ft},
			Retries:      60,
			RetryBackoff: 100 * time.Microsecond,
			// The churn gate runs its faulty wire over the binary codec;
			// exactness must not depend on the encoding.
			Codec: "binary",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(Config{M: m, Capacity: capacity, Alpha: 0.4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Config{M: m, Capacity: capacity, Alpha: 0.4, Seed: seed, Board: cluster})
	if err != nil {
		t.Fatal(err)
	}
	engines := []*Engine{ref, net}

	// The churn schedule: two balanced communities, and from epoch 2 on
	// the oldest member retires each epoch while a same-community
	// replacement joins — churn at every single boundary.
	type member struct {
		id   uint64
		bits string
	}
	a, b := strings.Repeat("10", m/2), strings.Repeat("01", m/2)
	join := func(bits string) uint64 {
		t.Helper()
		var id uint64
		for i, e := range engines {
			got, err := e.Join(vec(t, bits))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				id = got
			} else if got != id {
				t.Fatalf("engines disagree on join id: %d vs %d", id, got)
			}
		}
		return id
	}
	leave := func(id uint64) {
		t.Helper()
		for _, e := range engines {
			if err := e.Leave(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	var alive []member
	for i := 0; i < 3; i++ {
		alive = append(alive, member{join(a), a}, member{join(b), b})
	}

	for epoch := 1; epoch <= epochs; epoch++ {
		if epoch > 1 {
			old := alive[0]
			alive = alive[1:]
			leave(old.id)
			alive = append(alive, member{join(old.bits), old.bits})
		}
		snaps := make([]*Snapshot, len(engines))
		for i, e := range engines {
			if _, err := e.RunEpoch(context.Background()); err != nil {
				t.Fatalf("epoch %d engine %d: %v", epoch, i, err)
			}
			snaps[i] = e.Snapshot()
			if snaps[i] == nil || snaps[i].Epoch != int64(epoch) {
				t.Fatalf("epoch %d engine %d published %+v", epoch, i, snaps[i])
			}
		}
		if len(snaps[0].Outputs) != len(snaps[1].Outputs) {
			t.Fatalf("epoch %d: %d vs %d outputs", epoch, len(snaps[0].Outputs), len(snaps[1].Outputs))
		}
		for id, w := range snaps[0].Outputs {
			if snaps[1].Outputs[id].String() != w.String() {
				t.Fatalf("epoch %d player %d: in-process %s, cluster %s",
					epoch, id, w.String(), snaps[1].Outputs[id].String())
			}
		}
		// Every recommendation answers from the epoch it claims, with
		// that epoch's bytes.
		for i, e := range engines {
			for id, want := range snaps[i].Outputs {
				out, got, err := e.Recommend(context.Background(), id)
				if err != nil {
					t.Fatalf("epoch %d engine %d recommend %d: %v", epoch, i, id, err)
				}
				if got != snaps[i].Epoch || out.String() != want.String() {
					t.Fatalf("epoch %d engine %d player %d: claimed epoch %d bits %s, snapshot has %s",
						epoch, i, id, got, out.String(), want.String())
				}
			}
		}
	}

	// Exactly-once across the faulty wire: the shard boards together
	// hold precisely the reference board's probe state, and no epoch
	// leaked scratch topics onto any shard.
	for i, b := range boards {
		if tc := b.TopicCount(); tc != 0 {
			t.Fatalf("shard %d holds %d leaked topics", i, tc)
		}
	}
	wantProbes := ref.Board().(*billboard.Board).ProbeCount()
	if got := cluster.ProbeCount(); got != wantProbes {
		t.Fatalf("cluster probe count %d, in-process reference %d (lost or duplicated posts)", got, wantProbes)
	}
	var shardProbes int64
	for _, b := range boards {
		shardProbes += b.ProbeCount()
	}
	if shardProbes != wantProbes {
		t.Fatalf("shard boards hold %d probe results, want %d", shardProbes, wantProbes)
	}
	if ft.DroppedRequests() == 0 && ft.LostResponses() == 0 {
		t.Fatal("fault injection never fired; the stress proved nothing")
	}
}
