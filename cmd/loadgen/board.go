package main

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/boardclient"
	"tellme/internal/netboard"
	"tellme/internal/telemetry"
)

// boardTarget is the resolved billboard the board plane drives, plus
// everything the run needs to describe and tear it down.
type boardTarget struct {
	board boardclient.Interface
	// kind is the target label for the artifact: "inproc", "server",
	// "cluster(n)", or "local-shards(n)".
	kind string
	// shards is the shard count reported in the capacity table (1 for
	// an unsharded target).
	shards int
	// close tears down any servers this process spawned (nil-safe).
	close func()
}

// resolveTarget builds the board plane's target from the spec
// progression shared with tellmed and the batch facade — nothing (the
// in-process board), one URL (a single netboard server), a
// comma-separated list (a sharded cluster) — plus the
// loadgen-only localShards mode, which spawns that many loopback
// netboard servers in-process and drives them as a cluster over real
// HTTP: the full wire protocol and connection pool under load, no
// external processes to babysit. codec selects the client-side wire
// encoding of the remote targets ("json" or "binary"; moot for the
// in-process board).
func resolveTarget(spec string, localShards, players, m int, codec string, reg *telemetry.Registry) (*boardTarget, error) {
	spec = strings.TrimSpace(spec)
	if localShards > 0 {
		if spec != "" {
			return nil, fmt.Errorf("loadgen: -board and -local-shards are mutually exclusive")
		}
		return spawnLocalShards(localShards, players, m, codec, reg)
	}
	if spec == "" {
		mem := billboard.New(players, m)
		mem.SetTelemetry(reg)
		return &boardTarget{board: mem, kind: "inproc", shards: 1}, nil
	}
	board, err := netboard.FromSpec(spec, netboard.Config{Telemetry: reg, Retries: 2, Codec: codec})
	if err != nil {
		return nil, fmt.Errorf("loadgen: board %q: %w", spec, err)
	}
	if cluster, ok := board.(*netboard.Cluster); ok {
		n := len(cluster.Shards())
		return &boardTarget{board: board, kind: fmt.Sprintf("cluster(%d)", n), shards: n}, nil
	}
	return &boardTarget{board: board, kind: "server", shards: 1}, nil
}

// spawnLocalShards starts n loopback netboard servers and returns a
// cluster client over them. Each shard serves its own board for the
// whole fleet's player ids, but players are partitioned across the
// shards and a board allocates a player's probe row on its first post,
// so a shard holds rows for its own players only, about 1/n of them,
// plus a 4-byte row index per fleet player.
func spawnLocalShards(n, players, m int, codec string, reg *telemetry.Registry) (*boardTarget, error) {
	urls := make([]string, n)
	servers := make([]*http.Server, n)
	closeAll := func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("loadgen: shard %d listen: %w", i, err)
		}
		srv := &http.Server{
			Handler:           netboard.NewServer(billboard.New(players, m)),
			ReadHeaderTimeout: 5 * time.Second,
		}
		servers[i] = srv
		urls[i] = "http://" + ln.Addr().String()
		go srv.Serve(ln)
	}
	cluster, err := netboard.NewCluster(netboard.ClusterConfig{
		Shards: urls,
		Client: netboard.Config{Telemetry: reg, Retries: 2, Codec: codec},
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	return &boardTarget{
		board:  cluster,
		kind:   fmt.Sprintf("local-shards(%d)", n),
		shards: n,
		close:  closeAll,
	}, nil
}
