// Distributed: the billboard as an actual network service.
//
// The paper's players communicate only through a shared public board.
// This example starts a billboard HTTP server (the same one
// cmd/billboard runs standalone) and executes Algorithm Zero Radius
// against it three times:
//
//  1. over the batched wire protocol,
//  2. over a deliberately hostile transport that drops requests, loses
//     responses after the server committed, and duplicates deliveries,
//  3. over a three-shard cluster: topics and probe columns spread
//     across three independent billboard servers by consistent
//     hashing, behind the same boardclient interface.
//
// All three runs produce byte-identical outputs: the simulation is
// deterministic, the client's idempotent retries make the faults
// invisible — the server's counters prove no post was lost or applied
// twice — and sharding only changes where each key lives, not what any
// player observes.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"reflect"
	"time"

	"tellme"
	"tellme/internal/billboard"
	"tellme/internal/boardclient"
	"tellme/internal/netboard"
	"tellme/internal/netboard/faultnet"
)

const (
	players = 48
	objects = 256
)

// serve starts a fresh billboard service on an ephemeral local port.
func serve() (*billboard.Board, string, func()) {
	board := billboard.New(players, objects)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, netboard.NewServer(board))
	return board, "http://" + ln.Addr().String(), func() { ln.Close() }
}

// runOn executes Zero Radius against the given board client.
func runOn(inst *tellme.Instance, board boardclient.Interface) *tellme.Report {
	rep, err := tellme.Run(inst, tellme.Options{
		Algorithm: tellme.AlgoZero,
		Alpha:     0.6,
		Seed:      4,
		Board:     board, // every billboard access goes through it
	})
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

// run executes Zero Radius through one single-server client built from
// cfg and returns the report plus how many HTTP requests it issued.
func run(inst *tellme.Instance, url string, cfg netboard.Config) (*tellme.Report, int64) {
	meter := faultnet.New(nil, 1)
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Transport: meter}
	}
	return runOn(inst, netboard.NewClientWithConfig(url, cfg)), meter.Delivered()
}

func main() {
	// Players share one hidden taste among 60% of them.
	inst := tellme.IdenticalInstance(players, objects, 0.6, 3)

	// 1. Batched protocol: probe posts travel in per-player batches and
	// vote tallies through the epoch-tagged snapshot cache.
	board, url, stop := serve()
	fmt.Printf("billboard service listening at %s\n", url)
	rep, batchedReqs := run(inst, url, netboard.Config{})
	c := rep.Communities[0]
	fmt.Printf("community of %d recovered its %d grades with worst error %d\n",
		c.Size, objects, c.Discrepancy)
	fmt.Printf("probes per player: max %d (solo = %d)\n", rep.MaxProbes, objects)
	fmt.Printf("server-side state: %d probe postings, %d vector postings\n",
		board.ProbeCount(), board.VectorPostCount())
	fmt.Printf("HTTP requests for the whole simulation: %d\n", batchedReqs)
	wantProbes, wantVectors := board.ProbeCount(), board.VectorPostCount()
	stop()

	// 2. Hostile transport: 10% dropped requests, 10% responses lost
	// after the server already committed, 20% duplicated deliveries.
	// Idempotent retries (request-id dedupe on the server) keep the
	// board exact.
	board, url, stop = serve()
	ft := faultnet.New(nil, 99)
	ft.DropRequest, ft.DropResponse, ft.Duplicate = 0.1, 0.1, 0.2
	faultyRep, _ := run(inst, url, netboard.Config{
		HTTPClient:   &http.Client{Transport: ft},
		Retries:      40,
		RetryBackoff: 200 * time.Microsecond,
	})
	stop()
	fmt.Printf("\nflaky transport: %d requests dropped, %d responses lost after commit, %d duplicated\n",
		ft.DroppedRequests(), ft.LostResponses(), ft.Duplicated())
	if !reflect.DeepEqual(rep.Outputs, faultyRep.Outputs) {
		log.Fatal("faulty-transport run diverged")
	}
	if board.ProbeCount() != wantProbes || board.VectorPostCount() != wantVectors {
		log.Fatalf("board drifted under faults: %d/%d probes, %d/%d vectors",
			board.ProbeCount(), wantProbes, board.VectorPostCount(), wantVectors)
	}
	fmt.Printf("outputs identical, server counters exact (%d probes, %d vector posts):\n",
		wantProbes, wantVectors)
	fmt.Println("zero posts lost, zero posts double-applied")

	// 3. Sharded cluster: three independent billboard servers, keys
	// spread across them by consistent hashing. The run sees one board.
	const shards = 3
	boards := make([]*billboard.Board, shards)
	urls := make([]string, shards)
	for i := range boards {
		var stopShard func()
		boards[i], urls[i], stopShard = serve()
		defer stopShard()
	}
	cluster, err := netboard.NewCluster(netboard.ClusterConfig{Shards: urls})
	if err != nil {
		log.Fatal(err)
	}
	clusterRep := runOn(inst, cluster)
	if !reflect.DeepEqual(rep.Outputs, clusterRep.Outputs) {
		log.Fatal("sharded-cluster run diverged")
	}
	var clusterProbes, clusterVectors int64
	fmt.Printf("\nsharded cluster (%d shards):\n", shards)
	for i, b := range boards {
		fmt.Printf("  shard %d (%s): %d probe postings, %d vector postings\n",
			i, urls[i], b.ProbeCount(), b.VectorPostCount())
		clusterProbes += b.ProbeCount()
		clusterVectors += b.VectorPostCount()
	}
	if clusterProbes != wantProbes || clusterVectors != wantVectors {
		log.Fatalf("cluster totals drifted: %d/%d probes, %d/%d vectors",
			clusterProbes, wantProbes, clusterVectors, wantVectors)
	}
	fmt.Printf("outputs identical to the single-server run; shard totals sum to %d probes, %d vector posts\n",
		clusterProbes, clusterVectors)
}
