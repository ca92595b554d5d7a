// Command billboard serves a shared billboard over HTTP — the paper's
// public board as an actual service. Players in other processes connect
// through the same billboard interface the in-memory simulator uses
// (see Options.BoardURL in the tellme package).
//
//	billboard -addr :7070 -n 1024 -m 1024
//	billboard -addr :7070 -n 1024 -m 1024 -state board.json  # persistent
//	billboard -addr :7070 -n 1024 -m 1024 -shards 4          # cluster
//
// With -shards K (K > 1), the command runs K independent shard servers
// on consecutive ports starting at -addr's port and prints the cluster
// spec — the comma-separated base-URL list that tellme -board,
// Options.BoardURL and netboard.NewCluster accept. Each shard is a
// complete billboard server; clients route topics by name and probe
// results by player, each key to the shard at its hash's position in
// the spec (DESIGN.md §12), so a shard may restart at a new address in
// its position.
// With -state, each shard snapshots to its own file (<state>.shard<i>).
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests for up to -shutdown-grace before exiting. With
// -state, the board is restored from the file at startup (if it exists)
// and snapshotted back after the drain.
//
// The server always exposes runtime telemetry: GET /debug/telemetry
// returns every counter and histogram as JSON, and
// /debug/telemetry/prometheus the same registry in the Prometheus text
// format. With -pprof, the standard net/http/pprof profile endpoints
// are mounted under /debug/pprof/ as well.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/netboard"
	"tellme/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", ":7070", "listen address (with -shards K, the first of K consecutive ports)")
		n         = flag.Int("n", 1024, "number of players")
		m         = flag.Int("m", 1024, "number of objects")
		shards    = flag.Int("shards", 1, "shard servers to run on consecutive ports; >1 prints the cluster spec")
		state     = flag.String("state", "", "snapshot file: restore at start, save on shutdown (per shard: <state>.shard<i>)")
		dedupe    = flag.Int("dedupe", netboard.DefaultDedupeWindow, "idempotency window: remembered request ids (0 disables dedupe)")
		withPprof = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		readHdrT  = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
		readT     = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout for a full request")
		idleT     = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
		grace     = flag.Duration("shutdown-grace", 10*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
	)
	flag.Parse()
	if *n <= 0 || *m <= 0 {
		fmt.Fprintln(os.Stderr, "n and m must be positive")
		os.Exit(2)
	}
	if *shards <= 0 {
		fmt.Fprintln(os.Stderr, "shards must be positive")
		os.Exit(2)
	}
	addrs, err := shardAddrs(*addr, *shards)
	if err != nil {
		log.Fatal(err)
	}

	type shard struct {
		board *billboard.Board
		hsrv  *http.Server
		state string
	}
	servers := make([]*shard, *shards)
	for i := range servers {
		statePath := *state
		if statePath != "" && *shards > 1 {
			statePath = statePath + ".shard" + strconv.Itoa(i)
		}
		board, err := loadBoard(statePath, *n, *m)
		if err != nil {
			log.Fatal(err)
		}
		reg := telemetry.New()
		board.SetTelemetry(reg)
		srv := netboard.NewServer(board, netboard.WithDedupeWindow(*dedupe), netboard.WithTelemetry(reg))

		var handler http.Handler = srv
		if *withPprof {
			// Mount the profile endpoints on an outer mux so they are only
			// reachable when explicitly asked for; everything else falls
			// through to the board server (including /debug/telemetry).
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			mux.Handle("/", srv)
			handler = mux
		}
		servers[i] = &shard{
			board: board,
			state: statePath,
			hsrv: &http.Server{
				Addr:              addrs[i],
				Handler:           handler,
				ReadHeaderTimeout: *readHdrT,
				ReadTimeout:       *readT,
				IdleTimeout:       *idleT,
			},
		}
	}
	if *withPprof {
		log.Printf("pprof enabled at /debug/pprof/")
	}

	// Graceful shutdown: on SIGINT/SIGTERM every shard stops accepting
	// connections, drains in-flight requests for up to -shutdown-grace
	// (concurrently — the grace budget is shared wall-clock, not per
	// shard), then (with -state) snapshots its board. Snapshotting after
	// the drain means the saved state includes every request the server
	// acknowledged.
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		s := <-sig
		log.Printf("received %v, draining %d shard(s) (grace %v)", s, len(servers), *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		var wg sync.WaitGroup
		failed := make([]bool, len(servers))
		for i, sh := range servers {
			wg.Add(1)
			go func(i int, sh *shard) {
				defer wg.Done()
				if err := sh.hsrv.Shutdown(ctx); err != nil {
					log.Printf("shard %d shutdown: %v (closing remaining connections)", i, err)
					sh.hsrv.Close()
				}
				if sh.state != "" {
					if err := saveBoard(sh.state, sh.board); err != nil {
						log.Printf("shard %d snapshot failed: %v", i, err)
						failed[i] = true
						return
					}
					log.Printf("shard %d state saved to %s", i, sh.state)
				}
			}(i, sh)
		}
		wg.Wait()
		for _, f := range failed {
			if f {
				os.Exit(1)
			}
		}
	}()

	errc := make(chan error, len(servers))
	for _, sh := range servers {
		go func(sh *shard) {
			if err := sh.hsrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				errc <- err
				return
			}
			errc <- nil
		}(sh)
	}
	if len(servers) == 1 {
		log.Printf("billboard for %d players × %d objects listening on %s (telemetry at %s)", *n, *m, addrs[0], netboard.PathTelemetry)
	} else {
		urls := make([]string, len(addrs))
		for i, a := range addrs {
			urls[i] = "http://" + hostPortForURL(a)
		}
		log.Printf("billboard cluster for %d players × %d objects: %d shards on %s..%s", *n, *m, len(addrs), addrs[0], addrs[len(addrs)-1])
		log.Printf("cluster spec: %s", strings.Join(urls, ","))
	}
	for range servers {
		if err := <-errc; err != nil {
			log.Fatal(err)
		}
	}
	<-done
}

// shardAddrs derives k consecutive listen addresses from base:
// base's port, port+1, ..., port+k-1 on the same host.
func shardAddrs(base string, k int) ([]string, error) {
	if k == 1 {
		return []string{base}, nil
	}
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("-addr %q: %v (need host:port with -shards > 1)", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port <= 0 {
		return nil, fmt.Errorf("-addr %q: explicit numeric port required with -shards > 1", base)
	}
	out := make([]string, k)
	for i := range out {
		out[i] = net.JoinHostPort(host, strconv.Itoa(port+i))
	}
	return out, nil
}

// hostPortForURL makes a listen address dialable: an empty host
// (":7070") listens on all interfaces but cannot be dialed, so the
// printed cluster spec substitutes localhost.
func hostPortForURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "localhost"
	}
	return net.JoinHostPort(host, port)
}

// loadBoard restores the board from path, or builds a fresh one when
// path is empty or absent.
func loadBoard(path string, n, m int) (*billboard.Board, error) {
	if path == "" {
		return billboard.New(n, m), nil
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return billboard.New(n, m), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	board, err := billboard.Restore(f)
	if err != nil {
		return nil, fmt.Errorf("restoring %s: %w", path, err)
	}
	log.Printf("restored state from %s (%d probes)", path, board.ProbeCount())
	return board, nil
}

// saveBoard snapshots the board atomically (write temp, rename).
func saveBoard(path string, board *billboard.Board) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := board.Snapshot(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
