// Command tellmed is the online serving daemon: a long-lived
// recommendation service where players join and leave dynamically and
// recommendations are answered from the latest completed epoch.
//
//	tellmed -addr :7080 -m 1024 -capacity 256 -alpha 0.25
//	tellmed -addr :7080 -m 1024 -capacity 256 -board http://boards:7070
//	tellmed -addr :7080 -m 1024 -capacity 256 \
//	    -board http://s0:7070,http://s1:7071,http://s2:7072
//
// Players register their preference vector with POST /v1/players and
// are admitted at the next epoch boundary; DELETE /v1/players/{id}
// retires a player at the next boundary. The daemon runs one
// reconstruction epoch every -epoch-every (earlier when churn is
// pending): a full unknown-D run, or the incremental refresh repair
// when the previous epoch's outputs cover enough of the membership.
// GET /v1/recommend/{id} answers from the latest completed epoch,
// waiting up to -deadline (or the request's shorter ?wait=) for an
// epoch that covers the player. GET /v1/status and /debug/telemetry
// expose progress and runtime counters.
//
// With -board, epochs run against a remote billboard — one URL for a
// single cmd/billboard server, a comma-separated list for a sharded
// cluster routed by consistent hashing — instead of the in-process
// board. The serving loop is identical either way (see DESIGN.md §13).
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight requests for up to -shutdown-grace, and exits; an epoch in
// flight is cancelled (membership stands, no snapshot is published).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/boardclient"
	"tellme/internal/netboard"
	"tellme/internal/serve"
	"tellme/internal/telemetry"
	"tellme/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", ":7080", "listen address")
		m          = flag.Int("m", 1024, "object universe size")
		capacity   = flag.Int("capacity", 256, "maximum concurrently registered players")
		alpha      = flag.Float64("alpha", 0.25, "assumed community fraction (0,1]")
		boardSpec  = flag.String("board", "", "remote billboard: one base URL, or a comma-separated shard list (empty = in-process board)")
		boardCodec = flag.String("codec", "json", "wire codec for the remote billboard: json or binary (billboard servers accept both)")
		epochEvery = flag.Duration("epoch-every", 5*time.Second, "epoch interval (epochs run earlier when churn is pending)")
		epochT     = flag.Duration("epoch-timeout", 0, "per-epoch wall-clock bound (0 = none); an epoch exceeding it aborts and the previous snapshot keeps serving")
		deadline   = flag.Duration("deadline", serve.DefaultRecommendDeadline, "default per-request recommend deadline")
		seed       = flag.Uint64("seed", 1, "seed for reproducible serving runs")
		workers    = flag.Int("parallelism", 0, "phase worker pool bound (0 = GOMAXPROCS)")
		drift      = flag.Int("expected-drift", 0, "expected per-player preference drift, sizes the refresh budget (0 = generous default)")
		readHdrT   = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
		idleT      = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
		grace      = flag.Duration("shutdown-grace", 10*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
	)
	flag.Parse()

	reg := telemetry.New()
	if _, err := wire.ByName(*boardCodec); err != nil {
		log.Fatal(err)
	}
	board, err := resolveBoard(*boardSpec, *capacity, *m, *boardCodec, reg)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := serve.New(serve.Config{
		M:             *m,
		Capacity:      *capacity,
		Alpha:         *alpha,
		Board:         board,
		Seed:          *seed,
		Parallelism:   *workers,
		EpochTimeout:  *epochT,
		ExpectedDrift: *drift,
		Telemetry:     reg,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	loopCtx, stopLoop := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		engine.Run(loopCtx, *epochEvery)
	}()

	hsrv := &http.Server{
		Addr:              *addr,
		Handler:           serve.Handler(engine, serve.HandlerConfig{RecommendDeadline: *deadline, Telemetry: reg}),
		ReadHeaderTimeout: *readHdrT,
		IdleTimeout:       *idleT,
	}

	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		s := <-sig
		log.Printf("received %v, draining (grace %v)", s, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := hsrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v (closing remaining connections)", err)
			hsrv.Close()
		}
		stopLoop()
		<-loopDone
	}()

	where := "in-process board"
	if *boardSpec != "" {
		where = "board " + *boardSpec
	}
	log.Printf("tellmed serving on %s (capacity %d, m %d, alpha %v, %s)", *addr, *capacity, *m, *alpha, where)
	if err := hsrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	log.Printf("tellmed exited cleanly (%d epochs completed)", engine.CompletedEpochs())
}

// resolveBoard builds the billboard the epochs run against: the
// in-process board for an empty spec, a single netboard client for one
// URL, a consistent-hashed cluster for a comma-separated list — the
// same resolution the batch facade's Options.BoardURL performs.
func resolveBoard(spec string, capacity, m int, codec string, reg *telemetry.Registry) (boardclient.Interface, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		mem := billboard.New(capacity, m)
		mem.SetTelemetry(reg)
		return mem, nil
	}
	b, err := netboard.FromSpec(spec, netboard.Config{Telemetry: reg, Codec: codec})
	if err != nil {
		return nil, fmt.Errorf("tellmed: board %q: %w", spec, err)
	}
	return b, nil
}
