// Command loadgen is the synthetic-fleet driver: it sustains open-loop
// probe/post traffic from up to a million simulated players against an
// in-process board, a live netboard server, or a billboard cluster,
// and emits a capacity table (BENCH_NET.json) stating the highest
// sustained rounds/sec per configuration with p50 and p99 latency read
// from the telemetry histograms.
//
// Examples:
//
//	loadgen -players 10000 -duration 2s                      # in-process smoke
//	loadgen -players 1000000 -local-shards 4 -rates 5000     # loopback cluster
//	loadgen -players 50000 -board http://a:8080,http://b:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

func main() {
	cfg := &config{}
	var rates, codecs string
	flag.IntVar(&cfg.Players, "players", 10000, "simulated players in the fleet")
	flag.IntVar(&cfg.M, "m", 512, "object universe size")
	flag.IntVar(&cfg.PostBatch, "post-batch", 32, "probes posted per round (must divide m)")
	flag.IntVar(&cfg.Workers, "workers", 64, "concurrent fleet workers")
	flag.StringVar(&rates, "rates", "", "comma-separated target rounds/sec steps (default: auto-ramp, doubling)")
	flag.Float64Var(&cfg.RampStart, "ramp-start", 1000, "auto-ramp starting rate")
	flag.Float64Var(&cfg.RampMax, "ramp-max", 0, "auto-ramp ceiling (0 = default)")
	flag.DurationVar(&cfg.Duration, "duration", 5*time.Second, "duration of each rate step")
	flag.DurationVar(&cfg.Warmup, "warmup", time.Second, "unmeasured warmup at each leg's first rate (0 disables)")
	flag.IntVar(&cfg.Repeat, "repeat", 1, "repetitions of the whole codec sweep; rows keep the median-p99 one per (codec, rate), so a rate is sustained only if most repetitions met the SLO")
	flag.StringVar(&cfg.Board, "board", "", "board target: empty = in-process, URL = server, comma-separated URLs = cluster")
	flag.StringVar(&codecs, "codec", "json", "comma-separated wire codecs to sweep (json,binary); each runs a fresh-target leg")
	flag.IntVar(&cfg.LocalShards, "local-shards", 0, "spawn N loopback netboard shards and drive them as a cluster")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "deterministic seed for truth vectors")
	flag.DurationVar(&cfg.SLO, "slo", 50*time.Millisecond, "p99 latency budget for 'sustained'")
	flag.BoolVar(&cfg.Verify, "verify", true, "audit posts against the board's exact probe counter")
	flag.StringVar(&cfg.Out, "out", "", "write BENCH_NET.json artifact to this path")
	flag.Parse()

	var err error
	if cfg.Rates, err = parseRates(rates); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, c := range strings.Split(codecs, ",") {
		if c = strings.TrimSpace(c); c != "" {
			cfg.Codecs = append(cfg.Codecs, c)
		}
	}
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	file, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printTable(os.Stdout, file)
	if cfg.Out != "" {
		if err := writeBenchNet(cfg.Out, file); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Logf("wrote %s", cfg.Out)
	}
	if file.Verify != nil && !file.Verify.OK {
		fmt.Fprintln(os.Stderr, "loadgen: VERIFICATION FAILED: probe accounting mismatch")
		os.Exit(1)
	}
}
