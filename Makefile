# Tier-1 verification targets. `make verify` is the full gate: vet plus
# the whole suite under the race detector, which exercises the lock-free
# probe shards and the topic vote tallies under real interleavings
# (see internal/billboard/stress_test.go), and the
# netboard fault-injection stress (internal/netboard/stress_test.go):
# dropped requests, responses lost after the server committed, and
# concurrent duplicated deliveries, proving zero lost and zero
# double-applied posts under -race.

GO ?= go

.PHONY: build fmt-check test race stress-net stress-cluster stress-churn race-telemetry race-cancel loadgen-smoke perfbench-test verify bench-net bench-core bench-wire bench-loadgen

build:
	$(GO) build ./...

# The formatting gate: lists every tracked Go file gofmt would change
# and fails if there is one. It only reads; run gofmt -w to fix.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) vet ./... && $(GO) test -race ./...

# The netboard fault-injection stress on its own (it also runs as part
# of `race`); useful when iterating on the wire protocol. It includes
# the deferred-post tests: the deferred view's own tests (one probe run
# per player per flush holding each object once, held drops, reads
# after concurrent posts, reads that take the held posts with them, a
# failed send keeping its batch, and the randomized oracle against a
# sequential in-memory board), post batches applied exactly once,
# reads answered after their batch's posts, a batch of posts and reads
# retried after lost responses applying once and answering its reads,
# a flush over the body cap split into several requests, a refused
# post batch surfacing as a RunError, a cancelled networked run
# leaving no topics, and the request, phase, batch-entry, probe-result
# and read counts TestZeroRadiusRequestCount pins for ZeroRadius
# 48×256 and for the solve-net solve on one server and on 2 shards.
stress-net:
	$(GO) test -race -run 'FaultSchedule|FaultyHTTP|Faultnet|Dedupe|RetryAfterCommit|PostBatch|Flush|RequestCount|OverNetboard|FlakyTransport|Defer' ./internal/netboard/ ./internal/boardclient/ .

# The sharded-cluster gate on its own (also part of `race`): routing by
# shard position (its skew bound, pinned owners, and allocation-free
# player routing), the probe routing (each probe post, lookup, scan or
# clear of one player is one request, to the player's shard; a post
# batch is one request per shard it touches), a shard restored at a
# new address in its position, the cluster-vs-single-board identity
# oracles, and the multi-shard fault-injection stress — one shard's
# network degraded while concurrent players post — proving zero lost
# and zero double-applied posts under -race
# (internal/netboard/cluster_stress_test.go).
stress-cluster:
	$(GO) test -race -run 'Ring|Cluster' ./internal/netboard/

# The serving-churn gate on its own (also part of `race`): players
# joining and leaving at every epoch boundary against a 4-shard cluster
# behind a fault-injecting transport, compared snapshot-for-snapshot
# against an in-process engine with the same seed — zero lost and zero
# duplicated posts, and every recommendation served from the epoch it
# claims (internal/serve/churn_stress_test.go).
stress-churn:
	$(GO) test -race -run 'StressChurn' ./internal/serve/

# The telemetry concurrency gate on its own (also part of `race`): a
# full Run with every instrument shared across the player goroutines,
# plus the registry hammer test, under the race detector.
race-telemetry:
	$(GO) test -race -run 'RunTelemetryCountsMatchReport' . && $(GO) test -race -run 'TelemetryConcurrentUpdates' ./internal/telemetry/

# The cancellation gate on its own (also part of `race`): phase workers
# cancelled mid-phase, player panics surfacing as errors with the
# barrier intact, a dead networked billboard hitting its deadline (the
# abort's cleanup drops included), runs and tellmed epochs cancelled at
# each of their requests in turn leaving no topic on the servers,
# every operation of a netboard Cluster view, on one shard and on two,
# bound to a cancelled context sending nothing, and bound views sharing
# their board's state.
race-cancel:
	$(GO) test -race -run 'Cancel|PanicBecomes|Deadline|PreCancelled|BindContext' . ./internal/sim/ ./internal/netboard/ ./internal/serve/

# The load-generator smoke (also part of `race` via the package tests):
# a 10k-player in-process fleet plus a 2-shard loopback cluster run,
# each audited against the board's exact probe counter — zero lost,
# zero duplicated posts — then a real loadgen binary run that emits a
# capacity artifact (to a scratch path, so the committed BENCH_NET.json
# from the full `bench-loadgen` run is never clobbered by a smoke).
loadgen-smoke:
	$(GO) test -run 'Smoke|ResolveTarget|ExpectedProbes' ./cmd/loadgen/
	$(GO) run ./cmd/loadgen -players 10000 -m 64 -post-batch 16 -workers 40 \
		-rates 20000 -duration 1s -out BENCH_NET.smoke.json

# The benchmark harness (perfbench/, see BENCHMARK.json) is its own Go
# module, so `go build ./...` and `go test ./...` from the root never
# compile it; yet it builds against netboard.Config, netboard.Cluster
# and probe.Engine. Vet and test it here so an API change that breaks
# the benchmark fails the gate.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

verify: build fmt-check race stress-net stress-cluster stress-churn race-telemetry race-cancel loadgen-smoke perfbench-test

# The benchdiff targets measure A/B against the code at REF (default
# HEAD: working tree vs last commit), in alternating runs within one
# wall-clock window, so machine-speed drift cancels out. benchdiff
# checks REF out into a temporary git worktree.
REF ?= HEAD

# BENCH_2.json: networked-billboard throughput — full Zero Radius runs
# over HTTP with requests/op. The committed file also records the
# retired one-request-per-operation protocol's rows, the baseline of
# the batching cut (DESIGN.md §8).
bench-net:
	$(GO) run ./cmd/benchdiff -suite netboard -count 3 -ref "$(REF)"

# The core suite — E1/E8 end to end plus the billboard tally and
# posting microbenchmarks. Fails (exit 1) if any benchmark is more than
# 10% slower than at REF. Writes BENCH_5.json unless -out says
# otherwise; BENCH_1.json, BENCH_4.json and the committed BENCH_5.json
# are history.
bench-core:
	$(GO) run ./cmd/benchdiff -suite core -count 5 -ref "$(REF)" -fail-regress 10

# BENCH_WIRE.json: the wire-codec microbenchmarks — encode/decode of
# the hot message shapes under the JSON and binary codecs, with
# allocs/op from the pooled-buffer path. Fast enough to run as a CI
# smoke (BENCHTIME trims it further there).
BENCHTIME ?= 1s
bench-wire:
	$(GO) run ./cmd/benchdiff -suite wire -count 3 -benchtime $(BENCHTIME) -ref "$(REF)"

# BENCH_NET.json: the serving-capacity table from a full local loadgen
# run — a million-player fleet auto-ramping its round rate against a
# 4-shard loopback cluster until the p99 SLO breaks, with the exact
# probe-counter audit on. The -codec sweep runs the whole ramp once per
# wire codec against a fresh cluster, so the table carries a JSON row
# and a binary row at every rate for A/B reading. Heavier knobs than
# loadgen-smoke; see EXPERIMENTS.md for reading the table.
bench-loadgen:
	$(GO) run ./cmd/loadgen -players 1000000 -m 512 -post-batch 64 \
		-workers 128 -local-shards 4 -duration 5s -warmup 2s -repeat 3 \
		-codec json,binary -out BENCH_NET.json
