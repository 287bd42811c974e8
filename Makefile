# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race bench bench-smoke bench-check check experiments verify pqd loadtest loadtest-batch loadtest-wal loadtest-lease crash-smoke lease-smoke obs-smoke

all: build test

build:
	go build ./...
	go vet ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# One target that gates a change: vet, full tests, the race detector on the
# concurrency-heavy packages, and a metrics-on benchmark smoke run.
check: vet test
	go test -race ./internal/obs/ ./internal/core/ ./internal/lockfree/
	$(MAKE) bench-smoke

# Short metrics-on pass over the native queues: exercises every probe site
# and prints the snapshot tables. Also records the sharded-vs-strict head-to-
# head at 8 goroutines (BENCH_sharded.json), the elimination front-end vs the
# strict queue on the 50/50 hot-key workload (BENCH_elim.json), the four-way
# relaxed-backend shootout including the spray queue (BENCH_spray.json), and
# runs a short loopback pass of the network daemon, leaving its latency
# report in BENCH_server.json. The nativebench text output is normalized
# into the committed JSON artifacts by benchcheck.
bench-smoke:
	go run ./cmd/skipbench -metrics -metrics-duration 200ms
	go run ./cmd/nativebench -workers 8 -duration 2s -structures StrictPQ,Sharded | tee .bench_sharded.txt
	go run ./cmd/benchcheck -normalize .bench_sharded.txt -normalize-out BENCH_sharded.json
	go run ./cmd/nativebench -workers 8 -duration 2s -structures StrictPQ,Elim -keyspan 1 -metrics | tee .bench_elim.txt
	go run ./cmd/benchcheck -normalize .bench_elim.txt -normalize-out BENCH_elim.json
	go run ./cmd/nativebench -workers 8 -duration 2s -structures StrictPQ,Sharded,Elim,Spray -spray-k 8 | tee .bench_spray.txt
	go run ./cmd/benchcheck -normalize .bench_spray.txt -normalize-out BENCH_spray.json
	rm -f .bench_sharded.txt .bench_elim.txt .bench_spray.txt
	$(MAKE) loadtest LOADTEST_DURATION=2s

BENCH_TOLERANCE ?= 0.30

# Regression guard: rerun the recorded benchmarks and fail loudly if
# throughput dropped more than BENCH_TOLERANCE against the committed
# baselines. The deterministic ratio gate (batched vs single-op committed
# artifacts) runs first so environment noise in the reruns can't mask it.
# The server macro-benchmark reruns a short loadtest into a scratch file
# (the committed BENCH_server.json is left untouched); the native
# micro-benchmarks are rerun by cmd/benchcheck itself from the names
# recorded in BENCH_baseline.json.
bench-check:
	go run ./cmd/benchcheck \
		-ratio-base BENCH_server.json -ratio-fresh BENCH_server_batch.json -ratio-min 3.0
	go run ./cmd/benchcheck \
		-ratio-base BENCH_server.json -ratio-fresh BENCH_server_lease.json -ratio-min 0.7
	$(MAKE) loadtest LOADTEST_DURATION=5s LOADTEST_OUT=.bench_server_fresh.json
	$(MAKE) loadtest LOADTEST_DURATION=5s LOADTEST_OUT=.bench_server_batch_fresh.json \
		PQLOAD_FLAGS="-batch 64 -batch-linger 400us -workers 384"
	rm -rf .wal-bench
	$(MAKE) loadtest LOADTEST_DURATION=5s LOADTEST_OUT=.bench_server_wal_fresh.json \
		PQD_FLAGS="-wal-dir .wal-bench -wal-mode sync"
	go run ./cmd/benchcheck -tolerance $(BENCH_TOLERANCE) \
		-server-baseline BENCH_server.json -server-fresh .bench_server_fresh.json \
		-native-baseline BENCH_baseline.json
	go run ./cmd/benchcheck -tolerance $(BENCH_TOLERANCE) \
		-server-baseline BENCH_server_batch.json -server-fresh .bench_server_batch_fresh.json
	go run ./cmd/benchcheck -tolerance $(BENCH_TOLERANCE) \
		-server-baseline BENCH_server_wal.json -server-fresh .bench_server_wal_fresh.json
	go run ./cmd/nativebench -workers 8 -duration 2s -structures StrictPQ,Sharded,Elim,Spray -spray-k 8 | tee .bench_spray_fresh.txt
	go run ./cmd/benchcheck -tolerance $(BENCH_TOLERANCE) \
		-native-report .bench_spray_fresh.txt -require "Spray>=StrictPQ"
	rm -rf .bench_server_fresh.json .bench_server_batch_fresh.json .bench_server_wal_fresh.json .bench_spray_fresh.txt .wal-bench

# Build the network daemon and its load generator into bin/.
pqd:
	go build -o bin/pqd ./cmd/pqd
	go build -o bin/pqload ./cmd/pqload

# Observability smoke: boot the real daemon in-process with the admin
# surface and flight recorders on, drive traced traffic, and validate
# /metrics against the golden catalog (cmd/pqd/testdata/metrics.golden),
# /healthz through a drain, and /debug/flight span content — plus the
# flight recorder's own test battery, all under the race detector.
obs-smoke:
	go test -race -count=1 -run 'ObsSmoke|RunDrainsOnSIGTERM|RunLeaseMode|RunVersion' ./cmd/pqd/
	go test -race -count=1 ./internal/flight/ ./internal/admin/

LOADTEST_DURATION ?= 10s
LOADTEST_OUT ?= BENCH_server.json
# Extra pqd flags for the loadtest run (e.g. "-wal-dir .wal -wal-mode sync"
# for a durable loopback).
PQD_FLAGS ?=
# Extra pqload flags (e.g. "-batch 64 -workers 256" for the coalesced run).
PQLOAD_FLAGS ?=

# Loopback smoke test of the daemon: start pqd on an ephemeral port, drive
# it with the closed-loop load generator (report lands in BENCH_server.json),
# then SIGTERM it and require a clean drain (pqd exits 0).
loadtest: pqd
	@set -e; \
	./bin/pqd -addr 127.0.0.1:0 -admin 127.0.0.1:0 $(PQD_FLAGS) >.pqd.out 2>&1 & pid=$$!; \
	addr=""; \
	for i in $$(seq 50); do \
	  addr=$$(sed -n 's/.*listening addr=\([^ ]*\).*/\1/p' .pqd.out); \
	  [ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	if [ -z "$$addr" ]; then echo "pqd never announced an address:"; cat .pqd.out; kill $$pid 2>/dev/null; exit 1; fi; \
	rc=0; ./bin/pqload -addr $$addr -duration $(LOADTEST_DURATION) $(PQLOAD_FLAGS) -out $(LOADTEST_OUT) || rc=$$?; \
	kill -TERM $$pid; wait $$pid || rc=$$?; \
	cat .pqd.out; rm -f .pqd.out; exit $$rc

# Batched loopback: the op-coalescing loadtest whose report is the
# committed BENCH_server_batch.json baseline; bench-check requires it to
# hold a ≥3× throughput multiple over BENCH_server.json. 256 closed-loop
# workers over the default 8 connections keep enough ops pending per
# connection for the client batcher to pack deep OpBatch frames.
loadtest-batch:
	$(MAKE) loadtest LOADTEST_OUT=BENCH_server_batch.json \
		PQLOAD_FLAGS="-batch 64 -batch-linger 400us -workers 384"

# Durable loopback: the sync-mode WAL loadtest whose report is the
# committed BENCH_server_wal.json baseline that bench-check guards.
loadtest-wal:
	rm -rf .wal-loadtest
	$(MAKE) loadtest LOADTEST_OUT=BENCH_server_wal.json \
		PQD_FLAGS="-wal-dir .wal-loadtest -wal-mode sync"
	rm -rf .wal-loadtest

# Durable lease loopback: the at-least-once loadtest whose report is the
# committed BENCH_server_lease.json baseline; bench-check requires leased
# consumption (PopLease + Ack round trips) to hold ≥0.7× the plain
# DeleteMin op rate of BENCH_server.json.
loadtest-lease:
	$(MAKE) loadtest LOADTEST_OUT=BENCH_server_lease.json \
		PQD_FLAGS="-lease -lease-ttl 30s" PQLOAD_FLAGS="-lease"

# Crash-injection battery: 25 kill -9/recover cycles against a real pqd
# under concurrent durable load, verifying exact multiset conservation of
# every acknowledged operation (see internal/wal/crashtest).
crash-smoke:
	go test -count=1 -v -run TestCrashRecovery ./internal/wal/crashtest/ -crash-cycles=25

# At-least-once crash battery: 25 cycles of kill -9'd consumer processes
# (with periodic daemon kills layered in) against a lease-enabled durable
# pqd, verifying zero acked-element loss, zero post-ack delivery, and
# redelivery of every orphaned lease within two expiry windows (see
# internal/lease/crashtest).
lease-smoke:
	go test -count=1 -v -run TestConsumerCrashRedelivery ./internal/lease/crashtest/ -lease-crash-cycles=25

short:
	go test -short ./...

bench:
	go test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper at full scale (~10 min).
experiments:
	go run ./cmd/skipbench -experiment all | tee experiments_full.txt

# Quick end-to-end check: build, vet, tests, a fast benchmark pass and a
# scaled-down experiment sweep.
verify: build test
	go test -bench=Fig3 -benchtime=10000x .
	go run ./cmd/skipbench -experiment fig6 -scale 0.05 -maxprocs 16
