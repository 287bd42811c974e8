# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race short bench check experiments verify pqd crash-smoke lease-smoke obs-smoke

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
# concurrency-heavy packages (the durable path's lease table, WAL and server
# among them, and the admin handler, wire codec and flight recorder, as in
# CI's race job, and the simulator, whose coroutine hand-off is its only
# synchronization) and on the root's stress matrix (-short; it is
# where the exchanger's slot race lived unseen), and the benchmark module's
# vet and smoke (the line CI's bench-module job runs; bench/ is a nested
# module that `./...` does not reach). core's and lockfree's sharded
# counters also race at one P (every op on one shard) and at more Ps than
# cores.
check: vet test
	go test -race ./internal/obs/ ./internal/core/ ./internal/lockfree/ ./internal/sim/ ./internal/simq/
	go test -race -cpu 1,4 -run 'Concurrent|Obs|Stats|Spray|HalfLinked|Load' ./internal/core/
	go test -race -cpu 1,4 -run 'Concurrent|Stats|Len|CAS' ./internal/lockfree/
	go test -race ./internal/lease/ ./internal/wal/ ./internal/server/ ./internal/admin/ ./internal/wire/ ./internal/flight/
	go test -race -short . ./internal/elim/ ./internal/spray/ ./internal/quality/ ./internal/client/ ./internal/lincheck/ ./internal/sharded/ ./internal/backends/
	go test -run '^$$' -bench 'Recover|Compact' -benchtime 1x ./internal/wal/
	cd bench && go vet . && go test -short .

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
	go test -count=1 -v -run TestConsumerCrashRedelivery ./internal/lease/crashtest/ -lease-crash-cycles=25 -lease-crash-deadline

short:
	go test -short ./...

# The repository's one benchmark: four workloads, eight end-to-end metrics
# and the per-layer ladder declared in BENCHMARK.json (see bench/README.md).
bench:
	bash bench/run.sh

# Regenerate every table and figure of the paper at full scale (~10 min).
experiments:
	go run ./cmd/skipbench -experiment all

# Quick end-to-end check: build, vet, tests, a fast benchmark pass and a
# scaled-down experiment sweep.
verify: build test
	go test -bench=Fig3 -benchtime=10000x .
	go run ./cmd/skipbench -experiment fig6 -scale 0.05 -maxprocs 16
