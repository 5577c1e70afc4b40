#!/bin/sh
# Tier-1 verification: build, vet, tests, then the same tests under the
# race detector. The race step is a separate stage so a data race in the
# server's committer or its clients fails loudly rather than flaking.
set -eu
cd "$(dirname "$0")/.."

echo "== build ==" && go build ./...
echo "== vet ==" && go vet ./...
echo "== test ==" && go test ./...
echo "== bench smoke ==" && go test -run xxx -bench '^(BenchmarkFinancial|BenchmarkWarehouse)/^dbtoaster$' -benchtime 100x -benchmem .

# Metrics-overhead smoke: fails if enabling instrumentation regresses the
# hot path beyond its budget or allocates per event (see the script for
# the measurement methodology).
echo "== metrics overhead smoke ==" && sh scripts/metrics_smoke.sh

# Crash recovery: the in-process fault-injection matrix (every WAL/
# checkpoint crash point, every torn-write split, three engine variants),
# then a real kill -9 against a live dbtserver with state compared across
# the restart.
echo "== crash recovery ==" && go test ./internal/wal/ -run 'TestCrashRecoveryFaultMatrix|TestDoubleCrashRecovery' -count=1
bash scripts/crash_smoke.sh

# Pipeline smoke at real parallelism: WAL group commit and concurrent
# clients against one server, and batched registry fan-out with shared
# maps, with GOMAXPROCS forced to at least 4 so commit coalescing and
# client interleaving run multi-core even when the default would be 1.
echo "== pipeline smoke (GOMAXPROCS=4) ==" && GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestConcurrentBatchesGroupCommitAndRecover|TestServerConcurrentClients' ./internal/server/
GOMAXPROCS=4 go test -race -count=1 -run 'TestRegistryBatchedSharingMatchesPerEvent' ./internal/engine/

# Registry smoke: the dynamic-query lifecycle gates — hot-swap
# registration against a live producer (differential vs boot-time
# compilation), map-sharing refcounts, crash-point recovery of the
# registered set — plus a short pass of the lifecycle benchmark.
echo "== registry smoke ==" && GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestRegisterCatchUpDifferential|TestMapSharingRefcounts|TestRegistrationCrashRecovery' ./internal/server/
BENCHTIME=10x SUITE=registry OUT="${TMPDIR:-/tmp}/BENCH_registry_smoke.json" sh scripts/bench.sh >/dev/null

# Native smoke: generate, `go build`, and drive the generated-Go engine
# for a fixed qgen seed subset and the bakeoff queries, requiring bitwise
# snapshot equality against the closure engine, plus a short pass of the
# native-vs-closure benchmark so the SUITE=native rig stays healthy.
echo "== native smoke ==" && go test ./internal/engine/ -run 'TestNative' -count=1
BENCHTIME=100x SUITE=native OUT="${TMPDIR:-/tmp}/BENCH_native_smoke.json" sh scripts/bench.sh >/dev/null

# Qgen differential + fuzz smoke: seeded random queries over the widened
# SQL surface (AVG, EXISTS/IN, LEFT OUTER JOIN) must agree bitwise across
# the typed and generic-storage builds, the IR interpreter, and the
# re-evaluating oracle,
# then a short coverage-guided pass over the seed space.
echo "== qgen differential smoke ==" && go test ./internal/qgen/ -run 'TestQgenDifferential|TestQgenAlwaysCompiles' -short -count=1
echo "== qgen fuzz smoke ==" && go test ./internal/qgen/ -run xxx -fuzz FuzzQueryAgreement -fuzztime 10s

# Failure isolation: the chaos matrix (quota breacher + panicker alongside
# healthy tenants, bitwise-compared to a fault-free twin), the
# overload/connection guards, then the end-to-end smoke driving a stock
# dbtserver binary through quarantine (checked via LIST, METRICS and the
# Prometheus endpoint), kill -9 recovery, and revive. A short fuzz pass
# keeps the command loop honest against arbitrary input.
echo "== chaos / overload smoke ==" && GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestServerChaosMatrix|TestServerOverloadShedding|TestServerGracefulShutdownUnderLoad|TestQuarantine' \
    ./internal/server/ ./internal/engine/
bash scripts/chaos_smoke.sh
echo "== server fuzz smoke ==" && go test ./internal/server/ -run xxx -fuzz FuzzServerCommand -fuzztime 10s

echo "== race ==" && go test -race ./...
echo "tier-1 OK"
