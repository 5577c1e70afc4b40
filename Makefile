# Tier-1 verification for the DBToaster reproduction.
#
#   make check   — build + vet + tests (the ROADMAP.md tier-1 gate)
#   make race    — the same tests under the race detector; required for
#                  the concurrent server (group commit, client handlers)
#   make bench   — the hot-path benchmark harness; writes
#                  BENCH_hotpath.json (ns/op, B/op, allocs/op) and
#                  BENCH_registry.json (dynamic-registration latency
#                  percentiles, compile time, catch-up volume)
#   make fuzz    — a short pass over every fuzz target

GO ?= go

.PHONY: all check race bench fuzz

all: check race

check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -run xxx -bench '^(BenchmarkFinancial|BenchmarkWarehouse)/^dbtoaster$$' -benchtime 100x -benchmem .

race:
	$(GO) test -race ./...

bench:
	scripts/bench.sh
	SUITE=registry scripts/bench.sh

fuzz:
	$(GO) test -run xxx -fuzz FuzzTypedGenericAgreement -fuzztime 10s ./internal/engine
	$(GO) test -run xxx -fuzz FuzzQueryAgreement -fuzztime 10s ./internal/qgen
	$(GO) test -run xxx -fuzz FuzzServerCommand -fuzztime 10s ./internal/server
