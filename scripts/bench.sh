#!/bin/sh
# Hot-path benchmark harness: runs the financial and warehouse benchmark
# suites (compiled engine) with allocation reporting and persists the
# numbers to BENCH_hotpath.json — the input for EXPERIMENTS.md's
# before/after allocation table. Every suite runs 5 times (-count 5); the
# JSON reports the median per benchmark, plus min, max and the run count
# for the ns/op suites.
#
#   scripts/bench.sh                     # default 20000x iterations
#   BENCHTIME=100x scripts/bench.sh      # quick smoke (used by check)
#   ENGINE='.' scripts/bench.sh          # include the baselines too
#   SUITE=typed scripts/bench.sh         # typed-vs-generic storage ablation
#                                        # (BenchmarkAblationTypedStorage →
#                                        # BENCH_typed.json)
#   SUITE=metrics scripts/bench.sh       # instrumentation overhead
#                                        # (BenchmarkMetricsOverhead →
#                                        # BENCH_metrics.json; live
#                                        # steady-state snapshots come from
#                                        # `bakeoff -metrics-out` or the
#                                        # dbtserver METRICS command)
#   SUITE=native scripts/bench.sh        # generated-Go engine vs compiled
#                                        # closures, per-event latency
#                                        # (BenchmarkNativeVsClosure →
#                                        # BENCH_native.json; the first run
#                                        # of each query pays one `go build`
#                                        # outside the timed region)
#   SUITE=registry scripts/bench.sh      # dynamic query lifecycle: hot
#                                        # register/unregister against a
#                                        # retained WAL history
#                                        # (BenchmarkRegistryRegister →
#                                        # BENCH_registry.json with
#                                        # register-latency p50/p99, mean
#                                        # compile time, catch-up volume)
#   SUITE=overload scripts/bench.sh      # admission control under 1x/2x/4x
#                                        # producer load against a bounded
#                                        # commit backlog
#                                        # (BenchmarkOverloadShedding →
#                                        # BENCH_overload.json with p99 ack
#                                        # latency and shed fraction per
#                                        # load point)
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-20000x}"
ENGINE="${ENGINE:-^dbtoaster$}"
SUITE="${SUITE:-hotpath}"
PKG="."
case "$SUITE" in
hotpath)
    PATTERN="^(BenchmarkFinancial|BenchmarkWarehouse|BenchmarkPaperQueryRST)/$ENGINE"
    OUT="${OUT:-BENCH_hotpath.json}"
    ;;
typed)
    PATTERN='^BenchmarkAblationTypedStorage/'
    OUT="${OUT:-BENCH_typed.json}"
    ;;
metrics)
    PATTERN='^BenchmarkMetricsOverhead/'
    OUT="${OUT:-BENCH_metrics.json}"
    ;;
native)
    PATTERN='^BenchmarkNativeVsClosure/'
    OUT="${OUT:-BENCH_native.json}"
    ;;
registry)
    PATTERN='^BenchmarkRegistryRegister$'
    OUT="${OUT:-BENCH_registry.json}"
    PKG="./internal/server"
    # Each iteration is one full register (compile + WAL catch-up + swap)
    # plus unregister; the hot-path default of 20000 iterations would
    # replay the retained history 20000 times. BENCHTIME still overrides.
    if [ "$BENCHTIME" = 20000x ]; then BENCHTIME=50x; fi
    ;;
overload)
    PATTERN='^BenchmarkOverloadShedding/'
    OUT="${OUT:-BENCH_overload.json}"
    PKG="./internal/server"
    # Each iteration is a full client round-trip batch against a loaded
    # server; 20000 per load point is minutes of wall clock for no extra
    # signal. BENCHTIME still overrides.
    if [ "$BENCHTIME" = 20000x ]; then BENCHTIME=2000x; fi
    ;;
*)
    echo "unknown SUITE '$SUITE' (hotpath|typed|metrics|registry|native|overload)" >&2
    exit 2
    ;;
esac

raw=$(go test -run xxx -bench "$PATTERN" -benchtime "$BENCHTIME" -count 5 -benchmem "$PKG")
printf '%s\n' "$raw"

# The parsers below collapse the 5 result lines of each benchmark.
# stats(list) sorts a space-separated value list and sets MED, MIN and
# MAX; median(list) returns MED.
MEDIAN_AWK='
function stats(list,    n, v, i, j, t) {
    n = split(list, v, " ")
    for (i = 2; i <= n; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] + 0 > t + 0; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
    MIN = v[1]; MAX = v[n]
    MED = (n % 2) ? v[(n + 1) / 2] : sprintf("%.10g", (v[n / 2] + v[n / 2 + 1]) / 2)
}
function median(list) { stats(list); return MED }'

if [ "$SUITE" = registry ]; then
    # The benchmark reports custom units (register-latency percentiles,
    # mean compile ns, catch-up record count) via b.ReportMetric; parse
    # every "value unit" pair on the result lines into a JSON field
    # holding the median across runs.
    printf '%s\n' "$raw" | awk -v benchtime="$BENCHTIME" "$MEDIAN_AWK"'
/^BenchmarkRegistryRegister/ && / ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    runs++
    for (i = 3; i <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        if (!(unit in vals)) order[++nunits] = unit
        vals[unit] = vals[unit] " " $i
    }
}
END {
    if (!runs) exit
    print "{"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"runs\": %d,\n", runs
    printf "  \"name\": \"%s\",\n", name
    for (u = 1; u <= nunits; u++)
        printf "  \"%s\": %s%s\n", order[u], median(vals[order[u]]), (u < nunits ? "," : "")
    print "}"
}' > "$OUT"
    if ! grep -q p99_ns "$OUT"; then
        echo "BENCH_registry.json is missing register-latency percentiles" >&2
        exit 1
    fi
    echo "wrote $OUT"
    exit 0
fi

if [ "$SUITE" = overload ]; then
    # One result line per load point (load1x/load2x/load4x) and run; every
    # "value unit" custom-metric pair (p99_ack_ns, shed_frac) is reported
    # as its median across runs.
    printf '%s\n' "$raw" | awk -v benchtime="$BENCHTIME" "$MEDIAN_AWK"'
/^BenchmarkOverloadShedding\// && / ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^BenchmarkOverloadShedding\//, "", name)
    if (!(name in runs)) loads[++nloads] = name
    runs[name]++
    for (i = 3; i <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        if (!((name, unit) in vals)) units[name, ++nunits[name]] = unit
        vals[name, unit] = vals[name, unit] " " $i
    }
}
END {
    print "{"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    print "  \"load_points\": ["
    for (l = 1; l <= nloads; l++) {
        name = loads[l]
        printf "    {\"load\": \"%s\", \"runs\": %d", name, runs[name]
        for (u = 1; u <= nunits[name]; u++) {
            unit = units[name, u]
            printf ", \"%s\": %s", unit, median(vals[name, unit])
        }
        printf "}%s\n", (l < nloads ? "," : "")
    }
    print "  ]"
    print "}"
}' > "$OUT"
    if ! grep -q p99_ack_ns "$OUT"; then
        echo "BENCH_overload.json is missing p99 ack latencies" >&2
        exit 1
    fi
    echo "wrote $OUT"
    exit 0
fi

# ns_per_op is the median across runs (so readers of the single-run
# format keep working); ns_per_op_min/max record the spread.
printf '%s\n' "$raw" | awk -v benchtime="$BENCHTIME" "$MEDIAN_AWK"'
/^Benchmark/ && / ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bop = "null"; aop = "null"
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "B/op") bop = $(i-1)
        if ($i == "allocs/op") aop = $(i-1)
    }
    if (ns == "") next
    if (!(name in runs)) order[++n] = name
    runs[name]++
    nsv[name] = nsv[name] " " ns
    bv[name] = bv[name] " " bop
    av[name] = av[name] " " aop
}
END {
    print "{"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    print "  \"benchmarks\": ["
    for (k = 1; k <= n; k++) {
        name = order[k]
        bop = (bv[name] ~ /null/) ? "null" : median(bv[name])
        aop = (av[name] ~ /null/) ? "null" : median(av[name])
        stats(nsv[name])
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"ns_per_op_min\": %s, \"ns_per_op_max\": %s, \"runs\": %d, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n",
            name, MED, MIN, MAX, runs[name], bop, aop, (k < n ? "," : "")
    }
    print "  ]"
    print "}"
}' > "$OUT"
echo "wrote $OUT"
