#!/bin/bash
# Failure-isolation smoke: fault injection against a stock dbtserver binary.
#
# Phase 1 — quarantine: three tenants share one server (healthy aggregate,
# a panicker armed via DBT_CHAOS_PANIC, a group-by whose distinct keys
# outgrow -quota-entries). Every insert must still be acked; LIST must show
# exactly the two offenders quarantined with their reasons; then the server
# is kill -9'd and a -recover restart must come back with the same RESULT
# for the healthy tenant, both quarantine entries intact, and the panicker
# revivable by a fresh REGISTER. The quarantine count is also read from the
# Prometheus endpoint (-metrics-addr), so the exporter is checked end to end.
#
# Uses bash's /dev/tcp (for the protocol and for HTTP) so no netcat or curl
# dependency is needed.
set -eu
cd "$(dirname "$0")/.."

PORT="${CHAOS_SMOKE_PORT:-7473}"
MPORT="${CHAOS_SMOKE_METRICS_PORT:-7474}"
TMP="$(mktemp -d)"
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/dbtserver" ./cmd/dbtserver

start_server() { # args: extra dbtserver flags
    "$TMP/dbtserver" -sql 'select B, sum(A) from R group by B' \
        -tables 'R(A:int,B:int);S(B:int,C:int)' -addr "127.0.0.1:$PORT" \
        "$@" >>"$TMP/server.log" 2>&1 &
    SRV_PID=$!
    disown "$SRV_PID"
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    echo "chaos smoke: server did not come up" >&2
    cat "$TMP/server.log" >&2
    exit 1
}

open_conn()  { exec 3<>"/dev/tcp/127.0.0.1/$PORT"; }
close_conn() { exec 3>&- 3<&- || true; }

send() { # send CMD -> first reply line in $REPLY_LINE; ERR is fatal
    printf '%s\n' "$1" >&3
    IFS= read -r REPLY_LINE <&3
    REPLY_LINE="${REPLY_LINE%$'\r'}"
    case "$REPLY_LINE" in
        ERR*) echo "chaos smoke: '$1' -> $REPLY_LINE" >&2; exit 1 ;;
    esac
}

fetch_metrics() { # GET /metrics over HTTP/1.0 -> $METRICS (retries until up)
    for _ in $(seq 1 50); do
        if exec 4<>"/dev/tcp/127.0.0.1/$MPORT"; then
            printf 'GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n' >&4
            METRICS=$(cat <&4)
            exec 4>&- 4<&- || true
            return 0
        fi 2>/dev/null
        sleep 0.1
    done
    echo "chaos smoke: metrics endpoint did not come up" >&2
    exit 1
}

read_body() { # reads $1 lines from the connection into $BODY
    BODY=""
    n="$1"
    while [ "$n" -gt 0 ]; do
        IFS= read -r line <&3
        BODY="$BODY${line%$'\r'}"$'\n'
        n=$((n - 1))
    done
}

body_of() { # run list-shaped command $1 -> $BODY
    send "$1"
    read_body "$(echo "$REPLY_LINE" | awk '{print $2}')"
}

feed_r() { # feed_r FROM TO: inserts with distinct A (quota pressure), B=i%5
    i="$1"
    while [ "$i" -lt "$2" ]; do
        send "INSERT R $i|$((i % 5))"
        i=$((i + 1))
    done
}

echo "== chaos smoke: quarantine matrix =="
: >"$TMP/server.log"
DBT_CHAOS_PANIC="S:0" start_server -wal-dir "$TMP/wal" -quota-entries 40 -max-conns 64 \
    -metrics-addr "127.0.0.1:$MPORT"
open_conn
send 'REGISTER qpanic select sum(C) from S'
send 'REGISTER qbig select A, sum(B) from R group by A'
# Distinct A keys push qbig past the 40-entry quota; the panicker blows up
# on its first S event. Every insert below must still be acked — faults
# quarantine the offender, never the producer's request.
feed_r 0 100
send 'INSERT S 1|2'
send 'INSERT S 3|4'
body_of LIST
printf '%s' "$BODY" >"$TMP/list.before"
quarantined=$(grep -c quarantined "$TMP/list.before" || true)
if [ "$quarantined" -ne 2 ]; then
    echo "chaos smoke: LIST shows $quarantined quarantined tenants, want 2:" >&2
    cat "$TMP/list.before" >&2
    exit 1
fi
grep -q 'qbig quarantined .*map-entries' "$TMP/list.before" || {
    echo "chaos smoke: qbig not quarantined for map-entries" >&2
    cat "$TMP/list.before" >&2
    exit 1
}
grep -q 'qpanic quarantined .*panic' "$TMP/list.before" || {
    echo "chaos smoke: qpanic not quarantined for a trigger panic" >&2
    cat "$TMP/list.before" >&2
    exit 1
}
body_of METRICS
echo "$BODY" | grep -q 'quarantines=2' || {
    echo "chaos smoke: METRICS robust line missing quarantines=2" >&2
    exit 1
}
fetch_metrics
echo "$METRICS" | grep -qx 'dbt_robust_quarantines_total 2' || {
    echo "chaos smoke: /metrics does not report dbt_robust_quarantines_total 2:" >&2
    echo "$METRICS" | grep 'dbt_robust' >&2 || true
    exit 1
}
body_of RESULT
printf '%s' "$BODY" >"$TMP/result.before"
close_conn

echo "== chaos smoke: kill -9 + recover =="
kill -9 "$SRV_PID"
while kill -0 "$SRV_PID" 2>/dev/null; do sleep 0.05; done
SRV_PID=""
start_server -wal-dir "$TMP/wal" -quota-entries 40 -recover
open_conn
body_of LIST
printf '%s' "$BODY" >"$TMP/list.after"
grep -q 'qbig quarantined' "$TMP/list.after" || {
    echo "chaos smoke: qbig quarantine did not survive recovery" >&2
    cat "$TMP/list.after" >&2
    exit 1
}
grep -q 'qpanic quarantined' "$TMP/list.after" || {
    echo "chaos smoke: qpanic quarantine did not survive recovery" >&2
    cat "$TMP/list.after" >&2
    exit 1
}
body_of RESULT
printf '%s' "$BODY" >"$TMP/result.after"
diff -u "$TMP/result.before" "$TMP/result.after" || {
    echo "chaos smoke: healthy tenant RESULT diverged across crash/recover" >&2
    exit 1
}
# Revive: the panicker re-registers (chaos is disarmed in this process)
# and catches up from the retained WAL.
send 'REGISTER qpanic select sum(C) from S'
body_of LIST
echo "$BODY" | grep -q 'qpanic live' || {
    echo "chaos smoke: revived qpanic is not live:" >&2
    echo "$BODY" >&2
    exit 1
}
send QUIT
close_conn
kill -9 "$SRV_PID" 2>/dev/null || true
SRV_PID=""
echo "chaos smoke OK: 2 tenants isolated (LIST, METRICS, /metrics), recovery + revive clean"
