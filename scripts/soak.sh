#!/bin/sh
# lvmd soak: serve over real TCP, drive an open fleet of clients, then
# prove three durability stories end to end:
#
#   Phase A (graceful): load, SIGTERM, assert a clean checkpoint-on-drain
#   (manifest written, exit 0) and that `lvmd -check` recovers every
#   shard byte-identically to the drained digests.
#
#   Phase B (crash): restart (recovering phase A's state), load again,
#   SIGKILL mid-serve, restart, and replay the acked-write model against
#   the recovered server — every acknowledged commit must read back.
#
#   Phase D (lease failover): restart with -sync-replicas and -lease-ms,
#   attach a standby daemon (same -lease-ms) following every shard, load,
#   SIGKILL the primary; with ZERO operator signals the standby detects
#   the missed lease renewals on its own, promotes itself at its acked
#   watermarks, and the acked-write model replays clean against it —
#   sync replication means the standby holds every acknowledged commit.
#
# Usage: scripts/soak.sh [out-dir]
# Env: SOAK_CLIENTS (1000), SOAK_SEGMENTS (64), SOAK_DURATION (10s),
#      SOAK_SHARDS (8), SOAK_ADDR (127.0.0.1:7423), SOAK_ADDR2 (127.0.0.1:7424)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

out="${1:-$(mktemp -d)}"
clients="${SOAK_CLIENTS:-1000}"
segments="${SOAK_SEGMENTS:-64}"
duration="${SOAK_DURATION:-10s}"
shards="${SOAK_SHARDS:-8}"
addr="${SOAK_ADDR:-127.0.0.1:7423}"
addr2="${SOAK_ADDR2:-127.0.0.1:7424}"
work=$(mktemp -d)
data="$work/data"
data2="$work/standby-lease"
mkdir -p "$out"

# A thousand sockets on each side wants headroom over the usual 1024.
ulimit -n 8192 2>/dev/null || true

go build -o "$work/lvmd" ./cmd/lvmd
go build -o "$work/lvmload" ./cmd/lvmload

lvmd_pid=""
standby_pid=""
cleanup() {
    [ -n "$lvmd_pid" ] && kill -9 "$lvmd_pid" 2>/dev/null || true
    [ -n "$standby_pid" ] && kill -9 "$standby_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

# wait_log LOGFILE PATTERN PID: poll until the pattern appears in the
# log, failing fast if the process died first.
wait_log() {
    i=0
    until grep -q "$2" "$1" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 600 ]; then
            echo "soak: timed out waiting for \"$2\"; log:" >&2
            cat "$1" >&2
            exit 1
        fi
        if ! kill -0 "$3" 2>/dev/null; then
            echo "soak: process exited before \"$2\"; log:" >&2
            cat "$1" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# start_lvmd LOGFILE [extra flags...]: launch the daemon and wait until
# it serves.
start_lvmd() {
    log="$1"
    shift
    "$work/lvmd" -addr "$addr" -dir "$data" -shards "$shards" "$@" >"$log" 2>&1 &
    lvmd_pid=$!
    wait_log "$log" "serving on" "$lvmd_pid"
}

echo "soak: phase A — load, SIGTERM, checkpoint-on-drain"
start_lvmd "$out/lvmd-a.log"
"$work/lvmload" -addr "$addr" -clients "$clients" -segments "$segments" \
    -duration "$duration" -strict \
    -model "$out/model-a.json" -report "$out/report-a.json"
kill -TERM "$lvmd_pid"
if ! wait "$lvmd_pid"; then
    echo "soak: lvmd exited non-zero on SIGTERM" >&2
    exit 1
fi
lvmd_pid=""
[ -f "$data/manifest.json" ] || { echo "soak: no drain manifest" >&2; exit 1; }
cp "$data/manifest.json" "$out/manifest-a.json"
"$work/lvmd" -dir "$data" -shards "$shards" -check

echo "soak: phase B — recover, load, SIGKILL, recover, replay acked model"
start_lvmd "$out/lvmd-b.log"
grep -q "recovered" "$out/lvmd-b.log" || { echo "soak: restart did not recover" >&2; exit 1; }
"$work/lvmload" -addr "$addr" -clients "$clients" -segments "$segments" \
    -duration 3s -strict \
    -model "$out/model-b.json" -report "$out/report-b.json"
kill -9 "$lvmd_pid"
wait "$lvmd_pid" 2>/dev/null || true
lvmd_pid=""

start_lvmd "$out/lvmd-c.log"
"$work/lvmload" -addr "$addr" -replay "$out/model-b.json" -strict
kill -TERM "$lvmd_pid"
wait "$lvmd_pid" || { echo "soak: final drain failed" >&2; exit 1; }
lvmd_pid=""
cp "$data/manifest.json" "$out/manifest-final.json"
"$work/lvmd" -dir "$data" -shards "$shards" -check

echo "soak: phase D — lease failover: SIGKILL primary, standby self-promotes, no signals"
# A generous TTL keeps a loaded sync-replica fence (which can stall the
# shard loop up to its ack wait) from reading as a dead primary.
lease_ms=5000
start_lvmd "$out/lvmd-lease.log" -sync-replicas -lease-ms "$lease_ms"
"$work/lvmd" -standby -upstream "$addr" -addr "$addr2" -dir "$data2" \
    -shards "$shards" -lease-ms "$lease_ms" >"$out/standby-lease.log" 2>&1 &
standby_pid=$!
wait_log "$out/standby-lease.log" "lease detection armed" "$standby_pid"
wait_log "$out/standby-lease.log" "standby following" "$standby_pid"
sleep 1 # let every shard replica subscribe before the first fenced ack
"$work/lvmload" -addr "$addr" -clients "$clients" -segments "$segments" \
    -duration 3s -strict \
    -model "$out/model-d.json" -report "$out/report-d.json"
kill -9 "$lvmd_pid"
wait "$lvmd_pid" 2>/dev/null || true
lvmd_pid=""

# No operator, nothing: the standby notices the missed renewals by
# itself, waits out the lease, and promotes.
wait_log "$out/standby-lease.log" "promoting automatically" "$standby_pid"
wait_log "$out/standby-lease.log" "serving on" "$standby_pid"
grep -q "promoted at watermark" "$out/standby-lease.log" \
    || { echo "soak: lease standby served without promoting" >&2; exit 1; }
"$work/lvmload" -addr "$addr2" -replay "$out/model-d.json" -strict
kill -TERM "$standby_pid"
wait "$standby_pid" || { echo "soak: lease-promoted drain failed" >&2; exit 1; }
standby_pid=""
[ -f "$data2/manifest.json" ] || { echo "soak: no lease-promoted drain manifest" >&2; exit 1; }
cp "$data2/manifest.json" "$out/manifest-lease.json"
"$work/lvmd" -dir "$data2" -shards "$shards" -check

echo "soak: PASS (artifacts in $out)"
