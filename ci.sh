#!/usr/bin/env bash
# Offline CI for the storypivot workspace.
#
# The whole point of the zero-dependency substrate is that this script
# passes on a machine with an EMPTY cargo registry and no network. Any
# step that tries to touch crates.io fails the run.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> build (release, all targets)"
cargo build --release --workspace --all-targets

echo "==> tests"
cargo test -q --workspace

echo "==> tests (perfbench, the benchmark driver outside the workspace)"
cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> smoke: bench harness e1 (quick, json artifact)"
SMOKE_DIR="$(mktemp -d)"
PIVOTD_PID=""
REPLICA_PID=""
# If a smoke step dies mid-script, the daemons it spawned must not
# outlive the CI run: kill any live pivotd (leader or replica) before
# sweeping the scratch dir. KILL is safe here — crash recovery is a
# tested path.
cleanup() {
    for pid in "$REPLICA_PID" "$PIVOTD_PID"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT
cargo run -p storypivot-bench --bin harness --release -- e1 --quick --json "$SMOKE_DIR/bench"
test -s "$SMOKE_DIR/bench/BENCH_e1.json"

echo "==> smoke: bench harness hotpath (E17 before/after, partition equality asserted in-run)"
# The harness itself asserts the cache-on and cache-off partitions are
# identical; CI just checks the artifact landed with a timing column.
cargo run -p storypivot-bench --bin harness --release -- hotpath --quick --json "$SMOKE_DIR/bench"
test -s "$SMOKE_DIR/bench/BENCH_hotpath.json"
grep -q '"ns/event"' "$SMOKE_DIR/bench/BENCH_hotpath.json"

# Poll a pivotd --port-file until the daemon binds; dies if the daemon does.
wait_port() { # args: port_file pid
    for _ in $(seq 1 100); do
        [ -s "$1" ] && break
        kill -0 "$2" 2>/dev/null || { echo "pivotd died before binding"; exit 1; }
        sleep 0.1
    done
    test -s "$1" || { echo "pivotd never wrote its port file"; exit 1; }
    cat "$1"
}

echo "==> smoke: serve (pivotd + loadgen round trip)"
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 \
    --checkpoint-dir "$SMOKE_DIR/ckpt" --port-file "$SMOKE_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$SMOKE_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --quick --json "$SMOKE_DIR/BENCH_serve.json" \
    --metrics --shutdown > "$SMOKE_DIR/metrics.txt"
# The merged exposition made it over the wire.
grep -q '^storypivot_ingest_total ' "$SMOKE_DIR/metrics.txt"
# The serving-runtime gauges are registered and exported: connection
# count, pipelining depth, and buffer-pool pressure must all be
# present (values vary; the series existing is the contract).
grep -q '^storypivot_connections_open ' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_pipeline_depth ' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_pool_buffers_outstanding ' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_pool_bytes_highwater ' "$SMOKE_DIR/metrics.txt"
# The hot-story-cache hit/miss counters are registered and exported.
grep -q '^storypivot_story_cache_hits_total' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_story_cache_misses_total' "$SMOKE_DIR/metrics.txt"
# METRICS is the only serving surface: the per-shard fields an operator
# needs (journal size, replay debt, reads served, stories alive) are
# shard-labelled series in the same exposition.
grep -q '^storypivot_shard_wal_bytes{' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_shard_checkpoint_age_ops{' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_shard_queries_total{' "$SMOKE_DIR/metrics.txt"
grep -q '^storypivot_shard_stories{' "$SMOKE_DIR/metrics.txt"
# SHUTDOWN must terminate the daemon gracefully (exit 0) and leave one
# generation-numbered checkpoint per shard.
wait "$PIVOTD_PID"
PIVOTD_PID=""
ls "$SMOKE_DIR"/ckpt/shard0.g*.spvc >/dev/null
ls "$SMOKE_DIR"/ckpt/shard1.g*.spvc >/dev/null
test -s "$SMOKE_DIR/BENCH_serve.json"

echo "==> smoke: connection storm (multiplexed runtime holds 1k sockets)"
# Needs ~2k descriptors client-side plus the daemon's own; skip rather
# than fail on boxes with a tight ulimit.
STORM_CONNS=1000
FD_LIMIT="$(ulimit -n)"
if [ "$FD_LIMIT" != "unlimited" ] && [ "$FD_LIMIT" -lt 2500 ]; then
    echo "    skipped: ulimit -n is $FD_LIMIT (need ~2500 for $STORM_CONNS connections)"
else
    cargo run -p storypivot-serve --bin pivotd --release -- \
        --addr 127.0.0.1:0 --shards 2 --io-workers 2 --idle-timeout-ms 30000 \
        --checkpoint-dir "$SMOKE_DIR/storm-ckpt" --port-file "$SMOKE_DIR/storm-port" &
    PIVOTD_PID=$!
    PORT="$(wait_port "$SMOKE_DIR/storm-port" "$PIVOTD_PID")"
    cargo run -p storypivot-serve --bin loadgen --release -- \
        --addr "127.0.0.1:$PORT" --storm --conns "$STORM_CONNS" --rounds 3 \
        --interval-ms 20 --json "$SMOKE_DIR/BENCH_storm.json"
    cargo run -p storypivot-serve --bin loadgen --release -- \
        --addr "127.0.0.1:$PORT" --query-only --shutdown
    wait "$PIVOTD_PID"
    PIVOTD_PID=""
    test -s "$SMOKE_DIR/BENCH_storm.json"
    grep -q "\"connections\": $STORM_CONNS" "$SMOKE_DIR/BENCH_storm.json"
fi

echo "==> smoke: crash recovery (kill -9, WAL replay must restore the partition)"
CRASH_DIR="$SMOKE_DIR/crash"
mkdir -p "$CRASH_DIR"
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 --align-every 0 --fsync always \
    --wal-dir "$CRASH_DIR/wal" --checkpoint-dir "$CRASH_DIR/ckpt" \
    --port-file "$CRASH_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$CRASH_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --quick --partition-file "$CRASH_DIR/before.txt"
test -s "$CRASH_DIR/before.txt"
# No drain, no checkpoint, no warning: the journal is all that's left.
kill -9 "$PIVOTD_PID"
wait "$PIVOTD_PID" || true
rm -f "$CRASH_DIR/port"
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 --align-every 0 --fsync always \
    --wal-dir "$CRASH_DIR/wal" --checkpoint-dir "$CRASH_DIR/ckpt" \
    --port-file "$CRASH_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$CRASH_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --query-only --partition-file "$CRASH_DIR/after.txt" --shutdown
wait "$PIVOTD_PID"
PIVOTD_PID=""
cmp "$CRASH_DIR/before.txt" "$CRASH_DIR/after.txt"

echo "==> smoke: crash recovery at --align-every 64 (cadence through live apply and WAL replay)"
CRASH64_DIR="$SMOKE_DIR/crash64"
mkdir -p "$CRASH64_DIR"
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 --align-every 64 --fsync always \
    --wal-dir "$CRASH64_DIR/wal" --checkpoint-dir "$CRASH64_DIR/ckpt" \
    --port-file "$CRASH64_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$CRASH64_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --quick --partition-file "$CRASH64_DIR/before.txt"
test -s "$CRASH64_DIR/before.txt"
kill -9 "$PIVOTD_PID"
wait "$PIVOTD_PID" || true
rm -f "$CRASH64_DIR/port"
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 --align-every 64 --fsync always \
    --wal-dir "$CRASH64_DIR/wal" --checkpoint-dir "$CRASH64_DIR/ckpt" \
    --port-file "$CRASH64_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$CRASH64_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --query-only --partition-file "$CRASH64_DIR/after.txt" --shutdown
wait "$PIVOTD_PID"
PIVOTD_PID=""
cmp "$CRASH64_DIR/before.txt" "$CRASH64_DIR/after.txt"

echo "==> smoke: replication (leader + follower, bounded lag, NOT_LEADER wall)"
REPL_DIR="$SMOKE_DIR/repl"
mkdir -p "$REPL_DIR"
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 --align-every 0 --fsync always \
    --wal-dir "$REPL_DIR/leader-wal" --checkpoint-dir "$REPL_DIR/leader-ckpt" \
    --port-file "$REPL_DIR/leader-port" &
PIVOTD_PID=$!
PORT="$(wait_port "$REPL_DIR/leader-port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --quick --partition-file "$REPL_DIR/leader.txt"
test -s "$REPL_DIR/leader.txt"
cargo run -p storypivot-serve --bin pivotd --release -- \
    --addr 127.0.0.1:0 --shards 2 --align-every 0 \
    --replica --leader "127.0.0.1:$PORT" \
    --wal-dir "$REPL_DIR/replica-wal" --checkpoint-dir "$REPL_DIR/replica-ckpt" \
    --port-file "$REPL_DIR/replica-port" &
REPLICA_PID=$!
RPORT="$(wait_port "$REPL_DIR/replica-port" "$REPLICA_PID")"
# The follower must answer queries with bounded lag: within ~10 s its
# served partition equals the leader's, byte for byte.
CONVERGED=""
for _ in $(seq 1 50); do
    cargo run -p storypivot-serve --bin loadgen --release -- \
        --addr "127.0.0.1:$RPORT" --query-only --partition-file "$REPL_DIR/replica.txt"
    if cmp -s "$REPL_DIR/leader.txt" "$REPL_DIR/replica.txt"; then
        CONVERGED=1
        break
    fi
    sleep 0.2
done
[ -n "$CONVERGED" ] || { echo "replica never converged to the leader's partition"; exit 1; }
# The follower exports its replication lag in the METRICS exposition.
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$RPORT" --query-only --metrics > "$REPL_DIR/replica-metrics.txt"
grep -q '^storypivot_replica_lag_ops{' "$REPL_DIR/replica-metrics.txt"
# Read fan-out across leader + follower round-robins and reports both.
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --query-only --replicas "127.0.0.1:$RPORT" \
    --queries 200 --json "$REPL_DIR/BENCH_fanout.json"
grep -q "\"targets\"" "$REPL_DIR/BENCH_fanout.json"
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$RPORT" --query-only --shutdown
wait "$REPLICA_PID"
REPLICA_PID=""
cargo run -p storypivot-serve --bin loadgen --release -- \
    --addr "127.0.0.1:$PORT" --query-only --shutdown
wait "$PIVOTD_PID"
PIVOTD_PID=""

echo "==> smoke: chaos (scenario replay + fault injection + crash equivalence)"
# Fault hooks are compiled only into debug binaries (release plans are
# inert by design), so this smoke drives the debug pivotd/loadgen the
# test step already built. The plan tears WAL appends and fails
# checkpoint writes while a flash-crowd scenario replays; every
# rejection is retried, then kill -9 + a clean restart must serve the
# byte-identical partition the faulted daemon acknowledged.
CHAOS_DIR="$SMOKE_DIR/chaos"
mkdir -p "$CHAOS_DIR"
STORYPIVOT_FAULTS="seed=11,wal_enospc=15,wal_short=15,checkpoint=300" \
cargo run -p storypivot-serve --bin pivotd -- \
    --addr 127.0.0.1:0 --shards 2 --align-every 0 --fsync every:16 \
    --deadline-ms 50 --checkpoint-every-bytes 32768 \
    --wal-dir "$CHAOS_DIR/wal" --checkpoint-dir "$CHAOS_DIR/ckpt" \
    --port-file "$CHAOS_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$CHAOS_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen -- \
    --addr "127.0.0.1:$PORT" --scenario flash_crowd --events 600 --conns 2 \
    --json "$CHAOS_DIR/BENCH_flash.json" --metrics > "$CHAOS_DIR/metrics.txt"
# The degradation ladder is registered and exported: shed and
# degraded-read counters must be present in the merged exposition.
grep -q '^storypivot_shed_total' "$CHAOS_DIR/metrics.txt"
grep -q '^storypivot_degraded_reads_total' "$CHAOS_DIR/metrics.txt"
# The fault plan actually bit: injected journal rejections were
# absorbed and retried by the scenario replay.
grep -q '"rejected_retries": [1-9]' "$CHAOS_DIR/BENCH_flash.json"
cargo run -p storypivot-serve --bin loadgen -- \
    --addr "127.0.0.1:$PORT" --query-only --partition-file "$CHAOS_DIR/before.txt"
test -s "$CHAOS_DIR/before.txt"
kill -9 "$PIVOTD_PID"
wait "$PIVOTD_PID" || true
rm -f "$CHAOS_DIR/port"
# Clean restart, no fault plan: WAL replay (torn appends were repaired
# in place, rejected appends left nothing) rebuilds the partition.
cargo run -p storypivot-serve --bin pivotd -- \
    --addr 127.0.0.1:0 --shards 2 --align-every 0 --fsync every:16 \
    --wal-dir "$CHAOS_DIR/wal" --checkpoint-dir "$CHAOS_DIR/ckpt" \
    --port-file "$CHAOS_DIR/port" &
PIVOTD_PID=$!
PORT="$(wait_port "$CHAOS_DIR/port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen -- \
    --addr "127.0.0.1:$PORT" --query-only --partition-file "$CHAOS_DIR/after.txt" --shutdown
wait "$PIVOTD_PID"
PIVOTD_PID=""
cmp "$CHAOS_DIR/before.txt" "$CHAOS_DIR/after.txt"
# Retraction storm against a fresh daemon (scenario scripts assume
# fresh source ids), checkpoint faults only so REMOVE_DOC at volume
# runs against a journaling-but-flaky checkpoint path.
STORYPIVOT_FAULTS="seed=4,checkpoint=300" \
cargo run -p storypivot-serve --bin pivotd -- \
    --addr 127.0.0.1:0 --shards 2 --align-every 0 --fsync every:16 \
    --deadline-ms 50 --checkpoint-every-bytes 32768 \
    --wal-dir "$CHAOS_DIR/storm-wal" --checkpoint-dir "$CHAOS_DIR/storm-ckpt" \
    --port-file "$CHAOS_DIR/storm-port" &
PIVOTD_PID=$!
PORT="$(wait_port "$CHAOS_DIR/storm-port" "$PIVOTD_PID")"
cargo run -p storypivot-serve --bin loadgen -- \
    --addr "127.0.0.1:$PORT" --scenario retraction_storm --events 600 --conns 2 \
    --json "$CHAOS_DIR/BENCH_storm_scenario.json"
grep -q '"shed_retries"' "$CHAOS_DIR/BENCH_storm_scenario.json"
# Chaos exit: the trap's kill -9 is the teardown — crash recovery of a
# checkpoint-faulted daemon is a tested path, not a cleanup hazard.

echo "CI OK"
