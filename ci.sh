#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
#
#   ./ci.sh          # full pipeline: test + determinism + bench gate
#   ./ci.sh quick    # skip the slow ignored tests
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-full}"

step() { printf '\n=== %s ===\n' "$*"; }

# One EXIT trap for the whole pipeline: any failure after the smoke
# server/clients are spawned must not leak them, and the determinism
# scratch directory always gets removed.
SERVE_PID=""
CLIENT_PID=""
DET_DIR=""
cleanup() {
    if [ -n "${CLIENT_PID:-}" ]; then kill "$CLIENT_PID" 2>/dev/null || true; fi
    if [ -n "${SERVE_PID:-}" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
    if [ -n "${DET_DIR:-}" ]; then rm -rf "$DET_DIR"; fi
}
trap cleanup EXIT

step "Format"
cargo fmt --check

step "Clippy"
cargo clippy --workspace --all-targets -- -D warnings

step "Build"
cargo build --workspace --all-targets

if [ "$MODE" = "quick" ]; then
    step "Tests"
    cargo test --workspace --release
else
    step "Tests (including slow ignored tests)"
    cargo test --workspace --release -- --include-ignored
fi

step "Docs"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "Smoke figures"
cargo run -p cvr-bench --release --bin fig1
cargo run -p cvr-bench --release --bin fig2 -- --runs 2 --duration 5
cargo run -p cvr-bench --release --bin fig7 -- --runs 1 --duration 5

step "Determinism: 1 thread vs 4 threads must produce identical outputs"
DET_DIR="$(mktemp -d)"
cargo run -p cvr-bench --release --bin fig2 -- --runs 6 --duration 5 --csv "$DET_DIR/t1" --threads 1
cargo run -p cvr-bench --release --bin fig2 -- --runs 6 --duration 5 --csv "$DET_DIR/t4" --threads 4
cargo run -p cvr-bench --release --bin fig7 -- --runs 4 --duration 5 --csv "$DET_DIR/t1" --threads 1
cargo run -p cvr-bench --release --bin fig7 -- --runs 4 --duration 5 --csv "$DET_DIR/t4" --threads 4
diff -r "$DET_DIR/t1" "$DET_DIR/t4"
echo "determinism: outputs byte-for-byte identical"

step "Net scenarios: pathology matrix at 1 vs 4 threads, byte-identical CSVs"
cargo run -p cvr-bench --release --bin net_bench -- --runs 2 --duration 10 --csv "$DET_DIR/net-t1" --threads 1
cargo run -p cvr-bench --release --bin net_bench -- --runs 2 --duration 10 --csv "$DET_DIR/net-t4" --threads 4
diff -r "$DET_DIR/net-t1" "$DET_DIR/net-t4"
echo "net scenarios: outputs byte-for-byte identical"

step "Lookahead sweep: horizon matrix at 1 vs 4 threads, byte-identical CSVs"
cargo run -p cvr-bench --release --bin lookahead_bench -- --runs 2 --duration 10 --csv "$DET_DIR/la-t1" --threads 1
cargo run -p cvr-bench --release --bin lookahead_bench -- --runs 2 --duration 10 --csv "$DET_DIR/la-t4" --threads 4
diff -r "$DET_DIR/la-t1" "$DET_DIR/la-t4"
echo "lookahead sweep: outputs byte-for-byte identical"

step "Serve smoke: 8 TCP clients over 4 multicast sessions on 2 shards, 200 slots, zero protocol errors"
SERVE_PORT=7015
METRICS_PORT=9091
cargo build --release -p cvr-serve --bins
cargo run -p cvr-serve --release --bin cvr-serve -- \
    --listen "127.0.0.1:$SERVE_PORT" --clients 8 --sessions 4 --shards 2 \
    --slots 200 --metrics-addr "127.0.0.1:$METRICS_PORT" --multicast \
    --horizon 4 &
SERVE_PID=$!
cargo run -p cvr-serve --release --bin cvr-client -- \
    --connect "127.0.0.1:$SERVE_PORT" --count 8 --slots 200 --seed 1 &
CLIENT_PID=$!
# Obs smoke: scrape the live exposition endpoint mid-run and require the
# core metric families — including the per-shard session gauges of the
# merged multi-session snapshot (retrying until the first publish).
SCRAPE=""
for _ in $(seq 1 40); do
    SCRAPE="$(curl -sf "http://127.0.0.1:$METRICS_PORT/metrics" || true)"
    if printf '%s' "$SCRAPE" | grep -q cvr_ticks_total; then break; fi
    sleep 0.25
done
for family in cvr_slot_stage_ns_bucket cvr_tick_overruns_total \
    cvr_session_clients cvr_ticks_total cvr_session_joins_total \
    cvr_mcast_groups cvr_lookahead_fov_overlap \
    'cvr_shard_sessions{shard="0"} 2' 'cvr_shard_sessions{shard="1"} 2'; do
    printf '%s' "$SCRAPE" | grep -qF "$family" \
        || { echo "obs smoke: missing $family in scrape"; exit 1; }
done
echo "obs smoke: live /metrics scrape contains all required families"
wait "$CLIENT_PID"
CLIENT_PID=""
wait "$SERVE_PID"
SERVE_PID=""
echo "serve smoke: server and all 8 clients exited cleanly"

step "Repo benchmark: own tests, then a fingerprinted 2 s run of every workload"
cargo test --release --offline --manifest-path repobench/Cargo.toml
for workload in fleet fleet-h4 walk-sim; do
    cargo run --release --offline --manifest-path repobench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0
done

step "Bench gate"
# build_bench also runs the staging tier (old strided walk vs fused
# level-major kernel); bench_check gates both its artifacts.
cargo run -p cvr-bench --release --bin slot_engine -- --quick
cargo run -p cvr-bench --release --bin scale -- --quick
cargo run -p cvr-bench --release --bin serve_bench -- --quick
cargo run -p cvr-bench --release --bin build_bench -- --quick
cargo run -p cvr-bench --release --bin obs_bench -- --quick
cargo run -p cvr-bench --release --bin net_bench -- --quick
cargo run -p cvr-bench --release --bin mcast_bench -- --quick
cargo run -p cvr-bench --release --bin lookahead_bench -- --quick
cargo run -p cvr-bench --release --bin bench_check

step "CI pipeline passed"
