#!/usr/bin/env bash
# Emit machine-readable benchmark JSON at the repo root:
#   BENCH_ops.json          per-kernel ns/iter + allocs across worker counts
#   BENCH_search_step.json  bi-level search-step cost per worker count, arena on/off
#   BENCH_obs.json          observability smoke run: per-kernel time shares,
#                           phase breakdown, arena/pool/tape counters
#   BENCH_serve.json        serving latency: one row per SERVE_THREADS entry
#                           (p50/p99 flush, compiled-vs-tape ms/window +
#                           speedup, result-cache hit/miss/evict deltas)
#   BENCH_cost.json         static cost model audit: per-family predicted
#                           vs measured flops/bytes (exactness booleans)
#                           and latency ratios under both calibrations
#   cts_run.jsonl           the raw structured run log behind BENCH_obs.json
#
# Usage: scripts/bench.sh
# Output dir override: BENCH_OUT_DIR=/tmp scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out="${BENCH_OUT_DIR:-.}"

cargo build --release --offline -p cts-bench --bin bench_json --bin obs_smoke --bin bench_cost
cargo build --release --offline -p cts-obs --bin report
./target/release/bench_json "$@"

CTS_RUN_LOG="$out/cts_run.jsonl" ./target/release/obs_smoke
./target/release/report "$out/cts_run.jsonl" --out "$out/BENCH_obs.json"

cargo build --release --offline -p cts-serve
SERVE_THREADS="${SERVE_THREADS:-1,4}" SERVE_CACHE_MB="${SERVE_CACHE_MB:-8}" \
    BENCH_OUT_DIR="$out" ./target/release/serve_bench

BENCH_OUT_DIR="$out" ./target/release/bench_cost
