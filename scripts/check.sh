#!/usr/bin/env bash
# Full local gate: release build, tests, fault-injection, and lint —
# everything offline.
#
# The workspace has no registry access; all third-party deps resolve to the
# API-compatible shims in compat/, so --offline must always succeed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> source lint (unwrap/expect, unsafe, checkpoint casts)"
bash scripts/lint_forbidden.sh

echo "==> rustfmt"
# The whole workspace is rustfmt-clean and must stay so. e2ebench/ is a
# workspace of its own, so --all does not reach it; never format it, it
# changes only with the benchmark.
cargo fmt --all --check

echo "==> no ignored recovery tests"
# The fault-tolerance suites must always run: an #[ignore] on any of them
# would let a broken resume/watchdog path slip through the gate.
if grep -n '#\[ignore' tests/fault_injection.rs tests/serve_fault.rs crates/nn/tests/run_state.rs \
  crates/nn/src/trainer.rs crates/nn/src/runstate.rs 2>/dev/null; then
  echo "error: recovery tests must not be #[ignore]d" >&2
  exit 1
fi

echo "==> cargo build --release"
cargo build --release --offline
# The root build covers only the root package; the cost gate's binary
# lives in cts-bench.
cargo build --release --offline -p cts-bench --bin bench_cost

echo "==> static analyzer sweep over the discrete space"
# verify-space cross-checks every cts-verify verdict against the runtime
# (smoke training, tape reachability, gradient norms); any false
# positive/negative exits non-zero.
./target/release/verify_space

echo "==> static pricing at 1000 nodes"
# cost_scaling prices every operator family at N = 100, 300 and 1000 — the
# only caller that prices at graph sizes where building the pricing
# context matters — and exits non-zero if the analyzer refuses one.
./target/release/cost_scaling

echo "==> static cost model gate"
# bench_cost prices every operator family statically and re-counts it
# under the kernel meter: flops/bytes must match bit for bit, the
# row-fitted latency model must land inside a 3x band on every family,
# and the compiled-in LatencyModel::default() coefficients must sit
# within 3x of the refit — a kernel-speed change (e.g. new SIMD paths)
# that is not re-calibrated into the defaults fails here.
BENCH_OUT_DIR=target ./target/release/bench_cost --gate

echo "==> cargo test -q (workspace)"
cargo test -q --workspace --offline

echo "==> benchmark crate (e2ebench) build + tests"
# e2ebench/ is a cargo workspace of its own, so the workspace steps above
# never compile it; a public-API change in the library crates must fail
# here rather than at benchmark time. --locked keeps its Cargo.lock as is
# (cargo 1.95 accepts the lock's stale crossbeam entry; ROADMAP item 5).
cargo build --release --offline --locked --manifest-path e2ebench/Cargo.toml
cargo test -q --offline --locked --manifest-path e2ebench/Cargo.toml

echo "==> cargo test -q (workspace, CTS_SIMD=off)"
# The SIMD determinism contract: the scalar fallback is not a degraded
# mode but the semantics. The entire suite must pass with the vector
# paths disabled, and the proptests in parallel_consistency.rs separately
# pin vector and scalar outputs to identical bits.
CTS_SIMD=off cargo test -q --workspace --offline

echo "==> fault-injection suite (explicit)"
cargo test --offline --test fault_injection -- --nocapture
cargo test --offline -p cts-nn --test run_state
# train_full's kill/resume and watchdog rollback tests (exact restore,
# mid-epoch resume then rollback, the compounding LR cut) and the shared
# watchdog policy's tests are unit tests.
cargo test --offline -p cts-nn --lib -- trainer::tests runstate::tests

# The zero-allocation and front-end gates below run once per worker count:
# serial (CTS_NUM_THREADS=1) and the host's core count, so a 1-core box
# cannot hide a regression on the multi-thread launch path. A 1-core host
# runs them once.
thread_counts=(1)
if [[ "$(nproc)" -gt 1 ]]; then
  thread_counts+=("$(nproc)")
fi

echo "==> serving chaos suite"
# The request path must degrade, never panic: typed errors, batch
# isolation under injected faults, oversize splitting under the cap,
# canary-gate rollback, and the packing proptests (tests/serve_fault.rs).
cargo test --offline --test serve_fault

for n in "${thread_counts[@]}"; do
  echo "==> compiled-plan parity gate (CTS_NUM_THREADS=$n)"
  # The derived model's one walk (ExecPlan) must give the same bits on its
  # Eval and Tape backends (randomized genotypes/batch sizes, live-weight
  # tracking) and allocate nothing at steady state on Eval
  # (tests/compiled_parity.rs).
  CTS_NUM_THREADS="$n" cargo test --offline --test compiled_parity

  echo "==> search and retrain goldens (CTS_NUM_THREADS=$n)"
  # The bi-level search and the from-scratch retraining must reproduce
  # their pinned bits whatever the worker count, since the GEMMs split
  # output rows across workers differently per count
  # (tests/search_golden.rs, tests/retrain_golden.rs).
  CTS_NUM_THREADS="$n" cargo test --offline --test search_golden
  CTS_NUM_THREADS="$n" cargo test --offline --test retrain_golden

  echo "==> allocation-regression gate (CTS_NUM_THREADS=$n)"
  # A steady-state supernet train step must stay within the pinned
  # system-allocator budget (tests/alloc_budget.rs); catches per-step Vec
  # churn or arena bypasses creeping back into the hot path.
  CTS_NUM_THREADS="$n" cargo test --offline --test alloc_budget

  echo "==> serving front-end gate (CTS_NUM_THREADS=$n)"
  # Sharded ingestion, forecast cache and multi-model routing
  # (tests/serve_front.rs).
  CTS_NUM_THREADS="$n" cargo test --offline --test serve_front
done

echo "==> observability gate"
# Metrics collection must be a pure observer: bit-identical genotype and
# per-epoch trace with CTS_METRICS on/off, and the JSONL run log must
# summarize (tests/observability.rs).
cargo test --offline --test observability

echo "==> cargo doc -D warnings"
# Intra-doc links must resolve, and public docs must not link to private
# items.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "All checks passed."
