#!/usr/bin/env bash
# Full local CI: build, tests, lints, formatting — all against the
# committed Cargo.lock so results are reproducible offline.
#
# Optional stages:
#   --soak      run every row of the deepum_chaos soak: the SOAK table
#               in crates/bench/src/chaos.rs. Seed 0 of each row also
#               runs as a deepum-bench unit test on every invocation.
#               Off by default: tier-1 stays fast.
#   --bench     run the full deepum_suite grid (serial + parallel with
#               byte-identity asserted, gated against
#               ci/bench-baseline.json for per-cell hash drift and
#               >25% wall-clock regressions) emitting BENCH_suite.json,
#               re-render EXPERIMENTS.md from its reports and fail if
#               the committed copy differs, then deepum_mtbench emitting BENCH_multitenant.json
#               (simulated-kernels/sec and wall-clock, solo vs 2/4/8
#               tenants) plus BENCH_serving.json (requests/sec and
#               simulated-kernels/sec at 1/2/4 endpoints) in the
#               repository root.
#   --coverage  run cargo llvm-cov over the workspace and compare line
#               coverage against ci/coverage-baseline.txt (recording the
#               baseline on the first run). Skipped with a notice when
#               cargo-llvm-cov is not installed.
set -euo pipefail
cd "$(dirname "$0")"

SOAK=0
BENCH=0
COVERAGE=0
for arg in "$@"; do
  case "$arg" in
    --soak) SOAK=1 ;;
    --bench) BENCH=1 ;;
    --coverage) COVERAGE=1 ;;
    *) echo "unknown option: $arg (known: --soak, --bench, --coverage)" >&2; exit 2 ;;
  esac
done

echo "== build (release) =="
cargo build --release --locked

echo "== tests =="
cargo test -q --locked --workspace

echo "== benchmark harness tests =="
# examples/benchmark is its own package (not a workspace member), so
# the workspace run above does not reach its tests.
cargo test -q --release --locked --manifest-path examples/benchmark/Cargo.toml

echo "== deepum-tidy =="
# Any violation fails the run; accepted sites carry an inline
# `deepum-tidy: allow(<lint>) -- <reason>` suppression.
cargo run -q --locked -p deepum-analysis -- --check .

echo "== clippy =="
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --check

if [ "$SOAK" -eq 1 ]; then
  echo "== chaos soak =="
  cargo run -q --locked --release -p deepum-bench --bin deepum_chaos
fi

if [ "$BENCH" -eq 1 ]; then
  echo "== suite bench =="
  # EXPERIMENTS.md holds only simulated, deterministic numbers, so any
  # difference from the re-rendered copy means it is stale. The wall
  # gate's verdict is kept and reported after the diff.
  RENDERED="$(mktemp -d)/EXPERIMENTS.md"
  SUITE_STATUS=0
  cargo run -q --locked --release -p deepum-bench --bin deepum_suite -- \
    --baseline ci/bench-baseline.json --out BENCH_suite.json \
    --experiments "$RENDERED" || SUITE_STATUS=$?
  if [ -f "$RENDERED" ]; then
    diff -u EXPERIMENTS.md "$RENDERED"
  fi
  [ "$SUITE_STATUS" -eq 0 ] || exit "$SUITE_STATUS"
  echo "== multi-tenant bench =="
  cargo run -q --locked --release -p deepum-bench --bin deepum_mtbench
  echo "== inference-serving bench =="
  cargo run -q --locked --release -p deepum-bench --bin deepum_mtbench -- --serve
fi

if [ "$COVERAGE" -eq 1 ]; then
  echo "== coverage =="
  if cargo llvm-cov --version >/dev/null 2>&1; then
    BASELINE_FILE=ci/coverage-baseline.txt
    # Line coverage percentage, truncated to an integer so the gate is
    # robust against sub-percent jitter.
    PCT=$(cargo llvm-cov --locked --workspace --summary-only 2>/dev/null \
      | awk '/^TOTAL/ { gsub(/%/, "", $10); printf "%d", $10 }')
    if [ -z "$PCT" ]; then
      echo "coverage: could not parse llvm-cov summary output" >&2
      exit 1
    fi
    if [ -f "$BASELINE_FILE" ]; then
      BASE=$(cat "$BASELINE_FILE")
      echo "coverage: ${PCT}% lines (baseline ${BASE}%)"
      if [ "$PCT" -lt "$BASE" ]; then
        echo "coverage regressed below the recorded baseline; raise tests or re-bless $BASELINE_FILE" >&2
        exit 1
      fi
    else
      mkdir -p "$(dirname "$BASELINE_FILE")"
      echo "$PCT" > "$BASELINE_FILE"
      echo "coverage: ${PCT}% lines (baseline recorded in $BASELINE_FILE)"
    fi
  else
    echo "coverage: cargo-llvm-cov is not installed; skipping (install with 'cargo install cargo-llvm-cov')"
  fi
fi

echo "CI OK"
