#!/usr/bin/env bash
# The full CI gate, runnable locally. Entirely offline: the workspace
# has no registry dependencies (tests/hermetic.rs enforces this), so
# CARGO_NET_OFFLINE=1 must never cause a failure.
#
# Usage:
#   bash scripts/ci.sh               # full gate
#   bash scripts/ci.sh --tests-only  # build + test only
#
# --tests-only exists for the DWM_THREADS matrix legs: lints, docs and
# the bench gate are thread-count-independent, so only the build+test
# portion repeats per thread count (the bench gate in particular must
# run at the default count the checked-in baseline was recorded with).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=1

MODE="${1:-full}"
case "$MODE" in
full | --tests-only) ;;
*)
  echo "usage: $0 [--tests-only]" >&2
  exit 2
  ;;
esac

if [[ "$MODE" == full ]]; then
  echo "== cargo fmt --check"
  cargo fmt --all --check

  echo "== cargo clippy"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "== cargo doc"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
fi

echo "== cargo build --release (DWM_THREADS=${DWM_THREADS:-default})"
cargo build --workspace --release

echo "== cargo test"
cargo test --workspace -q

# The end-to-end benchmark is a package of its own (outside the
# workspace), so the line above never builds it. Its tests are the
# check that its traced replay still compiles against the serve API
# and still renders bodies byte-identical to the engine's.
echo "== cargo test (bench_e2e)"
cargo test --manifest-path bench_e2e/Cargo.toml -q

if [[ "$MODE" == "--tests-only" ]]; then
  echo "CI test gate passed (DWM_THREADS=${DWM_THREADS:-default})"
  exit 0
fi

# The parser properties again at 20000 cases each (the run above takes
# 1000, 2000 and 48): the typed JSON array reader against the value
# tree, the request decoder against the value-tree reference, and the
# two HTTP request parsers against each other.
echo "== parser property soak (DWM_CHECK_CASES=20000)"
DWM_CHECK_CASES=20000 cargo test -q -p dwm-foundation --lib -- \
  generated_number_arrays_match_the_value_tree \
  generated_pipelines_parse_alike_in_both_parsers
DWM_CHECK_CASES=20000 cargo test -q --test decode_differential

echo "== README quickstart smoke"
bash scripts/doc_smoke.sh

echo "== topology sweep smoke (small corpus)"
cargo run --release -q -p dwm-experiments --bin exp_topology -- --small >/dev/null

echo "== bench regression gate"
bash scripts/bench_gate.sh

echo "CI gate passed"
