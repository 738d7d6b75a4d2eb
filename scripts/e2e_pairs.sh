#!/usr/bin/env bash
# Alternating parent/change pairs of the end-to-end benchmark: the
# method every end-to-end claim in this repository is judged by
# (bench_e2e/README.md). Both sides run seconds apart, so the machine's
# drift in speed hits them alike.
#
#   bash scripts/e2e_pairs.sh <parent-rev> <workload> <pairs> <first-seed>
#
# Builds bench_e2e twice: once from <parent-rev>, exported with
# `git archive` into target/e2e_pairs/<commit>/ (a plain snapshot, so
# nothing is left to prune in .git), and once from the working tree,
# uncommitted edits included. Pair k runs seed <first-seed>+k on both
# sides, the parent first on odd seeds and the change first on even
# ones, each run lasting BENCHMARK.json's run_seconds. Each side runs
# from its own tree's root, as the benchmark's command does, and its
# stdout is appended to
# target/e2e_pairs/<workload>-<first>-<last>.{parent,change}.jsonl.
# Last comes `bench_e2e compare` on the two files; the script exits
# with its status (1 when anything is worse).
#
# A run that fails its checks still counts: compare sees its failed
# operations. Runs are long (pairs x 2 x run_seconds), so nothing else
# should load the machine meanwhile.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 4 ]]; then
  echo "usage: $0 <parent-rev> <workload> <pairs> <first-seed>" >&2
  exit 2
fi
rev="$1" workload="$2" pairs="$3" first="$4"
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ && "$first" =~ ^[0-9]+$ ]]; then
  echo "<pairs> must be a positive integer and <first-seed> an unsigned one" >&2
  exit 2
fi

export CARGO_NET_OFFLINE=1
seconds="$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')"
commit="$(git rev-parse --verify "$rev^{commit}")"
out=target/e2e_pairs
parent="$out/$commit"

if [[ ! -f "$parent/BENCHMARK.json" ]]; then
  rm -rf "$parent"
  mkdir -p "$parent"
  git archive "$commit" | tar -x -C "$parent"
fi
build() {
  cargo build --release --quiet --offline --manifest-path "$1/bench_e2e/Cargo.toml" --bin bench_e2e
}
echo "== building bench_e2e at $commit and in the working tree" >&2
build "$parent"
build .

last=$((first + pairs - 1))
parent_log="$out/$workload-$first-$last.parent.jsonl"
change_log="$out/$workload-$first-$last.change.jsonl"
: >"$parent_log"
: >"$change_log"

# One run of side $1 (its tree) on seed $2, appended to log $3.
run() {
  echo "== $workload seed $2: $(basename "$3" .jsonl)" >&2
  (cd "$1" && bench_e2e/target/release/bench_e2e \
    --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) >>"$3" ||
    echo "   run exited with status $?" >&2
}
for seed in $(seq "$first" "$last"); do
  if ((seed % 2 == 1)); then
    run "$parent" "$seed" "$parent_log"
    run . "$seed" "$change_log"
  else
    run . "$seed" "$change_log"
    run "$parent" "$seed" "$parent_log"
  fi
done

echo "== $parent_log vs $change_log" >&2
bench_e2e/target/release/bench_e2e compare "$parent_log" "$change_log"
