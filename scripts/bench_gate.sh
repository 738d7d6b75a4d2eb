#!/usr/bin/env bash
# Benchmark regression gate: runs the gated bench suites with JSON
# output and compares minimum iteration times against the checked-in
# baseline (results/bench_baseline.json). Fails when any benchmark's
# minimum is more than DWM_BENCH_GATE_THRESHOLD (default 0.25 = 25%)
# slower. Minima, not medians: on a small shared box scheduler noise
# swings medians by tens of percent while minima stay put, and a real
# regression raises the minimum too. The serve suite additionally
# carries a same-run p99 tail bound (see P99 below) so request-latency
# tails are gated, not just best cases.
#
# After an intentional performance change (or on a new reference
# machine), re-baseline and commit the result:
#
#   bash scripts/bench_gate.sh --rebaseline
#
# A re-baseline runs the suites three times and records, per benchmark,
# the slowest of the three runs' minima: this machine's speed swings up
# to ~2x within minutes, so a single run's minima can catch it in a
# fast patch that the next plain gate run never sees again. The
# same-run bounds (pairs, speedup floors, p99 tails) are checked within
# every run.
#
# The comparison logic lives in crates/bench/src/gate.rs (unit-tested);
# this script only runs the suites and invokes the bench_compare CLI.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=1

BASELINE=results/bench_baseline.json
THRESHOLD="${DWM_BENCH_GATE_THRESHOLD:-0.25}"
# Few samples: the gate compares minima, which stabilize quickly —
# this is not publication-grade statistics. Override via env.
export DWM_BENCH_SAMPLES="${DWM_BENCH_SAMPLES:-10}"
export DWM_BENCH_WARMUP_MS="${DWM_BENCH_WARMUP_MS:-50}"

reports="$(mktemp -d)"
trap 'rm -rf "$reports"' EXIT

REBASELINE=0
[[ "${1:-}" == "--rebaseline" ]] && REBASELINE=1
RUNS=$((REBASELINE ? 3 : 1))

# Only the suites with parallel (bench_threads) coverage are gated,
# plus the serve request-latency suite, the trace-synthesis suite, and
# the simulator/topology replay suite — fast enough to run on every CI
# push. Each run's reports land in their own directory.
for run in $(seq "$RUNS"); do
  mkdir -p "$reports/$run"
  for suite in bench_sweep bench_exact bench_graph bench_serve bench_trace bench_sim; do
    echo "== $suite (run $run of $RUNS)"
    # The serve suite carries the tight 5% pair bound, so it gets more
    # samples: the pair compares per-side minima, and a longer sampling
    # window makes a transient load spike unable to inflate every
    # sample of one side. The trace suite's headline point streams
    # 10^8 accesses per iteration (~10 s), so it gets few.
    samples="$DWM_BENCH_SAMPLES"
    [[ "$suite" == bench_serve ]] && samples="${DWM_BENCH_SERVE_SAMPLES:-30}"
    [[ "$suite" == bench_trace ]] && samples="${DWM_BENCH_TRACE_SAMPLES:-3}"
    DWM_BENCH_JSON="$reports/$run" DWM_BENCH_SAMPLES="$samples" \
      cargo bench -q -p dwm-bench --bench "$suite"
  done
done

# Same-run pair bounds (both 5%, alternating samples):
#  - the cached-solve path with metric collection on vs off, proving
#    observability costs < 5%;
#  - the cached-solve path while the idle lane holds a deep queue of
#    pending tier-2 upgrades vs a quiet engine, proving background
#    upgrades never steal cycles from foreground solves.
# Both sides of each pair run seconds apart on this machine, so the
# bounds hold even where the absolute baseline would drift.
PAIR=(--pair serve/serve/solve_hit serve/serve/solve_hit_obs_off
      --pair serve/serve/solve_hit_idle_load serve/serve/solve_hit_lane_quiet
      --pair-threshold "${DWM_BENCH_OBS_THRESHOLD:-0.05}")

# Same-run dispatch ceiling: graph/csr_build/64 builds four 64-item
# graphs from their digest rows through one par_map, tens of us of
# work at t1, so its /t4 twin is dominated by what dispatching a
# parallel call costs. t4 may take at
# most 1.5x as long as t1 (t1/t4 >= 0.67). Spawning the workers per
# call cost ~100 us there (t1/t4 0.29 in the BENCH_9 baseline); the
# persistent pool parks its helpers between calls instead. Like the
# pairs, the two sides are sampled alternately under one iteration
# count (Harness::bench_threads), so a fast patch lands on both.
DISPATCH_FLOOR=0.67

# Same-run speedup floors: the window-local local-search kernel, whose
# candidate-pair deltas are O(1), must stay >= 2x its byte-identical
# scalar reference (a two-row walk per pair) at the n=4096 scale the
# 10^8-access profile-driven workloads land on, and >= 3x on the
# 256-item Zipf digest a /solve miss refines, whose hub rows make the
# scalar walks long.
SPEEDUP=(--min-speedup graph/algo/local_search_scalar/4096
                       graph/algo/local_search/4096
                       "${DWM_BENCH_LS_SPEEDUP:-2.0}"
         --min-speedup graph/algo/local_search_zipf_scalar/256
                       graph/algo/local_search_zipf/256 3.0
         --min-speedup graph/graph/csr_build/64/t1
                       graph/graph/csr_build/64/t4 "$DISPATCH_FLOOR")

# Same-run p99 tail bound on the serve suite: every serve/* bench's
# 99th-percentile iteration time must stay within the factor times its
# own median. Like the pairs this is machine-drift immune (p99 and
# median scale together with the box), but an event-loop pathology —
# a lost wakeup, a convoy behind accept — blows the ratio up by orders
# of magnitude. 20x default: serve medians sit at 60us-4ms, so honest
# scheduler noise stays far below it.
P99=(--p99-tail serve/ "${DWM_BENCH_P99_TAIL:-20}")

# Every gate run appends a perf-trajectory snapshot
# (results/bench_history/BENCH_<n>.json) so performance over time is
# diffable, not just pass/fail.
SUMMARY=(--summary-json "${DWM_BENCH_SUMMARY_DIR:-results/bench_history}")

mkdir -p results
if (( REBASELINE )); then
  cargo run --release -q -p dwm-bench --bin bench_compare -- \
    --write-baseline "${PAIR[@]}" "${SPEEDUP[@]}" "${P99[@]}" "${SUMMARY[@]}" \
    "$BASELINE" "$reports"/*
else
  cargo run --release -q -p dwm-bench --bin bench_compare -- \
    --threshold "$THRESHOLD" "${PAIR[@]}" "${SPEEDUP[@]}" "${P99[@]}" \
    "${SUMMARY[@]}" "$BASELINE" "$reports"/*
fi
