#!/usr/bin/env bash
# Serve smoke: four runs of the release daemon on loopback, each driven
# and checked by the `serve_load` harness.
#
#   bash scripts/serve_smoke.sh
#
# 1. loopback: 200 requests, deterministic bodies, at least 1000 req/s;
# 2. C10k: 10 000 idle keep-alive connections held through a load run
#    against a `--cluster 2` daemon, then a drain via POST /admin/drain;
# 3. deadline contract: `quality=fast` p99 within 20 ms, zero misses;
# 4. session streaming: 8 sessions, placements cross-checked.
#
# Every daemon must exit 0. On a failure the script prints the
# daemon's stderr; on any exit it kills the daemon it started, if that
# one is still running.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p dwm-cli -p dwm-serve --bins
bin="${CARGO_TARGET_DIR:-target}/release"
logs="$(mktemp -d)"
daemon_pid=""
daemon_log=""

cleanup() {
  if [[ -n "$daemon_pid" ]]; then
    kill -KILL "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$logs"
}
trap cleanup EXIT

# start_daemon <name> <dwmplace serve args...>
start_daemon() {
  daemon_log="$logs/$1.log"
  shift
  "$bin/dwmplace" serve "$@" 2>"$daemon_log" &
  daemon_pid=$!
}

# fail <message>: reports, prints the daemon's stderr, exits 1.
fail() {
  echo "serve smoke: $1" >&2
  if [[ -n "$daemon_log" ]]; then
    echo "--- daemon stderr ---" >&2
    cat "$daemon_log" >&2
  fi
  exit 1
}

# stop_daemon [signal]: signals the daemon if asked, then requires it to
# exit 0.
stop_daemon() {
  if [[ $# -gt 0 ]]; then
    kill "-$1" "$daemon_pid"
  fi
  local status=0
  wait "$daemon_pid" || status=$?
  daemon_pid=""
  [[ $status -eq 0 ]] || fail "daemon exited $status"
  daemon_log=""
}

echo "== loopback (200 requests, deterministic, >= 1000 req/s)"
start_daemon serve-7077 --addr 127.0.0.1:7077
# --wait-ready polls /health until the daemon answers.
"$bin/serve_load" --addr 127.0.0.1:7077 --wait-ready 30 --requests 200 --min-rps 1000 ||
  fail "loopback load run failed"
stop_daemon TERM

echo "== C10k (10k idle connections held through a clustered load run, clean drain)"
start_daemon serve-7081 start --addr 127.0.0.1:7081 --cluster 2
# The harness opens 10 000 keep-alive connections, parks them idle for
# the whole run, and fails unless every one still answers /health
# afterwards: an idle connection must cost a file descriptor and
# nothing else (docs/SERVING.md). The daemon and the harness each raise
# their own NOFILE soft limit.
c10k_out="$logs/c10k.out"
"$bin/serve_load" --addr 127.0.0.1:7081 --wait-ready 30 --requests 200 \
  --idle-conns 10000 >"$c10k_out" || {
  cat "$c10k_out"
  fail "C10k load run failed"
}
cat "$c10k_out"
grep -q "10000 idle connections held" "$c10k_out" || fail "idle connections were not all held"
# Drain through the admin endpoint, not a signal: the daemon must
# acknowledge, finish in-flight work, and exit 0.
"$bin/dwmplace" serve drain --addr 127.0.0.1:7081 || fail "admin drain failed"
stop_daemon

echo "== deadline contract (quality=fast p99 under budget, zero misses)"
start_daemon serve-7079 --addr 127.0.0.1:7079
# serve_load enforces the contract when --deadline-us is given: the
# server-side p99 (from the x-dwm-elapsed-us header) must fit the
# budget and no response may exceed it. 20 ms is ~40x the reference
# machine's tier-0 latency: headroom for shared runners, still far
# below the refined tiers.
"$bin/serve_load" --addr 127.0.0.1:7079 --wait-ready 30 --requests 200 \
  --quality fast --deadline-us 20000 || fail "deadline contract run failed"
stop_daemon TERM

echo "== session streaming (8 sessions, placements cross-checked)"
start_daemon serve-7078 --addr 127.0.0.1:7078 --session-capacity 16
"$bin/serve_load" --addr 127.0.0.1:7078 --wait-ready 30 \
  --sessions 8 --workloads 4 --len 4096 || fail "session streaming run failed"
stop_daemon TERM

echo "serve smoke: all four runs passed"
