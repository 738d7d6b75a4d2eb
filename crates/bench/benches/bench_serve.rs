//! S17: `dwm-serve` request latency — memoized vs fresh solves, and
//! full loopback round-trips.
//!
//! `serve/solve_hit` and `serve/solve_miss` time the transport-free
//! [`Engine`] path, so their ratio is the value of the solve cache;
//! `serve/throughput` times one keep-alive round-trip of a cached
//! solve over a real loopback socket — the unit the CI smoke job's
//! req/s floor is made of.
//!
//! `serve/solve_hit_obs_off` repeats the hit path with metric
//! collection force-disabled; the gate bounds `solve_hit /
//! solve_hit_obs_off` at 1.05x, proving observability costs < 5%.
//! `serve/metrics_scrape` times a full `GET /metrics` render.
//!
//! `serve/decode_body` times the first layer of a cached solve alone:
//! `decode_body` of 32 distinct 48×2400 hybrid bodies in turn, the
//! shape and count of the bodies bench_e2e's `solve_hit` cycles
//! through.
//!
//! `serve/session_ingest` (S19) times one 256-access chunk through the
//! transport-free streaming-session path: dense id remap, delta-graph
//! updates, phase detection, and one window-boundary decision per
//! call.
//!
//! The tiered additions (S20): `serve/solve_tier0` times the
//! deadline-planned greedy fast path end to end (the latency the
//! deadline contract is written against); `serve/upgrade_drain` times
//! one full background-upgrade cycle — a tier-0 miss that schedules a
//! tier-2 portfolio job on the idle lane, plus the drain handshake.
//! `serve/solve_hit_idle_load` re-times the cached-solve path while
//! the engine's idle lane holds a deep queue of pending tier-2
//! upgrades; the gate bounds it against `serve/solve_hit_lane_quiet`
//! at 1.05x, proving the idle-priority lane's foreground deferral
//! keeps background upgrades from stealing cycles from live solves.

use std::time::Duration;

use dwm_bench::BENCH_SEED;
use dwm_core::anytime::{estimate_us, Tier};
use dwm_foundation::bench::{black_box, Harness};
use dwm_foundation::net::Request;
use dwm_foundation::obs;
use dwm_graph::AccessGraph;
use dwm_serve::client::ClientConn;
use dwm_serve::protocol::decode_body;
use dwm_serve::{start, Engine, ServeConfig};
use dwm_trace::synth::{TraceGenerator, ZipfGen};

fn solve_body(items: usize, len: usize) -> String {
    let trace = ZipfGen::new(items, BENCH_SEED).generate(len);
    let ids: Vec<String> = trace.iter().map(|a| a.item.index().to_string()).collect();
    format!(r#"{{"algorithm":"hybrid","ids":[{}]}}"#, ids.join(","))
}

/// A tiered solve body: `prefix` carries the quality/deadline knobs,
/// `seed` varies the trace so distinct bodies hash to distinct cache
/// keys.
fn tiered_body(prefix: &str, items: usize, len: usize, seed: u64) -> String {
    let trace = ZipfGen::new(items, seed).generate(len);
    let ids: Vec<String> = trace.iter().map(|a| a.item.index().to_string()).collect();
    format!(r#"{{{prefix}"ids":[{}]}}"#, ids.join(","))
}

/// The tightest deadline the engine's admission control accepts for
/// this workload: exactly the tier-0 estimate. `plan` then answers
/// from tier 0 (tier 1 costs strictly more than the deadline), so a
/// `quality:"best"` request with this budget is the canonical
/// "answer fast, upgrade in the background" shape — and never 503s.
fn tier0_deadline(items: usize, len: usize, seed: u64) -> u64 {
    let trace = ZipfGen::new(items, seed).generate(len).normalize();
    let graph = AccessGraph::from_trace(&trace);
    estimate_us(Tier::Fast, graph.num_items(), graph.num_edges())
}

fn main() {
    let body = solve_body(48, 2400);
    let request = Request::post("/solve", body.clone().into_bytes());

    let mut h = Harness::from_env("serve");

    // Memoized path: the first call populates the cache, every timed
    // call is a fingerprint + shard lookup. The obs-on and obs-off
    // sides are sampled *alternately* (`bench_pair`) because the gate
    // bounds their ratio at 5% — a sequential layout would let a
    // transient load spike inflate one side alone. The override guard
    // inside each closure forces collection on/off per call (two
    // atomic swaps against a ~300 µs body: noise) so the pair measures
    // a real difference regardless of the ambient DWM_OBS.
    let cached = Engine::new(64);
    assert!(cached.handle(&request).is_success());
    {
        let _lock = obs::TEST_OVERRIDE_LOCK.lock().unwrap();
        h.bench_pair(
            "serve/solve_hit",
            "serve/solve_hit_obs_off",
            || {
                let _on = obs::override_enabled(true);
                black_box(cached.handle(&request))
            },
            || {
                let _off = obs::override_enabled(false);
                black_box(cached.handle(&request))
            },
        );
    }

    // The decode layer of a hit, over distinct bodies in turn so no
    // one body's bytes stay hot in the branch predictor.
    let hit_bodies: Vec<Vec<u8>> = (0..32)
        .map(|k| tiered_body(r#""algorithm":"hybrid","#, 48, 2400, BENCH_SEED + k).into_bytes())
        .collect();
    let mut next = 0;
    h.bench("serve/decode_body", || {
        next = (next + 1) % hit_bodies.len();
        black_box(decode_body(&hit_bodies[next]).is_ok())
    });

    // Prometheus render of the engine + global registries.
    {
        let _lock = obs::TEST_OVERRIDE_LOCK.lock().unwrap();
        let _on = obs::override_enabled(true);
        let scrape = Request::new("GET", "/metrics");
        h.bench("serve/metrics_scrape", || black_box(cached.handle(&scrape)));
    }

    // Capacity 0 disables memoization, so every call runs the solver.
    let uncached = Engine::new(0);
    h.bench("serve/solve_miss", || black_box(uncached.handle(&request)));

    // Tier-0 fast path, uncached: every call plans the tier from the
    // request knobs and runs the greedy CSR solve — the per-request
    // latency the deadline contract promises to keep under budget.
    let tier0_request = Request::post(
        "/solve",
        tiered_body(r#""quality":"fast","#, 48, 2400, BENCH_SEED).into_bytes(),
    );
    assert!(uncached.handle(&tier0_request).is_success());
    h.bench("serve/solve_tier0", || {
        black_box(uncached.handle(&tier0_request))
    });

    // One full background-upgrade cycle: a best-quality solve under a
    // deadline too tight for refinement answers from tier 0 and
    // schedules a tier-2 portfolio job on the idle lane; the drain
    // waits for that job to land in the cache. Every iteration renders
    // a never-before-seen workload (the cache is sharded, so eviction
    // tricks cannot force repeat misses) — rendering ~600 ids and
    // sizing its admissible deadline costs ~10 µs against a
    // multi-hundred-µs cycle.
    let upgrading = Engine::new(64);
    let mut upgrade_seed = BENCH_SEED + 100;
    h.bench("serve/upgrade_drain", || {
        upgrade_seed += 1;
        let prefix = format!(
            r#""quality":"best","deadline_us":{},"#,
            tier0_deadline(24, 600, upgrade_seed)
        );
        let req = Request::post(
            "/solve",
            tiered_body(&prefix, 24, 600, upgrade_seed).into_bytes(),
        );
        let resp = upgrading.handle(&req);
        assert!(resp.is_success());
        assert!(upgrading.drain_upgrades(Duration::from_secs(30)));
        black_box(resp)
    });

    // Cached-solve latency under idle-lane load: prime a deep queue of
    // pending tier-2 upgrades (distinct small workloads, each solved
    // at tier 0 with an upgrade scheduled), then sample the hit path
    // against a quiet twin. The lane's contract is *deferral*: while
    // any foreground section is in flight it never starts a queued
    // job. Holding one explicit foreground section across the whole
    // pair models a server under sustained traffic — the scenario the
    // contract protects — and makes the measurement deterministic: the
    // loaded side carries a full pending queue plus the deferring
    // worker's wakeups, and the gate bounds the pair at 5%. (Without
    // the outer section, jobs start in the sub-µs gaps between
    // iterations and their multi-ms runtime lands on whichever sample
    // is next — single-core scheduling physics, not a lane defect.)
    let busy = Engine::new(1024);
    let quiet = Engine::new(1024);
    for k in 0..256 {
        let seed = BENCH_SEED + 1000 + k;
        let prefix = format!(
            r#""quality":"best","deadline_us":{},"#,
            tier0_deadline(16, 300, seed)
        );
        let req = Request::post("/solve", tiered_body(&prefix, 16, 300, seed).into_bytes());
        assert!(busy.handle(&req).is_success());
    }
    assert!(busy.handle(&request).is_success());
    assert!(quiet.handle(&request).is_success());
    {
        let _traffic = dwm_foundation::par::enter_foreground();
        h.bench_pair(
            "serve/solve_hit_idle_load",
            "serve/solve_hit_lane_quiet",
            || black_box(busy.handle(&request)),
            || black_box(quiet.handle(&request)),
        );
        assert!(
            busy.upgrade_queue_depth() > 0,
            "idle-lane jobs ran despite an active foreground section"
        );
    }
    assert!(busy.drain_upgrades(Duration::from_secs(120)));

    // Streaming ingest: the same 256-access chunk over and over, with
    // the window sized to the chunk so every call completes exactly
    // one decision window. Identical windows stop triggering phase
    // changes after the first, so the timed calls hit the steady-state
    // path: remap lookups, delta-graph bumps, detector pushes, one
    // boundary decision.
    let streaming = Engine::new(64);
    let create = Request::post("/session", r#"{"window":256}"#.as_bytes().to_vec());
    assert!(streaming.handle(&create).is_success());
    let ids: Vec<String> = (0..256).map(|i| ((i * 7) % 48).to_string()).collect();
    let ingest = Request::post(
        "/session/s-1/accesses",
        format!(r#"{{"ids":[{}]}}"#, ids.join(",")).into_bytes(),
    );
    assert!(streaming.handle(&ingest).is_success());
    h.bench("serve/session_ingest", || {
        black_box(streaming.handle(&ingest))
    });

    // Full loopback round-trip of the cached solve: framing, socket,
    // worker dispatch, cache hit, response.
    let handle = start(ServeConfig {
        workers: 2,
        cache_capacity: 64,
        ..ServeConfig::ephemeral()
    })
    .expect("loopback server starts");
    let mut conn = ClientConn::connect(handle.local_addr()).expect("connect");
    assert!(conn
        .post_json("/solve", body.as_str())
        .expect("prime")
        .is_success());
    h.bench("serve/throughput", || {
        black_box(conn.post_json("/solve", body.as_str()).expect("round-trip"))
    });
    handle.shutdown();
    handle.join();

    h.finish();
}
