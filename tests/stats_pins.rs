//! Byte pins of the daemon's two counter surfaces, `/stats` and
//! `/metrics`: FNV-1a hashes of what a fixed request sequence leaves
//! them reading, recorded once and required unchanged by every later
//! change.
//!
//! The sequence moves every `/stats` leaf that does not depend on
//! wall-clock time: legacy and tiered solves with hits and misses, each
//! quality, three non-linear topologies, a 400 and an infeasible
//! deadline's 503, `/evaluate`, `/simulate`, a cache and a session table
//! small enough to evict, a session through create, an ingest across a
//! phase change and refreezes, placement, stats and close, a session
//! whose migration bill suppresses its re-placement, and an unknown
//! session id. `/stats` is read after every request, once every
//! engine's upgrade lane has drained, and each body joins the hash. The
//! deadline is 10⁹ µs wherever one must be met, so `deadline.met` never
//! depends on the machine.
//!
//! The sequence runs against one engine and against a two-shard
//! [`Cluster`]; `/metrics` is pinned as each engine registry renders,
//! without its `*_latency_ns*` lines (wall-clock). One more pin holds
//! the final `/stats` body of an engine without upgrades.
//!
//! On a mismatch the failure lists every current hash in the table's
//! own syntax. Re-pin only for an intended wire change.

use std::time::Duration;

use dwm_foundation::net::{Request, Response};
use dwm_foundation::obs;
use dwm_serve::{Cluster, Engine, EngineConfig};

/// `(surface, FNV-1a of its bytes)`.
const PINS: &[(&str, u64)] = &[
    ("engine_stats", 0xd280e0d5d9fb6647),
    ("engine_metrics", 0xab29c6fe71fc2cbe),
    ("cluster_stats", 0xe0f30d39a95144c5),
    ("cluster_metrics", 0xbc8601eda6d95684),
    ("no_upgrades_stats", 0x980499f6e87126d1),
];

/// The `/stats` leaves the sequence leaves at 0: a missed deadline and
/// an expired session need wall-clock time, the foreground never plans
/// tier 2 (only the upgrade lane solves there), and the lane is drained
/// before every read.
const ZERO_LEAVES: &[&str] = &[
    "tiers.tier2",
    "upgrades.queue_depth",
    "deadline.missed",
    "sessions.expired",
];

fn config(upgrades: bool) -> EngineConfig {
    EngineConfig {
        // Both split over 8 shards: one entry and one session each.
        cache_capacity: 8,
        session_capacity: 8,
        session_ttl: Duration::from_secs(3600),
        upgrades,
        shard: None,
    }
}

fn ids(ids: impl IntoIterator<Item = u32>) -> String {
    let ids: Vec<String> = ids.into_iter().map(|i| i.to_string()).collect();
    format!("[{}]", ids.join(","))
}

/// A 16-item sweep, then a ping-pong between the two items the sweep
/// put at opposite ends of the tape: a phase change only a re-placement
/// fixes.
fn phased(per_phase: usize) -> String {
    ids((0..per_phase)
        .map(|i| (i % 16) as u32)
        .chain((0..per_phase).map(|i| [0, 15][i % 2])))
}

/// Two heavy triangles interleaved, {0,2,4} and {1,3,5}: tier 0 leaves
/// headroom that a tier-2 upgrade strictly claims.
fn interleaved() -> String {
    let mut v: Vec<u32> = vec![0, 1, 2, 3, 4, 5];
    for _ in 0..10 {
        v.extend([0, 2, 4]);
    }
    for _ in 0..10 {
        v.extend([1, 3, 5]);
    }
    ids(v)
}

fn sequence() -> Vec<Request> {
    let solve = |body: String| Request::post("/solve", body);
    let small = "[0,1,0,1,2,0,3,2,1]";
    let mut requests = vec![
        solve(format!(r#"{{"ids":{small}}}"#)),
        solve(format!(r#"{{"ids":{small}}}"#)),
        solve(
            r#"{"algorithm":"organ-pipe","workloads":[{"ids":[5,6,5,7,8,6]},{"ids":[9,3,9,3,1]}]}"#
                .into(),
        ),
        solve(format!(r#"{{"quality":"fast","ids":{small}}}"#)),
        solve(format!(r#"{{"quality":"fast","ids":{small}}}"#)),
        solve(
            r#"{"quality":"balanced","deadline_us":1000000000,"ids":[4,2,4,2,7,1,7,1,4]}"#.into(),
        ),
        // `best` hits the tier-0 record and queues a tier-2 upgrade,
        // which is strictly better.
        solve(format!(r#"{{"quality":"fast","ids":{}}}"#, interleaved())),
        solve(format!(r#"{{"quality":"best","ids":{}}}"#, interleaved())),
        // Two items: tier 1 is optimal, so the upgrade is discarded.
        solve(r#"{"quality":"best","ids":[3,8,3,8]}"#.into()),
        solve(format!(r#"{{"quality":"exact","ids":{small}}}"#)),
        solve(r#"{"topology":"ring","ids":[0,7,0,7,3,0,7]}"#.into()),
        solve(r#"{"topology":"grid2d:2x3","ids":[0,7,0,7,3,0,7,4]}"#.into()),
        solve(r#"{"quality":"balanced","topology":"pirm:2","ids":[1,2,3,1,2,3,4,1]}"#.into()),
        solve(r#"{"algorithm":"quantum","ids":[1,2]}"#.into()),
        solve(format!(
            r#"{{"quality":"fast","deadline_us":1,"ids":{small}}}"#
        )),
        Request::post(
            "/evaluate",
            r#"{"ids":[0,1,0,2],"placement":[1,0,2],"ports":1}"#,
        ),
        Request::post("/simulate", r#"{"ids":[0,1,2,1,0,3,3,2],"ports":1}"#),
        Request::post(
            "/session",
            r#"{"window":100,"migration_shifts_per_item":2,"refreeze_edges":4}"#,
        ),
        Request::post(
            "/session/s-1/accesses",
            format!(r#"{{"ids":{}}}"#, phased(500)),
        ),
        Request::new("GET", "/session/s-1/placement"),
        Request::new("GET", "/session/s-1/stats"),
        Request::post(
            "/session",
            r#"{"window":100,"migration_shifts_per_item":1000000000000}"#,
        ),
        Request::post(
            "/session/s-2/accesses",
            format!(r#"{{"ids":{}}}"#, phased(500)),
        ),
        Request::new("DELETE", "/session/s-1"),
        Request::new("GET", "/session/s-99/stats"),
    ];
    // Sessions 3..=10 fill the table's 8 shards; s-10 shares s-2's
    // shard and evicts it.
    requests.extend((3..=10).map(|_| Request::post("/session", "")));
    requests.push(Request::new("GET", "/session/s-2/stats"));
    requests
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A registry's exposition without its wall-clock (`*_latency_ns*`)
/// lines.
fn metrics_without_latency(engine: &Engine) -> String {
    obs::render_prometheus(&[engine.registry()])
        .lines()
        .filter(|line| !line.contains("_latency_ns"))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Sends the sequence through `handle`, draining every engine's upgrade
/// lane before each `/stats` read, and returns the hash of all `/stats`
/// bodies with the last one.
fn run(engines: &[&Engine], handle: impl Fn(&Request) -> Response) -> (u64, String) {
    let mut h = FNV_OFFSET;
    let mut last = String::new();
    for req in sequence() {
        handle(&req);
        for engine in engines {
            assert!(
                engine.drain_upgrades(Duration::from_secs(60)),
                "upgrade hung"
            );
        }
        let stats = handle(&Request::new("GET", "/stats"));
        assert_eq!(stats.status, 200);
        fnv1a(&mut h, &stats.body);
        last = stats.body_str().unwrap().to_owned();
    }
    (h, last)
}

fn hash(text: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, text.as_bytes());
    h
}

/// The dotted paths of the numeric leaves of a `/stats` object.
fn leaves(prefix: &str, value: &dwm_foundation::json::Value, out: &mut Vec<(String, u64)>) {
    use dwm_foundation::json::Value;
    match value {
        Value::Obj(obj) => {
            for (key, child) in obj.iter() {
                let path = if prefix.is_empty() {
                    key.to_string()
                } else {
                    format!("{prefix}.{key}")
                };
                leaves(&path, child, out);
            }
        }
        other => out.push((
            prefix.to_owned(),
            other.as_number().and_then(|n| n.as_u64()).expect(prefix),
        )),
    }
}

#[test]
fn stats_and_metrics_bytes_match_their_pins() {
    let engine = Engine::with_config(config(true));
    let (engine_stats, last) = run(&[&engine], |req| engine.handle(req));
    // The sequence covers the surface: every leaf but the listed ones
    // has moved.
    let mut all = Vec::new();
    leaves("", &dwm_foundation::json::parse(&last).unwrap(), &mut all);
    assert_eq!(all.len(), 43, "{last}");
    let zero: Vec<&str> = all
        .iter()
        .filter(|(_, v)| *v == 0)
        .map(|(path, _)| path.as_str())
        .collect();
    assert_eq!(zero, ZERO_LEAVES, "{last}");
    let engine_metrics = hash(&metrics_without_latency(&engine));

    let cluster = Cluster::new(2, config(true));
    let shards: Vec<&Engine> = cluster.shards().iter().map(|e| e.as_ref()).collect();
    let (cluster_stats, _) = run(&shards, |req| cluster.handle(req));
    let cluster_metrics = hash(
        &shards
            .iter()
            .map(|engine| metrics_without_latency(engine))
            .collect::<String>(),
    );

    let plain = Engine::with_config(config(false));
    let (_, last) = run(&[&plain], |req| plain.handle(req));

    let actual = vec![
        ("engine_stats", engine_stats),
        ("engine_metrics", engine_metrics),
        ("cluster_stats", cluster_stats),
        ("cluster_metrics", cluster_metrics),
        ("no_upgrades_stats", hash(&last)),
    ];
    let table: String = actual
        .iter()
        .map(|(name, h)| format!("    ({name:?}, {h:#018x}),\n"))
        .collect();
    assert_eq!(
        actual,
        PINS.to_vec(),
        "/stats or /metrics bytes moved; current hashes:\n{table}"
    );
}
