//! End-to-end tests for the `dwm-serve` daemon over real loopback
//! sockets: the determinism contract at different thread counts, the
//! solve-cache hit path, graceful drain on shutdown, and the load
//! harness.

use std::io::Write as _;
use std::net::TcpStream;

use dwm_foundation::net::{read_response, Request, Response};
use dwm_foundation::par;
use dwm_serve::client::ClientConn;
use dwm_serve::load::{self, LoadConfig};
use dwm_serve::{start, ServeConfig};

fn ephemeral_server(workers: usize, cache_capacity: usize) -> dwm_serve::ServeHandle {
    start(ServeConfig {
        workers,
        cache_capacity,
        ..ServeConfig::ephemeral()
    })
    .expect("loopback server starts")
}

/// The request sequence used by the determinism test: two distinct
/// multi-workload solves, an evaluate, and a simulate.
fn request_sequence() -> Vec<(&'static str, String)> {
    let zig: Vec<String> = (0..600).map(|i| (i % 24).to_string()).collect();
    let pong: Vec<String> = (0..600).map(|i| ((i * 7) % 16).to_string()).collect();
    vec![
        (
            "/solve",
            format!(
                r#"{{"algorithm":"hybrid","workloads":[{{"ids":[{}]}},{{"ids":[{}]}}]}}"#,
                zig.join(","),
                pong.join(",")
            ),
        ),
        (
            "/solve",
            format!(r#"{{"algorithm":"organ-pipe","ids":[{}]}}"#, pong.join(",")),
        ),
        (
            "/evaluate",
            format!(
                r#"{{"ids":[{}],"placement":[{}],"ports":2,"tape_length":24}}"#,
                zig.join(","),
                (0..24).map(|i| i.to_string()).collect::<Vec<_>>().join(",")
            ),
        ),
        (
            "/simulate",
            format!(r#"{{"ids":[{}],"domains_per_track":64}}"#, zig.join(",")),
        ),
    ]
}

/// Runs the request sequence against a fresh server and returns the
/// response bodies.
fn run_sequence(workers: usize) -> Vec<String> {
    let handle = ephemeral_server(workers, 64);
    let mut conn = ClientConn::connect(handle.local_addr()).expect("connect");
    let bodies: Vec<String> = request_sequence()
        .iter()
        .map(|(path, body)| {
            let resp = conn.post_json(path, body.as_str()).expect("response");
            assert!(resp.is_success(), "{path}: status {}", resp.status);
            resp.body_str().expect("utf-8 body").to_owned()
        })
        .collect();
    handle.shutdown();
    handle.join();
    bodies
}

#[test]
fn response_bodies_are_byte_identical_across_thread_counts() {
    let single = {
        let _guard = par::override_threads(1);
        run_sequence(1)
    };
    let wide = {
        let _guard = par::override_threads(8);
        run_sequence(8)
    };
    assert_eq!(
        single, wide,
        "same requests must produce the same bytes at 1 and 8 threads"
    );
}

#[test]
fn repeated_solve_is_served_from_the_cache_with_identical_results() {
    let handle = ephemeral_server(2, 64);
    let mut conn = ClientConn::connect(handle.local_addr()).unwrap();
    let body = r#"{"algorithm":"hybrid","ids":[0,9,0,9,3,7,3,7,1,5]}"#;

    let first = conn.post_json("/solve", body).unwrap();
    assert_eq!(first.status, 200);
    assert!(
        first.header("x-dwm-elapsed-us").is_some(),
        "timing must travel in the header, not the body"
    );
    let first_body = first.body_str().unwrap().to_owned();
    assert!(first_body.contains(r#""cache":["miss"]"#), "{first_body}");

    let second = conn.post_json("/solve", body).unwrap();
    let second_body = second.body_str().unwrap().to_owned();
    assert!(second_body.contains(r#""cache":["hit"]"#), "{second_body}");

    // Everything after the cache field is byte-identical.
    let results = |b: &str| b.split_once(r#""results":"#).map(|(_, r)| r.to_owned());
    assert_eq!(results(&first_body), results(&second_body));
    assert!(results(&first_body).is_some());

    let stats = conn.get("/stats").unwrap();
    let stats_body = stats.body_str().unwrap();
    assert!(stats_body.contains(r#""hits":1"#), "{stats_body}");

    handle.shutdown();
    handle.join();
}

/// Pulls `name <value>` out of a Prometheus exposition body.
fn scrape_value(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("metric {name} not in scrape:\n{exposition}"))
        .parse()
        .unwrap_or_else(|e| panic!("metric {name} not a u64: {e}"))
}

#[test]
fn metrics_scrape_is_valid_exposition_and_agrees_with_stats() {
    let handle = ephemeral_server(2, 64);
    let mut conn = ClientConn::connect(handle.local_addr()).unwrap();
    let body = r#"{"algorithm":"hybrid","ids":[2,8,2,8,4,6,4,6,0,5]}"#;
    // One miss, one hit, so the cache counters are nonzero.
    assert!(conn.post_json("/solve", body).unwrap().is_success());
    assert!(conn.post_json("/solve", body).unwrap().is_success());

    let stats = conn.get("/stats").unwrap();
    let stats_json = dwm_foundation::json::parse(stats.body_str().unwrap()).expect("stats is JSON");
    let metrics = conn.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4"),
        "Prometheus exposition content type"
    );
    let text = metrics.body_str().unwrap().to_owned();

    // Every non-comment line is `name[{labels}] value`; names start
    // with our prefix and values parse as numbers.
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("exposition line without a value: {line:?}"));
        assert!(name.starts_with("dwm_"), "foreign metric {name:?}");
        assert!(
            value.parse::<f64>().is_ok() || value == "NaN",
            "unparseable sample value in {line:?}"
        );
    }

    // Server, cache, and solver families are all present — solver
    // metrics are registered eagerly, so they appear even if this
    // process's solves all hit the warm global registry.
    for family in [
        "dwm_serve_requests_total",
        "dwm_serve_endpoint_requests_total",
        "dwm_serve_request_latency_ns",
        "dwm_serve_cache_hits_total",
        "dwm_solver_annealing_moves_proposed_total",
        "dwm_solver_local_search_passes_total",
        "dwm_net_requests_total",
    ] {
        assert!(text.contains(family), "family {family} missing:\n{text}");
    }

    // /stats and /metrics are two renderings of the same counters and
    // must agree exactly. The cache numbers come from scrape-time
    // callbacks over the SolveCache itself, so no drift is possible;
    // requests differ only by the /stats+/metrics reads themselves.
    let stats_obj = stats_json.as_object().expect("stats is an object");
    let cache = stats_obj
        .get("cache")
        .and_then(|v| v.as_object())
        .expect("cache object");
    let num = |v: &dwm_foundation::json::Value| v.as_number().and_then(|n| n.as_u64());
    let stat = |k: &str| cache.get(k).and_then(&num).expect(k);
    assert_eq!(
        stat("hits"),
        scrape_value(&text, "dwm_serve_cache_hits_total")
    );
    assert_eq!(
        stat("misses"),
        scrape_value(&text, "dwm_serve_cache_misses_total")
    );
    assert_eq!(
        stat("entries"),
        scrape_value(&text, "dwm_serve_cache_entries")
    );
    assert_eq!(stat("bytes"), scrape_value(&text, "dwm_serve_cache_bytes"));
    assert!(stat("bytes") > 0, "one rendered result is resident");
    assert_eq!(stat("hits"), 1, "miss-then-hit sequence");
    assert_eq!(stat("misses"), 1, "miss-then-hit sequence");
    assert_eq!(
        stats_obj.get("solves").and_then(&num),
        Some(scrape_value(
            &text,
            r#"dwm_serve_endpoint_requests_total{endpoint="solve"}"#
        )),
        "/stats and /metrics disagree on solve count"
    );
    // The scrape happened one request after /stats, so the request
    // counter is exactly one ahead.
    assert_eq!(
        stats_obj.get("requests").and_then(&num),
        Some(scrape_value(&text, "dwm_serve_requests_total") - 1)
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_drains_the_in_flight_request() {
    let handle = ephemeral_server(2, 16);
    let addr = handle.local_addr();

    // Prime the connection so a worker owns it in its keep-alive loop.
    let mut conn = ClientConn::connect(addr).unwrap();
    assert!(conn.get("/health").unwrap().is_success());

    // Hand-roll the second request so shutdown lands between the write
    // and the read: the daemon must still answer it before closing.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut wire = Vec::new();
    Request::post("/solve", br#"{"ids":[0,3,0,3,1,2]}"#.to_vec())
        .write_to(&mut wire)
        .unwrap();
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();
    // Give the worker time to pick the request up, then shut down.
    std::thread::sleep(std::time::Duration::from_millis(200));
    handle.shutdown();

    let mut reader = std::io::BufReader::new(stream);
    let resp: Response = read_response(&mut reader)
        .expect("readable response")
        .expect("a response, not EOF: shutdown must drain in-flight work");
    assert_eq!(resp.status, 200);

    // After the drain, the daemon closes the connection rather than
    // serving new requests (whether it marked the last response
    // `connection: close` depends on when shutdown was observed).
    handle.join();
    let eof = read_response(&mut reader).expect("clean teardown");
    assert!(eof.is_none(), "connection must close after shutdown");
}

/// Drives the full session lifecycle over a real socket and returns
/// every response body, in order — the fixture for both the lifecycle
/// assertions and the thread-count determinism check.
fn run_session_sequence(workers: usize) -> Vec<String> {
    let handle = ephemeral_server(workers, 64);
    let mut conn = ClientConn::connect(handle.local_addr()).expect("connect");
    let mut bodies = Vec::new();
    let mut push = |resp: Response, what: &str| -> String {
        assert!(resp.is_success(), "{what}: status {}", resp.status);
        let body = resp.body_str().expect("utf-8 body").to_owned();
        bodies.push(body.clone());
        body
    };

    // Two phases: a 16-item sweep, then a ping-pong between the two
    // items the sweep placed at opposite ends — only a re-placement
    // fixes that, so the session must adapt.
    let sweep: Vec<String> = (0..2000).map(|i| (i % 16).to_string()).collect();
    let pong: Vec<String> = (0..2000).map(|i| [0, 15][i % 2].to_string()).collect();

    let create = conn
        .post_json(
            "/session",
            r#"{"window":100,"migration_shifts_per_item":2}"#,
        )
        .unwrap();
    let create_body = push(create, "create");
    assert!(create_body.contains(r#""session":"s-1""#), "{create_body}");
    assert!(create_body.contains(r#""window":100"#), "{create_body}");

    // Ingest phase 1 in two chunks, then phase 2 in one.
    for (i, chunk) in [&sweep[..1000], &sweep[1000..], &pong[..]]
        .iter()
        .enumerate()
    {
        let body = format!(r#"{{"ids":[{}]}}"#, chunk.join(","));
        let resp = conn.post_json("/session/s-1/accesses", body).unwrap();
        push(resp, &format!("ingest {i}"));
    }

    let placement = push(conn.get("/session/s-1/placement").unwrap(), "placement");
    assert!(placement.contains(r#""items":16"#), "{placement}");
    assert!(placement.contains(r#""accesses":4000"#), "{placement}");

    let stats = push(conn.get("/session/s-1/stats").unwrap(), "session stats");
    assert!(stats.contains(r#""phase_changes":"#), "{stats}");

    let global = push(conn.get("/stats").unwrap(), "global stats");
    assert!(global.contains(r#""sessions":"#), "{global}");

    let delete = push(
        conn.request(&Request::new("DELETE", "/session/s-1"))
            .unwrap(),
        "delete",
    );
    assert!(delete.contains(r#""closed":true"#), "{delete}");

    handle.shutdown();
    handle.join();
    bodies
}

#[test]
fn session_lifecycle_adapts_to_drift_and_closes_cleanly() {
    let bodies = run_session_sequence(2);
    // The phase switch at access 2000 must have been detected and the
    // re-placement adopted (migration cost 2 per item is cheap against
    // a 15-offset ping-pong).
    let stats = &bodies[5];
    assert!(
        !stats.contains(r#""phase_changes":0"#),
        "no phase change detected: {stats}"
    );
    assert!(
        !stats.contains(r#""replacements":0"#),
        "no re-placement adopted: {stats}"
    );
    // Adapting must have paid off, and the stats JSON says by how much.
    let saved: i64 = stats
        .split(r#""net_amortized_saved":"#)
        .nth(1)
        .and_then(|rest| rest.split(&['}', ','][..]).next())
        .expect("net_amortized_saved in stats")
        .parse()
        .expect("signed integer");
    assert!(saved > 0, "adaptation did not pay off: {stats}");
}

#[test]
fn session_bodies_are_byte_identical_across_thread_counts() {
    let single = {
        let _guard = par::override_threads(1);
        run_session_sequence(1)
    };
    let wide = {
        let _guard = par::override_threads(8);
        run_session_sequence(8)
    };
    assert_eq!(
        single, wide,
        "same session stream must produce the same bytes at 1 and 8 threads"
    );
}

#[test]
fn unknown_and_closed_sessions_answer_404() {
    let handle = ephemeral_server(2, 16);
    let mut conn = ClientConn::connect(handle.local_addr()).unwrap();

    // Never-created, malformed, and non-session ids: all 404.
    for path in [
        "/session/s-99/stats",
        "/session/s-99/placement",
        "/session/nope/stats",
        "/session/s-/stats",
    ] {
        let resp = conn.request(&Request::new("GET", path)).unwrap();
        assert_eq!(resp.status, 404, "{path}");
    }
    assert_eq!(
        conn.request(&Request::new("DELETE", "/session/s-99"))
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        conn.post_json("/session/s-99/accesses", r#"{"ids":[1,2]}"#)
            .unwrap()
            .status,
        404
    );

    // A closed session is indistinguishable from an unknown one.
    let create = conn.post_json("/session", "").unwrap();
    assert_eq!(create.status, 200, "{:?}", create.body_str());
    assert!(create.body_str().unwrap().contains(r#""session":"s-1""#));
    assert!(conn
        .request(&Request::new("DELETE", "/session/s-1"))
        .unwrap()
        .is_success());
    assert_eq!(
        conn.request(&Request::new("GET", "/session/s-1/stats"))
            .unwrap()
            .status,
        404
    );

    // Wrong methods are 405, not 404: the resource space is known.
    assert_eq!(
        conn.request(&Request::new("GET", "/session"))
            .unwrap()
            .status,
        405
    );
    assert_eq!(
        conn.post_json("/session/s-1/placement", "{}")
            .unwrap()
            .status,
        405
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn idle_sessions_expire_after_the_ttl() {
    let handle = start(ServeConfig {
        workers: 2,
        session_ttl: std::time::Duration::from_millis(50),
        ..ServeConfig::ephemeral()
    })
    .expect("loopback server starts");
    let mut conn = ClientConn::connect(handle.local_addr()).unwrap();

    assert!(conn.post_json("/session", "").unwrap().is_success());
    assert!(conn
        .request(&Request::new("GET", "/session/s-1/stats"))
        .unwrap()
        .is_success());

    std::thread::sleep(std::time::Duration::from_millis(120));
    assert_eq!(
        conn.request(&Request::new("GET", "/session/s-1/stats"))
            .unwrap()
            .status,
        404,
        "idle session must expire"
    );
    let stats = conn.get("/stats").unwrap();
    let body = stats.body_str().unwrap();
    assert!(body.contains(r#""expired":1"#), "{body}");
    assert!(body.contains(r#""active":0"#), "{body}");

    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_drains_an_in_flight_session_ingest() {
    let handle = ephemeral_server(2, 16);
    let addr = handle.local_addr();

    // Create the session over a normal connection first.
    let mut conn = ClientConn::connect(addr).unwrap();
    assert!(conn.post_json("/session", "").unwrap().is_success());

    // Hand-roll an ingest so shutdown lands between the write and the
    // read: the daemon must answer it — and the session's state must
    // reflect the ingest — before closing.
    let ids: Vec<String> = (0..5000).map(|i| (i % 32).to_string()).collect();
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut wire = Vec::new();
    Request::post(
        "/session/s-1/accesses",
        format!(r#"{{"ids":[{}]}}"#, ids.join(",")).into_bytes(),
    )
    .write_to(&mut wire)
    .unwrap();
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));
    handle.shutdown();

    let mut reader = std::io::BufReader::new(stream);
    let resp: Response = read_response(&mut reader)
        .expect("readable response")
        .expect("a response, not EOF: shutdown must drain live sessions");
    assert_eq!(resp.status, 200);
    assert!(
        resp.body_str().unwrap().contains(r#""accepted":5000"#),
        "{:?}",
        resp.body_str()
    );

    handle.join();
    let eof = read_response(&mut reader).expect("clean teardown");
    assert!(eof.is_none(), "connection must close after shutdown");
}

/// The interleaved workload used by the tiered tests: a linear sweep
/// over six items, then `[0,2,4]` and `[1,3,5]` bursts. The greedy
/// tier-0 placement is good but beatable, so a tier-2 portfolio run
/// finds a strictly cheaper arrangement — exactly the gap background
/// upgrades exist to close.
fn interleaved_ids() -> String {
    let mut ids: Vec<u32> = (0..6).collect();
    for _ in 0..10 {
        ids.extend([0, 2, 4]);
    }
    for _ in 0..10 {
        ids.extend([1, 3, 5]);
    }
    ids.iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Pulls the first workload's `cache` label object and `cost` out of a
/// tiered solve response body.
fn tiered_label_and_cost(body: &str) -> (dwm_foundation::json::Object, u64) {
    let parsed = dwm_foundation::json::parse(body).expect("response is JSON");
    let obj = parsed.as_object().expect("object body");
    let label = obj
        .get("cache")
        .and_then(|v| v.as_array())
        .and_then(|a| a.first())
        .and_then(|v| v.as_object())
        .unwrap_or_else(|| panic!("tiered cache label missing: {body}"))
        .clone();
    let cost = obj
        .get("results")
        .and_then(|v| v.as_array())
        .and_then(|a| a.first())
        .and_then(|v| v.as_object())
        .and_then(|r| r.get("cost"))
        .and_then(|v| v.as_number())
        .and_then(|n| n.as_u64())
        .unwrap_or_else(|| panic!("cost missing: {body}"));
    (label, cost)
}

fn label_u64(label: &dwm_foundation::json::Object, key: &str) -> u64 {
    label
        .get(key)
        .and_then(|v| v.as_number())
        .and_then(|n| n.as_u64())
        .unwrap_or_else(|| panic!("label field {key} missing: {label:?}"))
}

#[test]
fn tiered_protocol_edges_over_the_socket() {
    let handle = ephemeral_server(2, 64);
    let mut conn = ClientConn::connect(handle.local_addr()).unwrap();

    // A zero deadline can never be met — admission control refuses up
    // front with 503 instead of knowingly answering late, and the
    // connection stays usable. u64::MAX always fits.
    let zero = conn
        .post_json(
            "/solve",
            r#"{"quality":"fast","deadline_us":0,"ids":[0,1,0,2,1,3]}"#,
        )
        .unwrap();
    assert_eq!(zero.status, 503, "{:?}", zero.body_str());
    assert!(
        zero.body_str().unwrap().contains("infeasible"),
        "{:?}",
        zero.body_str()
    );

    // A structurally different workload — ids normalize to a dense
    // trace, so a mere relabeling of the first would be a cache hit.
    let huge = conn
        .post_json(
            "/solve",
            r#"{"deadline_us":18446744073709551615,"ids":[0,1,2,3,0,2,4,1,5,3]}"#,
        )
        .unwrap();
    assert_eq!(huge.status, 200, "{:?}", huge.body_str());
    let (label, _) = tiered_label_and_cost(huge.body_str().unwrap());
    assert_eq!(label.get("status").unwrap().as_str(), Some("miss"));
    assert_eq!(
        label_u64(&label, "tier"),
        1,
        "an unbounded deadline buys the refined tier"
    );

    // Unknown quality names, mixed legacy/tiered forms, and negative
    // deadlines are protocol errors — 400 with a JSON error body, and
    // the connection stays usable.
    for body in [
        r#"{"quality":"turbo","ids":[0,1]}"#,
        r#"{"algorithm":"hybrid","quality":"fast","ids":[0,1]}"#,
        r#"{"deadline_us":-3,"ids":[0,1]}"#,
    ] {
        let resp = conn.post_json("/solve", body).unwrap();
        assert_eq!(resp.status, 400, "{body}");
        assert!(resp.body_str().unwrap().contains("error"), "{body}");
    }
    assert!(conn.get("/health").unwrap().is_success());

    handle.shutdown();
    handle.join();
}

#[test]
fn exact_quality_over_the_socket_is_optimal_bounded_and_session_free() {
    let handle = ephemeral_server(2, 64);
    let mut conn = ClientConn::connect(handle.local_addr()).unwrap();

    // A 6-item workload is well within the exact plan limit: the solve
    // answers with the subset-DP optimum, labeled tier 3 / subset-dp.
    let req = format!(r#"{{"quality":"exact","ids":[{}]}}"#, interleaved_ids());
    let first = conn.post_json("/solve", req.as_str()).unwrap();
    assert_eq!(first.status, 200, "{:?}", first.body_str());
    let (label, exact_cost) = tiered_label_and_cost(first.body_str().unwrap());
    assert_eq!(label.get("status").unwrap().as_str(), Some("miss"));
    assert_eq!(label_u64(&label, "tier"), 3);
    assert_eq!(label.get("solver").unwrap().as_str(), Some("subset-dp"));

    // The optimum is a floor for every heuristic tier: a best-quality
    // read of the same workload hits the exact record and can never
    // improve on it, so no upgrade is enqueued.
    let best = format!(r#"{{"quality":"best","ids":[{}]}}"#, interleaved_ids());
    let warm = conn.post_json("/solve", best.as_str()).unwrap();
    let (label, warm_cost) = tiered_label_and_cost(warm.body_str().unwrap());
    assert_eq!(label.get("status").unwrap().as_str(), Some("hit"));
    assert_eq!(label_u64(&label, "tier"), 3);
    assert_eq!(warm_cost, exact_cost);
    assert_eq!(handle.engine().upgrade_queue_depth(), 0);

    // Thirteen distinct items exceeds the exact plan limit: 400, and
    // the connection stays usable.
    let ids: Vec<String> = (0..13u32).map(|i| i.to_string()).collect();
    let big = format!(r#"{{"quality":"exact","ids":[{}]}}"#, ids.join(","));
    let resp = conn.post_json("/solve", big.as_str()).unwrap();
    assert_eq!(resp.status, 400, "{:?}", resp.body_str());
    assert!(resp.body_str().unwrap().contains("exact"));

    // Sessions refuse the knob outright — their item set can outgrow
    // the exact solver at any ingest.
    let sess = conn
        .post_json("/session", r#"{"quality":"exact"}"#)
        .unwrap();
    assert_eq!(sess.status, 400, "{:?}", sess.body_str());
    assert!(sess.body_str().unwrap().contains("exact"));
    assert!(conn.get("/health").unwrap().is_success());

    handle.shutdown();
    handle.join();
}

#[test]
fn repeat_solve_after_background_upgrade_returns_the_upgraded_record() {
    let handle = ephemeral_server(2, 64);
    let mut conn = ClientConn::connect(handle.local_addr()).unwrap();
    let body = format!(
        r#"{{"quality":"best","deadline_us":45,"ids":[{}]}}"#,
        interleaved_ids()
    );

    // First solve: the 45 µs budget only fits tier 0, so the response
    // is the greedy answer and a tier-2 job is queued behind it.
    let first = conn.post_json("/solve", body.as_str()).unwrap();
    assert_eq!(first.status, 200, "{:?}", first.body_str());
    let (label, greedy_cost) = tiered_label_and_cost(first.body_str().unwrap());
    assert_eq!(label.get("status").unwrap().as_str(), Some("miss"));
    assert_eq!(label_u64(&label, "tier"), 0);
    assert_eq!(label_u64(&label, "version"), 1);

    assert!(
        handle
            .engine()
            .drain_upgrades(std::time::Duration::from_secs(60)),
        "background upgrade must land"
    );

    // Same request again: a cache hit, but the record underneath was
    // rewritten in place — higher tier, bumped version, strictly lower
    // cost. The client never re-sent anything to get the better answer.
    let second = conn.post_json("/solve", body.as_str()).unwrap();
    let (label, upgraded_cost) = tiered_label_and_cost(second.body_str().unwrap());
    assert_eq!(label.get("status").unwrap().as_str(), Some("hit"));
    assert_eq!(label_u64(&label, "tier"), 2);
    assert_eq!(label_u64(&label, "version"), 2);
    assert_eq!(label_u64(&label, "upgrades"), 1);
    assert!(
        upgraded_cost < greedy_cost,
        "upgrade must strictly improve: tier0 {greedy_cost}, tier2 {upgraded_cost}"
    );

    let stats = conn.get("/stats").unwrap();
    let stats_body = stats.body_str().unwrap();
    assert!(
        stats_body
            .contains(r#""upgrades":{"enqueued":1,"applied":1,"discarded":0,"queue_depth":0}"#),
        "{stats_body}"
    );

    handle.shutdown();
    handle.join();
}

/// Drives one workload through each tier's foreground solve path plus
/// a drained background upgrade, and returns every response body.
fn run_tiered_sequence(workers: usize) -> Vec<String> {
    let handle = ephemeral_server(workers, 64);
    let mut conn = ClientConn::connect(handle.local_addr()).expect("connect");
    let mut bodies = Vec::new();

    // Distinct workloads per knob form: tiered solves share one cache
    // namespace, so reusing ids would turn later requests into hits of
    // the first record instead of exercising their own tier.
    let sweep: Vec<String> = (0..600).map(|i| (i % 24).to_string()).collect();
    for body in [
        format!(r#"{{"quality":"fast","ids":[{}]}}"#, sweep.join(",")),
        format!(
            r#"{{"quality":"balanced","deadline_us":18446744073709551615,"workloads":[{{"ids":[{}]}},{{"ids":[0,7,0,7,3,5]}}]}}"#,
            sweep.join(",")
        ),
        format!(
            r#"{{"quality":"best","deadline_us":45,"ids":[{}]}}"#,
            interleaved_ids()
        ),
    ] {
        let resp = conn.post_json("/solve", body.as_str()).expect("response");
        assert!(resp.is_success(), "{body}: status {}", resp.status);
        bodies.push(resp.body_str().expect("utf-8 body").to_owned());
    }

    // Drain the tier-2 job the best-quality solve queued, then re-read
    // it: the fourth body is the upgraded record's rendering.
    assert!(handle
        .engine()
        .drain_upgrades(std::time::Duration::from_secs(60)));
    let body = format!(
        r#"{{"quality":"best","deadline_us":45,"ids":[{}]}}"#,
        interleaved_ids()
    );
    let resp = conn.post_json("/solve", body.as_str()).expect("response");
    assert!(resp.is_success());
    bodies.push(resp.body_str().expect("utf-8 body").to_owned());

    handle.shutdown();
    handle.join();
    bodies
}

#[test]
fn tiered_bodies_are_byte_identical_across_thread_counts() {
    let single = {
        let _guard = par::override_threads(1);
        run_tiered_sequence(1)
    };
    let wide = {
        let _guard = par::override_threads(8);
        run_tiered_sequence(8)
    };
    assert_eq!(
        single, wide,
        "every tier — including the parallel tier-2 portfolio — must \
         produce the same bytes at 1 and 8 threads"
    );
}

#[test]
fn stats_and_metrics_agree_on_tier_upgrade_and_deadline_families() {
    let handle = ephemeral_server(2, 64);
    let mut conn = ClientConn::connect(handle.local_addr()).unwrap();

    // Two tier-0 misses (one carrying a deadline), one upgrade cycle,
    // one hit — every new counter family ends up nonzero or provably
    // zero.
    let fast = r#"{"quality":"fast","deadline_us":1000000,"ids":[0,1,0,2,1,3]}"#;
    assert!(conn.post_json("/solve", fast).unwrap().is_success());
    let best = format!(
        r#"{{"quality":"best","deadline_us":45,"ids":[{}]}}"#,
        interleaved_ids()
    );
    assert!(conn
        .post_json("/solve", best.as_str())
        .unwrap()
        .is_success());
    assert!(handle
        .engine()
        .drain_upgrades(std::time::Duration::from_secs(60)));
    assert!(conn
        .post_json("/solve", best.as_str())
        .unwrap()
        .is_success());

    let stats = conn.get("/stats").unwrap();
    let stats_json = dwm_foundation::json::parse(stats.body_str().unwrap()).expect("stats is JSON");
    let stats_obj = stats_json.as_object().expect("stats is an object");
    let section = |name: &str, key: &str| {
        stats_obj
            .get(name)
            .and_then(|v| v.as_object())
            .and_then(|o| o.get(key))
            .and_then(|v| v.as_number())
            .and_then(|n| n.as_u64())
            .unwrap_or_else(|| panic!("stats field {name}.{key} missing"))
    };

    let text = conn.get("/metrics").unwrap().body_str().unwrap().to_owned();
    for (stats_value, metric) in [
        (
            section("tiers", "tier0"),
            r#"dwm_serve_tier_solves_total{tier="0"}"#,
        ),
        (
            section("tiers", "tier1"),
            r#"dwm_serve_tier_solves_total{tier="1"}"#,
        ),
        (
            section("tiers", "tier2"),
            r#"dwm_serve_tier_solves_total{tier="2"}"#,
        ),
        (
            section("tiers", "tier3"),
            r#"dwm_serve_tier_solves_total{tier="3"}"#,
        ),
        (
            section("upgrades", "enqueued"),
            "dwm_serve_upgrades_enqueued_total",
        ),
        (
            section("upgrades", "applied"),
            "dwm_serve_upgrades_applied_total",
        ),
        (
            section("upgrades", "discarded"),
            "dwm_serve_upgrades_discarded_total",
        ),
        (
            section("upgrades", "queue_depth"),
            "dwm_serve_upgrade_queue_depth",
        ),
        (section("deadline", "met"), "dwm_serve_deadline_met_total"),
        (
            section("deadline", "missed"),
            "dwm_serve_deadline_missed_total",
        ),
        (
            section("deadline", "infeasible"),
            "dwm_serve_deadline_infeasible_total",
        ),
    ] {
        assert_eq!(
            stats_value,
            scrape_value(&text, metric),
            "/stats and /metrics disagree on {metric}"
        );
    }

    // The concrete shape of this sequence: two foreground tier-0
    // solves, no foreground tier 1/2, exactly one upgrade enqueued and
    // applied, and every deadline-carrying response audited.
    assert_eq!(section("tiers", "tier0"), 2);
    assert_eq!(section("tiers", "tier1"), 0);
    assert_eq!(section("tiers", "tier2"), 0);
    assert_eq!(section("tiers", "tier3"), 0);
    assert_eq!(section("deadline", "infeasible"), 0);
    assert_eq!(section("upgrades", "enqueued"), 1);
    assert_eq!(section("upgrades", "applied"), 1);
    assert_eq!(section("upgrades", "queue_depth"), 0);
    assert_eq!(
        section("deadline", "met") + section("deadline", "missed"),
        3,
        "all three deadline-carrying solves must be audited"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn load_harness_reports_clean_deterministic_run() {
    let handle = ephemeral_server(4, 128);
    let config = LoadConfig {
        requests: 120,
        clients: 4,
        workloads: 6,
        items: 32,
        len: 900,
        ..LoadConfig::new(handle.local_addr())
    };
    let report = load::run(&config).expect("clients connect");
    handle.shutdown();
    handle.join();

    assert!(report.all_ok(), "{}", report.summary());
    assert_eq!(report.sent, 120);
    assert_eq!(report.hits + report.misses, report.sent);
    assert!(report.hits > 0, "{}", report.summary());

    // The throughput floor only means anything in release builds; a
    // debug-mode solver is an order of magnitude slower.
    #[cfg(not(debug_assertions))]
    assert!(
        report.rps() >= 1000.0,
        "cached-solve throughput below 1000 req/s: {}",
        report.summary()
    );
}

// ---------------------------------------------------------------------
// Event-loop protocol edges and the cluster front (see docs/SERVING.md)
// ---------------------------------------------------------------------

/// Runs the shared request sequence against a clustered daemon and
/// returns the response bodies.
fn run_cluster_sequence(cluster: usize, workers: usize) -> Vec<String> {
    let handle = start(ServeConfig {
        workers,
        cache_capacity: 64,
        cluster,
        ..ServeConfig::ephemeral()
    })
    .expect("clustered loopback server starts");
    let mut conn = ClientConn::connect(handle.local_addr()).expect("connect");
    let bodies: Vec<String> = request_sequence()
        .iter()
        .map(|(path, body)| {
            let resp = conn.post_json(path, body.as_str()).expect("response");
            assert!(resp.is_success(), "{path}: status {}", resp.status);
            resp.body_str().expect("utf-8 body").to_owned()
        })
        .collect();
    handle.shutdown();
    handle.join();
    bodies
}

#[test]
fn cluster_bodies_are_byte_identical_across_shard_counts_and_threads() {
    // The determinism contract must not care how many engine shards sit
    // behind the consistent-hash front or how wide the solver pool is:
    // same requests, same bytes, for every (cluster, threads) corner.
    let single = {
        let _guard = par::override_threads(1);
        run_sequence(1)
    };
    let corners = [
        {
            let _guard = par::override_threads(1);
            run_cluster_sequence(1, 1)
        },
        {
            let _guard = par::override_threads(1);
            run_cluster_sequence(4, 1)
        },
        {
            let _guard = par::override_threads(8);
            run_cluster_sequence(4, 8)
        },
    ];
    for (i, bodies) in corners.iter().enumerate() {
        assert_eq!(
            &single, bodies,
            "cluster corner {i} diverged from the single-engine bodies"
        );
    }
}

#[test]
fn cluster_stats_and_metrics_agree_on_the_routed_family() {
    let handle = start(ServeConfig {
        workers: 2,
        cluster: 3,
        ..ServeConfig::ephemeral()
    })
    .unwrap();
    let mut conn = ClientConn::connect(handle.local_addr()).unwrap();
    // Spread some traffic: distinct solves hash to (potentially)
    // different shards; sessions and health pin to shard 0.
    for k in 0..6u32 {
        let ids: Vec<String> = (0..40).map(|i| ((i * (k + 3)) % 13).to_string()).collect();
        let body = format!(r#"{{"ids":[{}]}}"#, ids.join(","));
        assert!(conn
            .post_json("/solve", body.as_str())
            .unwrap()
            .is_success());
    }
    assert!(conn.get("/health").unwrap().is_success());

    let stats = conn.get("/stats").unwrap();
    let stats_json = dwm_foundation::json::parse(stats.body_str().unwrap()).expect("stats JSON");
    let obj = stats_json.as_object().expect("stats object");
    let cluster = obj
        .get("cluster")
        .and_then(|v| v.as_object())
        .expect("cluster section");
    let num = |v: &dwm_foundation::json::Value| v.as_number().and_then(|n| n.as_u64());
    assert_eq!(cluster.get("shards").and_then(&num), Some(3));
    let shards = obj
        .get("shards")
        .and_then(|v| v.as_array())
        .expect("per-shard stats array");
    assert_eq!(shards.len(), 3);
    // Shard 0 owns /health: its own stats object counted it.
    let shard0 = shards[0].as_object().expect("shard 0 stats");
    assert!(shard0.get("requests").and_then(&num).unwrap() >= 1);

    // /stats and /metrics are two renderings of the same cluster
    // registry: the routed counters must agree exactly per shard.
    let routed = cluster
        .get("routed")
        .and_then(|v| v.as_object())
        .expect("routed section");
    let metrics = conn.get("/metrics").unwrap();
    let text = metrics.body_str().unwrap().to_owned();
    let mut total = 0;
    for shard in 0..3 {
        let from_stats = routed.get(&shard.to_string()).and_then(&num).unwrap();
        let from_scrape = scrape_value(
            &text,
            &format!(r#"dwm_serve_cluster_routed_total{{shard="{shard}"}}"#),
        );
        assert_eq!(from_stats, from_scrape, "routed[{shard}] disagrees");
        total += from_stats;
    }
    // 6 solves + 1 health were routed; /stats and /metrics are answered
    // by the front itself and never counted.
    assert_eq!(total, 7);
    // Every shard's engine registry appears in the joined scrape under
    // its shard label.
    for shard in 0..3 {
        assert!(
            text.contains(&format!(r#"dwm_serve_requests_total{{shard="{shard}"}}"#)),
            "shard {shard} engine registry missing from the cluster scrape:\n{text}"
        );
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn event_loop_metric_families_cover_the_transport_stats() {
    let handle = ephemeral_server(2, 16);
    let mut conn = ClientConn::connect(handle.local_addr()).unwrap();
    assert!(conn.get("/health").unwrap().is_success());
    let metrics = conn.get("/metrics").unwrap();
    let text = metrics.body_str().unwrap().to_owned();

    // The event-loop families from docs/OBSERVABILITY.md all exist the
    // moment a server has started (registered eagerly, not on first
    // event).
    for family in [
        "dwm_net_connections_accepted_total",
        "dwm_net_connections_rejected_total",
        "dwm_net_requests_total",
        "dwm_net_malformed_requests_total",
        "dwm_net_queue_depth",
        "dwm_net_handler_latency_ns",
        "dwm_net_loop_wakeups_total",
        "dwm_net_readiness_queue_depth",
        "dwm_net_open_connections",
        "dwm_net_read_timeouts_total",
        r#"dwm_net_shard_accepted_total{shard="0"}"#,
        r#"dwm_net_shard_open_connections{shard="0"}"#,
    ] {
        assert!(text.contains(family), "family {family} missing:\n{text}");
    }

    // The transport families live in the process-global registry, which
    // every concurrently running test server shares — so the scrape is
    // a monotone upper bound on this one server's counters, never less.
    use std::sync::atomic::Ordering;
    let stats = handle.stats();
    assert!(
        scrape_value(&text, "dwm_net_connections_accepted_total")
            >= stats.accepted.load(Ordering::Relaxed)
    );
    assert!(
        scrape_value(&text, "dwm_net_requests_total") >= stats.requests.load(Ordering::Relaxed)
    );
    assert!(stats.accepted.load(Ordering::Relaxed) >= 1);
    assert!(stats.requests.load(Ordering::Relaxed) >= 2);

    handle.shutdown();
    handle.join();
}

#[test]
fn pipelined_keep_alive_requests_preserve_framing() {
    let handle = ephemeral_server(2, 16);
    let addr = handle.local_addr();

    // Three requests in one burst before reading anything: the daemon
    // must answer all three, in order, on the one connection.
    let mut wire = Vec::new();
    Request::new("GET", "/health").write_to(&mut wire).unwrap();
    Request::post("/solve", br#"{"ids":[0,2,0,2,1]}"#.to_vec())
        .write_to(&mut wire)
        .unwrap();
    Request::new("GET", "/health").write_to(&mut wire).unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();

    let mut reader = std::io::BufReader::new(stream);
    let first = read_response(&mut reader).unwrap().expect("first response");
    assert_eq!(first.status, 200);
    assert_eq!(
        first.body_str().unwrap(),
        r#"{"status":"ok","service":"dwm-serve"}"#
    );
    let second = read_response(&mut reader)
        .unwrap()
        .expect("second response");
    assert_eq!(second.status, 200);
    assert!(second.body_str().unwrap().contains(r#""results""#));
    let third = read_response(&mut reader).unwrap().expect("third response");
    assert_eq!(third.status, 200);
    assert_eq!(first.body_str(), third.body_str());

    handle.shutdown();
    handle.join();
}

#[test]
fn slow_header_writer_is_cut_off_with_408() {
    let handle = start(ServeConfig {
        workers: 1,
        read_deadline: std::time::Duration::from_millis(150),
        ..ServeConfig::ephemeral()
    })
    .unwrap();

    // A slowloris client: opens, writes half a request line, stalls.
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(b"POST /sol").unwrap();
    stream.flush().unwrap();

    let mut reader = std::io::BufReader::new(stream);
    let resp = read_response(&mut reader)
        .expect("a 408, not a reset")
        .expect("a response, not silent EOF");
    assert_eq!(resp.status, 408);
    assert_eq!(resp.header("connection"), Some("close"));
    let eof = read_response(&mut reader).expect("clean close after 408");
    assert!(eof.is_none(), "connection must close after the timeout");

    // The daemon itself is unharmed.
    let mut conn = ClientConn::connect(handle.local_addr()).unwrap();
    assert!(conn.get("/health").unwrap().is_success());

    handle.shutdown();
    handle.join();
}

/// A solve body big enough that its response (a placement array over
/// every item) overflows the kernel socket buffer of a non-reading
/// client, forcing the event loop through its partial-write path.
fn large_solve_body() -> String {
    let ids: Vec<String> = (0..60_000u32).map(|i| i.to_string()).collect();
    format!(r#"{{"algorithm":"organ-pipe","ids":[{}]}}"#, ids.join(","))
}

#[test]
fn partial_writes_to_a_slow_reader_preserve_framing() {
    let handle = ephemeral_server(2, 16);
    let addr = handle.local_addr();

    // Reference bytes from a promptly reading client.
    let mut prompt = ClientConn::connect(addr).unwrap();
    let reference = prompt.post_json("/solve", large_solve_body()).unwrap();
    assert!(reference.is_success());

    // The slow client writes the request, then refuses to read while
    // the server fills the socket buffer and has to park the remainder
    // behind EPOLLOUT.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut wire = Vec::new();
    Request::post("/solve", large_solve_body().into_bytes())
        .write_to(&mut wire)
        .unwrap();
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(400));

    let mut reader = std::io::BufReader::new(stream);
    let resp = read_response(&mut reader)
        .expect("readable response")
        .expect("a response despite the stalled buffer");
    assert_eq!(resp.status, 200);
    // The cache field legitimately flips miss→hit between the two
    // requests; everything from "results" on must be byte-identical.
    let results = |r: &Response| {
        r.body_str()
            .and_then(|b| {
                b.split_once(r#""results":"#)
                    .map(|(_, rest)| rest.to_owned())
            })
            .expect("results portion")
    };
    assert_eq!(
        results(&resp),
        results(&reference),
        "partial writes must reassemble to the exact same bytes"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn mid_response_disconnect_leaves_the_daemon_serving() {
    let handle = ephemeral_server(2, 16);
    let addr = handle.local_addr();

    // Ask for a big response and vanish before reading it: the write
    // path hits a dead peer (EPIPE/ECONNRESET) and must just drop the
    // connection, not panic or wedge a shard.
    for _ in 0..3 {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut wire = Vec::new();
        Request::post("/solve", large_solve_body().into_bytes())
            .write_to(&mut wire)
            .unwrap();
        stream.write_all(&wire).unwrap();
        drop(stream);
    }
    std::thread::sleep(std::time::Duration::from_millis(300));

    // Fresh connections still get full service afterwards.
    let mut conn = ClientConn::connect(addr).unwrap();
    assert!(conn.get("/health").unwrap().is_success());
    let solve = conn.post_json("/solve", r#"{"ids":[0,1,0,2]}"#).unwrap();
    assert!(solve.is_success());

    handle.shutdown();
    handle.join();
}
