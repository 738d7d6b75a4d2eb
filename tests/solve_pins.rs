//! Byte pins across commits: FNV-1a hashes of the response bodies a
//! fresh engine gives a fixed request corpus, recorded once and
//! required unchanged by every later change.
//!
//! The other byte-identity tests compare bodies within one run (1 vs 8
//! threads, 1 vs 4 shards); nothing there notices a change that moves
//! every run the same way. These pins do. Each corpus entry is sent
//! twice to a fresh [`Engine`] (a `/solve` miss, then its hit) and the
//! pin covers both statuses and bodies. The same entry sent to a fresh
//! four-shard [`Cluster`] must give the same bytes.
//!
//! On a mismatch the failure lists every entry's current hash in the
//! table's own syntax. Re-pin only for an intended wire change.

use dwm_foundation::net::{Request, Response};
use dwm_serve::{Cluster, Engine, EngineConfig};

/// `(entry, FNV-1a of both responses)`.
const PINS: &[(&str, u64)] = &[
    ("legacy_single", 0x47532308b823aef4),
    ("legacy_defaults", 0x9a1493aaa9501f3a),
    ("legacy_multi", 0x96c645a5264480f4),
    ("legacy_sparse_ids", 0x8874dec5fc44905a),
    ("legacy_whitespace", 0x2bf8a6e2bad1feff),
    ("legacy_number_spellings", 0xd0ab4d01cdde5b52),
    ("legacy_duplicate_ids_first_wins", 0xe112d28070d4a8ba),
    ("legacy_ids_beside_workloads", 0xb378df1231fdf57a),
    ("legacy_one_access", 0x53ef4b7758dbc0e2),
    ("legacy_one_repeated_id", 0x59eaca6f03e2d2b2),
    ("tiered_fast", 0xad76c75a7917a270),
    ("tiered_balanced_multi", 0x61e8f45ea1f4ccc5),
    ("tiered_deadline", 0x66dbc10f1c4ede50),
    ("topology_ring", 0x508a4868cf39cbe0),
    ("topology_grid", 0x28c36e7045663950),
    ("tiered_exact", 0xb2c1b0925c377f70),
    ("tiered_best", 0xb94c08154cd0b53e),
    ("legacy_repeated_workload", 0x89b9b438a49c9e72),
    ("tiered_repeated_workload", 0x7c7cf4fb7389d616),
    ("bad_not_json", 0x093211b041dd76d5),
    ("bad_not_utf8", 0xf79758e27829f755),
    ("bad_top_level_array", 0x35bf538691659b71),
    ("bad_truncated", 0x0b5763488c2ec48d),
    ("bad_trailing_garbage", 0xfcf48ac0dacb4c4f),
    ("bad_syntax_after_bad_ids", 0x7a8a30c6e268b85b),
    ("bad_unknown_algorithm", 0xe024305d8fdf1e21),
    ("bad_seed_before_ids", 0x25e389485e2036cb),
    ("bad_quality", 0x4a269f2bdc4a7155),
    ("bad_topology", 0x5a2abcee230f5b7f),
    ("bad_empty_ids", 0x0b580b76d363563d),
    ("bad_ids_not_array", 0x282284a34fa9ef89),
    ("bad_negative_id", 0xcb813b47555ab50d),
    ("bad_id_too_large", 0x49fbb3f248635ea9),
    ("bad_id_nested_array", 0xf41b1e45a3c9228d),
    ("bad_missing_ids", 0x0361a7f572984b15),
    ("bad_empty_workloads", 0xd8effa95a1d272bd),
    ("bad_workload_not_object", 0xdbc3935b8b5f3d15),
    ("bad_workload_ids", 0x40c96ca7407c6c5d),
    ("bad_topology_too_small", 0xc55b63c61a6c2dcd),
    ("bad_exact_too_large", 0x41bdbb8c7c07cfdf),
    ("bad_deadline_infeasible", 0xf1229fa87281f5bd),
    ("evaluate", 0x0deac04ce7afc505),
    ("evaluate_bad_ids", 0xf41b1e45a3c9228d),
    ("simulate", 0x9c5a02c974a825a5),
    ("simulate_bad_ids", 0x0b580b76d363563d),
];

/// A deterministic id sequence: `len` ids over `items` distinct values,
/// skewed towards small ids, each mapped through `spread` (so sparse
/// and huge raw ids are covered as well as dense ones).
fn ids(seed: u64, items: u64, len: usize, spread: impl Fn(u64) -> u64) -> String {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        // Squaring a uniform draw skews it towards 0.
        let u = (s >> 11) % (items * items);
        let id = items - 1 - (u as f64).sqrt() as u64;
        out.push(spread(id).to_string());
    }
    out.join(",")
}

fn dense(seed: u64, items: u64, len: usize) -> String {
    ids(seed, items, len, |i| i)
}

/// The `tiered_best` workload: small enough for the exact solver, and
/// one whose tier-1 answer is already optimal (see
/// `tiered_best_workload_is_optimal_at_tier_1`), so the background
/// tier-2 upgrade `best` queues is always discarded and the repeat's
/// `hit` label cannot depend on when the upgrade lane runs.
fn optimal_at_tier_1() -> String {
    dense(6, 9, 200)
}

/// The pinned corpus: `(entry, path, body)`.
fn corpus() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let a = dense(1, 48, 600);
    let b = dense(2, 24, 400);
    let c = dense(3, 64, 900);
    let sparse = ids(4, 40, 500, |i| match i {
        0 => 0,
        1 => u64::from(u32::MAX),
        i => i * 104_729 + 7,
    });
    let solve = |body: String| body.into_bytes();
    vec![
        (
            "legacy_single",
            "/solve",
            solve(format!(r#"{{"algorithm":"hybrid","ids":[{a}]}}"#)),
        ),
        (
            "legacy_defaults",
            "/solve",
            solve(format!(r#"{{"ids":[{b}]}}"#)),
        ),
        (
            "legacy_multi",
            "/solve",
            solve(format!(
                r#"{{"algorithm":"organ-pipe","seed":7,"workloads":[{{"ids":[{a}]}},{{"ids":[{b}]}},{{"ids":[{c}]}}]}}"#
            )),
        ),
        (
            "legacy_sparse_ids",
            "/solve",
            solve(format!(r#"{{"algorithm":"chain","ids":[{sparse}]}}"#)),
        ),
        (
            "legacy_whitespace",
            "/solve",
            solve(format!(
                "\r\n {{ \"workloads\" :\t[ {{ \"ids\" : [ {} ] }} ,\n{{\"ids\":[{b}]}} ] ,\n \"algorithm\" : \"insertion\" }} \n",
                a.replace(',', " ,\n\t")
            )),
        ),
        (
            "legacy_number_spellings",
            "/solve",
            solve(r#"{"ids":[3.0,1e1,-0,0.0,10,3,2E0,1.0e1,-0.0,7]}"#.into()),
        ),
        (
            "legacy_duplicate_ids_first_wins",
            "/solve",
            solve(r#"{"ids":[1,2,1,3,2],"ids":[-1]}"#.into()),
        ),
        (
            "legacy_ids_beside_workloads",
            "/solve",
            solve(r#"{"workloads":[{"ids":[-1]}],"ids":[0,1,0,2,2,1]}"#.into()),
        ),
        (
            "legacy_one_access",
            "/solve",
            solve(r#"{"ids":[4294967295]}"#.into()),
        ),
        (
            "legacy_one_repeated_id",
            "/solve",
            solve(r#"{"ids":[0,0,0,0,0]}"#.into()),
        ),
        (
            "tiered_fast",
            "/solve",
            solve(format!(r#"{{"quality":"fast","ids":[{c}]}}"#)),
        ),
        (
            "tiered_balanced_multi",
            "/solve",
            solve(format!(
                r#"{{"seed":3,"quality":"balanced","workloads":[{{"ids":[{b}]}},{{"ids":[{a}]}}]}}"#
            )),
        ),
        (
            "tiered_deadline",
            "/solve",
            solve(format!(r#"{{"deadline_us":1000000000,"ids":[{a}]}}"#)),
        ),
        (
            "topology_ring",
            "/solve",
            solve(format!(
                r#"{{"algorithm":"hybrid","topology":"ring","ids":[{a}]}}"#
            )),
        ),
        (
            "topology_grid",
            "/solve",
            solve(format!(
                r#"{{"quality":"balanced","topology":"grid2d:4x16","ids":[{c}]}}"#
            )),
        ),
        (
            "tiered_exact",
            "/solve",
            solve(format!(
                r#"{{"quality":"exact","ids":[{}]}}"#,
                dense(5, 11, 300)
            )),
        ),
        (
            "tiered_best",
            "/solve",
            solve(format!(
                r#"{{"quality":"best","ids":[{}]}}"#,
                optimal_at_tier_1()
            )),
        ),
        (
            "legacy_repeated_workload",
            "/solve",
            solve(format!(
                r#"{{"algorithm":"hybrid","workloads":[{{"ids":[{a}]}},{{"ids":[{b}]}},{{"ids":[{a}]}}]}}"#
            )),
        ),
        (
            "tiered_repeated_workload",
            "/solve",
            solve(format!(
                r#"{{"quality":"balanced","workloads":[{{"ids":[{a}]}},{{"ids":[{b}]}},{{"ids":[{a}]}}]}}"#
            )),
        ),
        ("bad_not_json", "/solve", solve("not json".into())),
        ("bad_not_utf8", "/solve", vec![b'{', 0xFF, b'}']),
        ("bad_top_level_array", "/solve", solve("[1,2]".into())),
        (
            "bad_truncated",
            "/solve",
            solve(format!("{{\"ids\":[{}", b.replace(',', ",\n"))),
        ),
        (
            "bad_trailing_garbage",
            "/solve",
            solve(r#"{"ids":[1,2]} x"#.into()),
        ),
        (
            "bad_syntax_after_bad_ids",
            "/solve",
            solve(r#"{"ids":[-1,"x"],"seed":}"#.into()),
        ),
        (
            "bad_unknown_algorithm",
            "/solve",
            solve(r#"{"algorithm":"bogus","ids":[1,-2]}"#.into()),
        ),
        (
            "bad_seed_before_ids",
            "/solve",
            solve(r#"{"ids":[-1],"seed":"x"}"#.into()),
        ),
        (
            "bad_quality",
            "/solve",
            solve(r#"{"quality":"turbo","ids":[1,2]}"#.into()),
        ),
        (
            "bad_topology",
            "/solve",
            solve(r#"{"topology":"mobius","ids":[1,2]}"#.into()),
        ),
        ("bad_empty_ids", "/solve", solve(r#"{"ids":[]}"#.into())),
        ("bad_ids_not_array", "/solve", solve(r#"{"ids":5}"#.into())),
        (
            "bad_negative_id",
            "/solve",
            solve(r#"{"ids":[1,2,-1,"x"]}"#.into()),
        ),
        (
            "bad_id_too_large",
            "/solve",
            solve(r#"{"ids":[4294967296]}"#.into()),
        ),
        (
            "bad_id_nested_array",
            "/solve",
            solve(r#"{"ids":[1,[2]]}"#.into()),
        ),
        ("bad_missing_ids", "/solve", solve("{}".into())),
        ("bad_empty_workloads", "/solve", solve(r#"{"workloads":[]}"#.into())),
        (
            "bad_workload_not_object",
            "/solve",
            solve(r#"{"workloads":[{"ids":[1]},5]}"#.into()),
        ),
        (
            "bad_workload_ids",
            "/solve",
            solve(r#"{"workloads":[{"ids":[1]},{"ids":[0.5]}]}"#.into()),
        ),
        (
            "bad_topology_too_small",
            "/solve",
            solve(r#"{"topology":"grid2d:2x2","ids":[0,1,2,3,4]}"#.into()),
        ),
        (
            "bad_exact_too_large",
            "/solve",
            solve(
                r#"{"quality":"exact","workloads":[{"ids":[0,1,0,2]},{"ids":[0,1,2,3,4,5,6,7,8,9,10,11,12]}]}"#
                    .into(),
            ),
        ),
        (
            "bad_deadline_infeasible",
            "/solve",
            solve(format!(
                r#"{{"quality":"balanced","deadline_us":60,"workloads":[{{"ids":[0,1,0]}},{{"ids":[{b}]}}]}}"#
            )),
        ),
        (
            "evaluate",
            "/evaluate",
            solve(format!(
                r#"{{"ids":[{b}],"placement":[{}],"ports":2,"tape_length":24}}"#,
                (0..24).rev().map(|i| i.to_string()).collect::<Vec<_>>().join(",")
            )),
        ),
        (
            "evaluate_bad_ids",
            "/evaluate",
            solve(r#"{"ids":[1,"x"],"placement":[0,1]}"#.into()),
        ),
        (
            "simulate",
            "/simulate",
            solve(format!(r#"{{"ids":[{a}],"domains_per_track":64}}"#)),
        ),
        (
            "simulate_bad_ids",
            "/simulate",
            solve(r#"{"ids":[]}"#.into()),
        ),
    ]
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

fn pin_of(responses: &[Response]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for r in responses {
        fnv1a(&mut h, &r.status.to_be_bytes());
        fnv1a(&mut h, &r.body);
    }
    h
}

#[test]
fn solve_corpus_bodies_match_their_pins() {
    let mut actual = Vec::new();
    for (name, path, body) in corpus() {
        let req = Request::post(path, body);
        let engine = Engine::with_config(EngineConfig::default());
        let responses = [engine.handle(&req), engine.handle(&req)];
        let cluster = Cluster::new(4, EngineConfig::default());
        for (i, single) in responses.iter().enumerate() {
            let clustered = cluster.handle(&req);
            assert_eq!(
                (clustered.status, &clustered.body),
                (single.status, &single.body),
                "{name}: request {i} differs between one engine and four shards"
            );
        }
        actual.push((name, pin_of(&responses)));
    }
    let table: String = actual
        .iter()
        .map(|(name, h)| format!("    ({name:?}, {h:#018x}),\n"))
        .collect();
    let expected: Vec<(&str, u64)> = PINS.to_vec();
    assert_eq!(
        actual, expected,
        "response bytes moved; current hashes:\n{table}"
    );
}

/// The `cost` of the single result a fresh engine answers `body` with.
fn solved_cost(body: String) -> u64 {
    let resp = Engine::with_config(EngineConfig::default()).handle(&Request::post("/solve", body));
    assert_eq!(resp.status, 200, "{:?}", resp.body_str());
    let value = dwm_foundation::json::parse(resp.body_str().unwrap()).unwrap();
    let results = value.as_object().unwrap().get("results").unwrap();
    let result = results.as_array().unwrap()[0].as_object().unwrap();
    result
        .get("cost")
        .unwrap()
        .as_number()
        .unwrap()
        .as_u64()
        .unwrap()
}

#[test]
fn tiered_best_workload_is_optimal_at_tier_1() {
    let ids = optimal_at_tier_1();
    // `best` answers in the foreground exactly as `balanced` does.
    let tier_1 = solved_cost(format!(r#"{{"quality":"balanced","ids":[{ids}]}}"#));
    let exact = solved_cost(format!(r#"{{"quality":"exact","ids":[{ids}]}}"#));
    assert_eq!(tier_1, exact);
}

#[test]
fn an_over_limit_workload_gets_the_exact_400_body() {
    let mut body = String::with_capacity(8 * 1024 * 1024 + 16);
    body.push_str(r#"{"ids":["#);
    for i in 0..4_000_001u32 {
        if i > 0 {
            body.push(',');
        }
        body.push(if i % 2 == 0 { '0' } else { '1' });
    }
    body.push_str("]}");
    let engine = Engine::with_config(EngineConfig::default());
    let resp = engine.handle(&Request::post("/solve", body));
    assert_eq!(resp.status, 400);
    assert_eq!(
        resp.body_str(),
        Some(r#"{"error":"workload too large: 4000001 accesses (max 4000000)"}"#)
    );
}
