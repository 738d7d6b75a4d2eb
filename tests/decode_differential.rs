//! Differential tests of the typed request decoder.
//!
//! `protocol::decode_body` reads `ids` arrays straight into `u32`s;
//! `parse_body` + `parse_ids` / `parse_workloads` is the `Value`-tree
//! reference. For every body — a fixed corpus of edge cases plus
//! generated near-miss bodies — both must give the same ids, the same
//! other fields, or the same error: status and rendered body, byte for
//! byte.

use dwm_foundation::json::{Number, Object, Value};
use dwm_foundation::{require_eq, Checker, Rng};
use dwm_serve::protocol::{
    decode_body, error_body, parse_body, parse_ids, parse_workloads, ProtocolError, MAX_WORKLOADS,
};

/// What a decoder made of a body: `(status, rendered error)` or the
/// other fields plus the ids it read.
type Outcome = Result<(Object, Vec<Vec<u32>>), (u16, String)>;

fn failed(e: ProtocolError) -> (u16, String) {
    (e.status, error_body(&e.message))
}

/// The fields a typed decode keeps: everything but `ids`/`workloads`.
fn other_fields(obj: &Object) -> Object {
    obj.iter()
        .filter(|(k, _)| !matches!(*k, "ids" | "workloads"))
        .map(|(k, v)| (k.to_owned(), v.clone()))
        .collect()
}

fn reference(body: &[u8], workloads: bool) -> Outcome {
    let obj = parse_body(body).map_err(failed)?;
    let ids = if workloads {
        parse_workloads(&obj)
    } else {
        parse_ids(&obj).map(|ids| vec![ids])
    };
    Ok((other_fields(&obj), ids.map_err(failed)?))
}

fn typed(body: &[u8], workloads: bool) -> Outcome {
    let decoded = decode_body(body).map_err(failed)?;
    let ids = if workloads {
        decoded
            .workloads()
            .map(|w| w.iter().map(|ids| ids.to_vec()).collect())
    } else {
        decoded.ids().map(|ids| vec![ids.to_vec()])
    };
    Ok((decoded.fields().clone(), ids.map_err(failed)?))
}

fn nested(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

fn corpus() -> Vec<Vec<u8>> {
    let many = |n: usize| {
        format!(
            r#"{{"workloads":[{}]}}"#,
            vec![r#"{"ids":[1,2]}"#; n].join(",")
        )
    };
    let mut bodies: Vec<Vec<u8>> = [
        r#"{"ids":[0,1,0,2]}"#.to_owned(),
        " \r\n\t{ \"ids\" :\n[ 1 ,\t2 ,\r\n3 ] , \"seed\" : 4 }\n ".to_owned(),
        r#"{"workloads":[ {"ids":[1,2]} , { "x":1, "ids":[3] } ]}"#.to_owned(),
        r#"{"ids":[1,2,1,3,2],"ids":[-1]}"#.to_owned(),
        r#"{"ids":"x","ids":[1]}"#.to_owned(),
        r#"{"workloads":[{"ids":[-1]}],"ids":[0,1,0,2,2,1]}"#.to_owned(),
        r#"{"workloads":5,"ids":[1]}"#.to_owned(),
        r#"{"workloads":[{"ids":[1]}],"workloads":5}"#.to_owned(),
        r#"{"workloads":[{"ids":[1],"ids":[-1]}]}"#.to_owned(),
        r#"{"ids":[-1]}"#.to_owned(),
        r#"{"ids":[4294967295,0]}"#.to_owned(),
        r#"{"ids":[4294967296]}"#.to_owned(),
        r#"{"ids":[18446744073709551616]}"#.to_owned(),
        r#"{"ids":[1,"x"]}"#.to_owned(),
        r#"{"ids":[1,[2],3]}"#.to_owned(),
        r#"{"ids":[1,{"a":[1]},null,true,false]}"#.to_owned(),
        r#"{"ids":[3.0,1e1,-0,0.0,2E0,1.0e1,-0.0,7]}"#.to_owned(),
        r#"{"ids":[0.5]}"#.to_owned(),
        r#"{"ids":[1,-2,"x"]}"#.to_owned(),
        r#"{"ids":[01]}"#.to_owned(),
        r#"{"ids":[1.]}"#.to_owned(),
        r#"{"ids":[-]}"#.to_owned(),
        r#"{"ids":[1 2]}"#.to_owned(),
        r#"{"ids":[1,]}"#.to_owned(),
        r#"{"ids":[1,2]} x"#.to_owned(),
        r#"{"ids":[1,2]}}"#.to_owned(),
        r#"{"ids":[-1,"x"],"seed":}"#.to_owned(),
        r#"{"ids":[],"seed":1}"#.to_owned(),
        r#"{"ids":null}"#.to_owned(),
        r#"{"ids":5}"#.to_owned(),
        r#"{"workloads":[]}"#.to_owned(),
        r#"{"workloads":{}}"#.to_owned(),
        r#"{"workloads":[{"ids":[1]},5]}"#.to_owned(),
        r#"{"workloads":[{"ids":[1]},{"ids":[0.5]}]}"#.to_owned(),
        r#"{"workloads":[{"ids":[1]},{}]}"#.to_owned(),
        r#"{"workloads":[{"ids":[]}]}"#.to_owned(),
        r#"{"algorithm":"hybrid","seed":7,"topology":"ring","ids":[1,2]}"#.to_owned(),
        r#"{"quality":"fast","deadline_us":5,"ids":[1]}"#.to_owned(),
        "{}".to_owned(),
        "[1,2]".to_owned(),
        "\"ids\"".to_owned(),
        "null".to_owned(),
        "7".to_owned(),
        String::new(),
        "   ".to_owned(),
        "{".to_owned(),
        r#"{"ids":[1,2"#.to_owned(),
        r#"{"ids":[1,2],"#.to_owned(),
        r#"{"ids" [1]}"#.to_owned(),
        r#"{ids:[1]}"#.to_owned(),
        r#"{"ids":[1],"s":"\x"}"#.to_owned(),
        r#"{"s":"\ud800","ids":[1]}"#.to_owned(),
        format!(r#"{{"ids":[1,{}]}}"#, nested(254)),
        format!(r#"{{"ids":[1,{}]}}"#, nested(255)),
        format!(r#"{{"ids":[1,{}]}}"#, nested(256)),
        format!(r#"{{"workloads":[{{"ids":[{}]}}]}}"#, nested(253)),
        format!(r#"{{"workloads":[{{"ids":[{}]}}]}}"#, nested(254)),
        format!(r#"{{"x":{},"ids":[1]}}"#, nested(256)),
        format!(r#"{{"x":{},"ids":[1]}}"#, nested(257)),
        many(MAX_WORKLOADS),
        many(MAX_WORKLOADS + 1),
        format!(
            r#"{{"workloads":[{},{{"ids":[-1]}}]}}"#,
            vec![r#"{"ids":[1]}"#; MAX_WORKLOADS].join(",")
        ),
    ]
    .into_iter()
    .map(String::into_bytes)
    .collect();
    bodies.push(vec![b'{', 0xFF, b'}']);
    bodies.push(b"{\"ids\":[1,2],\"s\":\"\xC3\"}".to_vec());
    bodies.push(b"\xEF\xBB\xBF{\"ids\":[1]}".to_vec());
    bodies
}

#[test]
fn typed_decode_matches_the_value_tree_on_the_corpus() {
    for body in corpus() {
        for workloads in [false, true] {
            assert_eq!(
                typed(&body, workloads),
                reference(&body, workloads),
                "{} (workloads: {workloads})",
                String::from_utf8_lossy(&body)
            );
        }
    }
}

/// One id token, valid or not.
fn id_token(rng: &mut Rng) -> String {
    const ODD: [&str; 16] = [
        "-1",
        "4294967295",
        "4294967296",
        "\"x\"",
        "[2]",
        "[]",
        "{}",
        "3.0",
        "1e1",
        "-0",
        "0.5",
        "null",
        "true",
        "01",
        "1.",
        "99999999999",
    ];
    if rng.gen_bool(0.85) {
        rng.gen_range(0..64u32).to_string()
    } else {
        ODD[rng.gen_range(0..ODD.len())].to_owned()
    }
}

fn ws(rng: &mut Rng) -> &'static str {
    const WS: [&str; 5] = ["", "", " ", "\n", "\t\r\n "];
    WS[rng.gen_range(0..WS.len())]
}

fn id_array(rng: &mut Rng) -> String {
    let n = rng.gen_range(0..12);
    let items: Vec<String> = (0..n)
        .map(|_| format!("{}{}{}", ws(rng), id_token(rng), ws(rng)))
        .collect();
    format!("[{}]", items.join(","))
}

fn member(rng: &mut Rng) -> String {
    let (key, value) = match rng.gen_range(0..8) {
        0..=2 => ("ids", id_array(rng)),
        3 | 4 => {
            let n = rng.gen_range(0..4);
            let entries: Vec<String> = (0..n)
                .map(|_| match rng.gen_range(0..6) {
                    0 => "5".to_owned(),
                    1 => "{}".to_owned(),
                    2 => format!(r#"{{"x":1,"ids":{}}}"#, id_array(rng)),
                    _ => format!(r#"{{"ids":{}}}"#, id_array(rng)),
                })
                .collect();
            ("workloads", format!("[{}]", entries.join(",")))
        }
        5 => ("seed", rng.gen_range(0..10u32).to_string()),
        6 => ("algorithm", "\"hybrid\"".to_owned()),
        _ => ("ids", id_token(rng)),
    };
    format!(
        "{}\"{key}\"{}:{}{value}{}",
        ws(rng),
        ws(rng),
        ws(rng),
        ws(rng)
    )
}

/// A body near the `/solve` schema, sometimes damaged by a cut, an
/// inserted byte, or a deleted byte.
fn arb_body(rng: &mut Rng) -> Vec<u8> {
    let n = rng.gen_range(0..4);
    let members: Vec<String> = (0..n).map(|_| member(rng)).collect();
    let mut body = format!("{}{{{}}}{}", ws(rng), members.join(","), ws(rng)).into_bytes();
    if !body.is_empty() {
        match rng.gen_range(0..6) {
            0 => body.truncate(rng.gen_range(0..body.len())),
            1 => {
                const NOISE: &[u8] = b"[]{},:\"-x0 \xFF";
                let at = rng.gen_range(0..=body.len());
                body.insert(at, NOISE[rng.gen_range(0..NOISE.len())]);
            }
            2 => {
                body.remove(rng.gen_range(0..body.len()));
            }
            _ => {}
        }
    }
    body
}

#[test]
fn typed_decode_matches_the_value_tree_on_generated_bodies() {
    Checker::new("typed_decode_matches_the_value_tree_on_generated_bodies")
        .cases(2000)
        .run(arb_body, |body| {
            for workloads in [false, true] {
                require_eq!(typed(body, workloads), reference(body, workloads));
            }
            Ok(())
        });
}

#[test]
fn typed_fields_are_the_value_tree_without_the_id_arrays() {
    let body = br#"{"seed":3,"ids":[1,2],"topology":"ring","workloads":[],"x":{"ids":[9]}}"#;
    let decoded = decode_body(body).unwrap();
    let mut expected = Object::new();
    expected.insert("seed", Value::Num(Number::U(3)));
    expected.insert("topology", Value::Str("ring".into()));
    let nested = parse_body(br#"{"ids":[9]}"#).unwrap();
    expected.insert("x", Value::Obj(nested));
    assert_eq!(decoded.fields(), &expected);
    assert_eq!(decoded.ids().unwrap(), &[1, 2]);
}
