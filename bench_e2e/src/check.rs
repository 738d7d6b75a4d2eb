//! Correctness checks on what the daemon answers. Every failed check
//! is a failed operation: it is counted, reported, and makes the run
//! exit non-zero.

use std::collections::HashMap;

use dwm_core::{Placement, TopologyCost};
use dwm_device::{Topology, TrackTopology};
use dwm_foundation::json::{self, Object, Value};
use dwm_foundation::net::Response;

/// The shift totals of one answered workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Shifts {
    /// Shifts under the order-of-appearance placement.
    pub naive: u64,
    /// Shifts under the returned placement.
    pub cost: u64,
}

/// Parses a 2xx JSON object body.
///
/// # Errors
///
/// A non-2xx status or a body that is not a JSON object.
pub fn object(resp: &Response) -> Result<Object, String> {
    if !resp.is_success() {
        return Err(format!(
            "status {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    let text = resp.body_str().ok_or("body is not UTF-8")?;
    match json::parse(text) {
        Ok(Value::Obj(obj)) => Ok(obj),
        _ => Err(format!("body is not a JSON object: {text:.120}")),
    }
}

/// Unsigned integer field.
///
/// # Errors
///
/// Missing or not a nonnegative integer.
pub fn uint(obj: &Object, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_number)
        .and_then(|n| n.as_u64())
        .ok_or_else(|| format!("field {key:?} missing or not an unsigned integer"))
}

/// Array of unsigned integers.
///
/// # Errors
///
/// Missing, not an array, or holding a non-integer.
pub fn uints(obj: &Object, key: &str) -> Result<Vec<usize>, String> {
    obj.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("field {key:?} missing or not an array"))?
        .iter()
        .map(|v| {
            v.as_number()
                .and_then(|n| n.as_u64())
                .map(|n| n as usize)
                .ok_or_else(|| format!("{key} holds a non-integer"))
        })
        .collect()
}

/// A single-workload solve response, checked: status 200, the cache
/// label is `expect_label` (`"hit"` or `"miss"`, legacy string or
/// tiered object form), the placement is a permutation of the
/// workload's items, and `cost`/`naive_cost` equal what the client
/// computes from the ids it sent under the single-port linear model.
///
/// # Errors
///
/// A description of the first failed check.
pub fn solve(ids: &[u32], resp: &Response, expect_label: &str) -> Result<Shifts, String> {
    let body = object(resp)?;
    let label = match body.get("cache").and_then(Value::as_array) {
        Some([Value::Str(s)]) => s.clone(),
        Some([Value::Obj(o)]) => o
            .get("status")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned(),
        _ => return Err("cache labels are not one entry".into()),
    };
    if label != expect_label {
        return Err(format!("cache label {label:?}, expected {expect_label:?}"));
    }
    let result = match body.get("results").and_then(Value::as_array) {
        Some([Value::Obj(r)]) => r,
        _ => return Err("results are not one object".into()),
    };
    let (want, n) = replay(ids, &uints(result, "placement")?)?;
    if uint(result, "items")? != n as u64 {
        return Err(format!(
            "items {} but the ids touch {n}",
            uint(result, "items")?
        ));
    }
    let got = Shifts {
        naive: uint(result, "naive_cost")?,
        cost: uint(result, "cost")?,
    };
    if got != want {
        return Err(format!("body says {got:?}, recomputed {want:?}"));
    }
    Ok(want)
}

/// The shifts the client computes itself: `ids` replayed access by
/// access under the single-port linear model, items numbered by first
/// appearance (the daemon's canonical form). Consecutive accesses cost
/// the distance between their offsets — the steady-state cost a body
/// reports — so no access graph is built. Returns the totals and the
/// item count.
///
/// # Errors
///
/// `offsets` is not a permutation of the items `ids` touches.
pub fn replay(ids: &[u32], offsets: &[usize]) -> Result<(Shifts, usize), String> {
    let mut dense: HashMap<u32, usize> = HashMap::new();
    let seq: Vec<usize> = ids
        .iter()
        .map(|&id| {
            let next = dense.len();
            *dense.entry(id).or_insert(next)
        })
        .collect();
    let n = dense.len();
    let placement = Placement::from_offsets(offsets.to_vec())
        .map_err(|e| format!("placement is not a permutation: {e}"))?;
    if placement.num_items() != n {
        return Err(format!(
            "placement covers {} of {n} items",
            placement.num_items()
        ));
    }
    let model = TopologyCost::single_port(Topology::linear(), n);
    let distance = |a, b| model.topology().shift_distance(model.layout(), n, a, b);
    let mut shifts = Shifts::default();
    for pair in seq.windows(2) {
        let (u, v) = (pair[0], pair[1]);
        shifts.naive += distance(u, v);
        shifts.cost += distance(offsets[u], offsets[v]);
    }
    Ok((shifts, n))
}

/// The `"results":…` tail of a solve body: byte-identical for one
/// workload whether it hit or missed and whichever connection asked.
fn results_tail(body: &[u8]) -> Option<&[u8]> {
    let key = b"\"results\":";
    body.windows(key.len())
        .position(|w| w == key)
        .map(|at| &body[at..])
}

/// The body every later hit on a workload must repeat byte for byte,
/// derived from its (checked) first answer.
///
/// # Errors
///
/// The first answer has no `results` member.
pub fn expected_hit_body(first: &Response) -> Result<Vec<u8>, String> {
    let tail = results_tail(&first.body).ok_or("solve body has no results")?;
    let mut body = br#"{"cache":["hit"],"#.to_vec();
    body.extend_from_slice(tail);
    Ok(body)
}

/// Total shift reduction in percent: Σ(naive − cost) ÷ Σ naive.
pub fn reduction_pct(shifts: &[Shifts]) -> f64 {
    let naive: u64 = shifts.iter().map(|s| s.naive).sum();
    let saved: i128 = shifts
        .iter()
        .map(|s| i128::from(s.naive) - i128::from(s.cost))
        .sum();
    if naive == 0 {
        0.0
    } else {
        saved as f64 * 100.0 / naive as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwm_foundation::net::Request;
    use dwm_serve::Engine;

    fn answer(ids: &[u32]) -> Response {
        let body = crate::inputs::hybrid_body(ids);
        Engine::new(16).handle(&Request::post("/solve", body))
    }

    #[test]
    fn a_correct_body_passes_and_reports_its_shifts() {
        let ids = crate::inputs::hit_ids(3, 0);
        let shifts = solve(&ids, &answer(&ids), "miss").unwrap();
        assert!(shifts.cost <= shifts.naive);
        assert!(reduction_pct(&[shifts]) >= 0.0);
    }

    #[test]
    fn a_cost_off_by_one_is_an_error() {
        let ids = crate::inputs::hit_ids(3, 1);
        let mut resp = answer(&ids);
        let good = solve(&ids, &resp, "miss").unwrap();
        let text = resp.body_str().unwrap().to_owned();
        let field = format!("\"cost\":{}", good.cost);
        assert!(text.contains(&field));
        resp.body = text
            .replace(&field, &format!("\"cost\":{}", good.cost + 1))
            .into_bytes();
        let err = solve(&ids, &resp, "miss").unwrap_err();
        assert!(err.contains("recomputed"), "{err}");
    }

    #[test]
    fn wrong_labels_and_non_permutations_are_errors() {
        let ids = crate::inputs::hit_ids(3, 2);
        let resp = answer(&ids);
        assert!(solve(&ids, &resp, "hit").unwrap_err().contains("label"));
        let text = resp.body_str().unwrap();
        let start = text.find("\"placement\":[").unwrap() + "\"placement\":[".len();
        let end = start + text[start..].find(',').unwrap();
        // Replace the first offset with the second's value: a repeat.
        let second_end = end + 1 + text[end + 1..].find([',', ']']).unwrap();
        let broken = format!(
            "{}{}{}",
            &text[..start],
            &text[end + 1..second_end],
            &text[end..]
        );
        let broken = Response {
            body: broken.into_bytes(),
            ..resp.clone()
        };
        assert!(solve(&ids, &broken, "miss")
            .unwrap_err()
            .contains("permutation"));
    }

    #[test]
    fn the_hit_body_repeats_the_first_answers_results() {
        let ids = crate::inputs::hit_ids(4, 0);
        let engine = Engine::new(16);
        let req = Request::post("/solve", crate::inputs::hybrid_body(&ids));
        let first = engine.handle(&req);
        let second = engine.handle(&req);
        assert_eq!(expected_hit_body(&first).unwrap(), second.body);
    }
}
