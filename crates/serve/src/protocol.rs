//! The request/response JSON protocol and its parsing helpers.
//!
//! Requests are JSON objects POSTed to a path naming the operation;
//! responses are JSON objects whose byte form is deterministic (the
//! serializer preserves field insertion order and never round-trips
//! integers through floats). The five operations:
//!
//! | Method | Path        | Body                                              |
//! |--------|-------------|---------------------------------------------------|
//! | POST   | `/solve`    | `{"algorithm"?, "seed"?, "topology"?, "workloads": [{"ids": […]}…]}` or `{"ids": […]}`; tiered form replaces `algorithm` with `"quality"` (`fast`/`balanced`/`best`) and/or `"deadline_us"` |
//! | POST   | `/evaluate` | `{"ids": […], "placement": […], "ports"?, "tape_length"?}` |
//! | POST   | `/simulate` | `{"ids": […], "domains_per_track"?, "tracks"?, "dbcs"?, "ports"?}` |
//! | GET    | `/stats`    | —                                                 |
//! | GET    | `/health`   | —                                                 |
//!
//! Streaming sessions add five more (see [`crate::session`]):
//!
//! | Method | Path                      | Body                                   |
//! |--------|---------------------------|----------------------------------------|
//! | POST   | `/session`                | `{"window"?, "phase_threshold"?, "confirm_windows"?, "hysteresis"?, "migration_shifts_per_item"?, "horizon_windows"?, "refreeze_edges"?, "topology"?}` (or empty for defaults) |
//! | POST   | `/session/{id}/accesses`  | `{"ids": […]}`                         |
//! | GET    | `/session/{id}/placement` | —                                      |
//! | GET    | `/session/{id}/stats`     | —                                      |
//! | DELETE | `/session/{id}`           | —                                      |
//!
//! Session ids look like `s-7`; unknown, closed, evicted, and expired
//! ids all answer 404.
//!
//! `ids` is the access sequence as item ids (reads; the placement
//! problem is read/write agnostic). Workloads are canonicalized server-
//! side (dense first-appearance ids, as `Trace::normalize` numbers
//! them), so two id sequences with the same canonical access graph
//! share a cache entry.
//!
//! # Two decoders, one answer
//!
//! The engine decodes id-carrying bodies with [`decode_body`], which
//! reads every `ids` array straight into `u32`s and keeps the other
//! fields as a [`Value`] tree. [`parse_body`] with [`parse_ids`] /
//! [`parse_workloads`] is the tree-only reference: for every body both
//! routes give the same ids or the same error, message and precedence
//! included (JSON syntax first, then knobs and fields, then ids).

use dwm_core::anytime::Quality;
use dwm_device::Topology;
use dwm_foundation::json::{JsonError, Object, Parser, U32Array, Value};

/// A protocol-level failure: HTTP status plus a one-line message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// HTTP status to answer with (400 for client mistakes).
    pub status: u16,
    /// Human-readable reason, sent as `{"error": …}`.
    pub message: String,
}

impl ProtocolError {
    /// A 400 Bad Request.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ProtocolError {
            status: 400,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.status)
    }
}

impl std::error::Error for ProtocolError {}

/// Hard cap on accesses per workload (keeps one request from pinning a
/// worker for minutes).
pub const MAX_ACCESSES: usize = 4_000_000;
/// Hard cap on workloads per solve request.
pub const MAX_WORKLOADS: usize = 256;

/// Parses the request body as a JSON object.
///
/// # Errors
///
/// 400 with the parser's line/column message on malformed JSON, or
/// when the top level is not an object.
pub fn parse_body(body: &[u8]) -> Result<Object, ProtocolError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ProtocolError::bad_request("body is not UTF-8"))?;
    let value = dwm_foundation::json::parse(text)
        .map_err(|e| ProtocolError::bad_request(format!("invalid JSON: {e}")))?;
    match value {
        Value::Obj(obj) => Ok(obj),
        other => Err(ProtocolError::bad_request(format!(
            "expected a JSON object, got {}",
            other.type_name()
        ))),
    }
}

/// String field with a default.
pub fn opt_str(obj: &Object, key: &str, default: &str) -> Result<String, ProtocolError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(default.to_owned()),
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field {key:?} must be a string, got {}",
            other.type_name()
        ))),
    }
}

/// Numeric field with a default, as `f64` (integers are accepted and
/// widened; used for session thresholds and hysteresis factors).
pub fn opt_f64(obj: &Object, key: &str, default: f64) -> Result<f64, ProtocolError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::Num(n)) => Ok(n.as_f64()),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field {key:?} must be a number, got {}",
            other.type_name()
        ))),
    }
}

/// Nonnegative integer field with a default.
pub fn opt_u64(obj: &Object, key: &str, default: u64) -> Result<u64, ProtocolError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::Num(n)) => n.as_u64().ok_or_else(|| {
            ProtocolError::bad_request(format!("field {key:?} must be a nonnegative integer"))
        }),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field {key:?} must be a number, got {}",
            other.type_name()
        ))),
    }
}

/// Required `ids` array: the workload's access sequence.
pub fn parse_ids(obj: &Object) -> Result<Vec<u32>, ProtocolError> {
    let Some(value) = obj.get("ids") else {
        return Err(ProtocolError::bad_request("missing field \"ids\""));
    };
    let Value::Arr(arr) = value else {
        return Err(ProtocolError::bad_request("field \"ids\" must be an array"));
    };
    if arr.is_empty() {
        return Err(ProtocolError::bad_request(
            "field \"ids\" must be non-empty",
        ));
    }
    if arr.len() > MAX_ACCESSES {
        return Err(ProtocolError::bad_request(format!(
            "workload too large: {} accesses (max {MAX_ACCESSES})",
            arr.len()
        )));
    }
    arr.iter()
        .enumerate()
        .map(|(i, v)| {
            let n = match v {
                Value::Num(n) => n.as_u64(),
                _ => None,
            };
            n.and_then(|n| u32::try_from(n).ok()).ok_or_else(|| {
                ProtocolError::bad_request(format!("ids[{i}] must be a u32 item id"))
            })
        })
        .collect()
}

/// Array of `usize` under `key` (used for `placement` offsets).
pub fn parse_usize_array(obj: &Object, key: &str) -> Result<Vec<usize>, ProtocolError> {
    let Some(value) = obj.get(key) else {
        return Err(ProtocolError::bad_request(format!("missing field {key:?}")));
    };
    let Value::Arr(arr) = value else {
        return Err(ProtocolError::bad_request(format!(
            "field {key:?} must be an array"
        )));
    };
    arr.iter()
        .enumerate()
        .map(|(i, v)| {
            let n = match v {
                Value::Num(n) => n.as_u64(),
                _ => None,
            };
            n.and_then(|n| usize::try_from(n).ok()).ok_or_else(|| {
                ProtocolError::bad_request(format!("{key}[{i}] must be a nonnegative integer"))
            })
        })
        .collect()
}

/// The `workloads` array of a solve request: each entry an object with
/// an `ids` array. A top-level `ids` field is accepted as shorthand
/// for a single workload.
pub fn parse_workloads(obj: &Object) -> Result<Vec<Vec<u32>>, ProtocolError> {
    if obj.get("ids").is_some() {
        return Ok(vec![parse_ids(obj)?]);
    }
    let Some(value) = obj.get("workloads") else {
        return Err(ProtocolError::bad_request(
            "missing field \"workloads\" (or shorthand \"ids\")",
        ));
    };
    let Value::Arr(arr) = value else {
        return Err(ProtocolError::bad_request(
            "field \"workloads\" must be an array",
        ));
    };
    if arr.is_empty() {
        return Err(ProtocolError::bad_request(
            "field \"workloads\" must be non-empty",
        ));
    }
    if arr.len() > MAX_WORKLOADS {
        return Err(ProtocolError::bad_request(format!(
            "too many workloads: {} (max {MAX_WORKLOADS})",
            arr.len()
        )));
    }
    arr.iter()
        .enumerate()
        .map(|(i, v)| match v {
            Value::Obj(w) => parse_ids(w)
                .map_err(|e| ProtocolError::bad_request(format!("workloads[{i}]: {}", e.message))),
            _ => Err(ProtocolError::bad_request(format!(
                "workloads[{i}] must be an object"
            ))),
        })
        .collect()
}

/// A request body decoded with its `ids` arrays read straight into
/// `u32`s: the top-level `ids`, and the `ids` of each `workloads`
/// entry. Everything else is kept as [`parse_body`] would decode it.
///
/// Shape errors in the id fields are held back until
/// [`RequestBody::ids`] or [`RequestBody::workloads`] is asked, so a
/// caller checks its other fields first, in the same order as with the
/// reference decoder.
#[derive(Debug, Default)]
pub struct RequestBody {
    fields: Object,
    /// The first top-level `ids` member.
    ids: Option<IdsField>,
    /// The first top-level `workloads` member.
    workloads: Option<WorkloadsField>,
}

/// What an `ids` member held.
#[derive(Debug)]
enum IdsField {
    Array(U32Array),
    NotArray,
}

/// What a `workloads` member held.
#[derive(Debug)]
enum WorkloadsField {
    /// `len` entries, of which the first [`MAX_WORKLOADS`] are kept.
    Array {
        len: usize,
        entries: Vec<WorkloadEntry>,
    },
    NotArray,
}

/// One entry of a `workloads` array.
#[derive(Debug)]
enum WorkloadEntry {
    /// An object, with its first `ids` member if it has one.
    Object(Option<IdsField>),
    NotObject,
}

/// Decodes a request body, reading `ids` arrays typed (see
/// [`RequestBody`]). Only the first [`MAX_ACCESSES`] ids of an array are
/// stored, so an oversized workload costs its body bytes, not a
/// `Value` per id.
///
/// # Errors
///
/// Exactly [`parse_body`]'s: 400 when the body is not UTF-8, is not
/// JSON (with the parser's line/column message), or is not an object.
pub fn decode_body(body: &[u8]) -> Result<RequestBody, ProtocolError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ProtocolError::bad_request("body is not UTF-8"))?;
    let syntax = |e: JsonError| ProtocolError::bad_request(format!("invalid JSON: {e}"));
    let mut p = Parser::new(text);
    if p.peek() != Some(b'{') {
        let value = p.value().map_err(syntax)?;
        p.finish().map_err(syntax)?;
        return Err(ProtocolError::bad_request(format!(
            "expected a JSON object, got {}",
            value.type_name()
        )));
    }
    let mut out = RequestBody::default();
    p.object(|p, key| {
        match key.as_str() {
            "ids" => {
                let ids = ids_field(p)?;
                out.ids.get_or_insert(ids);
            }
            "workloads" => {
                let workloads = workloads_field(p)?;
                out.workloads.get_or_insert(workloads);
            }
            _ => {
                let value = p.value()?;
                out.fields.insert(key, value);
            }
        }
        Ok(())
    })
    .map_err(syntax)?;
    p.finish().map_err(syntax)?;
    Ok(out)
}

fn ids_field(p: &mut Parser<'_>) -> Result<IdsField, JsonError> {
    if p.peek() == Some(b'[') {
        Ok(IdsField::Array(p.u32_array(MAX_ACCESSES)?))
    } else {
        p.value()?;
        Ok(IdsField::NotArray)
    }
}

fn workloads_field(p: &mut Parser<'_>) -> Result<WorkloadsField, JsonError> {
    if p.peek() != Some(b'[') {
        p.value()?;
        return Ok(WorkloadsField::NotArray);
    }
    let mut len = 0;
    let mut entries = Vec::new();
    p.array(|p| {
        let entry = if p.peek() == Some(b'{') {
            let mut ids = None;
            p.object(|p, key| {
                if key == "ids" {
                    let field = ids_field(p)?;
                    ids.get_or_insert(field);
                } else {
                    p.value()?;
                }
                Ok(())
            })?;
            WorkloadEntry::Object(ids)
        } else {
            p.value()?;
            WorkloadEntry::NotObject
        };
        if len < MAX_WORKLOADS {
            entries.push(entry);
        }
        len += 1;
        Ok(())
    })?;
    Ok(WorkloadsField::Array { len, entries })
}

impl RequestBody {
    /// Every field other than the typed `ids` and `workloads`.
    pub fn fields(&self) -> &Object {
        &self.fields
    }

    /// The required top-level `ids` array — [`parse_ids`] on the
    /// typed body.
    ///
    /// # Errors
    ///
    /// [`parse_ids`]'s 400s, byte for byte.
    pub fn ids(&self) -> Result<&[u32], ProtocolError> {
        checked_ids(self.ids.as_ref())
    }

    /// The workloads of a solve request — [`parse_workloads`] on the
    /// typed body.
    ///
    /// # Errors
    ///
    /// [`parse_workloads`]'s 400s, byte for byte.
    pub fn workloads(&self) -> Result<Vec<&[u32]>, ProtocolError> {
        if self.ids.is_some() {
            return Ok(vec![self.ids()?]);
        }
        let (len, entries) = match &self.workloads {
            None => {
                return Err(ProtocolError::bad_request(
                    "missing field \"workloads\" (or shorthand \"ids\")",
                ))
            }
            Some(WorkloadsField::NotArray) => {
                return Err(ProtocolError::bad_request(
                    "field \"workloads\" must be an array",
                ))
            }
            Some(WorkloadsField::Array { len, entries }) => (*len, entries),
        };
        if len == 0 {
            return Err(ProtocolError::bad_request(
                "field \"workloads\" must be non-empty",
            ));
        }
        if len > MAX_WORKLOADS {
            return Err(ProtocolError::bad_request(format!(
                "too many workloads: {len} (max {MAX_WORKLOADS})"
            )));
        }
        entries
            .iter()
            .enumerate()
            .map(|(i, entry)| match entry {
                WorkloadEntry::Object(ids) => checked_ids(ids.as_ref()).map_err(|e| {
                    ProtocolError::bad_request(format!("workloads[{i}]: {}", e.message))
                }),
                WorkloadEntry::NotObject => Err(ProtocolError::bad_request(format!(
                    "workloads[{i}] must be an object"
                ))),
            })
            .collect()
    }
}

/// [`parse_ids`]'s checks, in its order, on a typed `ids` member.
fn checked_ids(field: Option<&IdsField>) -> Result<&[u32], ProtocolError> {
    let ids = match field {
        None => return Err(ProtocolError::bad_request("missing field \"ids\"")),
        Some(IdsField::NotArray) => {
            return Err(ProtocolError::bad_request("field \"ids\" must be an array"))
        }
        Some(IdsField::Array(ids)) => ids,
    };
    if ids.len == 0 {
        return Err(ProtocolError::bad_request(
            "field \"ids\" must be non-empty",
        ));
    }
    if ids.len > MAX_ACCESSES {
        return Err(ProtocolError::bad_request(format!(
            "workload too large: {} accesses (max {MAX_ACCESSES})",
            ids.len
        )));
    }
    if let Some(i) = ids.first_invalid {
        return Err(ProtocolError::bad_request(format!(
            "ids[{i}] must be a u32 item id"
        )));
    }
    Ok(&ids.values)
}

/// The tiered-solve knobs of a solve request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierKnobs {
    /// Requested quality level.
    pub quality: Quality,
    /// Latency budget in microseconds, if the caller stated one.
    pub deadline_us: Option<u64>,
}

/// Parses the optional tiered-solve knobs (`quality`, `deadline_us`).
///
/// Returns `Ok(None)` when neither field is present — the request is a
/// legacy algorithm-addressed solve and must keep its exact historical
/// response shape. A `deadline_us` without `quality` implies
/// `"balanced"`.
///
/// # Errors
///
/// 400 on an unknown quality string, a malformed `deadline_us`, or a
/// request mixing `algorithm` with the tier knobs (the two addressing
/// schemes are mutually exclusive).
pub fn parse_tier_knobs(obj: &Object) -> Result<Option<TierKnobs>, ProtocolError> {
    let quality_raw = quality_field(obj)?;
    let deadline_us = deadline_field(obj, "deadline_us")?;
    if quality_raw.is_none() && deadline_us.is_none() {
        return Ok(None);
    }
    if !matches!(obj.get("algorithm"), None | Some(Value::Null)) {
        return Err(ProtocolError::bad_request(
            "\"algorithm\" cannot be combined with \"quality\"/\"deadline_us\" \
             (tier selection picks the solver)",
        ));
    }
    let quality = match quality_raw {
        None => Quality::Balanced,
        Some(s) => parse_quality(s)?,
    };
    Ok(Some(TierKnobs {
        quality,
        deadline_us,
    }))
}

/// Parses the optional session re-placement tier knobs (`quality`,
/// `replace_deadline_us`) of a session-create body. `(None, None)`
/// keeps the legacy hybrid re-placement solver; a
/// `replace_deadline_us` without `quality` implies `"balanced"`, like
/// `deadline_us` on `/solve`.
///
/// # Errors
///
/// 400 on an unknown quality string, a malformed deadline, or
/// `quality:"exact"` — a session's item set grows past
/// [`EXACT_PLAN_LIMIT`](dwm_core::anytime::EXACT_PLAN_LIMIT) at any
/// ingest, so exactness is not a promise a long-lived session can keep.
pub fn parse_session_knobs(obj: &Object) -> Result<(Option<Quality>, Option<u64>), ProtocolError> {
    let quality_raw = quality_field(obj)?;
    let deadline = deadline_field(obj, "replace_deadline_us")?;
    let quality = match quality_raw {
        None if deadline.is_some() => Some(Quality::Balanced),
        None => None,
        Some(s) => Some(parse_quality(s)?),
    };
    if quality == Some(Quality::Exact) {
        return Err(ProtocolError::bad_request(
            "sessions do not support quality \"exact\" (the item set can outgrow \
             the exact solver at any ingest); use \"best\"",
        ));
    }
    Ok((quality, deadline))
}

/// Parses the optional `topology` field of a solve or session-create
/// body. Absent (or `null`) means [`Topology::linear`] — the legacy
/// geometry, whose responses and cache keys stay byte-identical to
/// before the field existed.
///
/// # Errors
///
/// 400 on a non-string value or a spec outside the
/// `linear | ring | grid2d:<rows>x<cols> | pirm[:<window>]` grammar.
pub fn parse_topology(obj: &Object) -> Result<Topology, ProtocolError> {
    match obj.get("topology") {
        None | Some(Value::Null) => Ok(Topology::linear()),
        Some(Value::Str(s)) => Topology::parse(s)
            .map_err(|e| ProtocolError::bad_request(format!("field \"topology\": {e}"))),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field \"topology\" must be a string, got {}",
            other.type_name()
        ))),
    }
}

fn quality_field(obj: &Object) -> Result<Option<&str>, ProtocolError> {
    match obj.get("quality") {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.as_str())),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field \"quality\" must be a string, got {}",
            other.type_name()
        ))),
    }
}

fn parse_quality(s: &str) -> Result<Quality, ProtocolError> {
    Quality::parse(s).ok_or_else(|| {
        ProtocolError::bad_request(format!(
            "unknown quality {s:?} (expected \"fast\", \"balanced\", or \"best\")"
        ))
    })
}

fn deadline_field(obj: &Object, key: &str) -> Result<Option<u64>, ProtocolError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Num(n)) => n.as_u64().map(Some).ok_or_else(|| {
            ProtocolError::bad_request(format!("field {key:?} must be a nonnegative integer"))
        }),
        Some(other) => Err(ProtocolError::bad_request(format!(
            "field {key:?} must be a number, got {}",
            other.type_name()
        ))),
    }
}

/// Serializes an error as the canonical `{"error": …}` body.
pub fn error_body(message: &str) -> String {
    let mut obj = Object::new();
    obj.insert("error", Value::Str(message.to_owned()));
    Value::Obj(obj).to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwm_device::TrackTopology;

    fn obj(s: &str) -> Object {
        parse_body(s.as_bytes()).unwrap()
    }

    #[test]
    fn parses_workload_shorthand_and_array_forms() {
        let single = parse_workloads(&obj(r#"{"ids":[1,2,3]}"#)).unwrap();
        assert_eq!(single, vec![vec![1, 2, 3]]);
        let multi = parse_workloads(&obj(r#"{"workloads":[{"ids":[1]},{"ids":[2,2]}]}"#)).unwrap();
        assert_eq!(multi, vec![vec![1], vec![2, 2]]);
    }

    #[test]
    fn rejects_malformed_bodies_with_400() {
        assert_eq!(parse_body(b"not json").unwrap_err().status, 400);
        assert_eq!(parse_body(b"[1,2]").unwrap_err().status, 400);
        assert!(parse_workloads(&obj(r#"{}"#)).is_err());
        assert!(parse_workloads(&obj(r#"{"workloads":[]}"#)).is_err());
        assert!(parse_workloads(&obj(r#"{"workloads":[{"ids":[]}]}"#)).is_err());
        assert!(parse_workloads(&obj(r#"{"ids":[1,-2]}"#)).is_err());
        assert!(parse_workloads(&obj(r#"{"ids":["x"]}"#)).is_err());
    }

    #[test]
    fn typed_field_lookups_enforce_types_and_defaults() {
        let o = obj(r#"{"algorithm":"hybrid","seed":9,"bad":true}"#);
        assert_eq!(opt_str(&o, "algorithm", "x").unwrap(), "hybrid");
        assert_eq!(opt_str(&o, "absent", "x").unwrap(), "x");
        assert_eq!(opt_u64(&o, "seed", 1).unwrap(), 9);
        assert_eq!(opt_u64(&o, "absent", 1).unwrap(), 1);
        assert!(opt_str(&o, "seed", "x").is_err());
        assert!(opt_u64(&o, "algorithm", 1).is_err());
        assert!(opt_u64(&o, "bad", 1).is_err());
    }

    #[test]
    fn error_body_is_stable_json() {
        assert_eq!(error_body("nope"), r#"{"error":"nope"}"#);
    }

    #[test]
    fn tier_knobs_absent_means_legacy() {
        assert_eq!(
            parse_tier_knobs(&obj(r#"{"algorithm":"hybrid","ids":[1]}"#)).unwrap(),
            None
        );
        assert_eq!(parse_tier_knobs(&obj(r#"{"ids":[1]}"#)).unwrap(), None);
    }

    #[test]
    fn tier_knobs_parse_quality_and_deadline() {
        let k = parse_tier_knobs(&obj(r#"{"quality":"fast","ids":[1]}"#))
            .unwrap()
            .unwrap();
        assert_eq!(k.quality, Quality::Fast);
        assert_eq!(k.deadline_us, None);
        // deadline alone implies balanced.
        let k = parse_tier_knobs(&obj(r#"{"deadline_us":500,"ids":[1]}"#))
            .unwrap()
            .unwrap();
        assert_eq!(k.quality, Quality::Balanced);
        assert_eq!(k.deadline_us, Some(500));
        // Edge deadlines parse fine.
        let k = parse_tier_knobs(&obj(r#"{"quality":"best","deadline_us":0}"#))
            .unwrap()
            .unwrap();
        assert_eq!(k.deadline_us, Some(0));
        let k = parse_tier_knobs(&obj(r#"{"deadline_us":18446744073709551615}"#))
            .unwrap()
            .unwrap();
        assert_eq!(k.deadline_us, Some(u64::MAX));
    }

    #[test]
    fn session_knobs_reject_exact_quality() {
        let err = parse_session_knobs(&obj(r#"{"quality":"exact"}"#)).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("exact"), "{err:?}");
        // /solve still accepts it — only sessions refuse.
        let k = parse_tier_knobs(&obj(r#"{"quality":"exact","ids":[1]}"#))
            .unwrap()
            .unwrap();
        assert_eq!(k.quality, Quality::Exact);
    }

    #[test]
    fn topology_field_defaults_to_linear_and_rejects_garbage() {
        assert!(parse_topology(&obj(r#"{"ids":[1]}"#)).unwrap().is_linear());
        assert!(parse_topology(&obj(r#"{"topology":null}"#))
            .unwrap()
            .is_linear());
        assert!(parse_topology(&obj(r#"{"topology":"linear"}"#))
            .unwrap()
            .is_linear());
        let ring = parse_topology(&obj(r#"{"topology":"ring"}"#)).unwrap();
        assert_eq!(ring.canonical(), "ring");
        let grid = parse_topology(&obj(r#"{"topology":"grid2d:4x16"}"#)).unwrap();
        assert_eq!(grid.canonical(), "grid2d:4x16");
        for body in [
            r#"{"topology":"mobius"}"#,
            r#"{"topology":"grid2d:4"}"#,
            r#"{"topology":"grid2d:0x4"}"#,
            r#"{"topology":"pirm:0"}"#,
            r#"{"topology":7}"#,
        ] {
            let err = parse_topology(&obj(body)).unwrap_err();
            assert_eq!(err.status, 400, "{body} must 400, got {err:?}");
        }
    }

    #[test]
    fn tier_knobs_reject_bad_values_with_400() {
        for body in [
            r#"{"quality":"turbo"}"#,
            r#"{"quality":7}"#,
            r#"{"deadline_us":-3}"#,
            r#"{"deadline_us":"soon"}"#,
            r#"{"quality":"fast","algorithm":"hybrid"}"#,
            r#"{"deadline_us":100,"algorithm":"hybrid"}"#,
        ] {
            let err = parse_tier_knobs(&obj(body)).unwrap_err();
            assert_eq!(err.status, 400, "{body} must 400, got {err:?}");
        }
    }
}
