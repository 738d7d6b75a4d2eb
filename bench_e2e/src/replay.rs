//! The traced replay: per-layer numbers for a sample of a workload's
//! requests, taken in-process.
//!
//! Each sampled request runs three ways, in rotating order so cache
//! warmth favours none of them:
//!
//! 1. `Engine::handle` on a reference engine, untraced — the
//!    reference time `engine.handle_ns`;
//! 2. the same pipeline rebuilt from the public functions of each
//!    layer (protocol decode, trace normalize, graph build,
//!    fingerprint, cache lookup, solve, cost, render), with a span
//!    around every call. Its rendered body must equal the engine's
//!    byte for byte, which proves the spans time the work the engine
//!    does;
//! 3. `Cluster::handle` on a two-shard front, so `cluster.front_ns`
//!    is what the front adds over one engine.
//!
//! Spans live in memory and are written to
//! `target/bench-e2e/spans-<workload>.json` when the replay ends.

use std::sync::Arc;
use std::time::Instant;

use dwm_core::algorithms::standard_suite;
use dwm_core::anytime::{self, AnytimeSolver};
use dwm_core::{Placement, TopologyCost};
use dwm_device::{Topology, TrackTopology};
use dwm_foundation::json::{Number, Object, Value};
use dwm_foundation::net::{try_parse_request, Parsed, Request};
use dwm_graph::{fingerprint_topology, AccessGraph, CsrGraph};
use dwm_serve::cache::{CacheKey, CacheRecord, SolveCache};
use dwm_serve::engine::ANYTIME_ALGORITHM;
use dwm_serve::protocol::{
    opt_str, opt_u64, parse_body, parse_ids, parse_tier_knobs, parse_topology, parse_workloads,
};
use dwm_serve::{Cluster, Engine, EngineConfig, SessionConfig, SessionState};
use dwm_trace::Trace;

use crate::gate::{median, percentile};

/// Layers with a span per call, in pipeline order. Each reports
/// `<layer>_ns` (median self time per call), `<layer>_p99_ns`, and
/// `<layer>_per_req` (calls per replayed request; 0 where the
/// workload never enters the layer).
pub const LAYERS: [&str; 15] = [
    "net.parse",
    "protocol.decode",
    "trace.normalize",
    "graph.build",
    "graph.fingerprint",
    "graph.freeze",
    "cache.lookup",
    "core.solve",
    "core.cost",
    "render.result",
    "cache.insert",
    "render.clone",
    "render.compact",
    "session.ingest",
    "net.write",
];

/// The span covering one replayed request's engine work; every layer
/// span inside `Engine::handle` is its child.
const ENGINE: &str = "engine";

/// One timed interval, in ns since the replay began.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Layer name.
    name: &'static str,
    /// Start time.
    start: u64,
    /// End time.
    end: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Index of the replayed request.
    request: usize,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    request: usize,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    fn span<R>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The spans as a JSON array (`name`, `start_ns`, `end_ns`,
    /// `parent`, `request`; a span's id is its index).
    fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut o = Object::new();
                o.insert("name", Value::Str(s.name.into()));
                o.insert("start_ns", Value::Num(Number::U(s.start)));
                o.insert("end_ns", Value::Num(Number::U(s.end)));
                o.insert(
                    "parent",
                    s.parent
                        .map_or(Value::Null, |p| Value::Num(Number::U(p as u64))),
                );
                o.insert("request", Value::Num(Number::U(s.request as u64)));
                Value::Obj(o)
            })
            .collect();
        Value::Arr(spans).to_compact()
    }
}

/// What the replay feeds each request through.
pub enum Step {
    /// A `/solve` request.
    Solve(Request),
    /// A session ingest: `(session index, body)`.
    Ingest(usize, String),
}

/// State mirroring the reference engine's for the traced pipeline.
struct Mirror {
    cache: SolveCache,
    sessions: Vec<SessionState>,
    /// The reference engine's session ids, by session index.
    session_ids: Vec<String>,
}

/// Per-request timings of the three ways a request ran.
struct Row {
    handle: u64,
    cluster: u64,
    traced: u64,
    layers: u64,
}

/// The replay's per-layer metrics: `(name, value, unit)`.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Replays `steps` after `sessions` session creates, checks every
/// traced body against the engine's, writes the span file, and
/// returns the per-layer metrics.
///
/// # Errors
///
/// A traced body differing from the engine's, or a request the
/// engine refuses.
pub fn run(workload: &str, sessions: usize, steps: &[Step]) -> Result<Metrics, String> {
    let config = EngineConfig::default();
    let engine = Engine::with_config(config);
    let cluster = Cluster::new(2, config);
    let session_config = SessionConfig {
        window: crate::inputs::WINDOW,
        ..SessionConfig::default()
    };
    let mut mirror = Mirror {
        cache: SolveCache::new(config.cache_capacity),
        sessions: Vec::new(),
        session_ids: Vec::new(),
    };
    let create = Request::post(
        "/session",
        format!("{{\"window\":{}}}", crate::inputs::WINDOW),
    );
    for _ in 0..sessions {
        let resp = engine.handle(&create);
        let body = crate::check::object(&resp)?;
        let id = body
            .get("session")
            .and_then(Value::as_str)
            .ok_or("no session id")?;
        mirror.session_ids.push(id.to_owned());
        mirror.sessions.push(SessionState::new(session_config));
        if cluster.handle(&create).body != resp.body {
            return Err("cluster and engine disagree on a session create".into());
        }
    }

    let mut t = Tracer::new();
    let mut rows = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        t.request = i;
        let req = match step {
            Step::Solve(r) => r.clone(),
            Step::Ingest(k, body) => Request::post(
                &format!("/session/{}/accesses", mirror.session_ids[*k]),
                body.clone(),
            ),
        };
        let mut wire = Vec::with_capacity(128 + req.body.len());
        req.write_to(&mut wire)
            .expect("writing to a Vec cannot fail");
        let mut row = Row {
            handle: 0,
            cluster: 0,
            traced: 0,
            layers: 0,
        };
        let mut reference = None;
        let mut traced = None;
        for side in 0..3 {
            match (i + side) % 3 {
                0 => {
                    let t0 = Instant::now();
                    let resp = engine.handle(&req);
                    row.handle = t0.elapsed().as_nanos() as u64;
                    reference = Some(resp);
                }
                1 => {
                    let t0 = Instant::now();
                    cluster.handle(&req);
                    row.cluster = t0.elapsed().as_nanos() as u64;
                }
                _ => traced = Some(traced_request(&mut t, &mut mirror, &wire, step)?),
            }
        }
        let reference = reference.expect("side 0 ran");
        let (body, root) = traced.expect("side 2 ran");
        if !reference.is_success() {
            return Err(format!(
                "replay request {i} answered {}: {}",
                reference.status,
                String::from_utf8_lossy(&reference.body)
            ));
        }
        if body != reference.body {
            return Err(format!(
                "traced pipeline rendered a different body than Engine::handle for request {i}"
            ));
        }
        t.span("net.write", None, || {
            let mut out = Vec::with_capacity(256 + reference.body.len());
            reference
                .write_to(&mut out, false)
                .expect("writing to a Vec cannot fail");
            out
        });
        let s = &t.spans[root];
        row.traced = s.end - s.start;
        row.layers = t.spans[root + 1..]
            .iter()
            .filter(|c| c.parent == Some(root))
            .map(|c| c.end - c.start)
            .sum();
        rows.push(row);
    }

    write_spans(workload, &t);
    Ok(metrics(&t, &rows))
}

/// Parses the wire bytes and runs the traced pipeline. After the
/// engine span closes, each workload's graph is rebuilt untimed and
/// frozen standalone, so the engine span keeps the engine's own
/// allocation and teardown. Returns the rendered body and the engine
/// span's index.
fn traced_request(
    t: &mut Tracer,
    mirror: &mut Mirror,
    wire: &[u8],
    step: &Step,
) -> Result<(Vec<u8>, usize), String> {
    let req = match t.span("net.parse", None, || try_parse_request(wire)) {
        Ok(Parsed::Complete(req, _)) => req,
        _ => return Err("request wire bytes do not parse".into()),
    };
    let root = t.open(ENGINE, None);
    let (body, traces) = match step {
        Step::Solve(_) => solve(t, root, &mirror.cache, &req)?,
        Step::Ingest(k, _) => {
            let (state, id) = (&mut mirror.sessions[*k], &mirror.session_ids[*k]);
            (ingest(t, root, state, id, &req)?, Vec::new())
        }
    };
    t.close(root);
    for trace in &traces {
        let graph = AccessGraph::from_trace(trace);
        t.span("graph.freeze", None, || CsrGraph::freeze(&graph));
    }
    Ok((body, root))
}

/// `Engine::handle`'s `/solve` pipeline (legacy and tiered forms),
/// one span per layer call. Returns the body and each workload's
/// normalized trace.
fn solve(
    t: &mut Tracer,
    root: usize,
    cache: &SolveCache,
    req: &Request,
) -> Result<(Vec<u8>, Vec<Trace>), String> {
    let p = Some(root);
    let err = |e: dwm_serve::protocol::ProtocolError| e.message;
    let (knobs, algorithm, algo, seed, topology, workloads) =
        t.span("protocol.decode", p, || {
            let obj = parse_body(&req.body).map_err(err)?;
            let knobs = parse_tier_knobs(&obj).map_err(err)?;
            let algorithm = match knobs {
                Some(_) => ANYTIME_ALGORITHM.to_owned(),
                None => opt_str(&obj, "algorithm", "hybrid").map_err(err)?,
            };
            let seed = opt_u64(&obj, "seed", 1).map_err(err)?;
            let topology = parse_topology(&obj).map_err(err)?;
            // The legacy form validates its algorithm name up front.
            let algo = match knobs {
                Some(_) => None,
                None => Some(
                    standard_suite(seed)
                        .into_iter()
                        .find(|a| a.name() == algorithm)
                        .ok_or_else(|| format!("unknown algorithm {algorithm:?}"))?,
                ),
            };
            let workloads = parse_workloads(&obj).map_err(err)?;
            Ok::<_, String>((knobs, algorithm, algo, seed, topology, workloads))
        })?;
    if knobs.is_some_and(|k| k.deadline_us.is_some() || k.quality == anytime::Quality::Exact) {
        return Err("the replay models balanced/best tiered solves only".into());
    }

    let mut labels = Vec::with_capacity(workloads.len());
    let mut results: Vec<Option<Arc<Value>>> = Vec::with_capacity(workloads.len());
    let mut misses = Vec::new();
    let mut graphs = Vec::with_capacity(workloads.len());
    let mut traces = Vec::with_capacity(workloads.len());
    for ids in &workloads {
        let trace = t.span("trace.normalize", p, || {
            Trace::from_ids(ids.iter().copied()).normalize()
        });
        let graph = t.span("graph.build", p, || AccessGraph::from_trace(&trace));
        traces.push(trace);
        let key = CacheKey {
            fingerprint: t.span("graph.fingerprint", p, || {
                fingerprint_topology(&graph, &topology.canonical())
            }),
            algorithm: algorithm.clone(),
            seed,
        };
        match t.span("cache.lookup", p, || cache.get(&key)) {
            Some(record) => {
                labels.push(Some(match knobs {
                    Some(_) => cache_label("hit", &record),
                    None => Value::Str("hit".into()),
                }));
                results.push(Some(record.value));
            }
            None => {
                labels.push(None);
                results.push(None);
                misses.push((results.len() - 1, key, graphs.len()));
            }
        }
        graphs.push(graph);
    }

    for (slot, key, g) in misses {
        let graph = &graphs[g];
        let (placement, tier, solver) = match (knobs, &algo) {
            (Some(k), _) => {
                let plan = anytime::plan(k.quality, None, graph.num_items(), graph.num_edges());
                let outcome = t.span("core.solve", p, || {
                    AnytimeSolver::new(seed).solve(graph, plan.tier, plan.passes)
                });
                (
                    outcome.placement,
                    outcome.tier.index(),
                    outcome.solver.to_owned(),
                )
            }
            (None, Some(algo)) => {
                let placement = t.span("core.solve", p, || algo.place(graph));
                (placement, 0, algorithm.clone())
            }
            (None, None) => unreachable!("the legacy form resolved its algorithm"),
        };
        let n = graph.num_items();
        let (naive, cost) = t.span("core.cost", p, || {
            let model = TopologyCost::single_port(topology, n);
            (
                model.graph_cost(&Placement::identity(n), graph),
                model.graph_cost(&placement, graph),
            )
        });
        let value = Arc::new(t.span("render.result", p, || {
            result_object(graph, &key, &placement, naive, cost, &topology)
        }));
        let record = CacheRecord::fresh(Arc::clone(&value), cost, tier, solver);
        labels[slot] = Some(match knobs {
            Some(_) => cache_label("miss", &record),
            None => Value::Str("miss".into()),
        });
        t.span("cache.insert", p, || cache.insert(key, record));
        results[slot] = Some(value);
    }

    let body = t.span("render.clone", p, || {
        let mut body = Object::new();
        body.insert(
            "cache",
            Value::Arr(
                labels
                    .into_iter()
                    .map(|l| l.expect("every workload labeled"))
                    .collect(),
            ),
        );
        body.insert(
            "results",
            Value::Arr(
                results
                    .into_iter()
                    .map(|r| (*r.expect("every workload resolved")).clone())
                    .collect(),
            ),
        );
        Value::Obj(body)
    });
    let bytes = t.span("render.compact", p, || body.to_compact().into_bytes());
    Ok((bytes, traces))
}

/// The `/session/{id}/accesses` pipeline, one span per layer call.
fn ingest(
    t: &mut Tracer,
    root: usize,
    state: &mut SessionState,
    session_id: &str,
    req: &Request,
) -> Result<Vec<u8>, String> {
    let p = Some(root);
    let ids = t
        .span("protocol.decode", p, || {
            parse_body(&req.body).and_then(|obj| parse_ids(&obj))
        })
        .map_err(|e| e.message)?;
    let report = t.span("session.ingest", p, || state.ingest(&ids));
    let body = t.span("render.result", p, || {
        let u = |v: u64| Value::Num(Number::U(v));
        let mut body = Object::new();
        body.insert("session", Value::Str(session_id.to_owned()));
        body.insert("accepted", u(report.accepted));
        body.insert("new_items", u(report.new_items));
        body.insert("items", u(state.num_items() as u64));
        body.insert("accesses", u(state.totals().accesses));
        body.insert("windows_completed", u(report.windows_completed));
        body.insert("phase_changes", u(report.phase_changes));
        body.insert("replacements", u(report.replacements));
        body.insert("suppressed", u(report.suppressed));
        body.insert("refreezes", u(report.refreezes));
        body.insert("placement_version", u(state.placement_version()));
        Value::Obj(body)
    });
    Ok(t.span("render.compact", p, || body.to_compact().into_bytes()))
}

/// The per-workload result object, field for field as the engine
/// renders it.
fn result_object(
    graph: &AccessGraph,
    key: &CacheKey,
    placement: &Placement,
    naive: u64,
    cost: u64,
    topology: &Topology,
) -> Value {
    let reduction = if naive > 0 {
        ((naive - naive.min(cost)) as f64) * 100.0 / naive as f64
    } else {
        0.0
    };
    let mut obj = Object::new();
    obj.insert("fingerprint", Value::Str(key.fingerprint.to_hex()));
    obj.insert("algorithm", Value::Str(key.algorithm.clone()));
    obj.insert("seed", Value::Num(Number::U(key.seed)));
    if !topology.is_linear() {
        obj.insert("topology", Value::Str(topology.canonical()));
    }
    obj.insert("items", Value::Num(Number::U(graph.num_items() as u64)));
    obj.insert("edges", Value::Num(Number::U(graph.num_edges() as u64)));
    obj.insert("naive_cost", Value::Num(Number::U(naive)));
    obj.insert("cost", Value::Num(Number::U(cost)));
    obj.insert("reduction_percent", Value::Num(Number::F(reduction)));
    obj.insert(
        "placement",
        Value::Arr(
            placement
                .offsets()
                .iter()
                .map(|&o| Value::Num(Number::U(o as u64)))
                .collect(),
        ),
    );
    Value::Obj(obj)
}

/// A tiered solve's `cache` label, as the engine renders it.
fn cache_label(status: &str, record: &CacheRecord) -> Value {
    let mut obj = Object::new();
    obj.insert("status", Value::Str(status.into()));
    obj.insert("tier", Value::Num(Number::U(u64::from(record.tier))));
    obj.insert("solver", Value::Str(record.solver.clone()));
    obj.insert("version", Value::Num(Number::U(record.version)));
    obj.insert("upgrades", Value::Num(Number::U(record.upgrades)));
    Value::Obj(obj)
}

fn metrics(t: &Tracer, rows: &[Row]) -> Metrics {
    let requests = rows.len().max(1) as f64;
    let mut out = Metrics::new();
    for layer in LAYERS {
        // Layer spans are leaves, so a span's self time is its length.
        let mut own: Vec<u64> = t
            .spans
            .iter()
            .filter(|s| s.name == layer)
            .map(|s| s.end - s.start)
            .collect();
        own.sort_unstable();
        let (p50, p99) = if own.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&own, 0.5) as f64, percentile(&own, 0.99) as f64)
        };
        out.push((format!("{layer}_ns"), p50, "ns"));
        out.push((format!("{layer}_p99_ns"), p99, "ns"));
        out.push((
            format!("{layer}_per_req"),
            own.len() as f64 / requests,
            "count/req",
        ));
    }
    let mut handle: Vec<u64> = rows.iter().map(|r| r.handle).collect();
    handle.sort_unstable();
    let handle_p50 = percentile(&handle, 0.5) as f64;
    out.push(("engine.handle_ns".into(), handle_p50, "ns"));
    out.push((
        "engine.handle_p99_ns".into(),
        percentile(&handle, 0.99) as f64,
        "ns",
    ));
    let unattributed: Vec<f64> = rows
        .iter()
        .map(|r| r.handle as f64 - r.layers as f64)
        .collect();
    out.push(("engine.unattributed_ns".into(), median(&unattributed), "ns"));
    let traced: Vec<f64> = rows.iter().map(|r| r.traced as f64).collect();
    out.push((
        "trace.overhead_pct".into(),
        (median(&traced) - handle_p50) * 100.0 / handle_p50,
        "%",
    ));
    let front: Vec<f64> = rows
        .iter()
        .map(|r| r.cluster as f64 - r.handle as f64)
        .collect();
    out.push(("cluster.front_ns".into(), median(&front), "ns"));
    out
}

fn write_spans(workload: &str, t: &Tracer) {
    let dir = std::path::Path::new("target").join("bench-e2e");
    let path = dir.join(format!("spans-{workload}.json"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, t.to_json()))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
