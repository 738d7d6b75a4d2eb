//! Request handling: routing, the solve pipeline, and response bodies.
//!
//! The engine is transport-agnostic — it maps one [`Request`] to
//! one [`Response`] and can be driven directly (the bench suite
//! does) or behind the [`crate::server`] TCP daemon. All state is
//! internally synchronized, so one `Engine` serves every worker thread.
//!
//! # The solve pipeline
//!
//! `/solve` has two request forms: the legacy form names a suite
//! `algorithm`, and the tiered form sets `quality` and/or `deadline_us`.
//! Both run through one pipeline:
//!
//! 1. **Parse.** The body is decoded with [`decode_body`], which reads
//!    every `ids` array straight into `u32`s (no JSON value per id) and
//!    keeps the other fields for the knob parsers. The request-level
//!    fields become one plan: the legacy form's suite algorithm,
//!    resolved once per request, or the tiered form's knobs.
//! 2. **Admit.** Every workload is admitted before any cache lookup, so
//!    a refused request leaves the cache and the solve counters as they
//!    were. Its ids are condensed into a [`GraphDigest`]: dense
//!    first-appearance ids (the `Trace::normalize` numbering),
//!    frequencies and sorted weighted adjacency rows. The track topology
//!    must hold the workload. In the tiered form, [`anytime::plan`] maps
//!    the knobs and graph size to a foreground tier — a *pure function
//!    of the request*, never of measured wall-clock, so tier choice is
//!    deterministic across machines and thread counts — and a workload
//!    whose cheapest admissible tier misses `deadline_us` by its modeled
//!    latency refuses the request with 503.
//! 3. **Look up.** The digest is hashed (equal bit for bit to
//!    [`fn@dwm_graph::fingerprint`] of the same graph), with the
//!    request's track topology folded in (the identity for linear —
//!    see [`fn@dwm_graph::fingerprint_retag`]); the
//!    `(fingerprint, algorithm, seed)` triple keys the [`SolveCache`],
//!    where the algorithm is the suite name, or the tier-independent
//!    [`ANYTIME_ALGORITHM`] for the tiered form. The cluster router keys
//!    on the same function, `workload_key`. Only `quality:"exact"`
//!    filters what a hit may serve: it takes only a tier-3 record.
//! 4. **Solve.** The misses of one request are batched onto the [`par`]
//!    pool — results come back in input order, so the response body is
//!    independent of `DWM_THREADS`. Each miss turns its digest into an
//!    [`AccessGraph`](dwm_graph::AccessGraph), is solved by the suite
//!    algorithm or at its planned tier, and is rendered to compact JSON
//!    once; background upgrades run the same step.
//! 5. **Insert and answer.** Misses are cached as those bytes, and every
//!    body, hit or miss, splices the rendered results into
//!    `{"cache":[…],"results":[…]}`. A legacy label is a bare
//!    `"hit"`/`"miss"`; a tiered label is an object with the record's
//!    tier, solver, version and upgrade count. A tiered miss counts its
//!    tier, and a request with `deadline_us` counts as met or missed.
//!    Per-request wall-clock time is attached as the `x-dwm-elapsed-us`
//!    header, never in the body, keeping bodies a pure function of the
//!    request.
//!
//! # Background upgrades
//!
//! `quality:"best"` enqueues a tier-2 re-solve of each workload whose
//! record is below tier 2, on an idle-priority [`par::IdleLane`] that
//! only runs while no request is in flight and rewrites the cache
//! record in place when strictly better. An upgrade is observable only
//! through the response's versioned `cache` labels — for a fixed
//! record version, bodies stay byte-deterministic.
//!
//! # Observability
//!
//! Each engine owns a private [`obs::Registry`] holding its request
//! counters, request-latency histogram, and scrape-time callbacks
//! over the [`SolveCache`]'s own counters — so `/stats` and
//! `GET /metrics` are two renderings of one source of truth and can
//! never disagree. `/metrics` additionally renders the
//! [`obs::global`] registry (solver, simulator, and transport
//! metrics) in Prometheus text exposition format. The request
//! counters use the gate-bypassing `add_always` path so `/stats`
//! stays correct even with `DWM_OBS=0`; everything else (latency
//! histogram, solver metrics) respects the knob. See
//! `docs/OBSERVABILITY.md` for the full metric catalog.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dwm_core::algorithms::standard_suite;
use dwm_core::anytime::{self, AnytimeSolver, Quality, Tier, TierPlan};
use dwm_core::{Placement, PlacementAlgorithm, TopologyCost};
use dwm_device::{DeviceConfig, PortLayout, Topology, TopologyKind, TrackTopology};
use dwm_foundation::json::{Number, Object, ToJson, Value};
use dwm_foundation::net::{Request, Response};
use dwm_foundation::obs::{self, FnKind};
use dwm_foundation::par;
use dwm_graph::{fingerprint_retag, Fingerprint, GraphDigest};
use dwm_sim::SpmSimulator;
use dwm_trace::Trace;

use crate::cache::{CacheKey, CacheRecord, SolveCache};
use crate::protocol::{
    decode_body, error_body, opt_f64, opt_str, opt_u64, parse_body, parse_session_knobs,
    parse_tier_knobs, parse_topology, parse_usize_array, ProtocolError, TierKnobs,
};
use crate::session::{SessionConfig, SessionState, SessionTable};

/// Algorithm name under which tiered (quality/deadline-addressed)
/// solves are cached. Tier-independent on purpose: the background
/// upgrade lane rewrites the record in place, so repeat callers pick
/// up the best placement any tier has produced so far.
pub const ANYTIME_ALGORITHM: &str = "anytime";

/// The header carrying per-request wall-clock time in microseconds.
pub const ELAPSED_HEADER: &str = "x-dwm-elapsed-us";

/// Capacity and lifetime knobs of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Solve-cache entry budget (0 disables memoization).
    pub cache_capacity: usize,
    /// Session budget (0 = unlimited); the LRU session of a full
    /// shard is evicted to admit a new one.
    pub session_capacity: usize,
    /// Idle time after which a session expires (zero = never).
    pub session_ttl: Duration,
    /// Whether `quality:"best"` solves enqueue background tier-2
    /// upgrades on the idle lane (`--no-upgrades` turns this off).
    pub upgrades: bool,
    /// Cluster shard index, if this engine is one shard of a
    /// `--cluster N` daemon. Stamps every metric in the engine's
    /// registry with a `shard="i"` label so N shard registries render
    /// side by side in one `/metrics` scrape.
    pub shard: Option<u32>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 1024,
            session_capacity: 64,
            session_ttl: Duration::from_secs(600),
            upgrades: true,
            shard: None,
        }
    }
}

/// Shared request-handling state: the solve cache, the session table,
/// the engine's metric registry, and handles to its counters.
pub struct Engine {
    cache: Arc<SolveCache<Arc<str>>>,
    sessions: Arc<SessionTable>,
    registry: Arc<obs::Registry>,
    /// Idle-priority lane running background tier-2 upgrades; `None`
    /// when upgrades are disabled.
    lane: Option<Arc<par::IdleLane>>,
    /// Keys with an upgrade queued or running, so one workload never
    /// occupies more than one lane slot.
    inflight_upgrades: Arc<Mutex<HashSet<CacheKey>>>,
    requests: Arc<obs::Counter>,
    solves: Arc<obs::Counter>,
    evaluates: Arc<obs::Counter>,
    simulates: Arc<obs::Counter>,
    session_creates: Arc<obs::Counter>,
    session_ingests: Arc<obs::Counter>,
    session_reads: Arc<obs::Counter>,
    session_closes: Arc<obs::Counter>,
    errors: Arc<obs::Counter>,
    tier_solves: [Arc<obs::Counter>; 4],
    topology_solves: [Arc<obs::Counter>; 4],
    upgrades_enqueued: Arc<obs::Counter>,
    deadline_met: Arc<obs::Counter>,
    deadline_missed: Arc<obs::Counter>,
    deadline_infeasible: Arc<obs::Counter>,
    latency_ns: Arc<obs::Histogram>,
    ingest_latency_ns: Arc<obs::Histogram>,
}

impl Engine {
    /// Creates an engine whose solve cache holds about
    /// `cache_capacity` entries (0 disables memoization), with default
    /// session capacity and TTL.
    pub fn new(cache_capacity: usize) -> Self {
        Engine::with_config(EngineConfig {
            cache_capacity,
            ..EngineConfig::default()
        })
    }

    /// Creates an engine with explicit capacity and lifetime knobs.
    pub fn with_config(config: EngineConfig) -> Self {
        // Solver/simulator/graph/pool metrics live in the global
        // registry; touching them here means a scrape on a fresh daemon
        // already lists every family the first solve will move.
        dwm_core::register_obs_metrics();
        dwm_graph::register_obs_metrics();
        dwm_sim::register_obs_metrics();
        par::register_obs_metrics();

        let cache = Arc::new(SolveCache::new(config.cache_capacity));
        let sessions = Arc::new(SessionTable::new(
            config.session_capacity,
            config.session_ttl,
        ));
        let registry = Arc::new(match config.shard {
            Some(shard) => obs::Registry::with_labels(&[("shard", &shard.to_string())]),
            None => obs::Registry::new(),
        });
        let endpoint = |ep: &str| {
            registry.counter_with(
                "dwm_serve_endpoint_requests_total",
                &[("endpoint", ep)],
                "Requests dispatched per endpoint",
            )
        };
        let lane = config.upgrades.then(|| Arc::new(par::IdleLane::new()));
        let tier_counter = |tier: &str| {
            registry.counter_with(
                "dwm_serve_tier_solves_total",
                &[("tier", tier)],
                "Foreground tiered solves per tier (cache misses only)",
            )
        };
        let topology_counter = |kind: TopologyKind| {
            registry.counter_with(
                "dwm_serve_topology_solves_total",
                &[("topology", kind.label())],
                "Workloads solved per track topology (hits and misses)",
            )
        };
        let engine = Engine {
            requests: registry.counter(
                "dwm_serve_requests_total",
                "Requests handled by this engine (any endpoint, any status)",
            ),
            solves: endpoint("solve"),
            evaluates: endpoint("evaluate"),
            simulates: endpoint("simulate"),
            session_creates: endpoint("session_create"),
            session_ingests: endpoint("session_ingest"),
            session_reads: endpoint("session_read"),
            session_closes: endpoint("session_close"),
            errors: registry.counter(
                "dwm_serve_errors_total",
                "Requests answered with an error status",
            ),
            tier_solves: [
                tier_counter("0"),
                tier_counter("1"),
                tier_counter("2"),
                tier_counter("3"),
            ],
            // Indexed by `TopologyKind::index()` (stable label order).
            topology_solves: TopologyKind::ALL.map(topology_counter),
            upgrades_enqueued: registry.counter(
                "dwm_serve_upgrades_enqueued_total",
                "Background tier-2 upgrades submitted to the idle lane",
            ),
            deadline_met: registry.counter(
                "dwm_serve_deadline_met_total",
                "Tiered solves whose wall-clock beat the caller's deadline_us",
            ),
            deadline_missed: registry.counter(
                "dwm_serve_deadline_missed_total",
                "Tiered solves whose wall-clock exceeded the caller's deadline_us",
            ),
            deadline_infeasible: registry.counter(
                "dwm_serve_deadline_infeasible_total",
                "Tiered solves rejected with 503 because no admissible tier fits deadline_us",
            ),
            latency_ns: registry.histogram(
                "dwm_serve_request_latency_ns",
                "Wall-clock nanoseconds per request, measured inside the engine",
            ),
            ingest_latency_ns: registry.histogram(
                "dwm_serve_session_ingest_latency_ns",
                "Wall-clock nanoseconds per session ingest, measured inside the engine",
            ),
            cache: Arc::clone(&cache),
            sessions: Arc::clone(&sessions),
            registry: Arc::clone(&registry),
            lane,
            inflight_upgrades: Arc::new(Mutex::new(HashSet::new())),
        };
        // Cache metrics are scrape-time callbacks over the cache's own
        // counters — /stats and /metrics read the same atomics.
        let cache_fn = |name: &str, help: &str, kind, read: fn(&SolveCache<Arc<str>>) -> u64| {
            let cache = Arc::clone(&cache);
            engine
                .registry
                .register_fn(name, help, kind, move || read(&cache));
        };
        cache_fn(
            "dwm_serve_cache_hits_total",
            "Solve-cache lookups answered from memory",
            FnKind::Counter,
            |c| c.stats().hits,
        );
        cache_fn(
            "dwm_serve_cache_misses_total",
            "Solve-cache lookups that required a solve",
            FnKind::Counter,
            |c| c.stats().misses,
        );
        cache_fn(
            "dwm_serve_cache_evictions_total",
            "Solve-cache entries evicted to stay within capacity",
            FnKind::Counter,
            |c| c.stats().evictions,
        );
        cache_fn(
            "dwm_serve_cache_entries",
            "Solve-cache entries currently resident",
            FnKind::Gauge,
            |c| c.stats().entries,
        );
        cache_fn(
            "dwm_serve_cache_bytes",
            "Rendered result bytes resident in the solve cache",
            FnKind::Gauge,
            |c| c.stats().bytes,
        );
        cache_fn(
            "dwm_serve_cache_capacity",
            "Solve-cache entry budget (0 disables memoization)",
            FnKind::Gauge,
            |c| c.stats().capacity,
        );
        cache_fn(
            "dwm_serve_upgrades_applied_total",
            "Background upgrades that strictly improved a cached record",
            FnKind::Counter,
            |c| c.stats().upgrades_applied,
        );
        cache_fn(
            "dwm_serve_upgrades_discarded_total",
            "Background upgrades discarded (not strictly better, or record gone)",
            FnKind::Counter,
            |c| c.stats().upgrades_discarded,
        );
        if let Some(lane) = &engine.lane {
            let lane = Arc::clone(lane);
            engine.registry.register_fn(
                "dwm_serve_upgrade_queue_depth",
                "Background upgrades queued or running on the idle lane",
                FnKind::Gauge,
                move || lane.pending() as u64,
            );
        }
        // Session metrics follow the same pattern: scrape-time
        // callbacks over the table's own atomics, so /stats and
        // /metrics can never disagree.
        let session_fn = |name: &str, help: &str, kind, read: fn(&SessionTable) -> u64| {
            let sessions = Arc::clone(&sessions);
            engine
                .registry
                .register_fn(name, help, kind, move || read(&sessions));
        };
        session_fn(
            "dwm_serve_sessions_active",
            "Streaming sessions currently resident",
            FnKind::Gauge,
            |s| s.active() as u64,
        );
        session_fn(
            "dwm_serve_sessions_capacity",
            "Session budget (0 = unlimited)",
            FnKind::Gauge,
            |s| s.stats().capacity,
        );
        session_fn(
            "dwm_serve_sessions_created_total",
            "Sessions ever created",
            FnKind::Counter,
            |s| s.stats().created,
        );
        session_fn(
            "dwm_serve_sessions_closed_total",
            "Sessions closed by DELETE",
            FnKind::Counter,
            |s| s.stats().closed,
        );
        session_fn(
            "dwm_serve_sessions_expired_total",
            "Sessions dropped by TTL expiry",
            FnKind::Counter,
            |s| s.stats().expired,
        );
        session_fn(
            "dwm_serve_sessions_evicted_total",
            "Sessions evicted to stay within capacity",
            FnKind::Counter,
            |s| s.stats().evicted,
        );
        session_fn(
            "dwm_serve_session_accesses_total",
            "Accesses ingested across all sessions",
            FnKind::Counter,
            |s| s.stats().accesses,
        );
        session_fn(
            "dwm_serve_session_windows_total",
            "Decision windows completed across all sessions",
            FnKind::Counter,
            |s| s.stats().windows,
        );
        session_fn(
            "dwm_serve_session_phase_changes_total",
            "Confirmed phase changes across all sessions",
            FnKind::Counter,
            |s| s.stats().phase_changes,
        );
        session_fn(
            "dwm_serve_session_replacements_total",
            "Re-placements adopted across all sessions",
            FnKind::Counter,
            |s| s.stats().replacements,
        );
        session_fn(
            "dwm_serve_session_suppressed_total",
            "Re-placements suppressed by the migration rule",
            FnKind::Counter,
            |s| s.stats().suppressed,
        );
        session_fn(
            "dwm_serve_session_refreezes_total",
            "Delta-graph refreezes across all sessions",
            FnKind::Counter,
            |s| s.stats().refreezes,
        );
        session_fn(
            "dwm_serve_session_access_shifts_total",
            "Shifts served under live session placements",
            FnKind::Counter,
            |s| s.stats().access_shifts,
        );
        session_fn(
            "dwm_serve_session_naive_shifts_total",
            "Shifts the identity baseline would have served",
            FnKind::Counter,
            |s| s.stats().naive_shifts,
        );
        session_fn(
            "dwm_serve_session_migration_shifts_total",
            "Migration shifts billed across all sessions",
            FnKind::Counter,
            |s| s.stats().migration_shifts,
        );
        engine
    }

    /// The session table (exposed for stats and load harnesses).
    pub fn sessions(&self) -> &SessionTable {
        &self.sessions
    }

    /// The solve cache (exposed for stats and priming in benches).
    pub fn cache(&self) -> &SolveCache<Arc<str>> {
        &self.cache
    }

    /// This engine's private metric registry (request and cache
    /// metrics; solver metrics live in [`obs::global`]).
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// Handles one request, timing it into [`ELAPSED_HEADER`].
    pub fn handle(&self, req: &Request) -> Response {
        let started = Instant::now();
        // Mark the request as foreground work for its whole duration:
        // the idle upgrade lane defers while any request is in flight,
        // so background tier-2 solves never steal foreground cycles.
        let _fg = par::enter_foreground();
        // `add_always`: these counters back /stats, which must keep
        // counting even with DWM_OBS=0.
        self.requests.inc_always();
        let result = self.route(req);
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                self.errors.inc_always();
                Response::json(e.status, error_body(&e.message))
            }
        };
        let elapsed = started.elapsed();
        self.latency_ns.record(elapsed.as_nanos() as u64);
        response.with_header(ELAPSED_HEADER, elapsed.as_micros().to_string())
    }

    fn route(&self, req: &Request) -> Result<Response, ProtocolError> {
        if let Some(rest) = req.path.strip_prefix("/session") {
            if rest.is_empty() || rest.starts_with('/') {
                return self.route_session(req, rest);
            }
        }
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/health") => Ok(self.health()),
            ("GET", "/stats") => Ok(Response::json(200, self.stats().to_compact())),
            ("GET", "/metrics") => Ok(self.metrics_response()),
            ("POST", "/solve") => {
                self.solves.inc_always();
                self.solve(req)
            }
            ("POST", "/evaluate") => {
                self.evaluates.inc_always();
                self.evaluate(req)
            }
            ("POST", "/simulate") => {
                self.simulates.inc_always();
                self.simulate(req)
            }
            (_, "/health" | "/stats" | "/metrics" | "/solve" | "/evaluate" | "/simulate") => {
                Err(ProtocolError {
                    status: 405,
                    message: format!("method {} not allowed for {}", req.method, req.path),
                })
            }
            (_, path) => Err(ProtocolError {
                status: 404,
                message: format!("unknown path {path}"),
            }),
        }
    }

    fn health(&self) -> Response {
        let mut obj = Object::new();
        obj.insert("status", Value::Str("ok".into()));
        obj.insert("service", Value::Str("dwm-serve".into()));
        Response::json(200, Value::Obj(obj).to_compact())
    }

    /// The engine's `/stats` object: request, cache, tier, topology,
    /// upgrade, deadline and session counters. Reading it is not a
    /// request, so the cluster front builds its per-shard objects from
    /// it without moving any shard's counters.
    pub fn stats(&self) -> Value {
        let cache = self.cache.stats();
        let mut c = Object::new();
        c.insert("hits", Value::Num(Number::U(cache.hits)));
        c.insert("misses", Value::Num(Number::U(cache.misses)));
        c.insert("entries", Value::Num(Number::U(cache.entries)));
        c.insert("bytes", Value::Num(Number::U(cache.bytes)));
        c.insert("evictions", Value::Num(Number::U(cache.evictions)));
        c.insert("capacity", Value::Num(Number::U(cache.capacity)));
        c.insert(
            "upgrades_applied",
            Value::Num(Number::U(cache.upgrades_applied)),
        );
        c.insert(
            "upgrades_discarded",
            Value::Num(Number::U(cache.upgrades_discarded)),
        );
        let t = self.sessions.stats();
        let mut s = Object::new();
        s.insert("active", Value::Num(Number::U(t.active)));
        s.insert("capacity", Value::Num(Number::U(t.capacity)));
        s.insert("created", Value::Num(Number::U(t.created)));
        s.insert("closed", Value::Num(Number::U(t.closed)));
        s.insert("expired", Value::Num(Number::U(t.expired)));
        s.insert("evicted", Value::Num(Number::U(t.evicted)));
        s.insert("accesses", Value::Num(Number::U(t.accesses)));
        s.insert("windows", Value::Num(Number::U(t.windows)));
        s.insert("phase_changes", Value::Num(Number::U(t.phase_changes)));
        s.insert("replacements", Value::Num(Number::U(t.replacements)));
        s.insert("suppressed", Value::Num(Number::U(t.suppressed)));
        s.insert("refreezes", Value::Num(Number::U(t.refreezes)));
        s.insert("access_shifts", Value::Num(Number::U(t.access_shifts)));
        s.insert("naive_shifts", Value::Num(Number::U(t.naive_shifts)));
        s.insert(
            "migration_shifts",
            Value::Num(Number::U(t.migration_shifts)),
        );
        let mut obj = Object::new();
        let count = |c: &obs::Counter| Value::Num(Number::U(c.value()));
        obj.insert("requests", count(&self.requests));
        obj.insert("solves", count(&self.solves));
        obj.insert("evaluates", count(&self.evaluates));
        obj.insert("simulates", count(&self.simulates));
        obj.insert("errors", count(&self.errors));
        obj.insert("cache", Value::Obj(c));
        let mut tiers = Object::new();
        for (i, counter) in self.tier_solves.iter().enumerate() {
            tiers.insert(format!("tier{i}"), count(counter));
        }
        obj.insert("tiers", Value::Obj(tiers));
        let mut topo = Object::new();
        for (kind, counter) in TopologyKind::ALL.iter().zip(&self.topology_solves) {
            topo.insert(kind.label(), count(counter));
        }
        obj.insert("topologies", Value::Obj(topo));
        let mut u = Object::new();
        u.insert("enqueued", count(&self.upgrades_enqueued));
        u.insert("applied", Value::Num(Number::U(cache.upgrades_applied)));
        u.insert("discarded", Value::Num(Number::U(cache.upgrades_discarded)));
        u.insert(
            "queue_depth",
            Value::Num(Number::U(self.upgrade_queue_depth() as u64)),
        );
        obj.insert("upgrades", Value::Obj(u));
        let mut d = Object::new();
        d.insert("met", count(&self.deadline_met));
        d.insert("missed", count(&self.deadline_missed));
        d.insert("infeasible", count(&self.deadline_infeasible));
        obj.insert("deadline", Value::Obj(d));
        obj.insert("sessions", Value::Obj(s));
        Value::Obj(obj)
    }

    fn metrics_response(&self) -> Response {
        let text = obs::render_prometheus(&[&self.registry, obs::global()]);
        Response {
            status: 200,
            headers: vec![("content-type".into(), "text/plain; version=0.0.4".into())],
            body: text.into_bytes(),
        }
    }

    /// `POST /solve`, one pipeline for both request forms: the request
    /// is parsed once into a [`SolvePlan`], every workload is admitted,
    /// then come one lookup pass, one batched solve of the misses and
    /// one insert pass. Admission precedes every lookup, so a refused
    /// request changes no cache entry and no counter but its refusal's
    /// own.
    fn solve(&self, req: &Request) -> Result<Response, ProtocolError> {
        let decoded = decode_body(&req.body)?;
        let obj = decoded.fields();
        // Request-level errors take precedence in this order: tier knobs,
        // `algorithm`, `seed`, `topology`, an unknown algorithm name, and
        // then the workloads.
        let knobs = parse_tier_knobs(obj)?;
        // The deadline clock starts once the body is decoded.
        let started = Instant::now();
        // The cache key's algorithm: the suite name, or `anytime`.
        let algorithm = match knobs {
            Some(_) => ANYTIME_ALGORITHM.to_owned(),
            None => opt_str(obj, "algorithm", "hybrid")?,
        };
        let seed = opt_u64(obj, "seed", 1)?;
        let topology = parse_topology(obj)?;
        let plan = match knobs {
            Some(knobs) => SolvePlan::Tiered(knobs),
            None => {
                let named = standard_suite(seed)
                    .into_iter()
                    .find(|a| a.name() == algorithm);
                SolvePlan::Named(named.ok_or_else(|| {
                    ProtocolError::bad_request(format!(
                        "unknown algorithm {algorithm:?}; expected one of {}",
                        algorithm_names().join(", ")
                    ))
                })?)
            }
        };

        // Admission. Per workload, the topology must hold it, and a
        // tiered workload must pass `admit_tier`.
        let workloads = decoded.workloads()?;
        let mut admitted: Vec<Admitted<'_>> = Vec::with_capacity(workloads.len());
        for (i, ids) in workloads.into_iter().enumerate() {
            let (digest, fingerprint) = workload_key(ids, &topology);
            let (n, m) = (digest.num_items(), digest.num_edges());
            topology
                .validate_for(n)
                .map_err(|e| ProtocolError::bad_request(format!("workload {i}: {e}")))?;
            let method = match &plan {
                SolvePlan::Named(suite) => Method::Named(suite.as_ref()),
                SolvePlan::Tiered(knobs) => Method::Tiered(self.admit_tier(*knobs, i, n, m)?),
            };
            let key = CacheKey {
                fingerprint,
                algorithm: algorithm.clone(),
                seed,
            };
            admitted.push((key, digest, method));
        }

        let mut resident = Vec::with_capacity(admitted.len());
        let mut misses = Vec::new();
        for workload @ (key, _, method) in &admitted {
            self.topology_solves[topology.kind().index()].inc_always();
            let record = self.cache.get(key).filter(|r| method.accepts(r.tier));
            if record.is_none() {
                misses.push(workload);
            }
            resident.push(record);
        }
        // par_map returns results in input order, so the body is the
        // same at any thread count.
        let mut solved = par::par_map(&misses, |(key, digest, method)| {
            solve_digest(digest, key, &topology, *method)
        })
        .into_iter();

        let mut labels = Vec::with_capacity(admitted.len());
        let mut results = Vec::with_capacity(admitted.len());
        for ((key, digest, method), hit) in admitted.into_iter().zip(resident) {
            // A hit serves whatever tier is resident: the label reports
            // it, and `best` still queues an upgrade below tier 2.
            let (status, record) = match hit {
                Some(record) => ("hit", record),
                None => {
                    let record = solved.next().expect("one solve per miss");
                    if let Method::Tiered(_) = method {
                        self.tier_solves[usize::from(record.tier)].inc_always();
                    }
                    self.cache.insert(key.clone(), record.clone());
                    ("miss", record)
                }
            };
            labels.push(method.label(status, &record));
            self.schedule_upgrade((key, digest, method), record.tier, topology);
            results.push(record.value);
        }
        let response = solve_response(labels, results);
        if let Some(deadline) = knobs.and_then(|knobs| knobs.deadline_us) {
            if started.elapsed().as_micros() as u64 <= deadline {
                self.deadline_met.inc_always();
            } else {
                self.deadline_missed.inc_always();
            }
        }
        Ok(response)
    }

    /// Plans tiered workload `i` of `n` items and `m` edges, or refuses
    /// the request: `exact` must be within its size limit, and the tier
    /// [`anytime::plan`] picks (the cheapest admissible one) must fit
    /// `deadline_us` by its modeled latency, or the request is refused
    /// with 503 instead of knowingly answered late.
    fn admit_tier(
        &self,
        knobs: TierKnobs,
        i: usize,
        n: usize,
        m: usize,
    ) -> Result<TierPlan, ProtocolError> {
        if knobs.quality == Quality::Exact && n > anytime::EXACT_PLAN_LIMIT {
            return Err(ProtocolError::bad_request(format!(
                "quality \"exact\" is limited to {} items; workload {i} touches {n}",
                anytime::EXACT_PLAN_LIMIT
            )));
        }
        let plan = anytime::plan(knobs.quality, knobs.deadline_us, n, m);
        let need = anytime::estimate_us(plan.tier, n, m);
        if let Some(deadline) = knobs.deadline_us.filter(|&d| need > d) {
            self.deadline_infeasible.inc_always();
            return Err(ProtocolError {
                status: 503,
                message: format!(
                    "deadline_us {deadline} is infeasible for workload {i}: the \
                     cheapest admissible tier ({}) needs an estimated {need} us",
                    plan.tier.label()
                ),
            });
        }
        Ok(plan)
    }

    /// Enqueues a background tier-2 solve of a workload on the idle lane
    /// when its `method` asks for one (`quality:"best"`) and its record,
    /// now at `tier`, is below tier 2. At most one upgrade per key is
    /// ever in flight; results land via [`SolveCache::upgrade`], which
    /// only applies strict improvements. The lane is weighted by the
    /// record's cache-hit count, so when upgrades queue up, the hottest
    /// fingerprints upgrade first.
    fn schedule_upgrade(&self, (key, digest, method): Admitted<'_>, tier: u8, topology: Topology) {
        let wanted = matches!(method, Method::Tiered(plan) if plan.upgrade);
        if !wanted || tier >= Tier::Thorough.index() {
            return;
        }
        let Some(lane) = &self.lane else { return };
        {
            let mut inflight = self
                .inflight_upgrades
                .lock()
                .expect("inflight set poisoned");
            if !inflight.insert(key.clone()) {
                return;
            }
        }
        self.upgrades_enqueued.inc_always();
        let cache = Arc::clone(&self.cache);
        let inflight = Arc::clone(&self.inflight_upgrades);
        let weight = self.cache.hit_count(&key);
        lane.submit_weighted(weight, move || {
            let record = solve_digest(&digest, &key, &topology, Method::THOROUGH);
            cache.upgrade(&key, record.value, record.cost, record.tier, record.solver);
            inflight.lock().expect("inflight set poisoned").remove(&key);
        });
    }

    /// Blocks until every queued background upgrade has run (tests and
    /// orderly shutdown). Returns `false` on timeout; trivially `true`
    /// when upgrades are disabled.
    pub fn drain_upgrades(&self, timeout: Duration) -> bool {
        match &self.lane {
            Some(lane) => lane.wait_idle(timeout),
            None => true,
        }
    }

    /// Background upgrades queued or running right now.
    pub fn upgrade_queue_depth(&self) -> usize {
        self.lane.as_ref().map_or(0, |l| l.pending())
    }

    fn evaluate(&self, req: &Request) -> Result<Response, ProtocolError> {
        let decoded = decode_body(&req.body)?;
        let obj = decoded.fields();
        let ids = decoded.ids()?;
        let offsets = parse_usize_array(obj, "placement")?;
        let placement = Placement::from_offsets(offsets)
            .map_err(|e| ProtocolError::bad_request(format!("invalid placement: {e}")))?;
        let trace = Trace::from_ids(ids.iter().copied()).normalize();
        if trace.num_items() > placement.num_items() {
            return Err(ProtocolError::bad_request(format!(
                "placement covers {} items but the trace touches {}",
                placement.num_items(),
                trace.num_items()
            )));
        }
        let ports = opt_u64(obj, "ports", 1)? as usize;
        let tape_length = opt_u64(obj, "tape_length", placement.num_items() as u64)? as usize;
        if ports == 0 || tape_length == 0 {
            return Err(ProtocolError::bad_request(
                "\"ports\" and \"tape_length\" must be at least 1",
            ));
        }
        let model = TopologyCost::new(
            Topology::linear(),
            PortLayout::evenly_spaced(ports, tape_length),
            tape_length,
        );
        let report = model.trace_cost(&placement, &trace);

        let mut body = Object::new();
        body.insert(
            "fingerprint",
            Value::Str(GraphDigest::from_ids(ids).fingerprint().to_hex()),
        );
        body.insert("model", Value::Str(model.name()));
        body.insert("stats", report.stats.to_json());
        Ok(Response::json(200, Value::Obj(body).to_compact()))
    }

    fn simulate(&self, req: &Request) -> Result<Response, ProtocolError> {
        let decoded = decode_body(&req.body)?;
        let obj = decoded.fields();
        let ids = decoded.ids()?;
        let trace = Trace::from_ids(ids.iter().copied()).normalize();
        let items = trace.num_items();
        let domains = opt_u64(
            obj,
            "domains_per_track",
            items.next_power_of_two().max(64) as u64,
        )?;
        let tracks = opt_u64(obj, "tracks", 32)?;
        let ports = opt_u64(obj, "ports", 1)?;
        let config = DeviceConfig::builder()
            .domains_per_track(domains as usize)
            .tracks_per_dbc(tracks as usize)
            .ports(ports as usize)
            .dbcs(1)
            .build()
            .map_err(|e| ProtocolError::bad_request(format!("invalid device config: {e}")))?;
        let mut sim = SpmSimulator::with_identity_placement(&config, items)
            .map_err(|e| ProtocolError::bad_request(format!("cannot simulate: {e}")))?;
        let report = sim
            .run(&trace)
            .map_err(|e| ProtocolError::bad_request(format!("simulation failed: {e}")))?;

        let mut body = Object::new();
        body.insert("items", Value::Num(Number::U(items as u64)));
        body.insert("report", report.to_json());
        Ok(Response::json(200, Value::Obj(body).to_compact()))
    }

    /// Dispatches `/session` and `/session/{id}[/…]`. `rest` is the
    /// path after the `/session` prefix (empty or starting with `/`).
    fn route_session(&self, req: &Request, rest: &str) -> Result<Response, ProtocolError> {
        if rest.is_empty() {
            return match req.method.as_str() {
                "POST" => {
                    self.session_creates.inc_always();
                    self.session_create(req)
                }
                other => Err(ProtocolError {
                    status: 405,
                    message: format!("method {other} not allowed for /session"),
                }),
            };
        }
        let rest = &rest[1..]; // checked to start with '/'
        let (id_text, tail) = match rest.split_once('/') {
            Some((id, tail)) => (id, Some(tail)),
            None => (rest, None),
        };
        let id = parse_session_id(id_text)?;
        match (req.method.as_str(), tail) {
            ("DELETE", None) => {
                self.session_closes.inc_always();
                self.session_close(id)
            }
            ("POST", Some("accesses")) => {
                self.session_ingests.inc_always();
                self.session_ingest(id, req)
            }
            ("GET", Some("placement")) => {
                self.session_reads.inc_always();
                self.session_placement(id)
            }
            ("GET", Some("stats")) => {
                self.session_reads.inc_always();
                self.session_stats(id)
            }
            (method, None | Some("accesses" | "placement" | "stats")) => Err(ProtocolError {
                status: 405,
                message: format!("method {method} not allowed for {}", req.path),
            }),
            _ => Err(ProtocolError {
                status: 404,
                message: format!("unknown path {}", req.path),
            }),
        }
    }

    /// Looks up a live session or answers 404 — the uniform response
    /// for unknown, closed, evicted, and expired ids.
    fn session(&self, id: u64) -> Result<Arc<Mutex<SessionState>>, ProtocolError> {
        self.sessions.get(id).ok_or_else(|| ProtocolError {
            status: 404,
            message: format!("unknown or expired session s-{id}"),
        })
    }

    fn session_create(&self, req: &Request) -> Result<Response, ProtocolError> {
        // An empty body means "all defaults"; otherwise every knob is
        // an optional field.
        let defaults = SessionConfig::default();
        let config = if req.body.is_empty() {
            defaults
        } else {
            let obj = parse_body(&req.body)?;
            let (quality, replace_deadline_us) = parse_session_knobs(&obj)?;
            SessionConfig {
                quality,
                replace_deadline_us,
                topology: parse_topology(&obj)?,
                window: opt_u64(&obj, "window", defaults.window as u64)? as usize,
                phase_threshold: opt_f64(&obj, "phase_threshold", defaults.phase_threshold)?,
                confirm_windows: opt_u64(&obj, "confirm_windows", defaults.confirm_windows as u64)?
                    as usize,
                hysteresis: opt_f64(&obj, "hysteresis", defaults.hysteresis)?,
                migration_shifts_per_item: opt_u64(
                    &obj,
                    "migration_shifts_per_item",
                    defaults.migration_shifts_per_item,
                )?,
                horizon_windows: opt_u64(&obj, "horizon_windows", defaults.horizon_windows)?,
                refreeze_edges: opt_u64(&obj, "refreeze_edges", defaults.refreeze_edges as u64)?
                    as usize,
            }
        };
        config.validate().map_err(ProtocolError::bad_request)?;
        let id = self.sessions.create(config);
        let mut body = Object::new();
        body.insert("session", Value::Str(format!("s-{id}")));
        body.insert("window", Value::Num(Number::U(config.window as u64)));
        body.insert(
            "phase_threshold",
            Value::Num(Number::F(config.phase_threshold)),
        );
        body.insert(
            "confirm_windows",
            Value::Num(Number::U(config.confirm_windows as u64)),
        );
        body.insert("hysteresis", Value::Num(Number::F(config.hysteresis)));
        body.insert(
            "migration_shifts_per_item",
            Value::Num(Number::U(config.migration_shifts_per_item)),
        );
        body.insert(
            "horizon_windows",
            Value::Num(Number::U(config.horizon_windows)),
        );
        body.insert(
            "refreeze_edges",
            Value::Num(Number::U(config.refreeze_edges as u64)),
        );
        // Tier knobs are echoed only when set, keeping legacy
        // session-create responses byte-identical.
        if let Some(q) = config.quality {
            body.insert("quality", Value::Str(q.name().into()));
        }
        if let Some(d) = config.replace_deadline_us {
            body.insert("replace_deadline_us", Value::Num(Number::U(d)));
        }
        // Like the tier knobs: echoed only when non-linear, keeping
        // legacy session-create responses byte-identical.
        if !config.topology.is_linear() {
            body.insert("topology", Value::Str(config.topology.canonical()));
        }
        Ok(Response::json(200, Value::Obj(body).to_compact()))
    }

    fn session_ingest(&self, id: u64, req: &Request) -> Result<Response, ProtocolError> {
        let decoded = decode_body(&req.body)?;
        let ids = decoded.ids()?;
        let state = self.session(id)?;
        let started = Instant::now();
        let (report, items, accesses, version) = {
            let mut state = state.lock().expect("session state poisoned");
            let report = state.ingest(ids);
            (
                report,
                state.num_items(),
                state.totals().accesses,
                state.placement_version(),
            )
        };
        self.ingest_latency_ns
            .record(started.elapsed().as_nanos() as u64);
        self.sessions.record(&report);
        let mut body = Object::new();
        body.insert("session", Value::Str(format!("s-{id}")));
        body.insert("accepted", Value::Num(Number::U(report.accepted)));
        body.insert("new_items", Value::Num(Number::U(report.new_items)));
        body.insert("items", Value::Num(Number::U(items as u64)));
        body.insert("accesses", Value::Num(Number::U(accesses)));
        body.insert(
            "windows_completed",
            Value::Num(Number::U(report.windows_completed)),
        );
        body.insert("phase_changes", Value::Num(Number::U(report.phase_changes)));
        body.insert("replacements", Value::Num(Number::U(report.replacements)));
        body.insert("suppressed", Value::Num(Number::U(report.suppressed)));
        body.insert("refreezes", Value::Num(Number::U(report.refreezes)));
        body.insert("placement_version", Value::Num(Number::U(version)));
        Ok(Response::json(200, Value::Obj(body).to_compact()))
    }

    fn session_placement(&self, id: u64) -> Result<Response, ProtocolError> {
        let state = self.session(id)?;
        let state = state.lock().expect("session state poisoned");
        let mut body = Object::new();
        body.insert("session", Value::Str(format!("s-{id}")));
        body.insert("items", Value::Num(Number::U(state.num_items() as u64)));
        body.insert("accesses", Value::Num(Number::U(state.totals().accesses)));
        body.insert(
            "placement_version",
            Value::Num(Number::U(state.placement_version())),
        );
        body.insert("fingerprint", Value::Str(state.fingerprint().to_hex()));
        body.insert(
            "ids",
            Value::Arr(
                state
                    .raw_ids()
                    .iter()
                    .map(|&r| Value::Num(Number::U(r as u64)))
                    .collect(),
            ),
        );
        body.insert(
            "placement",
            Value::Arr(
                state
                    .placement()
                    .iter()
                    .map(|&o| Value::Num(Number::U(o as u64)))
                    .collect(),
            ),
        );
        body.insert("cost", Value::Num(Number::U(state.current_cost())));
        body.insert("naive_cost", Value::Num(Number::U(state.naive_cost())));
        Ok(Response::json(200, Value::Obj(body).to_compact()))
    }

    fn session_stats(&self, id: u64) -> Result<Response, ProtocolError> {
        let state = self.session(id)?;
        let state = state.lock().expect("session state poisoned");
        let t = state.totals();
        let mut body = Object::new();
        body.insert("session", Value::Str(format!("s-{id}")));
        body.insert("items", Value::Num(Number::U(state.num_items() as u64)));
        body.insert("accesses", Value::Num(Number::U(t.accesses)));
        body.insert("windows", Value::Num(Number::U(t.windows)));
        body.insert("phase_changes", Value::Num(Number::U(t.phase_changes)));
        body.insert("replacements", Value::Num(Number::U(t.replacements)));
        body.insert("suppressed", Value::Num(Number::U(t.suppressed)));
        body.insert("refreezes", Value::Num(Number::U(state.refreezes())));
        body.insert(
            "overlay_edges",
            Value::Num(Number::U(state.graph().overlay_edges() as u64)),
        );
        body.insert(
            "placement_version",
            Value::Num(Number::U(state.placement_version())),
        );
        body.insert("access_shifts", Value::Num(Number::U(t.access_shifts)));
        body.insert("naive_shifts", Value::Num(Number::U(t.naive_shifts)));
        body.insert(
            "migration_shifts",
            Value::Num(Number::U(t.migration_shifts)),
        );
        body.insert("items_moved", Value::Num(Number::U(t.items_moved)));
        body.insert("net_amortized_saved", signed(state.net_amortized_saved()));
        Ok(Response::json(200, Value::Obj(body).to_compact()))
    }

    fn session_close(&self, id: u64) -> Result<Response, ProtocolError> {
        let state = self.sessions.remove(id).ok_or_else(|| ProtocolError {
            status: 404,
            message: format!("unknown or expired session s-{id}"),
        })?;
        let state = state.lock().expect("session state poisoned");
        let mut body = Object::new();
        body.insert("session", Value::Str(format!("s-{id}")));
        body.insert("closed", Value::Bool(true));
        body.insert("accesses", Value::Num(Number::U(state.totals().accesses)));
        body.insert("net_amortized_saved", signed(state.net_amortized_saved()));
        Ok(Response::json(200, Value::Obj(body).to_compact()))
    }
}

/// Renders a signed counter without round-tripping through floats.
fn signed(v: i64) -> Value {
    Value::Num(if v < 0 {
        Number::I(v)
    } else {
        Number::U(v as u64)
    })
}

/// Parses the `{id}` segment of a session path (`s-<n>`); malformed
/// ids answer 404 like unknown ones — the resource cannot exist.
fn parse_session_id(text: &str) -> Result<u64, ProtocolError> {
    text.strip_prefix("s-")
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| ProtocolError {
            status: 404,
            message: format!("unknown session {text:?}"),
        })
}

/// Names accepted by the `algorithm` field (the standard suite).
pub fn algorithm_names() -> Vec<String> {
    standard_suite(0).iter().map(|a| a.name()).collect()
}

/// A `/solve` request's plan, parsed once: the legacy form's suite
/// algorithm or the tiered form's knobs. The two forms differ only in
/// the data held here and in the [`Method`] it gives each workload.
enum SolvePlan {
    /// The legacy `algorithm` form: one suite algorithm, resolved once
    /// per request.
    Named(Box<dyn PlacementAlgorithm>),
    /// The `quality` / `deadline_us` form: each workload is solved at
    /// the tier [`anytime::plan`] picks for it.
    Tiered(TierKnobs),
}

/// One admitted workload: its cache key, its digest, and how a miss is
/// solved.
type Admitted<'p> = (CacheKey, GraphDigest, Method<'p>);

/// How one workload is solved: by the request's suite algorithm, or on
/// the anytime ladder as planned. The two request forms differ per
/// workload only in what this decides: which resident records serve,
/// the label shape, and whether a miss counts a tier or queues an
/// upgrade.
#[derive(Clone, Copy)]
enum Method<'p> {
    Named(&'p dyn PlacementAlgorithm),
    Tiered(TierPlan),
}

impl Method<'_> {
    /// The background upgrade: tier 2 at the full pass budget.
    const THOROUGH: Method<'static> = Method::Tiered(TierPlan {
        tier: Tier::Thorough,
        passes: anytime::MAX_PASSES,
        upgrade: false,
    });

    /// Whether a resident record at `tier` serves this workload. An
    /// exact plan takes only an exact record: a heuristic tier cached
    /// under the same key must not masquerade as the optimum, so it
    /// re-solves (and the exact record then replaces it for everyone).
    fn accepts(&self, tier: u8) -> bool {
        !matches!(self, Method::Tiered(plan) if plan.tier == Tier::Exact)
            || tier == Tier::Exact.index()
    }

    /// A workload's `cache` label: the bare status for a suite
    /// algorithm, and on the ladder an object carrying the record's
    /// provenance and upgrade lineage.
    fn label(&self, status: &str, record: &CacheRecord<Arc<str>>) -> Value {
        if let Method::Named(_) = self {
            return Value::Str(status.into());
        }
        let mut obj = Object::new();
        obj.insert("status", Value::Str(status.into()));
        obj.insert("tier", Value::Num(Number::U(u64::from(record.tier))));
        obj.insert("solver", Value::Str(record.solver.clone()));
        obj.insert("version", Value::Num(Number::U(record.version)));
        obj.insert("upgrades", Value::Num(Number::U(record.upgrades)));
        Value::Obj(obj)
    }
}

/// The cache identity of one workload: the digest of its ids, and the
/// digest's fingerprint with the topology folded in. Both `/solve`
/// forms and the cluster router key on this one function, so a
/// workload's cache key and its ring position cannot drift apart.
pub(crate) fn workload_key(ids: &[u32], topology: &Topology) -> (GraphDigest, Fingerprint) {
    let digest = GraphDigest::from_ids(ids);
    let fingerprint = fingerprint_retag(digest.fingerprint(), &topology.canonical());
    (digest, fingerprint)
}

/// Turns a workload's digest into its graph, solves it by `method` and
/// renders the result: the one step that foreground misses of both
/// forms and background upgrades share. The result object is built and
/// rendered to compact JSON once, and the cache keeps those bytes, with
/// the placement's arrangement cost as the record's strict-improvement
/// bar. A suite algorithm's record is tier 0, with the algorithm as its
/// solver.
///
/// Costs come from one single-port [`TopologyCost`] (on the linear tape,
/// the placement's arrangement cost), so the record's cost and the
/// body's `cost` field can never disagree. The
/// `topology` field appears only for non-linear requests, so legacy
/// bodies (and explicit `"topology":"linear"` ones) are unchanged.
/// Tier and solver provenance live in the response's `cache` labels,
/// not here, so a background upgrade is observable only through the
/// versioned `cache` field.
fn solve_digest(
    digest: &GraphDigest,
    key: &CacheKey,
    topology: &Topology,
    method: Method<'_>,
) -> CacheRecord<Arc<str>> {
    let graph = digest.to_graph();
    let (placement, tier, solver) = match method {
        Method::Named(algorithm) => (algorithm.place(&graph), 0, key.algorithm.clone()),
        Method::Tiered(plan) => {
            let outcome = AnytimeSolver::new(key.seed).solve(&graph, plan.tier, plan.passes);
            let solver = outcome.solver.to_owned();
            (outcome.placement, outcome.tier.index(), solver)
        }
    };
    let n = graph.num_items();
    let cost_model = TopologyCost::single_port(*topology, n);
    let naive = cost_model.graph_cost(&Placement::identity(n), &graph);
    let cost = cost_model.graph_cost(&placement, &graph);
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
    obj.insert("items", Value::Num(Number::U(n as u64)));
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
    let value: Arc<str> = Value::Obj(obj).to_compact().into();
    CacheRecord::fresh(value, cost, tier, solver)
}

/// The `/solve` body: the compact rendering of
/// `{"cache":[labels…],"results":[results…]}`, with each workload's
/// rendered result bytes spliced in as they are.
fn solve_response(labels: Vec<Value>, results: Vec<Arc<str>>) -> Response {
    let labels = Value::Arr(labels).to_compact();
    let len: usize = results.iter().map(|r| r.len() + 1).sum();
    let mut body = String::with_capacity(len + labels.len() + 24);
    body.push_str("{\"cache\":");
    body.push_str(&labels);
    body.push_str(",\"results\":[");
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(result);
    }
    body.push_str("]}");
    Response::json(200, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwm_foundation::json::parse;
    use dwm_foundation::{require, require_eq, Checker, Rng};
    use std::panic::AssertUnwindSafe;

    fn engine() -> Engine {
        Engine::new(256)
    }

    fn body_obj(resp: &Response) -> Object {
        match parse(resp.body_str().unwrap()).unwrap() {
            Value::Obj(o) => o,
            other => panic!("expected object body, got {other:?}"),
        }
    }

    #[test]
    fn health_and_stats_answer() {
        let e = engine();
        let h = e.handle(&Request::new("GET", "/health"));
        assert_eq!(h.status, 200);
        assert_eq!(
            h.body_str().unwrap(),
            r#"{"status":"ok","service":"dwm-serve"}"#
        );
        assert!(h.header(ELAPSED_HEADER).is_some());
        let s = e.handle(&Request::new("GET", "/stats"));
        assert_eq!(s.status, 200);
        let obj = body_obj(&s);
        assert!(obj.get("cache").is_some());
        assert_eq!(
            obj.get("requests").unwrap().as_number().unwrap().as_u64(),
            Some(2)
        );
    }

    #[test]
    fn solve_miss_then_hit_with_identical_results() {
        let e = engine();
        let req = Request::post("/solve", r#"{"ids":[0,1,0,1,2,0,3,2,1]}"#);
        let first = e.handle(&req);
        assert_eq!(first.status, 200, "{:?}", first.body_str());
        let second = e.handle(&req);
        let b1 = body_obj(&first);
        let b2 = body_obj(&second);
        assert_eq!(
            b1.get("cache").unwrap().as_array().unwrap()[0].as_str(),
            Some("miss")
        );
        assert_eq!(
            b2.get("cache").unwrap().as_array().unwrap()[0].as_str(),
            Some("hit")
        );
        assert_eq!(b1.get("results"), b2.get("results"));
        let result = b1.get("results").unwrap().as_array().unwrap()[0]
            .as_object()
            .unwrap();
        assert_eq!(result.get("algorithm").unwrap().as_str(), Some("hybrid"));
        let cost = result.get("cost").unwrap().as_number().unwrap().as_u64();
        let naive = result
            .get("naive_cost")
            .unwrap()
            .as_number()
            .unwrap()
            .as_u64();
        assert!(cost <= naive);
    }

    #[test]
    fn solve_batches_multiple_workloads_in_order() {
        let e = engine();
        let req = Request::post(
            "/solve",
            r#"{"algorithm":"organ-pipe","workloads":[{"ids":[0,1,2]},{"ids":[5,5,5,1]},{"ids":[0,1,2]}]}"#,
        );
        let resp = e.handle(&req);
        assert_eq!(resp.status, 200, "{:?}", resp.body_str());
        let obj = body_obj(&resp);
        let cache: Vec<&str> = obj
            .get("cache")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        // The third workload repeats the first, but cache lookups all
        // happen before the batch solves, so within one request the
        // duplicate is still a miss — with an identical result, since
        // the solver is deterministic.
        assert_eq!(cache, ["miss", "miss", "miss"]);
        let results = obj.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], results[2]);
        assert_ne!(results[0], results[1]);
    }

    #[test]
    fn solve_rejects_unknown_algorithm_and_bad_bodies() {
        let e = engine();
        let bad_algo = e.handle(&Request::post(
            "/solve",
            r#"{"algorithm":"quantum","ids":[1,2]}"#,
        ));
        assert_eq!(bad_algo.status, 400);
        assert!(bad_algo.body_str().unwrap().contains("hybrid"));
        assert_eq!(e.handle(&Request::post("/solve", "{nope")).status, 400);
        assert_eq!(e.handle(&Request::post("/solve", "{}")).status, 400);
    }

    #[test]
    fn evaluate_reports_shift_stats() {
        let e = engine();
        let resp = e.handle(&Request::post(
            "/evaluate",
            r#"{"ids":[0,1,0,2],"placement":[1,0,2],"ports":1}"#,
        ));
        assert_eq!(resp.status, 200, "{:?}", resp.body_str());
        let obj = body_obj(&resp);
        assert_eq!(obj.get("model").unwrap().as_str(), Some("1-port"));
        let stats = obj.get("stats").unwrap().as_object().unwrap();
        assert!(stats.get("shifts").is_some());
        // Short placement → 400, not a panic.
        let short = e.handle(&Request::post(
            "/evaluate",
            r#"{"ids":[0,1,2],"placement":[0,1]}"#,
        ));
        assert_eq!(short.status, 400);
        // Non-permutation placement → 400.
        let dup = e.handle(&Request::post(
            "/evaluate",
            r#"{"ids":[0,1],"placement":[0,0]}"#,
        ));
        assert_eq!(dup.status, 400);
    }

    #[test]
    fn simulate_replays_through_the_device_model() {
        let e = engine();
        let resp = e.handle(&Request::post(
            "/simulate",
            r#"{"ids":[0,1,2,1,0,3,3,2],"ports":1}"#,
        ));
        assert_eq!(resp.status, 200, "{:?}", resp.body_str());
        let obj = body_obj(&resp);
        let report = obj.get("report").unwrap().as_object().unwrap();
        let integrity = report
            .get("integrity_errors")
            .unwrap()
            .as_number()
            .unwrap()
            .as_u64();
        assert_eq!(integrity, Some(0));
        // Impossible geometry → 400, not a panic.
        let bad = e.handle(&Request::post(
            "/simulate",
            r#"{"ids":[0,1],"domains_per_track":0}"#,
        ));
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn unknown_paths_and_methods_get_404_and_405() {
        let e = engine();
        assert_eq!(e.handle(&Request::new("GET", "/nope")).status, 404);
        assert_eq!(e.handle(&Request::new("DELETE", "/solve")).status, 405);
        assert_eq!(e.handle(&Request::post("/health", "")).status, 405);
    }

    /// Ids whose transition graph interleaves two heavy triangles
    /// ({0,2,4} and {1,3,5}) — the greedy tier-0 fast path leaves
    /// headroom that the tier-2 portfolio strictly claims, which the
    /// upgrade tests below depend on.
    fn interleaved_ids() -> String {
        let mut ids: Vec<u32> = vec![0, 1, 2, 3, 4, 5];
        for _ in 0..10 {
            ids.extend_from_slice(&[0, 2, 4]);
        }
        for _ in 0..10 {
            ids.extend_from_slice(&[1, 3, 5]);
        }
        let ids: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
        format!("[{}]", ids.join(","))
    }

    fn label_at(obj: &Object, i: usize) -> Object {
        obj.get("cache").unwrap().as_array().unwrap()[i]
            .as_object()
            .unwrap()
            .clone()
    }

    fn label_field(label: &Object, field: &str) -> u64 {
        label
            .get(field)
            .unwrap()
            .as_number()
            .unwrap()
            .as_u64()
            .unwrap()
    }

    fn result_cost(obj: &Object, i: usize) -> u64 {
        obj.get("results").unwrap().as_array().unwrap()[i]
            .as_object()
            .unwrap()
            .get("cost")
            .unwrap()
            .as_number()
            .unwrap()
            .as_u64()
            .unwrap()
    }

    #[test]
    fn tiered_fast_solve_labels_with_provenance_objects() {
        let e = engine();
        let req = Request::post("/solve", r#"{"quality":"fast","ids":[0,1,0,1,2,0,3,2,1]}"#);
        let first = e.handle(&req);
        assert_eq!(first.status, 200, "{:?}", first.body_str());
        let b1 = body_obj(&first);
        let l1 = label_at(&b1, 0);
        assert_eq!(l1.get("status").unwrap().as_str(), Some("miss"));
        assert_eq!(label_field(&l1, "tier"), 0);
        assert_eq!(l1.get("solver").unwrap().as_str(), Some("greedy-csr"));
        assert_eq!(label_field(&l1, "version"), 1);
        assert_eq!(label_field(&l1, "upgrades"), 0);
        let result = b1.get("results").unwrap().as_array().unwrap()[0]
            .as_object()
            .unwrap();
        assert_eq!(result.get("algorithm").unwrap().as_str(), Some("anytime"));
        // Fast never schedules an upgrade.
        assert_eq!(e.upgrade_queue_depth(), 0);
        let second = e.handle(&req);
        let b2 = body_obj(&second);
        let l2 = label_at(&b2, 0);
        assert_eq!(l2.get("status").unwrap().as_str(), Some("hit"));
        assert_eq!(label_field(&l2, "version"), 1);
        assert_eq!(b1.get("results"), b2.get("results"));
    }

    #[test]
    fn tiered_knob_misuse_is_rejected() {
        let e = engine();
        for body in [
            r#"{"quality":"turbo","ids":[0,1]}"#,
            r#"{"algorithm":"hybrid","quality":"fast","ids":[0,1]}"#,
            r#"{"algorithm":"hybrid","deadline_us":50,"ids":[0,1]}"#,
            r#"{"deadline_us":-3,"ids":[0,1]}"#,
            r#"{"quality":7,"ids":[0,1]}"#,
        ] {
            let resp = e.handle(&Request::post("/solve", body));
            assert_eq!(resp.status, 400, "{body} → {:?}", resp.body_str());
        }
        // deadline_us alone is valid (implies balanced) — but 0 can
        // never be met, so admission control answers 503.
        let resp = e.handle(&Request::post(
            "/solve",
            r#"{"deadline_us":18446744073709551615,"ids":[0,1,0,2]}"#,
        ));
        assert_eq!(resp.status, 200, "{:?}", resp.body_str());
        let resp = e.handle(&Request::post(
            "/solve",
            r#"{"deadline_us":0,"ids":[0,1,0,2]}"#,
        ));
        assert_eq!(resp.status, 503, "{:?}", resp.body_str());
    }

    #[test]
    fn infeasible_deadlines_are_refused_up_front() {
        let e = engine();
        let req = Request::post(
            "/solve",
            r#"{"quality":"fast","deadline_us":1,"ids":[0,1,0,1,2,0,3,2,1]}"#,
        );
        let resp = e.handle(&req);
        assert_eq!(resp.status, 503, "{:?}", resp.body_str());
        assert!(resp.body_str().unwrap().contains("infeasible"));
        // Nothing was solved or cached, and the rejection is counted.
        assert_eq!(e.cache().stats().entries, 0);
        let s = body_obj(&e.handle(&Request::new("GET", "/stats")));
        let deadline = s.get("deadline").unwrap().as_object().unwrap();
        assert_eq!(label_field(deadline, "infeasible"), 1);
        assert_eq!(
            label_field(deadline, "met") + label_field(deadline, "missed"),
            0
        );
        // Even a cached workload is refused: the contract is about the
        // request's deadline, not about what happens to be resident.
        let warm = e.handle(&Request::post(
            "/solve",
            r#"{"quality":"fast","ids":[0,1,0,1,2,0,3,2,1]}"#,
        ));
        assert_eq!(warm.status, 200);
        assert_eq!(e.handle(&req).status, 503);

        // A refused batch leaves the cache and the counters alone, even
        // when a workload ahead of the refused one is resident: every
        // workload is admitted before any lookup.
        let small = "[0,1,0,2,3,1]";
        let large: Vec<String> = (0..400u32).chain([0]).map(|i| i.to_string()).collect();
        let large = format!("[{}]", large.join(","));
        let balanced = format!(r#"{{"quality":"balanced","ids":{small}}}"#);
        assert_eq!(
            e.handle(&Request::post("/solve", balanced.as_str())).status,
            200
        );
        let before = solve_side_effects(&e);
        let refused = format!(
            r#"{{"workloads":[{{"ids":{small}}},{{"ids":{large}}}],"quality":"best","deadline_us":100}}"#
        );
        let resp = e.handle(&Request::post("/solve", refused.as_str()));
        assert_eq!(resp.status, 503, "{:?}", resp.body_str());
        assert_eq!(solve_side_effects(&e), before, "refused tiered batch");
        // The legacy form: a 2x2 grid holds 4 words, and the second
        // workload needs 5.
        let grid =
            |workloads: &str| format!(r#"{{"topology":"grid2d:2x2","workloads":[{workloads}]}}"#);
        let resident = grid(r#"{"ids":[0,1,0,2,3,1]}"#);
        assert_eq!(
            e.handle(&Request::post("/solve", resident.as_str())).status,
            200
        );
        let before = solve_side_effects(&e);
        let refused = grid(r#"{"ids":[0,1,0,2,3,1]},{"ids":[0,1,2,3,4]}"#);
        let resp = e.handle(&Request::post("/solve", refused.as_str()));
        assert_eq!(resp.status, 400, "{:?}", resp.body_str());
        assert_eq!(solve_side_effects(&e), before, "refused legacy batch");
    }

    /// The `/stats` numbers a refused `/solve` must leave unchanged:
    /// cache hits, misses and entries, upgrades enqueued, and the solves
    /// per topology.
    fn solve_side_effects(e: &Engine) -> Vec<u64> {
        let s = body_obj(&e.handle(&Request::new("GET", "/stats")));
        let field =
            |group: &str, name: &str| label_field(s.get(group).unwrap().as_object().unwrap(), name);
        let mut numbers = vec![
            field("cache", "hits"),
            field("cache", "misses"),
            field("cache", "entries"),
            field("upgrades", "enqueued"),
        ];
        numbers.extend(TopologyKind::ALL.map(|kind| field("topologies", kind.label())));
        numbers
    }

    /// Random request-level `/solve` fields for the protocol property,
    /// drawn from both request forms, valid or not.
    fn random_solve_fields(rng: &mut Rng) -> Vec<String> {
        let mut fields = Vec::new();
        let pick = |rng: &mut Rng, weights: &[f64]| rng.choose_weighted(weights).unwrap();
        let names = algorithm_names();
        match pick(rng, &[0.3, 0.05, 0.65]) {
            0 => fields.push(format!(r#""algorithm":"{}""#, rng.choose(&names).unwrap())),
            1 => fields.push(r#""algorithm":"quantum""#.to_owned()),
            _ => {}
        }
        // A named algorithm mostly comes without tier knobs: the two are
        // refused together, and that one answer should not crowd out
        // the rest.
        if fields.is_empty() || rng.gen_bool(0.15) {
            let qualities = ["fast", "balanced", "best", "exact", "turbo"];
            let weights = [0.13, 0.13, 0.13, 0.13, 0.05, 0.43];
            if let Some(quality) = qualities.get(pick(rng, &weights)) {
                fields.push(format!(r#""quality":"{quality}""#));
            }
            match pick(rng, &[0.1, 0.2, 0.15, 0.55]) {
                0 => fields.push(r#""deadline_us":0"#.to_owned()),
                // Around the modeled tier-0 latency of 1-20 items.
                1 => fields.push(format!(r#""deadline_us":{}"#, rng.gen_range(35..70u64))),
                2 => fields.push(format!(r#""deadline_us":{}"#, u64::MAX)),
                _ => {}
            }
        }
        if rng.gen_bool(0.5) {
            fields.push(format!(r#""seed":{}"#, rng.gen_range(0..3u64)));
        }
        let topologies = [
            "linear",
            "ring",
            "grid2d:2x2",
            "grid2d:3x3",
            "grid2d:4x5",
            "mobius",
        ];
        if let Some(topology) = topologies.get(pick(rng, &[0.1, 0.15, 0.1, 0.1, 0.1, 0.05, 0.4])) {
            fields.push(format!(r#""topology":"{topology}""#));
        }
        fields
    }

    /// One random `/solve` body with `fields`, and the number of
    /// workloads it carries. Each workload is new or repeats one from
    /// `pool`, so a batch can mix resident and new workloads.
    fn random_solve_body(
        rng: &mut Rng,
        fields: &[String],
        pool: &mut Vec<String>,
    ) -> (String, usize) {
        let mut fields = fields.to_vec();
        let count = rng.gen_range(1..4usize);
        let workloads: Vec<String> = (0..count)
            .map(|_| {
                let repeat = rng
                    .gen_bool(0.4)
                    .then(|| rng.choose(pool).cloned())
                    .flatten();
                if let Some(ids) = repeat {
                    ids
                } else {
                    let items = rng.gen_range(1..21u32);
                    let mut raw: Vec<u32> = (0..items)
                        .map(|k| match k {
                            0 => 0,
                            1 => u32::MAX,
                            _ => rng.next_u32(),
                        })
                        .collect();
                    rng.shuffle(&mut raw);
                    let extra = rng.gen_range(0..(3 * items as usize));
                    for _ in 0..extra {
                        let id = raw[rng.gen_range(0..items as usize)];
                        raw.push(id);
                    }
                    let ids: Vec<String> = raw.iter().map(u32::to_string).collect();
                    let ids = format!("[{}]", ids.join(","));
                    pool.push(ids.clone());
                    ids
                }
            })
            .collect();
        if count == 1 && rng.gen_bool(0.5) {
            fields.push(format!(r#""ids":{}"#, workloads[0]));
        } else {
            let entries: Vec<String> = workloads
                .iter()
                .map(|w| format!(r#"{{"ids":{w}}}"#))
                .collect();
            fields.push(format!(r#""workloads":[{}]"#, entries.join(",")));
        }
        rng.shuffle(&mut fields);
        (format!("{{{}}}", fields.join(",")), count)
    }

    #[test]
    fn random_solve_sequences_keep_the_protocol_contract() {
        Checker::new("random_solve_sequences_keep_the_protocol_contract").run(
            |rng| {
                // Half the requests keep the previous request's fields,
                // so repeated workloads can hit the cache.
                let mut pool = Vec::new();
                let mut fields = random_solve_fields(rng);
                let len = rng.gen_range(2..7usize);
                (0..len)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            fields = random_solve_fields(rng);
                        }
                        random_solve_body(rng, &fields, &mut pool)
                    })
                    .collect::<Vec<_>>()
            },
            |requests| {
                let e = engine();
                for (body, count) in requests {
                    let before = solve_side_effects(&e);
                    let req = Request::post("/solve", body.as_str());
                    let resp = std::panic::catch_unwind(AssertUnwindSafe(|| e.handle(&req)))
                        .map_err(|_| format!("panicked on {body}"))?;
                    let text = resp.body_str().unwrap_or_default();
                    require!(
                        matches!(resp.status, 200 | 400 | 503),
                        "status {} for {body}: {text}",
                        resp.status
                    );
                    if resp.status == 200 {
                        let obj = body_obj(&resp);
                        let len = |field: &str| obj.get(field).unwrap().as_array().unwrap().len();
                        require_eq!(len("cache"), *count, "labels of {body}");
                        require_eq!(len("results"), *count, "results of {body}");
                    } else {
                        require_eq!(
                            solve_side_effects(&e),
                            before,
                            "{} for {body} moved /stats: {text}",
                            resp.status
                        );
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn exact_quality_answers_the_optimum_and_bounds_size() {
        let e = engine();
        let req = Request::post("/solve", r#"{"quality":"exact","ids":[0,1,0,1,2,0,3,2,1]}"#);
        let first = e.handle(&req);
        assert_eq!(first.status, 200, "{:?}", first.body_str());
        let b1 = body_obj(&first);
        let l1 = label_at(&b1, 0);
        assert_eq!(l1.get("status").unwrap().as_str(), Some("miss"));
        assert_eq!(label_field(&l1, "tier"), 3);
        assert_eq!(l1.get("solver").unwrap().as_str(), Some("subset-dp"));
        // No upgrade ever: the record is already optimal.
        assert_eq!(e.upgrade_queue_depth(), 0);
        let second = e.handle(&req);
        let l2 = label_at(&body_obj(&second), 0);
        assert_eq!(l2.get("status").unwrap().as_str(), Some("hit"));
        assert_eq!(label_field(&l2, "tier"), 3);
        // 13 distinct items exceeds the exact plan limit.
        let ids: Vec<String> = (0..13u32).map(|i| i.to_string()).collect();
        let big = format!(r#"{{"quality":"exact","ids":[{}]}}"#, ids.join(","));
        let resp = e.handle(&Request::post("/solve", big.as_str()));
        assert_eq!(resp.status, 400, "{:?}", resp.body_str());
        assert!(resp.body_str().unwrap().contains("exact"));
    }

    #[test]
    fn exact_requests_never_accept_heuristic_cache_records() {
        let e = engine();
        let ids = r#"[0,1,0,1,2,0,3,2,1]"#;
        let fast = format!(r#"{{"quality":"fast","ids":{ids}}}"#);
        let exact = format!(r#"{{"quality":"exact","ids":{ids}}}"#);
        assert_eq!(
            e.handle(&Request::post("/solve", fast.as_str())).status,
            200
        );
        // Same workload, same cache key — but the tier-0 record must
        // not satisfy an exact request.
        let resp = e.handle(&Request::post("/solve", exact.as_str()));
        let label = label_at(&body_obj(&resp), 0);
        assert_eq!(label.get("status").unwrap().as_str(), Some("miss"));
        assert_eq!(label_field(&label, "tier"), 3);
        // The exact record overwrote the heuristic one; a later
        // fast-quality request now serves the optimum from cache.
        let warm = e.handle(&Request::post("/solve", fast.as_str()));
        let label = label_at(&body_obj(&warm), 0);
        assert_eq!(label.get("status").unwrap().as_str(), Some("hit"));
        assert_eq!(label_field(&label, "tier"), 3);
    }

    #[test]
    fn best_quality_upgrades_the_cached_record_in_place() {
        let e = engine();
        // A 45 µs deadline is below the tier-1 estimate for this
        // workload, so the foreground answers from tier 0 and `best`
        // queues a background tier-2 upgrade.
        let body = format!(
            r#"{{"quality":"best","deadline_us":45,"ids":{}}}"#,
            interleaved_ids()
        );
        let req = Request::post("/solve", body.as_str());
        let first = e.handle(&req);
        assert_eq!(first.status, 200, "{:?}", first.body_str());
        let b1 = body_obj(&first);
        let l1 = label_at(&b1, 0);
        assert_eq!(l1.get("status").unwrap().as_str(), Some("miss"));
        assert_eq!(label_field(&l1, "tier"), 0);
        assert_eq!(label_field(&l1, "version"), 1);

        assert!(e.drain_upgrades(Duration::from_secs(60)), "upgrade hung");
        let stats = e.cache().stats();
        assert_eq!(stats.upgrades_applied, 1, "{stats:?}");

        let second = e.handle(&req);
        let b2 = body_obj(&second);
        let l2 = label_at(&b2, 0);
        assert_eq!(l2.get("status").unwrap().as_str(), Some("hit"));
        assert_eq!(label_field(&l2, "tier"), 2);
        assert_eq!(label_field(&l2, "version"), 2);
        assert_eq!(label_field(&l2, "upgrades"), 1);
        assert!(
            result_cost(&b2, 0) < result_cost(&b1, 0),
            "upgrade must be strictly better: {} vs {}",
            result_cost(&b2, 0),
            result_cost(&b1, 0)
        );
        // The record is already tier 2 — no further upgrade queued.
        assert_eq!(e.upgrade_queue_depth(), 0);
    }

    #[test]
    fn upgrades_can_be_disabled() {
        let e = Engine::with_config(EngineConfig {
            upgrades: false,
            ..EngineConfig::default()
        });
        let body = format!(
            r#"{{"quality":"best","deadline_us":45,"ids":{}}}"#,
            interleaved_ids()
        );
        let first = e.handle(&Request::post("/solve", body.as_str()));
        assert_eq!(first.status, 200);
        assert!(e.drain_upgrades(Duration::from_millis(10)));
        let second = e.handle(&Request::post("/solve", body.as_str()));
        let l2 = label_at(&body_obj(&second), 0);
        assert_eq!(l2.get("status").unwrap().as_str(), Some("hit"));
        assert_eq!(label_field(&l2, "tier"), 0);
        assert_eq!(label_field(&l2, "version"), 1);
    }

    #[test]
    fn stats_expose_tier_upgrade_and_deadline_families() {
        let e = engine();
        let solve = e.handle(&Request::post(
            "/solve",
            r#"{"quality":"balanced","deadline_us":100000,"ids":[0,1,0,1,2,0]}"#,
        ));
        assert_eq!(solve.status, 200);
        let s = body_obj(&e.handle(&Request::new("GET", "/stats")));
        let tiers = s.get("tiers").unwrap().as_object().unwrap();
        let t0 = label_field(tiers, "tier0");
        let t1 = label_field(tiers, "tier1");
        assert_eq!(t0 + t1, 1, "exactly one foreground tiered solve");
        let upgrades = s.get("upgrades").unwrap().as_object().unwrap();
        assert_eq!(label_field(upgrades, "enqueued"), 0);
        let deadline = s.get("deadline").unwrap().as_object().unwrap();
        assert_eq!(
            label_field(deadline, "met") + label_field(deadline, "missed"),
            1
        );
        let cache = s.get("cache").unwrap().as_object().unwrap();
        assert_eq!(label_field(cache, "upgrades_applied"), 0);
        // /metrics renders the same families.
        let m = e.handle(&Request::new("GET", "/metrics"));
        let text = m.body_str().unwrap().to_owned();
        for family in [
            "dwm_serve_tier_solves_total",
            "dwm_serve_upgrades_enqueued_total",
            "dwm_serve_upgrades_applied_total",
            "dwm_serve_upgrades_discarded_total",
            "dwm_serve_upgrade_queue_depth",
            "dwm_serve_deadline_met_total",
            "dwm_serve_deadline_missed_total",
            "dwm_serve_deadline_infeasible_total",
        ] {
            assert!(text.contains(family), "missing {family} in /metrics");
        }
    }

    #[test]
    fn session_create_echoes_tier_knobs_only_when_set() {
        let e = engine();
        let legacy = e.handle(&Request::post("/session", r#"{"window":100}"#));
        assert_eq!(legacy.status, 200);
        assert!(!legacy.body_str().unwrap().contains("quality"));
        let tiered = e.handle(&Request::post(
            "/session",
            r#"{"window":100,"quality":"best","replace_deadline_us":500}"#,
        ));
        assert_eq!(tiered.status, 200, "{:?}", tiered.body_str());
        let body = tiered.body_str().unwrap();
        assert!(body.contains(r#""quality":"best""#), "{body}");
        assert!(body.contains(r#""replace_deadline_us":500"#), "{body}");
        // A bare deadline implies balanced, like /solve.
        let implied = e.handle(&Request::post("/session", r#"{"replace_deadline_us":250}"#));
        assert!(
            implied
                .body_str()
                .unwrap()
                .contains(r#""quality":"balanced""#),
            "{:?}",
            implied.body_str()
        );
        let bad = e.handle(&Request::post("/session", r#"{"quality":"turbo"}"#));
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn topology_requests_never_alias_the_linear_cache() {
        let e = engine();
        let linear = e.handle(&Request::post("/solve", r#"{"ids":[0,7,0,7,3,0,7]}"#));
        let ring = e.handle(&Request::post(
            "/solve",
            r#"{"ids":[0,7,0,7,3,0,7],"topology":"ring"}"#,
        ));
        assert_eq!(linear.status, 200, "{:?}", linear.body_str());
        assert_eq!(ring.status, 200, "{:?}", ring.body_str());
        let bl = body_obj(&linear);
        let br = body_obj(&ring);
        // Same ids, but the ring request is a miss under its own key.
        assert_eq!(
            br.get("cache").unwrap().as_array().unwrap()[0].as_str(),
            Some("miss")
        );
        let rl = bl.get("results").unwrap().as_array().unwrap()[0]
            .as_object()
            .unwrap()
            .clone();
        let rr = br.get("results").unwrap().as_array().unwrap()[0]
            .as_object()
            .unwrap()
            .clone();
        assert_ne!(rl.get("fingerprint"), rr.get("fingerprint"));
        // The topology field appears only on the non-linear body, and
        // ring costs never exceed linear on the same placement problem.
        assert!(rl.get("topology").is_none());
        assert_eq!(rr.get("topology").unwrap().as_str(), Some("ring"));
        let cost = |r: &Object, f: &str| r.get(f).unwrap().as_number().unwrap().as_u64().unwrap();
        assert!(cost(&rr, "naive_cost") <= cost(&rl, "naive_cost"));
        // An explicit linear topology is byte-identical to the default
        // (and hits the same cache record).
        let explicit = e.handle(&Request::post(
            "/solve",
            r#"{"ids":[0,7,0,7,3,0,7],"topology":"linear"}"#,
        ));
        let be = body_obj(&explicit);
        assert_eq!(
            be.get("cache").unwrap().as_array().unwrap()[0].as_str(),
            Some("hit")
        );
        assert_eq!(bl.get("results"), be.get("results"));
    }

    #[test]
    fn malformed_and_undersized_topologies_answer_400() {
        let e = engine();
        let bad = e.handle(&Request::post(
            "/solve",
            r#"{"ids":[0,1],"topology":"mobius"}"#,
        ));
        assert_eq!(bad.status, 400, "{:?}", bad.body_str());
        assert!(bad.body_str().unwrap().contains("topology"));
        // A grid that cannot hold the workload's items is refused.
        let small = e.handle(&Request::post(
            "/solve",
            r#"{"ids":[0,1,2,3,4],"topology":"grid2d:2x2"}"#,
        ));
        assert_eq!(small.status, 400, "{:?}", small.body_str());
        // Tiered solves run the same validation.
        let tiered = e.handle(&Request::post(
            "/solve",
            r#"{"quality":"fast","ids":[0,1],"topology":"mobius"}"#,
        ));
        assert_eq!(tiered.status, 400);
    }

    #[test]
    fn tiered_topology_solves_cache_under_their_own_key() {
        let e = engine();
        let linear = Request::post("/solve", r#"{"quality":"fast","ids":[0,1,0,1,2,0,3,2,1]}"#);
        let ring = Request::post(
            "/solve",
            r#"{"quality":"fast","ids":[0,1,0,1,2,0,3,2,1],"topology":"ring"}"#,
        );
        assert_eq!(e.handle(&linear).status, 200);
        let first_ring = e.handle(&ring);
        let l1 = label_at(&body_obj(&first_ring), 0);
        assert_eq!(l1.get("status").unwrap().as_str(), Some("miss"));
        let second_ring = e.handle(&ring);
        let l2 = label_at(&body_obj(&second_ring), 0);
        assert_eq!(l2.get("status").unwrap().as_str(), Some("hit"));
        // The per-topology counter saw one linear and two ring solves.
        let s = body_obj(&e.handle(&Request::new("GET", "/stats")));
        let topo = s.get("topologies").unwrap().as_object().unwrap();
        assert_eq!(label_field(topo, "linear"), 1);
        assert_eq!(label_field(topo, "ring"), 2);
        // /metrics renders the labeled family.
        let m = e.handle(&Request::new("GET", "/metrics"));
        let text = m.body_str().unwrap();
        assert!(text.contains("dwm_serve_topology_solves_total"), "{text}");
        assert!(text.contains(r#"topology="ring""#), "{text}");
    }

    #[test]
    fn session_create_parses_and_echoes_topology() {
        let e = engine();
        let legacy = e.handle(&Request::post("/session", r#"{"window":100}"#));
        assert!(!legacy.body_str().unwrap().contains("topology"));
        let explicit = e.handle(&Request::post(
            "/session",
            r#"{"window":100,"topology":"linear"}"#,
        ));
        assert_eq!(legacy.status, 200);
        assert_eq!(explicit.status, 200);
        // Explicit linear stays byte-identical to the default (modulo
        // the session id, which differs by construction).
        assert_eq!(
            legacy.body_str().unwrap().replace("s-1", "s-2"),
            explicit.body_str().unwrap()
        );
        let ring = e.handle(&Request::post(
            "/session",
            r#"{"window":100,"topology":"ring"}"#,
        ));
        assert_eq!(ring.status, 200, "{:?}", ring.body_str());
        assert!(ring.body_str().unwrap().contains(r#""topology":"ring""#));
        let bad = e.handle(&Request::post("/session", r#"{"topology":"mobius"}"#));
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn tiered_bodies_are_thread_count_invariant() {
        use dwm_foundation::par;
        let req = Request::post(
            "/solve",
            r#"{"quality":"balanced","workloads":[{"ids":[0,1,0,2,1,3]},{"ids":[4,4,2,0]},{"ids":[9,8,7,9,8]}]}"#,
        );
        let body_at = |threads: usize| {
            let _guard = par::override_threads(threads);
            let e = engine();
            let resp = e.handle(&req);
            assert_eq!(resp.status, 200);
            resp.body_str().unwrap().to_owned()
        };
        assert_eq!(body_at(1), body_at(8));
    }

    #[test]
    fn solve_bodies_are_thread_count_invariant() {
        use dwm_foundation::par;
        let req = Request::post(
            "/solve",
            r#"{"workloads":[{"ids":[0,1,0,2,1,3]},{"ids":[4,4,2,0]},{"ids":[9,8,7,9,8]}]}"#,
        );
        let body_at = |threads: usize| {
            let _guard = par::override_threads(threads);
            let e = engine();
            let resp = e.handle(&req);
            assert_eq!(resp.status, 200);
            resp.body_str().unwrap().to_owned()
        };
        assert_eq!(body_at(1), body_at(4));
    }

    /// The rendered `results` array of a `/solve` body, brackets off.
    fn results_bytes(body: &str) -> &str {
        body.split_once(r#","results":["#)
            .and_then(|(_, rest)| rest.strip_suffix("]}"))
            .unwrap_or_else(|| panic!("not a /solve body: {body}"))
    }

    #[test]
    fn mixed_hit_and_miss_batches_splice_the_single_workload_results() {
        use dwm_foundation::par;
        let resident = "[0,1,0,2,1,3,0,2]";
        let new = "[4,4,2,0,7,2,4,7,0]";
        for form in [r#""algorithm":"hybrid""#, r#""quality":"balanced""#] {
            let solve = |e: &Engine, body: String| {
                let resp = e.handle(&Request::post("/solve", body.as_str()));
                assert_eq!(resp.status, 200, "{:?}", resp.body_str());
                resp.body_str().unwrap().to_owned()
            };
            let single = |ids: &str| {
                let body = solve(&engine(), format!(r#"{{{form},"ids":{ids}}}"#));
                results_bytes(&body).to_owned()
            };
            let (a, b) = (single(resident), single(new));
            // A resident workload, a new one, and the new one again:
            // one hit and two misses (lookups precede the batch solve).
            let body_at = |threads: usize| {
                let _guard = par::override_threads(threads);
                let e = engine();
                solve(&e, format!(r#"{{{form},"ids":{resident}}}"#));
                solve(
                    &e,
                    format!(
                        r#"{{{form},"workloads":[{{"ids":{resident}}},{{"ids":{new}}},{{"ids":{new}}}]}}"#
                    ),
                )
            };
            let body = body_at(1);
            assert_eq!(results_bytes(&body), format!("{a},{b},{b}"), "{form}");
            let parsed = parse(&body).unwrap();
            let statuses: Vec<&str> = parsed
                .as_object()
                .unwrap()
                .get("cache")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|l| match l {
                    Value::Obj(o) => o.get("status").unwrap().as_str().unwrap(),
                    other => other.as_str().unwrap(),
                })
                .collect();
            assert_eq!(statuses, ["hit", "miss", "miss"], "{form}");
            assert_eq!(body, body_at(8), "{form}");
        }
    }
}
