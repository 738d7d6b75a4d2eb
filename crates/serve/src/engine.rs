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
//! Each engine owns a private [`obs::Registry`], and every series in it
//! is declared once, as one row of the engine's metric table (`ROWS`).
//! A row gives the metric's name, labels and help text, where its value
//! comes from, which also fixes its type, and the `/stats` keys that
//! mirror it. A value comes from one of four sources:
//!
//! * a counter that the request path bumps;
//! * a counter that adds up one field of every session ingest's
//!   [`IngestReport`];
//! * a wall-clock histogram (request and ingest latency, `/metrics`
//!   only);
//! * a scrape-time read of the [`SolveCache`], the [`SessionTable`] or
//!   the idle lane.
//!
//! [`Engine::with_config`] registers the rows, and [`Engine::stats`]
//! renders `/stats` by walking them and reading the registered series,
//! so `/stats` and `GET /metrics` are two renderings of the same objects
//! and agree by construction. `/metrics` additionally renders the
//! [`obs::global`] registry (solver, simulator, and transport metrics)
//! in Prometheus text exposition format. The counters use the
//! gate-bypassing `add_always` path so `/stats` stays correct even with
//! `DWM_OBS=0`; the histograms and the solver metrics respect the knob.
//! See `docs/OBSERVABILITY.md` for the full metric catalog.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dwm_core::algorithms::standard_suite;
use dwm_core::anytime::{self, AnytimeSolver, Quality, Tier, TierPlan};
use dwm_core::{Placement, PlacementAlgorithm, TopologyCost};
use dwm_device::{DeviceConfig, PortLayout, Topology, TrackTopology};
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
use crate::session::{IngestReport, SessionConfig, SessionState, SessionTable};

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
/// the idle lane, and the engine's metric registry.
pub struct Engine {
    stores: Arc<Stores>,
    registry: Arc<obs::Registry>,
    /// Keys with an upgrade queued or running, so one workload never
    /// occupies more than one lane slot.
    inflight_upgrades: Arc<Mutex<HashSet<CacheKey>>>,
    /// The series each [`ROWS`] entry registered, in table order.
    series: Vec<obs::Metric>,
    /// The request path's counters, by [`Count`].
    counts: Vec<Arc<obs::Counter>>,
    /// The request path's histograms, by [`Latency`].
    latencies: Vec<Arc<obs::Histogram>>,
}

/// What the table's scrape-time rows read.
struct Stores {
    cache: Arc<SolveCache<Arc<str>>>,
    sessions: SessionTable,
    /// Idle-priority lane running background tier-2 upgrades; `None`
    /// when upgrades are disabled.
    lane: Option<par::IdleLane>,
}

/// One series of the engine's registry, declared once: its metric, where
/// its value comes from, and the `/stats` keys that mirror it.
struct Row {
    /// Metric family name.
    name: &'static str,
    /// The series' labels within its family (none for a
    /// [`Source::Read`], which registers by name alone).
    labels: &'static [(&'static str, &'static str)],
    help: &'static str,
    /// Where the value comes from; this also fixes the metric's type.
    source: Source,
    /// `/stats` keys, `"key"` at the top level or `"section.key"`; empty
    /// for a `/metrics`-only series.
    stats: &'static [&'static str],
}

/// Where a [`Row`]'s value comes from.
#[derive(Clone, Copy)]
enum Source {
    /// An always-on counter that the request path bumps, so `/stats`
    /// stays correct at `DWM_OBS=0`.
    Counted(Count),
    /// An always-on counter that adds up one field of every session
    /// ingest's report.
    Ingested(fn(&IngestReport) -> u64),
    /// A wall-clock histogram, recorded only while `obs` is enabled.
    Timed(Latency),
    /// A scrape-time read of the solve cache, the session table or the
    /// idle lane.
    Read(FnKind, fn(&Stores) -> u64),
}

/// The counters the request path bumps. [`ROWS`] lists them in this
/// order; the tiers and the topologies run in label order.
#[derive(Clone, Copy)]
enum Count {
    Requests,
    Solves,
    Evaluates,
    Simulates,
    Errors,
    UpgradesEnqueued,
    Tier0,
    Tier1,
    Tier2,
    Tier3,
    Linear,
    Ring,
    Grid2d,
    Pirm,
    DeadlineMet,
    DeadlineMissed,
    DeadlineInfeasible,
    SessionCreates,
    SessionIngests,
    SessionReads,
    SessionCloses,
}

/// The histograms the request path records, in [`ROWS`] order.
#[derive(Clone, Copy)]
enum Latency {
    Request,
    Ingest,
}

/// The `/stats` sections, in body order, after the top-level keys.
const SECTIONS: [&str; 6] = [
    "cache",
    "tiers",
    "topologies",
    "upgrades",
    "deadline",
    "sessions",
];

/// Every series of an engine's registry. `/stats` renders the rows that
/// name keys, in table order within each section; `/metrics` renders
/// every row, sorted by name.
#[rustfmt::skip]
const ROWS: &[Row] = {
    use Count as C;
    use FnKind::{Counter, Gauge};
    use Source::{Counted, Ingested, Read, Timed};
    const ENDPOINT: &str = "dwm_serve_endpoint_requests_total";
    const ENDPOINT_HELP: &str = "Requests dispatched per endpoint";
    const TIER: &str = "dwm_serve_tier_solves_total";
    const TIER_HELP: &str = "Foreground tiered solves per tier (cache misses only)";
    const TOPOLOGY: &str = "dwm_serve_topology_solves_total";
    const TOPOLOGY_HELP: &str = "Workloads solved per track topology (hits and misses)";
    &[
        Row { name: "dwm_serve_requests_total", labels: &[], stats: &["requests"], source: Counted(C::Requests),
              help: "Requests handled by this engine (any endpoint, any status)" },
        Row { name: ENDPOINT, labels: &[("endpoint", "solve")], stats: &["solves"], source: Counted(C::Solves),
              help: ENDPOINT_HELP },
        Row { name: ENDPOINT, labels: &[("endpoint", "evaluate")], stats: &["evaluates"], source: Counted(C::Evaluates),
              help: ENDPOINT_HELP },
        Row { name: ENDPOINT, labels: &[("endpoint", "simulate")], stats: &["simulates"], source: Counted(C::Simulates),
              help: ENDPOINT_HELP },
        Row { name: "dwm_serve_errors_total", labels: &[], stats: &["errors"], source: Counted(C::Errors),
              help: "Requests answered with an error status" },
        Row { name: "dwm_serve_cache_hits_total", labels: &[], stats: &["cache.hits"],
              source: Read(Counter, |s| s.cache.stats().hits), help: "Solve-cache lookups answered from memory" },
        Row { name: "dwm_serve_cache_misses_total", labels: &[], stats: &["cache.misses"],
              source: Read(Counter, |s| s.cache.stats().misses), help: "Solve-cache lookups that required a solve" },
        Row { name: "dwm_serve_cache_entries", labels: &[], stats: &["cache.entries"],
              source: Read(Gauge, |s| s.cache.stats().entries), help: "Solve-cache entries currently resident" },
        Row { name: "dwm_serve_cache_bytes", labels: &[], stats: &["cache.bytes"],
              source: Read(Gauge, |s| s.cache.stats().bytes),
              help: "Rendered result bytes resident in the solve cache" },
        Row { name: "dwm_serve_cache_evictions_total", labels: &[], stats: &["cache.evictions"],
              source: Read(Counter, |s| s.cache.stats().evictions),
              help: "Solve-cache entries evicted to stay within capacity" },
        Row { name: "dwm_serve_cache_capacity", labels: &[], stats: &["cache.capacity"],
              source: Read(Gauge, |s| s.cache.stats().capacity),
              help: "Solve-cache entry budget (0 disables memoization)" },
        Row { name: "dwm_serve_upgrades_enqueued_total", labels: &[], stats: &["upgrades.enqueued"],
              source: Counted(C::UpgradesEnqueued), help: "Background tier-2 upgrades submitted to the idle lane" },
        Row { name: "dwm_serve_upgrades_applied_total", labels: &[],
              stats: &["cache.upgrades_applied", "upgrades.applied"],
              source: Read(Counter, |s| s.cache.stats().upgrades_applied),
              help: "Background upgrades that strictly improved a cached record" },
        Row { name: "dwm_serve_upgrades_discarded_total", labels: &[],
              stats: &["cache.upgrades_discarded", "upgrades.discarded"],
              source: Read(Counter, |s| s.cache.stats().upgrades_discarded),
              help: "Background upgrades discarded (not strictly better, or record gone)" },
        Row { name: "dwm_serve_upgrade_queue_depth", labels: &[], stats: &["upgrades.queue_depth"],
              source: Read(Gauge, |s| s.lane.as_ref().map_or(0, |lane| lane.pending() as u64)),
              help: "Background upgrades queued or running on the idle lane" },
        Row { name: TIER, labels: &[("tier", "0")], stats: &["tiers.tier0"], source: Counted(C::Tier0),
              help: TIER_HELP },
        Row { name: TIER, labels: &[("tier", "1")], stats: &["tiers.tier1"], source: Counted(C::Tier1),
              help: TIER_HELP },
        Row { name: TIER, labels: &[("tier", "2")], stats: &["tiers.tier2"], source: Counted(C::Tier2),
              help: TIER_HELP },
        Row { name: TIER, labels: &[("tier", "3")], stats: &["tiers.tier3"], source: Counted(C::Tier3),
              help: TIER_HELP },
        Row { name: TOPOLOGY, labels: &[("topology", "linear")], stats: &["topologies.linear"],
              source: Counted(C::Linear), help: TOPOLOGY_HELP },
        Row { name: TOPOLOGY, labels: &[("topology", "ring")], stats: &["topologies.ring"], source: Counted(C::Ring),
              help: TOPOLOGY_HELP },
        Row { name: TOPOLOGY, labels: &[("topology", "grid2d")], stats: &["topologies.grid2d"],
              source: Counted(C::Grid2d), help: TOPOLOGY_HELP },
        Row { name: TOPOLOGY, labels: &[("topology", "pirm")], stats: &["topologies.pirm"], source: Counted(C::Pirm),
              help: TOPOLOGY_HELP },
        Row { name: "dwm_serve_deadline_met_total", labels: &[], stats: &["deadline.met"],
              source: Counted(C::DeadlineMet), help: "Tiered solves whose wall-clock beat the caller's deadline_us" },
        Row { name: "dwm_serve_deadline_missed_total", labels: &[], stats: &["deadline.missed"],
              source: Counted(C::DeadlineMissed),
              help: "Tiered solves whose wall-clock exceeded the caller's deadline_us" },
        Row { name: "dwm_serve_deadline_infeasible_total", labels: &[], stats: &["deadline.infeasible"],
              source: Counted(C::DeadlineInfeasible),
              help: "Tiered solves rejected with 503 because no admissible tier fits deadline_us" },
        Row { name: "dwm_serve_sessions_active", labels: &[], stats: &["sessions.active"],
              source: Read(Gauge, |s| s.sessions.active() as u64), help: "Streaming sessions currently resident" },
        Row { name: "dwm_serve_sessions_capacity", labels: &[], stats: &["sessions.capacity"],
              source: Read(Gauge, |s| s.sessions.stats().capacity), help: "Session budget (0 = unlimited)" },
        Row { name: "dwm_serve_sessions_created_total", labels: &[], stats: &["sessions.created"],
              source: Read(Counter, |s| s.sessions.stats().created), help: "Sessions ever created" },
        Row { name: "dwm_serve_sessions_closed_total", labels: &[], stats: &["sessions.closed"],
              source: Read(Counter, |s| s.sessions.stats().closed), help: "Sessions closed by DELETE" },
        Row { name: "dwm_serve_sessions_expired_total", labels: &[], stats: &["sessions.expired"],
              source: Read(Counter, |s| s.sessions.stats().expired), help: "Sessions dropped by TTL expiry" },
        Row { name: "dwm_serve_sessions_evicted_total", labels: &[], stats: &["sessions.evicted"],
              source: Read(Counter, |s| s.sessions.stats().evicted), help: "Sessions evicted to stay within capacity" },
        Row { name: "dwm_serve_session_accesses_total", labels: &[], stats: &["sessions.accesses"],
              source: Ingested(|r| r.accepted), help: "Accesses ingested across all sessions" },
        Row { name: "dwm_serve_session_windows_total", labels: &[], stats: &["sessions.windows"],
              source: Ingested(|r| r.windows_completed), help: "Decision windows completed across all sessions" },
        Row { name: "dwm_serve_session_phase_changes_total", labels: &[], stats: &["sessions.phase_changes"],
              source: Ingested(|r| r.phase_changes), help: "Confirmed phase changes across all sessions" },
        Row { name: "dwm_serve_session_replacements_total", labels: &[], stats: &["sessions.replacements"],
              source: Ingested(|r| r.replacements), help: "Re-placements adopted across all sessions" },
        Row { name: "dwm_serve_session_suppressed_total", labels: &[], stats: &["sessions.suppressed"],
              source: Ingested(|r| r.suppressed), help: "Re-placements suppressed by the migration rule" },
        Row { name: "dwm_serve_session_refreezes_total", labels: &[], stats: &["sessions.refreezes"],
              source: Ingested(|r| r.refreezes), help: "Delta-graph refreezes across all sessions" },
        Row { name: "dwm_serve_session_access_shifts_total", labels: &[], stats: &["sessions.access_shifts"],
              source: Ingested(|r| r.access_shifts), help: "Shifts served under live session placements" },
        Row { name: "dwm_serve_session_naive_shifts_total", labels: &[], stats: &["sessions.naive_shifts"],
              source: Ingested(|r| r.naive_shifts), help: "Shifts the identity baseline would have served" },
        Row { name: "dwm_serve_session_migration_shifts_total", labels: &[], stats: &["sessions.migration_shifts"],
              source: Ingested(|r| r.migration_shifts), help: "Migration shifts billed across all sessions" },
        Row { name: ENDPOINT, labels: &[("endpoint", "session_create")], stats: &[], source: Counted(C::SessionCreates),
              help: ENDPOINT_HELP },
        Row { name: ENDPOINT, labels: &[("endpoint", "session_ingest")], stats: &[], source: Counted(C::SessionIngests),
              help: ENDPOINT_HELP },
        Row { name: ENDPOINT, labels: &[("endpoint", "session_read")], stats: &[], source: Counted(C::SessionReads),
              help: ENDPOINT_HELP },
        Row { name: ENDPOINT, labels: &[("endpoint", "session_close")], stats: &[], source: Counted(C::SessionCloses),
              help: ENDPOINT_HELP },
        Row { name: "dwm_serve_request_latency_ns", labels: &[], stats: &[], source: Timed(Latency::Request),
              help: "Wall-clock nanoseconds per request, measured inside the engine" },
        Row { name: "dwm_serve_session_ingest_latency_ns", labels: &[], stats: &[], source: Timed(Latency::Ingest),
              help: "Wall-clock nanoseconds per session ingest, measured inside the engine" },
    ]
};

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

    /// Creates an engine with explicit capacity and lifetime knobs, and
    /// registers every row of the engine's metric table in its registry.
    pub fn with_config(config: EngineConfig) -> Self {
        // Solver/simulator/graph/pool metrics live in the global
        // registry; touching them here means a scrape on a fresh daemon
        // already lists every family the first solve will move.
        dwm_core::register_obs_metrics();
        dwm_graph::register_obs_metrics();
        dwm_sim::register_obs_metrics();
        par::register_obs_metrics();

        let stores = Arc::new(Stores {
            cache: Arc::new(SolveCache::new(config.cache_capacity)),
            sessions: SessionTable::new(config.session_capacity, config.session_ttl),
            lane: config.upgrades.then(par::IdleLane::new),
        });
        let registry = Arc::new(match config.shard {
            Some(shard) => obs::Registry::with_labels(&[("shard", &shard.to_string())]),
            None => obs::Registry::new(),
        });
        let (mut counts, mut latencies) = (Vec::new(), Vec::new());
        let series = ROWS
            .iter()
            .map(|row| match row.source {
                Source::Counted(count) => {
                    assert_eq!(count as usize, counts.len(), "{} is out of order", row.name);
                    let counter = registry.counter_with(row.name, row.labels, row.help);
                    counts.push(Arc::clone(&counter));
                    obs::Metric::Counter(counter)
                }
                Source::Ingested(_) => {
                    obs::Metric::Counter(registry.counter_with(row.name, row.labels, row.help))
                }
                Source::Timed(latency) => {
                    assert_eq!(latency as usize, latencies.len(), "{}", row.name);
                    let histogram = registry.histogram_with(row.name, row.labels, row.help);
                    latencies.push(Arc::clone(&histogram));
                    obs::Metric::Histogram(histogram)
                }
                Source::Read(kind, read) => {
                    let stores = Arc::clone(&stores);
                    obs::Metric::Fn(
                        registry.register_fn(row.name, row.help, kind, move || read(&stores)),
                    )
                }
            })
            .collect();
        Engine {
            stores,
            registry,
            inflight_upgrades: Arc::new(Mutex::new(HashSet::new())),
            series,
            counts,
            latencies,
        }
    }

    /// The session table (exposed for stats and load harnesses).
    pub fn sessions(&self) -> &SessionTable {
        &self.stores.sessions
    }

    /// The solve cache (exposed for stats and priming in benches).
    pub fn cache(&self) -> &SolveCache<Arc<str>> {
        &self.stores.cache
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
        self.count(Count::Requests);
        let result = self.route(req);
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                self.count(Count::Errors);
                Response::json(e.status, error_body(&e.message))
            }
        };
        let elapsed = started.elapsed();
        self.latencies[Latency::Request as usize].record(elapsed.as_nanos() as u64);
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
                self.count(Count::Solves);
                self.solve(req)
            }
            ("POST", "/evaluate") => {
                self.count(Count::Evaluates);
                self.evaluate(req)
            }
            ("POST", "/simulate") => {
                self.count(Count::Simulates);
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

    /// Bumps one of the request path's counters.
    fn count(&self, count: Count) {
        self.counts[count as usize].inc_always();
    }

    /// The engine's `/stats` object, rendered by walking the engine's
    /// metric table: the top-level keys, then the `cache`, `tiers`,
    /// `topologies`, `upgrades`, `deadline` and `sessions` sections,
    /// every value read from the series that `/metrics` renders. Reading
    /// it is not a request, so the cluster front builds its per-shard
    /// objects from it without moving any shard's counters.
    pub fn stats(&self) -> Value {
        let mut top = Object::new();
        let mut sections = SECTIONS.map(|name| (name, Object::new()));
        for (row, series) in ROWS.iter().zip(&self.series) {
            let value = match series {
                obs::Metric::Counter(counter) => counter.value(),
                obs::Metric::Fn(read) => read.value(),
                // The histograms have no `/stats` keys.
                _ => continue,
            };
            for path in row.stats {
                let value = Value::Num(Number::U(value));
                match path.split_once('.') {
                    None => top.insert(*path, value),
                    Some((section, key)) => {
                        let (_, obj) = sections
                            .iter_mut()
                            .find(|(name, _)| *name == section)
                            .expect("every /stats section is listed");
                        obj.insert(key, value);
                    }
                }
            }
        }
        for (name, obj) in sections {
            top.insert(name, Value::Obj(obj));
        }
        Value::Obj(top)
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
            self.counts[Count::Linear as usize + topology.kind().index()].inc_always();
            let record = self.cache().get(key).filter(|r| method.accepts(r.tier));
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
                        self.counts[Count::Tier0 as usize + usize::from(record.tier)].inc_always();
                    }
                    self.cache().insert(key.clone(), record.clone());
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
                self.count(Count::DeadlineMet);
            } else {
                self.count(Count::DeadlineMissed);
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
            self.count(Count::DeadlineInfeasible);
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
        let Some(lane) = &self.stores.lane else {
            return;
        };
        {
            let mut inflight = self
                .inflight_upgrades
                .lock()
                .expect("inflight set poisoned");
            if !inflight.insert(key.clone()) {
                return;
            }
        }
        self.count(Count::UpgradesEnqueued);
        let cache = Arc::clone(&self.stores.cache);
        let inflight = Arc::clone(&self.inflight_upgrades);
        let weight = cache.hit_count(&key);
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
        match &self.stores.lane {
            Some(lane) => lane.wait_idle(timeout),
            None => true,
        }
    }

    /// Background upgrades queued or running right now.
    pub fn upgrade_queue_depth(&self) -> usize {
        self.stores.lane.as_ref().map_or(0, |l| l.pending())
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
        model
            .check_fit(&placement)
            .map_err(ProtocolError::bad_request)?;
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
                    self.count(Count::SessionCreates);
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
                self.count(Count::SessionCloses);
                self.session_close(id)
            }
            ("POST", Some("accesses")) => {
                self.count(Count::SessionIngests);
                self.session_ingest(id, req)
            }
            ("GET", Some("placement")) => {
                self.count(Count::SessionReads);
                self.session_placement(id)
            }
            ("GET", Some("stats")) => {
                self.count(Count::SessionReads);
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
        self.sessions().get(id).ok_or_else(|| ProtocolError {
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
        let id = self.sessions().create(config);
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
        self.latencies[Latency::Ingest as usize].record(started.elapsed().as_nanos() as u64);
        for (row, series) in ROWS.iter().zip(&self.series) {
            if let (Source::Ingested(field), obs::Metric::Counter(counter)) = (row.source, series) {
                counter.add_always(field(&report));
            }
        }
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
        let state = self.sessions().remove(id).ok_or_else(|| ProtocolError {
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
    let edges = graph.num_edges();
    // The graph is dead once its costs are read. Freeing its rows
    // before rendering lets the rendered bytes, which live on in the
    // cache, reuse that memory; rendered above the live rows, they kept
    // the daemon's peak RSS on `solve_miss` ~0.6 MiB higher.
    drop(graph);
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
    obj.insert("edges", Value::Num(Number::U(edges as u64)));
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
    use dwm_device::TopologyKind;
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
    fn evaluate_refuses_layouts_that_do_not_fit_the_tape() {
        let e = engine();
        let evaluate = |knobs: &str| {
            e.handle(&Request::post(
                "/evaluate",
                format!(r#"{{"ids":[0,1,0,2,1],"placement":[0,1,2]{knobs}}}"#),
            ))
        };
        for knobs in [r#","tape_length":2"#, r#","ports":5,"tape_length":3"#] {
            let resp = evaluate(knobs);
            assert_eq!(resp.status, 400, "{knobs}: {:?}", resp.body_str());
            assert!(body_obj(&resp).get("error").is_some(), "{knobs}");
        }
        let fits = evaluate(r#","tape_length":3"#);
        assert_eq!(fits.status, 200, "{:?}", fits.body_str());
        assert!(fits.body_str().unwrap().contains(r#""stats":{"shifts":5,"#));
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
        // Without a lane the queue-depth series still exists, at 0 on
        // both surfaces.
        let s = body_obj(&e.handle(&Request::new("GET", "/stats")));
        let upgrades = s.get("upgrades").unwrap().as_object().unwrap();
        assert_eq!(label_field(upgrades, "queue_depth"), 0);
        let m = e.handle(&Request::new("GET", "/metrics"));
        assert!(m
            .body_str()
            .unwrap()
            .lines()
            .any(|line| line == "dwm_serve_upgrade_queue_depth 0"));
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

    /// One step of a random `/session` sequence. Sessions are named by
    /// their index in the sequence; a refused create leaves an id no
    /// session has.
    #[derive(Debug)]
    enum SessionOp {
        Create(usize, String),
        Ingest(usize, Vec<u32>),
        Read(usize, &'static str),
        Close(usize),
        /// A request outside the session's own life: an unknown or
        /// malformed id, or a method the path does not allow.
        Stray(&'static str, &'static str),
    }

    /// A random `/session` create body: the two migration-rule knobs at
    /// 0, 1, 2⁶³, `u64::MAX`, a valid or a malformed value, beside the
    /// other knobs, valid or not.
    fn random_session_body(rng: &mut Rng) -> String {
        if rng.gen_bool(0.05) {
            return "{nope".into();
        }
        let cost = |rng: &mut Rng| match rng.gen_range(0..16u32) {
            0 | 1 => "0".to_owned(),
            2 | 3 => "1".to_owned(),
            4 | 5 => (1u64 << 63).to_string(),
            6 | 7 => u64::MAX.to_string(),
            8 => "-1".to_owned(),
            9 => r#""lots""#.to_owned(),
            _ => rng.gen_range(2..100u64).to_string(),
        };
        let window = match rng.gen_range(0..20u32) {
            0 => "0".to_owned(),
            1 => "2.5".to_owned(),
            _ => rng.gen_range(16..64u64).to_string(),
        };
        let mut fields = vec![
            format!(r#""window":{window}"#),
            format!(r#""migration_shifts_per_item":{}"#, cost(rng)),
            format!(r#""horizon_windows":{}"#, cost(rng)),
        ];
        let optional: [(&str, &[&str]); 5] = [
            ("hysteresis", &["0", "0.5", "2", "3", "-1"]),
            ("confirm_windows", &["1", "2", "3", "0"]),
            ("refreeze_edges", &["0", "1", "64"]),
            ("quality", &[r#""fast""#, r#""balanced""#]),
            ("topology", &[r#""ring""#, r#""grid2d:4x16""#]),
        ];
        for (name, values) in optional {
            if rng.gen_bool(0.3) {
                fields.push(format!(r#""{name}":{}"#, rng.choose(values).unwrap()));
            }
        }
        rng.shuffle(&mut fields);
        format!("{{{}}}", fields.join(","))
    }

    /// A two-phase stream over 2-16 items, ids 0 and `u32::MAX`
    /// among them: a sweep, then a ping-pong between two of the items.
    fn random_phased_stream(rng: &mut Rng) -> Vec<u32> {
        let items = rng.gen_range(2..17usize);
        let mut pool: Vec<u32> = (0..items)
            .map(|k| match k {
                0 => 0,
                1 => u32::MAX,
                _ => rng.next_u32(),
            })
            .collect();
        rng.shuffle(&mut pool);
        let (a, b) = (pool[0], pool[items - 1]);
        let sweep = rng.gen_range(16..160usize);
        let ping = rng.gen_range(16..160usize);
        (0..sweep)
            .map(|i| pool[i % items])
            .chain((0..ping).map(|i| [a, b][i % 2]))
            .collect()
    }

    /// A random sequence over 1-3 sessions: each is created, fed its
    /// stream in 1-3 chunks with reads between, and maybe closed; the
    /// sessions' steps interleave, and stray requests fall between.
    fn random_session_ops(rng: &mut Rng) -> Vec<SessionOp> {
        let mut lanes: Vec<Vec<SessionOp>> = (0..rng.gen_range(1..4usize))
            .map(|s| {
                let mut ops = vec![SessionOp::Create(s, random_session_body(rng))];
                let stream = random_phased_stream(rng);
                let mut cuts: Vec<usize> = (0..rng.gen_range(0..3))
                    .map(|_| rng.gen_range(0..stream.len()))
                    .collect();
                cuts.extend([0, stream.len()]);
                cuts.sort_unstable();
                for pair in cuts.windows(2).filter(|pair| pair[0] < pair[1]) {
                    ops.push(SessionOp::Ingest(s, stream[pair[0]..pair[1]].to_vec()));
                    if rng.gen_bool(0.5) {
                        ops.push(SessionOp::Read(
                            s,
                            rng.choose(&["stats", "placement"]).unwrap(),
                        ));
                    }
                }
                if rng.gen_bool(0.25) {
                    ops.push(SessionOp::Close(s));
                }
                ops
            })
            .collect();
        let mut ops = Vec::new();
        while lanes.iter().any(|lane| !lane.is_empty()) {
            if rng.gen_bool(0.15) {
                let strays = [
                    ("GET", "/session/s-999999/stats"),
                    ("POST", "/session/s-999999/accesses"),
                    ("DELETE", "/session/s-999999"),
                    ("GET", "/session/x-1/stats"),
                    ("PUT", "/session/s-1/stats"),
                    ("GET", "/session"),
                    ("GET", "/session/s-1/nope"),
                ];
                let (method, path) = *rng.choose(&strays).unwrap();
                ops.push(SessionOp::Stray(method, path));
            }
            let live: Vec<usize> = (0..lanes.len()).filter(|&i| !lanes[i].is_empty()).collect();
            let lane = &mut lanes[*rng.choose(&live).unwrap()];
            ops.push(lane.remove(0));
        }
        ops
    }

    /// The `session` id a create answered, if it made one.
    fn created_id(resp: &Response) -> Option<String> {
        (resp.status == 200).then(|| {
            let body = body_obj(resp);
            body.get("session").unwrap().as_str().unwrap().to_owned()
        })
    }

    fn ids_body(ids: &[u32]) -> String {
        let ids: Vec<String> = ids.iter().map(u32::to_string).collect();
        format!(r#"{{"ids":[{}]}}"#, ids.join(","))
    }

    #[test]
    fn random_session_sequences_keep_the_protocol_contract() {
        Checker::new("random_session_sequences_keep_the_protocol_contract").run(
            random_session_ops,
            |ops| {
                let e = engine();
                let send = |req: Request| -> Result<Response, String> {
                    let what = format!("{} {}", req.method, req.path);
                    let resp = std::panic::catch_unwind(AssertUnwindSafe(|| e.handle(&req)))
                        .map_err(|_| format!("{what} panicked"))?;
                    require!(
                        matches!(resp.status, 200 | 400 | 404 | 405),
                        "{what} answered {}: {:?}",
                        resp.status,
                        resp.body_str()
                    );
                    Ok(resp)
                };
                // Per session: its create body, its id, the stream it
                // took in, and whether it is still open.
                let count = ops
                    .iter()
                    .filter(|op| matches!(op, SessionOp::Create(..)))
                    .count();
                let mut sessions = vec![(String::new(), None, Vec::new(), false); count];
                let path = |sessions: &[(String, Option<String>, Vec<u32>, bool)], s: usize| {
                    let id = sessions[s].1.as_deref().unwrap_or("s-999999");
                    format!("/session/{id}")
                };
                for op in ops {
                    match op {
                        SessionOp::Create(s, body) => {
                            let resp = send(Request::post("/session", body.as_str()))?;
                            sessions[*s] = (body.clone(), created_id(&resp), Vec::new(), true);
                        }
                        SessionOp::Ingest(s, ids) => {
                            let url = format!("{}/accesses", path(&sessions, *s));
                            let resp = send(Request::post(&url, ids_body(ids)))?;
                            if resp.status == 200 {
                                sessions[*s].2.extend_from_slice(ids);
                            }
                        }
                        SessionOp::Read(s, what) => {
                            let url = format!("{}/{what}", path(&sessions, *s));
                            send(Request::new("GET", &url))?;
                        }
                        SessionOp::Close(s) => {
                            send(Request::new("DELETE", &path(&sessions, *s)))?;
                            sessions[*s].3 = false;
                        }
                        SessionOp::Stray(method, url) => {
                            send(Request::new(method, url))?;
                        }
                    }
                }
                // A twin fed each open session's stream in one chunk
                // answers the same stats, up to the session id.
                for (body, id, stream, open) in &sessions {
                    let (Some(id), true, false) = (id, open, stream.is_empty()) else {
                        continue;
                    };
                    let twin = created_id(&send(Request::post("/session", body.as_str()))?)
                        .ok_or_else(|| format!("{body} was refused for the twin"))?;
                    send(Request::post(
                        &format!("/session/{twin}/accesses"),
                        ids_body(stream),
                    ))?;
                    let stats = |id: &str| -> Result<String, String> {
                        let resp = send(Request::new("GET", &format!("/session/{id}/stats")))?;
                        Ok(resp.body_str().unwrap().to_owned())
                    };
                    let quoted = |id: &str| format!(r#""session":"{id}""#);
                    require_eq!(
                        stats(&twin)?.replace(&quoted(&twin), &quoted(id)),
                        stats(id)?,
                        "{body}: the twin of {id} diverged"
                    );
                }
                Ok(())
            },
        );
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
