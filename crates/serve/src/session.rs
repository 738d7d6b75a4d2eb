//! Streaming placement sessions: stateful, per-tenant access ingestion
//! with phase-triggered re-placement.
//!
//! The batch endpoints (`/solve`, `/evaluate`) see a workload once, in
//! full. A *session* instead ingests a tenant's access stream in
//! chunks and maintains, incrementally:
//!
//! * the weighted access graph, as a [`DeltaGraph`] — a mutable edge
//!   overlay on an immutable CSR base, refrozen once the overlay passes
//!   a configured threshold;
//! * a streaming [`PhaseDetector`] over the access distribution, with
//!   consecutive-window confirmation as hysteresis against noise;
//! * the live placement. On a *confirmed* phase change the session
//!   asks [`OnlinePlacer::decide`] whether re-placing the window's
//!   graph beats keeping the incumbent layout, billing
//!   `items_moved × migration_shifts_per_item` against the projected
//!   saving — the same benefit-vs-migration rule as the offline F10
//!   experiment, applied online.
//!
//! # Determinism
//!
//! A session's observable state (placement, graph, counters, version)
//! is a pure function of the *concatenated* access stream — chunk
//! boundaries never matter, because every decision (phase detection,
//! re-placement, refreeze) happens at fixed `window`-access boundaries
//! of the stream, not at ingest-call boundaries. Wall-clock time
//! affects only *availability* (TTL expiry of idle sessions), never
//! response bodies. `tests/serve.rs` pins both properties over a real
//! socket at `DWM_THREADS=1` and `8`.
//!
//! # Accounting
//!
//! Sessions track three shift totals, all in steady-state tape shifts
//! between consecutive accesses:
//!
//! * `access_shifts` — `Σ |π(cur) − π(prev)|` under the live placement
//!   (including migrations' placement switches);
//! * `naive_shifts` — the same sum under the never-migrating identity
//!   placement over first-appearance dense ids (the order-of-appearance
//!   baseline used throughout the workspace);
//! * `migration_shifts` — the accumulated migration bills.
//!
//! `net_amortized_saved = naive − (access + migration)` is the
//! session's running answer to "was adapting worth it", and what the
//! F11 session-drift experiment sweeps.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dwm_core::anytime::{self, AnytimePlacement, Quality};
use dwm_core::online::{OnlineConfig, OnlinePlacer};
use dwm_core::Placement;
use dwm_device::{PortLayout, Topology, TrackTopology};
use dwm_graph::{DeltaGraph, Fingerprint, GraphDigest};
use dwm_trace::analysis::PhaseDetector;

/// Seed the tiered re-placement solver uses for its stochastic tier-2
/// members — fixed, so session state stays a pure function of the
/// stream.
const REPLACEMENT_SEED: u64 = 1;

/// Tuning parameters of one session, fixed at creation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Decision window in accesses: phase detection, re-placement, and
    /// refreeze checks all happen at multiples of this many accesses.
    pub window: usize,
    /// Total-variation distance between consecutive windows' access
    /// distributions above which a window counts as divergent.
    pub phase_threshold: f64,
    /// Consecutive divergent windows required before a phase change is
    /// confirmed (and a re-placement considered).
    pub confirm_windows: usize,
    /// Hysteresis factor of the re-placement rule: the projected
    /// saving must exceed `hysteresis × migration bill`.
    pub hysteresis: f64,
    /// Shift cost charged per migrated item.
    pub migration_shifts_per_item: u64,
    /// Windows the projected saving is assumed to persist for.
    pub horizon_windows: u64,
    /// Refreeze the [`DeltaGraph`] once its overlay holds this many
    /// (directed half-)edges; 0 disables refreezing.
    pub refreeze_edges: usize,
    /// Tiered re-placement quality. `None` keeps the legacy hybrid
    /// candidate solver (byte-identical to pre-tier sessions); `Some`
    /// routes candidate solves through the anytime portfolio at the
    /// tier [`anytime::plan`] picks from this quality and the
    /// hysteresis-adjusted [`replace_deadline_us`](Self::replace_deadline_us).
    pub quality: Option<Quality>,
    /// Latency budget for one re-placement candidate solve, in
    /// microseconds. The effective budget is this divided by the
    /// session's `hysteresis`: the more conservative the adoption bar,
    /// the less compute is spent on candidates that will likely be
    /// suppressed. `None` = no deadline (tier 1 at full passes for
    /// `balanced`/`best`).
    pub replace_deadline_us: Option<u64>,
    /// Track topology the session's tape is accounted (and its
    /// re-placement rule costed) under. The default
    /// [`Topology::linear`] is byte-identical to pre-topology sessions.
    pub topology: Topology,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            window: 512,
            phase_threshold: 0.5,
            confirm_windows: 1,
            hysteresis: 1.0,
            migration_shifts_per_item: 64,
            horizon_windows: 4,
            refreeze_edges: 1024,
            quality: None,
            replace_deadline_us: None,
            topology: Topology::linear(),
        }
    }
}

impl SessionConfig {
    /// Checks the invariants the constructors assert, as a `Result`
    /// for protocol-level validation (400, not a panic).
    ///
    /// # Errors
    ///
    /// A one-line description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("\"window\" must be at least 1".into());
        }
        if self.confirm_windows == 0 {
            return Err("\"confirm_windows\" must be at least 1".into());
        }
        if !self.phase_threshold.is_finite() || self.phase_threshold < 0.0 {
            return Err("\"phase_threshold\" must be a finite nonnegative number".into());
        }
        if !self.hysteresis.is_finite() || self.hysteresis < 0.0 {
            return Err("\"hysteresis\" must be a finite nonnegative number".into());
        }
        Ok(())
    }

    fn online_config(&self) -> OnlineConfig {
        OnlineConfig {
            window: self.window,
            migration_shifts_per_item: self.migration_shifts_per_item,
            hysteresis: self.hysteresis,
            horizon_windows: self.horizon_windows,
            topology: self.topology,
        }
    }
}

/// What one [`SessionState::ingest`] call did — deltas, not totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Accesses ingested by this call.
    pub accepted: u64,
    /// Items seen for the first time.
    pub new_items: u64,
    /// Decision windows completed.
    pub windows_completed: u64,
    /// Confirmed phase changes.
    pub phase_changes: u64,
    /// Re-placements adopted.
    pub replacements: u64,
    /// Re-placements considered but suppressed by the migration rule.
    pub suppressed: u64,
    /// Graph refreezes performed.
    pub refreezes: u64,
    /// Shifts served under the live placement.
    pub access_shifts: u64,
    /// Shifts the identity baseline would have served.
    pub naive_shifts: u64,
    /// Migration shifts billed.
    pub migration_shifts: u64,
    /// Items moved across adopted re-placements.
    pub items_moved: u64,
}

/// Lifetime totals of a session (the sums of its ingest reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTotals {
    /// Accesses ingested.
    pub accesses: u64,
    /// Decision windows completed.
    pub windows: u64,
    /// Confirmed phase changes.
    pub phase_changes: u64,
    /// Re-placements adopted.
    pub replacements: u64,
    /// Re-placements suppressed.
    pub suppressed: u64,
    /// Shifts served under the live placement.
    pub access_shifts: u64,
    /// Shifts under the identity baseline.
    pub naive_shifts: u64,
    /// Migration shifts billed.
    pub migration_shifts: u64,
    /// Items moved across adopted re-placements.
    pub items_moved: u64,
}

impl SessionTotals {
    fn absorb(&mut self, r: &IngestReport) {
        self.accesses += r.accepted;
        self.windows += r.windows_completed;
        self.phase_changes += r.phase_changes;
        self.replacements += r.replacements;
        self.suppressed += r.suppressed;
        self.access_shifts += r.access_shifts;
        self.naive_shifts += r.naive_shifts;
        self.migration_shifts += r.migration_shifts;
        self.items_moved += r.items_moved;
    }
}

/// One tenant's streaming state; see the module docs.
///
/// # Example
///
/// ```
/// use dwm_serve::session::{SessionConfig, SessionState};
///
/// let mut s = SessionState::new(SessionConfig {
///     window: 100,
///     migration_shifts_per_item: 2,
///     ..SessionConfig::default()
/// });
/// // Phase 1 then phase 2, in arbitrary chunks.
/// let ids: Vec<u32> = (0..600).map(|i| [40, 90][i % 2]).collect();
/// for chunk in ids.chunks(37) {
///     s.ingest(chunk);
/// }
/// let ids2: Vec<u32> = (0..600).map(|i| [7, 512][i % 2]).collect();
/// s.ingest(&ids2);
/// assert_eq!(s.totals().accesses, 1200);
/// assert_eq!(s.num_items(), 4); // raw ids are remapped densely
/// ```
pub struct SessionState {
    config: SessionConfig,
    /// Single access port at offset 0 — the tape model every session
    /// accounts against (the topology supplies the distance metric).
    ports: PortLayout,
    placer: OnlinePlacer,
    graph: DeltaGraph,
    detector: PhaseDetector,
    /// Raw (wire) item id → dense session-local id.
    remap: HashMap<u32, u32>,
    /// Dense id → raw id, in first-appearance order.
    raw_ids: Vec<u32>,
    /// Live placement: dense item id → tape offset. Always a
    /// permutation: it starts empty, grows by appending the next
    /// offset at the tail, and is only ever replaced wholesale by a
    /// solver [`Placement`] (a validated bijection).
    placement: Vec<usize>,
    /// Previous access's dense id; carries across ingest calls so
    /// chunk boundaries cost exactly what one big chunk costs.
    last_item: Option<usize>,
    /// Accesses of the current (incomplete) decision window.
    window_buf: Vec<usize>,
    placement_version: u64,
    totals: SessionTotals,
}

impl SessionState {
    /// A fresh session.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid ([`SessionConfig::validate`] —
    /// the daemon validates before constructing).
    pub fn new(config: SessionConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid session config: {e}");
        }
        SessionState {
            ports: PortLayout::single(),
            placer: OnlinePlacer::new(config.online_config()),
            graph: DeltaGraph::new(0),
            detector: PhaseDetector::new(config.window, config.phase_threshold)
                .with_confirm(config.confirm_windows),
            remap: HashMap::new(),
            raw_ids: Vec::new(),
            placement: Vec::new(),
            last_item: None,
            window_buf: Vec::new(),
            placement_version: 0,
            totals: SessionTotals::default(),
            config,
        }
    }

    /// The configuration fixed at creation.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Distinct items seen so far.
    pub fn num_items(&self) -> usize {
        self.raw_ids.len()
    }

    /// Lifetime totals.
    pub fn totals(&self) -> &SessionTotals {
        &self.totals
    }

    /// Times the placement changed (0 = still the appearance-order
    /// identity).
    pub fn placement_version(&self) -> u64 {
        self.placement_version
    }

    /// Graph refreezes performed so far.
    pub fn refreezes(&self) -> u64 {
        self.graph.refreezes()
    }

    /// The incrementally maintained access graph.
    pub fn graph(&self) -> &DeltaGraph {
        &self.graph
    }

    /// The live placement: dense item id → tape offset.
    pub fn placement(&self) -> &[usize] {
        &self.placement
    }

    /// Raw wire ids in first-appearance (= dense id) order.
    pub fn raw_ids(&self) -> &[u32] {
        &self.raw_ids
    }

    /// Arrangement cost of the live placement on the full graph.
    pub fn current_cost(&self) -> u64 {
        self.graph.arrangement_cost(&self.placement)
    }

    /// Arrangement cost of the identity baseline on the full graph.
    pub fn naive_cost(&self) -> u64 {
        let identity: Vec<usize> = (0..self.num_items()).collect();
        self.graph.arrangement_cost(&identity)
    }

    /// Canonical fingerprint of the session's access graph, folded with
    /// the session topology (the identity for linear) so the same
    /// stream solved for different geometries never shares an identity.
    pub fn fingerprint(&self) -> Fingerprint {
        dwm_graph::fingerprint_retag(self.graph.fingerprint(), &self.config.topology.canonical())
    }

    /// `naive − (access + migration)` shifts: what adapting has saved
    /// (negative when migrations have not paid off yet).
    pub fn net_amortized_saved(&self) -> i64 {
        self.totals.naive_shifts as i64
            - (self.totals.access_shifts + self.totals.migration_shifts) as i64
    }

    /// Ingests one chunk of raw item ids, advancing the graph, the
    /// phase detector, and — at completed decision windows — the
    /// re-placement and refreeze machinery. Returns what this call
    /// changed; totals accumulate on the session.
    pub fn ingest(&mut self, ids: &[u32]) -> IngestReport {
        let mut report = IngestReport::default();
        for &raw in ids {
            let dense = self.dense_id(raw, &mut report);
            self.graph.record_access(dense);
            if let Some(prev) = self.last_item {
                if self.config.topology.is_linear() {
                    // Fast path, byte-identical to pre-topology sessions.
                    report.access_shifts +=
                        self.placement[dense].abs_diff(self.placement[prev]) as u64;
                    report.naive_shifts += dense.abs_diff(prev) as u64;
                } else {
                    // The track length a session's topology sees is the
                    // item count so far — a pure function of the stream,
                    // so chunk invariance is preserved.
                    let len = self.placement.len();
                    report.access_shifts += self.config.topology.shift_distance(
                        &self.ports,
                        len,
                        self.placement[prev],
                        self.placement[dense],
                    );
                    report.naive_shifts +=
                        self.config
                            .topology
                            .shift_distance(&self.ports, len, prev, dense);
                }
                if prev != dense {
                    self.graph.add_weight(prev, dense, 1);
                }
            }
            self.last_item = Some(dense);

            // The detector and the window buffer advance in lockstep,
            // so a confirmed boundary can only surface when the buffer
            // holds exactly one full window.
            let boundary = self.detector.push(dense as u32);
            self.window_buf.push(dense);
            if self.window_buf.len() == self.config.window {
                report.windows_completed += 1;
                if boundary.is_some() {
                    report.phase_changes += 1;
                    self.consider_replacement(&mut report);
                }
                self.window_buf.clear();
                if self.graph.maybe_refreeze(self.config.refreeze_edges) {
                    report.refreezes += 1;
                }
            }
            report.accepted += 1;
        }
        self.totals.absorb(&report);
        report
    }

    /// Looks up or assigns the dense id of a raw wire id. New items
    /// join the graph isolated and the placement at the tail offset —
    /// both no-ops for existing state, so responses stay deterministic.
    fn dense_id(&mut self, raw: u32, report: &mut IngestReport) -> usize {
        if let Some(&d) = self.remap.get(&raw) {
            return d as usize;
        }
        let dense = self.raw_ids.len();
        self.remap.insert(raw, dense as u32);
        self.raw_ids.push(raw);
        self.graph.ensure_items(dense + 1);
        self.placement.push(dense);
        report.new_items += 1;
        dense
    }

    /// Runs the benefit-vs-migration rule on the just-completed
    /// window's graph (the same construction as
    /// [`dwm_core::online::window_profiles`], over the current item
    /// count) and adopts or suppresses the candidate.
    fn consider_replacement(&mut self, report: &mut IngestReport) {
        let n = self.placement.len();
        let window_graph = GraphDigest::from_dense(n, self.window_buf.iter().copied()).to_graph();
        let placement = Placement::from_offsets(self.placement.clone())
            .expect("session placement is a permutation by construction");
        let decision = match self.replacement_solver(n, window_graph.num_edges()) {
            Some(solver) => self.placer.decide_with(&placement, &window_graph, &solver),
            None => self.placer.decide(&placement, &window_graph),
        };
        if decision.adapt {
            report.replacements += 1;
            report.migration_shifts += decision.bill;
            report.items_moved += decision.items_moved;
            self.placement = decision.candidate.offsets().to_vec();
            self.placement_version += 1;
        } else {
            report.suppressed += 1;
        }
    }

    /// The tiered candidate solver for this session's re-placements,
    /// or `None` for the legacy hybrid default. Tier choice runs the
    /// same [`anytime::plan`] budget logic as `/solve`, against the
    /// hysteresis-adjusted deadline: `replace_deadline_us / hysteresis`
    /// (a hysteresis of 0 — adopt anything — keeps the raw deadline).
    /// A pure function of the config and graph size, so chunk
    /// boundaries and wall-clock never influence the candidate.
    fn replacement_solver(&self, items: usize, edges: usize) -> Option<AnytimePlacement> {
        let quality = self.config.quality?;
        let deadline = self.config.replace_deadline_us.map(|d| {
            if self.config.hysteresis > 0.0 {
                (d as f64 / self.config.hysteresis) as u64
            } else {
                d
            }
        });
        let plan = anytime::plan(quality, deadline, items, edges);
        Some(AnytimePlacement {
            tier: plan.tier,
            seed: REPLACEMENT_SEED,
            passes: plan.passes,
        })
    }
}

const SHARDS: usize = 8;

struct Entry {
    state: Arc<Mutex<SessionState>>,
    last_used: Instant,
}

/// Aggregate counters of a [`SessionTable`], read by `/stats` and the
/// `/metrics` scrape-time callbacks — one source of truth for both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTableStats {
    /// Sessions currently resident (post TTL sweep).
    pub active: u64,
    /// Session budget (0 = unlimited).
    pub capacity: u64,
    /// Sessions ever created.
    pub created: u64,
    /// Sessions closed by DELETE.
    pub closed: u64,
    /// Sessions dropped by TTL expiry.
    pub expired: u64,
    /// Sessions evicted to stay within capacity.
    pub evicted: u64,
    /// Accesses ingested across all sessions.
    pub accesses: u64,
    /// Decision windows completed across all sessions.
    pub windows: u64,
    /// Confirmed phase changes across all sessions.
    pub phase_changes: u64,
    /// Re-placements adopted across all sessions.
    pub replacements: u64,
    /// Re-placements suppressed across all sessions.
    pub suppressed: u64,
    /// Graph refreezes across all sessions.
    pub refreezes: u64,
    /// Access shifts served across all sessions.
    pub access_shifts: u64,
    /// Identity-baseline shifts across all sessions.
    pub naive_shifts: u64,
    /// Migration shifts billed across all sessions.
    pub migration_shifts: u64,
}

/// The daemon's session registry: sharded like the
/// [`crate::cache::SolveCache`], with LRU eviction against a capacity
/// budget and lazy TTL expiry of idle sessions.
///
/// Entries hold `Arc<Mutex<SessionState>>`, so a shard lock is only
/// held for the lookup — long ingests serialize per session, not per
/// shard. Wall-clock time decides only *whether* a session still
/// exists, never what a live session answers.
pub struct SessionTable {
    shards: Vec<Mutex<HashMap<u64, Entry>>>,
    capacity: usize,
    ttl: Duration,
    next_id: AtomicU64,
    created: AtomicU64,
    closed: AtomicU64,
    expired: AtomicU64,
    evicted: AtomicU64,
    accesses: AtomicU64,
    windows: AtomicU64,
    phase_changes: AtomicU64,
    replacements: AtomicU64,
    suppressed: AtomicU64,
    refreezes: AtomicU64,
    access_shifts: AtomicU64,
    naive_shifts: AtomicU64,
    migration_shifts: AtomicU64,
}

impl SessionTable {
    /// A table holding about `capacity` sessions (0 = unlimited) that
    /// expires sessions idle longer than `ttl` (zero = never).
    pub fn new(capacity: usize, ttl: Duration) -> Self {
        SessionTable {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity,
            ttl,
            next_id: AtomicU64::new(1),
            created: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            accesses: AtomicU64::new(0),
            windows: AtomicU64::new(0),
            phase_changes: AtomicU64::new(0),
            replacements: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            refreezes: AtomicU64::new(0),
            access_shifts: AtomicU64::new(0),
            naive_shifts: AtomicU64::new(0),
            migration_shifts: AtomicU64::new(0),
        }
    }

    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Entry>> {
        &self.shards[(id as usize) % SHARDS]
    }

    /// Drops expired entries of one locked shard.
    fn sweep_shard(&self, shard: &mut HashMap<u64, Entry>) {
        if self.ttl.is_zero() {
            return;
        }
        let before = shard.len();
        shard.retain(|_, e| e.last_used.elapsed() <= self.ttl);
        self.expired
            .fetch_add((before - shard.len()) as u64, Ordering::Relaxed);
    }

    /// Creates a session and returns its id (ids start at 1 and are
    /// never reused). Evicts the least-recently-used session of the
    /// target shard if the per-shard budget is exceeded.
    pub fn create(&self, config: SessionConfig) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(id).lock().expect("session shard poisoned");
        self.sweep_shard(&mut shard);
        if self.capacity > 0 {
            let per_shard = self.capacity.div_ceil(SHARDS).max(1);
            while shard.len() >= per_shard {
                let oldest = shard
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(&k, _)| k)
                    .expect("nonempty shard has an oldest entry");
                shard.remove(&oldest);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(
            id,
            Entry {
                state: Arc::new(Mutex::new(SessionState::new(config))),
                last_used: Instant::now(),
            },
        );
        self.created.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Looks up a live session, refreshing its TTL clock. `None` for
    /// unknown, closed, evicted, or just-expired ids.
    pub fn get(&self, id: u64) -> Option<Arc<Mutex<SessionState>>> {
        let mut shard = self.shard(id).lock().expect("session shard poisoned");
        if !self.ttl.is_zero() {
            if let Some(entry) = shard.get(&id) {
                if entry.last_used.elapsed() > self.ttl {
                    shard.remove(&id);
                    self.expired.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
        let entry = shard.get_mut(&id)?;
        entry.last_used = Instant::now();
        Some(Arc::clone(&entry.state))
    }

    /// Closes a session, returning its state (for a final report).
    pub fn remove(&self, id: u64) -> Option<Arc<Mutex<SessionState>>> {
        let mut shard = self.shard(id).lock().expect("session shard poisoned");
        let entry = shard.remove(&id)?;
        self.closed.fetch_add(1, Ordering::Relaxed);
        Some(entry.state)
    }

    /// Folds one ingest's deltas into the table-level aggregates.
    pub fn record(&self, r: &IngestReport) {
        self.accesses.fetch_add(r.accepted, Ordering::Relaxed);
        self.windows
            .fetch_add(r.windows_completed, Ordering::Relaxed);
        self.phase_changes
            .fetch_add(r.phase_changes, Ordering::Relaxed);
        self.replacements
            .fetch_add(r.replacements, Ordering::Relaxed);
        self.suppressed.fetch_add(r.suppressed, Ordering::Relaxed);
        self.refreezes.fetch_add(r.refreezes, Ordering::Relaxed);
        self.access_shifts
            .fetch_add(r.access_shifts, Ordering::Relaxed);
        self.naive_shifts
            .fetch_add(r.naive_shifts, Ordering::Relaxed);
        self.migration_shifts
            .fetch_add(r.migration_shifts, Ordering::Relaxed);
    }

    /// Live session count, after sweeping expired entries.
    pub fn active(&self) -> usize {
        let mut total = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("session shard poisoned");
            self.sweep_shard(&mut shard);
            total += shard.len();
        }
        total
    }

    /// A consistent-enough snapshot of the aggregate counters.
    pub fn stats(&self) -> SessionTableStats {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        SessionTableStats {
            active: self.active() as u64,
            capacity: self.capacity as u64,
            created: get(&self.created),
            closed: get(&self.closed),
            expired: get(&self.expired),
            evicted: get(&self.evicted),
            accesses: get(&self.accesses),
            windows: get(&self.windows),
            phase_changes: get(&self.phase_changes),
            replacements: get(&self.replacements),
            suppressed: get(&self.suppressed),
            refreezes: get(&self.refreezes),
            access_shifts: get(&self.access_shifts),
            naive_shifts: get(&self.naive_shifts),
            migration_shifts: get(&self.migration_shifts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two phases: a sequential sweep over 16 items (dense ids equal
    /// appearance order, so the identity placement is near-optimal),
    /// then a ping-pong between the two items the sweep placed at
    /// opposite ends of the tape — the layout only a re-placement can
    /// fix.
    fn phased_ids(len_per_phase: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..len_per_phase).map(|i| (i % 16) as u32).collect();
        ids.extend((0..len_per_phase).map(|i| [0u32, 15][i % 2]));
        ids
    }

    fn small_config() -> SessionConfig {
        SessionConfig {
            window: 100,
            migration_shifts_per_item: 2,
            refreeze_edges: 4,
            ..SessionConfig::default()
        }
    }

    #[test]
    fn chunk_boundaries_never_change_session_state() {
        let ids = phased_ids(1000);
        let run = |chunk: usize| {
            let mut s = SessionState::new(small_config());
            for c in ids.chunks(chunk) {
                s.ingest(c);
            }
            (
                s.placement().to_vec(),
                s.raw_ids().to_vec(),
                *s.totals(),
                s.placement_version(),
                s.refreezes(),
                s.fingerprint(),
                s.current_cost(),
            )
        };
        let whole = run(usize::MAX);
        for chunk in [1, 7, 100, 333] {
            assert_eq!(run(chunk), whole, "chunk size {chunk} diverged");
        }
    }

    #[test]
    fn phase_change_triggers_a_replacement_that_pays_off() {
        let mut s = SessionState::new(small_config());
        s.ingest(&phased_ids(2000));
        let t = s.totals();
        assert!(t.phase_changes >= 1, "no phase change detected");
        assert!(t.replacements >= 1, "no re-placement adopted");
        assert!(s.placement_version() >= 1);
        assert!(
            s.net_amortized_saved() > 0,
            "adaptation did not pay off: naive {} vs access {} + migration {}",
            t.naive_shifts,
            t.access_shifts,
            t.migration_shifts
        );
    }

    #[test]
    fn raw_ids_are_remapped_densely_in_first_appearance_order() {
        let mut s = SessionState::new(SessionConfig::default());
        s.ingest(&[1000, 5, 1000, 7, 5]);
        assert_eq!(s.raw_ids(), &[1000, 5, 7]);
        assert_eq!(s.num_items(), 3);
        assert_eq!(s.placement(), &[0, 1, 2]);
        assert_eq!(s.graph().weight(0, 1), 2); // 1000↔5 adjacent twice
        assert_eq!(s.graph().weight(0, 2), 1); // 1000↔7 once
        assert_eq!(s.graph().frequency(0), 2);
    }

    #[test]
    fn accounting_is_exact_on_a_tiny_stream() {
        let mut s = SessionState::new(SessionConfig::default());
        let r = s.ingest(&[10, 20, 10, 30]);
        // Dense ids 0,1,0,2 under identity placement.
        assert_eq!(r.accepted, 4);
        assert_eq!(r.new_items, 3);
        assert_eq!(r.access_shifts, 1 + 1 + 2);
        assert_eq!(r.naive_shifts, r.access_shifts); // identity == naive
        assert_eq!(s.totals().accesses, 4);
        assert_eq!(s.net_amortized_saved(), 0);
    }

    #[test]
    fn prohibitive_migration_cost_suppresses_every_replacement() {
        let mut s = SessionState::new(SessionConfig {
            migration_shifts_per_item: u64::MAX / 1_000_000,
            ..small_config()
        });
        s.ingest(&phased_ids(2000));
        let t = s.totals();
        assert_eq!(t.replacements, 0);
        assert_eq!(t.migration_shifts, 0);
        assert!(t.suppressed >= 1, "rule never even ran");
        assert_eq!(s.placement_version(), 0);
    }

    #[test]
    fn table_evicts_lru_and_counts_expiry() {
        let table = SessionTable::new(8, Duration::ZERO); // 1 per shard, no TTL
        let first = table.create(SessionConfig::default());
        // Ids advance round-robin over the 8 shards, so the 9th create
        // lands back on `first`'s shard and evicts it (LRU of 1).
        for _ in 0..8 {
            table.create(SessionConfig::default());
        }
        assert_eq!(table.stats().created, 9);
        assert_eq!(table.stats().evicted, 1);
        assert!(table.get(first).is_none());
        assert_eq!(table.active(), 8);
    }

    #[test]
    fn table_ttl_expires_idle_sessions() {
        let table = SessionTable::new(0, Duration::from_millis(20));
        let id = table.create(SessionConfig::default());
        assert!(table.get(id).is_some());
        std::thread::sleep(Duration::from_millis(40));
        assert!(table.get(id).is_none());
        let s = table.stats();
        assert_eq!(s.expired, 1);
        assert_eq!(s.active, 0);
    }

    #[test]
    fn table_remove_reports_closed_and_ids_are_never_reused() {
        let table = SessionTable::new(0, Duration::ZERO);
        let a = table.create(SessionConfig::default());
        let b = table.create(SessionConfig::default());
        assert_ne!(a, b);
        assert!(table.remove(a).is_some());
        assert!(table.remove(a).is_none());
        assert_eq!(table.stats().closed, 1);
        let c = table.create(SessionConfig::default());
        assert!(c > b);
    }

    #[test]
    fn table_aggregates_ingest_reports() {
        let table = SessionTable::new(0, Duration::ZERO);
        let id = table.create(small_config());
        let state = table.get(id).unwrap();
        let report = state.lock().unwrap().ingest(&phased_ids(500));
        table.record(&report);
        let s = table.stats();
        assert_eq!(s.accesses, 1000);
        assert_eq!(s.windows, report.windows_completed);
        assert_eq!(s.access_shifts, report.access_shifts);
    }

    #[test]
    fn tiered_sessions_replace_deterministically_across_chunking() {
        let config = SessionConfig {
            quality: Some(Quality::Balanced),
            ..small_config()
        };
        let ids = phased_ids(1000);
        let run = |chunk: usize| {
            let mut s = SessionState::new(config);
            for c in ids.chunks(chunk) {
                s.ingest(c);
            }
            (
                s.placement().to_vec(),
                *s.totals(),
                s.placement_version(),
                s.current_cost(),
            )
        };
        let whole = run(usize::MAX);
        assert!(whole.2 >= 1, "tiered session never re-placed");
        for chunk in [1, 7, 333] {
            assert_eq!(run(chunk), whole, "chunk size {chunk} diverged");
        }
    }

    #[test]
    fn replacement_tier_follows_the_hysteresis_adjusted_budget() {
        use dwm_core::anytime::{estimate_us, Tier};
        let mk = |hysteresis: f64, deadline: Option<u64>| {
            SessionState::new(SessionConfig {
                quality: Some(Quality::Balanced),
                replace_deadline_us: deadline,
                hysteresis,
                ..small_config()
            })
        };
        let solver_tier = |s: &SessionState| s.replacement_solver(16, 40).unwrap().tier;
        // No deadline → full-pass tier 1.
        assert_eq!(solver_tier(&mk(1.0, None)), Tier::Refined);
        // An unmeetable deadline still answers from the fast path.
        assert_eq!(solver_tier(&mk(1.0, Some(1))), Tier::Fast);
        // A deadline that exactly fits tier 1 at hysteresis 1…
        let fits = estimate_us(Tier::Refined, 16, 40);
        assert_eq!(solver_tier(&mk(1.0, Some(fits))), Tier::Refined);
        // …stops fitting once a conservative hysteresis halves the
        // effective budget…
        assert_eq!(solver_tier(&mk(2.0, Some(fits))), Tier::Fast);
        // …and a lax hysteresis stretches it.
        assert_eq!(solver_tier(&mk(0.5, Some(fits / 2))), Tier::Refined);
        // Hysteresis 0 (adopt anything) keeps the raw deadline.
        assert_eq!(solver_tier(&mk(0.0, Some(fits))), Tier::Refined);
        // Fast quality ignores the budget entirely.
        let fast = SessionState::new(SessionConfig {
            quality: Some(Quality::Fast),
            ..small_config()
        });
        assert_eq!(fast.replacement_solver(16, 40).unwrap().tier, Tier::Fast);
        // Legacy sessions have no tiered solver at all.
        assert!(SessionState::new(small_config())
            .replacement_solver(16, 40)
            .is_none());
    }

    #[test]
    fn ring_sessions_stay_chunk_invariant_and_account_circularly() {
        let config = SessionConfig {
            topology: Topology::parse("ring").unwrap(),
            ..small_config()
        };
        let ids = phased_ids(1000);
        let run = |chunk: usize| {
            let mut s = SessionState::new(config);
            for c in ids.chunks(chunk) {
                s.ingest(c);
            }
            (s.placement().to_vec(), *s.totals(), s.fingerprint())
        };
        let whole = run(usize::MAX);
        for chunk in [1, 7, 333] {
            assert_eq!(run(chunk), whole, "chunk size {chunk} diverged");
        }
        // Same stream under the linear default: more access shifts (the
        // ring wraps the 0↔15 ping-pong) and a different fingerprint
        // (the topology is folded into the identity).
        let mut linear = SessionState::new(small_config());
        for c in ids.chunks(333) {
            linear.ingest(c);
        }
        assert!(linear.totals().naive_shifts > whole.1.naive_shifts);
        assert_ne!(linear.fingerprint(), whole.2);
    }

    #[test]
    #[should_panic(expected = "invalid session config")]
    fn zero_window_config_rejected() {
        let _ = SessionState::new(SessionConfig {
            window: 0,
            ..SessionConfig::default()
        });
    }
}
