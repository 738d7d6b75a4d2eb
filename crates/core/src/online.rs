//! Online (adaptive) placement with migration accounting.
//!
//! Static placement fixes the layout once, from a profile of the whole
//! run. Real workloads have *phases*: the access graph of one phase can
//! be useless for the next. The [`OnlinePlacer`] processes the trace in
//! windows, and at each window boundary decides whether re-placing data
//! (paying an explicit per-item migration cost in shifts) beats keeping
//! the current layout — the classic benefit-vs-migration tradeoff,
//! reproduced here as the "dynamic placement" extension experiment
//! (F10).
//!
//! The decision rule is conservative and deterministic: re-place when
//! the *observed* window's cost under the current placement exceeds its
//! cost under a freshly computed placement by more than the migration
//! bill, assuming the next window resembles the current one (a
//! one-window lookbehind predictor).
//!
//! **Limitation.** The lookbehind premise fails on workloads whose
//! pattern churns every window (e.g. FFT stages, each with a different
//! butterfly stride): adapting to the previous stage actively hurts
//! the next, and the placer can end up *behind* the static baseline.
//! Raise `hysteresis` or the migration cost to suppress adaptation on
//! such workloads; the F10 experiment shows the favourable case
//! (phases lasting many windows), and the integration tests pin down
//! both behaviours.

use dwm_device::Topology;
use dwm_graph::{AccessGraph, GraphDigest};
use dwm_trace::Trace;

use crate::algorithms::{Hybrid, PlacementAlgorithm};
use crate::cost::TopologyCost;
use crate::placement::Placement;

/// Tuning and cost parameters for online placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Window length in accesses.
    pub window: usize,
    /// Shift cost charged for migrating one item to a new offset
    /// (covers the read-out and write-back alignments). The default of
    /// 2× a half-tape traversal (= one full tape length) is the
    /// worst-case bound for a 64-word tape.
    pub migration_shifts_per_item: u64,
    /// Hysteresis factor: predicted per-window saving must exceed
    /// `migration_bill / horizon_windows` by this multiple.
    pub hysteresis: f64,
    /// Number of future windows the saving is assumed to persist for.
    pub horizon_windows: u64,
    /// Track topology the tape is replayed (and the decision rule
    /// costed) under. The default [`Topology::linear`] reproduces the
    /// legacy behaviour byte for byte.
    pub topology: Topology,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            window: 512,
            migration_shifts_per_item: 64,
            hysteresis: 1.0,
            horizon_windows: 4,
            topology: Topology::linear(),
        }
    }
}

/// Precomputed per-window views of a trace, in structure-of-arrays
/// form: window `i`'s accesses (for replay costing) live in one array,
/// its access graph over the full item space (for candidate placement
/// and cost comparison) in a parallel one. The replay loop streams the
/// trace array while the decision step reads only the graph array, so
/// each consumer touches one contiguous allocation instead of
/// interleaved trace/graph pairs — and configuration sweeps that only
/// re-run the decision rule ([`WindowProfiles::graphs`]) never pull
/// window traces through the cache at all.
///
/// Profiles depend only on the trace and the window length — not on
/// any placer configuration — so one precomputation can be shared
/// across a sweep of [`OnlinePlacer`] settings
/// (see [`window_profiles`] and [`OnlinePlacer::run_profiles`]),
/// instead of re-deriving the same graphs per configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowProfiles {
    /// Each window's accesses as a standalone trace.
    traces: Vec<Trace>,
    /// Each window's access graph over all `n` items, parallel to
    /// `traces`.
    graphs: Vec<AccessGraph>,
}

impl WindowProfiles {
    /// Number of windows.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the source trace was empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Window `i`'s accesses as a standalone trace.
    pub fn trace(&self, i: usize) -> &Trace {
        &self.traces[i]
    }

    /// Window `i`'s access graph over the full item space.
    pub fn graph(&self, i: usize) -> &AccessGraph {
        &self.graphs[i]
    }

    /// The per-window graphs alone — the decision-rule array, for
    /// sweeps that never replay accesses.
    pub fn graphs(&self) -> &[AccessGraph] {
        &self.graphs
    }

    /// Paired `(trace, graph)` views in window order.
    pub fn iter(&self) -> impl Iterator<Item = (&Trace, &AccessGraph)> {
        self.traces.iter().zip(&self.graphs)
    }
}

/// Precomputes the per-window profiles of `trace`: one trace/graph
/// pair per `window`-access chunk (the last may be shorter), each
/// graph built over `n` items — the exact structures
/// [`OnlinePlacer::run`] derives internally, stored SoA.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn window_profiles(trace: &Trace, window: usize, n: usize) -> WindowProfiles {
    assert!(window > 0, "window must be nonzero");
    let mut profiles = WindowProfiles::default();
    for chunk in trace.accesses().chunks(window) {
        let graph = GraphDigest::from_dense(n, chunk.iter().map(|a| a.item.index())).to_graph();
        profiles
            .traces
            .push(Trace::from_accesses(chunk.iter().copied()));
        profiles.graphs.push(graph);
    }
    profiles
}

/// The adaptation decision for one observed window.
///
/// Produced by [`OnlinePlacer::decide`]; `adapt` is the verdict of the
/// benefit-vs-migration rule, the other fields expose its inputs so
/// callers (the serve session subsystem, experiments) can account for
/// the bill and the projection without re-deriving them.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The freshly computed placement for the observed window.
    pub candidate: Placement,
    /// The window's arrangement cost under the incumbent placement.
    pub current_cost: u64,
    /// The window's arrangement cost under the candidate.
    pub candidate_cost: u64,
    /// Items whose offset differs between incumbent and candidate.
    pub items_moved: u64,
    /// Migration bill in shifts (`items_moved ×
    /// migration_shifts_per_item`).
    pub bill: u64,
    /// Projected saving over the horizon
    /// (`(current − candidate) × horizon_windows`).
    pub predicted_saving: u64,
    /// Whether the rule says to adopt the candidate.
    pub adapt: bool,
}

/// Outcome of an online-placement run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineReport {
    /// Shifts spent serving accesses.
    pub access_shifts: u64,
    /// Shifts spent migrating data at re-placement points.
    pub migration_shifts: u64,
    /// Number of re-placement events.
    pub migrations: u64,
    /// Total items moved across all migrations.
    pub items_moved: u64,
    /// The placement in force after the last window.
    pub final_placement: Placement,
}

impl OnlineReport {
    /// Total shift bill: accesses plus migrations.
    pub fn total_shifts(&self) -> u64 {
        self.access_shifts + self.migration_shifts
    }
}

/// Windowed adaptive placer; see the module docs.
///
/// # Example
///
/// ```
/// use dwm_trace::Trace;
/// use dwm_core::online::{OnlineConfig, OnlinePlacer};
///
/// // Two phases over disjoint, far-apart hot pairs.
/// let mut ids: Vec<u32> = (0..600).map(|i| [0, 5][i % 2]).collect();
/// ids.extend((0..600).map(|i| [2, 7][i % 2]));
/// let trace = Trace::from_ids(ids);
/// let report = OnlinePlacer::new(OnlineConfig {
///     window: 200,
///     migration_shifts_per_item: 4,
///     ..OnlineConfig::default()
/// })
/// .run(&trace);
/// assert!(report.migrations >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlinePlacer {
    config: OnlineConfig,
}

impl OnlinePlacer {
    /// A placer with the given configuration.
    pub fn new(config: OnlineConfig) -> Self {
        assert!(config.window > 0, "window must be nonzero");
        OnlinePlacer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Replays `trace` window by window, re-placing when predicted
    /// savings exceed the migration bill. The first window runs under
    /// the naive identity placement (nothing is known yet).
    pub fn run(&self, trace: &Trace) -> OnlineReport {
        let n = trace.num_items();
        self.run_profiles(n, &window_profiles(trace, self.config.window, n))
    }

    /// Runs the window loop over precomputed [`WindowProfiles`] —
    /// byte-identical to [`run`](Self::run) on the trace the profiles
    /// came from, but shareable across a sweep of configurations with
    /// the same window length (the profile precomputation dominates
    /// replays over many settings).
    pub fn run_profiles(&self, n: usize, profiles: &WindowProfiles) -> OnlineReport {
        let mut placement = Placement::identity(n);
        let model = TopologyCost::single_port(self.config.topology, n);

        let mut access_shifts = 0u64;
        let mut migration_shifts = 0u64;
        let mut migrations = 0u64;
        let mut items_moved = 0u64;

        for (trace, graph) in profiles.iter() {
            // Serve the window under the current placement. Item ids in
            // the window are global, placement covers all n items.
            access_shifts += model.trace_cost(&placement, trace).stats.shifts;

            // Decide whether to re-place for the (assumed similar)
            // next window.
            let decision = self.decide(&placement, graph);
            if decision.adapt {
                migration_shifts += decision.bill;
                migrations += 1;
                items_moved += decision.items_moved;
                placement = decision.candidate;
            }
        }

        OnlineReport {
            access_shifts,
            migration_shifts,
            migrations,
            items_moved,
            final_placement: placement,
        }
    }

    /// Applies the benefit-vs-migration rule to one observed window:
    /// solves the window's graph for a candidate placement and compares
    /// the projected saving against the hysteresis-scaled migration
    /// bill. This is the single decision point shared by
    /// [`run`](Self::run) and the streaming session subsystem in
    /// `dwm-serve` — the solver ([`Hybrid`]) is deterministic, so the
    /// decision is a pure function of `(placement, window_graph,
    /// config)`.
    pub fn decide(&self, placement: &Placement, window_graph: &AccessGraph) -> Decision {
        self.decide_with(placement, window_graph, &Hybrid::default())
    }

    /// [`decide`](Self::decide) with an explicit candidate solver —
    /// the tiered anytime portfolio plugs in here so a streaming
    /// session can pick its re-placement tier by budget. The decision
    /// stays a pure function of `(placement, window_graph, config,
    /// solver)` as long as the solver is deterministic.
    pub fn decide_with(
        &self,
        placement: &Placement,
        window_graph: &AccessGraph,
        solver: &dyn PlacementAlgorithm,
    ) -> Decision {
        let n = window_graph.num_items();
        let candidate = solver.place(window_graph);
        let (current_cost, candidate_cost) = if self.config.topology.is_linear() {
            (
                window_graph.arrangement_cost(placement.offsets()),
                window_graph.arrangement_cost(candidate.offsets()),
            )
        } else {
            let model = TopologyCost::single_port(self.config.topology, n);
            (
                model.graph_cost(placement, window_graph),
                model.graph_cost(&candidate, window_graph),
            )
        };
        let items_moved: u64 = (0..n)
            .filter(|&i| placement.offset_of(i) != candidate.offset_of(i))
            .count() as u64;
        // Both knobs come from untrusted session bodies: a prohibitive
        // cost saturates the bill, which then suppresses the re-placement.
        let bill = items_moved.saturating_mul(self.config.migration_shifts_per_item);
        let predicted_saving = current_cost
            .saturating_sub(candidate_cost)
            .saturating_mul(self.config.horizon_windows);
        let adapt =
            items_moved > 0 && predicted_saving as f64 > self.config.hysteresis * bill as f64;
        Decision {
            candidate,
            current_cost,
            candidate_cost,
            items_moved,
            bill,
            predicted_saving,
            adapt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwm_trace::synth::{MarkovGen, TraceGenerator, UniformGen};

    /// Two-phase workload: hot pairs move between phases. Ids are kept
    /// un-normalized so the identity placement really does scatter the
    /// hot pairs across the tape.
    fn phased_trace() -> Trace {
        let mut ids: Vec<u32> = Vec::new();
        // Phase 1: ping-pong between far-apart items 0 and 30.
        ids.extend((0..2000).map(|i| [0u32, 30][i % 2]));
        // Phase 2: ping-pong between 7 and 23.
        ids.extend((0..2000).map(|i| [7u32, 23][i % 2]));
        Trace::from_ids(ids)
    }

    #[test]
    fn adapts_to_phase_changes() {
        let report = OnlinePlacer::new(OnlineConfig {
            window: 500,
            migration_shifts_per_item: 8,
            ..OnlineConfig::default()
        })
        .run(&phased_trace());
        assert!(report.migrations >= 1, "never adapted");
        // The adaptive run must beat the naive static placement by a
        // wide margin: naive pays ~30 shifts per access forever.
        let naive = TopologyCost::single_port(Topology::linear(), 31)
            .trace_cost(&Placement::identity(31), &phased_trace())
            .stats
            .shifts;
        assert!(
            report.total_shifts() < naive / 2,
            "online {} vs naive {naive}",
            report.total_shifts()
        );
    }

    #[test]
    fn stable_workload_converges_to_few_migrations() {
        let trace = MarkovGen::new(32, 4, 3).generate(8000).normalize();
        let report = OnlinePlacer::new(OnlineConfig::default()).run(&trace);
        // One adaptation away from the identity start is expected;
        // after that the layout should stick.
        assert!(report.migrations <= 3, "{} migrations", report.migrations);
    }

    #[test]
    fn prohibitive_migration_cost_disables_adaptation() {
        let report = OnlinePlacer::new(OnlineConfig {
            migration_shifts_per_item: u64::MAX / 1_000_000,
            ..OnlineConfig::default()
        })
        .run(&phased_trace());
        assert_eq!(report.migrations, 0);
        assert_eq!(report.migration_shifts, 0);
    }

    #[test]
    fn report_totals_are_consistent() {
        let trace = UniformGen::new(16, 2).generate(3000).normalize();
        let report = OnlinePlacer::new(OnlineConfig::default()).run(&trace);
        assert_eq!(
            report.total_shifts(),
            report.access_shifts + report.migration_shifts
        );
        assert_eq!(report.final_placement.num_items(), 16);
    }

    #[test]
    #[should_panic(expected = "window must be nonzero")]
    fn zero_window_rejected() {
        let _ = OnlinePlacer::new(OnlineConfig {
            window: 0,
            ..OnlineConfig::default()
        });
    }

    #[test]
    fn empty_trace_is_a_no_op() {
        let report = OnlinePlacer::new(OnlineConfig::default()).run(&Trace::new());
        assert_eq!(report.total_shifts(), 0);
        assert_eq!(report.migrations, 0);
    }

    /// The decision rule requires the predicted saving to *strictly*
    /// exceed the migration bill. This test engineers exact equality by
    /// mirroring the placer's window-graph construction, then checks
    /// both sides of the boundary: equality keeps the layout, one shift
    /// cheaper flips it.
    #[test]
    fn saving_equal_to_bill_is_not_enough_to_adapt() {
        // One window of ping-pong between far-apart items, so the
        // candidate placement differs from identity and saves shifts.
        let ids: Vec<u32> = (0..400).map(|i| [0u32, 30][i % 2]).collect();
        let trace = Trace::from_ids(ids);
        let n = trace.num_items();

        // Mirror OnlinePlacer::run's window graph for the single chunk.
        let accesses = trace.accesses();
        let window_graph = window_profiles(&trace, accesses.len(), n).graph(0).clone();
        let identity = Placement::identity(n);
        let candidate = Hybrid::default().place(&window_graph);
        let current_cost = window_graph.arrangement_cost(identity.offsets());
        let candidate_cost = window_graph.arrangement_cost(candidate.offsets());
        let delta = current_cost - candidate_cost;
        let moved = (0..n)
            .filter(|&i| identity.offset_of(i) != candidate.offset_of(i))
            .count() as u64;
        assert!(delta > 1, "degenerate fixture: no saving to trade off");
        assert!(moved > 0, "degenerate fixture: candidate equals identity");

        // With horizon = moved, predicted saving is delta × moved and
        // the bill is moved × per-item cost, so per-item cost = delta
        // makes the two sides exactly equal.
        let run = |migration_shifts_per_item| {
            OnlinePlacer::new(OnlineConfig {
                window: accesses.len(),
                migration_shifts_per_item,
                hysteresis: 1.0,
                horizon_windows: moved,
                ..OnlineConfig::default()
            })
            .run(&trace)
        };
        let at_boundary = run(delta);
        assert_eq!(at_boundary.migrations, 0, "equality must not adapt");
        assert_eq!(at_boundary.migration_shifts, 0);
        let below_boundary = run(delta - 1);
        assert_eq!(below_boundary.migrations, 1, "one shift cheaper must adapt");
        assert_eq!(below_boundary.migration_shifts, moved * (delta - 1));
        assert_eq!(below_boundary.items_moved, moved);
    }

    /// The pre-refactor window loop, kept verbatim as a reference
    /// implementation: `run` (now window-profiles + `decide`) must
    /// reproduce it report for report, placement for placement.
    fn reference_run(config: &OnlineConfig, trace: &Trace) -> OnlineReport {
        let n = trace.num_items();
        let mut placement = Placement::identity(n);
        let model = TopologyCost::single_port(Topology::linear(), n);
        let algorithm = Hybrid::default();
        let mut access_shifts = 0u64;
        let mut migration_shifts = 0u64;
        let mut migrations = 0u64;
        let mut items_moved = 0u64;
        for chunk in trace.accesses().chunks(config.window) {
            let window_trace = Trace::from_accesses(chunk.iter().copied());
            access_shifts += model.trace_cost(&placement, &window_trace).stats.shifts;
            let mut frequency = vec![0u64; n];
            for a in chunk {
                frequency[a.item.index()] += 1;
            }
            let transitions = chunk.windows(2).filter_map(|pair| {
                let (u, v) = (pair[0].item.index(), pair[1].item.index());
                (u != v).then_some((u, v, 1))
            });
            let window_graph = AccessGraph::from_edges(frequency, transitions);
            let candidate = algorithm.place(&window_graph);
            let current_cost = window_graph.arrangement_cost(placement.offsets());
            let candidate_cost = window_graph.arrangement_cost(candidate.offsets());
            let moved: u64 = (0..n)
                .filter(|&i| placement.offset_of(i) != candidate.offset_of(i))
                .count() as u64;
            let bill = moved * config.migration_shifts_per_item;
            let predicted_saving =
                current_cost.saturating_sub(candidate_cost) * config.horizon_windows;
            if moved > 0 && predicted_saving as f64 > config.hysteresis * bill as f64 {
                migration_shifts += bill;
                migrations += 1;
                items_moved += moved;
                placement = candidate;
            }
        }
        OnlineReport {
            access_shifts,
            migration_shifts,
            migrations,
            items_moved,
            final_placement: placement,
        }
    }

    #[test]
    fn profile_based_run_reproduces_the_reference_loop_exactly() {
        let configs = [
            OnlineConfig {
                window: 500,
                migration_shifts_per_item: 8,
                ..OnlineConfig::default()
            },
            OnlineConfig {
                window: 333, // ragged final window
                hysteresis: 2.5,
                ..OnlineConfig::default()
            },
            OnlineConfig::default(),
        ];
        let traces = [
            phased_trace(),
            MarkovGen::new(32, 4, 3).generate(4000).normalize(),
            Trace::new(),
        ];
        for config in &configs {
            let placer = OnlinePlacer::new(*config);
            for trace in &traces {
                assert_eq!(
                    placer.run(trace),
                    reference_run(config, trace),
                    "window {} diverged from the reference loop",
                    config.window
                );
            }
        }
    }

    #[test]
    fn shared_profiles_replay_identically_across_configs() {
        // One profile set, many configurations — the dedupe pattern
        // exp_f10 uses. Each must equal its own full run.
        let trace = phased_trace();
        let n = trace.num_items();
        let profiles = window_profiles(&trace, 500, n);
        for hysteresis in [0.5, 1.0, 4.0] {
            let placer = OnlinePlacer::new(OnlineConfig {
                window: 500,
                migration_shifts_per_item: 8,
                hysteresis,
                ..OnlineConfig::default()
            });
            assert_eq!(placer.run_profiles(n, &profiles), placer.run(&trace));
        }
    }

    /// A ring topology wraps end-to-end ping-pong in one step, so the
    /// same workload costs far fewer access shifts than under the
    /// default linear tape; the default config stays byte-identical to
    /// the legacy (linear) behaviour.
    #[test]
    fn ring_topology_cheapens_wraparound_workloads() {
        let ids: Vec<u32> = (0..2000).map(|i| [0u32, 30][i % 2]).collect();
        let trace = Trace::from_ids(ids);
        let base = OnlineConfig {
            window: 500,
            migration_shifts_per_item: 8,
            ..OnlineConfig::default()
        };
        let linear = OnlinePlacer::new(base).run(&trace);
        let ring = OnlinePlacer::new(OnlineConfig {
            topology: Topology::parse("ring").unwrap(),
            ..base
        })
        .run(&trace);
        assert!(
            ring.total_shifts() < linear.total_shifts(),
            "ring {} vs linear {}",
            ring.total_shifts(),
            linear.total_shifts()
        );
    }

    /// On a workload whose hot pair churns every single window, the
    /// one-window lookbehind predictor is always wrong. A large enough
    /// hysteresis factor suppresses every adaptation (and its
    /// migration bill), where the default setting keeps chasing phases.
    #[test]
    fn hysteresis_suppresses_adaptation_on_churning_phases() {
        let mut ids: Vec<u32> = Vec::new();
        for phase in 0..10 {
            let pair = if phase % 2 == 0 {
                [0u32, 30]
            } else {
                [7u32, 23]
            };
            ids.extend((0..200).map(|i| pair[i % 2]));
        }
        let trace = Trace::from_ids(ids);
        let run = |hysteresis| {
            OnlinePlacer::new(OnlineConfig {
                window: 200,
                migration_shifts_per_item: 2,
                hysteresis,
                ..OnlineConfig::default()
            })
            .run(&trace)
        };

        let eager = run(1.0);
        assert!(
            eager.migrations >= 2,
            "fixture too tame: default hysteresis only migrated {} times",
            eager.migrations
        );
        let damped = run(1e6);
        assert_eq!(damped.migrations, 0);
        assert_eq!(damped.migration_shifts, 0);
        assert_eq!(damped.items_moved, 0);
        // With adaptation fully suppressed, the run degenerates to the
        // static identity placement, window by window (the head resets
        // at window boundaries, so sum the per-window costs).
        let model = TopologyCost::single_port(Topology::linear(), trace.num_items());
        let identity = Placement::identity(trace.num_items());
        let naive: u64 = trace
            .accesses()
            .chunks(200)
            .map(|chunk| {
                let window = Trace::from_accesses(chunk.iter().copied());
                model.trace_cost(&identity, &window).stats.shifts
            })
            .sum();
        assert_eq!(damped.access_shifts, naive);
    }
}
