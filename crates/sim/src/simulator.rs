use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use dwm_core::spm::SpmLayout;
use dwm_core::Placement;
use dwm_device::fault::{FaultInjector, ShiftFaultModel};
use dwm_device::{CostProjection, Dbc, DeviceConfig, DeviceError};
use dwm_foundation::par;
use dwm_trace::Trace;

use crate::report::SimReport;
use crate::scratchpad::Scratchpad;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The trace references an item the placement does not cover.
    UnknownItem {
        /// The out-of-range item index.
        item: usize,
        /// Number of items the placement covers.
        items: usize,
    },
    /// The placement does not fit the configured device geometry.
    GeometryMismatch {
        /// Human-readable explanation.
        reason: String,
    },
    /// An underlying device access failed.
    Device(DeviceError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownItem { item, items } => {
                write!(f, "trace item {item} outside placement of {items} items")
            }
            SimError::GeometryMismatch { reason } => {
                write!(f, "placement does not fit device: {reason}")
            }
            SimError::Device(e) => write!(f, "device access failed: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for SimError {
    fn from(e: DeviceError) -> Self {
        SimError::Device(e)
    }
}

/// Replays traces through a bit-level scratchpad under a placement.
///
/// The simulator is *self-checking*: each write stores a token derived
/// from the item id and a per-item version counter, and each read
/// compares the device's answer against a shadow model. Any divergence
/// increments `integrity_errors` in the report — placements that
/// corrupt the item↔offset mapping cannot silently pass.
#[derive(Debug, Clone)]
pub struct SpmSimulator {
    spm: Scratchpad,
    /// `slot_of[item] = (dbc, offset)`.
    slot_of: Vec<(usize, usize)>,
    /// Shadow model of the last value written per item.
    shadow: Vec<u64>,
    /// Per-item write version, used to derive distinguishable tokens.
    version: Vec<u64>,
    /// Mask of representable bits given the track count.
    word_mask: u64,
    /// Optional shift-slip injector (fault-injection runs).
    injector: Option<FaultInjector>,
}

impl SpmSimulator {
    /// Builds a simulator for a single-DBC device and a single-tape
    /// placement.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::GeometryMismatch`] when the placement needs
    /// more words than one DBC provides, or when the config has more
    /// than one DBC (use [`SpmSimulator::with_layout`] for multi-DBC).
    pub fn new(config: &DeviceConfig, placement: &Placement) -> Result<Self, SimError> {
        if config.dbcs() != 1 {
            return Err(SimError::GeometryMismatch {
                reason: format!(
                    "config has {} DBCs; single-tape simulation needs exactly 1",
                    config.dbcs()
                ),
            });
        }
        if placement.num_items() > config.words_per_dbc() {
            return Err(SimError::GeometryMismatch {
                reason: format!(
                    "{} items exceed the {}-word DBC",
                    placement.num_items(),
                    config.words_per_dbc()
                ),
            });
        }
        let slot_of = (0..placement.num_items())
            .map(|i| (0usize, placement.offset_of(i)))
            .collect();
        Ok(Self::from_parts(config, slot_of))
    }

    /// Builds a simulator for an identity placement over `items` items
    /// (the naive baseline).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpmSimulator::new`].
    pub fn with_identity_placement(config: &DeviceConfig, items: usize) -> Result<Self, SimError> {
        SpmSimulator::new(config, &Placement::identity(items))
    }

    /// Builds a simulator for a multi-DBC layout.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::GeometryMismatch`] when the layout's
    /// geometry disagrees with the device configuration.
    pub fn with_layout(config: &DeviceConfig, layout: &SpmLayout) -> Result<Self, SimError> {
        if layout.dbcs() != config.dbcs() || layout.words_per_dbc() != config.words_per_dbc() {
            return Err(SimError::GeometryMismatch {
                reason: format!(
                    "layout is {}×{} but device is {}×{}",
                    layout.dbcs(),
                    layout.words_per_dbc(),
                    config.dbcs(),
                    config.words_per_dbc()
                ),
            });
        }
        let slot_of = (0..layout.num_items())
            .map(|i| (layout.dbc_of(i), layout.offset_of(i)))
            .collect();
        Ok(Self::from_parts(config, slot_of))
    }

    fn from_parts(config: &DeviceConfig, slot_of: Vec<(usize, usize)>) -> Self {
        let n = slot_of.len();
        let width = config.tracks_per_dbc();
        SpmSimulator {
            spm: Scratchpad::new(config),
            slot_of,
            shadow: vec![0; n],
            version: vec![0; n],
            word_mask: if width >= 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            },
            injector: None,
        }
    }

    /// Enables shift-slip fault injection for subsequent
    /// [`run`](Self::run)s. Each access's shift distance is sampled for
    /// slips; a slip physically displaces the tape, and the next access
    /// pays the re-alignment (see
    /// [`Dbc::inject_displacement_error`](dwm_device::Dbc::inject_displacement_error)).
    pub fn with_fault_injection(mut self, model: ShiftFaultModel, seed: u64) -> Self {
        self.injector = Some(FaultInjector::new(model, seed));
        self
    }

    /// The underlying scratchpad (for inspecting per-DBC state).
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.spm
    }

    /// Replays `trace`, returning counters, latency/energy projection,
    /// and the integrity-check result. Counters accumulate across
    /// calls until [`reset`](Self::reset).
    ///
    /// Multi-DBC replays run one worker per DBC when `DWM_THREADS`
    /// allows (DBCs shift independently, so the per-DBC access
    /// subsequences never interact); the report is merged in DBC order
    /// and is byte-identical to the sequential replay at any worker
    /// count. Fault-injection runs always replay sequentially: the
    /// injector draws one slip per access from a single RNG stream, so
    /// its results are defined by trace order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownItem`] if the trace touches an item
    /// outside the placement, or a device error bubbled up from the
    /// bit-level model.
    pub fn run(&mut self, trace: &Trace) -> Result<SimReport, SimError> {
        accesses_counter().add(trace.len() as u64);
        if self.injector.is_none() && self.spm.num_dbcs() > 1 && par::num_threads() > 1 {
            return self.run_parallel(trace);
        }
        let hist = shift_distance_histogram();
        let mut integrity_errors = 0u64;
        let mut slip_events = 0u64;
        for a in trace.iter() {
            let item = a.item.index();
            let (dbc, offset) = *self.slot_of.get(item).ok_or(SimError::UnknownItem {
                item,
                items: self.slot_of.len(),
            })?;
            let shifts_before = self.spm.dbc_stats(dbc).shifts;
            if a.kind.is_write() {
                self.version[item] += 1;
                let token = write_token(item, self.version[item], self.word_mask);
                self.spm.write(dbc, offset, token)?;
                self.shadow[item] = token;
            } else {
                let value = self.spm.read(dbc, offset)?;
                if value != self.shadow[item] {
                    integrity_errors += 1;
                }
            }
            let distance = self.spm.dbc_stats(dbc).shifts - shifts_before;
            hist.record(distance);
            if let Some(injector) = &mut self.injector {
                let (net, events) = injector.draw_slip(distance);
                slip_events += events;
                if net != 0 {
                    self.spm.inject_displacement_error(dbc, net);
                }
            }
        }
        self.report(integrity_errors, slip_events)
    }

    /// Parallel multi-DBC replay: the trace is split into per-DBC
    /// access subsequences, each DBC (with the shadow state of the
    /// items living on it) is simulated on its own worker, and the
    /// outcomes merge back in DBC order.
    fn run_parallel(&mut self, trace: &Trace) -> Result<SimReport, SimError> {
        let num_dbcs = self.spm.num_dbcs();
        // Validate and bucket accesses up front; order within each DBC
        // is trace order, which is all the per-DBC state depends on.
        let mut accesses_of: Vec<Vec<(usize, bool, usize)>> = vec![Vec::new(); num_dbcs];
        for a in trace.iter() {
            let item = a.item.index();
            let (dbc, offset) = *self.slot_of.get(item).ok_or(SimError::UnknownItem {
                item,
                items: self.slot_of.len(),
            })?;
            accesses_of[dbc].push((offset, a.kind.is_write(), item));
        }
        // Each unit owns one DBC plus the shadow/version entries of the
        // items placed on it — disjoint by construction.
        let mut state_of: Vec<HashMap<usize, (u64, u64)>> = vec![HashMap::new(); num_dbcs];
        for (item, &(dbc, _)) in self.slot_of.iter().enumerate() {
            state_of[dbc].insert(item, (self.shadow[item], self.version[item]));
        }
        struct Unit<'a> {
            dbc: &'a mut Dbc,
            accesses: Vec<(usize, bool, usize)>,
            /// `item -> (shadow value, write version)`.
            state: HashMap<usize, (u64, u64)>,
        }
        let word_mask = self.word_mask;
        let mut units: Vec<Unit<'_>> = self
            .spm
            .dbcs_mut()
            .iter_mut()
            .zip(accesses_of.into_iter().zip(state_of))
            .map(|(dbc, (accesses, state))| Unit {
                dbc,
                accesses,
                state,
            })
            .collect();
        let hist = shift_distance_histogram();
        let outcomes: Vec<Result<u64, DeviceError>> = par::par_map_mut(&mut units, |_, unit| {
            let mut integrity_errors = 0u64;
            for &(offset, is_write, item) in &unit.accesses {
                let (shadow, version) = unit.state.get_mut(&item).expect("item lives on this DBC");
                let shifts_before = unit.dbc.stats().shifts;
                if is_write {
                    *version += 1;
                    let token = write_token(item, *version, word_mask);
                    unit.dbc.write(offset, token)?;
                    *shadow = token;
                } else if unit.dbc.read(offset)? != *shadow {
                    integrity_errors += 1;
                }
                hist.record(unit.dbc.stats().shifts - shifts_before);
            }
            Ok(integrity_errors)
        });
        // Merge in DBC order: shadow state back into the flat arrays,
        // integrity counts summed, first device error (by DBC index)
        // reported.
        let mut integrity_errors = 0u64;
        for unit in units {
            for (item, (shadow, version)) in unit.state {
                self.shadow[item] = shadow;
                self.version[item] = version;
            }
        }
        for outcome in outcomes {
            integrity_errors += outcome?;
        }
        self.report(integrity_errors, 0)
    }

    fn report(&self, integrity_errors: u64, slip_events: u64) -> Result<SimReport, SimError> {
        let stats = self.spm.total_stats();
        let projection = CostProjection::new(self.spm.config());
        Ok(SimReport {
            stats,
            per_dbc: (0..self.spm.num_dbcs())
                .map(|d| *self.spm.dbc_stats(d))
                .collect(),
            latency: projection.latency(&stats),
            energy: projection.energy(&stats),
            integrity_errors,
            slip_events,
        })
    }

    /// Clears counters and shadow state (device contents are zeroed
    /// logically by resetting versions).
    pub fn reset(&mut self) {
        self.spm.reset_stats();
        self.shadow.iter_mut().for_each(|v| *v = 0);
        self.version.iter_mut().for_each(|v| *v = 0);
    }
}

/// Accesses replayed across all simulator runs in this process.
pub(crate) fn accesses_counter() -> &'static dwm_foundation::obs::Counter {
    dwm_foundation::obs_counter!(
        "dwm_sim_accesses_total",
        "Trace accesses replayed through the bit-level device model"
    )
}

/// Distribution of shift distances (domains moved per access) — the
/// paper's cost metric, observed at device level.
pub(crate) fn shift_distance_histogram() -> &'static dwm_foundation::obs::Histogram {
    dwm_foundation::obs_histogram!(
        "dwm_sim_shift_distance",
        "Domains shifted per simulated access (the paper's cost metric)"
    )
}

/// Token stored on a write: mixes item and version so stale or
/// misplaced data is distinguishable on read-back.
fn write_token(item: usize, version: u64, word_mask: u64) -> u64 {
    (item as u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(version)
        & word_mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwm_core::{GroupedChainGrowth, Hybrid, PlacementAlgorithm, TopologyCost};
    use dwm_device::Topology;
    use dwm_graph::AccessGraph;
    use dwm_trace::kernels::Kernel;

    fn config(l: usize) -> DeviceConfig {
        DeviceConfig::builder()
            .domains_per_track(l)
            .tracks_per_dbc(32)
            .build()
            .unwrap()
    }

    #[test]
    fn sim_matches_analytic_single_port_model() {
        // The whole report, not just the shift total: on every suite
        // kernel the bit-level run equals the analytic replay projected
        // through the same device's latency and energy model.
        for kernel in Kernel::suite() {
            let trace = kernel.trace();
            let n = trace.num_items();
            let graph = AccessGraph::from_trace(&trace);
            let placement = GroupedChainGrowth.place(&graph);
            let cfg = config(n.max(1));
            let stats = TopologyCost::single_port(Topology::linear(), n)
                .trace_cost(&placement, &trace)
                .stats;
            let projection = CostProjection::new(&cfg);
            let analytic = SimReport {
                stats,
                per_dbc: vec![stats],
                latency: projection.latency(&stats),
                energy: projection.energy(&stats),
                integrity_errors: 0,
                slip_events: 0,
            };
            let report = SpmSimulator::new(&cfg, &placement)
                .unwrap()
                .run(&trace)
                .unwrap();
            assert_eq!(
                report,
                analytic,
                "sim diverges from analytic model on {}",
                kernel.name()
            );
        }
    }

    #[test]
    fn integrity_checking_passes_on_real_workloads() {
        let trace = Kernel::MergeSort {
            n: 32,
            block: 2,
            seed: 5,
        }
        .trace();
        let n = trace.num_items();
        let mut sim = SpmSimulator::with_identity_placement(&config(n), n).unwrap();
        let report = sim.run(&trace).unwrap();
        assert_eq!(report.integrity_errors, 0);
        assert!(report.latency.total_cycles() > 0);
        assert!(report.energy.total_pj() > 0.0);
    }

    #[test]
    fn unknown_item_is_reported() {
        let mut sim = SpmSimulator::with_identity_placement(&config(4), 4).unwrap();
        let trace = Trace::from_ids([9u32]);
        assert!(matches!(
            sim.run(&trace),
            Err(SimError::UnknownItem { item: 9, items: 4 })
        ));
    }

    #[test]
    fn oversized_placement_is_rejected() {
        let p = Placement::identity(100);
        assert!(matches!(
            SpmSimulator::new(&config(64), &p),
            Err(SimError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn multi_dbc_config_requires_layout_api() {
        let cfg = DeviceConfig::builder().dbcs(2).build().unwrap();
        assert!(matches!(
            SpmSimulator::with_identity_placement(&cfg, 4),
            Err(SimError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn reset_clears_counters() {
        let trace = Trace::from_ids([0u32, 1, 2, 1]);
        let mut sim = SpmSimulator::with_identity_placement(&config(8), 3).unwrap();
        sim.run(&trace).unwrap();
        sim.reset();
        let report = sim.run(&Trace::from_ids([0u32])).unwrap();
        assert_eq!(report.stats.accesses(), 1);
    }

    #[test]
    fn fault_injection_preserves_data_and_counts_slips() {
        let trace = Kernel::Fft { n: 32, block: 1 }.trace();
        let mut sim = SpmSimulator::with_identity_placement(&config(32), 32)
            .unwrap()
            .with_fault_injection(ShiftFaultModel::new(0.02), 77);
        let report = sim.run(&trace).unwrap();
        // Slips occurred and were repaired transparently: data intact,
        // extra shifts paid.
        assert!(report.slip_events > 0);
        assert_eq!(report.integrity_errors, 0);
        let clean = SpmSimulator::with_identity_placement(&config(32), 32)
            .unwrap()
            .run(&trace)
            .unwrap();
        // Slips perturb the shift count (a slip may even luckily move
        // the tape toward its next target, so the sign is not fixed —
        // only the perturbation and the zero-slip baseline are).
        assert_ne!(report.stats.shifts, clean.stats.shifts);
        assert_eq!(clean.slip_events, 0);
    }

    #[test]
    fn fault_injection_is_seed_deterministic() {
        let trace = Kernel::Lu { n: 16 }.trace();
        let run = |seed| {
            SpmSimulator::with_identity_placement(&config(16), 16)
                .unwrap()
                .with_fault_injection(ShiftFaultModel::new(0.05), seed)
                .run(&trace)
                .unwrap()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1).stats.shifts, run(2).stats.shifts);
    }

    #[test]
    fn fewer_shifts_means_fewer_slips() {
        // The reliability argument: a better placement shifts less and
        // is therefore exposed to fewer slip events.
        let trace = Kernel::Histogram {
            bins: 32,
            samples: 600,
            seed: 4,
        }
        .trace();
        let graph = AccessGraph::from_trace(&trace);
        let model = ShiftFaultModel::new(0.02);
        let naive = SpmSimulator::with_identity_placement(&config(32), 32)
            .unwrap()
            .with_fault_injection(model, 5)
            .run(&trace)
            .unwrap();
        let tuned_placement = Hybrid::default().place(&graph);
        let tuned = SpmSimulator::new(&config(32), &tuned_placement)
            .unwrap()
            .with_fault_injection(model, 5)
            .run(&trace)
            .unwrap();
        assert!(tuned.slip_events < naive.slip_events);
    }

    #[test]
    fn layout_simulation_matches_layout_cost() {
        use dwm_core::spm::SpmAllocator;
        use dwm_device::PortLayout;
        let trace = Kernel::MatMul { n: 8, block: 2 }.trace();
        let layout = SpmAllocator::new(4, 16)
            .allocate(&trace, &GroupedChainGrowth)
            .unwrap();
        let cfg = DeviceConfig::builder()
            .dbcs(4)
            .domains_per_track(16)
            .tracks_per_dbc(32)
            .build()
            .unwrap();
        let mut sim = SpmSimulator::with_layout(&cfg, &layout).unwrap();
        let report = sim.run(&trace).unwrap();
        let (analytic, per_dbc) = layout.trace_cost(&trace, &PortLayout::single());
        assert_eq!(report.stats, analytic);
        assert_eq!(report.per_dbc, per_dbc);
        assert_eq!(report.integrity_errors, 0);
    }

    #[test]
    fn parallel_replay_matches_sequential() {
        use dwm_core::spm::SpmAllocator;
        use dwm_foundation::par::override_threads;
        // The override is process-global; this is the only test in the
        // dwm-sim binary that installs it, so no lock is needed yet.
        let trace = Kernel::MergeSort {
            n: 48,
            block: 4,
            seed: 9,
        }
        .trace();
        let layout = SpmAllocator::new(4, 16)
            .allocate(&trace, &GroupedChainGrowth)
            .unwrap();
        let cfg = DeviceConfig::builder()
            .dbcs(4)
            .domains_per_track(16)
            .tracks_per_dbc(32)
            .build()
            .unwrap();
        let sequential = {
            let _g = override_threads(1);
            let mut sim = SpmSimulator::with_layout(&cfg, &layout).unwrap();
            sim.run(&trace).unwrap()
        };
        let parallel = {
            let _g = override_threads(8);
            let mut sim = SpmSimulator::with_layout(&cfg, &layout).unwrap();
            sim.run(&trace).unwrap()
        };
        assert_eq!(sequential, parallel);
        assert_eq!(parallel.integrity_errors, 0);
        // Repeated runs accumulate identically too (shadow state must
        // survive the merge back out of the workers).
        let twice = {
            let _g = override_threads(8);
            let mut sim = SpmSimulator::with_layout(&cfg, &layout).unwrap();
            sim.run(&trace).unwrap();
            sim.run(&trace).unwrap()
        };
        assert_eq!(twice.integrity_errors, 0);
        assert_eq!(twice.stats.accesses(), 2 * sequential.stats.accesses());
    }
}
