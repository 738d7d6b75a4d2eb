//! Shift-reducing data placement for domain-wall memories.
//!
//! This crate is the reproduction of the primary contribution of
//! *"Optimizing data placement for reducing shift operations on domain
//! wall memories"* (DAC 2015): given the access behaviour of a workload
//! (a [`Trace`](dwm_trace::Trace) or its
//! [`AccessGraph`](dwm_graph::AccessGraph)), compute a
//! [`Placement`] of data items onto the word offsets of a DWM tape that
//! minimizes the number of shift operations.
//!
//! # Structure
//!
//! * [`Placement`] — a validated bijection between items and offsets;
//! * [`cost`] — the analytic shift-cost model [`TopologyCost`], with
//!   the track topology, the port layout and the port types as its
//!   parameters;
//! * [`algorithms`] — the algorithm suite: naive baselines, classic
//!   organ-pipe frequency placement, the adjacency-driven
//!   [`ChainGrowth`]/[`GroupedChainGrowth`] heuristics (the paper's
//!   proposal), spectral ordering, simulated annealing, and a local-
//!   search refiner;
//! * [`exact`] — the exact optimum by dynamic programming over subsets
//!   (the paper's small-instance optimality reference);
//! * [`partition`] and [`spm`] — the multi-DBC extension: partition the
//!   item set across clusters, then order within each cluster.
//!
//! # Example
//!
//! ```
//! use dwm_trace::kernels::Kernel;
//! use dwm_graph::AccessGraph;
//! use dwm_core::prelude::*;
//! use dwm_device::Topology;
//!
//! let trace = Kernel::MatMul { n: 8, block: 2 }.trace();
//! let graph = AccessGraph::from_trace(&trace);
//!
//! let naive = OrderOfAppearance.place(&graph);
//! let tuned = GroupedChainGrowth::default().place(&graph);
//!
//! let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
//! let before = model.trace_cost(&naive, &trace).stats.shifts;
//! let after = model.trace_cost(&tuned, &trace).stats.shifts;
//! assert!(after <= before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod anytime;
pub mod cost;
mod error;
pub mod exact;
pub mod exact_bb;
pub mod online;
pub mod partition;
mod placement;
pub mod spm;
pub mod wear;

pub use algorithms::{
    ChainGrowth, GreedyInsertion, GroupedChainGrowth, Hybrid, LocalSearch, MultiStart,
    OrderOfAppearance, OrganPipe, PlacementAlgorithm, RandomPlacement, SimulatedAnnealing,
    Spectral, TraceRefiner, WindowedDp,
};
pub use anytime::{AnytimeOutcome, AnytimePlacement, AnytimeSolver, Quality, Tier, TierPlan};
pub use cost::{CostReport, TopologyCost};
pub use error::PlacementError;
pub use placement::Placement;

/// Registers every metric this crate's solvers can emit in the
/// [`dwm_foundation::obs::global`] registry, so a scrape lists the
/// full solver family (at zero) before any solve has run.
pub fn register_obs_metrics() {
    algorithms::register_obs_metrics();
    let _ = (
        exact_bb::nodes_counter(),
        exact_bb::pruned_counter(),
        partition::refine_passes_counter(),
        partition::swaps_applied_counter(),
        partition::swap_gain_histogram(),
    );
}

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::algorithms::{
        ChainGrowth, GreedyInsertion, GroupedChainGrowth, Hybrid, LocalSearch, MultiStart,
        OrderOfAppearance, OrganPipe, PlacementAlgorithm, RandomPlacement, SimulatedAnnealing,
        Spectral, TraceRefiner, WindowedDp,
    };
    pub use crate::anytime::{
        plan as plan_tier, AnytimeOutcome, AnytimePlacement, AnytimeSolver, Quality, Tier, TierPlan,
    };
    pub use crate::cost::{CostReport, TopologyCost};
    pub use crate::exact::optimal_placement;
    pub use crate::exact_bb::branch_and_bound_placement;
    pub use crate::online::{
        window_profiles, Decision, OnlineConfig, OnlinePlacer, OnlineReport, WindowProfiles,
    };
    pub use crate::partition::Partitioner;
    pub use crate::spm::{SpmAllocator, SpmLayout};
    pub use crate::wear::{RotatingEvaluator, WearConfig, WearReport};
    pub use crate::{Placement, PlacementError};
}
