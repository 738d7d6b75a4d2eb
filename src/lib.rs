//! Umbrella crate for the DWM data-placement reproduction.
//!
//! Re-exports the public API of every crate in the workspace so that
//! examples and integration tests can use a single dependency:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`device`] | `dwm-device` | racetrack device model: tracks, DBCs, ports, timing/energy |
//! | [`trace`] | `dwm-trace` | access traces, synthetic generators, benchmark kernels |
//! | [`graph`] | `dwm-graph` | weighted access graphs and generators |
//! | [`core`] | `dwm-core` | placement algorithms, the shift-cost model, exact optima, SPM allocation, online placement |
//! | [`cache`] | `dwm-cache` | DWM set-associative cache with shift-aware policies |
//! | [`compile`] | `dwm-compile` | affine loop-nest IR → trace → data-layout pass |
//! | [`isa`] | `dwm-isa` | basic-block layout for racetrack instruction memories |
//! | [`sim`] | `dwm-sim` | bit-level self-checking scratchpad simulator |
//!
//! # Quick start
//!
//! ```
//! use dwm_placement::prelude::*;
//!
//! let trace = Trace::from_ids([0u32, 1, 2, 1, 0, 1, 2]);
//! let graph = AccessGraph::from_trace(&trace);
//! let placement = Hybrid::default().place(&graph);
//! let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
//! let tuned = model.trace_cost(&placement, &trace).stats.shifts;
//! let naive = model
//!     .trace_cost(&Placement::identity(3), &trace)
//!     .stats
//!     .shifts;
//! assert!(tuned <= naive);
//! ```

#![forbid(unsafe_code)]

pub use dwm_cache as cache;
pub use dwm_compile as compile;
pub use dwm_core as core;
pub use dwm_device as device;
pub use dwm_graph as graph;
pub use dwm_isa as isa;
pub use dwm_sim as sim;
pub use dwm_trace as trace;

/// The README's Rust quickstart, compiled and run as a doctest so the
/// code users copy cannot rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeQuickstart;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use dwm_cache::prelude::*;
    pub use dwm_compile::prelude::*;
    pub use dwm_core::prelude::*;
    pub use dwm_device::prelude::*;
    pub use dwm_graph::prelude::*;
    pub use dwm_isa::prelude::*;
    pub use dwm_sim::prelude::*;
    pub use dwm_trace::prelude::*;
}
