//! Cycle-approximate, self-checking scratchpad simulator for DWM.
//!
//! Where `dwm-core`'s cost model *counts* shifts analytically, this
//! crate actually *performs* them: a [`Scratchpad`] instantiates
//! bit-level [`Dbc`](dwm_device::Dbc)s, and the [`SpmSimulator`] replays
//! a trace through a placement, moving real data. Each write stores a
//! deterministic token and each read checks it against a shadow model,
//! so a placement or shift-arithmetic bug surfaces as a data-integrity
//! failure, not just a wrong counter.
//!
//! The simulator's shift counters must agree exactly with the analytic
//! model (`dwm_core::TopologyCost` on the linear tape) — that is the V1
//! cross-validation experiment and an integration test.
//!
//! # Example
//!
//! ```
//! use dwm_device::DeviceConfig;
//! use dwm_trace::kernels::Kernel;
//! use dwm_sim::SpmSimulator;
//!
//! let trace = Kernel::Fft { n: 32, block: 1 }.trace();
//! let config = DeviceConfig::builder()
//!     .domains_per_track(32)
//!     .tracks_per_dbc(32)
//!     .build()?;
//! let mut sim = SpmSimulator::with_identity_placement(&config, 32)?;
//! let report = sim.run(&trace)?;
//! assert!(report.stats.shifts > 0);
//! assert_eq!(report.integrity_errors, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
mod scratchpad;
mod simulator;

pub use report::SimReport;
pub use scratchpad::Scratchpad;
pub use simulator::{SimError, SpmSimulator};

/// Registers this crate's metrics in the
/// [`dwm_foundation::obs::global`] registry, so a scrape lists the
/// full family (at zero) before any simulation has run.
pub fn register_obs_metrics() {
    let _ = (
        simulator::accesses_counter(),
        simulator::shift_distance_histogram(),
    );
}

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::{Scratchpad, SimError, SimReport, SpmSimulator};
}
