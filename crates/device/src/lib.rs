//! Domain-wall (racetrack) memory device model.
//!
//! Domain-wall memory (DWM) stores data as magnetic domains along a
//! nanowire *track*. Each track has one or a few fixed *access ports*;
//! reading or writing a bit requires the bit to sit directly under a
//! port, which is achieved by sending a shift current that moves the
//! whole domain train left or right. Shifts dominate DWM latency and
//! energy, so the number of shifts an access pattern incurs is the
//! figure of merit this workspace optimizes.
//!
//! Tracks are grouped into *domain-block clusters* ([`Dbc`]): `W`
//! parallel tracks whose domains shift in lockstep so that the `W` bits
//! of a machine word occupy the same offset on `W` adjacent tracks. A
//! DBC with `L` domains per track stores `L` words and behaves like a
//! tiny tape: word `o` is accessible through port `p` only after the
//! tape has been shifted to displacement `o - position(p)`.
//!
//! This crate provides:
//!
//! * [`DeviceConfig`] — validated device geometry, timing, and energy
//!   parameters (defaults follow the 2013–2015 DWM literature);
//! * [`Track`] and [`Dbc`] — functional bit-level models with shift
//!   state, padding domains, and wear counters;
//! * [`PortLayout`] and the [`topology`] module — the port layouts and
//!   the per-access shift plan that the analytic cost model in
//!   `dwm-core`, the bit-level [`Dbc`] and the simulator all share;
//! * [`AccessEnergy`]/[`AccessLatency`] — projection of shift counts
//!   into nanojoules and nanoseconds.
//!
//! # Example
//!
//! ```
//! use dwm_device::{DeviceConfig, Dbc};
//!
//! let config = DeviceConfig::builder()
//!     .domains_per_track(32)
//!     .tracks_per_dbc(16)
//!     .ports(1)
//!     .build()?;
//! let mut dbc = Dbc::new(&config);
//! dbc.write(5, 0xABCD)?;
//! assert_eq!(dbc.read(5)?, 0xABCD);
//! // Reading offset 5 through the single port at position 0 required
//! // shifting the tape by 5 domains.
//! assert_eq!(dbc.stats().shifts, 5);
//! # Ok::<(), dwm_device::DeviceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dbc;
mod energy;
mod error;
pub mod fault;
mod port;
mod stats;
pub mod topology;
mod track;

pub use config::{DeviceConfig, DeviceConfigBuilder, EnergyConfig, TimingConfig};
pub use dbc::Dbc;
pub use energy::{AccessEnergy, AccessLatency, CostProjection};
pub use error::DeviceError;
pub use fault::{FaultInjector, ShiftFaultModel};
pub use port::{PortCapability, PortId, PortLayout, TypedPortLayout};
pub use stats::ShiftStats;
pub use topology::{
    TapeState, Topology, TopologyKind, TopologyPlan, TopologyReplayer, TrackTopology,
};
pub use track::Track;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::{
        AccessEnergy, AccessLatency, CostProjection, Dbc, DeviceConfig, DeviceError, FaultInjector,
        PortCapability, PortId, PortLayout, ShiftFaultModel, ShiftStats, TapeState, Topology,
        TopologyKind, TopologyPlan, TopologyReplayer, Track, TrackTopology, TypedPortLayout,
    };
}
