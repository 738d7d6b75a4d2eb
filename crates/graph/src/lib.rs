//! Weighted access graphs for DWM data placement.
//!
//! The *access graph* of a trace has one vertex per data item and an
//! undirected edge `{u, v}` weighted by the number of times `u` and `v`
//! are accessed consecutively. Under the single-port tape model the
//! total shift count of a placement `π` equals
//!
//! ```text
//! Σ_{(u,v)} w(u,v) · |π(u) − π(v)|     (+ first-access alignment)
//! ```
//!
//! — the *linear arrangement cost* of `π` on this graph. Minimizing it
//! is the NP-hard minimum linear arrangement problem, which is why the
//! placement crate layers heuristics, spectral methods, and an exact DP
//! on top of the queries this crate provides.
//!
//! There is one graph type, [`AccessGraph`], stored in compressed
//! sparse row form with its derived caches, and assembled in one place
//! from sorted rows: a [`GraphDigest`]'s (the route from a trace, raw
//! ids or any dense id sequence), an edge list
//! ([`AccessGraph::from_edges`]), or a [`DeltaGraph`] refreeze (the
//! streaming route). [`ArrangementEval`] answers incremental
//! arrangement-cost deltas of swaps over it, and [`fn@fingerprint`]
//! gives the canonical 128-bit workload identity.
//!
//! # Example
//!
//! ```
//! use dwm_trace::Trace;
//! use dwm_graph::AccessGraph;
//!
//! let trace = Trace::from_ids([0u32, 1, 0, 1, 2]);
//! let graph = AccessGraph::from_trace(&trace);
//! assert_eq!(graph.weight(0, 1), 3);
//! assert_eq!(graph.weight(1, 2), 1);
//! assert_eq!(graph.total_weight(), 4);
//! // Identity arrangement: |0−1|·3 + |1−2|·1 = 4.
//! let order: Vec<usize> = (0..3).collect();
//! assert_eq!(graph.arrangement_cost(&order), 4);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod csr;
pub mod delta;
pub mod digest;
pub mod fingerprint;
pub mod generators;
mod graph;

pub use csr::{ArrangementEval, CsrGraph};
pub use delta::DeltaGraph;
pub use digest::GraphDigest;
pub use fingerprint::{fingerprint, fingerprint_retag, fingerprint_topology, Fingerprint};
pub use graph::{AccessGraph, Edge};

/// Registers this crate's metrics in the
/// [`dwm_foundation::obs::global`] registry, so a scrape lists the
/// full family (at zero) before any solver has run.
pub fn register_obs_metrics() {
    let _ = csr::delta_eval_counter();
}

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::generators::{clustered_graph, path_graph, random_graph};
    pub use crate::{
        fingerprint, fingerprint_topology, AccessGraph, ArrangementEval, DeltaGraph, Edge,
        Fingerprint, GraphDigest,
    };
}
