//! Placement-as-a-service: the `dwm-serve` daemon.
//!
//! Everything before this crate was batch: one process, one workload,
//! one placement, exit. This crate turns the solver core into a
//! long-running, concurrent service — the ROADMAP's "serves heavy
//! traffic" step — without giving up the workspace's determinism
//! invariant:
//!
//! * [`server`] — the daemon. A [`dwm_foundation::net`] bounded-queue
//!   TCP server speaking newline-less HTTP/1.1-style framing with six
//!   request kinds: `solve`, `evaluate`, `simulate`, `stats`,
//!   `health`, and a Prometheus-format `metrics` scrape (see
//!   [`protocol`]).
//! * [`engine`] — request handling. Workloads are canonicalized to
//!   their access graph's rows ([`dwm_graph::GraphDigest`], read from
//!   ids decoded straight into `u32`s) and hashed identically to
//!   [`fn@dwm_graph::fingerprint`]; a sharded LRU [`cache`] serves
//!   repeated workloads without re-running the solver, and a batch of
//!   cache misses inside one request fans out over the
//!   [`dwm_foundation::par`] pool.
//! * [`load`] — the loopback load harness behind the `serve_load`
//!   binary: closed-loop clients, a seeded workload mix, latency
//!   percentiles from [`dwm_foundation::bench::Histogram`], and a
//!   cross-client determinism check on every response body.
//! * [`session`] — streaming placement sessions: per-tenant state that
//!   ingests an access stream in chunks, maintains the access graph
//!   incrementally ([`dwm_graph::DeltaGraph`]), detects phase changes
//!   ([`dwm_trace::analysis::PhaseDetector`]), and re-places on
//!   confirmed drift when the projected saving beats the migration
//!   bill ([`dwm_core::online::OnlinePlacer::decide`]).
//!
//! # Determinism across the wire
//!
//! Response *bodies* are a pure function of the request: same request,
//! same bytes, at any `DWM_THREADS`, on any worker, hit or miss
//! (modulo the explicit `cache` field, which reports hit/miss truth-
//! fully and is therefore identical for identical request *sequences*).
//! Per-request wall-clock timing is reported out-of-band in the
//! `x-dwm-elapsed-us` response header so it can never perturb body
//! bytes — and all metrics ([`dwm_foundation::obs`]) live in `/stats`,
//! `GET /metrics`, and headers, never in other response bodies.
//! `tests/serve.rs` pins all of this over a real socket.

#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod cluster;
pub mod engine;
pub mod load;
pub mod protocol;
pub mod server;
pub mod session;
pub mod signal;

pub use cache::{CacheStats, SolveCache};
pub use client::ClientConn;
pub use cluster::Cluster;
pub use engine::{Engine, EngineConfig};
pub use load::{LoadConfig, LoadReport};
pub use server::{start, ServeConfig, ServeHandle};
pub use session::{IngestReport, SessionConfig, SessionState, SessionTable};
