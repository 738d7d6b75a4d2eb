//! Hermetic, zero-dependency substrate for the DWM placement workspace.
//!
//! Every crate in this workspace used to pull `rand`, `serde`,
//! `serde_json`, `proptest`, and `criterion` from crates.io; in the
//! offline environments where the reproduction runs, dependency
//! resolution is the first thing to fail. This crate replaces all five
//! with four small, deterministic, in-tree modules:
//!
//! * [`rng`] — a SplitMix64-seeded xoshiro256\*\* generator with a
//!   `rand`-shaped API (`gen_range`, `gen_bool`, `shuffle`, `choose`)
//!   plus the [`rng::Zipf`] distribution helper the trace generators
//!   use. Same seed, same stream, on every platform, forever.
//! * [`json`] — a minimal JSON value type, serializer, and
//!   recursive-descent parser with line/column error reporting, plus
//!   [`json::ToJson`]/[`json::FromJson`] traits and the
//!   [`json_struct!`], [`json_newtype!`], and [`json_unit_enum!`]
//!   macros that replace `#[derive(Serialize, Deserialize)]`.
//! * [`mod@bench`] — a lightweight timing harness (warmup, N samples,
//!   median/p95, JSON emission) that the `dwm-bench` targets run
//!   instead of criterion.
//! * [`check`] — a seeded property-test harness (configurable case
//!   count, failing-seed replay) that the former proptest suites use.
//!
//! A fifth module, [`par`], is the workspace's parallel substrate: a
//! persistent work-stealing pool (std `thread`/atomics/condvars only)
//! whose `par_*` combinators return results in input order, so
//! parallelized sweeps and solvers stay byte-deterministic at any
//! `DWM_THREADS` setting.
//!
//! A sixth module, [`net`], is the serving substrate: a minimal
//! HTTP/1.1-style request parser/response writer plus an epoll
//! event-loop TCP server (per-shard `SO_REUSEPORT` acceptors,
//! nonblocking per-connection state machines, a bounded handler pool,
//! backpressure via `503`, slow-header cutoff via `408`, graceful
//! drain on shutdown) that `dwm-serve` builds its
//! placement-as-a-service daemon on.
//!
//! A seventh module, [`obs`], is the observability substrate: a
//! sharded metrics registry (striped counters, gauges, atomic
//! histograms reusing the [`mod@bench`] bucketing) with span timers
//! and a `DWM_OBS` enable knob, exported as Prometheus text (the
//! daemon's `GET /metrics`) or JSON (the CLI's `--obs` dump). Solver
//! and simulator instrumentation throughout the workspace records
//! here; metrics never leak into response bodies or artifacts, so the
//! determinism contract below survives with observability on.
//!
//! The determinism here is load-bearing, not incidental: shift-count
//! comparisons between placement algorithms are only meaningful when
//! every workload is byte-for-byte reproducible from its seed.

#![deny(missing_docs)]

pub mod bench;
pub mod check;
pub mod json;
pub mod net;
pub mod obs;
pub mod par;
pub mod rng;

pub use check::Checker;
pub use json::{FromJson, JsonError, ToJson, Value};
pub use rng::Rng;
