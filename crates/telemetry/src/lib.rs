#![warn(missing_docs)]

//! # mlc-telemetry — observability substrate for the locality toolkit
//!
//! The paper's whole argument rests on *attributing* misses — severe
//! conflict vs. group-reuse loss vs. capacity — per cache level, and on
//! knowing where the optimizer's time goes. This crate holds the plumbing
//! those numbers travel through; it knows nothing about caches (the 3C
//! classifier lives in `mlc-cache-sim`):
//!
//! * [`span`] — structured span tracing around pipeline passes
//!   (`intra_pad`, `fusion`, `permutation`, `pad`…) recording wall time
//!   and per-pass attributes, rendered as human-readable text or
//!   machine-readable JSONL.
//! * [`metrics`] — a [`MetricsRegistry`] of counters, values and
//!   log₂-bucketed [`Histogram`]s (conflict-distance, set-pressure…),
//!   exported to JSON under one schema shared by every experiment binary.
//! * [`Telemetry`] — a tracer and a registry travelling together, with the
//!   file writers behind `--trace-out` and `--metrics-out`.
//! * [`json`] / [`schema`] — a dependency-free JSON parser/serializer and
//!   a small JSON Schema validator used to check the metrics export
//!   against `results/metrics_schema.json`.
//! * [`bench_report`] — the [`EnvInfo`](bench_report::EnvInfo) stamp
//!   (commit, timestamp, host, toolchain, build profile) the end-to-end
//!   benchmark writes into every results file.
//!
//! The crate is dependency-free (std only) and sits below the simulator in
//! the workspace graph: `mlc-cache-sim` depends on it, not the other way
//! around.

pub mod bench_report;
pub mod json;
pub mod metrics;
pub mod schema;
pub mod span;

mod bundle;

pub use bundle::Telemetry;
pub use metrics::{Histogram, MetricsRegistry};
pub use span::{AttrValue, SpanId, Tracer};
