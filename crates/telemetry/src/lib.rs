#![warn(missing_docs)]

//! # mlc-telemetry — observability substrate for the locality toolkit
//!
//! The paper's whole argument rests on *attributing* misses — severe
//! conflict vs. group-reuse loss vs. capacity — per cache level. This crate
//! turns the reproduction into an inspectable system:
//!
//! * [`probe`] — the [`CacheProbe`](probe::CacheProbe) callback trait the
//!   simulator (`mlc-cache-sim`) invokes on every per-level hit, miss and
//!   eviction. The simulator's hot path is generic over a no-op observer,
//!   so a disabled probe costs nothing.
//! * [`classify`] — a [`MissClassifier`](classify::MissClassifier) probe
//!   attaching a fully-associative LRU *shadow cache* per level and
//!   splitting every miss into compulsory / capacity / conflict (the
//!   classic 3C model). This directly validates the paper's claim that
//!   PAD removes *conflict* misses specifically.
//! * [`span`] — structured span tracing around pipeline passes
//!   (`intra_pad`, `fusion`, `permutation`, `pad`…) recording wall time
//!   and per-pass attributes, rendered as human-readable text or
//!   machine-readable JSONL.
//! * [`metrics`] — a [`MetricsRegistry`](metrics::MetricsRegistry) of
//!   counters, values and log₂-bucketed histograms (conflict-distance,
//!   set-pressure…), exported to JSON or CSV under one schema shared by
//!   every experiment binary.
//! * [`json`] / [`schema`] — a dependency-free JSON parser/serializer and
//!   a small JSON Schema validator used to check the metrics export
//!   against `results/metrics_schema.json` and benchmark-ledger entries
//!   against `results/bench_entry_schema.json`.
//! * [`bench_report`] — the benchmark ledger: one versioned
//!   [`BenchEntry`](bench_report::BenchEntry) schema (commit, timestamp,
//!   host/toolchain fingerprint, metric name/unit/value and a
//!   higher-or-lower-is-better direction) plus the append-only JSONL
//!   history store under `results/bench_history/` that the
//!   `bench-history` binary compares, gates, and renders.
//! * [`envfilter`] — an `MLC_LOG` (`RUST_LOG`-style) filter applied to
//!   span/metrics exports, so noisy probe counters can be silenced
//!   without recompiling.
//!
//! The crate is dependency-free (std only) and sits below the simulator in
//! the workspace graph: `mlc-cache-sim` depends on it, not the other way
//! around.

pub mod bench_report;
pub mod classify;
pub mod envfilter;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod schema;
pub mod span;

mod bundle;

pub use bench_report::{BenchEntry, BenchReport, Direction, EnvInfo};
pub use bundle::Telemetry;
pub use classify::{MissBreakdown, MissClass, MissClassifier, ShadowGeometry};
pub use envfilter::{EnvFilter, Level};
pub use metrics::{Histogram, MetricsRegistry};
pub use probe::{AccessEvent, CacheProbe, EvictionEvent, NopProbe};
pub use span::{AttrValue, SpanId, Tracer};
