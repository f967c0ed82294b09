#![warn(missing_docs)]

//! # mlc-bench-history — the benchmark ledger's read side
//!
//! `serve_load` and `fuzz`, given `--history-dir results/bench_history`,
//! append one [`BenchEntry`](mlc_telemetry::bench_report::BenchEntry) per
//! measured metric to `results/bench_history/<family>.jsonl` — an
//! append-only, commit-stamped ledger (see `mlc_telemetry::bench_report`).
//! This crate is everything that *reads* the ledger:
//!
//! * [`series`] — grouping entries into per-metric time series keyed by
//!   `family/case/metric` and build profile;
//! * [`compare`] — `baseline..head` commit-to-commit deltas;
//! * [`gate`] — the CI regression gate: head vs. a rolling-median
//!   baseline of recent commits (medians damp one noisy run), with
//!   direction-aware thresholds and absolute floors;
//! * [`render`] — the static `docs/bench/` dashboard (`index.html` +
//!   `data.js` in the `window.BENCHMARK_DATA` format the dkls23 ledger
//!   popularized).
//!
//! The `bench-history` binary exposes these as `append`, `compare`,
//! `gate`, and `render` subcommands; see `docs/BENCHMARKS.md`.

pub mod compare;
pub mod gate;
pub mod render;
pub mod series;

pub use compare::{compare_commits, Comparison};
pub use gate::{run_gate, CheckOutcome, GateCheck, GateOptions, GateReport};
pub use render::{render_dashboard, Dashboard};
pub use series::{commit_matches, group_series, Series, SeriesKey};
