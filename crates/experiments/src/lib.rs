#![warn(missing_docs)]

//! # mlc-experiments — the paper's evaluation, regenerated
//!
//! One binary per table/figure of Section 6 (run with `--release`):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — test programs |
//! | `diagrams` | Figures 3–5, 7 — cache layout diagrams |
//! | `fig09` | Figure 9 — PAD vs MULTILVLPAD miss rates + timings |
//! | `fig10` | Figure 10 — GROUPPAD ± L2MAXPAD miss rates + timings |
//! | `fig11` | Figure 11 — miss rates over problem sizes (EXPL, SHAL) |
//! | `fig12` | Figure 12 — fusion deltas over problem sizes (EXPL) |
//! | `fig13` | Figure 13 — tiled matmul MFLOPS over matrix sizes |
//! | `fusion_example` | Section 4's worked accounting |
//! | `ablation_assoc` | k-way associativity ablation |
//! | `ablation_l3` | three-level (Alpha 21164-like) hierarchy ablation |
//! | `ablation_line` | line-size sensitivity ablation |
//!
//! This library holds the shared harness: program versions (Orig / L1 Opt /
//! L1&L2 Opt), simulation drivers, wall-clock timing, size sweeps and table
//! rendering.
//!
//! The instrumented binaries (`mlc`, `table1`, `fig09`–`fig13`, the
//! ablations and `sweep`) additionally accept `--trace-out PATH` (JSONL
//! span/event trace) and `--metrics-out PATH` (JSON) — see
//! [`telemetry_cli`] and `docs/OBSERVABILITY.md` — plus `--cache-dir PATH`
//! to persist simulation results in a content-addressed store (see
//! [`sweep`] and `docs/CACHING.md`) and `--threads N`. The `sweep` binary
//! runs the whole experiment grid cell by cell through that store, so a
//! rerun over the same cache directory finishes an interrupted sweep. `diagrams`, `fusion_example` and
//! `validate_estimator` take no flags. An argument a binary does not read,
//! or an option given twice, exits 2 naming it ([`reject_unknown_args`]).
//!
//! The [`layout_sweep`] grid races data layouts instead of paddings —
//! linear vs best-pad vs searched Morton words vs cache-oblivious tiling
//! (`docs/LAYOUTS.md`) — and the `layout_search` binary prints its table.

pub mod layout_sweep;
pub mod sim;
pub mod sweep;
pub mod table;
pub mod telemetry_cli;
pub mod timing;
pub mod versions;

pub use sim::{simulate_versions, SimResult};
pub use table::Table;
pub use telemetry_cli::{flag_value, int_flag, reject_unknown_args, TelemetryCli};
pub use timing::{mflops, time_kernel};
pub use versions::{build_versions, OptLevel, Versions};
