#![warn(missing_docs)]

//! # mlc-core — locality optimizations for multi-level caches
//!
//! The primary contribution of Rivera & Tseng (SC '99), implemented over the
//! `mlc-model` program IR and validated against the `mlc-cache-sim`
//! simulator:
//!
//! * [`conflict`] — detection of *severe* ("ping-pong") conflict misses:
//!   lockstep references from different variables within one cache line of
//!   each other (Section 3).
//! * [`pad`](mod@pad) — the `PAD` algorithm (base-address nudging until severe
//!   conflicts disappear) and its multi-level generalizations
//!   `MULTILVLPAD` (pad against the virtual cache `(S1, Lmax)`) and the
//!   per-level variant it is proven equivalent to (Section 3.1.2).
//! * [`group`] — group-temporal-reuse accounting: the arc test of the
//!   paper's layout diagrams, and the per-reference classification
//!   (register / L1 / L2 / memory) behind the fusion cost model (Section 4).
//! * [`group_pad`](mod@group_pad) — `GROUPPAD`: position search maximizing the number of
//!   references exploiting group reuse on the L1 cache (Section 3.2.1).
//! * [`maxpad`] — `MAXPAD` and `L2MAXPAD`: maximal separation of variables
//!   on the L2 cache using pads that are multiples of `S1`, preserving the
//!   L1 layout (Section 3.2.2), plus the recursive multi-level `GROUPPAD`.
//! * [`intra_pad`] — intra-variable (column) padding for self-conflicting
//!   arrays (applied to ADI and ERLE in Section 6.1).
//! * [`fusion`] — the loop-fusion profitability model: count L2 and memory
//!   references before and after fusion, weigh by per-level miss costs,
//!   fuse when the weighted sum improves (Section 4).
//! * [`tiling`] — tile-size selection for multi-level caches: the `euc`
//!   Euclidean-remainder algorithm for conflict-free tile dimensions, the
//!   L1/2×L1/4×L1/L2 capacity policies of Figure 13, and the §5 cost model.
//! * [`pipeline`] — an end-to-end optimizer chaining intra-padding, fusion,
//!   `GROUPPAD` and `L2MAXPAD`, with a human-readable [`report`].
//! * [`search`] — GROUPPAD's position search as one exact interval sweep
//!   per placement: nests a placement cannot change fold into constants,
//!   and one walk over the conflict windows' endpoints scores only the
//!   start of each constant-score segment, bitwise-identical to the
//!   exhaustive scan (differentially tested).
//! * [`exec`] — the work-stealing sweep executor: per-worker chunked
//!   claims over indexed work, half-remainder stealing, direct writes into
//!   pre-sized result slots, panic-safe joins, and per-worker telemetry
//!   (items done, steals, busy/idle time) exported via `MetricsRegistry`.
//! * [`par`] — the worker-thread count the executor's callers use:
//!   `--threads`, then `MLC_THREADS`, then the machine (`default_threads`).
//! * [`analytic`] — the analytic engine: a memo of whole affine loop
//!   nests over the concrete `Hierarchy`. A nest entered in a recorded
//!   cache state (compared in full: tags, dirty bits, empty ways) restores
//!   the recorded exit state and credits the recorded counts; any other
//!   nest replays over run-length traces and is recorded.
//! * [`layout_search`] — searchable generalized Morton layouts: bounded
//!   canonical interleave-word candidates per array, statically pruned,
//!   scored by full-hierarchy simulation in a `GROUPPAD`-shaped greedy
//!   ascent, with `layout.search_*` telemetry.
//! * [`rescache`] — content-addressed, persistent memoization of
//!   simulation results: stable cache keys over program + layout +
//!   hierarchy + protocol + version salt, a checksummed one-file-per-
//!   entry store with atomic writes that makes repeated sweeps near-free,
//!   and a sharded in-memory front that coalesces concurrent work on one
//!   key to a single compute and store.

pub mod analytic;
pub mod conflict;
pub mod cost;
pub mod estimate;
pub mod exec;
pub mod fusion;
pub mod group;
pub mod group_pad;
pub mod intra_pad;
pub mod layout_search;
pub mod maxpad;
pub mod order;
pub mod pad;
pub mod par;
pub mod pipeline;
pub mod report;
pub mod rescache;
pub mod search;
pub mod tiling;

pub use analytic::{
    install_metrics as install_analytic_metrics, take_stats as take_analytic_stats,
    try_simulate_analytic, try_simulate_steady_analytic, try_steady_hierarchy_analytic,
    AnalyticStats, NestMemo,
};
pub use conflict::severe_conflicts;
pub use cost::MissCosts;
pub use estimate::{estimate_misses, estimated_cost, MissEstimate};
pub use exec::{execute, ExecReport, WorkerStats};
pub use fusion::{fusion_profit, FusionDecision};
pub use group::{classify_nest, RefClass};
pub use group_pad::group_pad;
pub use layout_search::{
    morton_candidates, search_morton, stats::install_metrics as install_layout_search_metrics,
    MortonSearchResult,
};
pub use maxpad::{l2_max_pad, max_pad};
pub use order::{loop_costs, permute_for_locality};
pub use pad::{multilvl_pad, pad, PadError, PadResult};
pub use pipeline::{
    optimize, optimize_both_targets, optimize_traced, try_optimize, try_optimize_traced,
    OptimizeOptions, OptimizeTarget,
};
pub use rescache::{CacheKey, CacheStats, ResultCache, SimProtocol, SIM_VERSION_SALT};
pub use tiling::{select_tile, TilePolicy, TileSelection};
