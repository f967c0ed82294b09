#![warn(missing_docs)]

//! # mlc-fuzz — generative differential testing for the whole stack
//!
//! The repository already differentially tests its fast paths on a fixed
//! kernel matrix: run-length replay and the analytic engine's nest memo
//! against per-access scalar replay (the `engine_parity` suite of
//! `mlc-experiments`, through this crate's [`oracle::engine_parity`]
//! comparator), and GROUPPAD's interval sweep against the exhaustive scan.
//! This crate removes the "fixed" part: it draws random — but
//! valid-by-construction — loop-nest programs, data layouts and cache
//! hierarchies from the generators in [`mlc_model::arbitrary`] and
//! [`mlc_cache_sim::arbitrary`], then checks every parity-sensitive pair
//! and every paper invariant the codebase promises:
//!
//! * engine parity: scalar replay, run-length replay and the memo agree on
//!   every per-level count and prefetch fill after each of four sweeps and
//!   on the contents of every set after the first and the last, on each
//!   case and on its repeat-loop, Morton and cache-oblivious variants; and
//!   the fast generator's stream equals the scalar walk's, access by
//!   access;
//! * interval-sweep vs exhaustive padding search (bitwise-identical pads
//!   and positions-tried accounting);
//! * `MULTILVLPAD` / `PAD`-per-level leave no severe conflict at any level
//!   (the Section 3.1.2 modular-arithmetic theorem);
//! * `L2MAXPAD` preserves the L1 layout exactly (bases unchanged mod `S1`,
//!   exploited-reuse count untouched — Section 3.2.2 — and simulated L1
//!   counts unchanged wherever no L1 line holds bytes of two arrays);
//! * shifting every base by a multiple of the largest line leaves every
//!   per-level count unchanged, on every engine;
//! * the skeleton severe-conflict counter agrees with the reference
//!   implementation in [`mlc_core::conflict`] exactly;
//! * the fusion cost model's deltas are internally consistent and its
//!   L2/memory accounting is conserved (Section 4);
//! * the analytic miss estimator ranks layouts the way the simulator does,
//!   on the inputs that satisfy its stated assumptions (Section 6.4);
//! * a result stored in and re-read from the result cache equals a fresh
//!   simulation;
//! * the `mlc-serve` HTTP service is a pure transport: serving a case over
//!   a real socket returns exactly the in-process simulate/optimize answer
//!   (pads, per-level miss counters, or the documented typed error).
//!
//! The [`requests`] module reuses the case generator to build seed-stable
//! HTTP request streams for the `serve_load` load generator.
//!
//! A failing case is [shrunk](mod@shrink) to a minimal reproducer and
//! serialized in a line-oriented text format ([`corpus`]) meant to be
//! committed under `tests/corpus/`, where the tier-1 suite replays it
//! forever. The `fuzz` binary drives the loop:
//!
//! ```text
//! cargo run --release -p mlc-fuzz -- --seed 0 --cases 500
//! ```

pub mod case;
pub mod corpus;
pub mod oracle;
pub mod requests;
pub mod shrink;

pub use case::{Case, CaseConfig};
pub use oracle::{check_case, Report, Violation, ORACLES};
pub use requests::{RequestStream, RequestStreamConfig, ServeRequest};
pub use shrink::shrink;
