#![warn(missing_docs)]

//! # mlc-cache-sim — multi-level cache simulator
//!
//! Trace-driven cache simulator substrate for the reproduction of
//! Rivera & Tseng, *Locality Optimizations for Multi-Level Caches* (SC '99).
//!
//! The paper evaluates its padding / fusion / tiling heuristics with cache
//! simulations of a Sun UltraSparc I: a 16 KB direct-mapped L1 cache with
//! 32-byte lines backed by a 512 KB direct-mapped L2 cache with 64-byte
//! lines. This crate provides that simulator (and generalizations of it):
//!
//! * [`CacheConfig`] / [`HierarchyConfig`] — cache geometry. Sizes, line
//!   sizes and associativities must be powers of two, as on every machine the
//!   paper considers; the modular-arithmetic arguments in the paper
//!   (`MULTILVLPAD`, multi-level tiling) rely on each cache size evenly
//!   dividing the next level's size.
//! * [`Cache`] — a single level: set-associative with pluggable
//!   [`ReplacementPolicy`], with direct-mapped as the 1-way special case.
//! * [`Hierarchy`] — a stack of levels. An access probes L1; on a miss the
//!   next level is probed, and so on; every probed level allocates the line.
//!   Per-level [`LevelStats`] are kept, and miss rates are reported with the
//!   paper's normalization (misses at *every* level divided by the number of
//!   processor references).
//! * [`trace`] — the [`AccessSink`](trace::AccessSink) abstraction that the
//!   program model (`mlc-model`) drives with exact address traces, plus
//!   counting/recording/tee sinks for tests and experiments.
//!
//! ## Example
//!
//! ```
//! use mlc_cache_sim::{Hierarchy, HierarchyConfig};
//! use mlc_cache_sim::trace::{Access, AccessSink};
//!
//! // The paper's simulated machine.
//! let mut hier = Hierarchy::new(HierarchyConfig::ultrasparc_i());
//! // Stream a strided read trace through it.
//! for i in 0..1024u64 {
//!     hier.access(Access::read(i * 8));
//! }
//! let s = hier.stats();
//! // 8-byte stride over 32-byte lines: one miss per 4 accesses at L1.
//! assert_eq!(s[0].misses(), 1024 / 4);
//! // All L1 misses also miss the cold 64-byte-line L2: 8 KiB / 64 B lines.
//! assert_eq!(s[1].misses(), 1024 * 8 / 64);
//! ```

pub mod arbitrary;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod replacement;
pub mod rng;
pub mod stable_hash;
pub mod stats;
pub mod trace;

pub use cache::Cache;
pub use config::{CacheConfig, HierarchyConfig};
pub use hierarchy::Hierarchy;
pub use hierarchy::ProbedHierarchy;
pub use replacement::ReplacementPolicy;
pub use stable_hash::{stable_hash_of, StableHash, StableHasher};
pub use stats::{LevelStats, MissRateReport};
