//! Simulation drivers for the figure binaries.

use crate::versions::Versions;
use mlc_cache_sim::stats::MissRateReport;
use mlc_cache_sim::HierarchyConfig;
use mlc_core::rescache::{CacheKey, ResultCache, SimProtocol};
use mlc_model::trace_gen::simulate_classified;
use mlc_model::{DataLayout, Program};
use mlc_telemetry::{MetricsRegistry, MissClassifier};
use std::sync::{Arc, RwLock};

/// Process-wide content-addressed result cache. When installed (the
/// `--cache-dir` flag every experiment binary accepts via
/// [`crate::TelemetryCli`]), [`simulate_one`] and [`simulate_cold`] are
/// memoized through `mlc_core::rescache`: a [`CacheKey`] over program IR +
/// layout + hierarchy + protocol + simulator salt addresses a checksummed
/// on-disk entry, and repeat simulations become file reads.
static RESULT_CACHE: RwLock<Option<Arc<ResultCache>>> = RwLock::new(None);

/// Install (or, with `None`, remove) the process-wide result cache.
pub fn install_result_cache(cache: Option<Arc<ResultCache>>) {
    *RESULT_CACHE.write().unwrap_or_else(|e| e.into_inner()) = cache;
}

/// A handle to the installed result cache, if any.
pub fn result_cache() -> Option<Arc<ResultCache>> {
    RESULT_CACHE
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Miss rates of the three versions of one program.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Orig.
    pub orig: MissRateReport,
    /// L1.
    pub l1: MissRateReport,
    /// L1l2.
    pub l1l2: MissRateReport,
}

/// Default steady-state protocol: one warm-up sweep, one measured sweep —
/// the iterative kernels' behaviour after their first time step.
pub const WARMUP: usize = 1;
/// TIMED.
pub const TIMED: usize = 1;

/// Simulate under `protocol` on the analytic engine (nests entered in a
/// recorded cache state served from its memo, the rest replayed over
/// run-length traces), memoized through `cache` when one is given.
///
/// The engine is not part of the cache key: scalar replay, run-length
/// replay and the analytic engine are differentially tested to be bitwise
/// identical, so a result cached by any of them serves the others.
fn simulate_protocol(
    program: &Program,
    layout: &DataLayout,
    h: &HierarchyConfig,
    protocol: SimProtocol,
    cache: Option<&ResultCache>,
) -> MissRateReport {
    let run = || {
        match protocol {
            SimProtocol::Cold => mlc_core::try_simulate_analytic(program, layout, h),
            SimProtocol::Steady { warmup, timed } => mlc_core::try_simulate_steady_analytic(
                program,
                layout,
                h,
                warmup as usize,
                timed as usize,
            ),
        }
        .unwrap_or_else(|e| panic!("{e}"))
    };
    match cache {
        Some(cache) => {
            let key = CacheKey::derive(program, layout, h, protocol);
            cache.get_or_compute(key, run)
        }
        None => run(),
    }
}

/// Simulate one program+layout with the standard protocol.
pub fn simulate_one(program: &Program, layout: &DataLayout, h: &HierarchyConfig) -> MissRateReport {
    simulate_protocol(
        program,
        layout,
        h,
        SimProtocol::Steady {
            warmup: WARMUP as u64,
            timed: TIMED as u64,
        },
        result_cache().as_deref(),
    )
}

/// Single cold sweep (no warm-up), consulting the installed result cache.
/// The figure binaries that study compulsory behaviour use this instead of
/// the steady-state protocol.
pub fn simulate_cold(
    program: &Program,
    layout: &DataLayout,
    h: &HierarchyConfig,
) -> MissRateReport {
    simulate_protocol(
        program,
        layout,
        h,
        SimProtocol::Cold,
        result_cache().as_deref(),
    )
}

/// Simulate one program+layout with the shadow-cache miss classifier
/// attached, and install the per-level compulsory/capacity/conflict counts
/// into `metrics` under `prefix` (e.g. `sim.l1.miss.conflict`).
///
/// Unlike [`simulate_one`] this is a single cold sweep — the 3C taxonomy
/// needs the compulsory misses that the steady-state protocol deliberately
/// warms away.
pub fn simulate_one_classified(
    program: &Program,
    layout: &DataLayout,
    h: &HierarchyConfig,
    metrics: &mut MetricsRegistry,
    prefix: &str,
) -> (MissRateReport, MissClassifier) {
    let (report, classifier) = simulate_classified(program, layout, h);
    classifier.install_metrics(metrics, prefix);
    (report, classifier)
}

/// Simulate all three versions.
pub fn simulate_versions(v: &Versions, h: &HierarchyConfig) -> SimResult {
    SimResult {
        orig: simulate_one(&v.orig_program, &v.orig_layout, h),
        l1: simulate_one(&v.l1.program, &v.l1.layout, h),
        l1l2: simulate_one(&v.l1l2.program, &v.l1l2.layout, h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::versions::{build_versions, OptLevel};
    use mlc_model::program::figure2_example;
    use mlc_model::trace_gen::{simulate_steady_with, simulate_with};

    #[test]
    fn versions_improve_miss_rates_for_pathological_sizes() {
        let h = HierarchyConfig::ultrasparc_i();
        let p = figure2_example(512);
        let v = build_versions(&p, &h, OptLevel::Conflict);
        let r = simulate_versions(&v, &h);
        assert!(r.l1.miss_rate(0) < r.orig.miss_rate(0));
        assert!(r.l1.miss_rate(1) < r.orig.miss_rate(1));
        assert!(r.l1l2.miss_rate(0) <= r.l1.miss_rate(0) + 1e-3);
    }

    #[test]
    fn cache_serves_identical_results() {
        let dir = std::env::temp_dir().join(format!("mlc-sim-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let h = HierarchyConfig::ultrasparc_i();
        let p = figure2_example(96);
        let l = mlc_model::DataLayout::contiguous(&p.arrays);
        let steady = SimProtocol::Steady {
            warmup: WARMUP as u64,
            timed: TIMED as u64,
        };

        let uncached_steady = simulate_protocol(&p, &l, &h, steady, None);
        let uncached_cold = simulate_protocol(&p, &l, &h, SimProtocol::Cold, None);
        let first_steady = simulate_protocol(&p, &l, &h, steady, Some(&cache));
        let first_cold = simulate_protocol(&p, &l, &h, SimProtocol::Cold, Some(&cache));
        let second_steady = simulate_protocol(&p, &l, &h, steady, Some(&cache));
        let second_cold = simulate_protocol(&p, &l, &h, SimProtocol::Cold, Some(&cache));

        assert_eq!(uncached_steady, first_steady);
        assert_eq!(uncached_cold, first_cold);
        assert_eq!(first_steady, second_steady);
        assert_eq!(first_cold, second_cold);
        // Two protocols -> two entries; the repeats were hits.
        let s = cache.stats();
        assert_eq!(s.stores, 2);
        assert_eq!(s.hits, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analytic_engine_matches_scalar_replay() {
        // Both protocols against the reference engine, the per-access
        // scalar walk (the full kernel matrix lives in the engine_parity
        // suite).
        let h = HierarchyConfig::ultrasparc_i();
        let p = figure2_example(96);
        let l = mlc_model::DataLayout::contiguous(&p.arrays);
        assert_eq!(
            simulate_one(&p, &l, &h),
            simulate_steady_with(&p, &l, &h, WARMUP, TIMED, false)
        );
        assert_eq!(simulate_cold(&p, &l, &h), simulate_with(&p, &l, &h, false));
    }
}
