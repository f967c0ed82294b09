//! Engine parity on the registered kernels: run-length replay and the
//! analytic engine's nest memo must be *bitwise identical* to per-access
//! scalar replay — the same per-level accesses, misses and write-backs and
//! the same prefetch fills after every sweep, and the same contents (tags,
//! dirty bits and recency order of every set) after the first and the last
//! sweep — for every registered kernel, across hierarchy geometries,
//! replacement policies and next-line prefetch. Every check is one call of
//! [`engine_parity`], the comparator the fuzzer's `engine-parity` oracle
//! runs on generated cases.
//!
//! Debug builds run every kernel on the paper's UltraSparc I config and a
//! reduced kernel set on the wider geometry × policy matrix to keep test
//! time sane; `--release` (the CI engine-parity job) runs every kernel
//! everywhere.

use mlc_cache_sim::config::CacheConfig;
use mlc_cache_sim::replacement::ReplacementPolicy;
use mlc_cache_sim::{Hierarchy, HierarchyConfig};
use mlc_core::analytic::AnalyticSink;
use mlc_core::try_simulate_steady_analytic;
use mlc_experiments::versions::{build_versions, OptLevel};
use mlc_fuzz::oracle::engine_parity;
use mlc_kernels::expl::Expl;
use mlc_kernels::jacobi::Jacobi;
use mlc_kernels::registry::all_kernels;
use mlc_kernels::shal::Shallow;
use mlc_kernels::Kernel;
use mlc_model::trace_gen::{simulate_steady_with, try_generate_with};
use mlc_model::{DataLayout, Program};

/// Run `sweeps` sweeps of `kernel`'s contiguous layout through every engine
/// on `cfg`, with or without next-line prefetch, and demand they agree.
fn assert_kernel_parity(kernel: &dyn Kernel, cfg: &HierarchyConfig, prefetch: bool, sweeps: usize) {
    let program = kernel.model();
    let layout = DataLayout::contiguous(&program.arrays);
    let build = || {
        if prefetch {
            Hierarchy::with_next_line_prefetch(cfg.clone())
        } else {
            Hierarchy::new(cfg.clone())
        }
    };
    match engine_parity(&program, &layout, build, sweeps) {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => panic!("{}: does not simulate: {e}", kernel.name()),
        Err(diff) => panic!("{} on {cfg:?}: {diff}", kernel.name()),
    }
}

/// Kernels for the wide matrix: all of them in release; in debug, only those
/// below a reference-count budget (the big sweeps dominate debug test time).
fn matrix_kernels() -> Vec<Box<dyn Kernel>> {
    let kernels = all_kernels();
    if cfg!(debug_assertions) {
        kernels
            .into_iter()
            .filter(|k| k.model().const_references().is_some_and(|n| n < 1_500_000))
            .collect()
    } else {
        kernels
    }
}

#[test]
fn every_kernel_matches_on_ultrasparc_i() {
    let cfg = HierarchyConfig::ultrasparc_i();
    for kernel in all_kernels() {
        assert_kernel_parity(kernel.as_ref(), &cfg, false, 1);
    }
}

#[test]
fn kernels_match_on_ablation_hierarchies() {
    for cfg in [
        HierarchyConfig::alpha_21164_like(),
        HierarchyConfig::ultrasparc_like_assoc(2),
    ] {
        for kernel in matrix_kernels() {
            assert_kernel_parity(kernel.as_ref(), &cfg, false, 1);
        }
    }
}

#[test]
fn kernels_match_under_all_replacement_policies() {
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ] {
        let cfg = HierarchyConfig::new(
            vec![
                CacheConfig::new(16 * 1024, 32, 4, policy),
                CacheConfig::new(512 * 1024, 64, 4, policy),
            ],
            vec![6.0, 50.0],
        );
        for kernel in matrix_kernels() {
            assert_kernel_parity(kernel.as_ref(), &cfg, false, 1);
        }
    }
}

#[test]
fn kernels_match_with_next_line_prefetch() {
    // Prefetching disables the run-length batching and makes the memo
    // decline every nest; this pins down that both fall back to exact
    // per-access replay.
    let cfg = HierarchyConfig::ultrasparc_i();
    for kernel in matrix_kernels().into_iter().take(4) {
        assert_kernel_parity(kernel.as_ref(), &cfg, true, 1);
    }
}

#[test]
fn steady_state_protocol_matches() {
    // Counts are compared after every sweep, so five sweeps cover the
    // steady protocols (0, 1), (1, 1) and (2, 3) of (warm-up, timed)
    // sweeps, and the later sweeps enter the states the memo recorded.
    let cfg = HierarchyConfig::ultrasparc_i();
    for kernel in matrix_kernels().into_iter().take(6) {
        assert_kernel_parity(kernel.as_ref(), &cfg, false, 5);
    }
}

/// Three of the paper's padded versions and one contiguous layout under a
/// long steady protocol (2 warm-up sweeps, then T timed ones). A nest the
/// memo has not served replays only until its entry state repeats, after
/// which every sweep is a memo hit: the sink's own fallback count after
/// 2 + 8 sweeps equals the count after 2 + 64. And the analytic report
/// equals plain replay's. The replay side of 2 + 64 sweeps is too slow for
/// debug builds, which compare 2 + 8.
#[test]
fn long_steady_protocol_replays_only_until_state_repeats() {
    let usp = HierarchyConfig::ultrasparc_i();
    let alpha = HierarchyConfig::alpha_21164_like();
    let padded = |kernel: &dyn Kernel, cfg: &HierarchyConfig| {
        let v = build_versions(&kernel.model(), cfg, OptLevel::Conflict);
        (v.l1l2.program, v.l1l2.layout)
    };
    let expl = Expl::new(256).model();
    let contiguous = DataLayout::contiguous(&expl.arrays);
    let cases: [(&str, &HierarchyConfig, (Program, DataLayout)); 4] = [
        (
            "jacobi256 L1&L2 on ultrasparc_i",
            &usp,
            padded(&Jacobi::new(256), &usp),
        ),
        (
            "jacobi256 L1&L2 on alpha_21164_like",
            &alpha,
            padded(&Jacobi::new(256), &alpha),
        ),
        (
            "swim256 L1&L2 on ultrasparc_i",
            &usp,
            padded(&Shallow::swim(256), &usp),
        ),
        (
            "expl256 contiguous on ultrasparc_i",
            &usp,
            (expl, contiguous),
        ),
    ];
    let timed = if cfg!(debug_assertions) { 8 } else { 64 };
    for (name, cfg, (program, layout)) in &cases {
        let fallbacks = |sweeps: usize| {
            let mut h = Hierarchy::new((*cfg).clone());
            let mut sink = AnalyticSink::new(&mut h);
            for _ in 0..sweeps {
                try_generate_with(program, layout, &mut sink, true).unwrap();
            }
            sink.nests_fallback()
        };
        assert_eq!(
            fallbacks(2 + 8),
            fallbacks(2 + 64),
            "{name}: replay continued after the entry state repeated"
        );
        let analytic = try_simulate_steady_analytic(program, layout, cfg, 2, timed).unwrap();
        let replay = simulate_steady_with(program, layout, cfg, 2, timed, true);
        assert_eq!(
            analytic, replay,
            "{name}: steady reports diverge over 2 + {timed} sweeps"
        );
    }
}
