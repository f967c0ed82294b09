//! Differential parity for the analytic engine's nest memo: wherever it
//! serves a nest (and wherever it declines), the per-level accesses,
//! misses, write-backs — and the final tag-array contents — must be
//! *bitwise identical* to the run-length replay, for every registered
//! kernel, across hierarchy geometries and replacement policies.
//!
//! Debug builds run every kernel on the paper's UltraSparc I config and a
//! reduced kernel set on the wider geometry × policy matrix to keep test
//! time sane; `--release` (the CI analytic-parity job) runs every kernel
//! everywhere.

use mlc_cache_sim::config::CacheConfig;
use mlc_cache_sim::replacement::ReplacementPolicy;
use mlc_cache_sim::{Hierarchy, HierarchyConfig};
use mlc_core::analytic::AnalyticSink;
use mlc_core::{try_simulate_analytic, try_simulate_steady_analytic};
use mlc_experiments::versions::{build_versions, OptLevel};
use mlc_kernels::expl::Expl;
use mlc_kernels::jacobi::Jacobi;
use mlc_kernels::registry::all_kernels;
use mlc_kernels::shal::Shallow;
use mlc_kernels::Kernel;
use mlc_model::trace_gen::{simulate_steady_with, simulate_with, try_generate_with};
use mlc_model::{DataLayout, Program};

/// Simulate `kernel` with the analytic engine in front and with plain
/// replay, and demand identical counters *and* identical final cache
/// contents (tags, dirty bits, recency order).
fn assert_kernel_parity(kernel: &dyn Kernel, cfg: &HierarchyConfig, prefetch: bool) {
    let program = kernel.model();
    let layout = DataLayout::contiguous(&program.arrays);
    let build = |cfg: &HierarchyConfig| {
        if prefetch {
            Hierarchy::with_next_line_prefetch(cfg.clone())
        } else {
            Hierarchy::new(cfg.clone())
        }
    };
    let mut analytic = build(cfg);
    {
        let mut sink = AnalyticSink::new(&mut analytic);
        try_generate_with(&program, &layout, &mut sink, true).unwrap();
    }
    let mut replay = build(cfg);
    try_generate_with(&program, &layout, &mut replay, true).unwrap();
    assert_eq!(
        analytic.stats(),
        replay.stats(),
        "{}: per-level accesses/misses diverge on {cfg:?}",
        kernel.name()
    );
    assert_eq!(
        analytic.writebacks(),
        replay.writebacks(),
        "{}: write-backs diverge on {cfg:?}",
        kernel.name()
    );
    assert_eq!(analytic.prefetch_fills(), replay.prefetch_fills());
    for (level, (ca, cr)) in analytic.caches().iter().zip(replay.caches()).enumerate() {
        for set in 0..ca.config().num_sets() {
            let a: Vec<_> = ca.set_contents(set).collect();
            let r: Vec<_> = cr.set_contents(set).collect();
            assert_eq!(
                a,
                r,
                "{}: L{} set {set} contents diverge on {cfg:?}",
                kernel.name(),
                level + 1
            );
        }
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
        assert_kernel_parity(kernel.as_ref(), &cfg, false);
    }
}

#[test]
fn kernels_match_on_ablation_hierarchies() {
    for cfg in [
        HierarchyConfig::alpha_21164_like(),
        HierarchyConfig::ultrasparc_like_assoc(2),
    ] {
        for kernel in matrix_kernels() {
            assert_kernel_parity(kernel.as_ref(), &cfg, false);
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
            assert_kernel_parity(kernel.as_ref(), &cfg, false);
        }
    }
}

#[test]
fn kernels_match_with_next_line_prefetch() {
    // Prefetching makes the analytic engine decline every nest; this pins
    // down that the decline really happens and the wrapped replay stays
    // exact.
    let cfg = HierarchyConfig::ultrasparc_i();
    for kernel in matrix_kernels().into_iter().take(4) {
        assert_kernel_parity(kernel.as_ref(), &cfg, true);
    }
}

#[test]
fn cold_reports_match_on_every_kernel() {
    let cfg = HierarchyConfig::ultrasparc_i();
    for kernel in matrix_kernels() {
        let program = kernel.model();
        let layout = DataLayout::contiguous(&program.arrays);
        let analytic = try_simulate_analytic(&program, &layout, &cfg).unwrap();
        let replay = simulate_with(&program, &layout, &cfg, true);
        assert_eq!(analytic, replay, "{}: cold reports diverge", kernel.name());
    }
}

#[test]
fn steady_state_protocol_matches() {
    let cfg = HierarchyConfig::ultrasparc_i();
    for kernel in matrix_kernels().into_iter().take(6) {
        let program = kernel.model();
        let layout = DataLayout::contiguous(&program.arrays);
        for (warmup, timed) in [(0, 1), (1, 1), (2, 3)] {
            let analytic =
                try_simulate_steady_analytic(&program, &layout, &cfg, warmup, timed).unwrap();
            let replay = simulate_steady_with(&program, &layout, &cfg, warmup, timed, true);
            assert_eq!(
                analytic,
                replay,
                "{}: steady reports diverge at warmup={warmup} timed={timed}",
                kernel.name()
            );
        }
    }
}

/// Three of the paper's padded versions and one contiguous layout under a
/// long steady protocol (2 warm-up sweeps, then T timed ones). Nests the
/// closed form rejects replay only until their entry state repeats, after
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
