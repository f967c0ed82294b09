//! Differential parity: the run-length fast path must be *bitwise identical*
//! to the per-access scalar path — same per-level accesses, misses and
//! write-backs, and the same final contents (tags, dirty bits and recency
//! order of every set) — for every registered kernel, across hierarchy
//! geometries and replacement policies.
//!
//! Debug builds run every kernel on the paper's UltraSparc I config and a
//! reduced kernel set on the wider geometry × policy matrix to keep test
//! time sane; `--release` (the CI parity job) runs every kernel everywhere.

use mlc_cache_sim::config::CacheConfig;
use mlc_cache_sim::replacement::ReplacementPolicy;
use mlc_cache_sim::{Hierarchy, HierarchyConfig};
use mlc_kernels::registry::all_kernels;
use mlc_kernels::Kernel;
use mlc_model::trace_gen::{generate_with, simulate_steady_with};
use mlc_model::DataLayout;

/// Simulate `kernel` through both paths on `cfg` and demand identical
/// per-level accesses, misses, write-backs and final set contents.
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
    let mut fast = build(cfg);
    let nf = generate_with(&program, &layout, &mut fast, true);
    let mut scalar = build(cfg);
    let ns = generate_with(&program, &layout, &mut scalar, false);
    assert_eq!(nf, ns, "{}: reference counts diverge", kernel.name());
    assert_eq!(
        fast.stats(),
        scalar.stats(),
        "{}: per-level accesses/misses diverge on {cfg:?}",
        kernel.name()
    );
    assert_eq!(
        fast.writebacks(),
        scalar.writebacks(),
        "{}: write-backs diverge on {cfg:?}",
        kernel.name()
    );
    assert_eq!(fast.prefetch_fills(), scalar.prefetch_fills());
    for (level, (f, c)) in fast.caches().iter().zip(scalar.caches()).enumerate() {
        for set in 0..f.config().num_sets() {
            assert!(
                f.set_contents(set).eq(c.set_contents(set)),
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
    // Prefetching disables the fast path entirely; this pins down that the
    // fallback really is taken and stays exact.
    let cfg = HierarchyConfig::ultrasparc_i();
    for kernel in matrix_kernels().into_iter().take(4) {
        assert_kernel_parity(kernel.as_ref(), &cfg, true);
    }
}

#[test]
fn steady_state_protocol_matches_between_paths() {
    let cfg = HierarchyConfig::ultrasparc_i();
    for kernel in matrix_kernels().into_iter().take(6) {
        let program = kernel.model();
        let layout = DataLayout::contiguous(&program.arrays);
        let fast = simulate_steady_with(&program, &layout, &cfg, 1, 1, true);
        let scalar = simulate_steady_with(&program, &layout, &cfg, 1, 1, false);
        assert_eq!(
            fast,
            scalar,
            "{}: steady-state reports diverge",
            kernel.name()
        );
    }
}
