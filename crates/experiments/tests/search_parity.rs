//! Differential parity: the pruned incremental padding-search engine must
//! produce *bitwise-identical* layouts to the exhaustive scalar scan —
//! same pads, same base addresses, same `positions_tried` — for every
//! registered kernel, every padding algorithm built on the GROUPPAD
//! search, and every hierarchy geometry the experiments use. The
//! exhaustive side runs through the explicitly named `*_exhaustive`
//! entry points.
//!
//! Debug builds run every kernel on the paper's UltraSparc I config and a
//! reduced kernel set on the wider geometry matrix (the fast engine
//! additionally cross-checks every placement against the exhaustive scan
//! in debug, so these runs are doubly covered but slow); `--release` (the
//! CI search-parity job) runs every kernel everywhere.

use mlc_cache_sim::HierarchyConfig;
use mlc_core::group_pad::{
    group_pad_multi, group_pad_multi_exhaustive, group_pad_quantized,
    group_pad_quantized_exhaustive,
};
use mlc_core::maxpad::l2_max_pad;
use mlc_core::pad::PadResult;
use mlc_core::PadError;
use mlc_kernels::registry::all_kernels;
use mlc_kernels::Kernel;

/// Demand identical results from the pruned (`fast`) and exhaustive
/// (`scalar`) runs of one algorithm.
fn assert_search_parity(
    name: &str,
    fast: Result<PadResult, PadError>,
    scalar: Result<PadResult, PadError>,
) {
    match (fast, scalar) {
        (Ok(fast), Ok(scalar)) => {
            assert_eq!(fast.pads, scalar.pads, "{name}: pads diverge");
            assert_eq!(
                fast.layout.bases, scalar.layout.bases,
                "{name}: base addresses diverge"
            );
            assert_eq!(
                fast.positions_tried, scalar.positions_tried,
                "{name}: positions_tried diverge"
            );
            assert!(
                fast.positions_scored <= fast.positions_tried,
                "{name}: scored {} > tried {}",
                fast.positions_scored,
                fast.positions_tried
            );
            assert_eq!(
                scalar.positions_scored, scalar.positions_tried,
                "{name}: the exhaustive scan scores everything it tries"
            );
        }
        (fast, scalar) => {
            assert_eq!(
                fast.map(|r| r.pads),
                scalar.map(|r| r.pads),
                "{name}: engines disagree about failing"
            );
        }
    }
}

/// The three GROUPPAD-based algorithms against one hierarchy. Returns the
/// pruned multi-level search's `(positions_tried, positions_scored)`.
fn assert_kernel_parity(kernel: &dyn Kernel, cfg: &HierarchyConfig, hname: &str) -> (u64, u64) {
    let p = &kernel.model();
    let l1 = cfg.l1();
    let kname = kernel.name();
    let fast = group_pad_quantized(p, l1, l1.line as u64, &[]);
    let scalar = group_pad_quantized_exhaustive(p, l1, l1.line as u64, &[]);
    let maxpad = |g: &Result<PadResult, PadError>| match g {
        Ok(g) => l2_max_pad(p, l1, cfg.levels[1], &g.pads),
        Err(e) => Err(e.clone()),
    };
    assert_search_parity(
        &format!("{kname}/{hname}/L2MAXPAD"),
        maxpad(&fast),
        maxpad(&scalar),
    );
    assert_search_parity(&format!("{kname}/{hname}/GROUPPAD"), fast, scalar);
    let multi = group_pad_multi(p, cfg);
    let counts = multi
        .as_ref()
        .map_or((0, 0), |r| (r.positions_tried, r.positions_scored));
    assert_search_parity(
        &format!("{kname}/{hname}/GROUPPAD-multi"),
        multi,
        group_pad_multi_exhaustive(p, cfg),
    );
    counts
}

/// Kernels for the wide matrix: all of them in release; in debug only the
/// smaller programs (in debug the fast engine re-runs the exhaustive scan
/// as a cross-check on every placement, so each case costs at least two
/// full scalar searches).
fn matrix_kernels() -> Vec<Box<dyn Kernel>> {
    let kernels = all_kernels();
    if cfg!(debug_assertions) {
        kernels
            .into_iter()
            .filter(|k| k.model().arrays.len() <= 4)
            .collect()
    } else {
        kernels
    }
}

/// Every kernel matches on the paper's hierarchy, and the pruning pays:
/// over the 24 multi-level searches the pruned engine scores at most a
/// tenth of the positions it tries (the exhaustive scan scores all of
/// them). Routing the default entry points to the exhaustive scan passes
/// every parity check but fails this floor.
#[test]
fn every_kernel_matches_on_ultrasparc_i() {
    let cfg = HierarchyConfig::ultrasparc_i();
    let (mut tried, mut scored) = (0, 0);
    for kernel in all_kernels() {
        let (t, s) = assert_kernel_parity(kernel.as_ref(), &cfg, "ultrasparc_i");
        tried += t;
        scored += s;
    }
    assert!(
        scored * 10 <= tried,
        "pruned GROUPPAD scored {scored} of {tried} positions, more than 10%"
    );
}

#[test]
fn kernels_match_on_ablation_hierarchies() {
    for (cfg, hname) in [
        (HierarchyConfig::alpha_21164_like(), "alpha_21164_like"),
        (
            HierarchyConfig::ultrasparc_like_assoc(2),
            "ultrasparc_like_assoc2",
        ),
    ] {
        for kernel in matrix_kernels() {
            assert_kernel_parity(kernel.as_ref(), &cfg, hname);
        }
    }
}
