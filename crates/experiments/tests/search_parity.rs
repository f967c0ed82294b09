//! Differential parity: GROUPPAD's interval-sweep search must produce
//! *bitwise-identical* layouts to the exhaustive scalar scan — same pads,
//! same base addresses, same `positions_tried` — for every registered
//! kernel, the Figure 11 and 12 size-sweep programs, every padding
//! algorithm built on the GROUPPAD search, and every hierarchy geometry the
//! experiments use. The exhaustive side runs through the explicitly named
//! `*_exhaustive` entry points.
//!
//! Debug builds run every kernel on the paper's UltraSparc I config, a
//! reduced kernel set on the wider geometry matrix and one size of each
//! size-sweep program (the sweep additionally cross-checks every placement
//! against the exhaustive scan in debug, so these runs are doubly covered
//! but slow); `--release` (the CI search-parity job) runs every kernel
//! everywhere and every 20th (Figure 11) or 30th (Figure 12) size.
//!
//! Intra-variable padding, which runs before GROUPPAD, is held the same
//! way to the scan it replaced: every candidate pad rescanning every pair
//! of every nest.

use mlc_cache_sim::{CacheConfig, HierarchyConfig};
use mlc_core::conflict::circular_distance;
use mlc_core::group_pad::{
    group_pad_multi, group_pad_multi_exhaustive, group_pad_quantized,
    group_pad_quantized_exhaustive,
};
use mlc_core::intra_pad::{intra_pad, IntraPadResult};
use mlc_core::maxpad::l2_max_pad;
use mlc_core::pad::PadResult;
use mlc_core::PadError;
use mlc_kernels::expl::Expl;
use mlc_kernels::registry::all_kernels;
use mlc_kernels::shal::Shallow;
use mlc_kernels::Kernel;
use mlc_model::diagram::{reference_addresses, reference_locations};
use mlc_model::transform::fuse_unchecked_in_program;
use mlc_model::{DataLayout, Program};

/// Demand identical results from the sweep (`fast`) and exhaustive
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

/// The three GROUPPAD-based algorithms on program `p` (named `kname`)
/// against one hierarchy. Returns the sweep's multi-level
/// `(positions_tried, positions_scored)`.
fn assert_program_parity(
    p: &Program,
    kname: &str,
    cfg: &HierarchyConfig,
    hname: &str,
) -> (u64, u64) {
    let l1 = cfg.l1();
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

fn assert_kernel_parity(kernel: &dyn Kernel, cfg: &HierarchyConfig, hname: &str) -> (u64, u64) {
    assert_program_parity(&kernel.model(), &kernel.name(), cfg, hname)
}

/// Every kernel matches on the paper's hierarchy, and the sweep pays: over
/// the 24 multi-level searches it scores at most a tenth of the positions
/// it tries (5,399 of 137,600 segment starts; the exhaustive scan scores
/// all of them). Routing the default entry points to the exhaustive scan
/// passes every parity check but fails this floor.
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
        "GROUPPAD's sweep scored {scored} of {tried} positions, more than 10%"
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

/// Sizes of a sweep from `lo` to `hi` every `step`: in debug only the first,
/// since every placement there also runs the exhaustive scan.
fn sweep_sizes(lo: usize, hi: usize, step: usize) -> Vec<usize> {
    let sizes: Vec<usize> = (lo..=hi).step_by(step).collect();
    if cfg!(debug_assertions) {
        sizes[..1].to_vec()
    } else {
        sizes
    }
}

/// The programs the Figure 11 and 12 claims rest on, at their sweep sizes
/// on the paper's hierarchy: EXPL and SHAL after intra-variable padding
/// (`build_versions`' input to GROUPPAD, N = 250..=520), and EXPL unfused
/// and with nests 0/1 or 1/2 fused (`reuse_layout`'s input, N = 250..=700).
#[test]
fn size_sweep_programs_match_on_ultrasparc_i() {
    let cfg = HierarchyConfig::ultrasparc_i();
    let l1 = cfg.l1();
    for n in sweep_sizes(250, 520, 20) {
        for p in [Expl::new(n).model(), Shallow::shal(n).model()] {
            let p = intra_pad(&p, l1).program;
            assert_program_parity(&p, &format!("fig11 {} N={n}", p.name), &cfg, "ultrasparc_i");
        }
    }
    for n in sweep_sizes(250, 700, 30) {
        let p = Expl::new(n).model();
        assert_program_parity(&p, &format!("fig12 N={n}"), &cfg, "ultrasparc_i");
        for at in [0, 1] {
            let fused = fuse_unchecked_in_program(&p, at).expect("EXPL nests fuse");
            let name = format!("fig12 N={n} fused at {at}");
            assert_program_parity(&fused, &name, &cfg, "ultrasparc_i");
        }
    }
}

/// Intra-variable padding as the exhaustive rescan: for each candidate pad
/// of each array, every lockstep same-array pair of every nest is checked
/// again under the contiguous layout. Returns the pads and the unresolved
/// arrays.
fn intra_pad_by_rescan(program: &Program, cache: CacheConfig) -> (Vec<usize>, Vec<usize>) {
    // The array of every severe self-conflict, once per conflict.
    let self_conflicted_arrays = |p: &Program| -> Vec<usize> {
        let layout = DataLayout::contiguous(&p.arrays);
        let mut arrays = Vec::new();
        for nest in &p.nests {
            let locs = reference_locations(p, nest, &layout, cache);
            let addrs = reference_addresses(p, nest, &layout);
            let vars = nest.loop_vars();
            for i in 0..nest.body.len() {
                for j in i + 1..nest.body.len() {
                    let (ri, rj) = (&nest.body[i], &nest.body[j]);
                    if ri.array == rj.array
                        && ri.coeff_matrix(&vars) == rj.coeff_matrix(&vars)
                        && ri.constant_vector() != rj.constant_vector()
                        && addrs[i].abs_diff(addrs[j]) >= cache.line as u64
                        && circular_distance(locs[i], locs[j], cache.size as u64)
                            < cache.line as u64
                    {
                        arrays.push(ri.array);
                    }
                }
            }
        }
        arrays
    };
    let mut p = program.clone();
    let mut pads = vec![0usize; p.arrays.len()];
    let mut unresolved = Vec::new();
    #[allow(clippy::needless_range_loop)] // `a` indexes the program and the pads
    for a in 0..p.arrays.len() {
        if p.arrays[a].rank() < 2 {
            continue;
        }
        let quantum = (cache.line / p.arrays[a].elem_size).max(1);
        let limit = cache.size / p.arrays[a].elem_size;
        while self_conflicted_arrays(&p).contains(&a) {
            pads[a] += quantum;
            if pads[a] > limit {
                pads[a] = 0;
                p.arrays[a].set_dim_pad(0, 0);
                unresolved.push(a);
                break;
            }
            p.arrays[a].set_dim_pad(0, pads[a]);
        }
    }
    (pads, unresolved)
}

/// Demand [`intra_pad`]'s pads, unresolved arrays and padded program from
/// the rescan; returns how many arrays it padded and left unresolved.
fn assert_intra_pad_parity(p: &Program, cache: CacheConfig, name: &str) -> [usize; 2] {
    let IntraPadResult {
        program,
        pads,
        unresolved,
    } = intra_pad(p, cache);
    assert_eq!(
        (pads.clone(), unresolved.clone()),
        intra_pad_by_rescan(p, cache),
        "{name}: intra-variable pads diverge"
    );
    for (a, &pad) in pads.iter().enumerate() {
        let mut want = p.arrays[a].clone();
        want.set_dim_pad(0, pad);
        assert_eq!(program.arrays[a], want, "{name}: array {a}");
    }
    [
        pads.iter().filter(|&&pad| pad > 0).count(),
        unresolved.len(),
    ]
}

/// Every kernel on the L1 of each hierarchy the experiments use (fftpde's
/// two unfixable arrays try every pad), and the Figure 11 and 12 programs
/// at every size of their sweeps.
#[test]
fn intra_pad_matches_the_rescan() {
    for cfg in [
        HierarchyConfig::ultrasparc_i(),
        HierarchyConfig::alpha_21164_like(),
        HierarchyConfig::ultrasparc_like_assoc(2),
    ] {
        let mut seen = [0; 2];
        for kernel in all_kernels() {
            let [padded, unresolved] =
                assert_intra_pad_parity(&kernel.model(), cfg.l1(), &kernel.name());
            seen = [seen[0] + padded, seen[1] + unresolved];
        }
        assert!(seen.iter().all(|&k| k > 0), "padded, unresolved: {seen:?}");
    }
    let l1 = HierarchyConfig::ultrasparc_i().l1();
    for n in 250..=700 {
        assert_intra_pad_parity(&Expl::new(n).model(), l1, &format!("expl N={n}"));
        if n <= 520 {
            assert_intra_pad_parity(&Shallow::shal(n).model(), l1, &format!("shal N={n}"));
        }
    }
}
