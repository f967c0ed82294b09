//! `GROUPPAD`: padding to preserve group reuse on the L1 cache.
//!
//! Section 3.2.1: "GROUPPAD obtains such a layout by considering for each
//! variable a limited number of positions relative to other variables. The
//! number of references successfully exploiting group reuse at the L1 cache
//! is counted for each position. GROUPPAD then selects the position
//! maximizing this value." It simultaneously avoids severe conflict misses
//! (it "inserts larger pads than PAD to obtain a layout both preserving
//! group reuse on the L1 cache and avoiding severe conflict misses").
//!
//! Implementation: incremental placement in declaration order. For each
//! variable all cache positions at line granularity are scored by the
//! lexicographic objective *(fewest severe conflicts, most references
//! exploiting group reuse among placed variables, smallest pad)*.
//!
//! The default entry points run the interval sweep in [`crate::search`],
//! which scores each placement's constant-score segments in one pass. The
//! exhaustive scan kept here is the reference it must match bitwise,
//! reachable only through the explicitly named
//! [`group_pad_quantized_exhaustive`] and [`group_pad_multi_exhaustive`]:
//! the parity suite in `mlc-experiments` and the fuzz oracle call those.
//! Debug builds also cross-check every placement against an exhaustive
//! rescan.

use crate::group::ProgramSkeleton;
use crate::pad::{PadError, PadResult};
use mlc_cache_sim::CacheConfig;
use mlc_model::{DataLayout, Program};

/// Run GROUPPAD against one cache (the L1 cache in the paper).
///
/// Infallible: the line-granularity quantum divides the cache size by
/// construction of [`CacheConfig`].
pub fn group_pad(program: &Program, cache: CacheConfig) -> PadResult {
    group_pad_quantized(program, cache, cache.line as u64, &[])
        .expect("cache line divides cache size")
}

/// GROUPPAD with a pad quantum: candidate pads are multiples of `quantum`
/// covering one full cache span. `base_pads` (if non-empty) is added before
/// the search pads — this is the entry point the recursive multi-level
/// variant uses, where the quantum at level ℓ is the cache size of level
/// ℓ−1 so deeper levels cannot disturb the layout already fixed for the
/// levels above (Section 3.2.2).
///
/// Errors with [`PadError::BadQuantum`] when `quantum` is zero or does not
/// divide the cache size, and [`PadError::BaseLenMismatch`] when a
/// non-empty `base_pads` does not cover every array.
pub fn group_pad_quantized(
    program: &Program,
    cache: CacheConfig,
    quantum: u64,
    base_pads: &[u64],
) -> Result<PadResult, PadError> {
    let skel = ProgramSkeleton::new(program);
    group_pad_quantized_with(program, &skel, cache, quantum, base_pads)
}

/// [`group_pad_quantized`] against a prebuilt [`ProgramSkeleton`] — the
/// entry point for callers that run many searches over one program (the
/// multi-level recursion, sweep drivers, benchmarks), hoisting skeleton
/// construction out of the loop.
pub fn group_pad_quantized_with(
    program: &Program,
    skel: &ProgramSkeleton,
    cache: CacheConfig,
    quantum: u64,
    base_pads: &[u64],
) -> Result<PadResult, PadError> {
    quantized_search(
        program,
        skel,
        cache,
        quantum,
        base_pads,
        crate::search::grouppad_search,
    )
}

/// [`group_pad_quantized`] on the exhaustive reference scan: every
/// candidate position scored with a full recompute. Same pads, bases and
/// `positions_tried` as the sweep, with `positions_scored ==
/// positions_tried`; only the time differs. For parity checks and for
/// timing the sweep against it.
pub fn group_pad_quantized_exhaustive(
    program: &Program,
    cache: CacheConfig,
    quantum: u64,
    base_pads: &[u64],
) -> Result<PadResult, PadError> {
    let skel = ProgramSkeleton::new(program);
    quantized_search(program, &skel, cache, quantum, base_pads, exhaustive_search)
}

/// A GROUPPAD search engine: `(skeleton, cache, quantum, base pads)` to
/// `(pads, positions_tried, positions_scored)`.
type Engine = fn(&ProgramSkeleton, CacheConfig, u64, Vec<u64>) -> (Vec<u64>, u64, u64);

fn quantized_search(
    program: &Program,
    skel: &ProgramSkeleton,
    cache: CacheConfig,
    quantum: u64,
    base_pads: &[u64],
    engine: Engine,
) -> Result<PadResult, PadError> {
    if quantum == 0 || !(cache.size as u64).is_multiple_of(quantum) {
        return Err(PadError::BadQuantum {
            quantum,
            cache_size: cache.size,
        });
    }
    let n = program.arrays.len();
    if !base_pads.is_empty() && base_pads.len() != n {
        return Err(PadError::BaseLenMismatch {
            arrays: n,
            base_pads: base_pads.len(),
        });
    }
    let base = if base_pads.is_empty() {
        vec![0u64; n]
    } else {
        base_pads.to_vec()
    };
    let (pads, tried, scored) = engine(skel, cache, quantum, base);
    Ok(PadResult {
        layout: DataLayout::with_pads(&program.arrays, &pads),
        pads,
        positions_tried: tried,
        positions_scored: scored,
    })
}

/// The exhaustive scalar scan: every candidate position, full recompute.
/// Kept verbatim as the reference the sweep is checked against.
fn exhaustive_search(
    skel: &ProgramSkeleton,
    cache: CacheConfig,
    quantum: u64,
    base: Vec<u64>,
) -> (Vec<u64>, u64, u64) {
    let n = skel.n_arrays();
    let mut pads = base.clone();
    let mut tried = 0u64;
    let candidates = cache.size as u64 / quantum;
    let sizes = skel.array_sizes();
    // bases(pads): cumulative layout arithmetic without allocating a layout.
    let compute_bases = |pads: &[u64], out: &mut Vec<u64>| {
        out.clear();
        let mut cursor = 0u64;
        for (sz, &p) in sizes.iter().zip(pads) {
            cursor += p;
            out.push(cursor);
            cursor += sz;
        }
    };
    let mut bases = Vec::with_capacity(n);

    // One variable's best position given a fixed set of visible arrays.
    let place =
        |pads: &mut Vec<u64>, k: usize, visible: &[bool], tried: &mut u64, bases: &mut Vec<u64>| {
            let mut best: Option<(usize, i64, u64)> = None;
            let mut best_pad = pads[k];
            for c in 0..candidates {
                let candidate = base[k] + c * quantum;
                pads[k] = candidate;
                compute_bases(pads, bases);
                *tried += 1;
                let conflicts = skel.severe(bases, cache, Some(visible));
                let exploited = skel.exploited(bases, cache, Some(visible)) as i64;
                let score = (conflicts, -exploited, candidate);
                if best.is_none_or(|b| score < b) {
                    best = Some(score);
                    best_pad = candidate;
                }
            }
            pads[k] = best_pad;
        };

    // Initial greedy placement in declaration order.
    let mut visible = vec![false; n];
    for k in 0..n {
        visible[k] = true;
        place(&mut pads, k, &visible, &mut tried, &mut bases);
    }
    // Refinement sweeps: re-place each variable with all others fixed
    // (coordinate ascent over the full objective). The first greedy pass is
    // myopic when the cache barely holds two columns; a couple of sweeps
    // recovers the layouts the paper's diagrams show.
    for _ in 0..2 {
        let before = pads.clone();
        for k in 0..n {
            place(&mut pads, k, &visible, &mut tried, &mut bases);
        }
        if pads == before {
            break;
        }
    }
    (pads, tried, tried)
}

/// Recursive multi-level GROUPPAD (Section 3.2.2): "GROUPPAD ... begins
/// targeting the L1 cache as already described, and then in later phases
/// recursively applies GROUPPAD to exploit group reuse for lower levels of
/// cache, using pads which are multiples of the previous cache size to
/// preserve group reuse at higher levels of cache."
///
/// Phase ℓ searches pad increments that are multiples of level ℓ−1's cache
/// size, so every already-fixed level's layout (base addresses modulo its
/// cache size) is untouched. Works for any hierarchy depth; errors with
/// [`PadError::BadQuantum`] on a hierarchy whose sizes do not nest.
///
/// The program skeleton is built once and shared across all levels.
pub fn group_pad_multi(
    program: &Program,
    hierarchy: &mlc_cache_sim::HierarchyConfig,
) -> Result<PadResult, PadError> {
    multi_search(program, hierarchy, crate::search::grouppad_search)
}

/// [`group_pad_multi`] with every level on the exhaustive reference scan
/// (see [`group_pad_quantized_exhaustive`]).
pub fn group_pad_multi_exhaustive(
    program: &Program,
    hierarchy: &mlc_cache_sim::HierarchyConfig,
) -> Result<PadResult, PadError> {
    multi_search(program, hierarchy, exhaustive_search)
}

fn multi_search(
    program: &Program,
    hierarchy: &mlc_cache_sim::HierarchyConfig,
    engine: Engine,
) -> Result<PadResult, PadError> {
    let skel = ProgramSkeleton::new(program);
    let l1 = hierarchy.l1();
    let mut result = quantized_search(program, &skel, l1, l1.line as u64, &[], engine)?;
    let mut tried = result.positions_tried;
    let mut scored = result.positions_scored;
    for level in 1..hierarchy.depth() {
        let quantum = hierarchy.levels[level - 1].size as u64;
        let r = quantized_search(
            program,
            &skel,
            hierarchy.levels[level],
            quantum,
            &result.pads,
            engine,
        )?;
        tried += r.positions_tried;
        scored += r.positions_scored;
        result = r;
    }
    result.positions_tried = tried;
    result.positions_scored = scored;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::severe_conflicts;
    use crate::group::{account, exploited_count, RefClass};
    use mlc_cache_sim::CacheConfig;
    use mlc_model::program::figure2_example;
    use mlc_model::transform::fuse_in_program;

    /// Diagram-scale configuration: 1 KiB cache, 480-byte columns.
    fn small_l1() -> CacheConfig {
        CacheConfig::direct_mapped(1024, 32)
    }

    #[test]
    fn grouppad_beats_pad_on_group_reuse() {
        // Realistic ratio: 16 KiB cache, N=450 doubles -> 3600 B columns
        // (~4.5 columns of cache): room to preserve all five arcs.
        let l1 = CacheConfig::direct_mapped(16 * 1024, 32);
        let p = figure2_example(450);
        let g = group_pad(&p, l1);
        let plain = crate::pad::pad(&p, l1);
        let g_count = exploited_count(&p, &g.layout, l1, &[]);
        let p_count = exploited_count(&p, &plain.layout, l1, &[]);
        assert!(
            g_count >= p_count,
            "GROUPPAD ({g_count}) should exploit at least as much group reuse as PAD ({p_count})"
        );
        assert_eq!(
            g_count, 5,
            "all five arcs should be preserved at this ratio"
        );
    }

    #[test]
    fn grouppad_preserves_b_arcs_at_tight_ratio() {
        // The Figure 4 situation: cache ~2.1 columns (N=60 doubles on a
        // 1 KiB cache). Not everything fits; GROUPPAD salvages what it can.
        let p = figure2_example(60);
        let g = group_pad(&p, small_l1());
        let count = exploited_count(&p, &g.layout, small_l1(), &[]);
        assert!(count >= 2, "got {count}");
    }

    #[test]
    fn grouppad_avoids_severe_conflicts_when_possible() {
        let p = figure2_example(64); // 512-byte columns on the 1 KiB cache
        let g = group_pad(&p, small_l1());
        assert!(severe_conflicts(&p, &g.layout, small_l1()).is_empty());
    }

    #[test]
    fn grouppad_on_the_real_l1() {
        // N=512 on the 16 KiB UltraSparc L1: columns are 4 KiB; the cache
        // holds 4 columns, so not all of nest 1's three arcs (one column
        // each, plus slack) can be preserved, but B's can.
        let l1 = CacheConfig::direct_mapped(16 * 1024, 32);
        let p = figure2_example(512);
        let g = group_pad(&p, l1);
        assert!(severe_conflicts(&p, &g.layout, l1).is_empty());
        let acc = account(&p, &g.layout, l1, None);
        assert!(acc.l1_refs >= 3, "got {:?}", acc);
    }

    #[test]
    fn fused_program_loses_l1_group_reuse() {
        // The Section 4 tradeoff, with GROUPPAD searching for real: the
        // fused nest needs over four columns of cache ("a L1 cache size over
        // four times the column size would be required to exploit all group
        // reuse"), so at exactly four columns (N=512 on 16 KiB) fewer
        // references exploit group reuse after fusion.
        let l1 = CacheConfig::direct_mapped(16 * 1024, 32);
        let p = figure2_example(512);
        let fused = fuse_in_program(&p, 0).unwrap();
        let before = group_pad(&p, l1);
        let after = group_pad(&fused, l1);
        let n_before = exploited_count(&p, &before.layout, l1, &[]);
        let n_after = exploited_count(&fused, &after.layout, l1, &[]);
        assert!(
            n_after < n_before,
            "fusion should lose L1 group reuse here: {n_after} !< {n_before}"
        );
    }

    #[test]
    fn quantized_pads_respect_quantum() {
        let p = figure2_example(60);
        let r = group_pad_quantized(&p, CacheConfig::direct_mapped(8192, 64), 1024, &[]).unwrap();
        for &pad in &r.pads {
            assert_eq!(pad % 1024, 0);
        }
    }

    #[test]
    fn bad_quantum_is_a_named_error_not_a_panic() {
        let p = figure2_example(60);
        let cache = CacheConfig::direct_mapped(8192, 64);
        assert_eq!(
            group_pad_quantized(&p, cache, 0, &[]).unwrap_err(),
            PadError::BadQuantum {
                quantum: 0,
                cache_size: 8192
            }
        );
        // 3000 does not divide 8192.
        let err = group_pad_quantized(&p, cache, 3000, &[]).unwrap_err();
        assert!(err.to_string().contains("3000"), "{err}");
    }

    #[test]
    fn quantum_equal_to_cache_size_has_a_single_candidate() {
        // candidates = size/quantum = 1: the only position is the base pad
        // itself, for both engines, with one try per place call.
        let p = figure2_example(60);
        let cache = CacheConfig::direct_mapped(1024, 32);
        let base = [32, 64, 96];
        for (engine, r) in [
            ("sweep", group_pad_quantized(&p, cache, 1024, &base)),
            (
                "exhaustive",
                group_pad_quantized_exhaustive(&p, cache, 1024, &base),
            ),
        ] {
            let r = r.unwrap();
            assert_eq!(r.pads, base, "{engine}: pads must not move");
            // 3 greedy places + one no-change refinement sweep of 3.
            assert_eq!(r.positions_tried, 6, "{engine}");
            assert_eq!(r.positions_scored, 6, "{engine}: nothing to prune");
        }
    }

    #[test]
    fn base_pads_length_mismatch_is_a_named_error() {
        let p = figure2_example(60); // three arrays
        let err = group_pad_quantized(&p, small_l1(), 32, &[0, 0]).unwrap_err();
        assert_eq!(
            err,
            PadError::BaseLenMismatch {
                arrays: 3,
                base_pads: 2
            }
        );
    }

    #[test]
    fn base_pads_are_preserved_mod_quantum() {
        let p = figure2_example(60);
        let l1 = small_l1();
        let first = group_pad(&p, l1);
        // Second phase: search L2 positions in S1 steps on top of the L1 pads.
        let l2 = CacheConfig::direct_mapped(8192, 64);
        let second = group_pad_quantized(&p, l2, l1.size as u64, &first.pads).unwrap();
        for (a, b) in first.pads.iter().zip(&second.pads) {
            assert_eq!(
                a % l1.size as u64,
                b % l1.size as u64,
                "L1 residue must be preserved"
            );
            assert!(b >= a);
        }
        // L1 exploitation unchanged by the second phase.
        assert_eq!(
            exploited_count(&p, &first.layout, l1, &[]),
            exploited_count(&p, &second.layout, l1, &[])
        );
    }

    #[test]
    fn recursive_multilevel_grouppad_preserves_upper_levels() {
        use mlc_cache_sim::HierarchyConfig;
        let h = HierarchyConfig::alpha_21164_like(); // three levels
        let p = figure2_example(300);
        let single = group_pad(&p, h.l1());
        let multi = group_pad_multi(&p, &h).unwrap();
        // Every level-ℓ phase uses multiples of level ℓ−1's size, so the L1
        // residues of the final layout match the pure-L1 run.
        let s1 = h.l1().size as u64;
        for (a, b) in single.layout.bases.iter().zip(&multi.layout.bases) {
            assert_eq!(a % s1, b % s1);
        }
        assert_eq!(
            exploited_count(&p, &single.layout, h.l1(), &[]),
            exploited_count(&p, &multi.layout, h.l1(), &[])
        );
        // And the deeper levels get at least as much exploited reuse as the
        // L1-only layout leaves them by accident.
        for level in 1..h.depth() {
            let c = h.levels[level];
            assert!(
                exploited_count(&p, &multi.layout, c, &[])
                    >= exploited_count(&p, &single.layout, c, &[]),
                "level {level}"
            );
        }
    }

    #[test]
    fn two_level_recursive_matches_quantized_composition() {
        use mlc_cache_sim::HierarchyConfig;
        let h = HierarchyConfig::ultrasparc_i();
        let p = figure2_example(60);
        let multi = group_pad_multi(&p, &h).unwrap();
        let manual = {
            let g = group_pad(&p, h.l1());
            group_pad_quantized(&p, h.levels[1], h.l1().size as u64, &g.pads).unwrap()
        };
        assert_eq!(multi.pads, manual.pads);
    }

    #[test]
    fn accounting_classes_follow_grouppad() {
        let p = figure2_example(60);
        let g = group_pad(&p, small_l1());
        let acc = account(&p, &g.layout, small_l1(), None);
        // Every class is one of the single-level ones.
        for c in acc.per_nest.iter().flatten() {
            assert_ne!(*c, RefClass::L2);
        }
        assert_eq!(acc.l1_refs + acc.memory_refs + acc.register_refs, 10);
    }

    #[test]
    fn fast_and_scalar_search_agree_bitwise() {
        // The core parity property, at diagram scale and on the real L1,
        // single- and multi-level. (The full 24-kernel matrix lives in the
        // mlc-experiments search_parity suite.)
        use mlc_cache_sim::HierarchyConfig;
        for n in [60usize, 64, 300, 450] {
            let p = figure2_example(n);
            for cache in [small_l1(), CacheConfig::direct_mapped(16 * 1024, 32)] {
                let fast = group_pad(&p, cache);
                let scalar =
                    group_pad_quantized_exhaustive(&p, cache, cache.line as u64, &[]).unwrap();
                assert_eq!(fast.pads, scalar.pads, "N={n}, cache {cache:?}");
                assert_eq!(fast.layout.bases, scalar.layout.bases);
                assert_eq!(fast.positions_tried, scalar.positions_tried);
                assert!(fast.positions_scored <= fast.positions_tried);
                assert_eq!(scalar.positions_scored, scalar.positions_tried);
            }
            let h = HierarchyConfig::ultrasparc_i();
            let fast = group_pad_multi(&p, &h).unwrap();
            let scalar = group_pad_multi_exhaustive(&p, &h).unwrap();
            assert_eq!(fast.pads, scalar.pads, "multi-level, N={n}");
            assert_eq!(fast.positions_tried, scalar.positions_tried);
        }
    }
}
