//! Severe ("ping-pong") conflict-miss detection.
//!
//! Section 3: "if A and B are separated by a multiple of the cache size in a
//! direct-mapped cache, references A(j,i) and B(j,i) will map to the same
//! cache line in the first loop nest, eliminating reuse. In this case severe
//! or ping-pong conflict misses result, since misses can occur on every
//! iteration."
//!
//! Two references conflict *severely* when (a) they belong to different
//! variables, (b) they move in lockstep — equal subscript coefficient
//! matrices, so their cache-location distance is constant over all
//! iterations ("these relative positions do not change over loop
//! iterations"), and (c) that constant circular distance on the cache is
//! less than one cache line, so they keep evicting each other's line.
//! References that drift relative to each other collide only transiently;
//! those are ordinary (non-severe) conflicts that padding cannot eliminate.

use mlc_cache_sim::CacheConfig;
use mlc_model::diagram::reference_addresses;
use mlc_model::{DataLayout, LoopNest, Program};

/// A severe conflict between two body references of one nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SevereConflict {
    /// Nest index within the program.
    pub nest: usize,
    /// Body indices of the conflicting pair (`a < b`).
    pub a: usize,
    /// Second body index of the pair.
    pub b: usize,
    /// Circular distance of their cache locations, in bytes (< line size).
    pub distance: u64,
}

/// Circular distance between two cache locations on a cache of `size` bytes.
#[inline]
pub fn circular_distance(x: u64, y: u64, size: u64) -> u64 {
    let d = x.abs_diff(y) % size;
    d.min(size - d)
}

/// Severe conflicts in one nest under a layout, against one cache
/// configuration (pass [`mlc_cache_sim::HierarchyConfig::multilvl_pad_config`]
/// for the MULTILVLPAD virtual cache).
pub fn severe_conflicts_in_nest(
    program: &Program,
    nest_idx: usize,
    layout: &DataLayout,
    cache: CacheConfig,
) -> Vec<SevereConflict> {
    let nest = &program.nests[nest_idx];
    let addrs = reference_addresses(program, nest, layout);
    let vars = nest.loop_vars();
    let mut out = Vec::new();
    for i in 0..nest.body.len() {
        for j in i + 1..nest.body.len() {
            let (ri, rj) = (&nest.body[i], &nest.body[j]);
            if ri.array == rj.array {
                continue; // same variable: intra-variable padding's job
            }
            if ri.coeff_matrix(&vars) != rj.coeff_matrix(&vars) {
                continue; // not lockstep: transient collision only
            }
            if let Some(distance) = severe_distance(addrs[i], addrs[j], cache) {
                out.push(SevereConflict {
                    nest: nest_idx,
                    a: i,
                    b: j,
                    distance,
                });
            }
        }
    }
    out
}

/// The circular cache distance of two lockstep references at byte addresses
/// `x` and `y` when they conflict severely on `cache`: on different memory
/// lines, but less than a line apart on the cache.
pub(crate) fn severe_distance(x: u64, y: u64, cache: CacheConfig) -> Option<u64> {
    if x.abs_diff(y) < cache.line as u64 {
        return None; // same memory line: sharing, not ping-ponging
    }
    let d = circular_distance(cache.location(x), cache.location(y), cache.size as u64);
    (d < cache.line as u64).then_some(d)
}

/// Severe conflicts across the whole program.
pub fn severe_conflicts(
    program: &Program,
    layout: &DataLayout,
    cache: CacheConfig,
) -> Vec<SevereConflict> {
    (0..program.nests.len())
        .flat_map(|k| severe_conflicts_in_nest(program, k, layout, cache))
        .collect()
}

/// Severe *self*-conflicts: lockstep references to the **same** variable
/// mapping within one line of each other (but at different memory
/// addresses). These are what intra-variable padding removes — e.g. columns
/// of an array whose leading dimension is a multiple of the cache size.
pub fn severe_self_conflicts(
    program: &Program,
    layout: &DataLayout,
    cache: CacheConfig,
) -> Vec<SevereConflict> {
    let mut out = Vec::new();
    for (nest_idx, nest) in program.nests.iter().enumerate() {
        let addrs = reference_addresses(program, nest, layout);
        for (a, b) in self_pairs(nest) {
            if let Some(distance) = severe_distance(addrs[a], addrs[b], cache) {
                out.push(SevereConflict {
                    nest: nest_idx,
                    a,
                    b,
                    distance,
                });
            }
        }
    }
    out
}

/// The body index pairs `(a, b)`, `a < b`, of a nest's lockstep references
/// to one variable at different constant offsets: the pairs a severe
/// self-conflict can arise between. Which pairs these are depends on the
/// subscripts alone, not on the layout or any pad.
pub(crate) fn self_pairs(nest: &LoopNest) -> impl Iterator<Item = (usize, usize)> + '_ {
    let vars = nest.loop_vars();
    let body = &nest.body;
    (0..body.len())
        .flat_map(move |a| (a + 1..body.len()).map(move |b| (a, b)))
        .filter(move |&(a, b)| {
            let (ra, rb) = (&body[a], &body[b]);
            ra.array == rb.array
                && ra.coeff_matrix(&vars) == rb.coeff_matrix(&vars)
                && ra.constant_vector() != rb.constant_vector()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache_sim::CacheConfig;
    use mlc_model::prelude::*;
    use mlc_model::program::figure2_example;

    fn l1() -> CacheConfig {
        CacheConfig::direct_mapped(16 * 1024, 32)
    }

    #[test]
    fn contiguous_figure2_conflicts_everywhere() {
        // N=512: arrays are multiples of the cache size; every cross-array
        // lockstep pair coincides.
        let p = figure2_example(512);
        let l = DataLayout::contiguous(&p.arrays);
        let c = severe_conflicts(&p, &l, l1());
        // Nest 1: pairs (A,B), (A,C), (B,C) at offsets 0 and +1 column:
        // A(i,j)-B(i,j), A(i,j)-C(i,j), B(i,j)-C(i,j), and same for the j+1
        // refs: 6 pairs. Nest 2: B(i,j)-C(i,j): 1 pair.
        assert_eq!(c.len(), 7);
        assert!(c.iter().all(|x| x.distance == 0));
    }

    #[test]
    fn circular_distance_wraps() {
        assert_eq!(circular_distance(10, 30, 1024), 20);
        assert_eq!(circular_distance(1020, 4, 1024), 8);
        assert_eq!(circular_distance(0, 512, 1024), 512);
    }

    #[test]
    fn circular_distance_half_cache_tie() {
        // d == size/2 is the maximum: going left or right is the same
        // distance, and nudging either way must shrink it symmetrically.
        let s = 1024;
        assert_eq!(circular_distance(0, s / 2, s), s / 2);
        assert_eq!(circular_distance(s / 2, 0, s), s / 2);
        assert_eq!(circular_distance(0, s / 2 + 1, s), s / 2 - 1);
        assert_eq!(circular_distance(0, s / 2 - 1, s), s / 2 - 1);
        // The tie is stable under rotation of both points.
        for shift in [1, 31, 512, 1000] {
            assert_eq!(circular_distance(shift, (shift + s / 2) % s, s), s / 2);
        }
    }

    #[test]
    fn circular_distance_zero_for_cache_multiples() {
        // Self-alias: addresses a whole number of cache spans apart map to
        // the same location — the paper's worst case ("separated by a
        // multiple of the cache size ... severe or ping-pong misses").
        let s = 1024;
        for k in 0..4 {
            assert_eq!(circular_distance(300, 300 + k * s, s), 0);
        }
        assert_eq!(circular_distance(300, 300, s), 0, "a point to itself");
    }

    #[test]
    fn exact_cache_multiple_separation_is_severe_at_distance_zero() {
        // Two lockstep arrays whose bases differ by exactly one cache span:
        // every paired reference self-aliases (distance 0), the strongest
        // severe conflict.
        let mut p = Program::new("alias");
        let n = 2048; // one 16 KiB cache span of f64s
        let a = p.add_array(ArrayDecl::f64("A", vec![n, 1]));
        let b = p.add_array(ArrayDecl::f64("B", vec![n, 1]));
        p.add_nest(LoopNest::new(
            "n",
            vec![Loop::counted("i", 0, n as i64 - 1)],
            vec![
                ArrayRef::read(a, vec![AffineExpr::var("i"), AffineExpr::constant(0)]),
                ArrayRef::read(b, vec![AffineExpr::var("i"), AffineExpr::constant(0)]),
            ],
        ));
        let l = DataLayout::contiguous(&p.arrays);
        let c = severe_conflicts(&p, &l, l1());
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].distance, 0);
    }

    #[test]
    fn one_line_of_padding_clears_pairs() {
        let p = figure2_example(512);
        // Pad B by one line and C by two: lockstep pairs now 32/64 B apart.
        let l = DataLayout::with_pads(&p.arrays, &[0, 32, 32]);
        assert!(severe_conflicts(&p, &l, l1()).is_empty());
    }

    #[test]
    fn sub_line_distance_still_conflicts() {
        let p = figure2_example(512);
        let l = DataLayout::with_pads(&p.arrays, &[0, 8, 0]);
        let c = severe_conflicts(&p, &l, l1());
        assert!(!c.is_empty());
        assert!(c.iter().any(|x| x.distance == 8));
    }

    #[test]
    fn non_lockstep_refs_not_severe() {
        // A(i,j) vs B(j,i): different coefficient matrices — they drift.
        let mut p = Program::new("drift");
        let a = p.add_array(ArrayDecl::f64("A", vec![64, 64]));
        let b = p.add_array(ArrayDecl::f64("B", vec![64, 64]));
        p.add_nest(LoopNest::new(
            "n",
            vec![Loop::counted("j", 0, 63), Loop::counted("i", 0, 63)],
            vec![
                ArrayRef::read(a, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
                ArrayRef::read(b, vec![AffineExpr::var("j"), AffineExpr::var("i")]),
            ],
        ));
        let l = DataLayout::contiguous(&p.arrays);
        // Bases coincide mod tiny caches, but the pair is not lockstep.
        assert!(severe_conflicts(&p, &l, CacheConfig::direct_mapped(1024, 32)).is_empty());
    }

    #[test]
    fn self_conflicts_detected_for_cache_multiple_columns() {
        // Column size = cache size: A(i,j) and A(i,j+1) coincide.
        let n = 2048; // 2048 * 8 B = 16 KiB column
        let mut p = Program::new("selfc");
        let a = p.add_array(ArrayDecl::f64("A", vec![n, 8]));
        p.add_nest(LoopNest::new(
            "n",
            vec![
                Loop::counted("j", 0, 6),
                Loop::counted("i", 0, n as i64 - 1),
            ],
            vec![
                ArrayRef::read(a, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
                ArrayRef::read(a, vec![AffineExpr::var("i"), AffineExpr::var_plus("j", 1)]),
            ],
        ));
        let l = DataLayout::contiguous(&p.arrays);
        assert_eq!(severe_self_conflicts(&p, &l, l1()).len(), 1);
        // Cross-variable detector must NOT flag same-array pairs.
        assert!(severe_conflicts(&p, &l, l1()).is_empty());
        // Intra-pad by 4 elements clears it.
        let q = p.with_dim_pad(a, 0, 4);
        let l2 = DataLayout::contiguous(&q.arrays);
        assert!(severe_self_conflicts(&q, &l2, l1()).is_empty());
    }

    #[test]
    fn duplicate_refs_are_not_self_conflicts() {
        let mut p = Program::new("dup");
        let a = p.add_array(ArrayDecl::f64("A", vec![64]));
        p.add_nest(LoopNest::new(
            "n",
            vec![Loop::counted("i", 0, 63)],
            vec![
                ArrayRef::read(a, vec![AffineExpr::var("i")]),
                ArrayRef::read(a, vec![AffineExpr::var("i")]),
            ],
        ));
        let l = DataLayout::contiguous(&p.arrays);
        assert!(severe_self_conflicts(&p, &l, l1()).is_empty());
    }
}
