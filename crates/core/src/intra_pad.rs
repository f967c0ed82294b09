//! Intra-variable (column) padding.
//!
//! Section 6.1: "intra-variable (array column) padding is first performed
//! in ADI32 and ERLE64 to avoid severe conflicts between references to the
//! same variable as described in \[20\]." When an array's leading dimension
//! is a (near-)multiple of the cache size, lockstep references to adjacent
//! columns of the *same* array map to the same cache line; no inter-variable
//! pad can help, but widening the leading dimension by a few elements moves
//! the columns apart on the cache.

use crate::conflict::{self_pairs, severe_distance};
use mlc_cache_sim::CacheConfig;
use mlc_model::diagram::reference_addresses;
use mlc_model::{DataLayout, Program};

/// Result of intra-variable padding: the rewritten program plus the number
/// of pad elements added to each array's leading dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntraPadResult {
    /// Program.
    pub program: Program,
    /// Extra leading-dimension elements per array.
    pub pads: Vec<usize>,
    /// Arrays whose self-conflicts no leading-dimension pad can remove
    /// (e.g. FFT butterflies: both references' strides scale identically
    /// with the leading dimension, so their distance stays a cache-size
    /// multiple for every pad). These need copying or non-linear layouts,
    /// which the paper treats as separate techniques.
    pub unresolved: Vec<usize>,
}

/// Pad leading dimensions until no severe self-conflicts remain on `cache`
/// (checked under the contiguous layout; self-conflict distances are
/// independent of base addresses because both references belong to the same
/// array).
///
/// The pad quantum is one cache line's worth of elements, and the search is
/// bounded by one full cache span per array; an array with no conflict-free
/// pad within that span is reported in
/// [`IntraPadResult::unresolved`] and left unpadded. Each candidate pad is
/// checked against the array's own lockstep pairs only, listed once, since
/// which pairs move in lockstep does not depend on any pad.
pub fn intra_pad(program: &Program, cache: CacheConfig) -> IntraPadResult {
    let mut p = program.clone();
    let n = p.arrays.len();
    let mut pads = vec![0usize; n];
    let mut unresolved = Vec::new();
    // Per array, its (nest, a, b) self-pairs in nest order.
    let mut pairs = vec![Vec::new(); n];
    for (k, nest) in p.nests.iter().enumerate() {
        for (a, b) in self_pairs(nest) {
            pairs[nest.body[a].array].push((k, a, b));
        }
    }
    for (a, pairs) in pairs.iter().enumerate() {
        if p.arrays[a].rank() < 2 || pairs.is_empty() {
            continue; // no columns, or none in lockstep, to pad apart
        }
        let quantum = (cache.line / p.arrays[a].elem_size).max(1);
        let limit = cache.size / p.arrays[a].elem_size;
        while self_conflicted(&p, pairs, cache) {
            pads[a] += quantum;
            if pads[a] > limit {
                // Structurally unfixable: give up on this array.
                pads[a] = 0;
                p.arrays[a].set_dim_pad(0, 0);
                unresolved.push(a);
                break;
            }
            p.arrays[a].set_dim_pad(0, pads[a]);
        }
    }
    IntraPadResult {
        program: p,
        pads,
        unresolved,
    }
}

/// Whether any of one array's `(nest, a, b)` self-pairs conflicts severely
/// on `cache` under the contiguous layout of `p`.
fn self_conflicted(p: &Program, pairs: &[(usize, usize, usize)], cache: CacheConfig) -> bool {
    let layout = DataLayout::contiguous(&p.arrays);
    let mut addrs = (usize::MAX, Vec::new());
    pairs.iter().any(|&(k, a, b)| {
        if addrs.0 != k {
            addrs = (k, reference_addresses(p, &p.nests[k], &layout));
        }
        severe_distance(addrs.1[a], addrs.1[b], cache).is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::severe_self_conflicts;
    use mlc_cache_sim::CacheConfig;
    use mlc_model::prelude::*;

    fn l1() -> CacheConfig {
        CacheConfig::direct_mapped(16 * 1024, 32)
    }

    /// Columns exactly one cache size apart: the ADI/ERLE pathology.
    fn self_conflicting_program() -> Program {
        let n = 2048; // 2048 doubles = 16 KiB per column
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
        p
    }

    #[test]
    fn pads_away_self_conflicts() {
        let p = self_conflicting_program();
        let l = DataLayout::contiguous(&p.arrays);
        assert!(!severe_self_conflicts(&p, &l, l1()).is_empty());

        let r = intra_pad(&p, l1());
        let l2 = DataLayout::contiguous(&r.program.arrays);
        assert!(severe_self_conflicts(&r.program, &l2, l1()).is_empty());
        assert_eq!(r.pads[0], 4, "one 32-byte line = 4 doubles of pad");
    }

    #[test]
    fn noop_for_benign_sizes() {
        let mut p = Program::new("ok");
        let a = p.add_array(ArrayDecl::f64("A", vec![300, 8]));
        p.add_nest(LoopNest::new(
            "n",
            vec![Loop::counted("j", 0, 6), Loop::counted("i", 0, 299)],
            vec![
                ArrayRef::read(a, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
                ArrayRef::read(a, vec![AffineExpr::var("i"), AffineExpr::var_plus("j", 1)]),
            ],
        ));
        let r = intra_pad(&p, l1());
        assert_eq!(r.pads, vec![0]);
        assert_eq!(r.program, p);
    }

    #[test]
    fn one_dimensional_arrays_skipped() {
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("V", vec![2048]));
        p.add_nest(LoopNest::new(
            "n",
            vec![Loop::counted("i", 0, 2047)],
            vec![ArrayRef::read(a, vec![AffineExpr::var("i")])],
        ));
        let r = intra_pad(&p, l1());
        assert_eq!(r.pads, vec![0]);
    }

    #[test]
    fn logical_extents_survive_padding() {
        let p = self_conflicting_program();
        let r = intra_pad(&p, l1());
        assert_eq!(r.program.arrays[0].dims, p.arrays[0].dims);
        assert!(r.program.arrays[0].alloc_dim(0) > p.arrays[0].dims[0]);
    }
}
