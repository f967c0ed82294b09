//! `PAD` and `MULTILVLPAD`: inter-variable padding against severe conflicts.
//!
//! Section 3.1.1: "PAD [...] analyzes array subscripts in loop nests to
//! compute a memory access pattern for each array variable. It then
//! iteratively increments each variable base address until no conflicts
//! result with other variables analyzed. [...] In practice, PAD requires
//! only a few cache lines of padding per variable."
//!
//! Section 3.1.2 gives the two multi-level generalizations:
//! * test base addresses "for conflicts with respect to all cache levels
//!   instead of just one cache" ([`pad_all_levels`]);
//! * or, because cache sizes divide evenly, pad once against the virtual
//!   cache `(S1, Lmax)` ([`multilvl_pad`]). Modular arithmetic guarantees
//!   the two agree: "if two references maintain a distance of at least Lmax
//!   on a cache of size S1, then the distance must be equal or greater on a
//!   cache of size k·S1".

use crate::conflict::severe_conflicts;
use mlc_cache_sim::{CacheConfig, HierarchyConfig};
use mlc_model::{DataLayout, Program};

/// Result of a padding pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PadResult {
    /// The padded layout.
    pub layout: DataLayout,
    /// Bytes of padding inserted before each array.
    pub pads: Vec<u64>,
    /// Candidate positions examined across all variables (effort metric).
    /// Identical for GROUPPAD's sweep and its exhaustive scan — it counts
    /// the positions the exhaustive scan would cover.
    pub positions_tried: u64,
    /// Candidate positions actually *scored*. Equal to `positions_tried`
    /// for the exhaustive scans; for GROUPPAD's sweep ([`crate::search`]),
    /// the number of constant-score segment starts it scored.
    pub positions_scored: u64,
}

impl PadResult {
    /// Total padding bytes inserted.
    pub fn total_padding(&self) -> u64 {
        self.pads.iter().sum()
    }
}

/// A padding pass was invoked with inconsistent parameters. The quantized
/// searches used to `assert!` on these; named diagnostics let `pipeline`
/// callers surface configuration mistakes instead of crashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PadError {
    /// The pad quantum must be a positive divisor of the target cache size,
    /// or candidate positions would not tile the cache exactly.
    BadQuantum {
        /// The offending quantum (bytes).
        quantum: u64,
        /// The cache size it fails to divide (bytes).
        cache_size: usize,
    },
    /// `base_pads` was non-empty but its length does not match the number
    /// of arrays in the program.
    BaseLenMismatch {
        /// Number of arrays in the program.
        arrays: usize,
        /// Length of the supplied `base_pads`.
        base_pads: usize,
    },
}

impl std::fmt::Display for PadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PadError::BadQuantum {
                quantum,
                cache_size,
            } => write!(
                f,
                "pad quantum {quantum} must be positive and divide the cache size {cache_size}"
            ),
            PadError::BaseLenMismatch { arrays, base_pads } => write!(
                f,
                "base_pads has {base_pads} entries but the program declares {arrays} arrays"
            ),
        }
    }
}

impl std::error::Error for PadError {}

/// Generic incremental placement: place each array in declaration order,
/// bumping its pad by `step` bytes until `ok(candidate_layout, array)` holds
/// (only conflicts among already-placed arrays and the new one are supposed
/// to be inspected by `ok`). `limit` bounds the pad tried per variable.
fn place_incrementally(
    program: &Program,
    step: u64,
    limit: u64,
    mut ok: impl FnMut(&DataLayout, usize) -> bool,
) -> PadResult {
    let n = program.arrays.len();
    let mut pads = vec![0u64; n];
    let mut tried = 0u64;
    for k in 0..n {
        loop {
            let layout = DataLayout::with_pads(&program.arrays, &pads);
            tried += 1;
            if ok(&layout, k) {
                break;
            }
            pads[k] += step;
            assert!(
                pads[k] <= limit,
                "padding search for {} exceeded {limit} bytes — no conflict-free position",
                program.arrays[k].name
            );
        }
    }
    PadResult {
        layout: DataLayout::with_pads(&program.arrays, &pads),
        pads,
        positions_tried: tried,
        positions_scored: tried, // incremental placement scores what it tries
    }
}

/// Does `layout` put any severe conflict on `cache` among references whose
/// arrays are both in `0..=placed`?
fn conflict_among_placed(
    program: &Program,
    layout: &DataLayout,
    cache: CacheConfig,
    placed: usize,
) -> bool {
    severe_conflicts(program, layout, cache).iter().any(|c| {
        let nest = &program.nests[c.nest];
        nest.body[c.a].array <= placed && nest.body[c.b].array <= placed
    })
}

/// The `PAD` algorithm against a single cache level.
pub fn pad(program: &Program, cache: CacheConfig) -> PadResult {
    place_incrementally(
        program,
        cache.line as u64,
        4 * cache.size as u64,
        |layout, k| !conflict_among_placed(program, layout, cache, k),
    )
}

/// `MULTILVLPAD`: `PAD` against the virtual cache of size `S1` with line
/// `Lmax` (Section 3.1.2). Eliminates severe conflicts at *every* level of
/// the hierarchy in one pass.
pub fn multilvl_pad(program: &Program, hierarchy: &HierarchyConfig) -> PadResult {
    pad(program, hierarchy.multilvl_pad_config())
}

/// The explicit multi-level generalization: base addresses are "tested for
/// conflicts with respect to all cache levels instead of just one cache".
/// Provided to validate the modular-arithmetic shortcut; the experiments use
/// [`multilvl_pad`].
pub fn pad_all_levels(program: &Program, hierarchy: &HierarchyConfig) -> PadResult {
    let step = hierarchy.l1().line as u64;
    let limit = 4 * hierarchy.levels.last().unwrap().size as u64;
    place_incrementally(program, step, limit, |layout, k| {
        hierarchy
            .levels
            .iter()
            .all(|&cache| !conflict_among_placed(program, layout, cache, k))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache_sim::{CacheConfig, HierarchyConfig};
    use mlc_model::program::figure2_example;

    fn l1() -> CacheConfig {
        CacheConfig::direct_mapped(16 * 1024, 32)
    }

    #[test]
    fn pad_eliminates_all_severe_conflicts() {
        let p = figure2_example(512);
        let r = pad(&p, l1());
        assert!(severe_conflicts(&p, &r.layout, l1()).is_empty());
    }

    #[test]
    fn pad_uses_few_lines_per_variable() {
        // "In practice, PAD requires only a few cache lines of padding per
        // variable."
        let p = figure2_example(512);
        let r = pad(&p, l1());
        for (a, &pad) in p.arrays.iter().zip(&r.pads) {
            assert!(
                pad <= 4 * l1().line as u64,
                "array {} needed {pad} bytes of padding",
                a.name
            );
        }
    }

    #[test]
    fn pad_is_noop_when_no_conflicts() {
        // Non-pathological size: columns are not cache-size multiples.
        let p = figure2_example(300);
        let r = pad(&p, l1());
        assert_eq!(r.total_padding(), 0);
    }

    #[test]
    fn multilvl_pad_clears_both_levels() {
        let h = HierarchyConfig::ultrasparc_i();
        let p = figure2_example(512);
        let r = multilvl_pad(&p, &h);
        for &cache in &h.levels {
            assert!(
                severe_conflicts(&p, &r.layout, cache).is_empty(),
                "severe conflicts remain on {cache:?}"
            );
        }
        // The virtual-cache construction: pads are in Lmax-line currency.
        assert!(severe_conflicts(&p, &r.layout, h.multilvl_pad_config()).is_empty());
    }

    #[test]
    fn plain_pad_can_leave_l2_conflicts_that_multilvl_removes() {
        // Engineer a case where spacing by one L1 line (32 B) is not enough
        // for the 64-byte L2 lines: references 32 bytes apart share an L2
        // line. PAD (L1-only) accepts 32-byte spacing; MULTILVLPAD demands
        // Lmax = 64.
        let h = HierarchyConfig::ultrasparc_i();
        let p = figure2_example(512);
        let r1 = pad(&p, h.l1());
        let r2 = multilvl_pad(&p, &h);
        // PAD's layout: fine on L1 by construction.
        assert!(severe_conflicts(&p, &r1.layout, h.l1()).is_empty());
        // MULTILVLPAD's pads are at least as large as PAD's.
        assert!(r2.total_padding() >= r1.total_padding());
        // And the L2-line-granularity check passes only for MULTILVLPAD.
        let virt = h.multilvl_pad_config();
        assert!(severe_conflicts(&p, &r2.layout, virt).is_empty());
        assert!(
            !severe_conflicts(&p, &r1.layout, virt).is_empty(),
            "expected PAD's 32-byte spacing to fail the 64-byte-line check"
        );
    }

    #[test]
    fn multilvl_equals_all_levels_on_nested_hierarchy() {
        // Section 3.1.2's modular-arithmetic claim, checked end-to-end: both
        // formulations produce conflict-free layouts at every level.
        let h = HierarchyConfig::ultrasparc_i();
        let p = figure2_example(512);
        let shortcut = multilvl_pad(&p, &h);
        let explicit = pad_all_levels(&p, &h);
        for &cache in &h.levels {
            assert!(severe_conflicts(&p, &shortcut.layout, cache).is_empty());
            assert!(severe_conflicts(&p, &explicit.layout, cache).is_empty());
        }
    }

    #[test]
    fn three_level_hierarchy_supported() {
        let h = HierarchyConfig::alpha_21164_like();
        let p = figure2_example(1024); // 8 KiB columns: multiples of L1
        let r = multilvl_pad(&p, &h);
        for &cache in &h.levels {
            assert!(severe_conflicts(&p, &r.layout, cache).is_empty());
        }
    }

    #[test]
    fn placement_effort_is_bounded() {
        let p = figure2_example(512);
        let r = pad(&p, l1());
        // 3 variables, a handful of candidates each.
        assert!(r.positions_tried < 100, "tried {}", r.positions_tried);
    }
}
