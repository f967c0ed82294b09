//! Data layouts: base addresses for every array in one address space.
//!
//! The SUIF pre-passes in Section 6.1 collect all optimizable variables into
//! one global structure so that "optimizing passes may now modify the base
//! addresses of variables by reordering fields in the structure and
//! inserting pad variables". A [`DataLayout`] is that structure: array `k`
//! starts at byte `bases[k]`, and inter-variable padding inserts bytes
//! before an array, shifting it (and everything after it) upward.
//!
//! Beyond the paper's padded column-major layouts, each array carries a
//! [`LayoutFamily`]: the default [`LayoutFamily::Linear`] is the classic
//! column-major mapping, and [`LayoutFamily::Morton`] is a generalized
//! Morton / Z-order mapping parameterized by a per-dimension bit-interleave
//! word (see `docs/LAYOUTS.md`). Non-linear families make the element →
//! address function non-affine, so every affine analysis must gate on
//! [`DataLayout::fully_affine`]; trace generation handles both.

use crate::array::{ArrayDecl, ArrayId};
use crate::expr::AffineExpr;
use crate::reference::ArrayRef;

/// How one array maps multi-indices to byte offsets from its base.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LayoutFamily {
    /// Column-major (Fortran) order through [`ArrayDecl::strides`] — the
    /// affine mapping every paper algorithm assumes.
    Linear,
    /// Generalized Morton / Z-order: the word lists, LSB first, which
    /// dimension contributes each bit of the element offset. `word[p] = d`
    /// means bit `p` of the offset is the next-unconsumed bit of the
    /// dimension-`d` index. The array allocates `2^word.len()` elements.
    Morton(Vec<u8>),
}

impl LayoutFamily {
    /// True for the affine column-major family.
    #[inline]
    pub fn is_linear(&self) -> bool {
        matches!(self, LayoutFamily::Linear)
    }

    /// Bits per dimension the word grants (occurrence counts), for `rank`
    /// dimensions.
    pub fn dim_bits(&self, rank: usize) -> Vec<u32> {
        let mut bits = vec![0u32; rank];
        if let LayoutFamily::Morton(word) = self {
            for &d in word {
                if (d as usize) < rank {
                    bits[d as usize] += 1;
                }
            }
        }
        bits
    }

    /// Check the family against a declaration: every word entry must name a
    /// dimension, the per-dimension bits must cover the allocated extent
    /// (so every in-allocation index is encodable), and the allocation must
    /// stay addressable.
    pub fn validate(&self, decl: &ArrayDecl) -> Result<(), String> {
        let LayoutFamily::Morton(word) = self else {
            return Ok(());
        };
        if decl.rank() > 8 {
            return Err(format!(
                "array {}: morton layouts support rank <= 8, got {}",
                decl.name,
                decl.rank()
            ));
        }
        if word.len() >= 48 {
            return Err(format!(
                "array {}: morton word of {} bits allocates beyond the address model",
                decl.name,
                word.len()
            ));
        }
        if let Some(&d) = word.iter().find(|&&d| (d as usize) >= decl.rank()) {
            return Err(format!(
                "array {}: morton word names dimension {d} of a rank-{} array",
                decl.name,
                decl.rank()
            ));
        }
        let bits = self.dim_bits(decl.rank());
        for (d, &got) in bits.iter().enumerate() {
            let need = min_bits(decl.alloc_dim(d));
            if got < need {
                return Err(format!(
                    "array {}: morton word grants {got} bits to dimension {d}, \
                     extent {} needs {need}",
                    decl.name,
                    decl.alloc_dim(d)
                ));
            }
        }
        Ok(())
    }

    /// Allocated bytes under this family: the exact column-major size for
    /// [`LayoutFamily::Linear`], the power-of-two envelope
    /// `2^word.len() × elem_size` for [`LayoutFamily::Morton`].
    pub fn alloc_bytes(&self, decl: &ArrayDecl) -> u64 {
        match self {
            LayoutFamily::Linear => decl.size_bytes() as u64,
            LayoutFamily::Morton(word) => (1u64 << word.len()) * decl.elem_size as u64,
        }
    }

    /// The canonical Morton family for a declaration: minimal bits per
    /// dimension, interleaved round-robin from the LSB (dimension 0 first,
    /// so short runs keep the unit-stride dimension in the low bits).
    pub fn morton_round_robin(decl: &ArrayDecl) -> Self {
        let bits: Vec<u32> = (0..decl.rank())
            .map(|d| min_bits(decl.alloc_dim(d)))
            .collect();
        LayoutFamily::Morton(round_robin_word(&bits))
    }
}

/// Bits needed to encode indices `0..extent`.
pub fn min_bits(extent: usize) -> u32 {
    if extent <= 1 {
        0
    } else {
        usize::BITS - (extent - 1).leading_zeros()
    }
}

/// Build an interleave word that deals bits round-robin across dimensions
/// (dimension 0 first) until each dimension has consumed its budget.
pub fn round_robin_word(bits: &[u32]) -> Vec<u8> {
    let mut left = bits.to_vec();
    let mut word = Vec::with_capacity(bits.iter().sum::<u32>() as usize);
    while left.iter().any(|&b| b > 0) {
        for (d, l) in left.iter_mut().enumerate() {
            if *l > 0 {
                word.push(d as u8);
                *l -= 1;
            }
        }
    }
    word
}

/// Build an interleave word from alternating blocks: `g[d]` consecutive
/// bits of dimension `d` per round, dimension 0 first, until every
/// dimension has consumed `bits[d]`. `g[d] == 0` falls back to 1. With
/// `g = bits` this degenerates to the affine-like all-dim-0-then-dim-1
/// word; with `g = [1,1,..]` it is the round-robin word.
pub fn blocked_word(bits: &[u32], g: &[u32]) -> Vec<u8> {
    let mut left = bits.to_vec();
    let mut word = Vec::with_capacity(bits.iter().sum::<u32>() as usize);
    while left.iter().any(|&b| b > 0) {
        for (d, l) in left.iter_mut().enumerate() {
            let take = g.get(d).copied().unwrap_or(1).max(1).min(*l);
            for _ in 0..take {
                word.push(d as u8);
            }
            *l -= take;
        }
    }
    word
}

/// Interleave a multi-index through a Morton word: bit `p` of the result
/// is bit `consumed_so_far(word[p])` of `idx[word[p]]`. Indices must be
/// non-negative and within `2^bits` per dimension (the trace generator
/// range-checks before calling).
#[inline]
pub fn morton_index(word: &[u8], idx: &[i64]) -> i64 {
    let mut cursor = [0u32; 8];
    let mut out = 0i64;
    for (p, &d) in word.iter().enumerate() {
        let d = d as usize;
        out |= ((idx[d] >> cursor[d]) & 1) << p;
        cursor[d] += 1;
    }
    out
}

/// Byte base addresses for a program's arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataLayout {
    /// Base byte address of each array (parallel to the program's arrays).
    pub bases: Vec<u64>,
    /// One byte past the end of the last array.
    pub total_size: u64,
    /// Per-array layout family (parallel to `bases`); all
    /// [`LayoutFamily::Linear`] for every paper-era constructor.
    pub families: Vec<LayoutFamily>,
}

impl DataLayout {
    /// Lay arrays out back-to-back in declaration order starting at 0 — the
    /// original, unpadded layout. With power-of-two-ish array sizes this is
    /// the layout where "all base addresses in the original sample program
    /// coincide on the cache" (Section 3.1.1).
    pub fn contiguous(arrays: &[ArrayDecl]) -> Self {
        Self::with_pads(arrays, &vec![0; arrays.len()])
    }

    /// Lay arrays out in declaration order with `pads[k]` bytes of padding
    /// inserted *before* array `k`.
    pub fn with_pads(arrays: &[ArrayDecl], pads: &[u64]) -> Self {
        Self::with_pads_and_families(arrays, pads, &vec![LayoutFamily::Linear; arrays.len()])
            .expect("linear families always validate")
    }

    /// Lay arrays out with per-array pads *and* per-array layout families.
    /// Non-linear families change an array's allocated size (a Morton array
    /// occupies its `2^word.len()`-element envelope), which shifts every
    /// subsequent base — exactly like a pad would.
    pub fn with_pads_and_families(
        arrays: &[ArrayDecl],
        pads: &[u64],
        families: &[LayoutFamily],
    ) -> Result<Self, String> {
        assert_eq!(arrays.len(), pads.len(), "one pad per array");
        assert_eq!(arrays.len(), families.len(), "one family per array");
        let mut bases = Vec::with_capacity(arrays.len());
        let mut cursor = 0u64;
        for ((a, &p), fam) in arrays.iter().zip(pads).zip(families) {
            fam.validate(a)?;
            cursor += p;
            bases.push(cursor);
            cursor += fam.alloc_bytes(a);
        }
        Ok(Self {
            bases,
            total_size: cursor,
            families: families.to_vec(),
        })
    }

    /// The `total_size` [`DataLayout::with_pads_and_families`] would give,
    /// computed with checked arithmetic, or `None` when some array's size
    /// or the layout's end would not fit in an `i64` byte address (the
    /// address type of trace generation). Arrays past the end of
    /// `families` count as linear. Declarations and pads that come from
    /// outside the program are checked with this before a layout is built.
    pub fn checked_end(
        arrays: &[ArrayDecl],
        pads: &[u64],
        families: &[LayoutFamily],
    ) -> Option<u64> {
        let mut cursor = 0u64;
        for (k, (a, &pad)) in arrays.iter().zip(pads).enumerate() {
            let bytes = match families.get(k) {
                Some(LayoutFamily::Morton(word)) => 1u64
                    .checked_shl(u32::try_from(word.len()).ok()?)?
                    .checked_mul(a.elem_size as u64)?,
                _ => a
                    .dims
                    .iter()
                    .zip(&a.dim_pad)
                    .try_fold(a.elem_size, |acc, (&d, &p)| {
                        acc.checked_mul(d.checked_add(p)?)
                    })? as u64,
            };
            cursor = cursor.checked_add(pad)?.checked_add(bytes)?;
        }
        (cursor <= i64::MAX as u64).then_some(cursor)
    }

    /// The pads this layout implies, given the declarations it was built for
    /// (inverse of [`DataLayout::with_pads`]).
    pub fn pads(&self, arrays: &[ArrayDecl]) -> Vec<u64> {
        let mut pads = Vec::with_capacity(arrays.len());
        let mut cursor = 0u64;
        for (k, &b) in self.bases.iter().enumerate() {
            pads.push(b - cursor);
            cursor = b + self.family(k).alloc_bytes(&arrays[k]);
        }
        pads
    }

    /// Base address of array `id`.
    #[inline]
    pub fn base(&self, id: ArrayId) -> u64 {
        self.bases[id]
    }

    /// The layout family of array `id` (layouts predating families — there
    /// are none in-tree — would read as linear).
    #[inline]
    pub fn family(&self, id: ArrayId) -> &LayoutFamily {
        self.families.get(id).unwrap_or(&LayoutFamily::Linear)
    }

    /// True when every array uses the affine column-major family, i.e. all
    /// the paper's affine analyses (and [`DataLayout::address_expr`]) apply.
    pub fn fully_affine(&self) -> bool {
        self.families.iter().all(LayoutFamily::is_linear)
    }

    /// Byte address of element `idx` (0-based multi-index) of array `id`.
    pub fn addr(&self, arrays: &[ArrayDecl], id: ArrayId, idx: &[i64]) -> u64 {
        let a = &arrays[id];
        let elems = match self.family(id) {
            LayoutFamily::Linear => a.linear_index(idx),
            LayoutFamily::Morton(word) => morton_index(word, idx),
        };
        self.bases[id] + (elems as u64) * a.elem_size as u64
    }

    /// Total padding bytes added relative to the contiguous layout — the
    /// space overhead the padding experiments report.
    pub fn padding_overhead(&self, arrays: &[ArrayDecl]) -> u64 {
        let data: u64 = arrays.iter().map(|a| a.size_bytes() as u64).sum();
        self.total_size - data
    }

    /// Resolve a reference to the affine byte-address function it denotes
    /// under this layout: `addr(env) = c0 + Σ c_v · v`, returned as an
    /// [`AffineExpr`] in the loop variables (coefficients in **bytes**).
    ///
    /// This is the compile step behind both trace generation and every
    /// conflict/reuse analysis: once subscripts are folded through the
    /// column-major strides and the base address, all cache questions are
    /// questions about one affine function per reference.
    ///
    /// # Panics
    /// Panics if the referenced array uses a non-affine family (gate on
    /// [`DataLayout::fully_affine`], or let `trace_gen` compile the
    /// reference — it handles Morton refs natively).
    ///
    /// Also panics if the address arithmetic overflows `i64`
    /// ([`DataLayout::try_address_expr`] returns `None` instead).
    pub fn address_expr(&self, arrays: &[ArrayDecl], r: &ArrayRef) -> AffineExpr {
        self.try_address_expr(arrays, r).unwrap_or_else(|| {
            panic!(
                "address of a reference to array {} overflows i64",
                arrays[r.array].name
            )
        })
    }

    /// [`DataLayout::address_expr`], or `None` when scaling a subscript to
    /// bytes or summing the terms overflows `i64`.
    ///
    /// # Panics
    /// Panics on a non-affine family, like [`DataLayout::address_expr`].
    pub fn try_address_expr(&self, arrays: &[ArrayDecl], r: &ArrayRef) -> Option<AffineExpr> {
        assert!(
            self.family(r.array).is_linear(),
            "address_expr on non-affine layout family for array {}",
            arrays[r.array].name
        );
        let a = &arrays[r.array];
        let strides = a.strides();
        let elem = a.elem_size as i64;
        let mut e = AffineExpr::constant(self.bases[r.array] as i64);
        for (d, s) in r.subscripts.iter().enumerate() {
            e = e.checked_add(&s.checked_scale(strides[d].checked_mul(elem)?)?)?;
        }
        Some(e)
    }
}

// ---------------------------------------------------------------------------
// layout.* telemetry.
// ---------------------------------------------------------------------------

/// Process-wide counters for non-affine layout handling in the trace
/// generator, mirroring `mlc_core::analytic`'s fallback telemetry: the
/// fast walk emits every innermost invocation of a Morton nest access by
/// access, and counts it.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) static MORTON_NESTS: AtomicU64 = AtomicU64::new(0);
    pub(crate) static MORTON_SCALAR_BAILS: AtomicU64 = AtomicU64::new(0);
    pub(crate) static COT_NESTS: AtomicU64 = AtomicU64::new(0);

    /// Drained snapshot of the process-wide layout counters.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct LayoutStats {
        /// Nests containing at least one Morton reference streamed.
        pub morton_nests: u64,
        /// Always 0: the fast walk no longer re-encodes Morton addresses
        /// into runs. The end-to-end benchmark (`benchmark/`) still reads
        /// the field.
        pub morton_runs: u64,
        /// Innermost invocations of Morton nests that the fast walk
        /// emitted access by access.
        pub morton_scalar_bails: u64,
        /// Cache-obliviously tiled nests materialized by
        /// [`crate::transform::cache_oblivious_in_program`].
        pub cot_nests: u64,
    }

    /// Drain and return the counters (they reset to zero).
    pub fn take_stats() -> LayoutStats {
        LayoutStats {
            morton_nests: MORTON_NESTS.swap(0, Ordering::Relaxed),
            morton_runs: 0,
            morton_scalar_bails: MORTON_SCALAR_BAILS.swap(0, Ordering::Relaxed),
            cot_nests: COT_NESTS.swap(0, Ordering::Relaxed),
        }
    }

    /// Drain the counters into a [`mlc_telemetry::MetricsRegistry`] as
    /// `layout.*` counters (zero values are skipped).
    pub fn install_metrics(reg: &mut mlc_telemetry::MetricsRegistry) {
        let s = take_stats();
        for (name, v) in [
            ("layout.morton_nests", s.morton_nests),
            ("layout.morton_scalar_bails", s.morton_scalar_bails),
            ("layout.cot_nests", s.cot_nests),
        ] {
            if v > 0 {
                reg.count(name, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayDecl;
    use crate::expr::AffineExpr as E;

    fn two_arrays() -> Vec<ArrayDecl> {
        vec![
            ArrayDecl::f64("A", vec![10, 10]),
            ArrayDecl::f64("B", vec![10]),
        ]
    }

    #[test]
    fn contiguous_layout_packs_in_order() {
        let arrays = two_arrays();
        let l = DataLayout::contiguous(&arrays);
        assert_eq!(l.bases, vec![0, 800]);
        assert_eq!(l.total_size, 880);
        assert_eq!(l.padding_overhead(&arrays), 0);
    }

    #[test]
    fn pads_shift_subsequent_arrays() {
        let arrays = two_arrays();
        let l = DataLayout::with_pads(&arrays, &[32, 64]);
        assert_eq!(l.bases, vec![32, 32 + 800 + 64]);
        assert_eq!(l.padding_overhead(&arrays), 96);
        assert_eq!(l.pads(&arrays), vec![32, 64]);
    }

    #[test]
    fn element_addressing_is_column_major() {
        let arrays = two_arrays();
        let l = DataLayout::contiguous(&arrays);
        assert_eq!(l.addr(&arrays, 0, &[0, 0]), 0);
        assert_eq!(l.addr(&arrays, 0, &[1, 0]), 8);
        assert_eq!(l.addr(&arrays, 0, &[0, 1]), 80);
        assert_eq!(l.addr(&arrays, 1, &[3]), 800 + 24);
    }

    #[test]
    fn address_expr_matches_pointwise_eval() {
        let arrays = two_arrays();
        let l = DataLayout::with_pads(&arrays, &[16, 8]);
        let r = ArrayRef::read(0, vec![E::var("i"), E::var_plus("j", 1)]);
        let e = l.address_expr(&arrays, &r);
        for (i, j) in [(0i64, 0i64), (3, 2), (9, 8)] {
            let env = |v: &str| match v {
                "i" => Some(i),
                "j" => Some(j),
                _ => None,
            };
            assert_eq!(e.eval(env).unwrap() as u64, l.addr(&arrays, 0, &[i, j + 1]));
        }
    }

    #[test]
    fn min_bits_is_ceil_log2() {
        assert_eq!(min_bits(1), 0);
        assert_eq!(min_bits(2), 1);
        assert_eq!(min_bits(3), 2);
        assert_eq!(min_bits(4), 2);
        assert_eq!(min_bits(5), 3);
        assert_eq!(min_bits(1024), 10);
        assert_eq!(min_bits(1025), 11);
    }

    #[test]
    fn round_robin_word_interleaves_then_drains() {
        assert_eq!(round_robin_word(&[2, 2]), vec![0, 1, 0, 1]);
        assert_eq!(round_robin_word(&[3, 1]), vec![0, 1, 0, 0]);
        assert_eq!(round_robin_word(&[0, 2]), vec![1, 1]);
    }

    #[test]
    fn blocked_word_groups_bits() {
        assert_eq!(blocked_word(&[4, 2], &[2, 1]), vec![0, 0, 1, 0, 0, 1]);
        assert_eq!(blocked_word(&[2, 2], &[2, 2]), vec![0, 0, 1, 1]);
        // Zero group sizes fall back to one bit per round.
        assert_eq!(blocked_word(&[1, 1], &[0, 0]), vec![0, 1]);
    }

    #[test]
    fn morton_index_interleaves_classically() {
        // Classic 2-D Z-order with word [0,1,0,1,...]: interleave x and y.
        let word = round_robin_word(&[2, 2]);
        // (x,y) = (3,0) -> binary x bits at even positions: 0b0101 = 5.
        assert_eq!(morton_index(&word, &[3, 0]), 5);
        assert_eq!(morton_index(&word, &[0, 3]), 10);
        assert_eq!(morton_index(&word, &[3, 3]), 15);
        assert_eq!(morton_index(&word, &[1, 2]), 0b1001);
    }

    #[test]
    fn morton_index_is_a_bijection_on_the_envelope() {
        let word = blocked_word(&[3, 2], &[2, 1]);
        let mut seen = [false; 32];
        for x in 0..8i64 {
            for y in 0..4i64 {
                let k = morton_index(&word, &[x, y]) as usize;
                assert!(!seen[k], "collision at ({x},{y})");
                seen[k] = true;
            }
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 32);
    }

    #[test]
    fn morton_family_validates_against_extents() {
        let a = ArrayDecl::f64("A", vec![10, 10]);
        // 4+4 bits cover 10x10.
        LayoutFamily::Morton(round_robin_word(&[4, 4]))
            .validate(&a)
            .unwrap();
        // 3 bits cannot encode index 9.
        assert!(LayoutFamily::Morton(round_robin_word(&[3, 4]))
            .validate(&a)
            .is_err());
        // Word naming a missing dimension.
        assert!(LayoutFamily::Morton(vec![0, 2]).validate(&a).is_err());
        let canonical = LayoutFamily::morton_round_robin(&a);
        canonical.validate(&a).unwrap();
        assert_eq!(canonical.alloc_bytes(&a), 256 * 8);
    }

    #[test]
    fn morton_family_shifts_subsequent_bases() {
        let arrays = two_arrays(); // A(10,10), B(10)
        let fams = vec![
            LayoutFamily::morton_round_robin(&arrays[0]),
            LayoutFamily::Linear,
        ];
        let l = DataLayout::with_pads_and_families(&arrays, &[0, 0], &fams).unwrap();
        // A's Morton envelope is 16x16 elements = 2048 bytes, not 800.
        assert_eq!(l.bases, vec![0, 2048]);
        assert_eq!(l.total_size, 2048 + 80);
        assert!(!l.fully_affine());
        assert_eq!(l.pads(&arrays), vec![0, 0]);
    }

    #[test]
    fn morton_addr_matches_interleave() {
        let arrays = two_arrays();
        let word = round_robin_word(&[4, 4]);
        let fams = vec![LayoutFamily::Morton(word.clone()), LayoutFamily::Linear];
        let l = DataLayout::with_pads_and_families(&arrays, &[8, 0], &fams).unwrap();
        for (i, j) in [(0i64, 0i64), (3, 2), (9, 9)] {
            assert_eq!(
                l.addr(&arrays, 0, &[i, j]),
                8 + morton_index(&word, &[i, j]) as u64 * 8
            );
        }
        // B stays linear.
        assert_eq!(l.addr(&arrays, 1, &[3]), l.bases[1] + 24);
    }

    #[test]
    #[should_panic(expected = "non-affine layout family")]
    fn address_expr_refuses_morton_arrays() {
        let arrays = two_arrays();
        let fams = vec![
            LayoutFamily::morton_round_robin(&arrays[0]),
            LayoutFamily::Linear,
        ];
        let l = DataLayout::with_pads_and_families(&arrays, &[0, 0], &fams).unwrap();
        let r = ArrayRef::read(0, vec![E::var("i"), E::var("j")]);
        l.address_expr(&arrays, &r);
    }

    #[test]
    fn address_expr_respects_intra_pad() {
        let mut arrays = two_arrays();
        arrays[0].set_dim_pad(0, 2); // columns now 12 elements apart
        let l = DataLayout::contiguous(&arrays);
        let r = ArrayRef::read(0, vec![E::var("i"), E::var("j")]);
        let e = l.address_expr(&arrays, &r);
        assert_eq!(e.coeff("i"), 8);
        assert_eq!(e.coeff("j"), 12 * 8);
    }
}
