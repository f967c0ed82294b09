//! Cache and hierarchy geometry.
//!
//! All geometry is in bytes and restricted to powers of two. The paper's
//! multi-level arguments depend on the fact that on real machines the size of
//! a cache level evenly divides the size of the level below it; the
//! [`HierarchyConfig`] constructor enforces this so the modular-arithmetic
//! lemmas exercised by the property tests hold by construction.

use crate::replacement::ReplacementPolicy;

/// Geometry of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size: usize,
    /// Line (block) size in bytes (power of two, divides `size`).
    pub line: usize,
    /// Associativity: 1 = direct-mapped. Must divide `size / line`.
    pub associativity: usize,
    /// Replacement policy; irrelevant for direct-mapped caches.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// A direct-mapped cache, the configuration the paper assumes throughout.
    ///
    /// # Panics
    /// Panics if `size`/`line` are not powers of two or `line` does not
    /// divide `size`.
    pub fn direct_mapped(size: usize, line: usize) -> Self {
        Self::new(size, line, 1, ReplacementPolicy::Lru)
    }

    /// A set-associative cache with the given replacement policy.
    ///
    /// # Panics
    /// Panics on non-power-of-two geometry, `line > size`, or an
    /// associativity that does not divide the number of lines.
    pub fn new(
        size: usize,
        line: usize,
        associativity: usize,
        replacement: ReplacementPolicy,
    ) -> Self {
        Self::try_new(size, line, associativity, replacement).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CacheConfig::new`], returning the violated invariant instead of
    /// panicking: the constructor for geometry that comes from outside the
    /// program (command lines, `.case` files).
    pub fn try_new(
        size: usize,
        line: usize,
        associativity: usize,
        replacement: ReplacementPolicy,
    ) -> Result<Self, String> {
        if !size.is_power_of_two() {
            return Err(format!("cache size {size} must be a power of two"));
        }
        if !line.is_power_of_two() {
            return Err(format!("line size {line} must be a power of two"));
        }
        if line > size {
            return Err(format!("line size {line} exceeds cache size {size}"));
        }
        if associativity == 0 {
            return Err("associativity must be at least 1".to_string());
        }
        let lines = size / line;
        if associativity > lines || !lines.is_multiple_of(associativity) {
            return Err(format!(
                "associativity {associativity} must divide line count {lines}"
            ));
        }
        Ok(Self {
            size,
            line,
            associativity,
            replacement,
        })
    }

    /// Number of lines in the cache.
    #[inline]
    pub fn num_lines(&self) -> usize {
        self.size / self.line
    }

    /// Number of sets (`1` for fully associative).
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.num_lines() / self.associativity
    }

    /// True iff this level is direct-mapped.
    #[inline]
    pub fn is_direct_mapped(&self) -> bool {
        self.associativity == 1
    }

    /// The cache location of a byte address: its offset within one "pass"
    /// over the cache, i.e. `addr mod size`.
    ///
    /// This is the quantity the paper's layout diagrams (Figures 3-5, 7) plot
    /// on the horizontal axis and the one the padding algorithms reason
    /// about. It is meaningful for direct-mapped caches, where it fully
    /// determines conflicts.
    #[inline]
    pub fn location(&self, addr: u64) -> u64 {
        addr & (self.size as u64 - 1)
    }

    /// The set index a byte address maps to.
    #[inline]
    pub fn set_index(&self, addr: u64) -> usize {
        ((addr / self.line as u64) as usize) & (self.num_sets() - 1)
    }

    /// The tag of a byte address (line address with set bits removed).
    #[inline]
    pub fn tag(&self, addr: u64) -> u64 {
        (addr / self.line as u64) / self.num_sets() as u64
    }
}

/// Geometry of a full cache hierarchy (L1 first).
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// Levels ordered from closest to the processor (L1) outward.
    pub levels: Vec<CacheConfig>,
    /// Miss penalty, in cycles, of missing each level (same order). Used by
    /// the cost models in `mlc-core`; the simulator itself only counts.
    pub miss_penalty: Vec<f64>,
}

impl HierarchyConfig {
    /// Build a hierarchy, checking the nesting invariants the paper relies
    /// on: each level at least as large as the previous, sizes dividing
    /// evenly, line sizes non-decreasing.
    ///
    /// # Panics
    /// Panics if any invariant is violated or `levels` is empty.
    pub fn new(levels: Vec<CacheConfig>, miss_penalty: Vec<f64>) -> Self {
        Self::try_new(levels, miss_penalty).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`HierarchyConfig::new`], returning the violated invariant instead
    /// of panicking.
    pub fn try_new(levels: Vec<CacheConfig>, miss_penalty: Vec<f64>) -> Result<Self, String> {
        if levels.is_empty() {
            return Err("hierarchy needs at least one level".to_string());
        }
        if levels.len() != miss_penalty.len() {
            return Err(format!(
                "one miss penalty per level: {} levels, {} penalties",
                levels.len(),
                miss_penalty.len()
            ));
        }
        for w in levels.windows(2) {
            let (inner, outer) = (w[0], w[1]);
            if outer.size < inner.size || !outer.size.is_multiple_of(inner.size) {
                return Err(format!(
                    "outer cache size {} must be a multiple of inner size {}",
                    outer.size, inner.size
                ));
            }
            if outer.line < inner.line {
                return Err(format!(
                    "outer line {} smaller than inner line {}",
                    outer.line, inner.line
                ));
            }
        }
        Ok(Self {
            levels,
            miss_penalty,
        })
    }

    /// The paper's simulated machine and timing platform: Sun UltraSparc I.
    ///
    /// 16 KB direct-mapped L1 with 32-byte lines; 512 KB direct-mapped L2
    /// with 64-byte lines (Section 6.1). Miss penalties follow the paper's
    /// qualitative claim that L2 misses cost "much more" than L1 misses:
    /// ~6 cycles to reach L2, ~50 cycles to reach memory.
    pub fn ultrasparc_i() -> Self {
        Self::new(
            vec![
                CacheConfig::direct_mapped(16 * 1024, 32),
                CacheConfig::direct_mapped(512 * 1024, 64),
            ],
            vec![6.0, 50.0],
        )
    }

    /// Three-level hierarchy patterned on the DEC Alpha 21164, which the
    /// introduction cites as a three-level-cache processor. L1 8 KB/32 B
    /// direct-mapped, L2 96 KB/64 B 3-way... except 96 KB is not a power of
    /// two and 3-way breaks none of our invariants but the 96 KB size does,
    /// so we model the nearest power-of-two machine: 8 KB / 128 KB / 2 MB.
    pub fn alpha_21164_like() -> Self {
        Self::new(
            vec![
                CacheConfig::direct_mapped(8 * 1024, 32),
                CacheConfig::new(128 * 1024, 64, 2, ReplacementPolicy::Lru),
                CacheConfig::direct_mapped(2 * 1024 * 1024, 64),
            ],
            vec![5.0, 20.0, 80.0],
        )
    }

    /// The UltraSparc geometry with a given associativity at both levels.
    /// Used by the associativity ablation: the paper claims treating k-way
    /// caches as direct-mapped for optimization purposes captures nearly all
    /// the benefit.
    pub fn ultrasparc_like_assoc(assoc: usize) -> Self {
        Self::new(
            vec![
                CacheConfig::new(16 * 1024, 32, assoc, ReplacementPolicy::Lru),
                CacheConfig::new(512 * 1024, 64, assoc, ReplacementPolicy::Lru),
            ],
            vec![6.0, 50.0],
        )
    }

    /// Number of levels.
    #[inline]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The L1 configuration.
    #[inline]
    pub fn l1(&self) -> CacheConfig {
        self.levels[0]
    }

    /// The largest line size found at any level — `Lmax` in the paper's
    /// MULTILVLPAD construction (Section 3.1.2).
    pub fn max_line(&self) -> usize {
        self.levels.iter().map(|l| l.line).max().unwrap()
    }

    /// The virtual cache MULTILVLPAD pads against: size `S1` (the smallest
    /// cache at any level) with line `Lmax` (the largest line at any level).
    ///
    /// Section 3.1.2: "This configuration consists of the L1 cache size S1
    /// and the largest cache line size found at any level, Lmax. [...] If two
    /// references maintain a distance of at least Lmax on a cache of size S1,
    /// then the distance must be equal or greater on a cache of size k*S1."
    pub fn multilvl_pad_config(&self) -> CacheConfig {
        CacheConfig::direct_mapped(self.l1().size, self.max_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_geometry() {
        let c = CacheConfig::direct_mapped(16 * 1024, 32);
        assert_eq!(c.num_lines(), 512);
        assert_eq!(c.num_sets(), 512);
        assert!(c.is_direct_mapped());
    }

    #[test]
    fn set_associative_geometry() {
        let c = CacheConfig::new(16 * 1024, 32, 4, ReplacementPolicy::Lru);
        assert_eq!(c.num_lines(), 512);
        assert_eq!(c.num_sets(), 128);
        assert!(!c.is_direct_mapped());
    }

    #[test]
    fn location_wraps_modulo_size() {
        let c = CacheConfig::direct_mapped(1024, 32);
        assert_eq!(c.location(0), 0);
        assert_eq!(c.location(1024), 0);
        assert_eq!(c.location(1030), 6);
        assert_eq!(c.location(3 * 1024 + 100), 100);
    }

    #[test]
    fn set_index_and_tag_roundtrip() {
        let c = CacheConfig::new(4096, 64, 2, ReplacementPolicy::Lru);
        // 4096/64 = 64 lines, 32 sets.
        for addr in [0u64, 63, 64, 4096, 4096 + 64, 123_456] {
            let line = addr / 64;
            assert_eq!(c.set_index(addr), (line % 32) as usize);
            assert_eq!(c.tag(addr), line / 32);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_size() {
        CacheConfig::direct_mapped(3000, 32);
    }

    #[test]
    #[should_panic(expected = "must divide line count")]
    fn rejects_bad_associativity() {
        CacheConfig::new(1024, 32, 5, ReplacementPolicy::Lru);
    }

    #[test]
    fn ultrasparc_matches_paper_section_6_1() {
        let h = HierarchyConfig::ultrasparc_i();
        assert_eq!(h.depth(), 2);
        assert_eq!(h.levels[0].size, 16 * 1024);
        assert_eq!(h.levels[0].line, 32);
        assert!(h.levels[0].is_direct_mapped());
        assert_eq!(h.levels[1].size, 512 * 1024);
        assert_eq!(h.levels[1].line, 64);
        assert!(h.levels[1].is_direct_mapped());
    }

    #[test]
    fn multilvl_pad_config_uses_s1_and_lmax() {
        let h = HierarchyConfig::ultrasparc_i();
        let v = h.multilvl_pad_config();
        assert_eq!(v.size, 16 * 1024); // S1
        assert_eq!(v.line, 64); // Lmax (the L2 line)
    }

    #[test]
    #[should_panic(expected = "multiple of inner size")]
    fn rejects_non_nesting_sizes() {
        HierarchyConfig::new(
            vec![
                CacheConfig::direct_mapped(16 * 1024, 32),
                CacheConfig::direct_mapped(8 * 1024, 64),
            ],
            vec![1.0, 2.0],
        );
    }

    #[test]
    fn three_level_preset_nests() {
        let h = HierarchyConfig::alpha_21164_like();
        assert_eq!(h.depth(), 3);
        assert_eq!(h.max_line(), 64);
    }
}
