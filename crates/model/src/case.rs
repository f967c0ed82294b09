//! One self-contained test/service case: a program, a layout for its
//! arrays, and a hierarchy.
//!
//! Originally this lived in `mlc-fuzz` as "one fuzz case"; it moved here
//! when the [`crate::corpus`] text serialization became the wire format of
//! the `mlc-serve` HTTP API — a case is now equally a shrunk fuzz
//! reproducer, a committed regression input, and a service request body,
//! and every consumer (fuzzer, tier-1 replay, server) needs the same type
//! below the fuzzing layer.

use crate::arbitrary::{arbitrary_layout, arbitrary_program, ProgramGenConfig};
use crate::{DataLayout, LayoutFamily, Program};
use mlc_cache_sim::arbitrary::{arbitrary_hierarchy, HierarchyGenConfig};
use mlc_cache_sim::rng::DetRng;
use mlc_cache_sim::HierarchyConfig;

/// Generation bounds for a whole case.
#[derive(Debug, Clone, Default)]
pub struct CaseConfig {
    /// Program-side bounds.
    pub program: ProgramGenConfig,
    /// Hierarchy-side bounds.
    pub hierarchy: HierarchyGenConfig,
}

/// One generated (or shrunk, or replayed) test case. The layout is kept as
/// per-array pads so shrinking and serialization stay trivial; use
/// [`Case::layout`] for the materialized [`DataLayout`].
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// The seed this case was generated from (provenance only — a shrunk
    /// case no longer matches its seed's generator output).
    pub seed: u64,
    /// The program under test.
    pub program: Program,
    /// Inter-variable pad (bytes) before each array, in declaration order.
    pub pads: Vec<u64>,
    /// Per-array layout family, in declaration order. Empty means
    /// all-[`LayoutFamily::Linear`] (the pre-family corpus format).
    pub families: Vec<LayoutFamily>,
    /// The cache hierarchy under test.
    pub hierarchy: HierarchyConfig,
}

impl Case {
    /// Deterministically generate the case for `seed`.
    pub fn generate(seed: u64, cfg: &CaseConfig) -> Self {
        let mut rng = DetRng::new(seed);
        let program = arbitrary_program(&mut rng, &cfg.program);
        let layout = arbitrary_layout(&mut rng, &program.arrays);
        let pads = layout.pads(&program.arrays);
        let hierarchy = arbitrary_hierarchy(&mut rng, &cfg.hierarchy);
        Self {
            seed,
            program,
            pads,
            families: Vec::new(),
            hierarchy,
        }
    }

    /// The case's data layout (pads and families materialized into base
    /// addresses). Infallible because [`Case::validate`] already checked
    /// the family vector against the declarations and the layout's end
    /// against the address range.
    pub fn layout(&self) -> DataLayout {
        if self.families.is_empty() {
            DataLayout::with_pads(&self.program.arrays, &self.pads)
        } else {
            DataLayout::with_pads_and_families(&self.program.arrays, &self.pads, &self.families)
                .expect("validated case has a consistent family vector")
        }
    }

    /// Structural sanity: the program validates, the pad vector covers
    /// every array, any layout families fit their declarations, and the
    /// layout ends inside the `i64` address range
    /// ([`DataLayout::checked_end`]). Shrink steps and corpus parsing gate
    /// on this.
    pub fn validate(&self) -> Result<(), String> {
        self.program.validate()?;
        if self.pads.len() != self.program.arrays.len() {
            return Err(format!(
                "{} pads for {} arrays",
                self.pads.len(),
                self.program.arrays.len()
            ));
        }
        if !self.families.is_empty() {
            if self.families.len() != self.program.arrays.len() {
                return Err(format!(
                    "{} layout families for {} arrays",
                    self.families.len(),
                    self.program.arrays.len()
                ));
            }
            for (fam, a) in self.families.iter().zip(&self.program.arrays) {
                fam.validate(a)
                    .map_err(|e| format!("array {}: {e}", a.name))?;
            }
        }
        if DataLayout::checked_end(&self.program.arrays, &self.pads, &self.families).is_none() {
            return Err(format!("the layout would end past byte {}", i64::MAX));
        }
        Ok(())
    }

    /// A terse human-readable size summary (`arrays/nests/refs/levels`),
    /// used in fuzzer progress lines and shrink reports.
    pub fn size_summary(&self) -> String {
        let refs: usize = self.program.nests.iter().map(|n| n.body.len()).sum();
        format!(
            "{}a/{}n/{}r/{}L",
            self.program.arrays.len(),
            self.program.nests.len(),
            refs,
            self.hierarchy.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        let cfg = CaseConfig::default();
        for seed in 0..100 {
            let a = Case::generate(seed, &cfg);
            let b = Case::generate(seed, &cfg);
            assert_eq!(a, b, "seed {seed}");
            a.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn layout_round_trips_through_pads() {
        let c = Case::generate(7, &CaseConfig::default());
        let layout = c.layout();
        assert_eq!(layout.pads(&c.program.arrays), c.pads);
    }

    #[test]
    fn validate_catches_pad_length_mismatch() {
        let mut c = Case::generate(1, &CaseConfig::default());
        c.pads.push(64);
        assert!(c.validate().is_err());
    }

    #[test]
    fn families_flow_into_the_layout() {
        let mut c = Case::generate(3, &CaseConfig::default());
        assert!(c.families.is_empty());
        assert!(c.layout().fully_affine());
        c.families = c
            .program
            .arrays
            .iter()
            .map(LayoutFamily::morton_round_robin)
            .collect();
        c.validate().unwrap();
        let l = c.layout();
        assert!(!l.fully_affine());
        assert_eq!(l.families.len(), c.program.arrays.len());
    }

    #[test]
    fn validate_catches_bad_family_vectors() {
        let mut c = Case::generate(3, &CaseConfig::default());
        // Wrong length.
        c.families = vec![LayoutFamily::Linear];
        c.families
            .resize(c.program.arrays.len() + 1, LayoutFamily::Linear);
        assert!(c.validate().is_err());
        // Word too short for the extents.
        c.families = vec![LayoutFamily::Morton(vec![0]); c.program.arrays.len()];
        assert!(c.validate().is_err());
    }
}
