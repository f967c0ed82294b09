//! Program versions: Orig / "L1 Opt" / "L1&L2 Opt".
//!
//! Section 6 measures three versions of each program. The SUIF pre-passes
//! (variable promotion + intra-variable padding for the self-conflicting
//! programs) apply to *all* versions; the versions differ only in the
//! inter-variable padding pass:
//!
//! * conflict experiments (Figure 9): `PAD` vs `MULTILVLPAD`;
//! * group-reuse experiments (Figures 10–12): `GROUPPAD` vs
//!   `GROUPPAD + L2MAXPAD`.

use mlc_cache_sim::HierarchyConfig;
use mlc_core::pipeline::{optimize_both_targets, OptimizeOptions, OptimizeTarget, Optimized};
use mlc_core::MissCosts;
use mlc_model::{DataLayout, Program};

/// Which figure family the versions serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// PAD / MULTILVLPAD (avoid severe conflicts; Figure 9).
    Conflict,
    /// GROUPPAD / GROUPPAD+L2MAXPAD (preserve group reuse; Figures 10-12).
    GroupReuse,
}

/// The three measured versions of one program.
#[derive(Debug, Clone)]
pub struct Versions {
    /// Intra-padded program with the contiguous (unpadded) inter-variable
    /// layout — the paper's "Orig".
    pub orig_program: Program,
    /// Orig layout.
    pub orig_layout: DataLayout,
    /// "L1 Opt": padding targeting the L1 cache only.
    pub l1: Optimized,
    /// "L1&L2 Opt": padding targeting both cache levels.
    pub l1l2: Optimized,
}

/// The "L1 Opt" pipeline options of one version family.
fn version_options(hierarchy: &HierarchyConfig, level: OptLevel) -> OptimizeOptions {
    OptimizeOptions {
        target: OptimizeTarget::L1Only,
        preserve_group_reuse: level == OptLevel::GroupReuse,
        enable_fusion: false,
        enable_intra_pad: true,
        enable_permutation: false,
        costs: MissCosts::from_hierarchy(hierarchy),
    }
}

/// Build all three versions of a program for a hierarchy. The two optimized
/// versions share intra-variable padding and, in the group family,
/// GROUPPAD ([`optimize_both_targets`]).
pub fn build_versions(program: &Program, hierarchy: &HierarchyConfig, level: OptLevel) -> Versions {
    let (l1, l1l2) = optimize_both_targets(program, hierarchy, &version_options(hierarchy, level));
    // Orig shares the intra-padded program (the pre-pass applies everywhere)
    // but keeps the contiguous inter-variable layout.
    let orig_program = l1.program.clone();
    let orig_layout = DataLayout::contiguous(&orig_program.arrays);
    Versions {
        orig_program,
        orig_layout,
        l1,
        l1l2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_core::conflict::severe_conflicts;
    use mlc_model::program::figure2_example;

    #[test]
    fn conflict_versions_behave() {
        let h = HierarchyConfig::ultrasparc_i();
        let p = figure2_example(512);
        let v = build_versions(&p, &h, OptLevel::Conflict);
        // Orig: severe conflicts present; L1 Opt: none on L1; L1&L2: none anywhere.
        assert!(!severe_conflicts(&v.orig_program, &v.orig_layout, h.l1()).is_empty());
        assert!(severe_conflicts(&v.l1.program, &v.l1.layout, h.l1()).is_empty());
        for &c in &h.levels {
            assert!(severe_conflicts(&v.l1l2.program, &v.l1l2.layout, c).is_empty());
        }
    }

    #[test]
    fn versions_equal_two_separate_optimize_runs() {
        // Sharing intra-padding and GROUPPAD between the two optimized
        // versions must not change either of them: same programs, layouts
        // and reports (positions tried and scored included) as one
        // `optimize` call per target.
        use mlc_core::pipeline::optimize;
        let mut programs = vec![figure2_example(450)];
        for name in ["expl512", "shal512", "jacobi512", "tomcatv", "dot512"] {
            programs.push(mlc_kernels::kernel_by_name(name).unwrap().model());
        }
        for h in [
            HierarchyConfig::ultrasparc_i(),
            HierarchyConfig::alpha_21164_like(),
        ] {
            for p in &programs {
                for level in [OptLevel::Conflict, OptLevel::GroupReuse] {
                    let v = build_versions(p, &h, level);
                    for (target, got) in [
                        (OptimizeTarget::L1Only, &v.l1),
                        (OptimizeTarget::MultiLevel, &v.l1l2),
                    ] {
                        let options = OptimizeOptions {
                            target,
                            ..version_options(&h, level)
                        };
                        let want = optimize(p, &h, &options);
                        let what = format!("{} {level:?} {target:?}", p.name);
                        assert_eq!(got.program, want.program, "{what}");
                        assert_eq!(got.layout, want.layout, "{what}");
                        assert_eq!(got.report, want.report, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn group_versions_share_l1_layout_mod_s1() {
        let h = HierarchyConfig::ultrasparc_i();
        let p = figure2_example(450);
        let v = build_versions(&p, &h, OptLevel::GroupReuse);
        let s1 = h.l1().size as u64;
        for (a, b) in v.l1.layout.bases.iter().zip(&v.l1l2.layout.bases) {
            assert_eq!(a % s1, b % s1, "L2MAXPAD must preserve the L1 layout");
        }
    }
}
