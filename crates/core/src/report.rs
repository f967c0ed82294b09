//! Optimization reports.
//!
//! Each pipeline run records what every pass did, in a form the examples
//! and experiment binaries print directly.

use crate::group::ProgramAccounting;
use std::fmt;

/// One pass's summary line.
#[derive(Debug, Clone, PartialEq)]
pub enum PassSummary {
    /// IntraPad.
    IntraPad {
        /// (array name, pad elements) for arrays that were padded.
        padded: Vec<(String, usize)>,
    },
    /// Fusion.
    Fusion {
        /// (nest index, ΔL2 refs, Δmemory refs, Δcost) per fusion taken.
        taken: Vec<(usize, i64, i64, f64)>,
    },
    /// The memory-order loop-permutation pass.
    Permutation {
        /// (nest index, permutation applied) for nests that were reordered.
        permuted: Vec<(usize, Vec<usize>)>,
    },
    /// Pad.
    Pad {
        /// Algorithm.
        algorithm: &'static str,
        /// (array name, pad bytes).
        pads: Vec<(String, u64)>,
        /// Positions tried.
        positions_tried: u64,
        /// Positions actually scored: all of them for PAD and MULTILVLPAD,
        /// one per constant-score segment for GROUPPAD's sweep.
        positions_scored: u64,
    },
}

impl fmt::Display for PassSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassSummary::IntraPad { padded } => {
                if padded.is_empty() {
                    write!(f, "intra-pad: no self-conflicting arrays")
                } else {
                    write!(f, "intra-pad:")?;
                    for (n, p) in padded {
                        write!(f, " {n}+{p}el")?;
                    }
                    Ok(())
                }
            }
            PassSummary::Fusion { taken } => {
                if taken.is_empty() {
                    write!(f, "fusion: no profitable candidates")
                } else {
                    write!(f, "fusion:")?;
                    for (at, dl2, dmem, dc) in taken {
                        write!(
                            f,
                            " nest{at} (ΔL2refs {dl2:+}, Δmem {dmem:+}, Δcost {dc:+.1})"
                        )?;
                    }
                    Ok(())
                }
            }
            PassSummary::Permutation { permuted } => {
                if permuted.is_empty() {
                    write!(f, "permutation: all nests already in memory order")
                } else {
                    write!(f, "permutation:")?;
                    for (k, p) in permuted {
                        write!(f, " nest{k} -> {p:?}")?;
                    }
                    Ok(())
                }
            }
            PassSummary::Pad {
                algorithm,
                pads,
                positions_tried,
                positions_scored,
            } => {
                write!(f, "{algorithm}:")?;
                for (n, p) in pads {
                    write!(f, " {n}+{p}B")?;
                }
                if positions_scored == positions_tried {
                    write!(f, " ({positions_tried} positions tried)")
                } else {
                    write!(
                        f,
                        " ({positions_tried} positions tried, {positions_scored} scored)"
                    )
                }
            }
        }
    }
}

/// Full report of an [`crate::pipeline::optimize`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeReport {
    /// Program name.
    pub program: String,
    /// Per-pass summaries in execution order.
    pub passes: Vec<PassSummary>,
    /// Predicted reference classes under the final layout.
    pub accounting: ProgramAccounting,
    /// Total padding bytes in the final layout.
    pub padding_bytes: u64,
}

impl fmt::Display for OptimizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "optimization report for {}", self.program)?;
        for p in &self.passes {
            writeln!(f, "  - {p}")?;
        }
        writeln!(
            f,
            "  predicted refs: {} L1-group, {} L2, {} memory, {} register ({} B padding)",
            self.accounting.l1_refs,
            self.accounting.l2_refs,
            self.accounting.memory_refs,
            self.accounting.register_refs,
            self.padding_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_summaries_render() {
        let s = PassSummary::IntraPad {
            padded: vec![("A".into(), 4)],
        };
        assert_eq!(s.to_string(), "intra-pad: A+4el");
        let s = PassSummary::Fusion { taken: vec![] };
        assert!(s.to_string().contains("no profitable"));
        let s = PassSummary::Pad {
            algorithm: "GROUPPAD",
            pads: vec![("A".into(), 0), ("B".into(), 544)],
            positions_tried: 96,
            positions_scored: 96,
        };
        let txt = s.to_string();
        assert!(txt.contains("GROUPPAD") && txt.contains("B+544B") && txt.contains("96"));
        assert!(!txt.contains("scored"), "equal counts print compactly");
        let s = PassSummary::Pad {
            algorithm: "GROUPPAD",
            pads: vec![("A".into(), 0)],
            positions_tried: 1536,
            positions_scored: 120,
        };
        assert!(s.to_string().contains("1536 positions tried, 120 scored"));
    }
}
