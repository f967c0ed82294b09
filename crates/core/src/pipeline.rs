//! End-to-end optimization pipeline.
//!
//! Replays the paper's experimental methodology (Section 6.1): promote all
//! variables into one address space (a [`DataLayout`]), apply intra-variable
//! padding where references to the same variable self-conflict, optionally
//! fuse profitable adjacent nests, then lay out variables with the selected
//! padding algorithm:
//!
//! * [`OptimizeTarget::L1Only`] — `PAD` or `GROUPPAD` against the L1 cache
//!   (the paper's "L1 Opt" versions);
//! * [`OptimizeTarget::MultiLevel`] — `MULTILVLPAD`, or `GROUPPAD` followed
//!   by `L2MAXPAD` (the "L1&L2 Opt" versions).

use crate::fusion::fuse_greedy;
use crate::group::account;
use crate::group_pad::group_pad;
use crate::intra_pad::intra_pad;
use crate::maxpad::l2_max_pad;
use crate::pad::{multilvl_pad, pad, PadError, PadResult};
use crate::report::{OptimizeReport, PassSummary};
use crate::MissCosts;
use mlc_cache_sim::HierarchyConfig;
use mlc_model::{DataLayout, Program};
use mlc_telemetry::Telemetry;

/// Which cache levels the padding passes target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizeTarget {
    /// Target only the L1 cache ("L1 Opt").
    L1Only,
    /// Target the whole hierarchy ("L1&L2 Opt").
    MultiLevel,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct OptimizeOptions {
    /// Target.
    pub target: OptimizeTarget,
    /// Use GROUPPAD (+ L2MAXPAD under MultiLevel) instead of plain PAD
    /// (+ MULTILVLPAD): preserve group reuse, not just avoid severe
    /// conflicts.
    pub preserve_group_reuse: bool,
    /// Run the fusion pass before padding.
    pub enable_fusion: bool,
    /// Run intra-variable padding first.
    pub enable_intra_pad: bool,
    /// Reorder each nest's loops into memory order first (the Section 2.1
    /// transformation; needs no multi-level awareness).
    pub enable_permutation: bool,
    /// Miss costs for the fusion decision.
    pub costs: MissCosts,
}

impl OptimizeOptions {
    /// The paper's "L1 Opt" padding configuration (PAD only).
    pub fn l1_pad() -> Self {
        Self {
            target: OptimizeTarget::L1Only,
            preserve_group_reuse: false,
            enable_fusion: false,
            enable_intra_pad: true,
            enable_permutation: false,
            costs: MissCosts::default(),
        }
    }

    /// The paper's "L1&L2 Opt" padding configuration (MULTILVLPAD).
    pub fn multilvl() -> Self {
        Self {
            target: OptimizeTarget::MultiLevel,
            ..Self::l1_pad()
        }
    }

    /// GROUPPAD alone ("L1 Opt" of Section 6.3).
    pub fn l1_group() -> Self {
        Self {
            preserve_group_reuse: true,
            ..Self::l1_pad()
        }
    }

    /// GROUPPAD + L2MAXPAD ("L1&L2 Opt" of Section 6.3).
    pub fn multilvl_group() -> Self {
        Self {
            target: OptimizeTarget::MultiLevel,
            ..Self::l1_group()
        }
    }
}

/// Result of the full pipeline.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The (possibly fused / intra-padded) program.
    pub program: Program,
    /// The final inter-variable layout.
    pub layout: DataLayout,
    /// What happened.
    pub report: OptimizeReport,
}

/// Run the pipeline on a program for a hierarchy.
///
/// Panics only on a hierarchy whose cache sizes do not nest (L2 not a
/// multiple of L1) — use [`try_optimize`] to handle that as a value.
pub fn optimize(
    program: &Program,
    hierarchy: &HierarchyConfig,
    options: &OptimizeOptions,
) -> Optimized {
    optimize_traced(program, hierarchy, options, &mut Telemetry::disabled())
}

/// [`optimize`] with telemetry attached: each pass runs inside a span
/// recording wall time, positions tried/scored and pads chosen, and
/// per-pass counters land in `tel.metrics` under `optimizer.*`. `optimize`
/// is this with a disabled bundle.
pub fn optimize_traced(
    program: &Program,
    hierarchy: &HierarchyConfig,
    options: &OptimizeOptions,
    tel: &mut Telemetry,
) -> Optimized {
    try_optimize_traced(program, hierarchy, options, tel)
        .expect("padding cannot fail on a nested hierarchy")
}

/// Fallible [`optimize`]: surfaces padding configuration errors (a
/// non-nested hierarchy handed to `L2MAXPAD`) instead of panicking.
pub fn try_optimize(
    program: &Program,
    hierarchy: &HierarchyConfig,
    options: &OptimizeOptions,
) -> Result<Optimized, PadError> {
    try_optimize_traced(program, hierarchy, options, &mut Telemetry::disabled())
}

/// Fallible [`optimize_traced`]. On `Err` the telemetry bundle may hold a
/// partially recorded trace (spans up to the failing pass).
pub fn try_optimize_traced(
    program: &Program,
    hierarchy: &HierarchyConfig,
    options: &OptimizeOptions,
    tel: &mut Telemetry,
) -> Result<Optimized, PadError> {
    let root = tel.tracer.begin("optimize");
    tel.tracer.attr(root, "program", program.name.as_str());
    tel.tracer.attr(root, "arrays", program.arrays.len());
    tel.tracer.attr(root, "nests", program.nests.len());
    let (current, passes) = pre_passes(program, hierarchy, options, tel);

    // 4. Inter-variable padding.
    let span = tel.tracer.begin("pass.pad");
    let (algo, r) = pad_pass(
        &current,
        hierarchy,
        options.preserve_group_reuse,
        options.target,
    )?;
    let total_pad = r.total_padding();
    tel.tracer.attr(span, "algorithm", algo);
    tel.tracer.attr(span, "positions_tried", r.positions_tried);
    tel.tracer
        .attr(span, "positions_scored", r.positions_scored);
    tel.tracer.attr(span, "pad_bytes", total_pad);
    tel.tracer.end(span);
    tel.metrics.count("optimizer.pad.runs", 1);
    tel.metrics
        .count("optimizer.pad.positions_tried", r.positions_tried);
    tel.metrics
        .count("optimizer.pad.positions_scored", r.positions_scored);
    tel.metrics.count("optimizer.pad.bytes", total_pad);

    let optimized = assemble(current, passes, algo, r, hierarchy);
    let padding_bytes = optimized.report.padding_bytes;
    tel.tracer.attr(root, "padding_bytes", padding_bytes);
    tel.tracer.end(root);
    tel.metrics
        .set_value("optimizer.padding_bytes", padding_bytes as f64);
    Ok(optimized)
}

/// The "L1 Opt" and "L1&L2 Opt" versions of a program from the L1 Opt
/// `options` (`target` must be [`OptimizeTarget::L1Only`]): the same
/// results as [`optimize`] with those options and with `target` set to
/// [`OptimizeTarget::MultiLevel`], with the shared work done once. The
/// passes before inter-variable padding run once, and under
/// `preserve_group_reuse` so does GROUPPAD: L1&L2 Opt is L2MAXPAD applied
/// to the L1 Opt search, as the paper builds it (§3.2.2).
///
/// Panics only on a hierarchy whose cache sizes do not nest, like
/// [`optimize`].
pub fn optimize_both_targets(
    program: &Program,
    hierarchy: &HierarchyConfig,
    options: &OptimizeOptions,
) -> (Optimized, Optimized) {
    debug_assert_eq!(
        options.target,
        OptimizeTarget::L1Only,
        "optimize_both_targets takes the L1 Opt options"
    );
    let (current, passes) = pre_passes(program, hierarchy, options, &mut Telemetry::disabled());
    let group = options.preserve_group_reuse;
    let (algo, r) = pad_pass(&current, hierarchy, group, OptimizeTarget::L1Only)
        .expect("L1 padding cannot fail");
    let (algo2, r2) = if group {
        l2_max_pass(&current, hierarchy, &r)
    } else {
        pad_pass(&current, hierarchy, group, OptimizeTarget::MultiLevel)
    }
    .expect("padding cannot fail on a nested hierarchy");
    let l1 = assemble(current.clone(), passes.clone(), algo, r, hierarchy);
    let l1l2 = assemble(current, passes, algo2, r2, hierarchy);
    (l1, l1l2)
}

/// The passes before inter-variable padding: intra-variable padding, loop
/// permutation and fusion, as `options` enables them.
fn pre_passes(
    program: &Program,
    hierarchy: &HierarchyConfig,
    options: &OptimizeOptions,
    tel: &mut Telemetry,
) -> (Program, Vec<PassSummary>) {
    let l1 = hierarchy.l1();
    let l2 = hierarchy.levels.get(1).copied();
    let mut passes = Vec::new();

    // 1. Intra-variable padding (Section 6.1 pre-pass).
    let mut current = if options.enable_intra_pad {
        let span = tel.tracer.begin("pass.intra_pad");
        let r = intra_pad(program, l1);
        let padded: Vec<(String, usize)> = r
            .program
            .arrays
            .iter()
            .zip(&r.pads)
            .filter(|(_, &p)| p > 0)
            .map(|(a, &p)| (a.name.clone(), p))
            .collect();
        tel.tracer.attr(span, "arrays_padded", padded.len());
        tel.tracer.attr(
            span,
            "pad_bytes",
            padded.iter().map(|(_, p)| *p as u64).sum::<u64>(),
        );
        tel.tracer.end(span);
        tel.metrics.count("optimizer.intra_pad.runs", 1);
        tel.metrics
            .count("optimizer.intra_pad.arrays_padded", padded.len() as u64);
        passes.push(PassSummary::IntraPad { padded });
        r.program
    } else {
        program.clone()
    };

    // 2. Loop permutation into memory order (Section 2.1): pick the legal
    //    order the loop-cost model likes best, per nest.
    if options.enable_permutation {
        let span = tel.tracer.begin("pass.permutation");
        let mut permuted = Vec::new();
        for k in 0..current.nests.len() {
            if let Ok((nest, perm)) =
                crate::order::permute_for_locality(&current, &current.nests[k], l1.line)
            {
                if perm.windows(2).any(|w| w[0] > w[1]) {
                    permuted.push((k, perm));
                    current.nests[k] = nest;
                }
            }
        }
        tel.tracer.attr(span, "nests_permuted", permuted.len());
        tel.tracer.end(span);
        tel.metrics.count("optimizer.permutation.runs", 1);
        tel.metrics.count(
            "optimizer.permutation.nests_permuted",
            permuted.len() as u64,
        );
        passes.push(PassSummary::Permutation { permuted });
    }

    // 3. Fusion (needs both cache levels for its accounting).
    if options.enable_fusion {
        if let Some(l2c) = l2 {
            let span = tel.tracer.begin("pass.fusion");
            let (fused, taken) = fuse_greedy(&current, l1, l2c, &options.costs);
            tel.tracer.attr(span, "fusions_taken", taken.len());
            if let Some(total) = taken.iter().map(|d| d.delta_cost).reduce(|a, b| a + b) {
                tel.tracer.attr(span, "delta_cost", total);
            }
            tel.tracer.end(span);
            tel.metrics.count("optimizer.fusion.runs", 1);
            tel.metrics
                .count("optimizer.fusion.taken", taken.len() as u64);
            passes.push(PassSummary::Fusion {
                taken: taken
                    .iter()
                    .map(|d| (d.at, d.delta_l2_refs, d.delta_memory_refs, d.delta_cost))
                    .collect(),
            });
            current = fused;
        }
    }

    (current, passes)
}

/// The inter-variable padding pass for one target: PAD or MULTILVLPAD, or
/// with `group` GROUPPAD, then L2MAXPAD under `MultiLevel`.
fn pad_pass(
    current: &Program,
    hierarchy: &HierarchyConfig,
    group: bool,
    target: OptimizeTarget,
) -> Result<(&'static str, PadResult), PadError> {
    let l1 = hierarchy.l1();
    Ok(match (group, target) {
        (false, OptimizeTarget::L1Only) => ("PAD", pad(current, l1)),
        (false, OptimizeTarget::MultiLevel) => ("MULTILVLPAD", multilvl_pad(current, hierarchy)),
        (true, OptimizeTarget::L1Only) => ("GROUPPAD", group_pad(current, l1)),
        (true, OptimizeTarget::MultiLevel) => {
            l2_max_pass(current, hierarchy, &group_pad(current, l1))?
        }
    })
}

/// L2MAXPAD on top of the GROUPPAD result `g`, counting both searches'
/// positions.
fn l2_max_pass(
    current: &Program,
    hierarchy: &HierarchyConfig,
    g: &PadResult,
) -> Result<(&'static str, PadResult), PadError> {
    let l2 = hierarchy.levels.get(1).copied();
    let l2 = l2.expect("MultiLevel group padding needs an L2 cache");
    let m = l2_max_pad(current, hierarchy.l1(), l2, &g.pads)?;
    Ok((
        "GROUPPAD+L2MAXPAD",
        PadResult {
            positions_tried: g.positions_tried + m.positions_tried,
            positions_scored: g.positions_scored + m.positions_scored,
            ..m
        },
    ))
}

/// The pipeline's result: `current` laid out by the padding pass `r`
/// (`algorithm`), with its report.
fn assemble(
    current: Program,
    mut passes: Vec<PassSummary>,
    algorithm: &'static str,
    r: PadResult,
    hierarchy: &HierarchyConfig,
) -> Optimized {
    passes.push(PassSummary::Pad {
        algorithm,
        pads: current
            .arrays
            .iter()
            .zip(&r.pads)
            .map(|(a, &p)| (a.name.clone(), p))
            .collect(),
        positions_tried: r.positions_tried,
        positions_scored: r.positions_scored,
    });
    let l2 = hierarchy.levels.get(1).copied();
    let accounting = account(&current, &r.layout, hierarchy.l1(), l2);
    let padding_bytes = r.layout.padding_overhead(&current.arrays);
    Optimized {
        report: OptimizeReport {
            program: current.name.clone(),
            passes,
            accounting,
            padding_bytes,
        },
        program: current,
        layout: r.layout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::severe_conflicts;
    use mlc_cache_sim::HierarchyConfig;
    use mlc_model::program::figure2_example;
    use mlc_model::trace_gen::simulate;

    fn ultra() -> HierarchyConfig {
        HierarchyConfig::ultrasparc_i()
    }

    #[test]
    fn l1_pad_pipeline_clears_l1_conflicts() {
        let p = figure2_example(512);
        let o = optimize(&p, &ultra(), &OptimizeOptions::l1_pad());
        assert!(severe_conflicts(&o.program, &o.layout, ultra().l1()).is_empty());
        assert!(o.report.to_string().contains("PAD"));
    }

    #[test]
    fn multilvl_pipeline_clears_all_levels() {
        let p = figure2_example(512);
        let o = optimize(&p, &ultra(), &OptimizeOptions::multilvl());
        for &c in &ultra().levels {
            assert!(severe_conflicts(&o.program, &o.layout, c).is_empty());
        }
    }

    #[test]
    fn optimization_reduces_simulated_misses() {
        // The headline mechanism: padding turns a ping-ponging layout into
        // a quiet one. N=512 contiguous is the pathological case.
        let p = figure2_example(512);
        let h = ultra();
        let before = simulate(&p, &DataLayout::contiguous(&p.arrays), &h);
        let o = optimize(&p, &h, &OptimizeOptions::l1_pad());
        let after = simulate(&o.program, &o.layout, &h);
        // PAD removes the ping-ponging (rate ~0.82) leaving line-granularity
        // misses (~0.25 with 8-byte elements on 32-byte lines).
        assert!(
            after.miss_rate(0) < before.miss_rate(0) / 3.0,
            "L1 miss rate {} -> {}",
            before.miss_rate_pct(0),
            after.miss_rate_pct(0)
        );
        assert!(after.miss_rate(1) <= before.miss_rate(1));
    }

    #[test]
    fn group_pipeline_reports_grouppad() {
        let p = figure2_example(512);
        let o = optimize(&p, &ultra(), &OptimizeOptions::multilvl_group());
        let txt = o.report.to_string();
        assert!(txt.contains("GROUPPAD+L2MAXPAD"), "{txt}");
        assert!(o.report.accounting.l1_refs > 0);
    }

    #[test]
    fn group_multilevel_report_counts_both_searches() {
        // L1&L2 Opt's pad pass reports GROUPPAD's positions plus
        // L2MAXPAD's, run on the intra-padded program.
        let p = figure2_example(512);
        let h = ultra();
        let o = optimize(&p, &h, &OptimizeOptions::multilvl_group());
        let current = intra_pad(&p, h.l1()).program;
        let g = group_pad(&current, h.l1());
        let m = l2_max_pad(&current, h.l1(), h.levels[1], &g.pads).unwrap();
        let Some(PassSummary::Pad {
            positions_tried,
            positions_scored,
            ..
        }) = o.report.passes.last()
        else {
            panic!("the pad pass comes last: {:?}", o.report.passes);
        };
        assert_eq!(*positions_tried, g.positions_tried + m.positions_tried);
        assert_eq!(*positions_scored, g.positions_scored + m.positions_scored);
        assert_eq!(o.layout, m.layout);
    }

    #[test]
    fn fusion_pass_runs_when_enabled() {
        let p = figure2_example(512);
        let mut opts = OptimizeOptions::multilvl_group();
        opts.enable_fusion = true;
        let o = optimize(&p, &ultra(), &opts);
        assert_eq!(o.program.nests.len(), 1, "figure 2's nests should fuse");
        assert!(o.report.to_string().contains("fusion"));
    }

    #[test]
    fn permutation_pass_fixes_bad_loop_order() {
        use mlc_model::prelude::*;
        // Figure-1-shaped program with the bad (j outer, i inner) order.
        let n = 256usize;
        let mut p = Program::new("fig1");
        let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
        let b = p.add_array(ArrayDecl::f64("B", vec![n]));
        p.add_nest(mlc_model::LoopNest::new(
            "main",
            vec![
                mlc_model::Loop::counted("j", 0, n as i64 - 1),
                mlc_model::Loop::counted("i", 0, n as i64 - 1),
            ],
            vec![
                ArrayRef::read(a, vec![AffineExpr::var("j"), AffineExpr::var("i")]),
                ArrayRef::write(b, vec![AffineExpr::var("j")]),
            ],
        ));
        let mut opts = OptimizeOptions::l1_pad();
        opts.enable_permutation = true;
        let h = ultra();
        let o = optimize(&p, &h, &opts);
        assert_eq!(o.program.nests[0].loop_vars(), vec!["i", "j"]);
        assert!(o.report.to_string().contains("permutation"), "{}", o.report);
        let before = simulate(&p, &DataLayout::contiguous(&p.arrays), &h);
        let after = simulate(&o.program, &o.layout, &h);
        assert!(after.miss_rate(0) < before.miss_rate(0));
    }

    #[test]
    fn traced_pipeline_records_pass_spans_and_matches_untraced() {
        let p = figure2_example(512);
        let mut opts = OptimizeOptions::multilvl_group();
        opts.enable_fusion = true;
        opts.enable_permutation = true;
        let plain = optimize(&p, &ultra(), &opts);
        let mut tel = Telemetry::enabled();
        let traced = optimize_traced(&p, &ultra(), &opts, &mut tel);
        // Tracing must not perturb the optimization in any way.
        assert_eq!(plain.layout.bases, traced.layout.bases);
        assert_eq!(plain.program.nests.len(), traced.program.nests.len());
        // One span per enabled pass plus the root.
        for name in [
            "optimize",
            "pass.intra_pad",
            "pass.permutation",
            "pass.fusion",
            "pass.pad",
        ] {
            assert!(tel.tracer.span_named(name).is_some(), "missing span {name}");
        }
        let pad_span = tel.tracer.span_named("pass.pad").unwrap();
        assert!(
            pad_span.attrs.iter().any(|(k, v)| k == "positions_tried"
                && matches!(v, mlc_telemetry::AttrValue::UInt(n) if *n > 0)),
            "pad span must record positions tried: {pad_span:?}"
        );
        let root = tel.tracer.span_named("optimize").unwrap();
        let pass_time: u64 = tel
            .tracer
            .spans()
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(|s| s.dur_us)
            .sum();
        assert!(
            root.dur_us >= pass_time,
            "pass spans nest inside the root span"
        );
        // Metrics mirror the report.
        assert!(tel.metrics.counter("optimizer.pad.positions_tried") > 0);
        assert_eq!(tel.metrics.counter("optimizer.pad.runs"), 1);
        assert_eq!(
            tel.metrics.value("optimizer.padding_bytes"),
            Some(traced.report.padding_bytes as f64)
        );
    }

    #[test]
    fn disabled_telemetry_records_nothing_and_matches() {
        let p = figure2_example(300);
        let mut tel = Telemetry::disabled();
        let a = optimize_traced(&p, &ultra(), &OptimizeOptions::l1_pad(), &mut tel);
        let b = optimize(&p, &ultra(), &OptimizeOptions::l1_pad());
        assert_eq!(a.layout.bases, b.layout.bases);
        assert!(tel.tracer.spans().is_empty());
    }

    #[test]
    fn multi_level_never_hurts_l1() {
        // Section 6.3: "optimizing for the L2 cache does not adversely
        // affect L1 miss rates."
        let p = figure2_example(512);
        let h = ultra();
        let l1_only = optimize(&p, &h, &OptimizeOptions::l1_group());
        let both = optimize(&p, &h, &OptimizeOptions::multilvl_group());
        let r1 = simulate(&l1_only.program, &l1_only.layout, &h);
        let r2 = simulate(&both.program, &both.layout, &h);
        assert!(
            r2.miss_rate(0) <= r1.miss_rate(0) + 1e-3,
            "L1&L2 opt must not hurt L1: {} vs {}",
            r2.miss_rate_pct(0),
            r1.miss_rate_pct(0)
        );
    }
}
