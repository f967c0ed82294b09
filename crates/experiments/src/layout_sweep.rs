//! The layout-competitor sweep grid: data layouts as first-class rivals.
//!
//! The padding sweeps ([`crate::sweep`]) compare *where arrays start*; this
//! grid compares *how arrays are laid out*. Every cell runs one
//! mini-kernel on one hierarchy under four competitors:
//!
//! * `orig` — row-major linear, zero pads: the untouched baseline.
//! * `pad` — row-major linear under `MULTILVLPAD`'s best inter-variable
//!   padding: the paper's strongest conflict remedy.
//! * `morton` — the generalized Morton interleave word found by
//!   [`mlc_core::search_morton`] (zero pads; the word itself is the
//!   remedy). See `docs/LAYOUTS.md`.
//! * `cot` — cache-oblivious recursive tiling
//!   ([`mlc_model::transform::cache_oblivious_in_program`]) over the linear
//!   layout, leaf sized to the L1 line.
//!
//! Cells are deterministic — fixed mini-kernels (the registry kernels are
//! padded-layout showcases; Morton's showcase is mixed-orientation
//! traversal, so the grid carries its own transpose/row-col/stencil set),
//! fixed hierarchies, steady-state `(warmup 1, timed 1)` simulation — and
//! each competitor's exact integer miss counts are pinned by the golden
//! tables (`tests/golden_tables.rs`). The `layout_search` binary prints the
//! competitor table.

use crate::table::{pct, Table};
use mlc_cache_sim::stats::MissRateReport;
use mlc_cache_sim::{CacheConfig, HierarchyConfig, ReplacementPolicy};
use mlc_core::rescache::{report_from_json, report_to_json};
use mlc_core::{multilvl_pad, search_morton};
use mlc_model::trace_gen::try_simulate_steady_with;
use mlc_model::transform::cache_oblivious_in_program;
use mlc_model::{
    AffineExpr as E, ArrayDecl, ArrayRef, DataLayout, LayoutFamily, Loop, LoopNest, Program,
};
use mlc_telemetry::json::JsonValue;
use std::fmt;

/// Steady-state protocol shared by every competitor: one warmup sweep, one
/// timed sweep — the repeat-traversal regime layout choices exist for.
pub const WARMUP: usize = 1;
/// See [`WARMUP`].
pub const TIMED: usize = 1;

/// One layout competitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Competitor {
    /// Linear layout, zero pads.
    Orig,
    /// Linear layout under MULTILVLPAD's padding.
    Pad,
    /// Searched generalized Morton interleave words, zero pads.
    Morton,
    /// Cache-oblivious recursive tiling over the linear layout.
    Cot,
}

/// The canonical competitor order of every cell (JSON, tables, benches).
pub const COMPETITORS: [Competitor; 4] = [
    Competitor::Orig,
    Competitor::Pad,
    Competitor::Morton,
    Competitor::Cot,
];

impl Competitor {
    /// Stable short name (JSON and table rows).
    pub fn tag(&self) -> &'static str {
        match self {
            Competitor::Orig => "orig",
            Competitor::Pad => "pad",
            Competitor::Morton => "morton",
            Competitor::Cot => "cot",
        }
    }
}

impl fmt::Display for Competitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Resolve a layout-grid hierarchy by its stable name. `tiny_l1l2` is the
/// Morton showcase machine: a 2 KB direct-mapped L1 where any row-major
/// walk of a transposed operand misses every line, backed by a 16 KB
/// two-way L2.
pub fn layout_hierarchy_by_name(name: &str) -> Option<HierarchyConfig> {
    match name {
        "tiny_l1l2" => Some(HierarchyConfig::new(
            vec![
                CacheConfig::new(2048, 32, 1, ReplacementPolicy::Lru),
                CacheConfig::new(16384, 64, 2, ReplacementPolicy::Lru),
            ],
            vec![6.0, 50.0],
        )),
        "ultrasparc_i" => Some(HierarchyConfig::ultrasparc_i()),
        _ => None,
    }
}

/// The mini-kernels of the layout grid, by stable name.
///
/// Each pairs a unit-stride walk with a mixed-orientation one — the shape
/// padding cannot fix (the stride, not the base address, is the problem)
/// but an interleave word or a recursive tiling can.
pub fn layout_kernel_by_name(name: &str) -> Option<Program> {
    match name {
        "transpose64" => Some(transpose(64)),
        "transpose32" => Some(transpose(32)),
        "rowcol48" => Some(rowcol(48)),
        "stencil96" => Some(stencil(96)),
        _ => None,
    }
}

/// `B(i,j) = A(j,i)`: one operand walks rows, the other columns.
fn transpose(n: usize) -> Program {
    let mut p = Program::new("transpose");
    let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
    let b = p.add_array(ArrayDecl::f64("B", vec![n, n]));
    let nn = n as i64 - 1;
    p.add_nest(LoopNest::new(
        "t",
        vec![Loop::counted("j", 0, nn), Loop::counted("i", 0, nn)],
        vec![
            ArrayRef::read(a, vec![E::var("j"), E::var("i")]),
            ArrayRef::write(b, vec![E::var("i"), E::var("j")]),
        ],
    ));
    p
}

/// `C(i,j) = A(i,j) + B(j,i)`: a same-orientation pair plus a transposed
/// operand in one body.
fn rowcol(n: usize) -> Program {
    let mut p = Program::new("rowcol");
    let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
    let b = p.add_array(ArrayDecl::f64("B", vec![n, n]));
    let c = p.add_array(ArrayDecl::f64("C", vec![n, n]));
    let nn = n as i64 - 1;
    p.add_nest(LoopNest::new(
        "rc",
        vec![Loop::counted("i", 0, nn), Loop::counted("j", 0, nn)],
        vec![
            ArrayRef::read(a, vec![E::var("i"), E::var("j")]),
            ArrayRef::read(b, vec![E::var("j"), E::var("i")]),
            ArrayRef::write(c, vec![E::var("i"), E::var("j")]),
        ],
    ));
    p
}

/// Five-point-ish stencil with spatial reuse in both dimensions — the
/// cache-oblivious competitor's home turf.
fn stencil(n: usize) -> Program {
    let mut p = Program::new("stencil");
    let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
    let b = p.add_array(ArrayDecl::f64("B", vec![n, n]));
    let nn = n as i64 - 2;
    p.add_nest(LoopNest::new(
        "s",
        vec![Loop::counted("i", 0, nn), Loop::counted("j", 0, nn)],
        vec![
            ArrayRef::read(a, vec![E::var("i"), E::var("j")]),
            ArrayRef::read(a, vec![E::var_plus("i", 1), E::var("j")]),
            ArrayRef::read(a, vec![E::var("i"), E::var_plus("j", 1)]),
            ArrayRef::write(b, vec![E::var("i"), E::var("j")]),
        ],
    ));
    p
}

/// Which slice of the layout grid to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutGridKind {
    /// Two cheap cells on the showcase hierarchy — debug-build golden
    /// subset and CI smoke.
    Smoke,
    /// All kernels on both hierarchies.
    Full,
}

impl LayoutGridKind {
    /// Parse a `--grid` argument.
    pub fn from_arg(s: &str) -> Option<Self> {
        match s {
            "smoke" => Some(LayoutGridKind::Smoke),
            "full" => Some(LayoutGridKind::Full),
            _ => None,
        }
    }

    fn hierarchies(&self) -> &'static [&'static str] {
        match self {
            LayoutGridKind::Smoke => &["tiny_l1l2"],
            LayoutGridKind::Full => &["tiny_l1l2", "ultrasparc_i"],
        }
    }

    fn kernels(&self) -> &'static [&'static str] {
        match self {
            LayoutGridKind::Smoke => &["transpose64", "rowcol48"],
            LayoutGridKind::Full => &["transpose32", "transpose64", "rowcol48", "stencil96"],
        }
    }
}

/// One cell: a mini-kernel on one hierarchy, every competitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutCell {
    /// Position in [`layout_grid_cells`] order.
    pub index: usize,
    /// Mini-kernel name ([`layout_kernel_by_name`]).
    pub kernel: String,
    /// Hierarchy name ([`layout_hierarchy_by_name`]).
    pub hierarchy: String,
}

/// Enumerate the grid in its one canonical order: hierarchies outermost,
/// kernels in declaration order.
pub fn layout_grid_cells(kind: LayoutGridKind) -> Vec<LayoutCell> {
    let mut cells = Vec::new();
    for hierarchy in kind.hierarchies() {
        for kernel in kind.kernels() {
            cells.push(LayoutCell {
                index: cells.len(),
                kernel: kernel.to_string(),
                hierarchy: hierarchy.to_string(),
            });
        }
    }
    cells
}

/// One competitor's measurement inside a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CompetitorRun {
    /// Which competitor.
    pub competitor: Competitor,
    /// Steady-state miss report (integer counts; what the goldens pin).
    pub report: MissRateReport,
    /// `report.weighted_cost(miss_penalty)` — the scoreboard number.
    pub cost: f64,
    /// Human-readable detail: pad bytes, the winning word, the leaf size.
    pub note: String,
}

/// The measured outcome of one cell, competitors in [`COMPETITORS`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutCellResult {
    /// The cell this result belongs to.
    pub cell: LayoutCell,
    /// One run per competitor.
    pub runs: Vec<CompetitorRun>,
}

fn steady(p: &Program, layout: &DataLayout, h: &HierarchyConfig) -> MissRateReport {
    try_simulate_steady_with(p, layout, h, WARMUP, TIMED, true)
        .unwrap_or_else(|e| panic!("layout grid cell failed to simulate: {e}"))
}

/// The Morton competitor's detail: each array's word (dimension ids, LSB
/// first) or `linear`, declaration order.
fn families_note(families: &[LayoutFamily]) -> String {
    let words: Vec<String> = families
        .iter()
        .map(|f| match f {
            LayoutFamily::Morton(w) => format!(
                "[{}]",
                w.iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            LayoutFamily::Linear => "linear".into(),
        })
        .collect();
    words.join(" ")
}

/// Run one cell: simulate all four competitors.
pub fn run_layout_cell(cell: &LayoutCell) -> LayoutCellResult {
    let program = layout_kernel_by_name(&cell.kernel)
        .unwrap_or_else(|| panic!("unknown layout kernel {:?}", cell.kernel));
    let h = layout_hierarchy_by_name(&cell.hierarchy)
        .unwrap_or_else(|| panic!("unknown layout hierarchy {:?}", cell.hierarchy));
    let zero_pads = vec![0u64; program.arrays.len()];
    let mut runs = Vec::with_capacity(COMPETITORS.len());

    // orig: linear, zero pads.
    let linear = DataLayout::contiguous(&program.arrays);
    let report = steady(&program, &linear, &h);
    runs.push(CompetitorRun {
        competitor: Competitor::Orig,
        cost: report.weighted_cost(&h.miss_penalty),
        report,
        note: "linear".into(),
    });

    // pad: MULTILVLPAD's best inter-variable padding.
    let padded = multilvl_pad(&program, &h);
    let report = steady(&program, &padded.layout, &h);
    runs.push(CompetitorRun {
        competitor: Competitor::Pad,
        cost: report.weighted_cost(&h.miss_penalty),
        report,
        note: format!("pad {}B", padded.pads.iter().sum::<u64>()),
    });

    // morton: the searched interleave words (zero pads).
    let searched = search_morton(&program, &zero_pads, &h)
        .unwrap_or_else(|e| panic!("morton search failed on {:?}: {e}", cell.kernel));
    runs.push(CompetitorRun {
        competitor: Competitor::Morton,
        cost: searched.cost,
        note: families_note(&searched.families),
        report: searched.report,
    });

    // cot: recursive tiling of every nest, leaf one L1 line of elements.
    let elem = program
        .arrays
        .iter()
        .map(|a| a.elem_size)
        .max()
        .unwrap_or(8);
    let leaf = (h.levels[0].line as u64 / elem as u64).max(2);
    let mut cot = program.clone();
    let mut split = 0usize;
    // Transform back-to-front so earlier splice points stay valid.
    for at in (0..cot.nests.len()).rev() {
        if let Ok(next) = cache_oblivious_in_program(&cot, at, leaf) {
            cot = next;
            split += 1;
        }
    }
    let report = steady(&cot, &linear, &h);
    runs.push(CompetitorRun {
        competitor: Competitor::Cot,
        cost: report.weighted_cost(&h.miss_penalty),
        report,
        note: if split > 0 {
            format!("leaf {leaf}")
        } else {
            "kept".into()
        },
    });

    LayoutCellResult {
        cell: cell.clone(),
        runs,
    }
}

/// Run every cell of `kind`, in grid order.
pub fn run_layout_cells(kind: LayoutGridKind) -> Vec<LayoutCellResult> {
    layout_grid_cells(kind)
        .iter()
        .map(run_layout_cell)
        .collect()
}

/// Serialize one result (integer miss counts only, so it round-trips
/// bit-for-bit; costs are recomputed from the counts on read).
pub fn layout_cell_result_to_json(r: &LayoutCellResult) -> JsonValue {
    let mut doc = vec![
        ("kernel", JsonValue::from(r.cell.kernel.as_str())),
        ("hierarchy", JsonValue::from(r.cell.hierarchy.as_str())),
    ];
    for run in &r.runs {
        doc.push((run.competitor.tag(), report_to_json(&run.report)));
    }
    JsonValue::object(doc)
}

/// Parse [`layout_cell_result_to_json`] output for `cell`, validating the
/// echoed coordinates and recomputing costs. Notes are not serialized;
/// they come back empty.
pub fn layout_cell_result_from_json(
    cell: &LayoutCell,
    v: &JsonValue,
) -> Result<LayoutCellResult, String> {
    let field = |k: &str| v.get(k).and_then(JsonValue::as_str);
    if field("kernel") != Some(cell.kernel.as_str()) {
        return Err(format!(
            "kernel echo {:?} != {:?}",
            field("kernel"),
            cell.kernel
        ));
    }
    if field("hierarchy") != Some(cell.hierarchy.as_str()) {
        return Err(format!(
            "hierarchy echo {:?} != {:?}",
            field("hierarchy"),
            cell.hierarchy
        ));
    }
    let h = layout_hierarchy_by_name(&cell.hierarchy)
        .ok_or_else(|| format!("unknown hierarchy {:?}", cell.hierarchy))?;
    let mut runs = Vec::with_capacity(COMPETITORS.len());
    for competitor in COMPETITORS {
        let report = report_from_json(
            v.get(competitor.tag())
                .ok_or_else(|| format!("{competitor} missing"))?,
        )
        .map_err(|e| format!("{competitor}: {e}"))?;
        runs.push(CompetitorRun {
            competitor,
            cost: report.weighted_cost(&h.miss_penalty),
            report,
            note: String::new(),
        });
    }
    Ok(LayoutCellResult {
        cell: cell.clone(),
        runs,
    })
}

/// Render the canonical layout tables: one block per hierarchy in grid
/// order, one row per (kernel, competitor).
pub fn render_layout_tables(results: &[LayoutCellResult], csv: bool) -> String {
    let mut out = String::new();
    let mut block: Vec<&LayoutCellResult> = Vec::new();
    let mut block_id: Option<String> = None;
    let flush = |block: &mut Vec<&LayoutCellResult>, id: &Option<String>, out: &mut String| {
        if let Some(hierarchy) = id {
            let mut t = Table::new(&["program", "layout", "L1 miss", "L2 miss", "cost", "detail"]);
            for r in block.iter() {
                for run in &r.runs {
                    t.row(vec![
                        r.cell.kernel.clone(),
                        run.competitor.tag().to_string(),
                        pct(run.report.miss_rate(0)),
                        pct(run.report.miss_rate(1)),
                        format!("{:.0}", run.cost),
                        run.note.clone(),
                    ]);
                }
            }
            out.push_str(&format!("== layout grid hierarchy={hierarchy} ==\n"));
            out.push_str(&if csv { t.to_csv() } else { t.render() });
            out.push('\n');
            block.clear();
        }
    };
    for r in results {
        let id = r.cell.hierarchy.clone();
        if block_id.as_ref() != Some(&id) {
            flush(&mut block, &block_id, &mut out);
            block_id = Some(id);
        }
        block.push(r);
    }
    flush(&mut block, &block_id, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LayoutCellResult {
        /// The run for `competitor` (every cell carries all of them).
        fn run(&self, competitor: Competitor) -> &CompetitorRun {
            self.runs
                .iter()
                .find(|r| r.competitor == competitor)
                .expect("every cell runs every competitor")
        }
    }

    #[test]
    fn grid_enumeration_is_stable_and_indexed() {
        let a = layout_grid_cells(LayoutGridKind::Full);
        assert_eq!(a, layout_grid_cells(LayoutGridKind::Full));
        for (i, c) in a.iter().enumerate() {
            assert_eq!(c.index, i);
            assert!(layout_kernel_by_name(&c.kernel).is_some());
            assert!(layout_hierarchy_by_name(&c.hierarchy).is_some());
        }
        // The smoke grid is a strict subset of the full grid's coordinates.
        for c in layout_grid_cells(LayoutGridKind::Smoke) {
            assert!(a
                .iter()
                .any(|f| f.kernel == c.kernel && f.hierarchy == c.hierarchy));
        }
    }

    #[test]
    fn cells_carry_every_competitor_and_round_trip() {
        let cells = layout_grid_cells(LayoutGridKind::Smoke);
        let r = run_layout_cell(&cells[1]);
        assert_eq!(r.runs.len(), COMPETITORS.len());
        for (run, want) in r.runs.iter().zip(COMPETITORS) {
            assert_eq!(run.competitor, want);
        }
        let back = layout_cell_result_from_json(&cells[1], &layout_cell_result_to_json(&r))
            .expect("round trip");
        for (a, b) in r.runs.iter().zip(&back.runs) {
            assert_eq!(a.report, b.report);
            assert_eq!(a.cost, b.cost, "cost is recomputed from the counts");
        }
    }

    #[test]
    fn transpose_cell_prefers_morton_over_best_pad() {
        // The committed acceptance cell: on the showcase hierarchy the
        // searched interleave word must beat MULTILVLPAD's best padding,
        // and by a clear margin (today 261,408 vs 64,736, about 4x).
        let cells = layout_grid_cells(LayoutGridKind::Smoke);
        let r = run_layout_cell(&cells[0]);
        assert_eq!(r.cell.kernel, "transpose64");
        let pad = r.run(Competitor::Pad);
        let morton = r.run(Competitor::Morton);
        assert!(
            pad.cost >= 1.05 * morton.cost,
            "morton {} must beat pad {} by at least 1.05x",
            morton.cost,
            pad.cost
        );
        // And neither competitor regresses the untouched baseline.
        let orig = r.run(Competitor::Orig);
        assert!(morton.cost < orig.cost);
        assert!(pad.cost <= orig.cost);
    }

    #[test]
    fn search_picks_the_pinned_words_on_every_cell() {
        // The golden tables pin each competitor's counts; this pins which
        // words the Morton search picks, cell by cell in grid order.
        let want = [
            "[0,1,1,0,1,1,0,1,0,0] linear",
            "[0,1,1,1,1,1,1,0,0,0,0,0] [0,0,1,1,0,0,1,1,0,0,1,1]",
            "[0,1,1,1,1,0,1,1,0,0,0,0] linear [0,1,1,0,1,1,0,1,1,0,0,0]",
            "[0,1,1,1,1,0,1,1,1,0,0,0,0,0] [0,1,1,1,1,1,1,1,0,0,0,0,0,0]",
            "linear linear",
            "[0,1,1,1,1,1,1,0,0,0,0,0] [0,0,1,1,1,1,0,0,1,1,0,0]",
            "[0,1,1,1,1,0,1,1,0,0,0,0] [0,0,1,1,1,1,1,1,0,0,0,0] linear",
            "[0,1,1,0,1,1,0,1,1,0,1,0,0,0] [0,1,1,1,1,1,1,1,0,0,0,0,0,0]",
        ];
        let cells = layout_grid_cells(LayoutGridKind::Full);
        assert_eq!(cells.len(), want.len());
        for (cell, want) in cells.iter().zip(want) {
            let p = layout_kernel_by_name(&cell.kernel).unwrap();
            let h = layout_hierarchy_by_name(&cell.hierarchy).unwrap();
            let r = search_morton(&p, &vec![0; p.arrays.len()], &h).unwrap();
            assert_eq!(
                families_note(&r.families),
                want,
                "{}/{}",
                cell.hierarchy,
                cell.kernel
            );
        }
    }

    #[test]
    fn cot_splits_and_never_changes_access_totals() {
        for cell in layout_grid_cells(LayoutGridKind::Smoke) {
            let r = run_layout_cell(&cell);
            let orig = r.run(Competitor::Orig);
            let cot = r.run(Competitor::Cot);
            assert!(cot.note.starts_with("leaf"), "grid nests are permutable");
            // Recursive tiling reorders iterations; it must not invent or
            // lose any (same total accesses per level).
            assert_eq!(
                orig.report.levels[0].accesses(),
                cot.report.levels[0].accesses(),
                "{}: cot changed the access count",
                cell.kernel
            );
        }
    }

    #[test]
    fn rendering_is_deterministic_and_grouped() {
        let results = run_layout_cells(LayoutGridKind::Smoke);
        let a = render_layout_tables(&results, false);
        assert_eq!(a, render_layout_tables(&results, false));
        assert_eq!(a.matches("== layout grid hierarchy=").count(), 1);
        for competitor in COMPETITORS {
            assert!(a.contains(competitor.tag()));
        }
        let csv = render_layout_tables(&results, true);
        assert!(csv.contains("transpose64,morton"));
    }
}
