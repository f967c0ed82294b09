//! The paper's experiment grid, run cell by cell through the result cache.
//!
//! The evaluation cross-product (kernels × optimization families ×
//! hierarchies) is enumerated once, in one fixed order ([`grid_cells`]);
//! each cell runs through the content-addressed result cache
//! (`mlc_core::rescache`) on the work-stealing executor, and the results
//! render as the canonical tables ([`render_tables`]).
//!
//! Determinism is the load-bearing property everywhere here:
//!
//! * [`grid_cells`] enumerates cells in one fixed order, and the executor
//!   returns results in that order whatever the thread count.
//! * A cell's result is identified by content, not by when or where it ran
//!   ([`cell_key`]), and each cell is stored atomically as it completes,
//!   so a rerun over the same cache directory finishes an interrupted run
//!   and a warm cache cannot change output.
//! * [`render_tables`] is the single rendering path for every grid.

use crate::sim::{simulate_versions, SimResult, WARMUP};
use crate::table::{pct, Table};
use crate::versions::{build_versions, OptLevel};
use mlc_cache_sim::stable_hash::{StableHash, StableHasher};
use mlc_cache_sim::HierarchyConfig;
use mlc_core::exec::ExecReport;
use mlc_core::rescache::{
    report_from_json, report_to_json, CacheKey, ResultCache, SIM_VERSION_SALT,
};
use mlc_telemetry::json::JsonValue;
use std::fmt;

/// The entry kind string for cached sweep cells.
pub const CELL_KIND: &str = "sweep_cell";

/// Which padding family a cell measures (the two version pairs of
/// Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// PAD vs MULTILVLPAD (Figure 9).
    Conflict,
    /// GROUPPAD vs GROUPPAD+L2MAXPAD (Figures 10–12).
    GroupReuse,
}

impl Family {
    /// The [`OptLevel`] this family optimizes with.
    pub fn opt_level(&self) -> OptLevel {
        match self {
            Family::Conflict => OptLevel::Conflict,
            Family::GroupReuse => OptLevel::GroupReuse,
        }
    }

    /// Stable short name (used in cached cell payloads and table headers).
    pub fn tag(&self) -> &'static str {
        match self {
            Family::Conflict => "conflict",
            Family::GroupReuse => "group",
        }
    }
}

impl StableHash for Family {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            Family::Conflict => 0,
            Family::GroupReuse => 1,
        });
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Resolve a hierarchy by its stable name.
pub fn hierarchy_by_name(name: &str) -> Option<HierarchyConfig> {
    match name {
        "ultrasparc_i" => Some(HierarchyConfig::ultrasparc_i()),
        "alpha_21164_like" => Some(HierarchyConfig::alpha_21164_like()),
        _ => None,
    }
}

/// Which slice of the cross-product to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    /// Conflict family on the UltraSparc-I (Figure 9's grid).
    Conflict,
    /// Group-reuse family on the UltraSparc-I (Figure 10's grid).
    Group,
    /// Both families on the UltraSparc-I — the paper's evaluation machine.
    Paper,
    /// Both families on both hierarchies.
    Full,
    /// Four cheap conflict-family cells — for debug-build integration
    /// tests and CI smoke checks, where the full grids are too slow.
    Smoke,
}

impl GridKind {
    /// Parse a `--grid` argument.
    pub fn from_arg(s: &str) -> Option<Self> {
        match s {
            "conflict" => Some(GridKind::Conflict),
            "group" => Some(GridKind::Group),
            "paper" => Some(GridKind::Paper),
            "full" => Some(GridKind::Full),
            "smoke" => Some(GridKind::Smoke),
            _ => None,
        }
    }

    fn hierarchies(&self) -> &'static [&'static str] {
        match self {
            GridKind::Full => &["ultrasparc_i", "alpha_21164_like"],
            _ => &["ultrasparc_i"],
        }
    }

    fn families(&self) -> &'static [Family] {
        match self {
            GridKind::Conflict | GridKind::Smoke => &[Family::Conflict],
            GridKind::Group => &[Family::GroupReuse],
            GridKind::Paper | GridKind::Full => &[Family::Conflict, Family::GroupReuse],
        }
    }

    fn kernels(&self) -> Vec<String> {
        let all: Vec<String> = mlc_kernels::all_kernels()
            .iter()
            .map(|k| k.name())
            .collect();
        match self {
            GridKind::Smoke => {
                const SMOKE: [&str; 4] = ["adi32", "dot512", "buk", "embar"];
                all.into_iter()
                    .filter(|k| SMOKE.contains(&k.as_str()))
                    .collect()
            }
            _ => all,
        }
    }
}

/// One cell of the sweep grid: a kernel under one family on one hierarchy,
/// with its fixed position in the enumeration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCell {
    /// Position in [`grid_cells`] order.
    pub index: usize,
    /// Kernel name (resolvable via `mlc_kernels::kernel_by_name`).
    pub kernel: String,
    /// Optimization family.
    pub family: Family,
    /// Hierarchy name (resolvable via [`hierarchy_by_name`]).
    pub hierarchy: String,
}

/// Enumerate the grid in its one canonical order: hierarchies outermost,
/// then families, then kernels in registry order. The order is part of the
/// output contract: the tables print their rows in it.
pub fn grid_cells(kind: GridKind) -> Vec<SweepCell> {
    let kernels = kind.kernels();
    let mut cells = Vec::new();
    for hierarchy in kind.hierarchies() {
        for &family in kind.families() {
            for kernel in &kernels {
                cells.push(SweepCell {
                    index: cells.len(),
                    kernel: kernel.clone(),
                    family,
                    hierarchy: hierarchy.to_string(),
                });
            }
        }
    }
    cells
}

/// The measured outcome of one cell: simulated miss rates of the three
/// versions plus the inter-variable padding each optimized version used.
/// Equality is bitwise on the integer miss counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell this result belongs to.
    pub cell: SweepCell,
    /// Padding bytes added by the L1-only version.
    pub pad_l1: u64,
    /// Padding bytes added by the multi-level version.
    pub pad_l1l2: u64,
    /// Miss-rate reports for Orig / L1 Opt / L1&L2 Opt.
    pub sim: SimResult,
}

/// The content address of one sweep cell's full result.
///
/// Unlike the per-simulation key this also covers the *optimizer* input
/// (the unoptimized kernel model) rather than the optimized layouts — the
/// cached payload includes the optimizer's output, so
/// [`SIM_VERSION_SALT`] must be bumped when optimizer behavior changes,
/// not only when simulator behavior does. `docs/CACHING.md` spells this
/// out.
pub fn cell_key(cell: &SweepCell) -> CacheKey {
    let model = mlc_kernels::kernel_by_name(&cell.kernel)
        .unwrap_or_else(|| panic!("unknown kernel {:?}", cell.kernel))
        .model();
    let hierarchy = hierarchy_by_name(&cell.hierarchy)
        .unwrap_or_else(|| panic!("unknown hierarchy {:?}", cell.hierarchy));
    let mut h = StableHasher::new();
    h.write_str("mlc.sweep.cell");
    h.write_u64(SIM_VERSION_SALT);
    model.stable_hash(&mut h);
    hierarchy.stable_hash(&mut h);
    cell.family.stable_hash(&mut h);
    h.write_u64(WARMUP as u64);
    h.write_u64(crate::sim::TIMED as u64);
    CacheKey::from_digest(h.finish())
}

/// Serialize one result as a cache payload (integer counts only, so it
/// round-trips bit-for-bit; the cell coordinates are echoed for
/// validation).
pub fn cell_result_to_json(r: &CellResult) -> JsonValue {
    JsonValue::object(vec![
        ("kernel", JsonValue::from(r.cell.kernel.as_str())),
        ("family", JsonValue::from(r.cell.family.tag())),
        ("hierarchy", JsonValue::from(r.cell.hierarchy.as_str())),
        ("pad_l1", JsonValue::from(r.pad_l1)),
        ("pad_l1l2", JsonValue::from(r.pad_l1l2)),
        ("orig", report_to_json(&r.sim.orig)),
        ("l1", report_to_json(&r.sim.l1)),
        ("l1l2", report_to_json(&r.sim.l1l2)),
    ])
}

/// Parse [`cell_result_to_json`] output for `cell`, validating that the
/// payload's echoed coordinates match.
pub fn cell_result_from_json(cell: &SweepCell, v: &JsonValue) -> Result<CellResult, String> {
    let field = |k: &str| v.get(k).and_then(JsonValue::as_str);
    if field("kernel") != Some(cell.kernel.as_str()) {
        return Err(format!(
            "kernel echo {:?} != {:?}",
            field("kernel"),
            cell.kernel
        ));
    }
    if field("family") != Some(cell.family.tag()) {
        return Err(format!(
            "family echo {:?} != {:?}",
            field("family"),
            cell.family.tag()
        ));
    }
    if field("hierarchy") != Some(cell.hierarchy.as_str()) {
        return Err(format!(
            "hierarchy echo {:?} != {:?}",
            field("hierarchy"),
            cell.hierarchy
        ));
    }
    let count = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("{k} missing or not a count"))
    };
    let report = |k: &str| {
        report_from_json(v.get(k).ok_or_else(|| format!("{k} missing"))?)
            .map_err(|e| format!("{k}: {e}"))
    };
    Ok(CellResult {
        cell: cell.clone(),
        pad_l1: count("pad_l1")?,
        pad_l1l2: count("pad_l1l2")?,
        sim: SimResult {
            orig: report("orig")?,
            l1: report("l1")?,
            l1l2: report("l1l2")?,
        },
    })
}

/// Run one cell: build the three versions and simulate them, consulting
/// `cell_cache` for the whole cell first (a warm cell skips the optimizer
/// *and* the simulator — this is what makes warm sweep reruns near-free).
/// The lookup goes through the cache's coalescing front, so two workers
/// (or two overlapping grids) hitting the same cell concurrently share one
/// compute and one store. The underlying simulations additionally go
/// through the process-global result cache installed via
/// [`crate::sim::install_result_cache`], so even a cold cell reuses any
/// simulation another grid already ran.
pub fn run_cell(cell: &SweepCell, cell_cache: Option<&ResultCache>) -> CellResult {
    if let Some(cache) = cell_cache {
        let key = cell_key(cell);
        let payload =
            cache.get_or_compute_raw(key, CELL_KIND, || cell_result_to_json(&compute_cell(cell)));
        match cell_result_from_json(cell, &payload) {
            Ok(r) => return r,
            Err(why) => {
                eprintln!("sweep: undecodable cached cell for {key} ({why}); recomputing");
            }
        }
        // The cached payload was unusable: recompute and overwrite it so
        // the next run does not trip over the same entry.
        let result = compute_cell(cell);
        if let Err(e) = cache.store_raw(key, CELL_KIND, cell_result_to_json(&result)) {
            eprintln!("sweep: failed to store cell {key}: {e}");
        }
        return result;
    }
    compute_cell(cell)
}

fn compute_cell(cell: &SweepCell) -> CellResult {
    let kernel = mlc_kernels::kernel_by_name(&cell.kernel)
        .unwrap_or_else(|| panic!("unknown kernel {:?}", cell.kernel));
    let hierarchy = hierarchy_by_name(&cell.hierarchy)
        .unwrap_or_else(|| panic!("unknown hierarchy {:?}", cell.hierarchy));
    let v = build_versions(&kernel.model(), &hierarchy, cell.family.opt_level());
    let sim = simulate_versions(&v, &hierarchy);
    CellResult {
        cell: cell.clone(),
        pad_l1: v.l1.report.padding_bytes,
        pad_l1l2: v.l1l2.report.padding_bytes,
        sim,
    }
}

/// Run many cells with `threads` workers. Returns the results in `cells`
/// order, plus the executor's [`ExecReport`]: per-worker cells done,
/// steals, and busy/idle time for the `exec.*` metrics the `sweep` binary
/// exports.
pub fn run_cells(
    cells: &[SweepCell],
    threads: usize,
    cell_cache: Option<&ResultCache>,
) -> (Vec<CellResult>, ExecReport) {
    mlc_core::exec::execute(cells.to_vec(), threads, |cell| run_cell(cell, cell_cache))
}

/// Render the canonical sweep tables: one block per (hierarchy, family)
/// pair in grid order, fig09-style columns.
pub fn render_tables(results: &[CellResult], csv: bool) -> String {
    let mut out = String::new();
    let mut block: Vec<&CellResult> = Vec::new();
    let mut block_id: Option<(String, Family)> = None;
    let flush = |block: &mut Vec<&CellResult>, id: &Option<(String, Family)>, out: &mut String| {
        if let Some((hierarchy, family)) = id {
            let mut t = Table::new(&[
                "program",
                "L1 Orig",
                "L1 L1Opt",
                "L1 L1&L2",
                "L2 Orig",
                "L2 L1Opt",
                "L2 L1&L2",
                "pad L1Opt",
                "pad L1&L2",
            ]);
            for r in block.iter() {
                t.row(vec![
                    r.cell.kernel.clone(),
                    pct(r.sim.orig.miss_rate(0)),
                    pct(r.sim.l1.miss_rate(0)),
                    pct(r.sim.l1l2.miss_rate(0)),
                    pct(r.sim.orig.miss_rate(1)),
                    pct(r.sim.l1.miss_rate(1)),
                    pct(r.sim.l1l2.miss_rate(1)),
                    format!("{}B", r.pad_l1),
                    format!("{}B", r.pad_l1l2),
                ]);
            }
            out.push_str(&format!("== family={family} hierarchy={hierarchy} ==\n"));
            out.push_str(&if csv { t.to_csv() } else { t.render() });
            out.push('\n');
            block.clear();
        }
    };
    for r in results {
        let id = (r.cell.hierarchy.clone(), r.cell.family);
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

    fn tiny_grid() -> Vec<SweepCell> {
        // A real grid's first few cells — enough structure, cheap to run.
        grid_cells(GridKind::Conflict).into_iter().take(3).collect()
    }

    #[test]
    fn grid_enumeration_is_stable_and_indexed() {
        let a = grid_cells(GridKind::Paper);
        let b = grid_cells(GridKind::Paper);
        assert_eq!(a, b);
        for (i, c) in a.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Paper = both families on one hierarchy; Full doubles it.
        assert_eq!(a.len() * 2, grid_cells(GridKind::Full).len());
        assert_eq!(
            grid_cells(GridKind::Conflict).len() + grid_cells(GridKind::Group).len(),
            a.len()
        );
    }

    #[test]
    fn cell_key_distinguishes_cells() {
        let cells = grid_cells(GridKind::Paper);
        let mut keys: Vec<CacheKey> = cells.iter().map(cell_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "every cell must get its own key");
        // And keys are stable across calls.
        assert_eq!(cell_key(&cells[0]), cell_key(&cells[0]));
    }

    #[test]
    fn cell_payload_rejects_a_mismatched_cell() {
        let cells = tiny_grid();
        let r = run_cell(&cells[0], None);
        let payload = cell_result_to_json(&r);
        assert_eq!(cell_result_from_json(&cells[0], &payload), Ok(r));
        // A payload read for another cell (a different kernel, or the same
        // kernel under the other family) must fail its echo check rather
        // than decode as that cell's result.
        let other_family = SweepCell {
            family: Family::GroupReuse,
            ..cells[0].clone()
        };
        for (cell, echo) in [(&cells[1], "kernel echo"), (&other_family, "family echo")] {
            let err = cell_result_from_json(cell, &payload).unwrap_err();
            assert!(err.starts_with(echo), "{err}");
        }
    }

    #[test]
    fn cell_cache_round_trips_and_hits() {
        let dir = std::env::temp_dir().join(format!("mlc-sweep-cell-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let cells = tiny_grid();
        let cold = run_cell(&cells[0], Some(&cache));
        let warm = run_cell(&cells[0], Some(&cache));
        assert_eq!(cold, warm);
        let s = cache.stats();
        assert_eq!(s.stores, 1);
        assert_eq!(s.hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_cells_reports_all_fresh_cells() {
        let cells = tiny_grid();
        let (results, report) = run_cells(&cells, 2, None);
        assert_eq!(results.len(), cells.len());
        assert!(results.iter().zip(&cells).all(|(r, c)| r.cell == *c));
        assert_eq!(report.items, cells.len());
        assert_eq!(report.total_done() as usize, cells.len());
        assert!(report.threads >= 1);
    }

    #[test]
    fn render_groups_blocks_in_grid_order() {
        let cells = grid_cells(GridKind::Paper);
        // Fabricate cheap results: reuse one real measurement everywhere.
        let template = run_cell(&tiny_grid()[0], None);
        let results: Vec<CellResult> = cells
            .iter()
            .map(|c| CellResult {
                cell: c.clone(),
                ..template.clone()
            })
            .collect();
        let out = render_tables(&results, false);
        let conflict_at = out.find("family=conflict").unwrap();
        let group_at = out.find("family=group").unwrap();
        assert!(conflict_at < group_at, "blocks follow grid order");
        assert_eq!(out.matches("== family=").count(), 2);
    }
}
