//! Sharded, resumable sweep orchestration over the paper's experiment grid.
//!
//! The evaluation cross-product — kernels × optimization families ×
//! hierarchies — is embarrassingly parallel *between machines*, not just
//! between threads: this module splits the grid into deterministic shards
//! (`--shard i/n` keeps every cell whose index ≡ i mod n), runs each cell
//! through the content-addressed result cache (`mlc_core::rescache`),
//! writes per-shard JSONL, and recombines shards (`merge`) into the exact
//! table a single-shot run prints — byte for byte, which CI verifies.
//!
//! Determinism is the load-bearing property everywhere here:
//!
//! * [`grid_cells`] enumerates cells in one fixed order and assigns each
//!   its index once; sharding is pure arithmetic on that index.
//! * A cell's result is identified by content, not by when or where it ran
//!   ([`cell_key`]), so `--resume` and warm caches cannot change output.
//! * [`render_tables`] is the single rendering path shared by `sweep run`
//!   and `sweep merge`; merged shards reproduce single-shot stdout exactly.

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
use std::collections::BTreeMap;
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

    /// Stable short name (used in JSONL and table headers).
    pub fn tag(&self) -> &'static str {
        match self {
            Family::Conflict => "conflict",
            Family::GroupReuse => "group",
        }
    }

    /// Parse [`Family::tag`].
    pub fn from_tag(s: &str) -> Option<Self> {
        match s {
            "conflict" => Some(Family::Conflict),
            "group" => Some(Family::GroupReuse),
            _ => None,
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
    /// Position in [`grid_cells`] order; sharding arithmetic uses this.
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
/// output contract — shard indices and merged tables depend on it.
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

/// Parse a `--shard i/n` spec. `n` must be positive and `i < n`.
pub fn parse_shard_spec(s: &str) -> Result<(usize, usize), String> {
    let (i, n) = s
        .split_once('/')
        .ok_or_else(|| format!("shard spec {s:?} is not of the form i/n"))?;
    let i: usize = i.parse().map_err(|_| format!("bad shard index in {s:?}"))?;
    let n: usize = n.parse().map_err(|_| format!("bad shard count in {s:?}"))?;
    if n == 0 {
        return Err("shard count must be positive".into());
    }
    if i >= n {
        return Err(format!("shard index {i} out of range for {n} shards"));
    }
    Ok((i, n))
}

/// The cells shard `i` of `n` owns: every cell with `index % n == i`.
pub fn shard_cells(cells: &[SweepCell], i: usize, n: usize) -> Vec<SweepCell> {
    cells.iter().filter(|c| c.index % n == i).cloned().collect()
}

/// The measured outcome of one cell: simulated miss rates of the three
/// versions plus the inter-variable padding each optimized version used.
#[derive(Debug, Clone)]
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

impl CellResult {
    /// Whether two results agree on every measured quantity (bitwise on
    /// the integer miss counts).
    pub fn same_measurements(&self, other: &CellResult) -> bool {
        self.cell == other.cell
            && self.pad_l1 == other.pad_l1
            && self.pad_l1l2 == other.pad_l1l2
            && self.sim.orig == other.sim.orig
            && self.sim.l1 == other.sim.l1
            && self.sim.l1l2 == other.sim.l1l2
    }
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

/// Serialize one result as a cache/JSONL payload (integer counts only, so
/// it round-trips bit-for-bit; the cell coordinates are echoed for
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

/// Run many cells with `threads` workers, skipping any whose results are
/// already in `done` (the `--resume` path). Returns all results — reused
/// and fresh — sorted by grid index, plus the executor's [`ExecReport`]:
/// per-worker cells done, steals, and busy/idle time for the `exec.*`
/// metrics the `sweep` binary exports. The report covers only the freshly
/// computed cells; `done` reuse is free and happens before the executor
/// starts.
pub fn run_cells(
    cells: &[SweepCell],
    threads: usize,
    cell_cache: Option<&ResultCache>,
    done: &BTreeMap<usize, CellResult>,
) -> (Vec<CellResult>, ExecReport) {
    let todo: Vec<SweepCell> = cells
        .iter()
        .filter(|c| !done.contains_key(&c.index))
        .cloned()
        .collect();
    let mut results: Vec<CellResult> = cells
        .iter()
        .filter_map(|c| done.get(&c.index).cloned())
        .collect();
    let (fresh, report) = mlc_core::exec::execute(todo, threads, |cell| run_cell(cell, cell_cache));
    results.extend(fresh);
    results.sort_by_key(|r| r.cell.index);
    (results, report)
}

/// One JSONL line for a result: the payload plus its grid index.
pub fn result_to_jsonl_line(r: &CellResult) -> String {
    let mut doc = match cell_result_to_json(r) {
        JsonValue::Object(pairs) => pairs,
        _ => unreachable!("cell payload is an object"),
    };
    doc.insert(
        0,
        ("index".to_string(), JsonValue::from(r.cell.index as u64)),
    );
    JsonValue::Object(doc).to_string_compact()
}

/// Parse one JSONL line against the grid it was produced from.
pub fn result_from_jsonl_line(cells: &[SweepCell], line: &str) -> Result<CellResult, String> {
    let doc = JsonValue::parse(line).map_err(|e| e.to_string())?;
    let index = doc
        .get("index")
        .and_then(JsonValue::as_u64)
        .ok_or("index missing or not a count")? as usize;
    let cell = cells
        .get(index)
        .ok_or_else(|| format!("index {index} out of range for a {}-cell grid", cells.len()))?;
    cell_result_from_json(cell, &doc).map_err(|e| format!("cell {index}: {e}"))
}

/// Parse a whole shard file (blank lines ignored). Lines that fail to
/// parse are errors — a shard file is machine-written, so damage means
/// the run it came from cannot be trusted.
pub fn parse_shard_file(cells: &[SweepCell], text: &str) -> Result<Vec<CellResult>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(ln, l)| {
            result_from_jsonl_line(cells, l).map_err(|e| format!("line {}: {e}", ln + 1))
        })
        .collect()
}

/// Parse a shard file for `--resume`. A shard killed mid-write leaves a
/// truncated *final* line; that is expected crash debris, so it is
/// tolerated — the damaged line's cell is simply treated as not done and a
/// warning describing it is returned for the caller to log. Damage
/// anywhere *before* the final line cannot come from a single interrupted
/// append and stays a hard error, exactly as in [`parse_shard_file`].
pub fn parse_shard_file_resume(
    cells: &[SweepCell],
    text: &str,
) -> Result<(Vec<CellResult>, Option<String>), String> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut results = Vec::with_capacity(lines.len());
    for (pos, (ln, l)) in lines.iter().enumerate() {
        match result_from_jsonl_line(cells, l) {
            Ok(r) => results.push(r),
            Err(e) if pos + 1 == lines.len() => {
                let warning = format!("line {}: {e}; treating that cell as not done", ln + 1);
                return Ok((results, Some(warning)));
            }
            Err(e) => return Err(format!("line {}: {e}", ln + 1)),
        }
    }
    Ok((results, None))
}

/// Merge shard results into the complete, ordered grid. Duplicates must
/// agree on every measurement (two shards — or a shard and a resume — may
/// legitimately both contain a cell); gaps and disagreements are errors.
pub fn merge_results(
    cells: &[SweepCell],
    shards: Vec<Vec<CellResult>>,
) -> Result<Vec<CellResult>, String> {
    let mut by_index: BTreeMap<usize, CellResult> = BTreeMap::new();
    for r in shards.into_iter().flatten() {
        match by_index.get(&r.cell.index) {
            None => {
                by_index.insert(r.cell.index, r);
            }
            Some(existing) => {
                if !existing.same_measurements(&r) {
                    return Err(format!(
                        "cell {} ({}) appears twice with different measurements",
                        r.cell.index, r.cell.kernel
                    ));
                }
            }
        }
    }
    let missing: Vec<usize> = cells
        .iter()
        .map(|c| c.index)
        .filter(|i| !by_index.contains_key(i))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "merge is missing {} of {} cells (first missing index {})",
            missing.len(),
            cells.len(),
            missing[0]
        ));
    }
    Ok(by_index.into_values().collect())
}

/// Render the canonical sweep tables: one block per (hierarchy, family)
/// pair in grid order, fig09-style columns. This is the single rendering
/// path for both `sweep run` and `sweep merge` — byte-identical output is
/// the CI-enforced contract.
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
    fn shard_spec_parsing() {
        assert_eq!(parse_shard_spec("0/2"), Ok((0, 2)));
        assert_eq!(parse_shard_spec("3/4"), Ok((3, 4)));
        assert!(parse_shard_spec("2/2").is_err());
        assert!(parse_shard_spec("0/0").is_err());
        assert!(parse_shard_spec("x").is_err());
        assert!(parse_shard_spec("a/b").is_err());
    }

    #[test]
    fn shards_partition_the_grid() {
        let cells = grid_cells(GridKind::Paper);
        let mut seen = vec![false; cells.len()];
        for i in 0..3 {
            for c in shard_cells(&cells, i, 3) {
                assert!(!seen[c.index], "cell {} in two shards", c.index);
                seen[c.index] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
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
    fn jsonl_round_trips_bitwise() {
        let cells = tiny_grid();
        let r = run_cell(&cells[0], None);
        let line = result_to_jsonl_line(&r);
        let back = result_from_jsonl_line(&cells, &line).unwrap();
        assert!(r.same_measurements(&back));
    }

    #[test]
    fn jsonl_rejects_mismatched_echo() {
        let cells = tiny_grid();
        let r = run_cell(&cells[0], None);
        let line = result_to_jsonl_line(&r);
        // Claim the result belongs to index 1 (a different kernel): the
        // kernel echo must catch the lie.
        let forged = line.replacen("\"index\":0", "\"index\":1", 1);
        assert_ne!(line, forged);
        assert!(result_from_jsonl_line(&cells, &forged).is_err());
    }

    #[test]
    fn merge_detects_gaps_and_disagreements() {
        let cells = tiny_grid();
        let results: Vec<CellResult> = cells.iter().map(|c| run_cell(c, None)).collect();
        // Complete merge succeeds and is ordered.
        let merged = merge_results(&cells, vec![results.clone()]).unwrap();
        assert_eq!(merged.len(), cells.len());
        assert!(merged.windows(2).all(|w| w[0].cell.index < w[1].cell.index));
        // A gap is an error.
        let partial = vec![results[..2].to_vec()];
        assert!(merge_results(&cells, partial)
            .unwrap_err()
            .contains("missing"));
        // A disagreement is an error.
        let mut tampered = results.clone();
        tampered[0].pad_l1 += 8;
        assert!(merge_results(&cells, vec![results, tampered])
            .unwrap_err()
            .contains("different measurements"));
    }

    #[test]
    fn sharded_run_merges_to_single_shot_bytes() {
        let cells = tiny_grid();
        let single: Vec<CellResult> = cells.iter().map(|c| run_cell(c, None)).collect();
        let shard0: Vec<CellResult> = shard_cells(&cells, 0, 2)
            .iter()
            .map(|c| run_cell(c, None))
            .collect();
        let shard1: Vec<CellResult> = shard_cells(&cells, 1, 2)
            .iter()
            .map(|c| run_cell(c, None))
            .collect();
        // Round-trip the shards through their JSONL representation, as the
        // real merge subcommand does.
        let parse = |rs: &[CellResult]| {
            let text: String = rs.iter().map(|r| result_to_jsonl_line(r) + "\n").collect();
            parse_shard_file(&cells, &text).unwrap()
        };
        let merged = merge_results(&cells, vec![parse(&shard0), parse(&shard1)]).unwrap();
        assert_eq!(render_tables(&merged, false), render_tables(&single, false));
        assert_eq!(render_tables(&merged, true), render_tables(&single, true));
    }

    #[test]
    fn cell_cache_round_trips_and_hits() {
        let dir = std::env::temp_dir().join(format!("mlc-sweep-cell-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let cells = tiny_grid();
        let cold = run_cell(&cells[0], Some(&cache));
        let warm = run_cell(&cells[0], Some(&cache));
        assert!(cold.same_measurements(&warm));
        let s = cache.stats();
        assert_eq!(s.stores, 1);
        assert_eq!(s.hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_parse_tolerates_truncated_final_line_only() {
        let cells = tiny_grid();
        let results: Vec<CellResult> = cells.iter().map(|c| run_cell(c, None)).collect();
        let lines: Vec<String> = results.iter().map(result_to_jsonl_line).collect();

        // A killed shard: the last append stopped mid-line.
        let full_last = &lines[2];
        let truncated = format!(
            "{}\n{}\n{}",
            lines[0],
            lines[1],
            &full_last[..full_last.len() / 2]
        );
        let (parsed, warning) = parse_shard_file_resume(&cells, &truncated).unwrap();
        assert_eq!(parsed.len(), 2, "intact lines are kept");
        assert!(parsed[0].same_measurements(&results[0]));
        assert!(parsed[1].same_measurements(&results[1]));
        let warning = warning.expect("the damaged tail must be reported");
        assert!(
            warning.contains("line 3"),
            "warning names the line: {warning}"
        );
        // The strict parser still refuses the same file.
        assert!(parse_shard_file(&cells, &truncated).is_err());

        // Damage before the final line is not crash debris: hard error.
        let mid_damage = format!(
            "{}\n{}\n{}\n",
            lines[0],
            &lines[1][..lines[1].len() / 2],
            lines[2]
        );
        let err = parse_shard_file_resume(&cells, &mid_damage).unwrap_err();
        assert!(err.contains("line 2"), "error names the line: {err}");

        // A clean file parses with no warning.
        let clean: String = lines.iter().map(|l| l.clone() + "\n").collect();
        let (parsed, warning) = parse_shard_file_resume(&cells, &clean).unwrap();
        assert_eq!(parsed.len(), 3);
        assert!(warning.is_none());
    }

    #[test]
    fn run_cells_reports_all_fresh_cells() {
        let cells = tiny_grid();
        let (results, report) = run_cells(&cells, 2, None, &BTreeMap::new());
        assert_eq!(results.len(), cells.len());
        assert_eq!(report.items, cells.len());
        assert_eq!(report.total_done() as usize, cells.len());
        assert!(report.threads >= 1);
    }

    #[test]
    fn resume_skips_done_cells() {
        let cells = tiny_grid();
        let mut done = BTreeMap::new();
        let mut first = run_cell(&cells[0], None);
        // Poison the reused result so we can prove it was not recomputed.
        first.pad_l1 = 123_456;
        done.insert(0, first);
        let (results, _) = run_cells(&cells, 2, None, &done);
        assert_eq!(results.len(), cells.len());
        assert_eq!(
            results[0].pad_l1, 123_456,
            "done cell must be reused verbatim"
        );
        assert!(results
            .windows(2)
            .all(|w| w[0].cell.index < w[1].cell.index));
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
