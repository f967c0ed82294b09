//! The four workloads: which items a pass runs, how the seed orders them,
//! how each item drives the library, and the committed reference each
//! item's output must match.
//!
//! Every item makes the same public calls the figure and sweep binaries
//! make, wrapped in [`trace`] spans named `layer.operation`.

use crate::trace::span;
use mlc_cache_sim::rng::DetRng;
use mlc_cache_sim::stats::MissRateReport;
use mlc_cache_sim::HierarchyConfig;
use mlc_core::fusion::reuse_layout;
use mlc_core::group::{account, ProgramAccounting};
use mlc_core::report::{OptimizeReport, PassSummary};
use mlc_core::rescache::report_to_json;
use mlc_core::{multilvl_pad, search_morton};
use mlc_experiments::layout_sweep::{
    layout_cell_result_to_json, layout_grid_cells, layout_hierarchy_by_name, layout_kernel_by_name,
    Competitor, CompetitorRun, LayoutCell, LayoutCellResult, LayoutGridKind,
};
use mlc_experiments::sim::{simulate_one, SimResult};
use mlc_experiments::sweep::{cell_result_to_json, CellResult, Family, SweepCell};
use mlc_experiments::versions::{build_versions, OptLevel};
use mlc_kernels::expl::Expl;
use mlc_kernels::shal::Shallow;
use mlc_kernels::Kernel;
use mlc_model::trace_gen::try_simulate_steady_with;
use mlc_model::transform::{cache_oblivious_in_program, fuse_unchecked_in_program};
use mlc_model::{DataLayout, Program};
use mlc_telemetry::json::JsonValue;
use std::collections::HashMap;
use std::path::PathBuf;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper grid regenerated into an empty result cache.
    GridCold,
    /// The Figure 11/12 problem-size sweeps into an empty result cache.
    SizesCold,
    /// The same sweeps served from a result cache filled during set-up.
    SizesWarm,
    /// The layout-competitor grid (pad, Morton search, cache-oblivious).
    LayoutGrid,
}

/// How a workload's passes use the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheUse {
    /// A fresh, empty cache directory per pass: the cache only takes writes.
    Cold,
    /// A cache directory filled during set-up, reopened each pass.
    Warm,
    /// The workload's calls never consult the result cache.
    Unused,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::GridCold,
        Workload::SizesCold,
        Workload::SizesWarm,
        Workload::LayoutGrid,
    ];

    /// Stable name (`--workload` and `BENCHMARK.json`).
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid_cold",
            Workload::SizesCold => "sizes_cold",
            Workload::SizesWarm => "sizes_warm",
            Workload::LayoutGrid => "layout_grid",
        }
    }

    /// Parse [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// How passes use the result cache.
    pub fn cache(self) -> CacheUse {
        match self {
            Workload::GridCold | Workload::SizesCold => CacheUse::Cold,
            Workload::SizesWarm => CacheUse::Warm,
            Workload::LayoutGrid => CacheUse::Unused,
        }
    }

    /// Worker threads a pass runs on. The layout grid runs its cells one
    /// after another, as `layout_search` does; its Morton search fans its
    /// own candidate scans out over the thread budget.
    pub fn pass_threads(self, threads: usize) -> usize {
        match self {
            Workload::LayoutGrid => 1,
            _ => threads,
        }
    }

    /// The items of one pass, in canonical order.
    pub fn items(self, smoke: bool) -> Vec<Item> {
        match self {
            Workload::GridCold => grid_items(smoke),
            Workload::SizesCold | Workload::SizesWarm => size_items(smoke),
            Workload::LayoutGrid => layout_grid_cells(if smoke {
                LayoutGridKind::Smoke
            } else {
                LayoutGridKind::Full
            })
            .into_iter()
            .map(Item::Layout)
            .collect(),
        }
    }
}

/// The kernels of the Figure 11 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeKernel {
    /// EXPL (Livermore loop 18).
    Expl,
    /// SHAL (shallow water).
    Shal,
}

impl SizeKernel {
    /// Name as the Figure 11 table prints it.
    pub fn tag(self) -> &'static str {
        match self {
            SizeKernel::Expl => "EXPL",
            SizeKernel::Shal => "SHAL",
        }
    }

    fn model(self, n: usize) -> Program {
        match self {
            SizeKernel::Expl => Expl::new(n).model(),
            SizeKernel::Shal => Shallow::shal(n).model(),
        }
    }
}

/// One unit of work: a grid cell or one problem size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A paper-grid cell on the UltraSparc-I: model, three versions, three
    /// simulations.
    Cell {
        /// Registry kernel name.
        kernel: String,
        /// Padding family.
        family: Family,
    },
    /// One Figure 11 size: model, versions at GroupReuse, two simulations.
    Fig11 {
        /// Which kernel.
        kernel: SizeKernel,
        /// Problem size.
        n: usize,
    },
    /// One Figure 12 size: EXPL fused at nests 0/1, reuse layouts and
    /// static accounting before and after, two simulations.
    Fig12 {
        /// Problem size.
        n: usize,
    },
    /// One layout-grid cell: all four layout competitors.
    Layout(LayoutCell),
}

impl Item {
    /// The key of this item's reference.
    pub fn key(&self) -> String {
        match self {
            Item::Cell { kernel, family } => format!("grid/{}/{kernel}", family.tag()),
            Item::Fig11 { kernel, n } => format!("fig11/{}/{n}", kernel.tag()),
            Item::Fig12 { n } => format!("fig12/{n}"),
            Item::Layout(c) => format!("layout/{}/{}", c.hierarchy, c.kernel),
        }
    }
}

/// Figure 11's problem sizes.
pub const FIG11_SIZES: std::ops::RangeInclusive<usize> = 250..=520;
/// Figure 12's problem sizes (the figure and the references use even N).
pub const FIG12_SIZES: std::ops::RangeInclusive<usize> = 250..=700;
/// Figure 12 fuses nests `FIG12_FUSE_AT` and `FIG12_FUSE_AT + 1` of EXPL,
/// as the `fig12` binary does by default.
pub const FIG12_FUSE_AT: usize = 0;
/// A pass runs every `FIG11_STEP`-th Figure 11 size and every
/// `FIG12_STEP`-th Figure 12 size from 250. The cost of one size swings
/// 50-fold with N (N ≡ 0 mod 4 costs about twice N ≡ 2 mod 4 on Figure
/// 12), so the sizes are fixed rather than drawn from the seed, and the
/// steps are ones whose sizes cover every residue: when they were chosen,
/// their mean cost per size was within 4% of the full sweeps'.
pub const FIG11_STEP: usize = 20;
/// See [`FIG11_STEP`].
pub const FIG12_STEP: usize = 30;

fn grid_items(smoke: bool) -> Vec<Item> {
    // Smoke: four cheap conflict-family cells (the sweep's smoke grid).
    const SMOKE: [&str; 4] = ["adi32", "dot512", "buk", "embar"];
    let families: &[Family] = if smoke {
        &[Family::Conflict]
    } else {
        &[Family::Conflict, Family::GroupReuse]
    };
    let kernels: Vec<String> = mlc_kernels::all_kernels()
        .iter()
        .map(|k| k.name())
        .filter(|k| !smoke || SMOKE.contains(&k.as_str()))
        .collect();
    families
        .iter()
        .flat_map(|&family| {
            kernels.iter().map(move |k| Item::Cell {
                kernel: k.clone(),
                family,
            })
        })
        .collect()
}

fn size_items(smoke: bool) -> Vec<Item> {
    // Smoke: the smallest size of each kind.
    let take = if smoke { 1 } else { usize::MAX };
    let mut items: Vec<Item> = FIG11_SIZES
        .step_by(FIG11_STEP)
        .take(take)
        .flat_map(|n| [SizeKernel::Expl, SizeKernel::Shal].map(|kernel| Item::Fig11 { kernel, n }))
        .collect();
    items.extend(
        FIG12_SIZES
            .step_by(FIG12_STEP)
            .take(take)
            .map(|n| Item::Fig12 { n }),
    );
    items
}

/// `items` in the order pass `pass` runs them: a Fisher–Yates shuffle
/// drawn from the seed and the pass number.
pub fn shuffled(items: &[Item], seed: u64, pass: u64) -> Vec<Item> {
    let mut r = DetRng::new(seed ^ (pass + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, r.range_usize(0, i + 1));
    }
    out
}

/// Counters an item reports from the results it got back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItemCounts {
    /// Simulated references delivered (timed sweep of every simulation
    /// returned, cache-served ones included).
    pub refs: u64,
    /// Padding positions the PAD-family passes tried.
    pub positions_tried: u64,
    /// Of those, positions actually scored.
    pub positions_scored: u64,
    /// Inter-variable padding bytes the PAD-family passes chose.
    pub pad_bytes: u64,
}

impl ItemCounts {
    /// Add `other` into `self`.
    pub fn add(&mut self, other: &ItemCounts) {
        self.refs += other.refs;
        self.positions_tried += other.positions_tried;
        self.positions_scored += other.positions_scored;
        self.pad_bytes += other.pad_bytes;
    }

    fn from_reports(reports: &[&OptimizeReport], sims: &[&MissRateReport]) -> ItemCounts {
        let mut c = ItemCounts {
            refs: sims.iter().map(|r| r.total_references).sum(),
            ..ItemCounts::default()
        };
        for pass in reports.iter().flat_map(|r| &r.passes) {
            if let PassSummary::Pad {
                pads,
                positions_tried,
                positions_scored,
                ..
            } = pass
            {
                c.positions_tried += positions_tried;
                c.positions_scored += positions_scored;
                c.pad_bytes += pads.iter().map(|(_, b)| b).sum::<u64>();
            }
        }
        c
    }
}

/// What one item produced.
#[derive(Debug, Clone)]
pub struct Output {
    /// The output compared against the reference.
    pub payload: JsonValue,
    /// Counters for the per-layer metrics.
    pub counts: ItemCounts,
}

/// A steady-state simulation: [`simulate_one`] in the workloads, scalar
/// replay when generating the size references.
pub type Simulate<'a> = &'a dyn Fn(&Program, &DataLayout, &HierarchyConfig) -> MissRateReport;

fn traced_simulate_one(p: &Program, l: &DataLayout, h: &HierarchyConfig) -> MissRateReport {
    span("sim.simulate_one", || simulate_one(p, l, h))
}

/// Run one item through the library.
pub fn run_item(item: &Item) -> Output {
    match item {
        Item::Cell { kernel, family } => run_cell(kernel, *family),
        Item::Fig11 { kernel, n } => fig11(*kernel, *n, &traced_simulate_one),
        Item::Fig12 { n } => fig12(*n, &traced_simulate_one),
        Item::Layout(cell) => run_layout_cell(cell),
    }
}

fn run_cell(kernel: &str, family: Family) -> Output {
    let h = HierarchyConfig::ultrasparc_i();
    let k =
        mlc_kernels::kernel_by_name(kernel).unwrap_or_else(|| panic!("unknown kernel {kernel:?}"));
    let model = span("kernels.model", || k.model());
    let v = span("optimize.build_versions", || {
        build_versions(&model, &h, family.opt_level())
    });
    let sim = SimResult {
        orig: traced_simulate_one(&v.orig_program, &v.orig_layout, &h),
        l1: traced_simulate_one(&v.l1.program, &v.l1.layout, &h),
        l1l2: traced_simulate_one(&v.l1l2.program, &v.l1l2.layout, &h),
    };
    let counts = ItemCounts::from_reports(
        &[&v.l1.report, &v.l1l2.report],
        &[&sim.orig, &sim.l1, &sim.l1l2],
    );
    let result = CellResult {
        cell: SweepCell {
            index: 0,
            kernel: kernel.to_string(),
            family,
            hierarchy: "ultrasparc_i".to_string(),
        },
        pad_l1: v.l1.report.padding_bytes,
        pad_l1l2: v.l1l2.report.padding_bytes,
        sim,
    };
    Output {
        payload: cell_result_to_json(&result),
        counts,
    }
}

/// One Figure 11 size, simulated with `simulate`.
pub fn fig11(kernel: SizeKernel, n: usize, simulate: Simulate) -> Output {
    let h = HierarchyConfig::ultrasparc_i();
    let model = span("kernels.model", || kernel.model(n));
    let v = span("optimize.build_versions", || {
        build_versions(&model, &h, OptLevel::GroupReuse)
    });
    let l1 = simulate(&v.l1.program, &v.l1.layout, &h);
    let l1l2 = simulate(&v.l1l2.program, &v.l1l2.layout, &h);
    Output {
        counts: ItemCounts::from_reports(&[&v.l1.report, &v.l1l2.report], &[&l1, &l1l2]),
        payload: JsonValue::object(vec![
            ("kernel", JsonValue::from(kernel.tag())),
            ("n", JsonValue::from(n as u64)),
            ("l1", report_to_json(&l1)),
            ("l1l2", report_to_json(&l1l2)),
        ]),
    }
}

/// One Figure 12 size, simulated with `simulate`. The payload keeps the
/// raw reports; `fig12` normalizes the fused one when it prints rates.
pub fn fig12(n: usize, simulate: Simulate) -> Output {
    let h = HierarchyConfig::ultrasparc_i();
    let (l1, l2) = (h.levels[0], h.levels[1]);
    let model = span("kernels.model", || Expl::new(n).model());
    let fused = span("fusion.fuse", || {
        fuse_unchecked_in_program(&model, FIG12_FUSE_AT)
    })
    .unwrap_or_else(|e| {
        panic!(
            "EXPL nests {FIG12_FUSE_AT},{} do not fuse: {e}",
            FIG12_FUSE_AT + 1
        )
    });
    let lay_before = span("fusion.reuse_layout", || reuse_layout(&model, l1, l2));
    let lay_after = span("fusion.reuse_layout", || reuse_layout(&fused, l1, l2));
    let acc_before = span("fusion.account", || {
        account(&model, &lay_before, l1, Some(l2))
    });
    let acc_after = span("fusion.account", || {
        account(&fused, &lay_after, l1, Some(l2))
    });
    let before = simulate(&model, &lay_before, &h);
    let after = simulate(&fused, &lay_after, &h);
    let acc = |a: &ProgramAccounting| {
        JsonValue::object(vec![
            ("l2_refs", JsonValue::from(a.l2_refs as u64)),
            ("memory_refs", JsonValue::from(a.memory_refs as u64)),
        ])
    };
    Output {
        counts: ItemCounts::from_reports(&[], &[&before, &after]),
        payload: JsonValue::object(vec![
            ("n", JsonValue::from(n as u64)),
            ("account_before", acc(&acc_before)),
            ("account_after", acc(&acc_after)),
            ("before", report_to_json(&before)),
            ("after", report_to_json(&after)),
        ]),
    }
}

/// The four layout competitors of one cell, from the same public calls
/// as `mlc_experiments::layout_sweep::run_layout_cell`.
fn run_layout_cell(cell: &LayoutCell) -> Output {
    use mlc_experiments::layout_sweep::{TIMED, WARMUP};
    let program = span("kernels.model", || layout_kernel_by_name(&cell.kernel))
        .unwrap_or_else(|| panic!("unknown layout kernel {:?}", cell.kernel));
    let h = layout_hierarchy_by_name(&cell.hierarchy)
        .unwrap_or_else(|| panic!("unknown layout hierarchy {:?}", cell.hierarchy));
    let steady = |p: &Program, l: &DataLayout| {
        span("layout.steady", || {
            try_simulate_steady_with(p, l, &h, WARMUP, TIMED, true)
        })
        .unwrap_or_else(|e| panic!("layout cell failed to simulate: {e}"))
    };
    let linear = DataLayout::contiguous(&program.arrays);
    let orig = steady(&program, &linear);
    let padded = span("layout.pad", || multilvl_pad(&program, &h));
    let pad = steady(&program, &padded.layout);
    let zero_pads = vec![0u64; program.arrays.len()];
    let morton = span("layout.search", || search_morton(&program, &zero_pads, &h))
        .unwrap_or_else(|e| panic!("morton search failed on {:?}: {e}", cell.kernel))
        .report;
    // Recursive tiling of every nest, leaf one L1 line of elements,
    // transformed back to front so earlier splice points stay valid.
    let elem = program
        .arrays
        .iter()
        .map(|a| a.elem_size)
        .max()
        .unwrap_or(8);
    let leaf = (h.levels[0].line as u64 / elem as u64).max(2);
    let cot_program = span("layout.cot", || {
        (0..program.nests.len())
            .rev()
            .fold(program.clone(), |p, at| {
                cache_oblivious_in_program(&p, at, leaf).unwrap_or(p)
            })
    });
    let cot = steady(&cot_program, &linear);
    let runs: Vec<CompetitorRun> = [
        (Competitor::Orig, orig),
        (Competitor::Pad, pad),
        (Competitor::Morton, morton),
        (Competitor::Cot, cot),
    ]
    .into_iter()
    .map(|(competitor, report)| CompetitorRun {
        competitor,
        cost: report.weighted_cost(&h.miss_penalty),
        report,
        note: String::new(),
    })
    .collect();
    let reports: Vec<&MissRateReport> = runs.iter().map(|r| &r.report).collect();
    Output {
        counts: ItemCounts::from_reports(&[], &reports),
        payload: layout_cell_result_to_json(&LayoutCellResult {
            cell: cell.clone(),
            runs,
        }),
    }
}

/// Directory of this package's sources, where the committed size
/// references live and run-time results go.
pub const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// The committed size references.
pub fn expected_sizes_path() -> PathBuf {
    PathBuf::from(PACKAGE_DIR).join("expected/sizes.json")
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(PACKAGE_DIR)
        .join("../tests/golden")
        .join(file)
}

/// Expected output of every item, keyed by [`Item::key`], as compact JSON.
#[derive(Debug, Clone, Default)]
pub struct References {
    by_key: HashMap<String, String>,
}

impl References {
    /// Read and index the references `workload` checks against.
    pub fn load(workload: Workload) -> Result<References, String> {
        let mut refs = References::default();
        match workload {
            Workload::GridCold => {
                for file in ["conflict_ultrasparc_i.json", "group_ultrasparc_i.json"] {
                    refs.add(&read_doc(&golden_path(file))?, "cells", |c| {
                        Ok(format!(
                            "grid/{}/{}",
                            field(c, "family")?,
                            field(c, "kernel")?
                        ))
                    })?;
                }
            }
            Workload::SizesCold | Workload::SizesWarm => {
                let doc = read_doc(&expected_sizes_path())?;
                refs.add(&doc, "fig11", |r| {
                    Ok(format!("fig11/{}/{}", field(r, "kernel")?, count(r, "n")?))
                })?;
                refs.add(&doc, "fig12", |r| Ok(format!("fig12/{}", count(r, "n")?)))?;
            }
            Workload::LayoutGrid => {
                for file in ["layout_tiny_l1l2.json", "layout_ultrasparc_i.json"] {
                    refs.add(&read_doc(&golden_path(file))?, "cells", |c| {
                        Ok(format!(
                            "layout/{}/{}",
                            field(c, "hierarchy")?,
                            field(c, "kernel")?
                        ))
                    })?;
                }
            }
        }
        Ok(refs)
    }

    /// Index every entry of `doc`'s array `list` under the key `key` makes
    /// from it.
    fn add(
        &mut self,
        doc: &JsonValue,
        list: &str,
        key: impl Fn(&JsonValue) -> Result<String, String>,
    ) -> Result<(), String> {
        let rows = doc
            .get(list)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("reference file has no {list:?} array"))?;
        for row in rows {
            self.by_key.insert(key(row)?, row.to_string_compact());
        }
        Ok(())
    }

    /// Whether `payload` is exactly the reference of `item`.
    pub fn check(&self, item: &Item, payload: &JsonValue) -> Result<(), String> {
        let key = item.key();
        let want = self
            .by_key
            .get(&key)
            .ok_or_else(|| format!("{key}: no reference"))?;
        let got = payload.to_string_compact();
        if *want == got {
            Ok(())
        } else {
            Err(format!(
                "{key}: output differs from the reference\n  want: {want}\n  got:  {got}"
            ))
        }
    }

    /// Flip one count in the reference of `item` (the checker self-test).
    pub fn corrupt(&mut self, item: &Item) -> Result<(), String> {
        let key = item.key();
        let want = self
            .by_key
            .get_mut(&key)
            .ok_or_else(|| format!("{key}: no reference"))?;
        *want =
            bump_first_count(want, "\"misses\":").ok_or_else(|| format!("{key}: no miss count"))?;
        Ok(())
    }
}

fn read_doc(path: &std::path::Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

fn field<'a>(v: &'a JsonValue, k: &str) -> Result<&'a str, String> {
    v.get(k)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("reference entry without a {k:?} string"))
}

fn count(v: &JsonValue, k: &str) -> Result<u64, String> {
    v.get(k)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("reference entry without a {k:?} count"))
}

/// `text` with the integer after the first `needle` incremented by one.
pub fn bump_first_count(text: &str, needle: &str) -> Option<String> {
    let at = text.find(needle)? + needle.len();
    let digits = text[at..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(text.len(), |e| at + e);
    let n: u64 = text[at..digits].parse().ok()?;
    Some(format!("{}{}{}", &text[..at], n + 1, &text[digits..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_and_pass_fix_the_item_order() {
        for w in Workload::ALL {
            let items = w.items(false);
            assert_eq!(shuffled(&items, 7, 3), shuffled(&items, 7, 3));
            // A shuffle is a permutation.
            let mut a: Vec<String> = shuffled(&items, 7, 3).iter().map(Item::key).collect();
            let mut b: Vec<String> = items.iter().map(Item::key).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
        let items = Workload::GridCold.items(false);
        assert_eq!(items.len(), 48);
        assert_ne!(
            shuffled(&items, 0, 0),
            shuffled(&items, 1, 0),
            "seeds reorder"
        );
        assert_ne!(
            shuffled(&items, 0, 0),
            shuffled(&items, 0, 1),
            "passes reorder"
        );
    }

    #[test]
    fn size_items_are_figure_sizes_with_references() {
        let items = Workload::SizesCold.items(false);
        assert_eq!(items, Workload::SizesWarm.items(false));
        assert_eq!(items.len(), 2 * 14 + 16);
        for item in &items {
            match *item {
                Item::Fig11 { n, .. } => assert!(FIG11_SIZES.contains(&n)),
                // The references pin the even sizes Figure 12 prints.
                Item::Fig12 { n } => assert!(FIG12_SIZES.contains(&n) && n % 2 == 0, "fig12 N={n}"),
                _ => panic!("not a size item: {item:?}"),
            }
        }
        assert_eq!(Workload::SizesCold.items(true).len(), 3);
    }

    #[test]
    fn corrupting_a_reference_bumps_exactly_one_count() {
        let text = r#"{"levels":[{"accesses":10,"misses":7},{"accesses":7,"misses":3}]}"#;
        let bumped = bump_first_count(text, "\"misses\":").expect("has a miss count");
        assert_eq!(
            bumped,
            r#"{"levels":[{"accesses":10,"misses":8},{"accesses":7,"misses":3}]}"#
        );
        assert_eq!(bump_first_count(text, "\"hits\":"), None);
    }

    #[test]
    fn checker_flags_a_corrupted_reference() {
        let item = Item::Fig11 {
            kernel: SizeKernel::Expl,
            n: 250,
        };
        let payload = JsonValue::object(vec![("misses", JsonValue::from(5u64))]);
        let mut refs = References::default();
        refs.by_key.insert(item.key(), payload.to_string_compact());
        assert!(refs.check(&item, &payload).is_ok());
        refs.corrupt(&item).expect("corruptible");
        assert!(refs.check(&item, &payload).is_err());
        let other = Item::Fig12 { n: 250 };
        assert!(refs
            .check(&other, &payload)
            .unwrap_err()
            .contains("no reference"));
    }
}
