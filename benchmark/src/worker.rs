//! One workload in one process: set-up, the timed passes, the output
//! checks, and the metrics.
//!
//! A pass hands a fixed batch of items to the work-stealing executor
//! (a closed loop: each worker takes its next item only when the last one
//! finished) and waits for all of them. Passes repeat until the run has
//! measured `--seconds`.
//!
//! On a shared host, other tenants slow this one down in bursts lasting a
//! few seconds: identical passes swing by up to 2×. So the time metrics
//! come from the run's quiet passes, the fastest quarter widened until it
//! holds [`MIN_ITEMS`] items; medians over those repeat from run to run
//! where medians over every pass do not. Traced runs alternate untraced
//! and traced passes, which gives the tracing overhead from one process.

use crate::procfs;
use crate::stats::{median, percentile, samples_beyond, MIN_TAIL_SAMPLES};
use crate::trace;
use crate::workloads::{
    run_item, shuffled, CacheUse, Item, ItemCounts, Output, References, Workload, PACKAGE_DIR,
};
use mlc_core::analytic::AnalyticStats;
use mlc_core::exec::{execute, ExecReport};
use mlc_core::layout_search::stats::LayoutSearchStats;
use mlc_core::rescache::{CacheStats, ResultCache};
use mlc_experiments::sim::install_result_cache;
use mlc_model::layout::stats::LayoutStats;
use mlc_telemetry::json::JsonValue;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 3;
/// Runs measure at least this many passes (in traced runs, half of them
/// traced)...
const MIN_PASSES: usize = 4;
/// ...and untraced runs at least this many items. The quiet passes hold at
/// least this many too, so `item_p90_ms` has ten samples beyond it.
const MIN_ITEMS: usize = 100;

/// What one worker run is asked to do.
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the timed passes run, at least.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_dir: PathBuf,
    /// One pass over a few items, one set-up.
    pub smoke: bool,
    /// Flip one count in the first item's reference (checker self-test).
    pub corrupt_reference: bool,
}

/// The worker's verdict and metrics.
#[derive(Debug, Clone)]
pub struct WorkerResult {
    /// Items run in the measured passes.
    pub attempted: u64,
    /// Of those, items that panicked or whose output missed its reference.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// The thread budget: at most two workers, never more than the host has.
pub fn thread_budget() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Run directories under `benchmark/results/tmp`, removed on drop (also
/// when the worker unwinds).
struct TempRoot(PathBuf);

impl TempRoot {
    fn create() -> Result<TempRoot, String> {
        let dir = Path::new(PACKAGE_DIR).join("results/tmp").join(format!(
            "{}-{}",
            std::process::id(),
            nonce()
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempRoot(dir))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn nonce() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

struct Prepared {
    refs: References,
    items: Vec<Item>,
    warm_dir: Option<PathBuf>,
}

/// Everything before the first timed item: read the references, pick the
/// items, and on `sizes_warm` fill the result cache the passes will read.
fn setup(args: &WorkerArgs, tmp: &Path, threads: usize) -> Result<Prepared, String> {
    let mut refs = References::load(args.workload)?;
    let items = args.workload.items(args.smoke);
    if args.corrupt_reference {
        refs.corrupt(&items[0])?;
    }
    let warm_dir = match args.workload.cache() {
        CacheUse::Warm => {
            let dir = tmp.join("warm");
            if dir.exists() {
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
            }
            let cache = ResultCache::open(&dir)
                .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
            install_result_cache(Some(Arc::new(cache)));
            // The timed passes check what this fill stored.
            let (filled, _) = execute(items.clone(), threads, |item| {
                catch_unwind(AssertUnwindSafe(|| run_item(item))).is_ok()
            });
            install_result_cache(None);
            if filled.contains(&false) {
                return Err("an item panicked while filling the result cache".into());
            }
            Some(dir)
        }
        CacheUse::Cold | CacheUse::Unused => None,
    };
    Ok(Prepared {
        refs,
        items,
        warm_dir,
    })
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct PassRecord {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Wall seconds of the pass.
    pub wall_s: f64,
    /// CPU seconds of the process during the pass.
    pub cpu_s: f64,
    /// Wall seconds of each item.
    pub item_s: Vec<f64>,
    /// One message per failed item.
    pub failures: Vec<String>,
    /// Counters summed over the pass's outputs.
    pub counts: ItemCounts,
    /// The executor's report.
    pub exec: ExecReport,
    /// Result-cache traffic.
    pub cache: CacheStats,
    /// Analytic-engine coverage.
    pub analytic: AnalyticStats,
    /// Morton word-search counters.
    pub search: LayoutSearchStats,
    /// Morton trace-emission counters.
    pub layout: LayoutStats,
}

fn drain_counters() -> (AnalyticStats, LayoutSearchStats, LayoutStats) {
    (
        mlc_core::take_analytic_stats(),
        mlc_core::layout_search::stats::take_stats(),
        mlc_model::layout::stats::take_stats(),
    )
}

fn run_pass(
    args: &WorkerArgs,
    prep: &Prepared,
    pass: u64,
    tmp: &Path,
    threads: usize,
    traced: bool,
) -> PassRecord {
    let items = shuffled(&prep.items, args.seed, pass);
    let cache_dir = match args.workload.cache() {
        CacheUse::Cold => Some(tmp.join(format!("pass-{pass}"))),
        CacheUse::Warm => prep.warm_dir.clone(),
        CacheUse::Unused => None,
    };
    let first_id = pass * items.len() as u64 + 1;
    let indexed: Vec<(u64, Item)> = (first_id..).zip(items).collect();
    drain_counters();
    trace::set_enabled(traced);
    let cpu0 = procfs::cpu_seconds();
    let t0 = Instant::now();
    let cache = cache_dir.as_ref().map(|d| {
        Arc::new(
            ResultCache::open(d)
                .unwrap_or_else(|e| panic!("cannot open result cache {}: {e}", d.display())),
        )
    });
    install_result_cache(cache.clone());
    let (outs, exec) = trace::span_with_id("exec.pass", |pass_span| {
        execute(
            indexed.clone(),
            args.workload.pass_threads(threads),
            |(id, item)| {
                let t = Instant::now();
                let out = trace::child_of("exec.item", pass_span, *id, || {
                    catch_unwind(AssertUnwindSafe(|| run_item(item)))
                });
                let dur = t.elapsed();
                trace::flush();
                (out, dur)
            },
        )
    });
    install_result_cache(None);
    let wall = t0.elapsed();
    let cpu = procfs::cpu_seconds() - cpu0;
    trace::set_enabled(false);
    let (analytic, search, layout) = drain_counters();

    let mut rec = PassRecord {
        traced,
        wall_s: wall.as_secs_f64(),
        cpu_s: cpu,
        exec,
        cache: cache.map(|c| c.stats()).unwrap_or_default(),
        analytic,
        search,
        layout,
        ..PassRecord::default()
    };
    for ((_, item), (out, dur)) in indexed.iter().zip(outs) {
        rec.item_s.push(dur.as_secs_f64());
        match out {
            Ok(Output { payload, counts }) => {
                rec.counts.add(&counts);
                if let Err(why) = prep.refs.check(item, &payload) {
                    rec.failures.push(why);
                }
            }
            Err(panic) => rec.failures.push(format!(
                "{}: panicked: {}",
                item.key(),
                panic_message(&*panic)
            )),
        }
    }
    if args.workload.cache() == CacheUse::Cold {
        if let Some(d) = cache_dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
    rec
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Run one workload and derive its metrics.
pub fn run_worker(args: &WorkerArgs) -> Result<WorkerResult, String> {
    if !procfs::pin_malloc_arenas() {
        eprintln!(
            "note: could not pin malloc to one arena; peak_rss_mb will vary more between runs"
        );
    }
    let threads = thread_budget();
    // Nested candidate scans (padding and Morton searches) use the same
    // budget as the passes.
    mlc_core::par::set_thread_override(Some(threads));
    let tmp = TempRoot::create()?;

    let mut setup_s = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let prep = setup(args, &tmp.0, threads);
        setup_s.push(t.elapsed().as_secs_f64());
        prep
    };
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let mut prep = timed_setup(&mut setup_s)?;
    for _ in 1..reps {
        prep = timed_setup(&mut setup_s)?;
    }
    // Set-up that fills no cache takes a few milliseconds, short enough
    // for one burst of host noise to double it; repeating it after every
    // pass spreads its samples over the run, as the passes' are.
    let cheap_setup = args.workload.cache() != CacheUse::Warm;

    let timed = Instant::now();
    let mut passes: Vec<PassRecord> = Vec::new();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        passes.push(run_pass(
            args,
            &prep,
            passes.len() as u64,
            &tmp.0,
            threads,
            traced,
        ));
        for f in &passes.last().expect("just pushed").failures {
            eprintln!("FAIL {f}");
        }
        if args.smoke {
            break;
        }
        if cheap_setup {
            timed_setup(&mut setup_s)?;
        }
        let untraced_items: usize = passes
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.item_s.len())
            .sum();
        let enough = passes.len() >= MIN_PASSES && (args.trace || untraced_items >= MIN_ITEMS);
        if enough && timed.elapsed() >= Duration::from_secs_f64(args.seconds) {
            break;
        }
    }

    let attempted: u64 = passes.iter().map(|p| p.item_s.len() as u64).sum();
    let failed: u64 = passes.iter().map(|p| p.failures.len() as u64).sum();
    let metrics = if args.trace {
        let spans = trace::take_all();
        let metrics = per_layer_metrics(&passes, &spans);
        write_trace(args, &spans, &metrics)?;
        metrics
    } else {
        end_to_end_metrics(&passes, &setup_s, procfs::peak_rss_mb())
    };
    Ok(WorkerResult {
        attempted,
        failed,
        metrics,
    })
}

/// The quiet passes: the fastest quarter of `passes` (at least one),
/// widened with the next fastest until they hold [`MIN_ITEMS`] items or
/// run out.
pub fn quiet_passes<'a>(passes: impl IntoIterator<Item = &'a PassRecord>) -> Vec<&'a PassRecord> {
    let mut by_wall: Vec<&PassRecord> = passes.into_iter().collect();
    by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let quarter = by_wall.len().div_ceil(4);
    let mut items = 0;
    let mut quiet = Vec::new();
    for p in by_wall {
        if quiet.len() >= quarter && items >= MIN_ITEMS {
            break;
        }
        items += p.item_s.len();
        quiet.push(p);
    }
    quiet
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end_metrics(
    passes: &[PassRecord],
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> BTreeMap<&'static str, f64> {
    let quiet = quiet_passes(passes);
    let walls: Vec<f64> = quiet.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = quiet
        .iter()
        .map(|p| p.counts.refs as f64 / p.wall_s)
        .collect();
    let items: Vec<f64> = quiet
        .iter()
        .flat_map(|p| p.item_s.iter().copied())
        .collect();
    if samples_beyond(items.len(), 0.9) < MIN_TAIL_SAMPLES {
        eprintln!(
            "note: only {} items measured; item_p90_ms has fewer than {MIN_TAIL_SAMPLES} samples beyond it",
            items.len()
        );
    }
    BTreeMap::from([
        ("wall_s", median(&walls)),
        ("refs_per_s", median(&rates)),
        // A mean: CPU time is read in 10 ms ticks.
        (
            "cpu_s",
            quiet.iter().map(|p| p.cpu_s).sum::<f64>() / quiet.len() as f64,
        ),
        ("item_p50_ms", 1e3 * percentile(&items, 0.5)),
        ("item_p90_ms", 1e3 * percentile(&items, 0.9)),
        ("setup_s", median(setup_s)),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// (calls, self seconds) by span name or by layer.
type SpanTotals = BTreeMap<&'static str, (f64, f64)>;

/// Span totals by name and by layer.
fn span_totals(spans: &[trace::Span]) -> (SpanTotals, SpanTotals) {
    let mut by_name = SpanTotals::new();
    let mut by_layer = SpanTotals::new();
    for (s, self_ns) in spans.iter().zip(trace::self_times(spans)) {
        for e in [
            by_name.entry(s.name).or_default(),
            by_layer.entry(s.layer()).or_default(),
        ] {
            e.0 += 1.0;
            e.1 += self_ns as f64 / 1e9;
        }
    }
    (by_name, by_layer)
}

/// The per-layer metrics of a traced run, per traced pass. Counts repeat
/// exactly between runs with the same seed; times are self times of the
/// spans the benchmark wraps around each library call.
pub fn per_layer_metrics(
    passes: &[PassRecord],
    spans: &[trace::Span],
) -> BTreeMap<&'static str, f64> {
    let traced: Vec<&PassRecord> = passes.iter().filter(|p| p.traced).collect();
    let k = traced.len().max(1) as f64;
    let per_pass = |f: &dyn Fn(&PassRecord) -> f64| traced.iter().map(|p| f(p)).sum::<f64>() / k;
    let (by_name, by_layer) = span_totals(spans);
    let name = |n: &str| by_name.get(n).copied().unwrap_or_default();
    let layer = |l: &str| by_layer.get(l).copied().unwrap_or_default();
    let per = |(calls, busy): (f64, f64)| (calls / k, busy / k);

    let refs = per_pass(&|p| p.counts.refs as f64);
    let tried = per_pass(&|p| p.counts.positions_tried as f64);
    let scored = per_pass(&|p| p.counts.positions_scored as f64);
    let closed = per_pass(&|p| p.analytic.nests_closed as f64);
    let fallback = per_pass(&|p| p.analytic.nests_fallback as f64);
    let accesses_closed = per_pass(&|p| p.analytic.accesses_closed as f64);
    let runs = per_pass(&|p| p.layout.morton_runs as f64);
    let bails = per_pass(&|p| p.layout.morton_scalar_bails as f64);
    let hits = per_pass(&|p| p.cache.hits as f64);
    let misses = per_pass(&|p| p.cache.misses as f64);
    let busy = per_pass(&|p| p.exec.total_busy_ns() as f64 / 1e9);
    let capacity = per_pass(&|p| p.exec.threads as f64 * p.exec.elapsed.as_secs_f64());
    let max_item = |p: &PassRecord| p.item_s.iter().copied().fold(0.0, f64::max);
    let (model_calls, model_busy) = per(name("kernels.model"));
    let (opt_calls, opt_busy) = per(layer("optimize"));
    let (fusion_calls, fusion_busy) = per(layer("fusion"));
    let (sim_calls, sim_busy) = per(layer("sim"));
    let (search_calls, search_busy) = per(name("layout.search"));
    // Each simulation runs one warm-up and one timed sweep; the analytic
    // engine's access counts cover both, `sim.refs` only the timed one.
    let sweeps = (mlc_experiments::sim::WARMUP + mlc_experiments::sim::TIMED) as f64;

    let quiet_wall = |t: bool| {
        let quiet = quiet_passes(passes.iter().filter(|p| p.traced == t));
        median(&quiet.iter().map(|p| p.wall_s).collect::<Vec<_>>())
    };

    let mut m = BTreeMap::from([
        ("kernels.model.calls", model_calls),
        ("kernels.model.busy_s", model_busy),
        ("optimize.calls", opt_calls),
        ("optimize.busy_s", opt_busy),
        ("optimize.positions_tried", tried),
        ("optimize.positions_scored", scored),
        ("optimize.scored_frac", ratio(scored, tried)),
        (
            "optimize.pad_bytes",
            per_pass(&|p| p.counts.pad_bytes as f64),
        ),
        ("fusion.calls", fusion_calls),
        ("fusion.busy_s", fusion_busy),
        ("sim.calls", sim_calls),
        ("sim.busy_s", sim_busy),
        ("sim.refs", refs),
        ("sim.refs_per_busy_s", ratio(refs, sim_busy)),
        ("analytic.nests_closed", closed),
        ("analytic.nests_fallback", fallback),
        (
            "analytic.nest_closed_frac",
            ratio(closed, closed + fallback),
        ),
        ("analytic.accesses_closed", accesses_closed),
        (
            "analytic.access_closed_frac",
            ratio(accesses_closed, refs * sweeps),
        ),
        ("layout.pad.busy_s", per(name("layout.pad")).1),
        ("layout.search.calls", search_calls),
        ("layout.search.busy_s", search_busy),
        (
            "layout.search.words_scored",
            per_pass(&|p| p.search.words_scored as f64),
        ),
        (
            "layout.search.words_pruned",
            per_pass(&|p| p.search.words_pruned as f64),
        ),
        (
            "layout.search.morton_wins",
            per_pass(&|p| p.search.morton_wins as f64),
        ),
        ("layout.cot.busy_s", per(name("layout.cot")).1),
        ("layout.steady.busy_s", per(name("layout.steady")).1),
        ("layout.morton_runs", runs),
        ("layout.morton_scalar_bails", bails),
        ("layout.morton_batched_frac", ratio(runs, runs + bails)),
        ("rescache.hits", hits),
        ("rescache.misses", misses),
        ("rescache.stores", per_pass(&|p| p.cache.stores as f64)),
        (
            "rescache.coalesced",
            per_pass(&|p| p.cache.coalesced as f64),
        ),
        ("rescache.corrupt", per_pass(&|p| p.cache.corrupt as f64)),
        ("rescache.stale", per_pass(&|p| p.cache.stale as f64)),
        ("rescache.hit_rate", ratio(hits, hits + misses)),
        ("exec.items", per_pass(&|p| p.exec.items as f64)),
        ("exec.busy_s", busy),
        (
            "exec.idle_s",
            per_pass(&|p| p.exec.total_idle_ns() as f64 / 1e9),
        ),
        ("exec.steals", per_pass(&|p| p.exec.total_steals() as f64)),
        ("exec.max_item_s", per_pass(&max_item)),
        ("exec.parallel_eff", ratio(busy, capacity)),
        (
            "exec.cp_bound",
            per_pass(&|p| (p.exec.threads as f64).min(ratio(p.item_s.iter().sum(), max_item(p)))),
        ),
        (
            "trace.overhead_frac",
            ratio(quiet_wall(true), quiet_wall(false)) - 1.0,
        ),
    ]);
    for name in FALLBACK_METRICS {
        let reason = name.trim_start_matches("analytic.fallback.");
        let total = per_pass(&|p| {
            p.analytic
                .fallback_reasons
                .iter()
                .filter(|(r, _)| *r == reason)
                .map(|(_, n)| *n as f64)
                .sum()
        });
        m.insert(name, total);
    }
    m
}

/// One metric per `mlc_core::analytic::FallbackReason`.
const FALLBACK_METRICS: [&str; 7] = [
    "analytic.fallback.prefetch",
    "analytic.fallback.wide_stride",
    "analytic.fallback.too_many_columns",
    "analytic.fallback.overflow",
    "analytic.fallback.policy",
    "analytic.fallback.interleave",
    "analytic.fallback.non_affine_layout",
];

/// Write a traced run's spans (`spans.jsonl`) and per-span and per-layer
/// totals (`layers.json`) under `trace_dir/<workload>-seed<seed>/`.
fn write_trace(
    args: &WorkerArgs,
    spans: &[trace::Span],
    metrics: &BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let dir = args
        .trace_dir
        .join(format!("{}-seed{}", args.workload.name(), args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let self_ns = trace::self_times(spans);
    let mut lines = String::new();
    for (s, own) in spans.iter().zip(&self_ns) {
        lines.push_str(
            &JsonValue::object(vec![
                ("id", JsonValue::from(s.id)),
                ("parent", JsonValue::from(s.parent)),
                ("name", JsonValue::from(s.name)),
                ("item", JsonValue::from(s.item)),
                ("thread", JsonValue::from(s.thread)),
                ("start_s", JsonValue::Num(s.start_ns as f64 / 1e9)),
                ("end_s", JsonValue::Num(s.end_ns as f64 / 1e9)),
                ("self_s", JsonValue::Num(*own as f64 / 1e9)),
            ])
            .to_string_compact(),
        );
        lines.push('\n');
    }
    let (by_name, by_layer) = span_totals(spans);
    let totals = |m: SpanTotals| {
        JsonValue::Object(
            m.into_iter()
                .map(|(k, (calls, self_s))| {
                    (
                        k.to_string(),
                        JsonValue::object(vec![
                            ("calls", JsonValue::Num(calls)),
                            ("self_s", JsonValue::Num(self_s)),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let layers = JsonValue::object(vec![
        ("workload", JsonValue::from(args.workload.name())),
        ("seed", JsonValue::from(args.seed)),
        ("spans", totals(by_name)),
        ("layers", totals(by_layer)),
        (
            "per_traced_pass",
            JsonValue::Object(
                metrics
                    .iter()
                    .map(|(k, v)| (k.to_string(), JsonValue::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    for (file, text) in [("spans.jsonl", lines), ("layers.json", layers.pretty())] {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprintln!("trace written to {}", dir.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec;

    fn pass(traced: bool, wall_s: f64) -> PassRecord {
        PassRecord {
            traced,
            wall_s,
            cpu_s: 2.0 * wall_s,
            item_s: vec![wall_s / 4.0; 4],
            counts: ItemCounts {
                refs: 1000,
                ..ItemCounts::default()
            },
            analytic: mlc_core::take_analytic_stats(),
            ..PassRecord::default()
        }
    }

    #[test]
    fn quiet_passes_are_the_fastest_quarter_holding_enough_items() {
        let with_items = |wall_s: f64, n: usize| PassRecord {
            wall_s,
            item_s: vec![0.01; n],
            ..PassRecord::default()
        };
        let walls = [1.9, 1.0, 1.4, 1.1, 2.0, 1.3, 1.2, 1.5];
        let big: Vec<PassRecord> = walls.iter().map(|&w| with_items(w, 200)).collect();
        let quiet: Vec<f64> = quiet_passes(&big).iter().map(|p| p.wall_s).collect();
        assert_eq!(quiet, [1.0, 1.1], "a quarter of eight passes");
        let small: Vec<PassRecord> = walls.iter().map(|&w| with_items(w, 30)).collect();
        let quiet: Vec<f64> = quiet_passes(&small).iter().map(|p| p.wall_s).collect();
        assert_eq!(quiet, [1.0, 1.1, 1.2, 1.3], "widened to 100 items");
        assert_eq!(quiet_passes(&small[..1]).len(), 1);
    }

    #[test]
    fn fallback_metrics_cover_every_reason_the_engine_reports() {
        let reasons = mlc_core::take_analytic_stats().fallback_reasons;
        assert_eq!(reasons.len(), FALLBACK_METRICS.len());
        for (reason, _) in reasons {
            assert!(FALLBACK_METRICS.contains(&format!("analytic.fallback.{reason}").as_str()));
        }
    }

    #[test]
    fn workers_report_exactly_the_metrics_benchmark_json_names() {
        let s = spec();
        let untraced = vec![pass(false, 1.0), pass(false, 1.25), pass(false, 1.2)];
        let e2e = end_to_end_metrics(&untraced, &[0.1, 0.3, 0.2], 40.0);
        let names: Vec<&str> = e2e.keys().copied().collect();
        let mut want: Vec<&str> = s.end_to_end.iter().map(|m| m.name.as_str()).collect();
        want.sort();
        assert_eq!(names, want);
        assert_eq!((e2e["wall_s"], e2e["setup_s"]), (1.2, 0.2), "medians");
        assert_eq!(e2e["refs_per_s"], 1000.0 / 1.2);
        assert_eq!(e2e["item_p90_ms"], 1e3 * 1.25 / 4.0);

        let passes = vec![
            pass(false, 1.0),
            pass(true, 1.1),
            pass(false, 1.2),
            pass(true, 1.3),
        ];
        let layers = per_layer_metrics(&passes, &[]);
        let names: Vec<&str> = layers.keys().copied().collect();
        let mut want: Vec<&str> = s.per_layer.iter().map(|m| m.name.as_str()).collect();
        want.sort();
        assert_eq!(names, want);
        assert!((layers["trace.overhead_frac"] - (1.2 / 1.1 - 1.0)).abs() < 1e-12);
        assert_eq!(layers["sim.refs"], 1000.0, "counts are per traced pass");
        assert!(layers.values().all(|v| v.is_finite()));
    }
}
