//! Timed A/B harness for the pruned incremental padding-search engine.
//!
//! Runs the multi-level GROUPPAD search over every registered kernel twice
//! — once with the exhaustive scalar scan ([`group_pad_multi_exhaustive`])
//! and once with the pruned incremental engine — and reports searches per
//! second for both, writing the results as JSON (default
//! `BENCH_optimizer_throughput.json`; CI archives it). The two engines are
//! differentially tested to produce bitwise-identical layouts (the
//! `search_parity` suite), so the only thing compared here is time.
//!
//! On top of the per-kernel cases, two `fig11_sweep` cases time the
//! experiment drivers' actual workload: a problem-size sweep running one
//! search per size. The old driver ran these scans serially with the
//! exhaustive engine; the new one fans the pruned searches out over
//! [`mlc_core::par::par_map`] (a thin wrapper over the work-stealing
//! executor in `mlc_core::exec`), so those cases measure engine and
//! driver together.
//!
//! Besides the snapshot, every run appends per-case and headline entries
//! to the `results/bench_history/` ledger under family
//! `optimizer_throughput` (`--history-dir` / `--no-history`; see
//! `docs/BENCHMARKS.md`).
//!
//! ```text
//! optimizer_throughput [--out PATH] [--reps N] [--threads N]
//!                      [--history-dir PATH] [--no-history]
//! ```

use mlc_cache_sim::HierarchyConfig;
use mlc_core::group_pad::{group_pad_multi, group_pad_multi_exhaustive};
use mlc_core::par::{default_threads, par_map};
use mlc_experiments::history_cli::HistoryCli;
use mlc_kernels::registry::all_kernels;
use mlc_kernels::Kernel;
use mlc_model::Program;
use mlc_telemetry::bench_report::{BenchReport, Direction};
use std::time::Instant;

struct Case {
    name: String,
    kind: &'static str,
    /// Padding searches per timed run (1 for kernel cases, the number of
    /// swept problem sizes for sweep cases).
    searches: u64,
    /// Candidate positions the search reports trying (identical for both
    /// engines — part of the parity contract).
    positions_tried: u64,
    /// Positions the pruned engine actually scored.
    positions_scored: u64,
    scalar_secs: f64,
    fast_secs: f64,
}

impl Case {
    fn scalar_rate(&self) -> f64 {
        self.searches as f64 / self.scalar_secs
    }
    fn fast_rate(&self) -> f64 {
        self.searches as f64 / self.fast_secs
    }
    fn speedup(&self) -> f64 {
        self.scalar_secs / self.fast_secs
    }
}

/// Best-of-`reps` wall time of `f`.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let (history, argv) = HistoryCli::from_env();
    let mut out = String::from("BENCH_optimizer_throughput.json");
    let mut reps = 3usize;
    let mut threads = default_threads();
    let mut args = argv.into_iter().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            "--reps" => reps = args.next().expect("--reps needs a count").parse().unwrap(),
            "--threads" => {
                threads = args
                    .next()
                    .expect("--threads needs a count")
                    .parse()
                    .unwrap();
                // An explicit flag beats MLC_THREADS everywhere, including
                // the padding search's internal candidate scans.
                mlc_core::par::set_thread_override(Some(threads));
            }
            other => panic!("unknown flag {other}"),
        }
    }

    let h = HierarchyConfig::ultrasparc_i();
    let mut cases = Vec::new();

    // Per-kernel cases: one multi-level GROUPPAD search, serial, so the
    // ratio is the pure engine speedup on the paper's hierarchy.
    for kernel in all_kernels() {
        let program = kernel.model();
        let scalar_secs = best_of(reps, || group_pad_multi_exhaustive(&program, &h).unwrap());
        let fast_secs = best_of(reps, || group_pad_multi(&program, &h).unwrap());
        let r = group_pad_multi(&program, &h).unwrap();
        let case = Case {
            name: kernel.name().to_string(),
            kind: "kernel",
            searches: 1,
            positions_tried: r.positions_tried,
            positions_scored: r.positions_scored,
            scalar_secs,
            fast_secs,
        };
        eprintln!(
            "{:>22} ({:<11}) scalar {:>8.2} ms  fast {:>8.2} ms  speedup {:>6.2}x  ({} tried, {} scored)",
            case.name,
            case.kind,
            1e3 * scalar_secs,
            1e3 * fast_secs,
            case.speedup(),
            case.positions_tried,
            case.positions_scored,
        );
        cases.push(case);
    }

    // Sweep cases: the fig11 workload — one search per problem size. Old
    // driver: serial + exhaustive. New driver: par_map + pruned engine.
    let sizes: Vec<usize> = (250..=520).step_by(10).collect();
    type SweepKernel = (&'static str, fn(usize) -> Program);
    let sweeps: &[SweepKernel] = &[
        ("expl", |n| mlc_kernels::expl::Expl::new(n).model()),
        ("shal", |n| mlc_kernels::shal::Shallow::shal(n).model()),
    ];
    for &(name, model_of) in sweeps {
        let scalar_secs = best_of(reps, || {
            for &n in &sizes {
                std::hint::black_box(group_pad_multi_exhaustive(&model_of(n), &h).unwrap());
            }
        });
        let fast_secs = best_of(reps, || {
            par_map(sizes.clone(), threads, |&n| {
                group_pad_multi(&model_of(n), &h).unwrap().pads
            })
        });
        let (tried, scored) = sizes
            .iter()
            .map(|&n| {
                let r = group_pad_multi(&model_of(n), &h).unwrap();
                (r.positions_tried, r.positions_scored)
            })
            .fold((0, 0), |(t, s), (dt, ds)| (t + dt, s + ds));
        let case = Case {
            name: format!("{name}_sweep_{}to{}", sizes[0], sizes[sizes.len() - 1]),
            kind: "fig11_sweep",
            searches: sizes.len() as u64,
            positions_tried: tried,
            positions_scored: scored,
            scalar_secs,
            fast_secs,
        };
        eprintln!(
            "{:>22} ({:<11}) scalar {:>8.2} ms  fast {:>8.2} ms  speedup {:>6.2}x  ({} tried, {} scored, {threads} threads)",
            case.name,
            case.kind,
            1e3 * scalar_secs,
            1e3 * fast_secs,
            case.speedup(),
            case.positions_tried,
            case.positions_scored,
        );
        cases.push(case);
    }

    let geomean = (cases.iter().map(|c| c.speedup().ln()).sum::<f64>() / cases.len() as f64).exp();
    let best = cases.iter().map(|c| c.speedup()).fold(0.0, f64::max);
    let pruned: f64 = 1.0
        - cases.iter().map(|c| c.positions_scored).sum::<u64>() as f64
            / cases.iter().map(|c| c.positions_tried).sum::<u64>() as f64;
    eprintln!(
        "geometric-mean speedup {geomean:.2}x, best {best:.2}x, {:.1}% of positions pruned",
        100.0 * pruned
    );

    let mut json = String::from("{\n  \"bench\": \"optimizer_throughput\",\n");
    json.push_str("  \"unit\": \"searches_per_second\",\n");
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"profile\": \"{}\",\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    json.push_str(&format!("  \"geomean_speedup\": {geomean:.3},\n"));
    json.push_str(&format!("  \"best_speedup\": {best:.3},\n"));
    json.push_str(&format!("  \"fraction_pruned\": {pruned:.4},\n"));
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"kind\": \"{}\", \"searches\": {}, \
             \"positions_tried\": {}, \"positions_scored\": {}, \
             \"scalar_secs\": {:.6}, \"fast_secs\": {:.6}, \
             \"scalar_searches_per_sec\": {:.2}, \"fast_searches_per_sec\": {:.2}, \
             \"speedup\": {:.3}}}{}\n",
            c.name,
            c.kind,
            c.searches,
            c.positions_tried,
            c.positions_scored,
            c.scalar_secs,
            c.fast_secs,
            c.scalar_rate(),
            c.fast_rate(),
            c.speedup(),
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write bench JSON");
    eprintln!("wrote {out}");

    let mut report = BenchReport::new("optimizer_throughput");
    for c in &cases {
        report.metric(&c.name, "speedup", "x", c.speedup(), Direction::Higher);
        report.metric(
            &c.name,
            "fast_searches_per_sec",
            "searches/s",
            c.fast_rate(),
            Direction::Higher,
        );
    }
    report.metric(
        "summary",
        "geomean_speedup",
        "x",
        geomean,
        Direction::Higher,
    );
    report.metric("summary", "best_speedup", "x", best, Direction::Higher);
    report.metric(
        "summary",
        "fraction_pruned",
        "fraction",
        pruned,
        Direction::Higher,
    );
    history.append(&report);
}
