//! The Section 5 exception: time-step tiling must target the L2 cache.
//!
//! "Song and Li extended tiling techniques to handle multiple loop nests
//! enclosed in a single time-step loop ... Because the large amount of data
//! that must be held in cache spans many loop nests, the L1 cache is
//! unlikely to be sufficiently large for reasonable sized tiles. As a
//! result the tiling algorithm targets the L2 cache, completely bypassing
//! the L1 cache."
//!
//! We time-skew-tile a T-step Gauss-Seidel relaxation on a 512x512 grid
//! (4 KB columns) and sweep the tile width: a tile holds `w + T + 1`
//! columns across all T steps, so with T = 8 even `w = 1` needs 40 KB —
//! over twice the 16 KB L1. The best width is therefore set by the 512 KB
//! L2 (~128 columns), exactly the exception the paper describes.
//!
//! ```text
//! cargo run --release -p mlc-experiments --bin ablation_songli
//! ```

use mlc_cache_sim::HierarchyConfig;
use mlc_core::exec::execute;
use mlc_core::par::default_threads;
use mlc_core::MissCosts;
use mlc_experiments::sim::simulate_cold;
use mlc_experiments::table::pct;
use mlc_experiments::{Table, TelemetryCli};
use mlc_kernels::timeskew::{tile_footprint_bytes, time_stepped_jacobi2d, time_tiled_jacobi2d};
use mlc_model::DataLayout;

fn main() {
    let (mut tcli, _args) = TelemetryCli::from_env();
    let tel = &mut tcli.telemetry;
    let (n, t_steps) = (512usize, 8usize);
    let h = HierarchyConfig::ultrasparc_i();
    let costs = MissCosts::from_hierarchy(&h);

    println!("Time-step tiling (Song-Li) on {n}x{n} Gauss-Seidel, T = {t_steps} steps");
    println!(
        "(tile footprint = (w + T + 1) columns of {} KB; L1 holds {} columns, L2 {})\n",
        n * 8 / 1024,
        h.levels[0].size / (n * 8),
        h.levels[1].size / (n * 8)
    );

    let widths: Vec<Option<usize>> = std::iter::once(None)
        .chain(
            [1usize, 2, 4, 8, 16, 32, 64, 96, 118, 160, 256]
                .into_iter()
                .map(Some),
        )
        .collect();
    eprintln!("simulating {} versions ...", widths.len());
    let span = tel.tracer.begin("ablation_songli.sweep");
    tel.tracer.attr(span, "versions", widths.len() as u64);
    let (results, report) = execute(widths.clone(), default_threads(), |&w| {
        let p = match w {
            None => time_stepped_jacobi2d(n, t_steps),
            Some(w) => time_tiled_jacobi2d(n, t_steps, w),
        };
        simulate_cold(&p, &DataLayout::contiguous(&p.arrays), &h)
    });
    tel.tracer.end(span);
    tel.metrics
        .count("ablation_songli.simulations", widths.len() as u64);
    report.install_metrics(&mut tel.metrics, "exec");

    let mut t = Table::new(&["version", "footprint", "L1 miss", "L2 miss", "cost/ref"]);
    let mut best: Option<(f64, String)> = None;
    for (w, r) in widths.iter().zip(&results) {
        let (label, fp) = match w {
            None => ("untiled".to_string(), "-".to_string()),
            Some(w) => (
                format!("w={w}"),
                format!("{}K", tile_footprint_bytes(n, t_steps, *w) / 1024),
            ),
        };
        let cost = (r.miss_rate(0) * costs.penalty(0) + r.miss_rate(1) * costs.penalty(1)) / 1.0;
        if w.is_some() && best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, label.clone()));
        }
        t.row(vec![
            label,
            fp,
            pct(r.miss_rate(0)),
            pct(r.miss_rate(1)),
            format!("{cost:.3}"),
        ]);
    }
    println!("{}", t.render());
    let (_, best_label) = best.unwrap();
    println!("best tiled version by weighted cost: {best_label}");
    println!("\n(expected shape: every tile width overflows L1, so L1 miss rates stay");
    println!(" high throughout; L2 miss rates fall as w grows until the tile footprint");
    println!(" crosses the 512 KB L2 (~w=118), then rise again — the tile size is set");
    println!(" by the L2, 'completely bypassing the L1 cache'.)");
}
