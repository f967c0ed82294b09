//! Driver for the paper's full experiment grid.
//!
//! Simulates the kernel × family × hierarchy cross-product and prints the
//! canonical tables.
//!
//! ```text
//! sweep [--grid conflict|group|paper|full|smoke] [--csv]
//! ```
//!
//! Plus the flags every experiment binary takes (`TelemetryCli`):
//! `--cache-dir PATH` persists both whole sweep cells and individual
//! simulations in the content-addressed store (`docs/CACHING.md`). Each
//! cell is stored as it completes, so rerunning an interrupted sweep over
//! the same `--cache-dir` computes only the cells it had not finished.
//! `--threads N` defaults to the `MLC_THREADS` environment variable when
//! set, else the machine's parallelism; cells run on the work-stealing
//! executor (`mlc_core::exec`), whose per-worker telemetry lands in the
//! metrics export under `exec.*`. An unknown argument or grid exits 2.

use mlc_experiments::sweep::{grid_cells, render_tables, run_cells, GridKind};
use mlc_experiments::{reject_unknown_args, TelemetryCli};

fn main() {
    let (mut tcli, args) = TelemetryCli::from_env();
    reject_unknown_args(&args, &["--csv"], &["--grid"]);
    let csv = args.iter().any(|a| a == "--csv");
    let grid = match args.iter().position(|a| a == "--grid") {
        None => GridKind::Paper,
        Some(i) => {
            let v = args.get(i + 1).map(String::as_str).unwrap_or_default();
            GridKind::from_arg(v).unwrap_or_else(|| {
                eprintln!("sweep: --grid needs conflict|group|paper|full|smoke, got {v:?}");
                std::process::exit(2);
            })
        }
    };

    // `--threads` is consumed by TelemetryCli, which pins the process-wide
    // override, so default_threads() already reflects an explicit flag.
    let threads = mlc_core::par::default_threads();
    let cells = grid_cells(grid);
    eprintln!(
        "sweep: running {} cells on {threads} threads ...",
        cells.len()
    );
    let span = tcli.telemetry.tracer.begin("sweep.run");
    let (results, report) = run_cells(&cells, threads, tcli.cache.as_deref());
    tcli.telemetry
        .tracer
        .attr(span, "cells", cells.len() as u64);
    tcli.telemetry.tracer.end(span);
    tcli.telemetry
        .metrics
        .count("sweep.cells", cells.len() as u64);
    report.install_metrics(&mut tcli.telemetry.metrics, "exec");

    print!("{}", render_tables(&results, csv));
    if let Err(e) = tcli.finish() {
        eprintln!("sweep: cannot write telemetry: {e}");
        std::process::exit(1);
    }
}
