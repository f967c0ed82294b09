//! Sharded, resumable driver for the paper's full experiment grid.
//!
//! `run` simulates (a shard of) the kernel × family × hierarchy
//! cross-product and prints the canonical tables; `merge` recombines shard
//! JSONL files into the exact table a single-shot run prints — byte for
//! byte (CI compares them with `cmp`).
//!
//! ```text
//! sweep run [--grid conflict|group|paper|full|smoke] [--shard I/N] [--out PATH]
//!           [--resume] [--threads N] [--csv] [--min-hits N]
//! sweep merge FILE... [--grid conflict|group|paper|full|smoke] [--csv]
//! ```
//!
//! Plus the global flags every experiment binary takes: `--cache-dir PATH`
//! persists both whole sweep cells and individual simulations in the
//! content-addressed store (`docs/CACHING.md`); `--resume` reuses cells
//! already present in `--out` from an interrupted run; `--min-hits N`
//! exits nonzero unless the cache served at least N hits (the CI
//! warm-cache smoke check). `--threads` (handled by the shared
//! `TelemetryCli` extractor) defaults to the `MLC_THREADS`
//! environment variable when set, else the machine's parallelism; cells
//! run on the work-stealing executor (`mlc_core::exec`), whose per-worker
//! telemetry lands in the metrics export under `exec.*`.

use mlc_experiments::sweep::{
    grid_cells, merge_results, parse_shard_file, parse_shard_file_resume, parse_shard_spec,
    render_tables, result_to_jsonl_line, run_cells, shard_cells, GridKind, SweepCell,
};
use mlc_experiments::TelemetryCli;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: sweep run   [--grid conflict|group|paper|full|smoke] [--shard I/N] [--out PATH]\n\
         \x20                  [--resume] [--threads N] [--csv] [--min-hits N]\n\
         \x20      sweep merge FILE... [--grid conflict|group|paper|full|smoke] [--csv]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("sweep: {msg}");
    std::process::exit(1);
}

fn main() {
    let (mut tcli, args) = TelemetryCli::from_env();
    let mut it = args.into_iter().skip(1); // drop argv[0]
    let cmd = it.next().unwrap_or_else(|| usage());

    let mut grid = GridKind::Paper;
    let mut shard: Option<(usize, usize)> = None;
    let mut out: Option<PathBuf> = None;
    let mut resume = false;
    let mut csv = false;
    // `--threads` is consumed by TelemetryCli (which pins the process-wide
    // override before this line runs), so default_threads() already
    // reflects an explicit flag.
    let threads = mlc_core::par::default_threads();
    let mut min_hits: Option<u64> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    while let Some(a) = it.next() {
        match a.as_str() {
            "--grid" => {
                let v = it.next().unwrap_or_else(|| usage());
                grid =
                    GridKind::from_arg(&v).unwrap_or_else(|| fail(&format!("unknown grid {v:?}")));
            }
            "--shard" => {
                let v = it.next().unwrap_or_else(|| usage());
                shard = Some(parse_shard_spec(&v).unwrap_or_else(|e| fail(&e)));
            }
            "--out" => out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--resume" => resume = true,
            "--csv" => csv = true,
            "--min-hits" => {
                min_hits = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            other if cmd == "merge" && !other.starts_with("--") => {
                files.push(PathBuf::from(other));
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    match cmd.as_str() {
        "run" => run(&mut tcli, grid, shard, out, resume, csv, threads, min_hits),
        "merge" => merge(grid, &files, csv),
        _ => usage(),
    }
}

#[allow(clippy::too_many_arguments)]
fn run(
    tcli: &mut TelemetryCli,
    grid: GridKind,
    shard: Option<(usize, usize)>,
    out: Option<PathBuf>,
    resume: bool,
    csv: bool,
    threads: usize,
    min_hits: Option<u64>,
) {
    let all = grid_cells(grid);
    let cells: Vec<SweepCell> = match shard {
        Some((i, n)) => shard_cells(&all, i, n),
        None => all.clone(),
    };

    // --resume: reuse cells already recorded in --out. The file is parsed
    // against the full grid, then restricted to this shard's cells — a
    // shard file from a different shard spec simply contributes whatever
    // overlaps.
    let mut done: BTreeMap<usize, mlc_experiments::sweep::CellResult> = BTreeMap::new();
    if resume {
        let path = out
            .as_ref()
            .unwrap_or_else(|| fail("--resume requires --out"));
        match std::fs::read_to_string(path) {
            Ok(text) => {
                // Lenient parse: a shard killed mid-append leaves a
                // truncated final line; that cell is just not done yet.
                let (prior, warning) = parse_shard_file_resume(&all, &text).unwrap_or_else(|e| {
                    fail(&format!("cannot resume from {}: {e}", path.display()))
                });
                if let Some(w) = warning {
                    eprintln!(
                        "sweep: {} has a damaged final line ({w}); it will be recomputed",
                        path.display()
                    );
                }
                let ours: std::collections::BTreeSet<usize> =
                    cells.iter().map(|c| c.index).collect();
                for r in prior {
                    if ours.contains(&r.cell.index) {
                        done.insert(r.cell.index, r);
                    }
                }
                eprintln!(
                    "sweep: resuming — {} of {} cells already done in {}",
                    done.len(),
                    cells.len(),
                    path.display()
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                eprintln!("sweep: nothing to resume ({} not found)", path.display());
            }
            Err(e) => fail(&format!("cannot read {}: {e}", path.display())),
        }
    }

    eprintln!(
        "sweep: running {} cells ({} reused) on {} threads ...",
        cells.len().saturating_sub(done.len()),
        done.len(),
        threads
    );
    let span = tcli.telemetry.tracer.begin("sweep.run");
    let (results, report) = run_cells(&cells, threads, tcli.cache.as_deref(), &done);
    tcli.telemetry
        .tracer
        .attr(span, "cells", cells.len() as u64);
    tcli.telemetry.tracer.end(span);
    tcli.telemetry
        .metrics
        .count("sweep.cells", cells.len() as u64);
    tcli.telemetry
        .metrics
        .count("sweep.reused", done.len() as u64);
    report.install_metrics(&mut tcli.telemetry.metrics, "exec");

    if let Some(path) = &out {
        let mut text = String::new();
        for r in &results {
            text.push_str(&result_to_jsonl_line(r));
            text.push('\n');
        }
        // Write via a sibling tmp file + rename so an interrupted run
        // leaves either the old file (still resumable) or the new one.
        let tmp = path.with_extension("jsonl.tmp");
        std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(text.as_bytes()))
            .and_then(|()| std::fs::rename(&tmp, path))
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
        eprintln!(
            "sweep: {} results written to {}",
            results.len(),
            path.display()
        );
    }

    print!("{}", render_tables(&results, csv));

    if let Some(want) = min_hits {
        let hits = tcli.cache.as_ref().map(|c| c.stats().hits).unwrap_or(0);
        if hits < want {
            fail(&format!(
                "--min-hits {want}: cache served only {hits} hits (is --cache-dir warm?)"
            ));
        }
        eprintln!("sweep: cache served {hits} hits (>= {want})");
    }
    tcli.finish()
        .unwrap_or_else(|e| fail(&format!("cannot write telemetry: {e}")));
}

fn merge(grid: GridKind, files: &[PathBuf], csv: bool) {
    if files.is_empty() {
        fail("merge needs at least one shard file");
    }
    let cells = grid_cells(grid);
    let mut shards = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
        shards.push(
            parse_shard_file(&cells, &text)
                .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display()))),
        );
    }
    let merged = merge_results(&cells, shards).unwrap_or_else(|e| fail(&e));
    print!("{}", render_tables(&merged, csv));
}
