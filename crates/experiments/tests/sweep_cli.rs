//! End-to-end CLI tests of the `sweep` binary's result cache: a warm rerun
//! is served entirely from disk, and a rerun over a partial cache (an
//! interrupted sweep) recomputes only the missing cells and prints the
//! same table. CI checks the same on the full conflict grid; here the
//! cheap `smoke` grid keeps debug builds fast.

use mlc_core::rescache::ResultCache;
use mlc_experiments::sweep::{cell_key, grid_cells, GridKind};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run_ok(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("spawn sweep");
    assert!(
        out.status.success(),
        "sweep {:?} failed:\n{}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlc-sweep-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn s(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// The cache summary line `TelemetryCli` prints at exit.
fn cache_summary(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    stderr
        .lines()
        .find(|l| l.starts_with("rescache: "))
        .unwrap_or_else(|| panic!("no cache summary in:\n{stderr}"))
        .to_string()
}

#[test]
fn warm_rerun_serves_every_cell_from_the_cache() {
    let dir = tmp("warm");
    let cache = dir.join("cache");
    let cold = run_ok(&["--grid", "smoke", "--cache-dir", s(&cache)]);
    let warm = run_ok(&["--grid", "smoke", "--cache-dir", s(&cache)]);
    assert!(!cold.stdout.is_empty(), "cold run printed nothing");
    assert_eq!(
        cold.stdout, warm.stdout,
        "warm rerun must print the same table"
    );
    // A warm cell hit runs no simulation, so the cache sees one lookup per
    // cell and no miss.
    let summary = cache_summary(&warm);
    assert!(
        summary.starts_with("rescache: 4 hits / 0 misses"),
        "warm rerun must serve every cell from the cell cache: {summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rerun_over_a_partial_cache_recomputes_only_the_missing_cells() {
    let dir = tmp("partial");
    let cache_dir = dir.join("cache");
    let cold = run_ok(&["--grid", "smoke", "--cache-dir", s(&cache_dir)]);

    // An interrupted sweep: two of the four cells never reached the cache.
    let cache = ResultCache::open(&cache_dir).unwrap();
    let cells = grid_cells(GridKind::Smoke);
    assert_eq!(cells.len(), 4);
    for cell in [&cells[1], &cells[3]] {
        std::fs::remove_file(cache.entry_path(cell_key(cell)))
            .unwrap_or_else(|e| panic!("cell {} was not cached: {e}", cell.kernel));
    }

    let rerun = run_ok(&["--grid", "smoke", "--cache-dir", s(&cache_dir)]);
    assert_eq!(
        cold.stdout, rerun.stdout,
        "the rerun must print the same table as the uninterrupted run"
    );
    // The two surviving cells are hits; the two missing ones miss, and
    // are recomputed from cached simulations and stored again.
    let summary = cache_summary(&rerun);
    assert!(
        summary.contains(" / 2 misses (") && summary.contains(", 2 stores,"),
        "only the two missing cells may be recomputed: {summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
