//! End-to-end CLI tests of the `sweep` binary: shard/merge byte-parity,
//! resume, and the warm-cache smoke gate — the same invariants CI enforces
//! on the full conflict grid, here on the cheap `smoke` grid so debug
//! builds can afford them.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn sweep_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sweep")
}

fn run_ok(args: &[&str]) -> Output {
    let out = Command::new(sweep_bin())
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
    let dir = std::env::temp_dir().join(format!("mlc-shard-merge-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn s(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn two_shards_merge_to_single_shot_stdout_bytes() {
    let dir = tmp("parity");
    let cache = dir.join("cache");
    let single = run_ok(&["run", "--grid", "smoke", "--cache-dir", s(&cache)]);

    let s0 = dir.join("s0.jsonl");
    let s1 = dir.join("s1.jsonl");
    run_ok(&[
        "run",
        "--grid",
        "smoke",
        "--shard",
        "0/2",
        "--out",
        s(&s0),
        "--cache-dir",
        s(&cache),
    ]);
    run_ok(&[
        "run",
        "--grid",
        "smoke",
        "--shard",
        "1/2",
        "--out",
        s(&s1),
        "--cache-dir",
        s(&cache),
    ]);
    let merged = run_ok(&["merge", s(&s0), s(&s1), "--grid", "smoke"]);

    assert!(!single.stdout.is_empty(), "single-shot run printed nothing");
    assert_eq!(
        single.stdout, merged.stdout,
        "merged shard output must be byte-identical to the single-shot run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_cache_rerun_passes_min_hits_gate() {
    let dir = tmp("warm");
    let cache = dir.join("cache");
    let cold = run_ok(&["run", "--grid", "smoke", "--cache-dir", s(&cache)]);
    let warm = run_ok(&[
        "run",
        "--grid",
        "smoke",
        "--cache-dir",
        s(&cache),
        "--min-hits",
        "4",
    ]);
    assert_eq!(
        cold.stdout, warm.stdout,
        "warm rerun must print the same table"
    );
    // Every cell came from disk: a warm cell hit runs no simulation, so the
    // cache sees one lookup per cell and no miss. `--min-hits` alone cannot
    // tell: a cell layer that missed every cell would still clear it
    // through the simulation layer's hits.
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(
        stderr.contains("rescache: 4 hits / 0 misses"),
        "warm rerun must serve every cell from the cell cache:\n{stderr}"
    );

    // The gate actually gates: with no cache installed there are no hits.
    // (A merely *fresh* cache is not enough to prove failure — unpadded
    // kernels share simulation keys between their Orig and optimized
    // versions, so even a cold run scores same-run hits.)
    let gated = Command::new(sweep_bin())
        .args(["run", "--grid", "smoke", "--no-cache", "--min-hits", "1"])
        .output()
        .expect("spawn sweep");
    assert!(
        !gated.status.success(),
        "--min-hits must fail when no cache is installed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_completes_a_truncated_run_identically() {
    let dir = tmp("resume");
    let out = dir.join("r.jsonl");
    let full = run_ok(&["run", "--grid", "smoke", "--out", s(&out)]);

    // Keep only half the lines, as if the run had been interrupted.
    let text = std::fs::read_to_string(&out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "need at least two cells to truncate");
    let half: String = lines[..lines.len() / 2]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&out, half).unwrap();

    let resumed = run_ok(&["run", "--grid", "smoke", "--out", s(&out), "--resume"]);
    assert_eq!(
        full.stdout, resumed.stdout,
        "resumed run must print the same table as the uninterrupted one"
    );
    assert_eq!(
        std::fs::read_to_string(&out).unwrap().lines().count(),
        lines.len(),
        "resume must rewrite the complete shard file"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_tolerates_a_shard_killed_mid_write() {
    let dir = tmp("resume-truncated");
    let out = dir.join("r.jsonl");
    let full = run_ok(&["run", "--grid", "smoke", "--out", s(&out)]);

    // A shard killed mid-append: the final line stops half-way through,
    // with no trailing newline.
    let text = std::fs::read_to_string(&out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "need at least two cells to truncate");
    let last = lines[lines.len() - 1];
    let mut damaged: String = lines[..lines.len() - 1]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    damaged.push_str(&last[..last.len() / 2]);
    std::fs::write(&out, damaged).unwrap();

    let resumed = run_ok(&["run", "--grid", "smoke", "--out", s(&out), "--resume"]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("damaged final line"),
        "resume must log the crash debris, got:\n{stderr}"
    );
    assert_eq!(
        full.stdout, resumed.stdout,
        "resume past a truncated final line must reproduce the full table"
    );
    assert_eq!(
        std::fs::read_to_string(&out).unwrap().lines().count(),
        lines.len(),
        "resume must rewrite the complete shard file"
    );

    // Damage anywhere before the final line is still a hard error.
    let mut mid_damaged = String::new();
    for (i, l) in lines.iter().enumerate() {
        if i == 0 {
            mid_damaged.push_str(&l[..l.len() / 2]);
        } else {
            mid_damaged.push_str(l);
        }
        mid_damaged.push('\n');
    }
    std::fs::write(&out, mid_damaged).unwrap();
    let refused = Command::new(sweep_bin())
        .args(["run", "--grid", "smoke", "--out", s(&out), "--resume"])
        .output()
        .expect("spawn sweep");
    assert!(
        !refused.status.success(),
        "mid-file damage is not crash debris and must refuse to resume"
    );
    std::fs::remove_dir_all(&dir).ok();
}
