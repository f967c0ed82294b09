//! Shared `--history-dir` / `--no-history` plumbing for the benchmark
//! binaries.
//!
//! Every bench emitter (`trace_throughput`, `optimizer_throughput`,
//! `sweep_cache`; the fuzz smoke counters mirror the same flags) writes two
//! artifacts per run:
//!
//! * its bespoke `BENCH_*.json` snapshot — the latest-run artifact CI
//!   archives, unchanged in shape;
//! * one [`BenchEntry`](mlc_telemetry::bench_report::BenchEntry) per
//!   metric appended to the ledger at `results/bench_history/` (see
//!   `docs/BENCHMARKS.md`), which `bench-history` gates and renders.
//!
//! ```text
//! --history-dir PATH    # ledger directory (default results/bench_history)
//! --no-history          # skip the ledger append entirely
//! ```
//!
//! Appending is best-effort: an unwritable ledger warns on stderr but never
//! fails the benchmark — the snapshot and the measurement matter more than
//! the bookkeeping. (The `bench-history append` subcommand is the strict
//! path; it refuses malformed or schema-violating entries.)

use mlc_telemetry::bench_report::BenchReport;
use std::path::PathBuf;

/// Parsed ledger options.
#[derive(Debug, Clone)]
pub struct HistoryCli {
    /// Ledger directory; `None` when `--no-history` was given.
    pub dir: Option<PathBuf>,
}

impl HistoryCli {
    /// Split `argv` into history flags (consumed here) and everything else
    /// (returned for the binary's own parser). Accepts both
    /// `--history-dir PATH` and `--history-dir=PATH`. A `--history-dir`
    /// given no value, an empty one, or another flag where its value
    /// belongs prints a message naming the flag and exits with status 2.
    pub fn extract(argv: Vec<String>) -> (Self, Vec<String>) {
        Self::try_extract(argv).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// [`HistoryCli::extract`], returning the usage error instead of
    /// exiting.
    fn try_extract(argv: Vec<String>) -> Result<(Self, Vec<String>), String> {
        const FLAG: &str = "--history-dir";
        let mut rest = Vec::with_capacity(argv.len());
        let mut dir = PathBuf::from("results/bench_history");
        let mut disabled = false;
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            let value = if arg == FLAG {
                match it.next() {
                    Some(v) if v.starts_with("--") => {
                        return Err(format!("{FLAG} needs a value, got the flag {v}"))
                    }
                    v => v.unwrap_or_default(),
                }
            } else if let Some(v) = arg.strip_prefix("--history-dir=") {
                v.to_string()
            } else {
                if arg == "--no-history" {
                    disabled = true;
                } else {
                    rest.push(arg);
                }
                continue;
            };
            if value.is_empty() {
                return Err(format!("{FLAG} needs a value"));
            }
            dir = PathBuf::from(value);
        }
        Ok((
            Self {
                dir: (!disabled).then_some(dir),
            },
            rest,
        ))
    }

    /// [`HistoryCli::extract`] applied to the process arguments. The
    /// returned vector still includes `argv[0]`.
    pub fn from_env() -> (Self, Vec<String>) {
        Self::extract(std::env::args().collect())
    }

    /// Append the report to the ledger (commit/host/rustc stamped from the
    /// current environment). Best-effort; see the module docs.
    pub fn append(&self, report: &BenchReport) {
        let Some(dir) = &self.dir else {
            return;
        };
        match report.append_to(dir) {
            Ok(n) => eprintln!(
                "bench-history: appended {n} entries to {}",
                dir.join(format!("{}.jsonl", report.family())).display()
            ),
            Err(e) => eprintln!(
                "bench-history: could not append to {}: {e} (benchmark output is unaffected)",
                dir.display()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_telemetry::bench_report::Direction;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extract_strips_flags() {
        let (h, rest) = HistoryCli::extract(sv(&[
            "bench",
            "--reps",
            "3",
            "--history-dir",
            "/tmp/led",
            "--out=x.json",
        ]));
        assert_eq!(h.dir.as_deref(), Some(std::path::Path::new("/tmp/led")));
        assert_eq!(rest, sv(&["bench", "--reps", "3", "--out=x.json"]));

        let (h, rest) = HistoryCli::extract(sv(&["bench", "--no-history"]));
        assert_eq!(h.dir, None);
        assert_eq!(rest, sv(&["bench"]));

        let (h, _) = HistoryCli::extract(sv(&["bench", "--history-dir=d", "--no-history"]));
        assert_eq!(h.dir, None, "--no-history wins regardless of order");
    }

    #[test]
    fn default_dir_is_the_ledger() {
        let (h, _) = HistoryCli::extract(sv(&["bench"]));
        assert_eq!(
            h.dir.as_deref(),
            Some(std::path::Path::new("results/bench_history"))
        );
    }

    #[test]
    fn valueless_history_dir_is_an_error_naming_it() {
        for argv in [
            sv(&["bench", "--history-dir"]),
            sv(&["bench", "--history-dir="]),
        ] {
            let err = HistoryCli::try_extract(argv).unwrap_err();
            assert_eq!(err, "--history-dir needs a value");
        }
        let err =
            HistoryCli::try_extract(sv(&["bench", "--history-dir", "--no-history"])).unwrap_err();
        assert_eq!(
            err,
            "--history-dir needs a value, got the flag --no-history"
        );
    }

    #[test]
    fn append_to_unwritable_dir_is_nonfatal() {
        let mut r = BenchReport::new("fam");
        r.metric("case", "m", "x", 1.0, Direction::Higher);
        let h = HistoryCli {
            dir: Some(PathBuf::from("/proc/nonexistent/ledger")),
        };
        h.append(&r); // must not panic
        let h = HistoryCli { dir: None };
        h.append(&r); // disabled: no-op
    }
}
