//! `--history-dir` plumbing for `serve_load`, the one experiment binary
//! that writes to the benchmark ledger (the `fuzz` binary parses the same
//! flag itself).
//!
//! ```text
//! --history-dir PATH    # append this run's entries to the ledger at PATH
//! ```
//!
//! Without the flag nothing is appended, so a local run never touches the
//! committed `results/bench_history/`. With it, the run appends one
//! [`BenchEntry`](mlc_telemetry::bench_report::BenchEntry) per metric to
//! `PATH/<family>.jsonl` (see `docs/BENCHMARKS.md`), which `bench-history`
//! gates and renders; CI passes `--history-dir results/bench_history`.
//!
//! Appending is best-effort: an unwritable ledger warns on stderr but never
//! fails the benchmark, whose own output matters more than the bookkeeping.
//! (The `bench-history append` subcommand is the strict path; it refuses
//! malformed or schema-violating entries.)

use mlc_telemetry::bench_report::BenchReport;
use std::path::PathBuf;

/// Parsed ledger options.
#[derive(Debug, Clone)]
pub struct HistoryCli {
    /// Ledger directory; `None` unless `--history-dir` was given.
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
        let mut dir = None;
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
                rest.push(arg);
                continue;
            };
            if value.is_empty() {
                return Err(format!("{FLAG} needs a value"));
            }
            dir = Some(PathBuf::from(value));
        }
        Ok((Self { dir }, rest))
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

        let (h, rest) = HistoryCli::extract(sv(&["bench", "--reps", "3"]));
        assert_eq!(h.dir, None, "no flag, no ledger");
        assert_eq!(rest, sv(&["bench", "--reps", "3"]));
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
        let err = HistoryCli::try_extract(sv(&["bench", "--history-dir", "--reps"])).unwrap_err();
        assert_eq!(err, "--history-dir needs a value, got the flag --reps");
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
