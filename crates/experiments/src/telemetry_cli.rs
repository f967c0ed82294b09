//! Shared `--trace-out` / `--metrics-out` plumbing for the experiment
//! binaries.
//!
//! The binaries built on [`TelemetryCli`] accept these flags on top of
//! their own options:
//!
//! ```text
//! --trace-out PATH      # span/event trace as JSONL
//! --metrics-out PATH    # metrics registry as JSON (or CSV if PATH ends in .csv)
//! --cache-dir PATH      # persist simulation results in a content-addressed store
//! --no-cache            # ignore --cache-dir: simulate everything fresh
//! --threads N           # pin the process-wide worker-thread count
//! ```
//!
//! [`TelemetryCli::from_env`] strips the flags from `std::env::args()` before
//! the binary's own parser sees them and hands back a [`Telemetry`] bundle
//! that is enabled iff at least one output was requested. The files are
//! written by [`TelemetryCli::finish`]; as a safety net `Drop` also writes
//! them, so binaries with early-return paths still produce their outputs.
//!
//! There is no engine flag. Every simulation engine (scalar replay,
//! run-length replay, the analytic closed form) and both padding-search
//! engines (interval sweep, exhaustive) give bitwise-identical results, so which
//! one runs is not a property of any output. The binaries always run the
//! fastest; the parity suites call the reference engines by name. The
//! removed `--no-fast-path`, `--no-analytic` and `--no-fast-search` flags
//! exit 2 rather than being silently ignored.
//!
//! `--cache-dir PATH` opens an `mlc_core::rescache::ResultCache` at PATH
//! and installs it process-wide ([`crate::sim::install_result_cache`]),
//! so every simulation the binary runs is memoized to disk. The cache is
//! content-addressed and differentially guarded, so results are bitwise
//! identical with and without it (see `docs/CACHING.md`). `--no-cache`
//! wins over `--cache-dir` wherever both appear — handy for overriding a
//! cache baked into a wrapper script. A cache summary goes to stderr (and
//! into `--metrics-out` under `rescache.*`) at exit.
//!
//! `--threads N` pins the process-wide worker-thread count via
//! [`mlc_core::par::set_thread_override`], so the explicit flag beats the
//! `MLC_THREADS` environment variable everywhere [`default_threads`]
//! is consulted — the sweep executors, the padding search's candidate
//! scans, and the `mlc-serve` server's worker pool (which sizes itself
//! from `default_threads` when no explicit worker count is configured).
//! Binaries built on this extractor get the flag for free and must not
//! re-parse it.
//!
//! [`int_flag`] reads a binary's own integer options (the size sweeps'
//! `--step` and `--at`) with the same usage-error rule: a missing,
//! non-numeric or out-of-range value exits 2 naming the flag.
//! [`flag_value`] applies the rule to any option a binary reads in its own
//! argument loop (`serve`, `serve_load`). Likewise
//! [`reject_unknown_args`] exits 2 naming the first argument a binary does
//! not read, so a mistyped or unsupported option is never silently
//! dropped.
//!
//! [`default_threads`]: mlc_core::par::default_threads

use mlc_core::rescache::ResultCache;
use mlc_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Engine-selection flags that no longer exist. Rejected by name so a
/// binary that ignores unknown arguments cannot drop one silently.
const REMOVED_FLAGS: [&str; 3] = ["--no-fast-path", "--no-analytic", "--no-fast-search"];

/// Parsed telemetry output options plus the live [`Telemetry`] bundle.
#[derive(Debug, Default)]
pub struct TelemetryCli {
    /// The bundle to thread through instrumented code. Enabled iff the user
    /// asked for at least one output file.
    pub telemetry: Telemetry,
    /// The result cache this invocation installed (if `--cache-dir` was
    /// given and `--no-cache` was not). Held here so [`finish`] can report
    /// its traffic; the same cache is installed process-wide for
    /// [`crate::sim::simulate_one`] and friends.
    ///
    /// [`finish`]: TelemetryCli::finish
    pub cache: Option<Arc<ResultCache>>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    finished: bool,
}

impl TelemetryCli {
    /// Split `argv` into telemetry flags (consumed here) and everything else
    /// (returned for the binary's own parser). Accepts both `--flag PATH`
    /// and `--flag=PATH` spellings. A usage error prints a message naming
    /// the flag and exits with status 2: a value flag (`--trace-out`,
    /// `--metrics-out`, `--cache-dir`, `--threads`) given no value, an
    /// empty one, or another flag where its value belongs
    /// (`--trace-out --metrics-out m.json`), a thread count that is not a
    /// positive integer, or a removed engine flag (`--no-fast-path`,
    /// `--no-analytic`, `--no-fast-search`).
    pub fn extract(argv: Vec<String>) -> (Self, Vec<String>) {
        Self::try_extract(argv).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// [`TelemetryCli::extract`], returning the usage error instead of
    /// exiting.
    fn try_extract(argv: Vec<String>) -> Result<(Self, Vec<String>), String> {
        const VALUE_FLAGS: [&str; 4] = ["--trace-out", "--metrics-out", "--cache-dir", "--threads"];
        let mut rest = Vec::with_capacity(argv.len());
        let mut trace_out: Option<PathBuf> = None;
        let mut metrics_out: Option<PathBuf> = None;
        let mut cache_dir: Option<PathBuf> = None;
        let mut no_cache = false;
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) if VALUE_FLAGS.contains(&f) => (f, Some(v.to_string())),
                _ => (arg.as_str(), None),
            };
            if VALUE_FLAGS.contains(&flag) {
                // `--flag=VALUE` takes VALUE verbatim; that spelling is how
                // a value starting with `--` gets through.
                let value = match inline {
                    Some(v) => v,
                    None => match it.next() {
                        Some(v) if v.starts_with("--") => {
                            return Err(format!("{flag} needs a value, got the flag {v}"))
                        }
                        v => v.unwrap_or_default(),
                    },
                };
                if value.is_empty() {
                    return Err(format!("{flag} needs a value"));
                }
                match flag {
                    "--trace-out" => trace_out = Some(value.into()),
                    "--metrics-out" => metrics_out = Some(value.into()),
                    "--cache-dir" => cache_dir = Some(value.into()),
                    _ => apply_threads(&value)?,
                }
            } else if arg == "--no-cache" {
                no_cache = true;
            } else if REMOVED_FLAGS.contains(&arg.as_str()) {
                return Err(format!(
                    "{arg} was removed: every engine gives identical results, so the fastest always runs"
                ));
            } else {
                rest.push(arg);
            }
        }
        let telemetry = if trace_out.is_some() || metrics_out.is_some() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let touched = no_cache || cache_dir.is_some();
        let cache = match (no_cache, cache_dir) {
            (true, _) | (false, None) => None,
            (false, Some(dir)) => match ResultCache::open(&dir) {
                Ok(c) => Some(Arc::new(c)),
                Err(e) => {
                    // A requested-but-unusable cache is a hard error: the
                    // user asked for persistence (a warm rerun or the
                    // completion of an interrupted sweep depends on it),
                    // so silently simulating fresh would be worse than
                    // stopping.
                    eprintln!("rescache: cannot open cache dir {}: {e}", dir.display());
                    std::process::exit(1);
                }
            },
        };
        if touched {
            // `--no-cache` wins: it clears whatever would otherwise be
            // installed. Without either flag the global is left alone.
            crate::sim::install_result_cache(cache.clone());
        }
        Ok((
            Self {
                telemetry,
                cache,
                trace_out,
                metrics_out,
                finished: false,
            },
            rest,
        ))
    }

    /// [`TelemetryCli::extract`] applied to the process arguments. The
    /// returned vector still includes `argv[0]` (the program path).
    pub fn from_env() -> (Self, Vec<String>) {
        Self::extract(std::env::args().collect())
    }

    /// Whether any telemetry output was requested.
    pub fn is_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// Write the requested output files. Idempotent: the `Drop` fallback
    /// does nothing after an explicit call.
    pub fn finish(&mut self) -> std::io::Result<()> {
        self.finished = true;
        if let Some(cache) = &self.cache {
            let s = cache.stats();
            eprintln!(
                "rescache: {} hits / {} misses ({:.1}% hit rate), {} stores, {} corrupt, {} stale",
                s.hits,
                s.misses,
                100.0 * s.hit_rate(),
                s.stores,
                s.corrupt,
                s.stale
            );
            cache.install_metrics(&mut self.telemetry.metrics, "rescache");
        }
        mlc_core::install_analytic_metrics(&mut self.telemetry.metrics);
        mlc_model::layout::stats::install_metrics(&mut self.telemetry.metrics);
        mlc_core::install_layout_search_metrics(&mut self.telemetry.metrics);
        if let Some(path) = &self.trace_out {
            self.telemetry.write_trace_jsonl(path)?;
            eprintln!("trace written to {}", path.display());
        }
        if let Some(path) = &self.metrics_out {
            if is_csv(path) {
                self.telemetry.write_metrics_csv(path)?;
            } else {
                self.telemetry.write_metrics_json(path)?;
            }
            eprintln!("metrics written to {}", path.display());
        }
        Ok(())
    }
}

impl Drop for TelemetryCli {
    fn drop(&mut self) {
        if !self.finished {
            if let Err(e) = self.finish() {
                eprintln!("telemetry: failed to write output: {e}");
            }
        }
    }
}

/// Parse and pin a `--threads` value. An explicit flag beats `MLC_THREADS`
/// everywhere `default_threads()` is consulted, including worker pools
/// spun up long after argument parsing (the `mlc-serve` server).
fn apply_threads(value: &str) -> Result<(), String> {
    let n = parse_at_least("--threads", value, 1)?;
    mlc_core::par::set_thread_override(Some(n));
    Ok(())
}

/// Parse `flag`'s value as an integer of at least `min`, or a usage error
/// naming the flag.
fn parse_at_least(flag: &str, value: &str, min: usize) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!("{flag}={value:?} is not an integer >= {min}")),
    }
}

/// The integer option `flag` (`--flag N`) from a binary's own arguments,
/// or `default` when the flag is absent. `N` must be at least `min`: the
/// size sweeps' `--step` takes 1, the rule `--threads` follows, because a
/// zero step never advances. A missing or non-numeric value, or one below
/// `min`, prints a message naming the flag and exits with status 2 before
/// the binary does any work.
pub fn int_flag(args: &[String], flag: &str, default: usize, min: usize) -> usize {
    try_int_flag(args, flag, default, min).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// [`int_flag`], returning the usage error instead of exiting.
fn try_int_flag(args: &[String], flag: &str, default: usize, min: usize) -> Result<usize, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => match args.get(i + 1) {
            Some(value) => parse_at_least(flag, value, min),
            None => Err(format!("{flag} needs a value")),
        },
    }
}

/// The value of a binary's own option `flag` (the argument after it,
/// `None` when there is none) parsed as a `T` that passes `ok`. A missing
/// value, or one that does not parse or pass, prints a message naming the
/// flag, what it takes (`want`) and the value it got, and exits with status
/// 2 before the binary does any work. For options read in a loop over the
/// arguments, where [`int_flag`]'s lookup by position does not fit.
pub fn flag_value<T: std::str::FromStr>(
    value: Option<String>,
    flag: &str,
    want: &str,
    ok: impl Fn(&T) -> bool,
) -> T {
    let parsed = match &value {
        None => Err(format!("{flag} needs {want}")),
        Some(v) => match v.parse() {
            Ok(x) if ok(&x) => Ok(x),
            _ => Err(format!("{flag} needs {want}, got {v:?}")),
        },
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Exit with status 2, naming the first argument after `argv[0]` that the
/// binary does not read: neither one of its `switches` nor one of its
/// `value_flags`, each of which takes the next argument as its value (read
/// with [`int_flag`]). Call it before any work, so a mistyped or unsupported
/// option stops the run instead of being dropped.
pub fn reject_unknown_args(args: &[String], switches: &[&str], value_flags: &[&str]) {
    if let Some(arg) = first_unknown_arg(args, switches, value_flags) {
        let bin = args
            .first()
            .and_then(|a| Path::new(a).file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        eprintln!("{bin}: unknown argument {arg}");
        std::process::exit(2);
    }
}

/// The argument [`reject_unknown_args`] rejects, if any.
fn first_unknown_arg<'a>(
    args: &'a [String],
    switches: &[&str],
    value_flags: &[&str],
) -> Option<&'a str> {
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(arg) = rest.next() {
        if value_flags.contains(&arg) {
            rest.next();
        } else if !switches.contains(&arg) {
            return Some(arg);
        }
    }
    None
}

fn is_csv(path: &Path) -> bool {
    path.extension()
        .map(|e| e.eq_ignore_ascii_case("csv"))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extract_strips_flags_and_enables() {
        let (mut t, rest) = TelemetryCli::extract(sv(&[
            "mlc",
            "simulate",
            "--trace-out",
            "t.jsonl",
            "jacobi",
            "--metrics-out=m.json",
            "--opt",
            "pad",
        ]));
        assert!(t.is_enabled());
        assert_eq!(t.trace_out.as_deref(), Some(Path::new("t.jsonl")));
        assert_eq!(t.metrics_out.as_deref(), Some(Path::new("m.json")));
        assert_eq!(rest, sv(&["mlc", "simulate", "jacobi", "--opt", "pad"]));
        t.finished = true; // keep Drop from writing both files
    }

    #[test]
    fn removed_engine_flags_are_errors_naming_them() {
        for flag in REMOVED_FLAGS {
            let err = TelemetryCli::try_extract(sv(&["mlc", flag, "fig11"])).unwrap_err();
            assert!(err.starts_with(&format!("{flag} was removed")), "{err}");
        }
    }

    #[test]
    fn cache_dir_installs_exports_metrics_and_no_cache_wins() {
        // The only test that touches the process-wide result cache.
        let dir =
            std::env::temp_dir().join(format!("mlc-telemetry-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();
        let metrics_path = dir.with_extension("json");

        let (mut t, rest) = TelemetryCli::extract(sv(&[
            "mlc",
            "--cache-dir",
            &dir_s,
            "fig09",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ]));
        assert_eq!(rest, sv(&["mlc", "fig09"]));
        assert!(t.cache.is_some());
        assert!(crate::sim::result_cache().is_some());
        assert!(dir.is_dir(), "extract must create the cache directory");
        t.finish().unwrap();
        let written = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(written.contains("rescache.hit_rate"));
        drop(t);

        // --no-cache wins regardless of flag order, and clears the global.
        let (t2, rest2) = TelemetryCli::extract(sv(&[
            "mlc",
            "--no-cache",
            &format!("--cache-dir={dir_s}"),
            "fig09",
        ]));
        assert_eq!(rest2, sv(&["mlc", "fig09"]));
        assert!(t2.cache.is_none());
        assert!(crate::sim::result_cache().is_none());

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&metrics_path).ok();
    }

    #[test]
    fn threads_flag_is_stripped_and_pins_the_override() {
        // Process-global override: leave it exactly as we found it.
        let prior = mlc_core::par::thread_override();

        let (_t, rest) = TelemetryCli::extract(sv(&["mlc", "--threads", "3", "fig11"]));
        assert_eq!(rest, sv(&["mlc", "fig11"]));
        assert_eq!(mlc_core::par::thread_override(), Some(3));
        assert_eq!(mlc_core::par::default_threads(), 3);

        let (_t, rest) = TelemetryCli::extract(sv(&["mlc", "--threads=5", "fig11"]));
        assert_eq!(rest, sv(&["mlc", "fig11"]));
        assert_eq!(mlc_core::par::thread_override(), Some(5));

        // A longer flag that merely starts with `--threads` passes through
        // untouched for the binary's own parser.
        let (_t, rest) = TelemetryCli::extract(sv(&["mlc", "--threads-list", "1,2,4"]));
        assert_eq!(rest, sv(&["mlc", "--threads-list", "1,2,4"]));

        mlc_core::par::set_thread_override(prior);
    }

    #[test]
    fn int_flag_reads_the_value_or_the_default() {
        let step = |a: &[&str]| try_int_flag(&sv(a), "--step", 2, 1);
        assert_eq!(step(&["fig12", "--csv"]), Ok(2));
        assert_eq!(step(&["fig12", "--step", "5", "--csv"]), Ok(5));
        // A flag in the value slot is no number; `--at` counts from zero.
        let err = step(&["fig12", "--step", "--csv"]).unwrap_err();
        assert_eq!(err, r#"--step="--csv" is not an integer >= 1"#);
        assert_eq!(
            try_int_flag(&sv(&["fig12", "--at", "0"]), "--at", 1, 0),
            Ok(0)
        );
    }

    #[test]
    fn first_unknown_arg_skips_argv0_and_flag_values() {
        let unknown =
            |a: &[&str]| first_unknown_arg(&sv(a), &["--csv"], &["--step"]).map(str::to_string);
        assert_eq!(unknown(&["fig11"]), None);
        assert_eq!(unknown(&["fig11", "--step", "3", "--csv"]), None);
        // A value flag's value is never judged on its own, even when it
        // looks like a flag: `int_flag` rejects it with its own message.
        assert_eq!(unknown(&["fig11", "--step", "--bogus"]), None);
        assert_eq!(unknown(&["fig11", "--csv", "--step"]), None);
        assert_eq!(
            unknown(&["fig11", "--csv", "--bogus", "run"]).as_deref(),
            Some("--bogus")
        );
        assert_eq!(unknown(&["fig11", "run"]).as_deref(), Some("run"));
    }

    #[test]
    fn valueless_flag_is_an_error_naming_it() {
        for flag in ["--trace-out", "--metrics-out", "--cache-dir", "--threads"] {
            for argv in [
                sv(&["mlc", "fig09", flag]),
                sv(&["mlc", &format!("{flag}="), "fig09"]),
            ] {
                let err = TelemetryCli::try_extract(argv).unwrap_err();
                assert_eq!(err, format!("{flag} needs a value"));
            }
        }
    }

    #[test]
    fn flag_in_a_value_slot_is_not_swallowed_as_a_path() {
        let err = TelemetryCli::try_extract(sv(&[
            "mlc",
            "--trace-out",
            "--metrics-out",
            "m.json",
            "dot512",
        ]))
        .unwrap_err();
        assert_eq!(err, "--trace-out needs a value, got the flag --metrics-out");
        // The `=` spelling takes its value verbatim, dashes included.
        let (mut t, rest) =
            TelemetryCli::try_extract(sv(&["mlc", "--trace-out=--odd.jsonl", "dot512"])).unwrap();
        assert_eq!(t.trace_out.as_deref(), Some(Path::new("--odd.jsonl")));
        assert_eq!(rest, sv(&["mlc", "dot512"]));
        t.finished = true; // keep Drop from writing the trace
    }

    #[test]
    fn no_flags_means_disabled_and_untouched_args() {
        let (mut t, rest) = TelemetryCli::extract(sv(&["mlc", "list"]));
        assert!(!t.is_enabled());
        assert_eq!(rest, sv(&["mlc", "list"]));
        t.finish().unwrap(); // no paths: writes nothing, errors nothing
    }

    #[test]
    fn drop_writes_requested_files() {
        let dir = std::env::temp_dir().join("mlc-telemetry-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("drop.jsonl");
        let metrics = dir.join("drop.csv");
        {
            let (mut t, _) = TelemetryCli::extract(sv(&[
                "x",
                "--trace-out",
                trace.to_str().unwrap(),
                "--metrics-out",
                metrics.to_str().unwrap(),
            ]));
            let s = t.telemetry.tracer.begin("work");
            t.telemetry.tracer.end(s);
            t.telemetry.metrics.count("rows", 3);
            // no explicit finish: Drop writes both files
        }
        assert!(std::fs::read_to_string(&trace)
            .unwrap()
            .contains("\"work\""));
        assert!(std::fs::read_to_string(&metrics).unwrap().contains("rows"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
