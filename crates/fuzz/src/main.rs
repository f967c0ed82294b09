//! The `fuzz` binary: generate cases, run the oracle battery, shrink and
//! serialize any failure.
//!
//! ```text
//! cargo run --release -p mlc-fuzz -- --seed 0 --cases 500
//! ```
//!
//! Exit code 0 means every case passed every applicable oracle; 1 means at
//! least one violation was found (reproducers are written to the failures
//! directory); 2 means bad usage.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use mlc_fuzz::{check_case, corpus, shrink, Case, CaseConfig, ORACLES};
use mlc_telemetry::MetricsRegistry;

struct Options {
    seed: u64,
    cases: u64,
    max_arrays: usize,
    failures_dir: PathBuf,
    metrics_out: Option<PathBuf>,
    emit_case: Option<u64>,
}

const USAGE: &str = "usage: fuzz [--seed N] [--cases N] [--max-arrays N] \
[--failures-dir DIR] [--metrics-out FILE] [--emit-case SEED]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seed: 0,
        cases: 500,
        max_arrays: 4,
        failures_dir: PathBuf::from("fuzz-failures"),
        metrics_out: None,
        emit_case: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = parse_num(&value("--seed")?)?,
            "--cases" => opts.cases = parse_num(&value("--cases")?)?,
            "--max-arrays" => opts.max_arrays = parse_num(&value("--max-arrays")?)? as usize,
            "--failures-dir" => opts.failures_dir = PathBuf::from(value("--failures-dir")?),
            "--metrics-out" => opts.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--emit-case" => opts.emit_case = Some(parse_num(&value("--emit-case")?)?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if opts.cases == 0 {
        return Err("--cases must be positive".to_string());
    }
    if opts.max_arrays == 0 {
        return Err("--max-arrays must be positive".to_string());
    }
    Ok(opts)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("not a number: `{s}`"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::from(2);
        }
    };

    let mut cfg = CaseConfig::default();
    cfg.program.max_arrays = opts.max_arrays;

    // Corpus workflow helper: print the serialized case for one seed (under
    // the same generator config as the fuzz loop) and exit.
    if let Some(seed) = opts.emit_case {
        let case = Case::generate(seed, &cfg);
        match corpus::write_case(&case, None) {
            Ok(text) => {
                print!("{text}");
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("fuzz: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // The oracles probe panic paths on purpose (search exhaustion, injected
    // bugs); the default hook would spray backtraces over the progress log.
    std::panic::set_hook(Box::new(|_| {}));

    let mut metrics = MetricsRegistry::new();
    let mut failures = 0u64;

    for i in 0..opts.cases {
        let seed = opts.seed.wrapping_add(i);
        let case = Case::generate(seed, &cfg);
        let report = check_case(&case);

        metrics.count("fuzz_cases", 1);
        for oracle in &report.checked {
            metrics.count(&format!("fuzz_checked_{oracle}"), 1);
        }
        for skip in &report.skips {
            metrics.count(&format!("fuzz_skipped_{}", skip.oracle), 1);
        }

        for v in &report.violations {
            failures += 1;
            metrics.count(&format!("fuzz_violation_{}", v.oracle), 1);
            eprintln!(
                "seed {seed} [{}]: {} violated: {}",
                case.size_summary(),
                v.oracle,
                v.detail
            );
            let minimal = shrink(&case, v.oracle);
            eprintln!("  shrunk to {}", minimal.size_summary());
            match write_reproducer(&opts.failures_dir, seed, &minimal, v.oracle) {
                Ok(path) => eprintln!("  reproducer: {}", path.display()),
                Err(e) => eprintln!("  could not write reproducer: {e}"),
            }
        }

        if (i + 1) % 100 == 0 || i + 1 == opts.cases {
            eprintln!("[{}/{}] {} violations", i + 1, opts.cases, failures);
        }
    }

    let _ = std::panic::take_hook();

    if let Some(path) = &opts.metrics_out {
        if let Err(e) = std::fs::write(path, metrics.to_json_string()) {
            eprintln!("fuzz: writing {}: {e}", path.display());
        }
    }

    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "fuzz: {} cases from seed {}, {} violations",
        opts.cases, opts.seed, failures
    );
    for oracle in ORACLES {
        let _ = writeln!(
            out,
            "  {oracle}: {} checked, {} skipped, {} violations",
            metrics.counter(&format!("fuzz_checked_{oracle}")),
            metrics.counter(&format!("fuzz_skipped_{oracle}")),
            metrics.counter(&format!("fuzz_violation_{oracle}")),
        );
    }

    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Serialize a shrunk reproducer as `seed-<seed>-<oracle>.case` under `dir`.
fn write_reproducer(
    dir: &std::path::Path,
    seed: u64,
    case: &Case,
    oracle: &str,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let text = corpus::write_case(case, Some(oracle))?;
    let path = dir.join(format!("seed-{seed}-{oracle}.case"));
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}
