//! `run`, `compare` and `selftest`: each workload runs in a worker process
//! of its own, so process-wide switches and counters never leak between
//! workloads and `peak_rss_mb` is per workload.

use crate::spec::{spec, Metric};
use crate::stats::{median, paired_gain, quartiles, within_bound};
use crate::worker::thread_budget;
use crate::workloads::Workload;
use mlc_telemetry::bench_report::EnvInfo;
use mlc_telemetry::json::JsonValue;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What `run` is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Input seed of every worker.
    pub seed: u64,
    /// Untraced runs per workload.
    pub runs: usize,
    /// Seconds each run measures.
    pub seconds: f64,
    /// Directory the stamped results file goes to.
    pub out: PathBuf,
    /// When set, one traced run per workload writing its spans here.
    pub trace: Option<PathBuf>,
    /// Smoke mode: one pass over a few items.
    pub smoke: bool,
    /// Workloads to run.
    pub workloads: Vec<Workload>,
}

/// A worker's final stdout line, parsed.
#[derive(Debug, Clone)]
struct WorkerLine {
    attempted: u64,
    failed: u64,
    doc: JsonValue,
}

/// Run one worker process to completion.
fn spawn_worker(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: Option<&Path>,
    smoke: bool,
    corrupt: bool,
) -> Result<(bool, Option<WorkerLine>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace.is_some() { "1" } else { "0" }]);
    if let Some(dir) = trace {
        cmd.arg("--trace-dir").arg(dir);
    }
    if smoke {
        cmd.arg("--smoke");
    }
    if corrupt {
        cmd.arg("--corrupt-reference");
    }
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the {} worker: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .and_then(|l| JsonValue::parse(l).ok())
        .and_then(|doc| {
            Some(WorkerLine {
                attempted: doc.get("attempted")?.as_u64()?,
                failed: doc.get("failed")?.as_u64()?,
                doc,
            })
        });
    Ok((out.status.success(), line))
}

fn metric_value(line: &JsonValue, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn env_stamp(seed: u64, seconds: f64, smoke: bool) -> JsonValue {
    let env = EnvInfo::capture();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    JsonValue::object(vec![
        ("nproc", JsonValue::from(nproc as u64)),
        ("threads", JsonValue::from(thread_budget() as u64)),
        ("seed", JsonValue::from(seed)),
        ("seconds", JsonValue::Num(seconds)),
        ("smoke", JsonValue::from(smoke)),
        ("commit", JsonValue::from(env.commit)),
        ("rustc", JsonValue::from(env.rustc)),
        ("profile", JsonValue::from(env.profile)),
        ("timestamp", JsonValue::from(env.timestamp)),
        ("host", JsonValue::from(env.host)),
    ])
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (1e-3..1e6).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// Run every workload `runs` times (plus one traced run each when asked),
/// print every metric by name with its unit, and write a stamped results
/// file. Returns whether every output matched its reference.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let spec = spec();
    let stamp = env_stamp(args.seed, args.seconds, args.smoke);
    let length = if args.smoke {
        "smoke: one pass".to_string()
    } else {
        format!("{} s per run", args.seconds)
    };
    println!(
        "mlc-benchmark: {} run(s) x {} workload(s) | {length} | {}",
        args.runs,
        args.workloads.len(),
        stamp.to_string_compact()
    );
    let mut ok = true;
    let mut records = Vec::new();
    for run in 0..args.runs {
        for &w in &args.workloads {
            let (success, line) =
                spawn_worker(w, args.seed, args.seconds, None, args.smoke, false)?;
            let Some(line) = line else {
                eprintln!("{}: worker exited without a result", w.name());
                ok = false;
                continue;
            };
            ok &= success && line.failed == 0;
            let values: Vec<String> = spec
                .end_to_end
                .iter()
                .map(|m| {
                    let v = metric_value(&line.doc, &m.name).map_or("-".into(), fmt_value);
                    format!("{} {v} {}", m.name, m.unit)
                })
                .collect();
            println!(
                "{:<12} run {}/{}: items {} failed {} | {}",
                w.name(),
                run + 1,
                args.runs,
                line.attempted,
                line.failed,
                values.join(" | ")
            );
            records.push(JsonValue::object(vec![
                ("workload", JsonValue::from(w.name())),
                ("run", JsonValue::from(run as u64)),
                ("result", line.doc),
            ]));
        }
    }

    println!(
        "\nend-to-end metrics: median [q1, q3] over {} run(s)",
        args.runs
    );
    for &w in &args.workloads {
        let lines: Vec<&JsonValue> = records
            .iter()
            .filter(|r| r.get("workload").and_then(JsonValue::as_str) == Some(w.name()))
            .filter_map(|r| r.get("result"))
            .collect();
        for m in &spec.end_to_end {
            let values: Vec<f64> = lines
                .iter()
                .filter_map(|l| metric_value(l, &m.name))
                .collect();
            print_summary_row(w, m, &values);
        }
        let total = |k: &str| lines.iter().filter_map(|l| l.get(k)?.as_u64()).sum::<u64>();
        let (attempted, failed) = (total("attempted"), total("failed"));
        println!(
            "{:<12} {:<20} {:>12} {:<8} ({failed} of {attempted} items)",
            w.name(),
            "error_rate",
            fmt_value(if attempted > 0 {
                failed as f64 / attempted as f64
            } else {
                1.0
            }),
            "ratio"
        );
    }

    let mut traced = Vec::new();
    if let Some(dir) = &args.trace {
        println!(
            "\nper-layer metrics (traced run, per traced pass; spans in {})",
            dir.display()
        );
        for &w in &args.workloads {
            let (success, line) =
                spawn_worker(w, args.seed, args.seconds, Some(dir), args.smoke, false)?;
            let Some(line) = line else {
                eprintln!("{}: traced worker exited without a result", w.name());
                ok = false;
                continue;
            };
            ok &= success && line.failed == 0;
            for m in &spec.per_layer {
                let v = metric_value(&line.doc, &m.name).map_or("-".into(), fmt_value);
                println!("{:<12} {:<36} {v:>14} {}", w.name(), m.name, m.unit);
            }
            traced.push(JsonValue::object(vec![
                ("workload", JsonValue::from(w.name())),
                ("result", line.doc),
            ]));
        }
    }

    let doc = JsonValue::object(vec![
        ("format", JsonValue::from(1u64)),
        ("env", stamp.clone()),
        ("runs", JsonValue::Array(records)),
        ("traced", JsonValue::Array(traced)),
    ]);
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let path = args.out.join(format!(
        "run-{}-seed{}.json",
        stamp
            .get("timestamp")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        args.seed
    ));
    std::fs::write(&path, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    if !ok {
        println!("FAILED: some item output did not match its reference (see FAIL lines above)");
    }
    Ok(ok)
}

fn print_summary_row(w: Workload, m: &Metric, values: &[f64]) {
    if values.is_empty() {
        println!("{:<12} {:<20} {:>12} {}", w.name(), m.name, "-", m.unit);
        return;
    }
    let (q1, q3) = quartiles(values);
    println!(
        "{:<12} {:<20} {:>12} {:<8} [{}, {}]",
        w.name(),
        m.name,
        fmt_value(median(values)),
        m.unit,
        fmt_value(q1),
        fmt_value(q3)
    );
}

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

/// The values of metric `name` of `workload` across a results file's runs,
/// in run order.
fn run_values(doc: &JsonValue, workload: &str, name: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("workload").and_then(JsonValue::as_str) == Some(workload))
        .filter_map(|r| metric_value(r.get("result")?, name))
        .collect()
}

/// Compare two results files metric by metric. Returns whether every
/// end-to-end metric of `b` is within its bound of `a` and `b` had no
/// failed items; refuses (errors) when the hosts or builds differ.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let spec = spec();
    let (a, b) = (load(a_path)?, load(b_path)?);
    for k in ["nproc", "threads", "profile", "seconds", "smoke"] {
        let get = |d: &JsonValue| {
            d.get("env")
                .and_then(|e| e.get(k))
                .map(JsonValue::to_string_compact)
        };
        if get(&a) != get(&b) {
            return Err(format!(
                "refusing to compare: {k} differs ({} vs {})",
                get(&a).unwrap_or_else(|| "missing".into()),
                get(&b).unwrap_or_else(|| "missing".into())
            ));
        }
    }
    println!(
        "{:<12} {:<14} {:>34} {:>34} {:>8} {:>6} {:>7} {:>6}",
        "workload",
        "metric",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "worse",
        "bound",
        "wins",
        "gain"
    );
    let mut ok = true;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (run_values(&a, w, &m.name), run_values(&b, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!(
                    "{} [{}, {}]",
                    fmt_value(median(v)),
                    fmt_value(q1),
                    fmt_value(q3)
                )
            };
            let worse = m.better.worse_by(median(&va), median(&vb));
            let bound = m.bound.unwrap_or(0.0);
            let within = within_bound(&va, &vb, m.better, bound);
            ok &= within;
            let g = paired_gain(&va, &vb, m.better);
            println!(
                "{w:<12} {:<14} {:>34} {:>34} {:>7.1}% {:>5.0}% {:>3}/{:<3} {:>6}{}",
                m.name,
                side(&va),
                side(&vb),
                100.0 * worse,
                100.0 * bound,
                g.wins,
                g.pairs,
                if g.gain { "yes" } else { "no" },
                if within { "" } else { "  REGRESSED" }
            );
        }
        let failed: u64 = b
            .get("runs")
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .iter()
            .filter(|r| r.get("workload").and_then(JsonValue::as_str) == Some(w.as_str()))
            .filter_map(|r| r.get("result")?.get("failed")?.as_u64())
            .sum();
        if failed > 0 {
            println!("{w:<12} B has {failed} failed items");
            ok = false;
        }
    }
    println!(
        "\n'worse' is B's median against A's, as a share of A's; 'gain' applies the paired rule \
         (B wins >= 9/10 of run pairs and the medians differ by more than A's interquartile range)."
    );
    Ok(ok)
}

/// The checker self-test: per workload, a clean smoke run must pass, and a
/// smoke run against a reference with one flipped count must report
/// exactly one failed item and exit non-zero.
pub fn selftest(workloads: &[Workload]) -> Result<bool, String> {
    let mut ok = true;
    for &w in workloads {
        let (clean_ok, clean) = spawn_worker(w, 0, 0.0, None, true, false)?;
        let clean_pass = clean_ok
            && clean
                .as_ref()
                .is_some_and(|l| l.failed == 0 && l.attempted > 0);
        let (corrupt_ok, corrupt) = spawn_worker(w, 0, 0.0, None, true, true)?;
        let caught = !corrupt_ok
            && corrupt.as_ref().is_some_and(|l| {
                l.failed == 1 && l.doc.get("correct") == Some(&JsonValue::Bool(false))
            });
        println!(
            "{:<12} clean smoke run passes: {:<3} | one flipped reference count caught as exactly one failed item with a non-zero exit: {}",
            w.name(),
            if clean_pass { "yes" } else { "NO" },
            if caught { "yes" } else { "NO" }
        );
        ok &= clean_pass && caught;
    }
    Ok(ok)
}
