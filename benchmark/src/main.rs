//! End-to-end benchmark for the reproduction: regenerates the paper's
//! artifacts through the library's public calls on four workloads,
//! checks every output against committed references, and reports host-time
//! metrics plus a traced per-layer breakdown. See `README.md`.

mod expected;
mod procfs;
mod report;
mod spec;
mod stats;
mod trace;
mod worker;
mod workloads;

use mlc_telemetry::json::JsonValue;
use std::path::PathBuf;
use std::str::FromStr;
use workloads::{Workload, PACKAGE_DIR};

const USAGE: &str = "\
usage:
  mlc-benchmark run [--seed S] [--runs N] [--seconds T] [--out DIR] [--trace DIR] [--smoke] [--workload W]...
  mlc-benchmark worker --workload W [--seed S] [--seconds T] [--trace 0|1] [--trace-dir DIR] [--smoke] [--corrupt-reference]
  mlc-benchmark compare A.json B.json
  mlc-benchmark selftest [--workload W]...
  mlc-benchmark gen-expected [--out PATH]
workloads: grid_cold sizes_cold sizes_warm layout_grid";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = dispatch(&args).unwrap_or_else(|e| {
        eprintln!("mlc-benchmark: {e}\n{USAGE}");
        2
    });
    std::process::exit(code);
}

/// Parsed `--flag value` options, boolean flags and positional arguments.
struct Opts {
    values: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Opts {
    fn parse(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Opts, String> {
        let mut opts = Opts {
            values: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if value_flags.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                opts.values.push((a.clone(), v.clone()));
            } else if bool_flags.contains(&a.as_str()) {
                opts.flags.push(a.clone());
            } else if a.starts_with("--") {
                return Err(format!("unknown option {a}"));
            } else {
                opts.positional.push(a.clone());
            }
        }
        Ok(opts)
    }

    fn get(&self, k: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == k)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: FromStr>(&self, k: &str, default: T) -> Result<T, String> {
        self.get(k).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{k} {v:?} is not a number"))
        })
    }

    fn flag(&self, k: &str) -> bool {
        self.flags.iter().any(|f| f == k)
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        let named: Vec<Workload> = self
            .values
            .iter()
            .filter(|(f, _)| f == "--workload")
            .map(|(_, v)| Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}")))
            .collect::<Result<_, _>>()?;
        Ok(if named.is_empty() {
            Workload::ALL.to_vec()
        } else {
            named
        })
    }
}

fn seconds(opts: &Opts) -> Result<f64, String> {
    let s = opts.num("--seconds", spec::spec().run_seconds)?;
    if s.is_finite() && s >= 0.0 {
        Ok(s)
    } else {
        Err(format!("--seconds {s} must be a non-negative number"))
    }
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let results = PathBuf::from(PACKAGE_DIR).join("results");
    match cmd.as_str() {
        "worker" => {
            let o = Opts::parse(
                rest,
                &[
                    "--workload",
                    "--seed",
                    "--seconds",
                    "--trace",
                    "--trace-dir",
                ],
                &["--smoke", "--corrupt-reference"],
            )?;
            let workload = o.get("--workload").ok_or("worker needs --workload")?;
            let args = worker::WorkerArgs {
                workload: Workload::parse(workload)
                    .ok_or_else(|| format!("unknown workload {workload:?}"))?,
                seed: o.num("--seed", 0)?,
                seconds: seconds(&o)?,
                trace: match o.get("--trace").unwrap_or("0") {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                },
                trace_dir: o
                    .get("--trace-dir")
                    .map_or(results.join("trace"), PathBuf::from),
                smoke: o.flag("--smoke"),
                corrupt_reference: o.flag("--corrupt-reference"),
            };
            let r = worker::run_worker(&args)?;
            let spec = spec::spec();
            let wanted = if args.trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            let mut metrics = Vec::with_capacity(wanted.len());
            for m in wanted {
                let v = *r
                    .metrics
                    .get(m.name.as_str())
                    .ok_or_else(|| format!("worker computed no {}", m.name))?;
                if !v.is_finite() {
                    return Err(format!("{} is {v}", m.name));
                }
                let value = JsonValue::object(vec![
                    ("value", JsonValue::Num(v)),
                    ("unit", JsonValue::from(m.unit.as_str())),
                ]);
                metrics.push((m.name.clone(), value));
            }
            let line = JsonValue::object(vec![
                ("correct", JsonValue::from(r.failed == 0)),
                ("attempted", JsonValue::from(r.attempted)),
                ("failed", JsonValue::from(r.failed)),
                ("metrics", JsonValue::Object(metrics)),
            ]);
            println!("{}", line.to_string_compact());
            Ok(if r.failed == 0 { 0 } else { 1 })
        }
        "run" => {
            let o = Opts::parse(
                rest,
                &[
                    "--seed",
                    "--runs",
                    "--seconds",
                    "--out",
                    "--trace",
                    "--workload",
                ],
                &["--smoke"],
            )?;
            let args = report::RunArgs {
                seed: o.num("--seed", 0)?,
                runs: o.num("--runs", 1)?,
                seconds: seconds(&o)?,
                out: o.get("--out").map_or(results, PathBuf::from),
                trace: o.get("--trace").map(PathBuf::from),
                smoke: o.flag("--smoke"),
                workloads: o.workloads()?,
            };
            Ok(if report::run(&args)? { 0 } else { 1 })
        }
        "compare" => {
            let o = Opts::parse(rest, &[], &[])?;
            let [a, b] = o.positional.as_slice() else {
                return Err("compare takes two results files".into());
            };
            Ok(if report::compare(a.as_ref(), b.as_ref())? {
                0
            } else {
                1
            })
        }
        "selftest" => {
            let o = Opts::parse(rest, &["--workload"], &[])?;
            Ok(if report::selftest(&o.workloads()?)? {
                0
            } else {
                1
            })
        }
        "gen-expected" => {
            let o = Opts::parse(rest, &["--out"], &[])?;
            let out = o
                .get("--out")
                .map_or_else(workloads::expected_sizes_path, PathBuf::from);
            expected::gen_expected(&out, worker::thread_budget())?;
            Ok(0)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}
