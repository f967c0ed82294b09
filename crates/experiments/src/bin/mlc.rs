//! `mlc` — command-line driver for the multi-level-locality toolkit.
//!
//! ```text
//! mlc list                                   # registered programs
//! mlc simulate <program> [options]           # miss rates under a layout
//! mlc optimize <program> [options]           # run the padding pipeline
//! mlc diagram  <program> [--nest K]          # paper-style layout diagram
//! mlc time     <program> [--sweeps N]        # wall-clock a kernel
//! mlc <program>                              # shorthand: full pipeline + simulate
//!
//! options:
//!   --opt none|pad|multilvl|group|group+l2   # layout (default: none)
//!   --assoc K                                # k-way caches (default: 1)
//!   --l1 BYTES --l2 BYTES                    # cache sizes (default 16K/512K)
//!   --trace-out PATH                         # write a JSONL span/event trace
//!   --metrics-out PATH                       # write metrics JSON
//! ```
//!
//! Exit status 2 means bad input, reported before any work: an unknown
//! command, program, flag or `--opt`, a flag given twice, a value that
//! does not parse, or a cache geometry the simulator cannot build. 1 means
//! a failed run (writing the telemetry outputs).
//!
//! Run via `cargo run --release -p mlc-experiments --bin mlc -- <args>`.

use mlc_cache_sim::{CacheConfig, HierarchyConfig, ReplacementPolicy};
use mlc_core::pipeline::{optimize_traced, OptimizeOptions};
use mlc_core::try_steady_hierarchy_analytic;
use mlc_experiments::sim::{TIMED, WARMUP};
use mlc_experiments::timing::time_kernel;
use mlc_experiments::TelemetryCli;
use mlc_kernels::{all_kernels, kernel_by_name, Kernel};
use mlc_model::diagram::render_nest;
use mlc_model::trace_gen::simulate_classified;
use mlc_model::DataLayout;

struct Args {
    cmd: String,
    program: Option<String>,
    opt: String,
    assoc: usize,
    l1: usize,
    l2: usize,
    nest: usize,
    sweeps: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let argv = &argv[1.min(argv.len())..]; // drop the program path
    let mut a = Args {
        cmd: argv.first().cloned().unwrap_or_else(|| "help".into()),
        program: argv.get(1).filter(|s| !s.starts_with("--")).cloned(),
        opt: "none".into(),
        assoc: 1,
        l1: 16 * 1024,
        l2: 512 * 1024,
        nest: 0,
        sweeps: 3,
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 2;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if seen.contains(&flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag);
        let value = argv
            .get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<usize>()
                .map_err(|_| format!("{flag} needs a non-negative integer, got {v:?}"))
        };
        match flag {
            "--opt" => a.opt = value?,
            "--assoc" => a.assoc = number(value?)?,
            "--l1" => a.l1 = number(value?)?,
            "--l2" => a.l2 = number(value?)?,
            "--nest" => a.nest = number(value?)?,
            "--sweeps" => a.sweeps = number(value?)?,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(a)
}

/// One LRU cache level sized by `flag`, or an error naming the flag.
fn level(flag: &str, size: usize, line: usize, assoc: usize) -> Result<CacheConfig, String> {
    CacheConfig::try_new(size, line, assoc, ReplacementPolicy::Lru)
        .map_err(|e| format!("{flag} {size}: {e}"))
}

fn hierarchy(a: &Args) -> Result<HierarchyConfig, String> {
    HierarchyConfig::try_new(
        vec![
            level("--l1", a.l1, 32, a.assoc)?,
            level("--l2", a.l2, 64, a.assoc)?,
        ],
        vec![6.0, 50.0],
    )
    .map_err(|e| format!("--l1 {} with --l2 {}: {e}", a.l1, a.l2))
}

fn options(opt: &str) -> Option<Option<OptimizeOptions>> {
    // None = unknown; Some(None) = "none" (no optimization).
    match opt {
        "none" => Some(None),
        "pad" => Some(Some(OptimizeOptions::l1_pad())),
        "multilvl" => Some(Some(OptimizeOptions::multilvl())),
        "group" => Some(Some(OptimizeOptions::l1_group())),
        "group+l2" => Some(Some(OptimizeOptions::multilvl_group())),
        _ => None,
    }
}

fn bad_opt(opt: &str) -> String {
    format!("unknown --opt {opt} (none|pad|multilvl|group|group+l2)")
}

fn load(name: &Option<String>) -> Result<Box<dyn Kernel>, String> {
    let name = name.as_deref().ok_or("missing program name")?;
    kernel_by_name(name).ok_or_else(|| format!("unknown program '{name}' (try `mlc list`)"))
}

fn run(tcli: &mut TelemetryCli, argv: &[String]) -> Result<(), String> {
    let mut a = parse(argv)?;
    // `mlc <program>` shorthand: run the full pipeline and simulate it.
    if a.program.is_none() && kernel_by_name(&a.cmd).is_some() {
        a.program = Some(std::mem::replace(&mut a.cmd, "simulate".into()));
        if a.opt == "none" {
            a.opt = "group+l2".into();
        }
    }
    let tel = &mut tcli.telemetry;
    match a.cmd.as_str() {
        "list" => {
            println!(
                "{:<10} {:<38} {:>7} {:>6}",
                "name", "description", "arrays", "nests"
            );
            for k in all_kernels() {
                let m = k.model();
                println!(
                    "{:<10} {:<38} {:>7} {:>6}",
                    k.name(),
                    k.description(),
                    m.arrays.len(),
                    m.nests.len()
                );
            }
            Ok(())
        }
        "simulate" => {
            let k = load(&a.program)?;
            let h = hierarchy(&a)?;
            let p = k.model();
            let root = tel.tracer.begin("simulate");
            tel.tracer.attr(root, "program", k.name());
            tel.tracer.attr(root, "opt", a.opt.as_str());
            let (program, layout, label) = match options(&a.opt).ok_or_else(|| bad_opt(&a.opt))? {
                None => (
                    p.clone(),
                    DataLayout::contiguous(&p.arrays),
                    "contiguous".to_string(),
                ),
                Some(opts) => {
                    let o = optimize_traced(&p, &h, &opts, tel);
                    (o.program, o.layout, a.opt.clone())
                }
            };
            // The miss rates and write-backs of one steady simulation (the
            // result cache keeps no write-backs, so it is not consulted).
            let steady = tel.tracer.begin("sim.steady");
            let hier = try_steady_hierarchy_analytic(&program, &layout, &h, WARMUP, TIMED)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name()));
            tel.tracer.end(steady);
            let r = hier.report();
            let wb = hier.writebacks();
            println!(
                "{} under {label} layout ({}-way, L1 {}B, L2 {}B):",
                k.name(),
                a.assoc,
                a.l1,
                a.l2
            );
            println!("  references: {}", r.total_references);
            println!(
                "  L1 miss rate: {:.2}%   write-backs: {}",
                r.miss_rate_pct(0),
                wb[0]
            );
            println!(
                "  L2 miss rate: {:.2}%   write-backs: {}",
                r.miss_rate_pct(1),
                wb[1]
            );
            if tel.is_enabled() {
                // One classified cold sweep for the 3C breakdown metrics.
                let span = tel.tracer.begin("sim.classified");
                let cls = simulate_classified(&program, &layout, &h);
                cls.install_metrics(&mut tel.metrics, "sim");
                tel.tracer.end(span);
                for (i, b) in cls.breakdowns().iter().enumerate() {
                    println!(
                        "  L{} cold-sweep misses: {} compulsory / {} capacity / {} conflict",
                        i + 1,
                        b.compulsory,
                        b.capacity,
                        b.conflict
                    );
                }
                tel.metrics.set_value("sim.l1.miss_rate", r.miss_rate(0));
                tel.metrics.set_value("sim.l2.miss_rate", r.miss_rate(1));
                tel.metrics.count("sim.references", r.total_references);
            }
            tel.tracer.end(root);
            Ok(())
        }
        "optimize" => {
            let k = load(&a.program)?;
            let h = hierarchy(&a)?;
            let opts = options(&a.opt)
                .ok_or_else(|| bad_opt(&a.opt))?
                .unwrap_or_else(OptimizeOptions::multilvl_group);
            let o = optimize_traced(&k.model(), &h, &opts, tel);
            println!("{}", o.report);
            println!("bases (bytes): {:?}", o.layout.bases);
            if tel.is_enabled() {
                eprintln!("\n{}", tel.tracer.render_text());
            }
            Ok(())
        }
        "diagram" => {
            let k = load(&a.program)?;
            let p = k.model();
            if a.nest >= p.nests.len() {
                return Err(format!("{} has {} nests", k.name(), p.nests.len()));
            }
            let layout = DataLayout::contiguous(&p.arrays);
            let cache = level("--l1", a.l1, 32, 1)?;
            println!("{}", render_nest(&p, &p.nests[a.nest], &layout, cache, 72));
            Ok(())
        }
        "show" => {
            let k = load(&a.program)?;
            println!("{}", mlc_model::pretty::render_program(&k.model()));
            Ok(())
        }
        "time" => {
            let k = load(&a.program)?;
            let p = k.model();
            let layout = DataLayout::contiguous(&p.arrays);
            let secs = time_kernel(k.as_ref(), &layout, a.sweeps, 3);
            let mflops = k.flops() as f64 * a.sweeps as f64 / secs / 1e6;
            println!(
                "{}: {} sweeps in {:.4}s ({:.0} MFLOPS)",
                k.name(),
                a.sweeps,
                secs,
                mflops
            );
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("mlc — multi-level-locality driver");
            println!("commands: list | simulate | optimize | diagram | show | time");
            println!("`mlc <program>` = optimize with the full pipeline + simulate");
            println!("all commands accept --trace-out PATH and --metrics-out PATH");
            println!("see the module docs (or README.md) for options");
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try `mlc help`)")),
    }
}

fn main() {
    let (mut tcli, argv) = TelemetryCli::from_env();
    let result = run(&mut tcli, &argv);
    if let Err(e) = tcli.finish() {
        eprintln!("mlc: telemetry output failed: {e}");
        std::process::exit(1);
    }
    if let Err(e) = result {
        // Every error `run` returns is bad input (see the module docs).
        eprintln!("mlc: {e}");
        std::process::exit(2);
    }
}
