//! Figure 10: miss rates and execution-time improvements for GROUPPAD, with
//! and without L2MAXPAD.
//!
//! Five programs "with numerous opportunities for improving group reuse":
//! EXPL512, JACOBI512, SHAL512, SWIM, TOMCATV. "L1 Opt" = GROUPPAD alone;
//! "L1&L2 Opt" = GROUPPAD + L2MAXPAD.
//!
//! ```text
//! cargo run --release -p mlc-experiments --bin fig10 [--csv] [--no-timing]
//! ```

use mlc_cache_sim::HierarchyConfig;
use mlc_core::exec::execute;
use mlc_core::par::default_threads;
use mlc_experiments::sim::simulate_versions;
use mlc_experiments::table::pct;
use mlc_experiments::timing::{improvement_pct, time_kernel};
use mlc_experiments::versions::{build_versions, OptLevel};
use mlc_experiments::{reject_unknown_args, Table, TelemetryCli};

const PROGRAMS: [&str; 5] = ["expl512", "jacobi512", "shal512", "swim", "tomcatv"];

fn main() {
    let (mut tcli, args) = TelemetryCli::from_env();
    reject_unknown_args(&args, &["--csv", "--no-timing"], &[]);
    let tel = &mut tcli.telemetry;
    let csv = args.iter().any(|a| a == "--csv");
    let no_timing = args.iter().any(|a| a == "--no-timing");
    let h = HierarchyConfig::ultrasparc_i();

    eprintln!(
        "fig10: GROUPPAD / L2MAXPAD over {} programs ...",
        PROGRAMS.len()
    );
    let sim_span = tel.tracer.begin("fig10.simulate");
    let (results, report) = execute(PROGRAMS.to_vec(), default_threads(), |name| {
        let k = mlc_kernels::kernel_by_name(name).unwrap();
        let v = build_versions(&k.model(), &h, OptLevel::GroupReuse);
        let r = simulate_versions(&v, &h);
        (v, r)
    });
    tel.tracer.attr(sim_span, "programs", PROGRAMS.len() as u64);
    tel.tracer.end(sim_span);
    report.install_metrics(&mut tel.metrics, "exec");
    for (name, (v, r)) in PROGRAMS.iter().zip(&results) {
        tel.metrics
            .set_value(&format!("fig10.{name}.l1.orig"), r.orig.miss_rate(0));
        tel.metrics
            .set_value(&format!("fig10.{name}.l1.l1l2"), r.l1l2.miss_rate(0));
        tel.metrics
            .set_value(&format!("fig10.{name}.l2.orig"), r.orig.miss_rate(1));
        tel.metrics
            .set_value(&format!("fig10.{name}.l2.l1l2"), r.l1l2.miss_rate(1));
        tel.metrics
            .count("fig10.padding_bytes", v.l1l2.report.padding_bytes);
        tel.metrics.count("fig10.programs", 1);
    }

    let mut t = Table::new(&[
        "program", "L1 Orig", "L1 L1Opt", "L1 L1&L2", "L2 Orig", "L2 L1Opt", "L2 L1&L2",
    ]);
    for (name, (_, r)) in PROGRAMS.iter().zip(&results) {
        t.row(vec![
            name.to_string(),
            pct(r.orig.miss_rate(0)),
            pct(r.l1.miss_rate(0)),
            pct(r.l1l2.miss_rate(0)),
            pct(r.orig.miss_rate(1)),
            pct(r.l1.miss_rate(1)),
            pct(r.l1l2.miss_rate(1)),
        ]);
    }
    println!("Figure 10 (top): simulated miss rates, GROUPPAD vs GROUPPAD+L2MAXPAD\n");
    println!("{}", if csv { t.to_csv() } else { t.render() });

    if no_timing {
        return;
    }
    eprintln!("fig10: timing ...");
    let time_span = tel.tracer.begin("fig10.time");
    let mut tt = Table::new(&["program", "Orig (s)", "L1Opt impr", "L1&L2 impr"]);
    for (name, (v, _)) in PROGRAMS.iter().zip(&results) {
        let k = mlc_kernels::kernel_by_name(name).unwrap();
        let sweeps = (50_000_000 / k.flops().max(1)).clamp(1, 50) as usize;
        let t_orig = time_kernel(k.as_ref(), &v.orig_layout, sweeps, 3);
        let t_l1 = time_kernel(k.as_ref(), &v.l1.layout, sweeps, 3);
        let t_l1l2 = time_kernel(k.as_ref(), &v.l1l2.layout, sweeps, 3);
        tt.row(vec![
            name.to_string(),
            format!("{t_orig:.4}"),
            format!("{:.1}%", improvement_pct(t_orig, t_l1)),
            format!("{:.1}%", improvement_pct(t_orig, t_l1l2)),
        ]);
    }
    tel.tracer.end(time_span);
    println!("Figure 10 (bottom): host execution-time improvement over Orig");
    println!("(paper: small changes either way; L2 optimizations have little timing impact)\n");
    println!("{}", if csv { tt.to_csv() } else { tt.render() });
}
