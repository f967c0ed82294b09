//! Figure 11: cache miss rates over varying problem sizes for GROUPPAD with
//! and without L2MAXPAD.
//!
//! EXPL and SHAL swept from N=250 to 520: "L1 Opt (GROUPPAD alone)
//! experiences clusters of problem sizes where L2 miss rates increase by up
//! to 5%. The L1&L2 Opt versions avoid these increases."
//!
//! ```text
//! cargo run --release -p mlc-experiments --bin fig11 [--step K] [--csv]
//! ```

use mlc_cache_sim::HierarchyConfig;
use mlc_core::exec::execute;
use mlc_core::par::default_threads;
use mlc_experiments::sim::simulate_one;
use mlc_experiments::versions::{build_versions, OptLevel};
use mlc_experiments::{int_flag, reject_unknown_args, Table, TelemetryCli};
use mlc_kernels::expl::Expl;
use mlc_kernels::shal::Shallow;
use mlc_kernels::Kernel;
use mlc_telemetry::Telemetry;

fn sweep(
    name: &str,
    model_of: impl Fn(usize) -> mlc_model::Program + Sync,
    sizes: &[usize],
    csv: bool,
    tel: &mut Telemetry,
) {
    let h = HierarchyConfig::ultrasparc_i();
    eprintln!("fig11: sweeping {name} over {} sizes ...", sizes.len());
    let span = tel.tracer.begin("fig11.sweep");
    tel.tracer.attr(span, "program", name);
    tel.tracer.attr(span, "sizes", sizes.len() as u64);
    let (rows, report) = execute(sizes.to_vec(), default_threads(), |&n| {
        let p = model_of(n);
        let v = build_versions(&p, &h, OptLevel::GroupReuse);
        let r1 = simulate_one(&v.l1.program, &v.l1.layout, &h);
        let r2 = simulate_one(&v.l1l2.program, &v.l1l2.layout, &h);
        (n, r1, r2)
    });
    report.install_metrics(&mut tel.metrics, "exec");
    let mut t = Table::new(&["N", "L1 w/L1Opt", "L1 w/L1&L2", "L2 w/L1Opt", "L2 w/L1&L2"]);
    let mut max_l2_gap = (0usize, 0.0f64);
    for (n, r1, r2) in &rows {
        let gap = r1.miss_rate(1) - r2.miss_rate(1);
        if gap > max_l2_gap.1 {
            max_l2_gap = (*n, gap);
        }
        t.row(vec![
            n.to_string(),
            format!("{:.2}", 100.0 * r1.miss_rate(0)),
            format!("{:.2}", 100.0 * r2.miss_rate(0)),
            format!("{:.2}", 100.0 * r1.miss_rate(1)),
            format!("{:.2}", 100.0 * r2.miss_rate(1)),
        ]);
    }
    tel.tracer.attr(span, "max_l2_gap_at", max_l2_gap.0 as u64);
    tel.tracer.end(span);
    tel.metrics
        .count(&format!("fig11.{name}.sizes"), sizes.len() as u64);
    tel.metrics
        .set_value(&format!("fig11.{name}.max_l2_gap"), max_l2_gap.1);
    println!("Figure 11 — {name}: miss rates (%) over problem size");
    println!("{}", if csv { t.to_csv() } else { t.render() });
    println!(
        "largest L2 gap (L1Opt - L1&L2Opt): {:.2}% at N={}\n",
        100.0 * max_l2_gap.1,
        max_l2_gap.0
    );
}

fn main() {
    let (mut tcli, args) = TelemetryCli::from_env();
    reject_unknown_args(&args, &["--csv"], &["--step"]);
    let tel = &mut tcli.telemetry;
    let csv = args.iter().any(|a| a == "--csv");
    let step = int_flag(&args, "--step", 1, 1);
    let sizes: Vec<usize> = (250..=520).step_by(step).collect();

    sweep("EXPL", |n| Expl::new(n).model(), &sizes, csv, tel);
    sweep("SHAL", |n| Shallow::shal(n).model(), &sizes, csv, tel);

    println!("(paper: both versions share L1 rates; GROUPPAD-alone shows clusters of");
    println!(" sizes with up to ~5% higher L2 rates; L2MAXPAD's L2 curve stays flat.)");
}
