//! Figure 9: miss rates and execution-time improvements for PAD and
//! MULTILVLPAD.
//!
//! Three versions per program — Orig, "L1 Opt" (PAD against the 16 KB L1),
//! "L1&L2 Opt" (MULTILVLPAD against the virtual `(S1, Lmax)` cache) — are
//! simulated on the UltraSparc-I hierarchy (both graphs of miss rates), and
//! the programs with large simulated changes are then wall-clock timed on
//! the host (the improvement graph).
//!
//! ```text
//! cargo run --release -p mlc-experiments --bin fig09 [--csv] [--no-timing]
//! ```

use mlc_cache_sim::HierarchyConfig;
use mlc_core::exec::execute;
use mlc_core::par::default_threads;
use mlc_experiments::sim::simulate_versions;
use mlc_experiments::table::pct;
use mlc_experiments::timing::{improvement_pct, time_kernel};
use mlc_experiments::versions::{build_versions, OptLevel};
use mlc_experiments::{Table, TelemetryCli};
use mlc_kernels::all_kernels;

fn main() {
    let (mut tcli, args) = TelemetryCli::from_env();
    let tel = &mut tcli.telemetry;
    let csv = args.iter().any(|a| a == "--csv");
    let no_timing = args.iter().any(|a| a == "--no-timing");
    let h = HierarchyConfig::ultrasparc_i();

    eprintln!(
        "fig09: simulating 3 versions x {} programs ...",
        all_kernels().len()
    );
    let sim_span = tel.tracer.begin("fig09.simulate");
    let names: Vec<String> = all_kernels().iter().map(|k| k.name()).collect();
    let (results, report) = execute(names.clone(), default_threads(), |name| {
        let k = mlc_kernels::kernel_by_name(name).unwrap();
        let v = build_versions(&k.model(), &h, OptLevel::Conflict);
        let r = simulate_versions(&v, &h);
        (v, r)
    });
    tel.tracer.attr(sim_span, "programs", names.len() as u64);
    tel.tracer.end(sim_span);
    report.install_metrics(&mut tel.metrics, "exec");
    for (name, (v, r)) in names.iter().zip(&results) {
        tel.metrics
            .set_value(&format!("fig09.{name}.l1.orig"), r.orig.miss_rate(0));
        tel.metrics
            .set_value(&format!("fig09.{name}.l1.l1l2"), r.l1l2.miss_rate(0));
        tel.metrics
            .set_value(&format!("fig09.{name}.l2.orig"), r.orig.miss_rate(1));
        tel.metrics
            .set_value(&format!("fig09.{name}.l2.l1l2"), r.l1l2.miss_rate(1));
        tel.metrics
            .count("fig09.padding_bytes", v.l1l2.report.padding_bytes);
        tel.metrics.count("fig09.programs", 1);
    }

    let mut t = Table::new(&[
        "program",
        "L1 Orig",
        "L1 L1Opt",
        "L1 L1&L2",
        "L2 Orig",
        "L2 L1Opt",
        "L2 L1&L2",
        "pad L1Opt",
        "pad L1&L2",
    ]);
    for (name, (v, r)) in names.iter().zip(&results) {
        t.row(vec![
            name.clone(),
            pct(r.orig.miss_rate(0)),
            pct(r.l1.miss_rate(0)),
            pct(r.l1l2.miss_rate(0)),
            pct(r.orig.miss_rate(1)),
            pct(r.l1.miss_rate(1)),
            pct(r.l1l2.miss_rate(1)),
            format!("{}B", v.l1.report.padding_bytes),
            format!("{}B", v.l1l2.report.padding_bytes),
        ]);
    }
    println!("Figure 9 (top): simulated miss rates, PAD vs MULTILVLPAD");
    println!("(miss rate = misses at that level / total references, per Section 6.1)\n");
    println!("{}", if csv { t.to_csv() } else { t.render() });

    if no_timing {
        return;
    }

    // Timing graph: the paper times "programs showing large miss rate
    // changes in cache simulations".
    let interesting: Vec<(usize, &String)> = names
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let r = &results[*i].1;
            r.orig.miss_rate(0) - r.l1.miss_rate(0) > 0.02
                || r.orig.miss_rate(1) - r.l1l2.miss_rate(1) > 0.01
        })
        .collect();
    eprintln!(
        "fig09: timing {} programs with large miss-rate changes ...",
        interesting.len()
    );
    let time_span = tel.tracer.begin("fig09.time");
    tel.tracer
        .attr(time_span, "programs", interesting.len() as u64);

    let mut tt = Table::new(&["program", "Orig (s)", "L1Opt impr", "L1&L2 impr"]);
    for (i, name) in interesting {
        let k = mlc_kernels::kernel_by_name(name).unwrap();
        let v = &results[i].0;
        // Pick sweeps so each measurement is ~O(100 ms).
        let sweeps = (50_000_000 / k.flops().max(1)).clamp(1, 50) as usize;
        let t_orig = time_kernel(k.as_ref(), &v.orig_layout, sweeps, 3);
        let t_l1 = time_kernel(k.as_ref(), &v.l1.layout, sweeps, 3);
        let t_l1l2 = time_kernel(k.as_ref(), &v.l1l2.layout, sweeps, 3);
        tt.row(vec![
            name.clone(),
            format!("{t_orig:.4}"),
            format!("{:.1}%", improvement_pct(t_orig, t_l1)),
            format!("{:.1}%", improvement_pct(t_orig, t_l1l2)),
        ]);
    }
    tel.tracer.end(time_span);
    println!("Figure 9 (bottom): host execution-time improvement over Orig");
    println!("(paper: improvements mostly from L1 padding; multi-level padding adds little)\n");
    println!("{}", if csv { tt.to_csv() } else { tt.render() });
}
