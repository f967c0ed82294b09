//! Figure 12: change in L2 references, memory references, and miss rates as
//! a result of fusing two loops in EXPL, over problem sizes 250-700.
//!
//! Methodology (Section 6.4):
//! * "using reuse statistics available through GROUPPAD compiler analysis"
//!   count the static L2 references (miss L1, hit L2) and memory references
//!   (miss both) of the original and fused versions, assuming GROUPPAD +
//!   L2MAXPAD layouts;
//! * simulate L1/L2 miss rates before and after fusion, with the fused
//!   version's misses normalized by the *original* version's reference
//!   count ("to account for a decrease in the reference count associated
//!   with fusion").
//!
//! The fused pair is EXPL's loop 76/77 (`calc_uv` + `update_rz`); its
//! semantics-preserving form needs shift-and-peel, so the model-level
//! fusion is `fuse_unchecked` (identical access pattern; see
//! `mlc_model::transform::fuse_unchecked`).
//!
//! ```text
//! cargo run --release -p mlc-experiments --bin fig12 [--step K] [--at I] [--csv]
//! ```

use mlc_cache_sim::HierarchyConfig;
use mlc_core::exec::execute;
use mlc_core::fusion::reuse_layout;
use mlc_core::group::account;
use mlc_core::par::default_threads;
use mlc_experiments::sim::simulate_one;
use mlc_experiments::{int_flag, reject_unknown_args, Table, TelemetryCli};
use mlc_kernels::expl::Expl;
use mlc_kernels::Kernel;
use mlc_model::transform::fuse_unchecked_in_program;

fn main() {
    let (mut tcli, args) = TelemetryCli::from_env();
    reject_unknown_args(&args, &["--csv"], &["--step", "--at"]);
    let tel = &mut tcli.telemetry;
    let csv = args.iter().any(|a| a == "--csv");
    let step = int_flag(&args, "--step", 2, 1);
    // Which adjacent pair to fuse: 0 = calc_ab + calc_uv (loops 75+76, the
    // default — the pair with the Figure-12-style capacity tradeoff),
    // 1 = calc_uv + update_rz (loops 76+77).
    let at = int_flag(&args, "--at", 0, 0);
    let sizes: Vec<usize> = (250..=700).step_by(step).collect();
    let h = HierarchyConfig::ultrasparc_i();
    let (l1, l2) = (h.levels[0], h.levels[1]);

    eprintln!(
        "fig12: fusion deltas for EXPL (nests {at},{}) over {} sizes ...",
        at + 1,
        sizes.len()
    );
    let span = tel.tracer.begin("fig12.sweep");
    tel.tracer.attr(span, "sizes", sizes.len() as u64);
    tel.tracer.attr(span, "fuse_at", at as u64);
    let (rows, report) = execute(sizes, default_threads(), |&n| {
        let p = Expl::new(n).model();
        let fused = fuse_unchecked_in_program(&p, at).expect("headers match");

        // Static accounting under GROUPPAD + L2MAXPAD layouts.
        let lay_before = reuse_layout(&p, l1, l2);
        let lay_after = reuse_layout(&fused, l1, l2);
        let acc_before = account(&p, &lay_before, l1, Some(l2));
        let acc_after = account(&fused, &lay_after, l1, Some(l2));
        let d_l2 = acc_after.l2_refs as i64 - acc_before.l2_refs as i64;
        let d_mem = acc_after.memory_refs as i64 - acc_before.memory_refs as i64;

        // Simulated miss rates, normalized to the ORIGINAL reference count.
        let r_before = simulate_one(&p, &lay_before, &h);
        let orig_refs = r_before.total_references;
        let r_after = simulate_one(&fused, &lay_after, &h).normalized_to(orig_refs);
        let d_l1_rate = r_after.miss_rate(0) - r_before.miss_rate(0);
        let d_l2_rate = r_after.miss_rate(1) - r_before.miss_rate(1);
        (n, d_l2, d_mem, d_l1_rate, d_l2_rate)
    });
    tel.tracer.end(span);
    tel.metrics.count("fig12.sizes", rows.len() as u64);
    report.install_metrics(&mut tel.metrics, "exec");

    let mut t = Table::new(&["N", "dL2refs", "dMemRefs", "dL1 rate", "dL2 rate"]);
    for &(n, d_l2, d_mem, d1, d2) in &rows {
        t.row(vec![
            n.to_string(),
            format!("{d_l2:+}"),
            format!("{d_mem:+}"),
            format!("{:+.3}%", 100.0 * d1),
            format!("{:+.3}%", 100.0 * d2),
        ]);
    }
    println!("Figure 12: change in L2 refs, memory refs, and miss rates from fusing");
    println!("EXPL's loops (fused - original)\n");
    println!("{}", if csv { t.to_csv() } else { t.render() });

    // Summary of the paper's observations.
    let mem_deltas: Vec<i64> = rows.iter().map(|r| r.2).collect();
    let l2_deltas: Vec<i64> = rows.iter().map(|r| r.1).collect();
    println!(
        "memory-ref delta: min {}, max {} (paper: constant decrease)",
        mem_deltas.iter().min().unwrap(),
        mem_deltas.iter().max().unwrap()
    );
    println!(
        "L2-ref delta: min {}, max {} (paper: alternates/plateaus, ~0 for large N)",
        l2_deltas.iter().min().unwrap(),
        l2_deltas.iter().max().unwrap()
    );
    // Correlation between the static L2-ref delta and the simulated dL1 rate
    // ("a nearly linear relationship between the computed reference counts
    // and the changes in cache miss rates").
    let xs: Vec<f64> = rows.iter().map(|r| r.1 as f64).collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.3).collect();
    let corr = correlation(&xs, &ys);
    tel.metrics.set_value("fig12.corr_dl2refs_dl1rate", corr);
    println!("corr(dL2refs, dL1 miss rate) = {corr:.3} (paper: strongly positive)");
}

fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}
