//! Three-level hierarchy ablation.
//!
//! Section 3.3: the multi-level padding techniques "easily generalize to
//! three or more cache levels." We run PAD / MULTILVLPAD on an Alpha-21164-
//! like three-level hierarchy and report miss rates at all three levels.
//!
//! ```text
//! cargo run --release -p mlc-experiments --bin ablation_l3
//! ```

use mlc_cache_sim::HierarchyConfig;
use mlc_experiments::sim::simulate_one;
use mlc_experiments::table::pct;
use mlc_experiments::versions::{build_versions, OptLevel};
use mlc_experiments::{reject_unknown_args, Table, TelemetryCli};

const PROGRAMS: [&str; 3] = ["expl512", "jacobi512", "shal512"];

fn main() {
    let (mut tcli, args) = TelemetryCli::from_env();
    reject_unknown_args(&args, &[], &[]);
    let tel = &mut tcli.telemetry;
    let h = HierarchyConfig::alpha_21164_like();
    println!(
        "Three-level hierarchy ablation (Alpha 21164-like: {}K/{}K/{}M, lines {:?})\n",
        h.levels[0].size / 1024,
        h.levels[1].size / 1024,
        h.levels[2].size / (1024 * 1024),
        h.levels.iter().map(|l| l.line).collect::<Vec<_>>()
    );
    for name in PROGRAMS {
        let k = mlc_kernels::kernel_by_name(name).unwrap();
        let span = tel.tracer.begin("ablation_l3.program");
        tel.tracer.attr(span, "name", name);
        let v = build_versions(&k.model(), &h, OptLevel::Conflict);
        let orig = simulate_one(&v.orig_program, &v.orig_layout, &h);
        let l1 = simulate_one(&v.l1.program, &v.l1.layout, &h);
        let multi = simulate_one(&v.l1l2.program, &v.l1l2.layout, &h);
        tel.tracer.end(span);
        for lvl in 0..3 {
            let key = format!("ablation_l3.{name}.l{}", lvl + 1);
            tel.metrics
                .set_value(&format!("{key}.orig"), orig.miss_rate(lvl));
            tel.metrics
                .set_value(&format!("{key}.multi"), multi.miss_rate(lvl));
        }
        tel.metrics.count("ablation_l3.programs", 1);
        let mut t = Table::new(&["version", "L1", "L2", "L3", "padding"]);
        for (label, r, pad) in [
            ("Orig", &orig, 0),
            ("L1 Opt (PAD)", &l1, v.l1.report.padding_bytes),
            ("Multi (MULTILVLPAD)", &multi, v.l1l2.report.padding_bytes),
        ] {
            t.row(vec![
                label.to_string(),
                pct(r.miss_rate(0)),
                pct(r.miss_rate(1)),
                pct(r.miss_rate(2)),
                format!("{pad}B"),
            ]);
        }
        println!("{name}:\n{}", t.render());
    }
    println!("(expected shape: L1-targeted PAD already removes most misses at every");
    println!(" level; MULTILVLPAD's extra Lmax spacing changes little — the paper's");
    println!(" two-level conclusion carries to three levels.)");
}
