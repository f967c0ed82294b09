//! Line-size sensitivity ablation.
//!
//! MULTILVLPAD's whole reason to exist is the L2's longer lines: PAD spaces
//! conflicting references one **L1** line apart, which can still share an
//! **L2** line. This ablation sweeps the L2 line size and reports how much
//! of the L2 conflict-miss reduction plain PAD captures vs MULTILVLPAD —
//! quantifying the paper's finding that "PAD is able to eliminate most L2
//! conflict misses by moving conflicting references apart by a distance
//! equal to an L1 cache line."
//!
//! ```text
//! cargo run --release -p mlc-experiments --bin ablation_line
//! ```

use mlc_cache_sim::{CacheConfig, HierarchyConfig};
use mlc_experiments::sim::simulate_one;
use mlc_experiments::table::pct;
use mlc_experiments::versions::{build_versions, OptLevel};
use mlc_experiments::{reject_unknown_args, Table, TelemetryCli};

fn main() {
    let (mut tcli, args) = TelemetryCli::from_env();
    reject_unknown_args(&args, &[], &[]);
    let tel = &mut tcli.telemetry;
    println!("L2 line-size ablation on dot512 (the kernel the paper's footnote singles");
    println!("out for line-size effects) and expl512\n");
    for name in ["dot512", "expl512"] {
        let k = mlc_kernels::kernel_by_name(name).unwrap();
        let span = tel.tracer.begin("ablation_line.program");
        tel.tracer.attr(span, "name", name);
        let mut t = Table::new(&[
            "L2 line",
            "L2 Orig",
            "L2 w/PAD",
            "L2 w/MULTILVL",
            "pad PAD",
            "pad MULTI",
        ]);
        for l2_line in [32usize, 64, 128, 256] {
            let h = HierarchyConfig::new(
                vec![
                    CacheConfig::direct_mapped(16 * 1024, 32),
                    CacheConfig::direct_mapped(512 * 1024, l2_line),
                ],
                vec![6.0, 50.0],
            );
            let v = build_versions(&k.model(), &h, OptLevel::Conflict);
            let orig = simulate_one(&v.orig_program, &v.orig_layout, &h);
            let l1 = simulate_one(&v.l1.program, &v.l1.layout, &h);
            let multi = simulate_one(&v.l1l2.program, &v.l1l2.layout, &h);
            let key = format!("ablation_line.{name}.line{l2_line}");
            tel.metrics
                .set_value(&format!("{key}.l2.orig"), orig.miss_rate(1));
            tel.metrics
                .set_value(&format!("{key}.l2.pad"), l1.miss_rate(1));
            tel.metrics
                .set_value(&format!("{key}.l2.multi"), multi.miss_rate(1));
            tel.metrics.count("ablation_line.simulations", 3);
            t.row(vec![
                format!("{l2_line}B"),
                pct(orig.miss_rate(1)),
                pct(l1.miss_rate(1)),
                pct(multi.miss_rate(1)),
                format!("{}B", v.l1.report.padding_bytes),
                format!("{}B", v.l1l2.report.padding_bytes),
            ]);
        }
        tel.tracer.end(span);
        println!("{name}:\n{}", t.render());
    }
    println!("(expected shape: PAD's one-L1-line spacing leaves references sharing the");
    println!(" longer L2 lines; MULTILVLPAD spaces by Lmax and stays clean as lines grow.)");
}
