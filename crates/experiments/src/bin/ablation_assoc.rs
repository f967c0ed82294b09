//! Associativity ablation.
//!
//! Section 2 claims: "simply treating k-way associative caches as
//! direct-mapped for locality optimizations achieves nearly all the benefits
//! of explicitly considering higher associativity." We pad assuming
//! direct-mapped caches, then simulate the same layouts on 1-, 2- and 4-way
//! versions of the UltraSparc hierarchy: if the claim holds, the padded
//! layouts stay good (and associativity alone shrinks the original's
//! conflicts anyway).
//!
//! ```text
//! cargo run --release -p mlc-experiments --bin ablation_assoc
//! ```

use mlc_cache_sim::HierarchyConfig;
use mlc_experiments::sim::simulate_one;
use mlc_experiments::table::pct;
use mlc_experiments::versions::{build_versions, OptLevel};
use mlc_experiments::{reject_unknown_args, Table, TelemetryCli};

const PROGRAMS: [&str; 4] = ["expl512", "jacobi512", "shal512", "dot512"];

fn main() {
    let (mut tcli, args) = TelemetryCli::from_env();
    reject_unknown_args(&args, &[], &[]);
    let tel = &mut tcli.telemetry;
    let dm = HierarchyConfig::ultrasparc_i();
    println!("Associativity ablation: layouts padded for DIRECT-MAPPED caches,");
    println!("simulated on k-way versions of the same hierarchy (LRU)\n");
    for name in PROGRAMS {
        let k = mlc_kernels::kernel_by_name(name).unwrap();
        let v = build_versions(&k.model(), &dm, OptLevel::Conflict);
        let mut t = Table::new(&["assoc", "L1 Orig", "L1 Padded", "L2 Orig", "L2 Padded"]);
        let span = tel.tracer.begin("ablation_assoc.program");
        tel.tracer.attr(span, "name", name);
        for assoc in [1usize, 2, 4] {
            let h = HierarchyConfig::ultrasparc_like_assoc(assoc);
            let orig = simulate_one(&v.orig_program, &v.orig_layout, &h);
            let opt = simulate_one(&v.l1l2.program, &v.l1l2.layout, &h);
            tel.metrics.set_value(
                &format!("ablation_assoc.{name}.{assoc}way.l1.orig"),
                orig.miss_rate(0),
            );
            tel.metrics.set_value(
                &format!("ablation_assoc.{name}.{assoc}way.l1.padded"),
                opt.miss_rate(0),
            );
            tel.metrics.count("ablation_assoc.simulations", 2);
            t.row(vec![
                format!("{assoc}-way"),
                pct(orig.miss_rate(0)),
                pct(opt.miss_rate(0)),
                pct(orig.miss_rate(1)),
                pct(opt.miss_rate(1)),
            ]);
        }
        tel.tracer.end(span);
        println!("{name}:\n{}", t.render());
    }
    println!("(expected shape: padded layouts remain at least as good on k-way caches;");
    println!(" associativity already absorbs some conflicts, so padding's margin shrinks.)");
}
