//! Hardware-prefetch ablation.
//!
//! Section 2.2 notes that layout transformations which establish unit
//! stride also "exploit hardware prefetching". This ablation re-runs the
//! padding comparison with a next-line prefetcher at every level and asks
//! two questions:
//!
//! 1. does prefetching absorb *streaming* (spatial) misses? — yes, roughly
//!    halving line-granularity misses;
//! 2. does prefetching absorb *conflict* misses? — no: ping-ponging
//!    references need padding regardless, so the paper's padding results
//!    survive a prefetching memory system (a key modern-relevance check).
//!
//! ```text
//! cargo run --release -p mlc-experiments --bin ablation_prefetch
//! ```

use mlc_cache_sim::{Hierarchy, HierarchyConfig};
use mlc_experiments::table::pct;
use mlc_experiments::versions::{build_versions, OptLevel};
use mlc_experiments::{reject_unknown_args, Table, TelemetryCli};
use mlc_model::trace_gen::generate;

const PROGRAMS: [&str; 4] = ["dot512", "expl512", "jacobi512", "shal512"];

fn main() {
    let (mut tcli, args) = TelemetryCli::from_env();
    reject_unknown_args(&args, &[], &[]);
    let tel = &mut tcli.telemetry;
    let cfg = HierarchyConfig::ultrasparc_i();
    println!("Next-line prefetch ablation (prefetcher at both levels)\n");
    for name in PROGRAMS {
        let k = mlc_kernels::kernel_by_name(name).unwrap();
        let span = tel.tracer.begin("ablation_prefetch.program");
        tel.tracer.attr(span, "name", name);
        let v = build_versions(&k.model(), &cfg, OptLevel::Conflict);
        let mut t = Table::new(&["version", "L1 no-pf", "L1 pf", "L2 no-pf", "L2 pf"]);
        for (label, program, layout) in [
            ("Orig", &v.orig_program, &v.orig_layout),
            ("Padded", &v.l1l2.program, &v.l1l2.layout),
        ] {
            let run = |prefetch: bool| {
                let mut h = if prefetch {
                    Hierarchy::with_next_line_prefetch(cfg.clone())
                } else {
                    Hierarchy::new(cfg.clone())
                };
                generate(program, layout, &mut h); // warm-up sweep
                h.reset_stats();
                generate(program, layout, &mut h);
                h.report()
            };
            let plain = run(false);
            let pf = run(true);
            let key = format!("ablation_prefetch.{name}.{}", label.to_lowercase());
            tel.metrics
                .set_value(&format!("{key}.l1.plain"), plain.miss_rate(0));
            tel.metrics
                .set_value(&format!("{key}.l1.prefetch"), pf.miss_rate(0));
            tel.metrics.count("ablation_prefetch.simulations", 2);
            t.row(vec![
                label.to_string(),
                pct(plain.miss_rate(0)),
                pct(pf.miss_rate(0)),
                pct(plain.miss_rate(1)),
                pct(pf.miss_rate(1)),
            ]);
        }
        tel.tracer.end(span);
        println!("{name}:\n{}", t.render());
    }
    println!("(expected shape: prefetching roughly halves the *padded* versions' rates");
    println!(" — those are streaming misses — but barely dents the originals' ping-pong");
    println!(" conflicts. Padding and prefetching are complementary, not substitutes.)");
}
