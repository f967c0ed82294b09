//! Section 4's worked example: the fusion accounting for Figure 2/6.
//!
//! ```text
//! cargo run --release -p mlc-experiments --bin fusion_example
//! ```

use mlc_cache_sim::{CacheConfig, HierarchyConfig};
use mlc_core::fusion::{accounting_cost, fusion_profit};
use mlc_core::MissCosts;
use mlc_experiments::reject_unknown_args;
use mlc_model::program::figure2_example;

fn main() {
    reject_unknown_args(&std::env::args().collect::<Vec<_>>(), &[], &[]);
    let l1 = CacheConfig::direct_mapped(1024, 32);
    let l2 = CacheConfig::direct_mapped(8 * 1024, 64);
    let h = HierarchyConfig::new(vec![l1, l2], vec![6.0, 50.0]);
    let costs = MissCosts::from_hierarchy(&h);
    let p = figure2_example(60);

    let d = fusion_profit(&p, 0, l1, l2, &costs).expect("figure 2 fuses legally");
    println!("Section 4 worked example (Figure 2 -> Figure 6), diagram-scale caches\n");
    println!(
        "before fusion: {} L2 refs, {} memory refs, {} L1-group refs",
        d.before.l2_refs, d.before.memory_refs, d.before.l1_refs
    );
    println!(
        "after fusion:  {} L2 refs, {} memory refs, {} L1-group refs, {} register refs",
        d.after.l2_refs, d.after.memory_refs, d.after.l1_refs, d.after.register_refs
    );
    println!("\nchange in L2 references:     {:+}", d.delta_l2_refs);
    println!("change in memory references: {:+}", d.delta_memory_refs);
    println!(
        "weighted cost: {:.1} -> {:.1} cycles/iteration ({:+.1})",
        accounting_cost(&d.before, &costs),
        accounting_cost(&d.after, &costs),
        d.delta_cost
    );
    println!("\nfusion profitable: {}", d.profitable());
    println!("\n(The paper derives 5 -> 3 memory references and 2 -> 3 L2 references:");
    println!(" \"fusion has therefore saved two memory misses for arrays B and C\" at");
    println!(" the cost of one L2 reference, profitable whenever L2 misses cost more.)");
}
