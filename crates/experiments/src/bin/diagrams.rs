//! Figures 3-5 and 7: cache layout diagrams for the Figure 2 example.
//!
//! Renders the PAD, GROUPPAD, and GROUPPAD+L2MAXPAD layouts of the paper's
//! running example, plus the fused variant, as ASCII diagrams.
//!
//! ```text
//! cargo run --release -p mlc-experiments --bin diagrams
//! ```

use mlc_cache_sim::CacheConfig;
use mlc_core::group::{account, exploited_count};
use mlc_core::group_pad::group_pad;
use mlc_core::maxpad::l2_max_pad;
use mlc_core::pad::pad;
use mlc_experiments::reject_unknown_args;
use mlc_model::diagram::render_program;
use mlc_model::program::figure2_example;
use mlc_model::transform::fuse_in_program;
use mlc_model::DataLayout;

fn main() {
    reject_unknown_args(&std::env::args().collect::<Vec<_>>(), &[], &[]);
    // Diagram scale matching the paper's figures: the cache is "slightly
    // more than double the common column size".
    let n = 60; // 480-byte columns
    let l1 = CacheConfig::direct_mapped(1024, 32);
    let l2 = CacheConfig::direct_mapped(8 * 1024, 64);
    let p = figure2_example(n);
    let width = 72;

    println!("== Original (contiguous) layout on the L1 cache ==");
    println!(
        "{}",
        render_program(&p, &DataLayout::contiguous(&p.arrays), l1, width)
    );

    println!("== Figure 3: PAD layout on the L1 cache ==");
    let r = pad(&p, l1);
    println!("pads: {:?} bytes", r.pads);
    println!("{}", render_program(&p, &r.layout, l1, width));
    println!(
        "references exploiting group reuse on L1: {}\n",
        exploited_count(&p, &r.layout, l1, &[])
    );

    println!("== Figure 4: GROUPPAD layout on the L1 cache ==");
    let g = group_pad(&p, l1);
    println!("pads: {:?} bytes", g.pads);
    println!("{}", render_program(&p, &g.layout, l1, width));
    println!(
        "references exploiting group reuse on L1: {}\n",
        exploited_count(&p, &g.layout, l1, &[])
    );

    println!("== Figure 5: GROUPPAD + L2MAXPAD layout on the L2 cache ==");
    let m = l2_max_pad(&p, l1, l2, &g.pads).expect("nested hierarchy");
    println!("pads: {:?} bytes", m.pads);
    println!("{}", render_program(&p, &m.layout, l2, width));
    let acc = account(&p, &m.layout, l1, Some(l2));
    println!(
        "classification: {} L1-group, {} L2, {} memory\n",
        acc.l1_refs, acc.l2_refs, acc.memory_refs
    );

    println!("== Figure 7: GROUPPAD layout of the *fused* nest on the L1 cache ==");
    let fused = fuse_in_program(&p, 0).expect("figure 2 fuses legally");
    let gf = group_pad(&fused, l1);
    println!("pads: {:?} bytes", gf.pads);
    println!("{}", render_program(&fused, &gf.layout, l1, width));
    println!(
        "references exploiting group reuse on L1 after fusion: {}",
        exploited_count(&fused, &gf.layout, l1, &[])
    );
}
