//! The process-wide `layout_search::stats` counters, in a test binary of
//! their own: no other search runs in this process, so the counters see
//! exactly the one call below.

use mlc_cache_sim::{CacheConfig, HierarchyConfig, ReplacementPolicy};
use mlc_core::layout_search::stats::{take_stats, LayoutSearchStats};
use mlc_core::search_morton;
use mlc_model::prelude::*;
use mlc_model::AffineExpr as E;

#[test]
fn take_stats_reports_one_search_and_resets() {
    // B(i,j) = A(j,i) on a 2 KB direct-mapped L1: both arrays win a word.
    let mut p = Program::new("transpose");
    let a = p.add_array(ArrayDecl::f64("A", vec![64, 64]));
    let b = p.add_array(ArrayDecl::f64("B", vec![64, 64]));
    p.add_nest(LoopNest::new(
        "t",
        vec![Loop::counted("j", 0, 63), Loop::counted("i", 0, 63)],
        vec![
            ArrayRef::read(a, vec![E::var("j"), E::var("i")]),
            ArrayRef::write(b, vec![E::var("i"), E::var("j")]),
        ],
    ));
    let h = HierarchyConfig::new(
        vec![
            CacheConfig::new(2048, 32, 1, ReplacementPolicy::Lru),
            CacheConfig::new(16384, 64, 2, ReplacementPolicy::Lru),
        ],
        vec![6.0, 50.0],
    );
    take_stats();
    let r = search_morton(&p, &[0, 0], &h).unwrap();
    assert_eq!(
        take_stats(),
        LayoutSearchStats {
            words_scored: r.choices.iter().map(|c| c.scored).sum(),
            words_pruned: r.choices.iter().map(|c| c.pruned).sum(),
            arrays_searched: 2,
            morton_wins: 2,
        }
    );
    assert_eq!(take_stats(), LayoutSearchStats::default());
}
