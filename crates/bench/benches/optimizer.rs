//! Compile-time cost of the optimization algorithms themselves: the paper
//! argues these passes are cheap enough for a production compiler.
//!
//! ```text
//! cargo bench -p mlc-bench --bench optimizer
//! ```

use mlc_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlc_cache_sim::HierarchyConfig;
use mlc_core::fusion::fusion_profit;
use mlc_core::group_pad::{group_pad, group_pad_multi, group_pad_multi_exhaustive};
use mlc_core::pad::{multilvl_pad, pad};
use mlc_core::tiling::{select_tile, TilePolicy};
use mlc_core::MissCosts;
use mlc_kernels::kernel_by_name;
#[allow(unused_imports)]
use mlc_kernels::Kernel;
use mlc_model::program::figure2_example;

fn bench_optimizer(c: &mut Criterion) {
    let h = HierarchyConfig::ultrasparc_i();
    let mut g = c.benchmark_group("optimizer");

    for name in ["expl512", "shal512"] {
        let k = kernel_by_name(name).unwrap();
        let p = k.model();
        g.bench_with_input(BenchmarkId::new("pad", name), &(), |b, _| {
            b.iter(|| pad(&p, h.l1()));
        });
        g.bench_with_input(BenchmarkId::new("multilvl_pad", name), &(), |b, _| {
            b.iter(|| multilvl_pad(&p, &h));
        });
        g.bench_with_input(BenchmarkId::new("group_pad", name), &(), |b, _| {
            b.iter(|| group_pad(&p, h.l1()));
        });
        // A/B of the two GROUPPAD engines (they produce bitwise-identical
        // layouts; only the time differs).
        g.bench_with_input(
            BenchmarkId::new("group_pad_multi_fast", name),
            &(),
            |b, _| {
                b.iter(|| group_pad_multi(&p, &h).unwrap());
            },
        );
        g.bench_with_input(
            BenchmarkId::new("group_pad_multi_scalar", name),
            &(),
            |b, _| {
                b.iter(|| group_pad_multi_exhaustive(&p, &h).unwrap());
            },
        );
    }

    let fig2 = figure2_example(512);
    let costs = MissCosts::from_hierarchy(&h);
    g.bench_function("fusion_profit_fig2", |b| {
        b.iter(|| fusion_profit(&fig2, 0, h.levels[0], h.levels[1], &costs).unwrap());
    });

    g.bench_function("select_tile_all_policies", |b| {
        b.iter(|| {
            for policy in TilePolicy::all() {
                std::hint::black_box(select_tile(policy, 400, 400, &h, 8));
            }
        });
    });
    g.finish();
}

criterion_group!(benches, bench_optimizer);
criterion_main!(benches);
