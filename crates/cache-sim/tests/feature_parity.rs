//! Golden simulation results for the unprobed simulator.
//!
//! This file deliberately uses no telemetry APIs: it drives `Hierarchy`
//! with no probe attached, and the hard-coded digests pin the exact
//! per-level access/miss/write-back counts. The probe hooks are always
//! compiled in, so if instrumentation ever perturbed the unprobed path, a
//! digest would diverge from its golden value. `tests/telemetry.rs` checks
//! that attaching a probe leaves the results unchanged too.

use mlc_cache_sim::rng::DetRng;
use mlc_cache_sim::{Hierarchy, HierarchyConfig};

/// FNV-1a over each level's (accesses, misses, writebacks) triple.
fn stats_digest(h: &Hierarchy) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            acc ^= u64::from(b);
            acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (s, wb) in h.stats().iter().zip(h.writebacks()) {
        fold(s.accesses());
        fold(s.misses());
        fold(wb);
    }
    fold(h.prefetch_fills());
    acc
}

#[test]
fn golden_random_trace_digest() {
    let mut h = Hierarchy::new(HierarchyConfig::ultrasparc_i());
    let mut rng = DetRng::new(0xFEED_0001);
    for _ in 0..200_000 {
        let addr = rng.range_u64(0, 1 << 21);
        let write = rng.bool();
        h.access_addr_kind(addr, write);
    }
    assert_eq!(
        stats_digest(&h),
        0x3301_4716_3A83_A17B,
        "simulation results drifted"
    );
}

#[test]
fn golden_strided_trace_digest() {
    let mut h = Hierarchy::new(HierarchyConfig::alpha_21164_like());
    for i in 0..500_000u64 {
        h.access_addr_kind(i.wrapping_mul(40) & 0x3F_FFFF, i % 3 == 0);
    }
    assert_eq!(
        stats_digest(&h),
        0xF379_61B4_6560_EC45,
        "simulation results drifted"
    );
}

#[test]
fn golden_prefetch_trace_digest() {
    let mut h = Hierarchy::with_next_line_prefetch(HierarchyConfig::ultrasparc_i());
    let mut rng = DetRng::new(0xFEED_0002);
    for i in 0..100_000u64 {
        // Mix of streaming and random accesses.
        let addr = if i % 4 == 0 {
            rng.range_u64(0, 1 << 20)
        } else {
            (i * 8) & 0xF_FFFF
        };
        h.access_addr_kind(addr, false);
    }
    assert_eq!(
        stats_digest(&h),
        0x4C90_F614_6AA9_5448,
        "simulation results drifted"
    );
}
