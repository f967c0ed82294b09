//! Probe and miss-classification behavior against the real simulator:
//! attaching telemetry never changes simulation results, and the shadow
//! classifier labels the canonical traces correctly.

use mlc_cache_sim::rng::DetRng;
use mlc_cache_sim::trace::{Access, AccessSink};
use mlc_cache_sim::{Cache, CacheConfig, Hierarchy, HierarchyConfig, ReplacementPolicy};
use mlc_telemetry::{AccessEvent, CacheProbe, EvictionEvent, MissClass, NopProbe};

/// Probe that counts events and remembers the last one.
#[derive(Default)]
struct Recorder {
    accesses: Vec<AccessEvent>,
    evictions: Vec<EvictionEvent>,
}

impl CacheProbe for Recorder {
    fn on_access(&mut self, event: AccessEvent) {
        self.accesses.push(event);
    }
    fn on_eviction(&mut self, event: EvictionEvent) {
        self.evictions.push(event);
    }
}

/// Attaching a probe (even a recording one) leaves every counter and the
/// full hit/miss outcome sequence bitwise identical to the unprobed run.
#[test]
fn probed_run_is_identical_to_plain_run() {
    for seed in 0..16 {
        let mut rng = DetRng::new(seed);
        let len = rng.range_usize(100, 2000);
        let trace: Vec<(u64, bool)> = (0..len)
            .map(|_| (rng.range_u64(0, 1 << 18), rng.bool()))
            .collect();
        let cfg = HierarchyConfig::ultrasparc_i();
        let mut plain = Hierarchy::new(cfg.clone());
        let mut probed = Hierarchy::new(cfg.clone());
        let mut nop = NopProbe;
        let mut rec = Recorder::default();
        let mut probed2 = Hierarchy::new(cfg);
        for &(a, w) in &trace {
            let p = plain.access_addr_kind(a, w);
            let q = probed.access_addr_kind_probed(a, w, &mut nop);
            let r = probed2.access_addr_kind_probed(a, w, &mut rec);
            assert_eq!(p, q, "seed {seed}: NopProbe changed an outcome");
            assert_eq!(p, r, "seed {seed}: recording probe changed an outcome");
        }
        assert_eq!(plain.stats(), probed.stats(), "seed {seed}");
        assert_eq!(plain.stats(), probed2.stats(), "seed {seed}");
        assert_eq!(plain.writebacks(), probed2.writebacks(), "seed {seed}");
        // The probe saw exactly one event per level probe: L1 sees every
        // access, L2 only L1's misses.
        let l1_events = rec.accesses.iter().filter(|e| e.level == 0).count() as u64;
        let l2_events = rec.accesses.iter().filter(|e| e.level == 1).count() as u64;
        assert_eq!(l1_events, plain.stats()[0].accesses(), "seed {seed}");
        assert_eq!(l2_events, plain.stats()[1].accesses(), "seed {seed}");
    }
}

/// The probed sink wrapper drives the same state as plain sink access.
#[test]
fn probed_sink_matches_plain_sink() {
    let cfg = HierarchyConfig::ultrasparc_i();
    let mut a = Hierarchy::new(cfg.clone());
    let mut b = Hierarchy::new(cfg);
    let mut nop = NopProbe;
    let addrs = [0u64, 16 * 1024, 0, 64, 512 * 1024, 0, 32];
    for &addr in &addrs {
        a.access(Access::read(addr));
        b.probed(&mut nop).access(Access::read(addr));
    }
    assert_eq!(a.stats(), b.stats());
}

/// Event payloads carry the right geometry: line-aligned addresses and
/// in-range set indices; evictions at L1 are reported for ping-pong.
#[test]
fn event_payloads_are_line_granular() {
    let mut h = Hierarchy::new(HierarchyConfig::ultrasparc_i());
    let mut rec = Recorder::default();
    for i in 0..100u64 {
        h.access_addr_kind_probed(i * 8 + 3, i % 2 == 0, &mut rec);
    }
    for e in &rec.accesses {
        let line = h.config().levels[e.level].line as u64;
        assert_eq!(e.line_addr % line, 0, "event address not line-aligned");
        assert!(e.set < h.config().levels[e.level].num_sets());
    }
}

/// A cold stream that never revisits a line: every miss is compulsory.
#[test]
fn cold_stream_is_all_compulsory() {
    let cfg = HierarchyConfig::ultrasparc_i();
    let mut h = Hierarchy::new(cfg.clone());
    let mut cls = cfg.miss_classifier();
    for i in 0..4096u64 {
        h.access_addr_kind_probed(i * 8, false, &mut cls);
    }
    for (lvl, b) in cls.breakdowns().iter().enumerate() {
        assert_eq!(b.misses(), b.compulsory, "level {lvl}: {b:?}");
        assert_eq!(b.capacity, 0, "level {lvl}");
        assert_eq!(b.conflict, 0, "level {lvl}");
        // And the classifier agrees with the real simulator's counts.
        assert_eq!(b.accesses, h.stats()[lvl].accesses());
        assert_eq!(b.misses(), h.stats()[lvl].misses());
    }
}

/// Two lines one L1-size apart ping-pong in the direct-mapped L1 while
/// trivially fitting a 512-line fully-associative shadow: after the two
/// cold misses, every L1 miss is a conflict miss.
#[test]
fn ping_pong_is_all_conflict_after_cold_start() {
    let cfg = HierarchyConfig::ultrasparc_i();
    let mut h = Hierarchy::new(cfg.clone());
    let mut cls = cfg.miss_classifier();
    let rounds = 500u64;
    for _ in 0..rounds {
        h.access_addr_kind_probed(0, false, &mut cls);
        h.access_addr_kind_probed(16 * 1024, false, &mut cls);
    }
    let l1 = cls.breakdown(0);
    assert_eq!(l1.misses(), h.stats()[0].misses());
    assert_eq!(l1.compulsory, 2, "exactly the two cold misses");
    assert_eq!(l1.capacity, 0);
    assert_eq!(
        l1.conflict,
        l1.misses() - 2,
        "all warm misses are conflicts"
    );
    // 100% of warm misses classified conflict.
    assert_eq!(l1.misses(), 2 * rounds);
    // L2: the two lines coexist (512 KB apart they are not), so only the
    // two compulsory misses reach memory.
    let l2 = cls.breakdown(1);
    assert_eq!(l2.misses(), 2);
    assert_eq!(l2.conflict, 0);
}

/// A loop over a footprint larger than the cache in a fully-associative
/// shadow too: those misses are capacity, not conflict.
#[test]
fn oversized_sequential_loop_is_capacity() {
    // Single-level hierarchy: 1 KB direct-mapped, 32 B lines = 32 lines.
    let cfg = HierarchyConfig::new(vec![CacheConfig::direct_mapped(1024, 32)], vec![10.0]);
    let mut h = Hierarchy::new(cfg.clone());
    let mut cls = cfg.miss_classifier();
    // Stream 64 lines (2x capacity) repeatedly: LRU shadow also misses all.
    for _ in 0..10 {
        for line in 0..64u64 {
            h.access_addr_kind_probed(line * 32, false, &mut cls);
        }
    }
    let b = cls.breakdown(0);
    assert_eq!(b.misses(), h.stats()[0].misses());
    assert_eq!(b.compulsory, 64);
    assert_eq!(
        b.conflict, 0,
        "fully-assoc shadow misses these too: not conflicts"
    );
    assert_eq!(b.capacity, b.misses() - 64);
}

/// Set-associative levels classify the same way: a 2-way cache absorbs the
/// ping-pong entirely, so the classifier sees only the two cold misses.
#[test]
fn two_way_absorbs_ping_pong_no_conflicts() {
    let cfg = HierarchyConfig::new(
        vec![CacheConfig::new(16 * 1024, 32, 2, ReplacementPolicy::Lru)],
        vec![10.0],
    );
    let mut h = Hierarchy::new(cfg.clone());
    let mut cls = cfg.miss_classifier();
    for _ in 0..100 {
        h.access_addr_kind_probed(0, false, &mut cls);
        h.access_addr_kind_probed(16 * 1024, false, &mut cls);
    }
    let b = cls.breakdown(0);
    assert_eq!(b.misses(), 2);
    assert_eq!(b.compulsory, 2);
    assert_eq!(b.conflict, 0);
}

/// Single-cache probed access agrees with the plain one and reports
/// evictions with the evicted (not the incoming) line address.
#[test]
fn cache_level_probe_reports_evicted_line() {
    let mut c = Cache::new(CacheConfig::direct_mapped(1024, 32));
    let mut rec = Recorder::default();
    c.access_kind_probed(0, true, 0, &mut rec); // cold, dirty
    c.access_kind_probed(1024, false, 0, &mut rec); // evicts dirty line 0
    assert_eq!(rec.evictions.len(), 1);
    let ev = &rec.evictions[0];
    assert_eq!(ev.line_addr, 0, "eviction reports the evicted line");
    assert!(ev.dirty);
    assert_eq!(ev.level, 0);
    assert_eq!(c.writebacks(), 1);
}

/// install_metrics exports per-level counts under the given prefix that
/// match the classifier's breakdowns.
#[test]
fn classifier_metrics_export_matches_breakdown() {
    let cfg = HierarchyConfig::ultrasparc_i();
    let mut h = Hierarchy::new(cfg.clone());
    let mut cls = cfg.miss_classifier();
    for _ in 0..50 {
        h.access_addr_kind_probed(0, false, &mut cls);
        h.access_addr_kind_probed(16 * 1024, true, &mut cls);
    }
    let mut m = mlc_telemetry::MetricsRegistry::new();
    cls.install_metrics(&mut m, "sim");
    let b = cls.breakdown(0);
    assert_eq!(m.counter("sim.l1.accesses"), b.accesses);
    assert_eq!(m.counter("sim.l1.miss.conflict"), b.conflict);
    assert_eq!(m.counter("sim.l1.miss.compulsory"), b.compulsory);
    assert_eq!(m.counter("sim.l2.accesses"), cls.breakdown(1).accesses);
    assert!(m.histogram("sim.l1.conflict_distance").is_some());
    let _ = MissClass::Conflict.label();
}
