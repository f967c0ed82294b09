//! Three-C miss classification, observed from outside the hierarchy.
//!
//! A [`MissClassifier`] is an [`AccessSink`] that owns a cold,
//! non-prefetching [`Hierarchy`] and, for every level, a *shadow cache*: a
//! fully-associative LRU cache with the same capacity (in lines) as the
//! real level, fed the accesses that level sees. Each access goes through
//! [`Hierarchy::access_addr_kind`], whose return value, the deepest level
//! that missed, says which levels saw the access (every level that missed,
//! then the one that hit, if any) and which of them hit. Each real-cache
//! miss is then attributed (Hill & Smith's classic 3C model):
//!
//! * **compulsory** — the line was never referenced before at this level
//!   (an infinite cache would miss too);
//! * **capacity** — the line was seen but the fully-associative shadow
//!   also misses: no placement policy of this capacity could have kept it;
//! * **conflict** — the shadow *hits* where the real cache missed: the
//!   miss is an artifact of set mapping, exactly the class the paper's
//!   PAD/GROUPPAD transformations exist to remove.
//!
//! Evictions need no hook into the cache either. The hierarchy starts cold
//! and is never flushed or prefetched, so a set holds one more line per
//! miss until it is full, and every later miss replaces a valid line: a
//! miss evicts when its set has already taken `associativity` misses.
//! Dirty evictions are the level's own write-back count.
//!
//! Beyond counts the classifier records two histograms per level into any
//! [`MetricsRegistry`]: `conflict_distance` (accesses at this level since
//! the conflicting line was last touched, log₂-bucketed) and
//! `set_pressure` (the distribution of miss counts across sets — a flat
//! distribution means misses are spread, a spiked one means a few sets
//! ping-pong, the severe-conflict signature).

use crate::config::{CacheConfig, HierarchyConfig};
use crate::hierarchy::Hierarchy;
use crate::trace::{Access, AccessKind, AccessSink};
use mlc_telemetry::{Histogram, MetricsRegistry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// How a miss is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First-ever reference to the line at this level.
    Compulsory,
    /// A fully-associative cache of the same capacity would miss too.
    Capacity,
    /// Only the set mapping made this miss happen.
    Conflict,
}

impl MissClass {
    /// Lower-case label used in metric names and reports.
    pub fn label(self) -> &'static str {
        match self {
            MissClass::Compulsory => "compulsory",
            MissClass::Capacity => "capacity",
            MissClass::Conflict => "conflict",
        }
    }
}

/// Per-level classification totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissBreakdown {
    /// Accesses that reached this level.
    pub accesses: u64,
    /// Hits at this level.
    pub hits: u64,
    /// Compulsory misses.
    pub compulsory: u64,
    /// Capacity misses.
    pub capacity: u64,
    /// Conflict misses.
    pub conflict: u64,
    /// Valid lines evicted.
    pub evictions: u64,
    /// Dirty lines evicted (write-backs).
    pub dirty_evictions: u64,
}

impl MissBreakdown {
    /// Total misses (all three classes).
    pub fn misses(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// The count for one class.
    pub fn class(&self, class: MissClass) -> u64 {
        match class {
            MissClass::Compulsory => self.compulsory,
            MissClass::Capacity => self.capacity,
            MissClass::Conflict => self.conflict,
        }
    }
}

const NONE: u32 = u32::MAX;

/// What a level's shadow knows of one line it has seen.
#[derive(Debug, Clone, Copy)]
struct LineRecord {
    /// Its slot in the shadow's recency list, `NONE` once evicted.
    slot: u32,
    /// The level's access clock when the line was last touched.
    last_touch: u64,
}

/// Hashes a line id with one multiply (Fibonacci hashing), rotated so the
/// well-mixed high bits of the product pick the bucket. The keys are line
/// ids of a simulated trace, not chosen by an adversary, so the default
/// hasher's collision resistance buys nothing here, and it cost about half
/// the classified sweep.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    /// Only `u64` keys are hashed; other input still hashes, bytewise.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, line: u64) {
        self.0 = line.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(26);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type LineMap = HashMap<u64, LineRecord, BuildHasherDefault<LineHasher>>;

/// Fully-associative LRU shadow over line ids, O(1) per access via an
/// index-linked list. The slot of each line it holds is kept in the
/// level's [`LineMap`].
#[derive(Debug, Clone)]
struct ShadowLru {
    capacity: usize,
    lines: Vec<u64>,
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
}

impl ShadowLru {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shadow cache needs at least one line");
        Self {
            capacity,
            lines: Vec::with_capacity(capacity),
            prev: Vec::with_capacity(capacity),
            next: Vec::with_capacity(capacity),
            head: NONE,
            tail: NONE,
        }
    }

    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NONE {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NONE {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NONE;
        self.next[slot as usize] = self.head;
        if self.head != NONE {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }

    /// Touch `line`, whose slot (`NONE` when it is not held) is `slot`:
    /// returns whether the shadow hit, and the line a miss evicted. A miss
    /// inserts the line, evicting the LRU line when full.
    fn touch(&mut self, line: u64, slot: &mut u32) -> (bool, Option<u64>) {
        if *slot != NONE {
            if self.head != *slot {
                self.unlink(*slot);
                self.push_front(*slot);
            }
            return (true, None);
        }
        let mut evicted = None;
        *slot = if self.lines.len() < self.capacity {
            self.lines.push(line);
            self.prev.push(NONE);
            self.next.push(NONE);
            (self.lines.len() - 1) as u32
        } else {
            let victim = self.tail;
            self.unlink(victim);
            evicted = Some(std::mem::replace(&mut self.lines[victim as usize], line));
            victim
        };
        self.push_front(*slot);
        (false, evicted)
    }
}

#[derive(Debug, Clone)]
struct ShadowLevel {
    line_shift: u32,
    set_mask: u64,
    associativity: u64,
    shadow: ShadowLru,
    /// Every line this level has seen. Presence doubles as the "seen
    /// before" (compulsory) test.
    seen: LineMap,
    clock: u64,
    /// Every total but `dirty_evictions`, which the real level counts.
    breakdown: MissBreakdown,
    conflict_distance: Histogram,
    set_misses: Vec<u64>,
}

impl ShadowLevel {
    fn new(c: &CacheConfig) -> Self {
        Self {
            line_shift: c.line.trailing_zeros(),
            set_mask: c.num_sets() as u64 - 1,
            associativity: c.associativity as u64,
            shadow: ShadowLru::new(c.num_lines()),
            seen: LineMap::default(),
            clock: 0,
            breakdown: MissBreakdown::default(),
            conflict_distance: Histogram::new(),
            set_misses: vec![0; c.num_sets()],
        }
    }

    /// Account one access that reached this level and `hit` or missed it.
    fn observe(&mut self, addr: u64, hit: bool) {
        let line = addr >> self.line_shift;
        self.clock += 1;
        let stamp = self.clock;
        self.breakdown.accesses += 1;
        let mut previous = None;
        let record = self
            .seen
            .entry(line)
            .and_modify(|r| previous = Some(r.last_touch))
            .or_insert(LineRecord {
                slot: NONE,
                last_touch: stamp,
            });
        record.last_touch = stamp;
        let (shadow_hit, evicted) = self.shadow.touch(line, &mut record.slot);
        if let Some(evicted) = evicted {
            self.seen
                .get_mut(&evicted)
                .expect("a shadow line was seen")
                .slot = NONE;
        }
        if hit {
            self.breakdown.hits += 1;
            return;
        }
        let misses = &mut self.set_misses[(line & self.set_mask) as usize];
        *misses += 1;
        if *misses > self.associativity {
            self.breakdown.evictions += 1;
        }
        match previous {
            None => self.breakdown.compulsory += 1,
            Some(last) => {
                if shadow_hit {
                    self.breakdown.conflict += 1;
                    self.conflict_distance.record(stamp - last);
                } else {
                    self.breakdown.capacity += 1;
                }
            }
        }
    }
}

/// An [`AccessSink`] that simulates a cold hierarchy and classifies every
/// miss at every level.
#[derive(Debug, Clone)]
pub struct MissClassifier {
    hierarchy: Hierarchy,
    levels: Vec<ShadowLevel>,
}

impl MissClassifier {
    /// A classifier over a cold, non-prefetching hierarchy built from
    /// `config`, one shadow per level sized to the level's line count.
    pub fn new(config: HierarchyConfig) -> Self {
        let levels = config.levels.iter().map(ShadowLevel::new).collect();
        Self {
            hierarchy: Hierarchy::new(config),
            levels,
        }
    }

    /// The simulated hierarchy, with every counter of the accesses seen.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Number of levels tracked.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The classification totals for `level` (0 = L1).
    pub fn breakdown(&self, level: usize) -> MissBreakdown {
        MissBreakdown {
            dirty_evictions: self.hierarchy.caches()[level].writebacks(),
            ..self.levels[level].breakdown
        }
    }

    /// All per-level totals, L1 first.
    pub fn breakdowns(&self) -> Vec<MissBreakdown> {
        (0..self.depth()).map(|l| self.breakdown(l)).collect()
    }

    /// The conflict-distance histogram for `level`.
    pub fn conflict_distance(&self, level: usize) -> &Histogram {
        &self.levels[level].conflict_distance
    }

    /// Fold every count and histogram into `metrics` under
    /// `<prefix>.l<level+1>.…` names (e.g. `sim.l1.miss.conflict`).
    pub fn install_metrics(&self, metrics: &mut MetricsRegistry, prefix: &str) {
        for (i, lvl) in self.levels.iter().enumerate() {
            let b = self.breakdown(i);
            let name = |suffix: &str| format!("{prefix}.l{}.{suffix}", i + 1);
            metrics.count(&name("accesses"), b.accesses);
            metrics.count(&name("hits"), b.hits);
            metrics.count(&name("misses"), b.misses());
            for class in [
                MissClass::Compulsory,
                MissClass::Capacity,
                MissClass::Conflict,
            ] {
                metrics.count(&name(&format!("miss.{}", class.label())), b.class(class));
            }
            metrics.count(&name("evictions"), b.evictions);
            metrics.count(&name("writebacks"), b.dirty_evictions);
            metrics.merge_histogram(&name("conflict_distance"), &lvl.conflict_distance);
            let sp = name("set_pressure");
            for &m in lvl.set_misses.iter().filter(|&&m| m > 0) {
                metrics.record(&sp, m);
            }
        }
    }
}

impl AccessSink for MissClassifier {
    fn access(&mut self, access: Access) {
        let addr = access.addr;
        let deepest_miss = self
            .hierarchy
            .access_addr_kind(addr, access.kind == AccessKind::Write);
        // Every level down to the deepest miss missed; the next one hit
        // and ended the walk.
        let missed = deepest_miss.map_or(0, |d| d + 1);
        for lvl in &mut self.levels[..missed] {
            lvl.observe(addr, false);
        }
        if let Some(lvl) = self.levels.get_mut(missed) {
            lvl.observe(addr, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::ReplacementPolicy;
    use crate::rng::DetRng;

    fn run(cls: &mut MissClassifier, trace: &[(u64, bool)]) {
        for &(addr, write) in trace {
            cls.access(if write {
                Access::write(addr)
            } else {
                Access::read(addr)
            });
        }
    }

    fn reads(addrs: impl IntoIterator<Item = u64>) -> Vec<(u64, bool)> {
        addrs.into_iter().map(|a| (a, false)).collect()
    }

    fn one_level(size: usize, assoc: usize) -> HierarchyConfig {
        HierarchyConfig::new(
            vec![CacheConfig::new(size, 32, assoc, ReplacementPolicy::Lru)],
            vec![10.0],
        )
    }

    /// Classifying changes nothing about the simulation: on random traces
    /// over direct-mapped, LRU and FIFO hierarchies the classifier's
    /// hierarchy ends with a plain run's counters, every miss is classified
    /// exactly once, a level's evictions are its misses less the lines it
    /// still holds, and its dirty evictions are its write-backs.
    #[test]
    fn classified_run_is_identical_to_plain_run() {
        let configs = [
            HierarchyConfig::ultrasparc_i(),
            HierarchyConfig::new(
                vec![
                    CacheConfig::new(1024, 32, 2, ReplacementPolicy::Lru),
                    CacheConfig::new(8192, 64, 4, ReplacementPolicy::Lru),
                ],
                vec![6.0, 30.0],
            ),
            HierarchyConfig::new(
                vec![
                    CacheConfig::new(1024, 32, 4, ReplacementPolicy::Fifo),
                    CacheConfig::new(8192, 64, 2, ReplacementPolicy::Fifo),
                ],
                vec![6.0, 30.0],
            ),
        ];
        for cfg in configs {
            for seed in 0..16 {
                let mut rng = DetRng::new(seed);
                let len = rng.range_usize(100, 4000);
                let span = 1 << rng.range_usize(11, 19);
                let trace: Vec<(u64, bool)> = (0..len)
                    .map(|_| (rng.range_u64(0, span), rng.bool()))
                    .collect();
                let mut plain = Hierarchy::new(cfg.clone());
                for &(a, w) in &trace {
                    plain.access_addr_kind(a, w);
                }
                let mut cls = MissClassifier::new(cfg.clone());
                run(&mut cls, &trace);
                let h = cls.hierarchy();
                assert_eq!(h.stats(), plain.stats(), "seed {seed}");
                assert_eq!(h.writebacks(), plain.writebacks(), "seed {seed}");
                for (l, (b, c)) in cls.breakdowns().iter().zip(h.caches()).enumerate() {
                    let resident: u64 = (0..c.config().num_sets())
                        .map(|s| c.set_contents(s).count() as u64)
                        .sum();
                    assert_eq!(b.accesses, c.accesses(), "seed {seed} L{}", l + 1);
                    assert_eq!(b.misses(), c.misses(), "seed {seed} L{}", l + 1);
                    assert_eq!(b.hits + b.misses(), b.accesses, "seed {seed} L{}", l + 1);
                    assert_eq!(b.evictions, b.misses() - resident, "seed {seed} L{}", l + 1);
                    assert_eq!(b.dirty_evictions, c.writebacks(), "seed {seed} L{}", l + 1);
                }
            }
        }
    }

    /// A cold stream that never revisits a line: every miss is compulsory.
    #[test]
    fn cold_stream_is_all_compulsory() {
        let mut cls = MissClassifier::new(HierarchyConfig::ultrasparc_i());
        run(&mut cls, &reads((0..4096u64).map(|i| i * 8)));
        for (lvl, b) in cls.breakdowns().iter().enumerate() {
            assert!(b.misses() > 0, "level {lvl}");
            assert_eq!(b.misses(), b.compulsory, "level {lvl}: {b:?}");
        }
    }

    /// Two lines one L1-size apart ping-pong in the direct-mapped L1 while
    /// trivially fitting a 512-line fully-associative shadow: after the two
    /// cold misses, every L1 miss is a conflict miss, each one two L1
    /// accesses after the conflicting line was last touched.
    #[test]
    fn ping_pong_is_all_conflict_after_cold_start() {
        let mut cls = MissClassifier::new(HierarchyConfig::ultrasparc_i());
        let rounds = 500u64;
        run(
            &mut cls,
            &reads((0..rounds).flat_map(|_| [0u64, 16 * 1024])),
        );
        let l1 = cls.breakdown(0);
        assert_eq!(l1.misses(), 2 * rounds);
        assert_eq!(l1.compulsory, 2, "exactly the two cold misses");
        assert_eq!(l1.capacity, 0);
        assert_eq!(l1.conflict, 2 * rounds - 2);
        assert_eq!(l1.evictions, 2 * rounds - 1);
        let distance = cls.conflict_distance(0);
        assert_eq!(distance.count(), 2 * rounds - 2);
        assert_eq!((distance.min(), distance.max()), (Some(2), Some(2)));
        // L2: the two lines coexist (512 KB apart they are not), so only the
        // two compulsory misses reach memory.
        let l2 = cls.breakdown(1);
        assert_eq!(l2.misses(), 2);
        assert_eq!(l2.conflict, 0);
    }

    /// A loop over a footprint larger than the cache misses in a
    /// fully-associative shadow too: those misses are capacity, not conflict.
    #[test]
    fn oversized_sequential_loop_is_capacity() {
        // 1 KB direct-mapped, 32 B lines = 32 lines; stream 64 lines.
        let mut cls = MissClassifier::new(one_level(1024, 1));
        run(
            &mut cls,
            &reads((0..10).flat_map(|_| (0..64u64).map(|line| line * 32))),
        );
        let b = cls.breakdown(0);
        assert_eq!(b.misses(), 640);
        assert_eq!(b.compulsory, 64);
        assert_eq!(
            b.conflict, 0,
            "fully-assoc shadow misses these too: not conflicts"
        );
        assert_eq!(b.capacity, 640 - 64);
    }

    /// Set-associative levels classify the same way: a 2-way cache absorbs
    /// the ping-pong entirely, so only the two cold misses remain.
    #[test]
    fn two_way_absorbs_ping_pong_no_conflicts() {
        let mut cls = MissClassifier::new(one_level(16 * 1024, 2));
        run(&mut cls, &reads((0..100).flat_map(|_| [0u64, 16 * 1024])));
        let b = cls.breakdown(0);
        assert_eq!(b.misses(), 2);
        assert_eq!(b.compulsory, 2);
        assert_eq!(b.conflict, 0);
        assert_eq!(b.evictions, 0);
    }

    #[test]
    fn hits_only_update_recency() {
        let mut cls = MissClassifier::new(one_level(64, 1));
        run(&mut cls, &reads([0, 0, 8])); // compulsory, hit, hit
        let b = cls.breakdown(0);
        assert_eq!(b.accesses, 3);
        assert_eq!(b.hits, 2);
        assert_eq!(b.misses(), 1);
    }

    #[test]
    fn evictions_counted_per_dirtiness() {
        // Two sets of one 32 B line: 0 and 64 share set 0.
        let mut cls = MissClassifier::new(one_level(64, 1));
        run(&mut cls, &[(0, true), (64, false), (0, false)]);
        let b = cls.breakdown(0);
        assert_eq!(b.evictions, 2);
        assert_eq!(b.dirty_evictions, 1, "only the written line 0");
    }

    #[test]
    fn shadow_lru_evicts_least_recent() {
        let mut s = ShadowLru::new(2);
        let mut slots = HashMap::new();
        let mut touch = |line: u64| {
            let mut slot = slots.get(&line).copied().unwrap_or(NONE);
            let (hit, evicted) = s.touch(line, &mut slot);
            slots.insert(line, slot);
            if let Some(e) = evicted {
                slots.insert(e, NONE);
            }
            hit
        };
        assert!(!touch(1));
        assert!(!touch(2));
        assert!(touch(1)); // 1 now MRU
        assert!(!touch(3)); // evicts 2
        assert!(touch(1));
        assert!(touch(3));
        assert!(!touch(2));
    }

    #[test]
    fn metrics_installation_names_levels_from_one() {
        let mut cls = MissClassifier::new(HierarchyConfig::ultrasparc_i());
        run(
            &mut cls,
            &(0..50)
                .flat_map(|_| [(0u64, false), (16 * 1024, true)])
                .collect::<Vec<_>>(),
        );
        let mut m = MetricsRegistry::new();
        cls.install_metrics(&mut m, "sim");
        let b = cls.breakdown(0);
        assert_eq!(m.counter("sim.l1.accesses"), b.accesses);
        assert_eq!(m.counter("sim.l1.hits"), b.hits);
        assert_eq!(m.counter("sim.l1.miss.compulsory"), b.compulsory);
        assert_eq!(m.counter("sim.l1.miss.conflict"), b.conflict);
        assert_eq!(m.counter("sim.l1.writebacks"), b.dirty_evictions);
        assert_eq!(m.counter("sim.l2.accesses"), cls.breakdown(1).accesses);
        assert!(m.histogram("sim.l1.conflict_distance").is_some());
        assert!(m.histogram("sim.l1.set_pressure").is_some());
    }
}
