//! The analytic engine: whole affine loop nests served from a memo of
//! recorded cache-state transitions.
//!
//! [`NestMemo`] drives one program under one layout through a
//! [`Hierarchy`], one sweep at a time. It compiles each nest as the trace
//! generator does ([`mlc_model::trace_gen::try_generate_with`]) and offers
//! it to the memo when the nest has a loop and a reference, every loop
//! bound is a constant and no loop is empty
//! ([`CompiledNest::constant_accesses`]). The memo keeps
//! one slot per distinct nest: a nest the program lists twice shares the
//! slot of its first occurrence. A slot records transitions: the state of
//! every level when the nest began (its entry), the state the nest left
//! (its exit), and each level's access, miss and write-back counts over the
//! nest. When the nest is offered again and the hierarchy's state equals a
//! recorded entry in full — every tag in recency order, every dirty bit and
//! every empty way, at every level — the memo restores that record's exit
//! state and credits its counts. Otherwise it runs the nest through the
//! run-length path ([`CompiledNest::try_run`]) and records the transition.
//!
//! Simulation is deterministic for every hierarchy the memo accepts, so a
//! nest entered in a recorded state makes the recorded transition: a memo
//! hit is exact, never an approximation. Equality is a full state compare,
//! never a hash. Steady-state protocols hit once a nest's entry state
//! repeats; under the paper's protocol (one warm-up sweep, one timed sweep)
//! that happens in the timed sweep.
//!
//! The memo declines, and runs the nest unrecorded, for nests of fewer than
//! [`MIN_MEMO_ACCESSES`] accesses, non-affine (Morton) nests, prefetching
//! hierarchies, set-associative levels with random replacement (their
//! victims depend on generator state no snapshot holds), nests whose access
//! count overflows, and new nests once `MAX_MEMO_NESTS` nests hold
//! transitions. Coverage is observable: every offered nest bumps
//! process-wide `analytic.*` counters, exported through
//! [`install_metrics`].

use std::sync::atomic::{AtomicU64, Ordering};

use mlc_cache_sim::cache::CacheSnapshot;
use mlc_cache_sim::{Hierarchy, HierarchyConfig, MissRateReport, ReplacementPolicy};
use mlc_model::trace_gen::{CompiledNest, TraceError};
use mlc_model::{DataLayout, Program};
use mlc_telemetry::MetricsRegistry;

/// Nests below this many accesses are declined: streaming them costs less
/// than snapshotting every level twice.
pub const MIN_MEMO_ACCESSES: u64 = 4096;

/// At most this many transitions per nest (steady sweeps need two: the
/// cold entry and the converged one).
const MAX_SNAPSHOTS: usize = 3;

/// At most this many nests with recorded transitions per memo; later nests
/// run unrecorded.
const MAX_MEMO_NESTS: usize = 24;

// ---------------------------------------------------------------------------
// Coverage telemetry.
// ---------------------------------------------------------------------------

/// Why the memo declined a nest outright.
#[derive(Debug, Clone, Copy)]
enum Decline {
    /// The hierarchy prefetches.
    Prefetch,
    /// The nest's access count overflows `u64`.
    Overflow,
    /// A set-associative level replaces at random.
    Policy,
    /// The nest references a non-affine (e.g. Morton) layout family.
    NonAffineLayout,
}

static NESTS_CLOSED: AtomicU64 = AtomicU64::new(0);
static NESTS_FALLBACK: AtomicU64 = AtomicU64::new(0);
static ACCESSES_CLOSED: AtomicU64 = AtomicU64::new(0);
static DECLINES: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Process-wide analytic coverage counters since the last
/// [`take_stats`] / [`install_metrics`] drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalyticStats {
    /// Offered nests served by a memo hit: a recorded exit state restored
    /// and its counts credited, nothing replayed.
    pub nests_closed: u64,
    /// Every other offered nest: declined, or run through the run-length
    /// path (and recorded, unless the memo is full).
    pub nests_fallback: u64,
    /// Accesses of the memo hits (never expanded).
    pub accesses_closed: u64,
    /// Outright declines by reason, as `(name, count)` in a fixed order of
    /// seven names. Memo misses and nests below [`MIN_MEMO_ACCESSES`]
    /// count in `nests_fallback` under no reason.
    pub fallback_reasons: Vec<(&'static str, u64)>,
}

/// Drain and return the process-wide analytic counters (they reset to
/// zero). Tests and the metrics exporter share this.
pub fn take_stats() -> AnalyticStats {
    let take = |d: Decline| DECLINES[d as usize].swap(0, Ordering::Relaxed);
    AnalyticStats {
        nests_closed: NESTS_CLOSED.swap(0, Ordering::Relaxed),
        nests_fallback: NESTS_FALLBACK.swap(0, Ordering::Relaxed),
        accesses_closed: ACCESSES_CLOSED.swap(0, Ordering::Relaxed),
        // `wide_stride`, `too_many_columns` and `interleave` named declines
        // of a closed-form tier the engine no longer has, so they read 0.
        // Their only reader is the end-to-end benchmark (`benchmark/`),
        // which exports all seven names.
        fallback_reasons: vec![
            ("prefetch", take(Decline::Prefetch)),
            ("wide_stride", 0),
            ("too_many_columns", 0),
            ("overflow", take(Decline::Overflow)),
            ("policy", take(Decline::Policy)),
            ("interleave", 0),
            ("non_affine_layout", take(Decline::NonAffineLayout)),
        ],
    }
}

/// Drain the analytic counters into a [`MetricsRegistry`] as
/// `analytic.nests_closed`, `analytic.nests_fallback`,
/// `analytic.accesses_closed` and per-reason `analytic.fallback.<reason>`
/// counters (zero-valued reasons are skipped).
pub fn install_metrics(reg: &mut MetricsRegistry) {
    let s = take_stats();
    reg.count("analytic.nests_closed", s.nests_closed);
    reg.count("analytic.nests_fallback", s.nests_fallback);
    reg.count("analytic.accesses_closed", s.accesses_closed);
    for (name, v) in s.fallback_reasons {
        if v > 0 {
            reg.count(&format!("analytic.fallback.{name}"), v);
        }
    }
}

// ---------------------------------------------------------------------------
// The memo.
// ---------------------------------------------------------------------------

/// One recorded run of a nest: every level's state before and after it,
/// and its per-level `(accesses, misses, writebacks)`.
struct Transition {
    entry: Vec<CacheSnapshot>,
    exit: Vec<CacheSnapshot>,
    deltas: Vec<(u64, u64, u64)>,
}

/// The analytic engine for one program under one layout: drives the
/// program's nests through a [`Hierarchy`], serving recorded ones from its
/// memo and running everything else through the run-length path. Counters
/// and contents of the hierarchy are the bitwise image of a plain replay
/// after every nest.
pub struct NestMemo<'a> {
    h: &'a mut Hierarchy,
    program: &'a Program,
    layout: &'a DataLayout,
    /// Why every offered nest is declined, when the hierarchy prefetches or
    /// replaces at random.
    unsupported: Option<Decline>,
    /// Per nest, its slot: the position of the first nest equal to it.
    slot: Vec<usize>,
    /// Per slot, its transitions, oldest first.
    transitions: Vec<Vec<Transition>>,
    /// Slots holding at least one transition.
    recorded: usize,
    closed: u64,
    fallback: u64,
}

impl<'a> NestMemo<'a> {
    /// A memo for `program` under `layout`, driving `h` from whatever state
    /// it is in.
    pub fn new(h: &'a mut Hierarchy, program: &'a Program, layout: &'a DataLayout) -> Self {
        let unsupported = if h.prefetch_enabled() {
            Some(Decline::Prefetch)
        } else if h.caches().iter().any(|c| {
            let cfg = c.config();
            cfg.associativity > 1 && cfg.replacement == ReplacementPolicy::Random
        }) {
            Some(Decline::Policy)
        } else {
            None
        };
        let nests = &program.nests;
        Self {
            h,
            program,
            layout,
            unsupported,
            slot: (0..nests.len())
                .map(|i| nests.iter().position(|n| *n == nests[i]).unwrap_or(i))
                .collect(),
            transitions: nests.iter().map(|_| Vec::new()).collect(),
            recorded: 0,
            closed: 0,
            fallback: 0,
        }
    }

    /// One sweep of the program, nest by nest; returns the references it
    /// made, as [`mlc_model::trace_gen::try_generate_with`] does. On error,
    /// the nests before the failing one have run, and the failing one may
    /// have run in part.
    pub fn sweep(&mut self) -> Result<u64, TraceError> {
        let program = self.program;
        let mut total = 0;
        for (i, n) in program.nests.iter().enumerate() {
            let nest = CompiledNest::try_new(program, n, self.layout)?;
            total += self.run(i, &nest)?;
        }
        Ok(total)
    }

    /// The hierarchy, as the nests so far have left it.
    pub fn hierarchy(&self) -> &Hierarchy {
        self.h
    }

    /// Nests this memo served from its records.
    pub fn nests_closed(&self) -> u64 {
        self.closed
    }

    /// Nests offered to this memo that it declined or ran.
    pub fn nests_fallback(&self) -> u64 {
        self.fallback
    }

    /// Zero the hierarchy's counters (the steady protocol's warmup/timed
    /// boundary). Cache contents persist.
    pub fn reset_stats(&mut self) {
        self.h.reset_stats();
    }

    fn count_fallback(&mut self, decline: Option<Decline>) {
        self.fallback += 1;
        NESTS_FALLBACK.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = decline {
            DECLINES[d as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn counts(&self) -> Vec<(u64, u64, u64)> {
        self.h
            .caches()
            .iter()
            .map(|c| (c.accesses(), c.misses(), c.writebacks()))
            .collect()
    }

    fn snapshot(&self) -> Vec<CacheSnapshot> {
        self.h.caches().iter().map(|c| c.snapshot()).collect()
    }

    /// Nest `i` of the program, compiled as `nest`: served from its slot,
    /// run and recorded there, or run unrecorded.
    fn run(&mut self, i: usize, nest: &CompiledNest) -> Result<u64, TraceError> {
        let Some(count) = nest.constant_accesses() else {
            return nest.try_run(self.h);
        };
        let decline = if nest.has_morton() {
            Some(Decline::NonAffineLayout)
        } else {
            self.unsupported
                .or(count.is_none().then_some(Decline::Overflow))
        };
        let total = match (decline, count) {
            (None, Some(total)) if total >= MIN_MEMO_ACCESSES => total,
            _ => {
                self.count_fallback(decline);
                return nest.try_run(self.h);
            }
        };
        let slot = self.slot[i];
        let caches = self.h.caches();
        let hit = self.transitions[slot].iter().find(|t| {
            caches
                .iter()
                .zip(&t.entry)
                .all(|(c, e)| c.matches_snapshot(e))
        });
        if let Some(t) = hit {
            for ((c, exit), &(a, m, w)) in
                self.h.caches_mut().iter_mut().zip(&t.exit).zip(&t.deltas)
            {
                c.restore_snapshot(exit);
                c.account_analytic(a, m, w);
            }
            self.closed += 1;
            NESTS_CLOSED.fetch_add(1, Ordering::Relaxed);
            ACCESSES_CLOSED.fetch_add(total, Ordering::Relaxed);
            return Ok(total);
        }
        self.count_fallback(None);
        if self.transitions[slot].is_empty() && self.recorded == MAX_MEMO_NESTS {
            return nest.try_run(self.h);
        }
        let entry = self.snapshot();
        let before = self.counts();
        nest.try_run(self.h)?;
        let deltas = self
            .counts()
            .iter()
            .zip(&before)
            .map(|(&(a, m, w), &(a0, m0, w0))| (a - a0, m - m0, w - w0))
            .collect();
        let exit = self.snapshot();
        let transitions = &mut self.transitions[slot];
        if transitions.is_empty() {
            self.recorded += 1;
        } else if transitions.len() == MAX_SNAPSHOTS {
            transitions.remove(0);
        }
        transitions.push(Transition {
            entry,
            exit,
            deltas,
        });
        Ok(total)
    }
}

// ---------------------------------------------------------------------------
// Convenience drivers mirroring `mlc_model::trace_gen`.
// ---------------------------------------------------------------------------

/// [`mlc_model::trace_gen::try_simulate_with`] with the analytic engine in
/// front: cold hierarchy, one program sweep, paper-style report. Bitwise
/// identical to replay.
pub fn try_simulate_analytic(
    program: &Program,
    layout: &DataLayout,
    config: &HierarchyConfig,
) -> Result<MissRateReport, TraceError> {
    let mut h = Hierarchy::new(config.clone());
    NestMemo::new(&mut h, program, layout).sweep()?;
    Ok(h.report())
}

/// [`mlc_model::trace_gen::try_simulate_steady_with`] with the analytic
/// engine in front: `warmup` uncounted sweeps, a stats reset, then `timed`
/// counted sweeps, all against one persistent cache state and one memo.
pub fn try_simulate_steady_analytic(
    program: &Program,
    layout: &DataLayout,
    config: &HierarchyConfig,
    warmup: usize,
    timed: usize,
) -> Result<MissRateReport, TraceError> {
    try_steady_hierarchy_analytic(program, layout, config, warmup, timed).map(|h| h.report())
}

/// [`try_simulate_steady_analytic`], returning the hierarchy the timed
/// sweeps leave: their counters and write-backs, and the cache contents.
pub fn try_steady_hierarchy_analytic(
    program: &Program,
    layout: &DataLayout,
    config: &HierarchyConfig,
    warmup: usize,
    timed: usize,
) -> Result<Hierarchy, TraceError> {
    let mut h = Hierarchy::new(config.clone());
    let mut memo = NestMemo::new(&mut h, program, layout);
    for _ in 0..warmup {
        memo.sweep()?;
    }
    memo.reset_stats();
    for _ in 0..timed {
        memo.sweep()?;
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache_sim::CacheConfig;
    use mlc_model::prelude::*;
    use mlc_model::trace_gen::{try_generate_with, try_simulate_steady_with, try_simulate_with};

    fn stencil_program(n: usize, pad: i64) -> (Program, DataLayout) {
        let mut p = Program::new("stencil");
        let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
        let b = p.add_array(ArrayDecl::f64("B", vec![n, n]));
        p.add_nest(LoopNest::new(
            "sweep",
            vec![
                Loop::counted("j", 1, n as i64 - 2),
                Loop::counted("i", 1, n as i64 - 2),
            ],
            vec![
                ArrayRef::read(a, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
                ArrayRef::read(a, vec![AffineExpr::var_plus("i", 1), AffineExpr::var("j")]),
                ArrayRef::read(a, vec![AffineExpr::var("i"), AffineExpr::var_plus("j", 1)]),
                ArrayRef::write(b, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
            ],
        ));
        let mut l = DataLayout::contiguous(&p.arrays);
        if pad != 0 {
            let bytes = l.bases[b] as i64 + pad;
            l.bases[b] = bytes as u64;
        }
        (p, l)
    }

    /// `sweeps` program sweeps through one memo; returns the memo's
    /// (closed, fallback) counts.
    fn sweep(h: &mut Hierarchy, p: &Program, l: &DataLayout, sweeps: usize) -> (u64, u64) {
        let mut memo = NestMemo::new(h, p, l);
        for _ in 0..sweeps {
            memo.sweep().unwrap();
        }
        (memo.nests_closed(), memo.nests_fallback())
    }

    /// Per-set contents of every level must be equal.
    fn assert_same_contents(a: &Hierarchy, b: &Hierarchy) {
        for (ca, cb) in a.caches().iter().zip(b.caches()) {
            for set in 0..ca.config().num_sets() {
                assert_eq!(
                    ca.set_contents(set).collect::<Vec<_>>(),
                    cb.set_contents(set).collect::<Vec<_>>(),
                    "set {set} diverged"
                );
            }
        }
    }

    #[test]
    fn closes_padded_stencil_bitwise() {
        // 64×64 f64 arrays: 32 KB each, far beyond the 16 KB L1. Two sweeps
        // bring the state to its fixed point, so the third sweep enters in
        // the state the second did and is a memo hit.
        let (p, l) = stencil_program(64, 2048);
        let cfg = HierarchyConfig::ultrasparc_i();
        let analytic = try_simulate_steady_analytic(&p, &l, &cfg, 2, 1).unwrap();
        let replay = try_simulate_steady_with(&p, &l, &cfg, 2, 1, true).unwrap();
        assert_eq!(analytic, replay);
        let mut h = Hierarchy::new(cfg);
        assert_eq!(sweep(&mut h, &p, &l, 3), (1, 2), "the third sweep hits");
    }

    #[test]
    fn conflicting_layout_falls_back_and_stays_bitwise() {
        // Contiguous 32 KB arrays collide on every L1 set (32 KB ≡ 0 mod
        // the 16 KB way span). One cold sweep has nothing recorded to hit:
        // the memo runs the nest and the report stays bitwise.
        let (p, l) = stencil_program(64, 0);
        let cfg = HierarchyConfig::ultrasparc_i();
        let mut h = Hierarchy::new(cfg.clone());
        assert_eq!(sweep(&mut h, &p, &l, 1), (0, 1));
        let replay = try_simulate_with(&p, &l, &cfg, true).unwrap();
        assert_eq!(h.report(), replay);
    }

    #[test]
    fn steady_resweep_is_bitwise_too() {
        let (p, l) = stencil_program(64, 256);
        for cfg in [
            HierarchyConfig::ultrasparc_i(),
            HierarchyConfig::alpha_21164_like(),
        ] {
            let analytic = try_simulate_steady_analytic(&p, &l, &cfg, 2, 3).unwrap();
            let replay = try_simulate_steady_with(&p, &l, &cfg, 2, 3, true).unwrap();
            assert_eq!(analytic, replay);
        }
    }

    #[test]
    fn memo_hit_leaves_bitwise_state() {
        // A second nest copies B back into A, so neither nest's steady
        // entry state is its exit state: a hit must move the state on.
        let (mut p, l) = stencil_program(64, 2048);
        let (a, b) = (0, 1);
        p.add_nest(LoopNest::new(
            "copy",
            vec![Loop::counted("j", 1, 62), Loop::counted("i", 1, 62)],
            vec![
                ArrayRef::read(b, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
                ArrayRef::write(a, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
            ],
        ));
        let cfg = HierarchyConfig::ultrasparc_i();
        let mut ha = Hierarchy::new(cfg.clone());
        assert_eq!(sweep(&mut ha, &p, &l, 4), (4, 4), "sweeps 3 and 4 hit");
        let mut hr = Hierarchy::new(cfg);
        for _ in 0..4 {
            try_generate_with(&p, &l, &mut hr, true).unwrap();
        }
        assert_eq!(ha.report(), hr.report());
        assert_eq!(ha.writebacks(), hr.writebacks());
        assert_same_contents(&ha, &hr);
    }

    #[test]
    fn associative_lru_levels_hit_bitwise() {
        let (p, l) = stencil_program(48, 320);
        let cfg = HierarchyConfig::ultrasparc_like_assoc(4);
        let analytic = try_simulate_steady_analytic(&p, &l, &cfg, 2, 2).unwrap();
        let replay = try_simulate_steady_with(&p, &l, &cfg, 2, 2, true).unwrap();
        assert_eq!(analytic, replay);
        let mut h = Hierarchy::new(cfg);
        assert!(sweep(&mut h, &p, &l, 4).0 > 0, "4-way LRU levels memoize");
    }

    #[test]
    fn conflicting_layout_memoizes_after_replaying() {
        // The severely conflicting nest replays on the first two sweeps
        // (cold entry, then post-sweep entry) and every later sweep is a
        // memo hit — bitwise equal to replaying all of them.
        let (p, l) = stencil_program(64, 0);
        let cfg = HierarchyConfig::ultrasparc_i();
        let mut h = Hierarchy::new(cfg.clone());
        let (closed, fallback) = sweep(&mut h, &p, &l, 8);
        assert_eq!(fallback, 2, "replay only until state repeats");
        assert_eq!(closed, 6, "repeat sweeps are memo hits");
        let mut hr = Hierarchy::new(cfg);
        for _ in 0..8 {
            try_generate_with(&p, &l, &mut hr, true).unwrap();
        }
        assert_eq!(h.report(), hr.report());
        assert_same_contents(&h, &hr);
    }

    #[test]
    fn dirty_bits_are_part_of_the_entry_state() {
        // One nest that evicts line 0 runs twice in a sweep. Line 0 is
        // resident, clean, the first time, and resident with the same tag
        // but dirty the second: that eviction costs a write-back the
        // recorded one did not.
        let mut p = Program::new("dirty");
        let a = p.add_array(ArrayDecl::f64("A", vec![128]));
        let b = p.add_array(ArrayDecl::f64("B", vec![4]));
        let touch = |r: ArrayRef| LoopNest::new("touch", vec![Loop::counted("t", 0, 0)], vec![r]);
        let evict = LoopNest::new(
            "evict",
            vec![Loop::counted("t", 0, MIN_MEMO_ACCESSES as i64 - 1)],
            vec![ArrayRef::read(b, vec![AffineExpr::constant(0)])],
        );
        let line0 = vec![AffineExpr::constant(0)];
        p.add_nest(touch(ArrayRef::read(a, line0.clone())));
        p.add_nest(evict.clone());
        p.add_nest(touch(ArrayRef::write(a, line0)));
        p.add_nest(evict);
        let l = DataLayout::contiguous(&p.arrays);
        assert_eq!(l.bases[b], 1024, "B shares line 0's set");
        let cfg = HierarchyConfig::new(vec![CacheConfig::direct_mapped(1024, 32)], vec![6.0]);
        let mut h = Hierarchy::new(cfg.clone());
        assert_eq!(
            sweep(&mut h, &p, &l, 1),
            (0, 4),
            "a dirty line is not a clean one"
        );
        let mut hr = Hierarchy::new(cfg);
        try_generate_with(&p, &l, &mut hr, false).unwrap();
        assert_eq!(hr.writebacks(), vec![1]);
        assert_eq!(h.writebacks(), hr.writebacks());
        assert_eq!(h.report(), hr.report());
        assert_same_contents(&h, &hr);
    }

    #[test]
    fn a_repeated_nest_shares_its_twins_transitions() {
        // The stencil nest, listed twice: the first copy records the cold
        // transition and the second the converged one, and every later
        // offer of either copy enters a recorded state.
        let (mut p, l) = stencil_program(64, 2048);
        p.add_nest(p.nests[0].clone());
        let cfg = HierarchyConfig::ultrasparc_i();
        let mut h = Hierarchy::new(cfg.clone());
        assert_eq!(sweep(&mut h, &p, &l, 3), (4, 2));
        let mut hr = Hierarchy::new(cfg);
        for _ in 0..3 {
            try_generate_with(&p, &l, &mut hr, false).unwrap();
        }
        assert_eq!(h.report(), hr.report());
        assert_same_contents(&h, &hr);
    }

    #[test]
    fn morton_and_triangular_nests_are_declined_or_not_offered() {
        // The memo's own counts: the process-wide ones are shared with
        // every test running beside this one.
        let n = 64;
        let mut p = Program::new("morton");
        let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
        let nn = n as i64 - 1;
        p.add_nest(LoopNest::new(
            "copy",
            vec![Loop::counted("j", 0, nn), Loop::counted("i", 0, nn)],
            vec![ArrayRef::read(
                a,
                vec![AffineExpr::var("i"), AffineExpr::var("j")],
            )],
        ));
        let fams = [LayoutFamily::morton_round_robin(&p.arrays[a])];
        let morton = DataLayout::with_pads_and_families(&p.arrays, &[0], &fams).unwrap();
        let cfg = HierarchyConfig::ultrasparc_i();
        let mut h = Hierarchy::new(cfg.clone());
        assert_eq!(sweep(&mut h, &p, &morton, 1), (0, 1), "Morton declines");

        p.nests[0].loops[1] = Loop::new("i", AffineExpr::constant(0), AffineExpr::var("j"));
        let linear = DataLayout::contiguous(&p.arrays);
        let mut h = Hierarchy::new(cfg);
        assert_eq!(sweep(&mut h, &p, &linear, 1), (0, 0), "not offered");
        assert_eq!(h.stats()[0].accesses(), (n * (n + 1) / 2) as u64);
    }

    /// One-nest helper for the edge-case programs below.
    fn one_nest(
        n: usize,
        loops: Vec<Loop>,
        build: impl Fn(usize, usize) -> Vec<ArrayRef>,
    ) -> (Program, DataLayout) {
        let mut p = Program::new("edge");
        let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
        let b = p.add_array(ArrayDecl::f64("B", vec![n, n]));
        p.add_nest(LoopNest::new("nest", loops, build(a, b)));
        let l = DataLayout::contiguous(&p.arrays);
        (p, l)
    }

    /// Edge geometries must stay bitwise against the *scalar* replay (the
    /// strictest oracle), cold and steady (including warmup = 0).
    fn assert_edge_bitwise(p: &Program, l: &DataLayout) {
        for cfg in [
            HierarchyConfig::ultrasparc_i(),
            HierarchyConfig::alpha_21164_like(),
            HierarchyConfig::ultrasparc_like_assoc(4),
        ] {
            let analytic = try_simulate_analytic(p, l, &cfg).unwrap();
            let scalar = try_simulate_with(p, l, &cfg, false).unwrap();
            assert_eq!(analytic, scalar, "cold diverges on {cfg:?}");
            for (warmup, timed) in [(0, 1), (0, 3), (1, 2)] {
                let analytic = try_simulate_steady_analytic(p, l, &cfg, warmup, timed).unwrap();
                let scalar = try_simulate_steady_with(p, l, &cfg, warmup, timed, false).unwrap();
                assert_eq!(
                    analytic, scalar,
                    "steady w={warmup} t={timed} diverges on {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn single_iteration_nest_is_bitwise() {
        // Every loop runs exactly once: one access per ref.
        let (p, l) = one_nest(
            8,
            vec![Loop::counted("j", 3, 3), Loop::counted("i", 5, 5)],
            |a, b| {
                vec![
                    ArrayRef::read(a, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
                    ArrayRef::write(b, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
                ]
            },
        );
        assert_edge_bitwise(&p, &l);
    }

    #[test]
    fn extent_smaller_than_cache_line_is_bitwise() {
        // The whole innermost sweep (3 f64s) fits inside one 32 B line.
        let (p, l) = one_nest(
            16,
            vec![Loop::counted("j", 0, 15), Loop::counted("i", 0, 2)],
            |a, b| {
                vec![
                    ArrayRef::read(a, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
                    ArrayRef::write(b, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
                ]
            },
        );
        assert_edge_bitwise(&p, &l);
    }

    #[test]
    fn stride_beyond_way_size_is_bitwise() {
        // Row-index innermost: 8·n-byte stride, far wider than any line.
        let n = 80; // 640 B pitch, beyond the 512-set × 32 B L1 way span / n
        let (p, l) = one_nest(
            n,
            vec![
                Loop::counted("i", 0, n as i64 - 1),
                Loop::counted("j", 0, n as i64 - 1),
            ],
            |a, b| {
                vec![
                    ArrayRef::read(a, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
                    ArrayRef::write(b, vec![AffineExpr::var("i"), AffineExpr::var("j")]),
                ]
            },
        );
        assert_edge_bitwise(&p, &l);
    }

    #[test]
    fn steady_sweeps_hit_the_snapshot_memo() {
        let (p, l) = stencil_program(64, 2048);
        let cfg = HierarchyConfig::ultrasparc_i();
        let mut h = Hierarchy::new(cfg);
        let mut memo = NestMemo::new(&mut h, &p, &l);
        for _ in 0..8 {
            memo.sweep().unwrap();
        }
        assert_eq!(memo.nests_closed(), 6);
        // Fixed point after the first sweep: exactly two distinct entry
        // states (cold and converged) were ever replayed.
        assert_eq!(memo.transitions[0].len(), 2, "steady state memoizes");
    }
}
