//! The analytic engine: whole affine loop nests served from a memo of
//! recorded cache-state transitions.
//!
//! The trace generator offers each constant-bound nest as a
//! [`NestDescriptor`] before streaming it (see [`AccessSink::nest`]).
//! [`AnalyticSink`] wraps a [`Hierarchy`] and keeps one memo slot per
//! descriptor. A slot records transitions: the state of every level when
//! the nest began (its entry), the state the nest left (its exit), and
//! each level's access, miss and write-back counts over the nest. When the
//! nest is offered again and the hierarchy's state equals a recorded entry
//! in full — every tag in recency order, every dirty bit and every empty
//! way, at every level — the sink restores that record's exit state and
//! credits its counts. Otherwise it replays the nest from the descriptor
//! through the run-length path and records the transition.
//!
//! Simulation is deterministic for every hierarchy the sink accepts, so a
//! nest entered in a recorded state makes the recorded transition: a memo
//! hit is exact, never an approximation. Equality is a full state compare,
//! never a hash. Steady-state protocols hit once a nest's entry state
//! repeats; under the paper's protocol (one warm-up sweep, one timed sweep)
//! that happens in the timed sweep.
//!
//! The sink declines, and the generator streams the nest itself, for nests
//! of fewer than [`MIN_MEMO_ACCESSES`] accesses, non-affine (Morton)
//! nests, prefetching hierarchies, set-associative levels with random
//! replacement (their victims depend on generator state no snapshot
//! holds), and nests whose access count overflows. Coverage is observable:
//! every offered nest bumps process-wide `analytic.*` counters, exported
//! through [`install_metrics`].

use std::sync::atomic::{AtomicU64, Ordering};

use mlc_cache_sim::cache::CacheSnapshot;
use mlc_cache_sim::trace::{Access, AccessSink, NestDescriptor, Run};
use mlc_cache_sim::{Hierarchy, HierarchyConfig, MissRateReport, ReplacementPolicy};
use mlc_model::trace_gen::{try_generate_with, TraceError};
use mlc_model::{DataLayout, Program};
use mlc_telemetry::MetricsRegistry;

/// Nests below this many accesses are declined: streaming them costs less
/// than snapshotting every level twice.
pub const MIN_MEMO_ACCESSES: u64 = 4096;

/// At most this many transitions per descriptor (steady sweeps need two:
/// the cold entry and the converged one).
const MAX_SNAPSHOTS: usize = 3;

/// At most this many memoized descriptors per sink.
const MAX_MEMO_NESTS: usize = 24;

// ---------------------------------------------------------------------------
// Coverage telemetry.
// ---------------------------------------------------------------------------

/// Why the sink declined a nest outright.
#[derive(Debug, Clone, Copy)]
enum Decline {
    /// The hierarchy prefetches.
    Prefetch,
    /// The nest's access count overflows `u64`.
    Overflow,
    /// A set-associative level replaces at random.
    Policy,
    /// The nest references a non-affine (e.g. Morton) layout family, so
    /// its descriptor describes no stream to replay.
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
    /// Every other offered nest: declined to the generator's stream, or
    /// replayed by the sink and recorded.
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
// The sink.
// ---------------------------------------------------------------------------

/// One recorded run of a nest: every level's state before and after it,
/// and its per-level `(accesses, misses, writebacks)`.
struct Transition {
    entry: Vec<CacheSnapshot>,
    exit: Vec<CacheSnapshot>,
    deltas: Vec<(u64, u64, u64)>,
}

/// A descriptor's memo slot: its transitions, oldest first.
struct Memo {
    desc: NestDescriptor,
    transitions: Vec<Transition>,
}

/// [`AccessSink`] wrapper that serves recorded nests from its memo and
/// replays everything else through the wrapped [`Hierarchy`]. Counters and
/// contents of the hierarchy are the bitwise image of a plain replay after
/// every nest.
pub struct AnalyticSink<'h> {
    h: &'h mut Hierarchy,
    /// Why every nest is declined, when the hierarchy prefetches or
    /// replaces at random.
    unsupported: Option<Decline>,
    memo: Vec<Memo>,
    closed: u64,
    fallback: u64,
}

impl<'h> AnalyticSink<'h> {
    /// Wrap a hierarchy, in any state.
    pub fn new(h: &'h mut Hierarchy) -> Self {
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
        Self {
            h,
            unsupported,
            memo: Vec::new(),
            closed: 0,
            fallback: 0,
        }
    }

    /// Nests this sink served from its memo.
    pub fn nests_closed(&self) -> u64 {
        self.closed
    }

    /// Nests offered to this sink that it declined or replayed.
    pub fn nests_fallback(&self) -> u64 {
        self.fallback
    }

    /// Zero the wrapped hierarchy's counters (the steady protocol's
    /// warmup/timed boundary). Cache contents persist.
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

    /// The memo slot for a descriptor, made (evicting the oldest slot when
    /// full) if it has none.
    fn memo_index(&mut self, desc: &NestDescriptor) -> usize {
        if let Some(i) = self.memo.iter().position(|m| m.desc == *desc) {
            return i;
        }
        if self.memo.len() >= MAX_MEMO_NESTS {
            self.memo.remove(0);
        }
        self.memo.push(Memo {
            desc: desc.clone(),
            transitions: Vec::new(),
        });
        self.memo.len() - 1
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

    /// Serve an offered nest; `None` declines it to the generator.
    fn serve(&mut self, desc: &NestDescriptor) -> Option<u64> {
        if desc.non_affine {
            self.count_fallback(Some(Decline::NonAffineLayout));
            return None;
        }
        if let Some(d) = self.unsupported {
            self.count_fallback(Some(d));
            return None;
        }
        let Some(total) = desc.total_accesses() else {
            self.count_fallback(Some(Decline::Overflow));
            return None;
        };
        if total < MIN_MEMO_ACCESSES {
            self.count_fallback(None);
            return None;
        }
        let mi = self.memo_index(desc);
        let caches = self.h.caches();
        let hit = self.memo[mi].transitions.iter().find(|t| {
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
            return Some(total);
        }
        let entry = self.snapshot();
        let before = self.counts();
        expand_replay(desc, self.h);
        let deltas = self
            .counts()
            .iter()
            .zip(&before)
            .map(|(&(a, m, w), &(a0, m0, w0))| (a - a0, m - m0, w - w0))
            .collect();
        let exit = self.snapshot();
        let transitions = &mut self.memo[mi].transitions;
        if transitions.len() >= MAX_SNAPSHOTS {
            transitions.remove(0);
        }
        transitions.push(Transition {
            entry,
            exit,
            deltas,
        });
        self.count_fallback(None);
        Some(total)
    }
}

impl AccessSink for AnalyticSink<'_> {
    fn access(&mut self, access: Access) {
        self.h.access(access);
    }

    fn nest(&mut self, desc: &NestDescriptor) -> Option<u64> {
        self.serve(desc)
    }

    fn run(&mut self, run: Run) {
        self.h.run(run);
    }

    fn run_group(&mut self, runs: &[Run]) {
        self.h.run_group(runs);
    }
}

/// Replay a descriptor concretely through the hierarchy, emitting exactly
/// the run groups the trace walker would: one group of parallel strided
/// runs per innermost invocation, outer dimensions in odometer (time)
/// order. The generator offers only nests whose every address it has
/// checked to lie in range, and wrapping arithmetic reaches each such
/// address exactly, whatever the order of its terms.
fn expand_replay(desc: &NestDescriptor, h: &mut Hierarchy) {
    let dims = desc.trips.len();
    let (inner_trip, inner_dim) = (desc.trips[dims - 1], dims - 1);
    let mut idx = vec![0u64; dims - 1];
    let mut runs: Vec<Run> = Vec::with_capacity(desc.refs.len());
    loop {
        runs.clear();
        runs.extend(desc.refs.iter().map(|r| Run {
            start: idx.iter().zip(&r.deltas).fold(r.start, |a, (&v, &d)| {
                a.wrapping_add((d as u64).wrapping_mul(v))
            }),
            stride: r.deltas[inner_dim],
            count: inner_trip,
            kind: r.kind,
        }));
        if let [run] = runs.as_slice() {
            h.run(*run);
        } else {
            h.run_group(&runs);
        }
        let mut k = idx.len();
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < desc.trips[k] {
                break;
            }
            idx[k] = 0;
        }
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
    let mut sink = AnalyticSink::new(&mut h);
    try_generate_with(program, layout, &mut sink, true)?;
    drop(sink);
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
    let mut h = Hierarchy::new(config.clone());
    let mut sink = AnalyticSink::new(&mut h);
    for _ in 0..warmup {
        try_generate_with(program, layout, &mut sink, true)?;
    }
    sink.reset_stats();
    for _ in 0..timed {
        try_generate_with(program, layout, &mut sink, true)?;
    }
    drop(sink);
    Ok(h.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache_sim::trace::{AccessKind, RefDescriptor};
    use mlc_cache_sim::CacheConfig;
    use mlc_model::prelude::*;
    use mlc_model::trace_gen::{try_simulate_steady_with, try_simulate_with};

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

    /// `sweeps` program sweeps through one sink; returns the sink's
    /// (closed, fallback) counts.
    fn sweep(h: &mut Hierarchy, p: &Program, l: &DataLayout, sweeps: usize) -> (u64, u64) {
        let mut sink = AnalyticSink::new(h);
        for _ in 0..sweeps {
            try_generate_with(p, l, &mut sink, true).unwrap();
        }
        (sink.nests_closed(), sink.nests_fallback())
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
        // the sink replays the nest and the report stays bitwise.
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
        // Line 0 is resident, clean, when a nest that evicts it is first
        // offered, and resident with the same tag but dirty the second
        // time: that eviction costs a write-back the recorded one did not.
        let cfg = HierarchyConfig::new(vec![CacheConfig::direct_mapped(1024, 32)], vec![6.0]);
        let evict = NestDescriptor {
            trips: vec![MIN_MEMO_ACCESSES],
            refs: vec![RefDescriptor {
                start: 1024,
                deltas: vec![0],
                kind: AccessKind::Read,
            }],
            non_affine: false,
        };
        let drive = |sink: &mut dyn AccessSink| {
            for kind in [AccessKind::Read, AccessKind::Write] {
                sink.access(Access { addr: 0, kind });
                if sink.nest(&evict).is_none() {
                    sink.run(Run {
                        start: 1024,
                        stride: 0,
                        count: MIN_MEMO_ACCESSES,
                        kind: AccessKind::Read,
                    });
                }
            }
        };
        let mut h = Hierarchy::new(cfg.clone());
        let mut sink = AnalyticSink::new(&mut h);
        drive(&mut sink);
        assert_eq!(sink.nests_closed(), 0, "a dirty line is not a clean one");
        drop(sink);
        let mut hr = Hierarchy::new(cfg);
        drive(&mut hr);
        assert_eq!(hr.writebacks(), vec![1]);
        assert_eq!(h.writebacks(), hr.writebacks());
        assert_eq!(h.report(), hr.report());
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
        let mut sink = AnalyticSink::new(&mut h);
        for _ in 0..8 {
            try_generate_with(&p, &l, &mut sink, true).unwrap();
        }
        assert_eq!(sink.nests_closed(), 6);
        // Fixed point after the first sweep: exactly two distinct entry
        // states (cold and converged) were ever replayed.
        assert_eq!(sink.memo[0].transitions.len(), 2, "steady state memoizes");
    }
}
