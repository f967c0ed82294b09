//! A multi-level cache hierarchy.
//!
//! An access probes L1; on a miss the line is allocated at L1 and the access
//! propagates to L2, and so on until a level hits (or memory is reached).
//! Each level only sees the accesses that missed every level above it, which
//! is exactly the model behind the paper's simulations and the normalization
//! in [`crate::stats`].

use crate::cache::{trips_on_line, Cache, Probe};
use crate::config::HierarchyConfig;
use crate::stats::{LevelStats, MissRateReport};
use crate::trace::{Access, AccessSink, Run};

/// Which route [`Hierarchy::run_group`]'s fast path sent a group down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupPath {
    /// Preconditions failed: the caller runs the exact scalar interleave.
    Declined,
    /// Certified collision-free: closed-form line-crossing schedule.
    Periodic,
    /// Per-window collision checks, with scalar replay or bail-out.
    Windowed,
}

/// A stack of cache levels driven as one unit.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: HierarchyConfig,
    levels: Vec<Cache>,
    /// Next-line hardware prefetch: on a miss at a level, the following
    /// line is quietly installed there too (sequential tagged prefetch, the
    /// simplest form of the hardware prefetching Section 2.2 alludes to).
    next_line_prefetch: bool,
    prefetch_fills: u64,
}

impl Hierarchy {
    /// Build a cold hierarchy from a configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        let levels = config.levels.iter().map(|&c| Cache::new(c)).collect();
        Self {
            config,
            levels,
            next_line_prefetch: false,
            prefetch_fills: 0,
        }
    }

    /// Build with next-line prefetching enabled at every level.
    pub fn with_next_line_prefetch(config: HierarchyConfig) -> Self {
        let mut h = Self::new(config);
        h.next_line_prefetch = true;
        h
    }

    /// Lines installed by the prefetcher (across all levels).
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Per-level statistics snapshot, L1 first.
    pub fn stats(&self) -> Vec<LevelStats> {
        self.levels
            .iter()
            .map(|c| LevelStats::new(c.accesses(), c.misses()))
            .collect()
    }

    /// Full report with the paper's normalization.
    pub fn report(&self) -> MissRateReport {
        MissRateReport::from_levels(self.stats())
    }

    /// Invalidate all levels (cold caches) without touching counters.
    pub fn flush(&mut self) {
        for l in &mut self.levels {
            l.flush();
        }
    }

    /// Zero all counters without touching contents. Experiments use this to
    /// exclude warm-up iterations, mirroring the paper's steady-state rates.
    pub fn reset_stats(&mut self) {
        for l in &mut self.levels {
            l.reset_stats();
        }
    }

    /// Access an address, returning the deepest level that *missed*
    /// (0-based), or `None` on an L1 hit. `Some(depth()-1)` therefore means
    /// the access went to memory.
    #[inline]
    pub fn access_addr(&mut self, addr: u64) -> Option<usize> {
        self.access_addr_kind(addr, false)
    }

    /// [`Hierarchy::access_addr`] with a load/store distinction: stores mark
    /// lines dirty at every level they allocate in, for per-level write-back
    /// counting.
    #[inline]
    pub fn access_addr_kind(&mut self, addr: u64, write: bool) -> Option<usize> {
        let mut deepest_miss = None;
        for (i, level) in self.levels.iter_mut().enumerate() {
            match level.access_kind(addr, write) {
                Probe::Hit => break,
                Probe::Miss => deepest_miss = Some(i),
            }
        }
        if self.next_line_prefetch {
            if let Some(deepest) = deepest_miss {
                for i in 0..=deepest {
                    let line = self.levels[i].config().line as u64;
                    if self.levels[i].prefetch_fill(addr + line) {
                        self.prefetch_fills += 1;
                    }
                }
            }
        }
        deepest_miss
    }

    /// Per-level write-back counts (dirty evictions), L1 first.
    /// Observational: the write-back traffic is not re-injected as accesses.
    pub fn writebacks(&self) -> Vec<u64> {
        self.levels.iter().map(|c| c.writebacks()).collect()
    }

    /// The level caches, L1 first (read-only).
    pub fn caches(&self) -> &[Cache] {
        &self.levels
    }

    /// The level caches, L1 first, mutably. This exists for the analytic
    /// closed-form engine (`mlc_core::analytic`), which credits counters and
    /// materializes state through [`Cache::account_analytic`] /
    /// [`Cache::overwrite_set`]; ordinary drivers should stream accesses
    /// instead.
    pub fn caches_mut(&mut self) -> &mut [Cache] {
        &mut self.levels
    }

    /// Whether next-line prefetching is on (the analytic engine declines
    /// prefetching hierarchies, like the run fast path does).
    pub fn prefetch_enabled(&self) -> bool {
        self.next_line_prefetch
    }

    /// [`Hierarchy::access_addr_kind`] with a telemetry probe attached: one
    /// [`mlc_telemetry::AccessEvent`] per level probed (L1 outward, stopping
    /// at the first hit) and one [`mlc_telemetry::EvictionEvent`] per line
    /// replaced. State transitions and all counters are identical to the
    /// unprobed path; prefetch fills are quiet installs and emit no events.
    pub fn access_addr_kind_probed(
        &mut self,
        addr: u64,
        write: bool,
        probe: &mut dyn mlc_telemetry::CacheProbe,
    ) -> Option<usize> {
        let mut deepest_miss = None;
        for (i, level) in self.levels.iter_mut().enumerate() {
            match level.access_kind_probed(addr, write, i, probe) {
                Probe::Hit => break,
                Probe::Miss => deepest_miss = Some(i),
            }
        }
        if self.next_line_prefetch {
            if let Some(deepest) = deepest_miss {
                for i in 0..=deepest {
                    let line = self.levels[i].config().line as u64;
                    if self.levels[i].prefetch_fill(addr + line) {
                        self.prefetch_fills += 1;
                    }
                }
            }
        }
        deepest_miss
    }

    /// Try to consume a [`Run`] through the line-boundary fast path: one
    /// real probe per line segment, the rest bulk-counted as guaranteed L1
    /// hits via [`Cache::note_hits`]. After the first access of a segment
    /// the line is resident at L1 and nothing else touches its set before
    /// the segment ends, so every remaining trip is a hit that cannot
    /// change cache state beyond counters and the dirty bit — identical to
    /// the scalar loop for every associativity and replacement policy.
    ///
    /// Returns `false` (caller must run the scalar loop) when the
    /// preconditions fail: next-line prefetching is enabled (a prefetch
    /// fill may evict the active line in degenerate geometries, and the
    /// paper's prefetch ablation should not silently change paths), or the
    /// stride covers more than half a line (too few accesses per line for
    /// batching to pay).
    fn try_run_fast(&mut self, run: Run) -> bool {
        if self.next_line_prefetch {
            return false;
        }
        let line = self.levels[0].config().line as u64;
        if run.stride.unsigned_abs() * 2 > line {
            return false;
        }
        let line_shift = line.trailing_zeros();
        let write = run.is_write();
        let mut addr = run.start;
        let mut left = run.count;
        while left > 0 {
            let k = trips_on_line(addr, run.stride, line_shift).min(left);
            self.access_addr_kind(addr, write);
            self.note_l1_run_hits(addr, k - 1, write);
            addr = addr.wrapping_add((run.stride as u64).wrapping_mul(k));
            left -= k;
        }
        true
    }

    /// Count `n` guaranteed L1 hits on the line at `addr`: asserted through
    /// [`Cache::note_hits`] in debug builds, a bare counter bump in release
    /// (the line was entered with an access of the same kind, so the dirty
    /// bit is already correct).
    #[inline]
    fn note_l1_run_hits(&mut self, addr: u64, n: u64, write: bool) {
        if cfg!(debug_assertions) {
            self.levels[0].note_hits(addr, n, write);
        } else {
            self.levels[0].add_hit_accesses(n);
        }
    }

    /// One line-entering access of a periodic run group: a real L1 probe,
    /// then a walk of the deeper levels that short-circuits where the
    /// group's guaranteed-hit invariant applies. `marks[l]` holds the last
    /// line of level `l+1` this reference probed; while the group's
    /// references are pairwise set-disjoint at that level (`skip[l].1`, with
    /// `skip[l].0` the level's line shift), nothing can have evicted or
    /// demoted that line since, so a repeat touch is a hit that changes only
    /// the access counter — the dirty bit was set when the line was probed
    /// with this same access kind, and promotion is a no-op because the line
    /// is still the set's most recent.
    #[inline]
    fn access_entering(&mut self, addr: u64, write: bool, marks: &mut [u64], skip: &[(u32, bool)]) {
        if self.levels[0].access_kind(addr, write) == Probe::Hit {
            return;
        }
        for (l, &(shift, disjoint)) in skip.iter().enumerate() {
            let line = addr >> shift;
            if disjoint && marks[l] == line {
                if cfg!(debug_assertions) {
                    self.levels[l + 1].note_hits(addr, 1, write);
                } else {
                    self.levels[l + 1].add_hit_accesses(1);
                }
                return;
            }
            marks[l] = line;
            if self.levels[l + 1].access_kind(addr, write) == Probe::Hit {
                return;
            }
        }
    }

    /// Try to consume an interleaved run group through the fast path.
    ///
    /// Correctness rests on one invariant: while no two references occupy
    /// *different* lines of the same L1 set, each reference's accesses after
    /// its first touch of a line are guaranteed L1 hits that cannot change
    /// cache state beyond counters and the (already-set) dirty bit — an LRU
    /// hit re-promotes the already-most-recent line, FIFO and Random never
    /// promote on hits, and hits propagate to no deeper level. Only the
    /// line-entering accesses go through the real probe path, in exact trip
    /// order, so every level's miss stream is identical to the scalar
    /// interleave.
    ///
    /// When all references share one stride, set collisions are decidable
    /// up front by [`lockstep_set_disjoint`]: provably collision-free groups
    /// with a line-dividing stride take a closed-form periodic path
    /// ([`Hierarchy::run_group_periodic`]); everything else goes through the
    /// windowed path ([`Hierarchy::run_group_windowed`]), which checks
    /// collisions at line-crossing granularity and replays conflicting
    /// windows scalar. Groups that add loop-invariant references to one
    /// common stride are decided the same way by
    /// [`Hierarchy::run_group_pinned`].
    ///
    /// Returns [`GroupPath::Declined`] when the group cannot take the fast
    /// path at all: prefetching enabled, mismatched trip counts, or some
    /// stride covering more than half an L1 line.
    fn try_run_group_fast(&mut self, runs: &[Run]) -> GroupPath {
        if self.next_line_prefetch {
            return GroupPath::Declined;
        }
        let count = runs[0].count;
        if runs.iter().any(|r| r.count != count) {
            return GroupPath::Declined;
        }
        let l1 = self.levels[0].config();
        let line = l1.line as u64;
        if runs.iter().any(|r| r.stride.unsigned_abs() * 2 > line) {
            return GroupPath::Declined;
        }
        if count == 0 {
            return GroupPath::Periodic;
        }
        let line_shift = line.trailing_zeros();
        let num_sets = l1.num_sets() as u64;
        let stride = runs[0].stride;
        if runs.iter().any(|r| r.stride != stride) {
            return self.run_group_pinned(runs, count, line_shift, num_sets);
        }
        let never_conflict = lockstep_set_disjoint(runs, count, line_shift, num_sets);

        if never_conflict && stride != 0 && line.is_multiple_of(stride.unsigned_abs()) {
            self.run_group_periodic(runs, runs, count, line_shift);
            GroupPath::Periodic
        } else {
            self.run_group_windowed(runs, count, line_shift, num_sets - 1, never_conflict);
            GroupPath::Windowed
        }
    }

    /// [`Hierarchy::try_run_group_fast`] for groups with more than one
    /// stride. Loop-invariant (stride-0) references join the periodic
    /// schedule when the moving ones share a line-dividing stride and
    /// [`pinned_set_disjoint`] certifies the whole group; anything else goes
    /// windowed.
    fn run_group_pinned(
        &mut self,
        runs: &[Run],
        count: u64,
        line_shift: u32,
        num_sets: u64,
    ) -> GroupPath {
        let moving: Vec<Run> = runs.iter().filter(|r| r.stride != 0).copied().collect();
        let stride = moving[0].stride;
        if moving.iter().all(|r| r.stride == stride)
            && (1u64 << line_shift).is_multiple_of(stride.unsigned_abs())
            && pinned_set_disjoint(runs, &moving, count, line_shift, num_sets)
        {
            self.run_group_periodic(runs, &moving, count, line_shift);
            GroupPath::Periodic
        } else {
            self.run_group_windowed(runs, count, line_shift, num_sets - 1, false);
            GroupPath::Windowed
        }
    }

    /// Collision-free group whose `moving` references (the nonzero-stride
    /// subsequence of `runs`, in body order) share one line-dividing
    /// stride: each crosses lines with the same period `line/|stride|`
    /// trips, so its line-entering trips form an arithmetic sequence known
    /// up front. The entering accesses are emitted in exact trip order (one
    /// stable sort); every other access is a guaranteed L1 hit, flushed as
    /// one counter bump. Stride-0 references are probed once at trip 0 and
    /// hit for the rest of the run.
    fn run_group_periodic(&mut self, runs: &[Run], moving: &[Run], count: u64, line_shift: u32) {
        let n = moving.len();
        let period = (1u64 << line_shift) / moving[0].stride.unsigned_abs();
        let mut hits = 0u64;
        // Trip 0: every reference's first access, in body order; each then
        // hits until its first line crossing (a stride-0 one never crosses).
        let mut first_cross = Vec::with_capacity(n);
        for r in runs {
            self.access_addr_kind(r.start, r.is_write());
            let tol = trips_on_line(r.start, r.stride, line_shift).min(count);
            if cfg!(debug_assertions) {
                self.levels[0].note_hits(r.start, tol - 1, r.is_write());
            } else {
                hits += tol - 1;
            }
            if r.stride != 0 {
                first_cross.push(tol);
            }
        }
        // Rounds of crossings: in round k, reference i enters a new line at
        // trip first_cross[i] + k·period, at an address exactly one line
        // past its previous entry. Within a round, ascending trip with ties
        // in body order — exactly the scalar emission order, since
        // consecutive rounds cover disjoint ascending trip ranges.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| first_cross[i]);
        let line = 1u64 << line_shift;
        let line_delta = if moving[0].stride > 0 {
            line
        } else {
            line.wrapping_neg()
        };
        // Per scheduled reference: next entering address, first-cross trip,
        // write flag.
        let mut ents: Vec<(u64, u64, bool)> = order
            .iter()
            .map(|&i| {
                (
                    moving[i].addr(first_cross[i]),
                    first_cross[i],
                    moving[i].is_write(),
                )
            })
            .collect();
        // The guaranteed-hit argument applies at *every* level whose sets
        // the group's references provably never contend for: once a
        // reference has probed a line of such a level, later touches within
        // this group find it resident and still most-recent. Track the last
        // probed line per (reference, deeper level) so entering accesses can
        // stop their miss walk with a counter bump instead of a probe. Only
        // the moving references matter here: after trip 0, before any mark
        // is set, a stride-0 reference only ever hits L1.
        let skip: Vec<(u32, bool)> = self
            .levels
            .iter()
            .skip(1)
            .map(|c| {
                let cfg = c.config();
                let shift = (cfg.line as u64).trailing_zeros();
                (
                    shift,
                    lockstep_set_disjoint(moving, count, shift, cfg.num_sets() as u64),
                )
            })
            .collect();
        let depth = skip.len();
        let mut marks = vec![u64::MAX; n * depth];
        // Rounds where every reference enters with a full-period segment
        // need no per-entry bounds checks and contribute a closed-form hit
        // count; only the ragged tail rounds are scheduled individually.
        let full = ents
            .iter()
            .map(|&(_, fc, _)| (count - fc) / period)
            .min()
            .unwrap_or(0);
        for _ in 0..full {
            for (i, e) in ents.iter_mut().enumerate() {
                self.access_entering(e.0, e.2, &mut marks[i * depth..(i + 1) * depth], &skip);
                if cfg!(debug_assertions) {
                    self.levels[0].note_hits(e.0, period - 1, e.2);
                }
                e.0 = e.0.wrapping_add(line_delta);
            }
        }
        if !cfg!(debug_assertions) {
            hits += full * n as u64 * (period - 1);
        }
        let mut round = full;
        loop {
            let mut any = false;
            for e in ents.iter_mut() {
                let enter = e.1 + round * period;
                if enter >= count {
                    continue;
                }
                any = true;
                self.access_addr_kind(e.0, e.2);
                let seg = period.min(count - enter);
                if cfg!(debug_assertions) {
                    self.levels[0].note_hits(e.0, seg - 1, e.2);
                } else {
                    hits += seg - 1;
                }
                e.0 = e.0.wrapping_add(line_delta);
            }
            if !any {
                break;
            }
            round += 1;
        }
        self.levels[0].add_hit_accesses(hits);
    }

    /// General windowed path: advance to the next line-crossing boundary of
    /// any reference; windows where two references occupy different lines of
    /// one L1 set (the paper's severe/ping-pong conflicts) are replayed
    /// through the exact scalar interleave, and every reference re-probes in
    /// the following window since a conflicting neighbor may have evicted
    /// its line. Groups stuck in conflict bail to a pure scalar loop, so
    /// pathological layouts cost scalar plus a bounded prefix. Returns the
    /// number of conflict windows seen.
    fn run_group_windowed(
        &mut self,
        runs: &[Run],
        count: u64,
        line_shift: u32,
        set_mask: u64,
        never_conflict: bool,
    ) -> u64 {
        /// Consecutive conflict windows before giving up on batching.
        const CONFLICT_BAIL: u32 = 16;
        let n = runs.len();
        let mut cur: Vec<u64> = runs.iter().map(|r| r.start).collect();
        // Trips left on each reference's current line (0 ⇒ recompute), its
        // current line number, and whether its next access is the first on
        // a new line (initially true; true for everyone after a conflict
        // window, whose eviction order is not tracked).
        let mut tol = vec![0u64; n];
        let mut line_of = vec![0u64; n];
        let mut entering = vec![true; n];
        let mut hits = 0u64;
        let mut conflict_streak = 0u32;
        let mut conflicts = 0u64;
        let mut t = 0u64;
        while t < count {
            let mut w = count - t;
            for i in 0..n {
                if tol[i] == 0 {
                    tol[i] = trips_on_line(cur[i], runs[i].stride, line_shift);
                    line_of[i] = cur[i] >> line_shift;
                }
                w = w.min(tol[i]);
            }
            let mut conflict = false;
            if !never_conflict {
                // Pairs of references that both kept their lines were
                // checked when one of them last entered, so only pairs
                // involving an entering reference need (re)checking.
                'check: for i in 0..n {
                    if !entering[i] {
                        continue;
                    }
                    let (li, si) = (line_of[i], line_of[i] & set_mask);
                    for (j, &lj) in line_of.iter().enumerate() {
                        if j != i && lj != li && (lj & set_mask) == si {
                            conflict = true;
                            break 'check;
                        }
                    }
                }
            }
            if conflict {
                conflicts += 1;
                conflict_streak += 1;
                if conflict_streak >= CONFLICT_BAIL {
                    self.levels[0].add_hit_accesses(hits);
                    for trip in t..count {
                        for r in runs {
                            self.access_addr_kind(r.addr(trip), r.is_write());
                        }
                    }
                    return conflicts;
                }
                for trip in 0..w {
                    for (i, r) in runs.iter().enumerate() {
                        let addr = cur[i].wrapping_add((r.stride as u64).wrapping_mul(trip));
                        self.access_addr_kind(addr, r.is_write());
                    }
                }
            } else {
                conflict_streak = 0;
                for (i, r) in runs.iter().enumerate() {
                    let write = r.is_write();
                    if entering[i] {
                        self.access_addr_kind(cur[i], write);
                    }
                    let h = w - entering[i] as u64;
                    if cfg!(debug_assertions) {
                        self.levels[0].note_hits(cur[i], h, write);
                    } else {
                        hits += h;
                    }
                }
            }
            for (i, r) in runs.iter().enumerate() {
                tol[i] -= w;
                entering[i] = conflict || tol[i] == 0;
                cur[i] = cur[i].wrapping_add((r.stride as u64).wrapping_mul(w));
            }
            t += w;
        }
        self.levels[0].add_hit_accesses(hits);
        conflicts
    }

    /// View this hierarchy as an [`AccessSink`] that reports every access
    /// to `probe`. Drives the same state as the plain sink impl.
    pub fn probed<'a>(
        &'a mut self,
        probe: &'a mut dyn mlc_telemetry::CacheProbe,
    ) -> ProbedHierarchy<'a> {
        ProbedHierarchy {
            hierarchy: self,
            probe,
        }
    }
}

/// Whether a lockstep group — equal strides, `count` trips — provably never
/// puts two references on different lines of one cache set at the same
/// trip, for the level with the given line shift and (power-of-two) set
/// count.
///
/// Marching at one rate, a pair `a`, `b` with `d = b − a` keeps line
/// distance `D = ⌊d/line⌋` while `x + d mod line < line` and `D+1`
/// otherwise, where `x` is `a`'s current in-line offset; a set collision
/// needs an occurring distance to be a nonzero multiple of the set count.
/// When the stride `s` divides the line and the run lasts at least
/// `line/s` trips, `x` visits exactly the residue class `a mod s + k·s`,
/// so `D` occurs iff `a mod s + d mod line < line` and `D+1` iff
/// `a mod s + d mod line ≥ s`: the certificate is exact. Otherwise (short
/// runs, zero or line-misaligned strides) both distances are assumed.
/// Addresses are validated non-negative `i64`s, so the difference fits an
/// `i64`, and line, stride and set counts are powers of two, so flooring
/// division, residues and divisibility reduce to shift and mask.
fn lockstep_set_disjoint(runs: &[Run], count: u64, line_shift: u32, num_sets: u64) -> bool {
    let line = 1i64 << line_shift;
    let smask = num_sets as i64 - 1;
    let s = runs[0].stride.unsigned_abs() as i64;
    let exact = s != 0 && line % s == 0 && count >= (line / s) as u64;
    for (i, a) in runs.iter().enumerate() {
        let lo = a.start as i64 & (s - 1);
        for b in &runs[i + 1..] {
            let d = b.start.wrapping_sub(a.start) as i64;
            let (dl, r) = (d >> line_shift, d & (line - 1));
            let near = !exact || lo + r < line;
            let far = !exact || lo + r >= s;
            for (occurs, diff) in [(near, dl), (far, dl + 1)] {
                if occurs && diff != 0 && (diff & smask) == 0 {
                    return false;
                }
            }
        }
    }
    true
}

/// [`lockstep_set_disjoint`] for a group whose `moving` references share
/// one stride and whose other references are loop-invariant (stride 0).
/// Each invariant reference sits on one line `P` for the whole run, while a
/// moving reference sweeps the contiguous line interval `[lo, hi]` between
/// its first and last address: they collide iff `[lo − P, hi − P]` holds a
/// nonzero multiple of the set count — the interval test of the analytic
/// engine's interleave certificate. Exact, since a stride of at most half a
/// line visits every line of its interval.
fn pinned_set_disjoint(
    runs: &[Run],
    moving: &[Run],
    count: u64,
    line_shift: u32,
    num_sets: u64,
) -> bool {
    if !lockstep_set_disjoint(moving, count, line_shift, num_sets) {
        return false;
    }
    let sets = num_sets as i64;
    for (i, p) in runs.iter().enumerate() {
        if p.stride != 0 {
            continue;
        }
        let pl = (p.start >> line_shift) as i64;
        for (j, r) in runs.iter().enumerate() {
            if j == i {
                continue;
            }
            let (a, b) = (r.start, r.addr(count - 1));
            let lo = (a.min(b) >> line_shift) as i64 - pl;
            let hi = (a.max(b) >> line_shift) as i64 - pl;
            // The multiples k·sets inside [lo, hi] have k in [k_min, k_max].
            let (k_min, k_max) = (-(-lo).div_euclid(sets), hi.div_euclid(sets));
            if k_min <= k_max && (k_min <= -1 || k_max >= 1) {
                return false;
            }
        }
    }
    true
}

/// An [`AccessSink`] wrapper pairing a [`Hierarchy`] with a
/// [`mlc_telemetry::CacheProbe`]; see [`Hierarchy::probed`].
pub struct ProbedHierarchy<'a> {
    hierarchy: &'a mut Hierarchy,
    probe: &'a mut dyn mlc_telemetry::CacheProbe,
}

// ProbedHierarchy deliberately does NOT override `run`/`run_group`: the
// whole point of attaching a probe is to observe every individual access,
// so the trait defaults expand runs into the per-access scalar path and the
// probe sees the exact same event stream with or without run-length
// encoding upstream.
impl AccessSink for ProbedHierarchy<'_> {
    #[inline]
    fn access(&mut self, access: Access) {
        self.hierarchy.access_addr_kind_probed(
            access.addr,
            access.kind == crate::trace::AccessKind::Write,
            self.probe,
        );
    }
}

impl AccessSink for Hierarchy {
    #[inline]
    fn access(&mut self, access: Access) {
        self.access_addr_kind(access.addr, access.kind == crate::trace::AccessKind::Write);
    }

    fn run(&mut self, run: Run) {
        if !self.try_run_fast(run) {
            let mut addr = run.start;
            let write = run.is_write();
            for _ in 0..run.count {
                self.access_addr_kind(addr, write);
                addr = addr.wrapping_add(run.stride as u64);
            }
        }
    }

    fn run_group(&mut self, runs: &[Run]) {
        match runs {
            [] => {}
            [run] => self.run(*run),
            _ => {
                if self.try_run_group_fast(runs) == GroupPath::Declined {
                    // Exact interleaved scalar fallback, mirroring the
                    // trait's default implementation.
                    for t in 0..runs[0].count {
                        for r in runs {
                            self.access_addr_kind(r.addr(t), r.is_write());
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, HierarchyConfig};

    fn tiny_cfg() -> HierarchyConfig {
        // L1: 128 B / 32 B lines (4 lines); L2: 512 B / 64 B lines (8 lines).
        HierarchyConfig::new(
            vec![
                CacheConfig::direct_mapped(128, 32),
                CacheConfig::direct_mapped(512, 64),
            ],
            vec![1.0, 10.0],
        )
    }

    fn tiny() -> Hierarchy {
        Hierarchy::new(tiny_cfg())
    }

    #[test]
    fn l1_hit_never_reaches_l2() {
        let mut h = tiny();
        assert_eq!(h.access_addr(0), Some(1)); // cold: misses both
        assert_eq!(h.access_addr(0), None); // L1 hit
        let s = h.stats();
        assert_eq!(s[0].accesses(), 2);
        assert_eq!(s[1].accesses(), 1); // only the first access reached L2
    }

    #[test]
    fn l1_conflict_can_hit_l2() {
        let mut h = tiny();
        // 0 and 128 conflict in L1 (same L1 location) but land on different
        // L2 lines (line addrs 0 and 2 of 8).
        h.access_addr(0);
        h.access_addr(128);
        assert_eq!(h.access_addr(0), Some(0)); // misses L1, hits L2
        let s = h.stats();
        assert_eq!(s[0].misses(), 3);
        assert_eq!(s[1].misses(), 2);
    }

    #[test]
    fn report_normalizes_to_l1_accesses() {
        let mut h = tiny();
        for _ in 0..5 {
            h.access_addr(0);
            h.access_addr(128);
        }
        let r = h.report();
        assert_eq!(r.total_references, 10);
        // After the two cold misses every access ping-pongs in L1 but hits L2.
        assert_eq!(r.levels[0].misses(), 10);
        assert_eq!(r.levels[1].misses(), 2);
        assert!((r.miss_rate(0) - 1.0).abs() < 1e-12);
        assert!((r.miss_rate(1) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn memory_access_is_deepest_level() {
        let mut h = tiny();
        assert_eq!(h.access_addr(4096), Some(1));
    }

    #[test]
    fn flush_and_reset_are_independent() {
        let mut h = tiny();
        h.access_addr(0);
        h.flush();
        assert_eq!(h.access_addr(0), Some(1)); // cold again
        h.reset_stats();
        assert_eq!(h.stats()[0].accesses(), 0);
        assert_eq!(h.access_addr(0), None); // contents survived reset_stats
    }

    #[test]
    fn sink_impl_matches_direct_calls() {
        let mut a = tiny();
        let mut b = tiny();
        for addr in [0u64, 128, 0, 64, 192, 0] {
            a.access_addr(addr);
            b.access(Access::read(addr));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn next_line_prefetch_halves_streaming_misses() {
        let cfg = HierarchyConfig::ultrasparc_i();
        let n = 1u64 << 18;
        let mut plain = Hierarchy::new(cfg.clone());
        let mut pf = Hierarchy::with_next_line_prefetch(cfg);
        for i in 0..n {
            plain.access(Access::read(i * 8));
            pf.access(Access::read(i * 8));
        }
        let (mp, mf) = (plain.stats()[0].misses(), pf.stats()[0].misses());
        assert!(
            mf * 2 <= mp + 8,
            "prefetch should halve streaming misses: {mp} -> {mf}"
        );
        assert!(pf.prefetch_fills() > 0);
    }

    #[test]
    fn prefetch_does_not_help_ping_pong() {
        // Conflict misses alternate between two far-apart lines; the next
        // line is never the one needed, so prefetching cannot fix what
        // padding fixes.
        let cfg = HierarchyConfig::ultrasparc_i();
        let mut pf = Hierarchy::with_next_line_prefetch(cfg);
        for _ in 0..1000 {
            pf.access(Access::read(0));
            pf.access(Access::read(16 * 1024));
        }
        let r = pf.report();
        assert!(r.miss_rate(0) > 0.99, "{}", r.miss_rate(0));
    }

    #[test]
    fn writebacks_surface_per_level() {
        let mut h = tiny();
        h.access_addr_kind(0, true);
        h.access_addr_kind(128, false); // evicts dirty line 0 from L1
        let wb = h.writebacks();
        assert_eq!(wb[0], 1);
        assert_eq!(wb[1], 0);
    }

    #[test]
    fn ultrasparc_sequential_walk() {
        let mut h = Hierarchy::new(HierarchyConfig::ultrasparc_i());
        let n = 1u64 << 20; // 1 MiB walk, byte accesses
        for addr in 0..n {
            h.access(Access::read(addr));
        }
        let s = h.stats();
        assert_eq!(s[0].misses(), n / 32);
        assert_eq!(s[1].misses(), n / 64);
    }

    use crate::replacement::ReplacementPolicy;
    use crate::trace::{AccessKind, Run};

    /// Feed `runs` through the fast path on one hierarchy and through the
    /// exact scalar interleave on a clone, then demand identical per-level
    /// accesses, misses, and writebacks.
    fn assert_group_parity(cfg: HierarchyConfig, prefetch: bool, runs: &[Run]) {
        let (mut fast, mut slow) = if prefetch {
            (
                Hierarchy::with_next_line_prefetch(cfg.clone()),
                Hierarchy::with_next_line_prefetch(cfg),
            )
        } else {
            (Hierarchy::new(cfg.clone()), Hierarchy::new(cfg))
        };
        fast.run_group(runs);
        if let Some(first) = runs.first() {
            for t in 0..first.count {
                for r in runs {
                    slow.access_addr_kind(r.addr(t), r.is_write());
                }
            }
        }
        assert_eq!(fast.stats(), slow.stats(), "stats diverge for {runs:?}");
        assert_eq!(
            fast.writebacks(),
            slow.writebacks(),
            "writebacks diverge for {runs:?}"
        );
        assert_eq!(fast.prefetch_fills(), slow.prefetch_fills());
    }

    fn geometries() -> Vec<HierarchyConfig> {
        vec![
            HierarchyConfig::ultrasparc_i(),
            HierarchyConfig::new(
                vec![
                    CacheConfig::new(1024, 32, 2, ReplacementPolicy::Lru),
                    CacheConfig::direct_mapped(8192, 64),
                ],
                vec![1.0, 10.0],
            ),
            HierarchyConfig::new(
                vec![CacheConfig::new(512, 32, 4, ReplacementPolicy::Fifo)],
                vec![1.0],
            ),
            HierarchyConfig::new(
                vec![CacheConfig::new(512, 32, 4, ReplacementPolicy::Random)],
                vec![1.0],
            ),
        ]
    }

    #[test]
    fn run_matches_scalar_across_geometries() {
        for cfg in geometries() {
            for stride in [0i64, 1, 4, 8, 16, -8] {
                for kind in [AccessKind::Read, AccessKind::Write] {
                    let run = Run {
                        start: 1 << 20,
                        stride,
                        count: 500,
                        kind,
                    };
                    let mut fast = Hierarchy::new(cfg.clone());
                    fast.run(run);
                    let mut slow = Hierarchy::new(cfg.clone());
                    for t in 0..run.count {
                        slow.access_addr_kind(run.addr(t), run.is_write());
                    }
                    assert_eq!(fast.stats(), slow.stats(), "{cfg:?} {run:?}");
                    assert_eq!(fast.writebacks(), slow.writebacks());
                }
            }
        }
    }

    #[test]
    fn run_group_matches_scalar_disjoint_sets() {
        // Three unit-stride streams far apart: the common fast case.
        for cfg in geometries() {
            let runs = [
                Run {
                    start: 0,
                    stride: 8,
                    count: 1000,
                    kind: AccessKind::Read,
                },
                Run {
                    start: 1 << 21,
                    stride: 8,
                    count: 1000,
                    kind: AccessKind::Read,
                },
                Run {
                    start: 1 << 22,
                    stride: 8,
                    count: 1000,
                    kind: AccessKind::Write,
                },
            ];
            assert_group_parity(cfg, false, &runs);
        }
    }

    #[test]
    fn run_group_matches_scalar_under_ping_pong_conflict() {
        // Two streams exactly one L1 cache-size apart: every window is a
        // severe conflict and the group must replay scalar — including the
        // post-conflict re-probe that restores residency tracking.
        for cfg in geometries() {
            let l1 = cfg.levels[0].size as u64;
            let runs = [
                Run {
                    start: 0,
                    stride: 8,
                    count: 600,
                    kind: AccessKind::Write,
                },
                Run {
                    start: l1,
                    stride: 8,
                    count: 600,
                    kind: AccessKind::Read,
                },
            ];
            assert_group_parity(cfg, false, &runs);
        }
    }

    #[test]
    fn run_group_matches_scalar_intermittent_conflict() {
        // Strides differ, so the pair drifts in and out of set conflicts:
        // exercises the conflict-window/fast-window transitions both ways.
        for cfg in geometries() {
            let l1 = cfg.levels[0].size as u64;
            let runs = [
                Run {
                    start: 64,
                    stride: 8,
                    count: 2000,
                    kind: AccessKind::Write,
                },
                Run {
                    start: l1 - 256,
                    stride: -8,
                    count: 2000,
                    kind: AccessKind::Read,
                },
                Run {
                    start: 3 * l1 + 32,
                    stride: 16,
                    count: 2000,
                    kind: AccessKind::Read,
                },
            ];
            assert_group_parity(cfg, false, &runs);
        }
    }

    #[test]
    fn run_group_same_line_references_share_hits() {
        // Two references marching over the same addresses (e.g. a[i] read
        // and a[i] written back): same line in the same set is not a
        // conflict.
        let runs = [
            Run {
                start: 4096,
                stride: 8,
                count: 512,
                kind: AccessKind::Read,
            },
            Run {
                start: 4096,
                stride: 8,
                count: 512,
                kind: AccessKind::Write,
            },
        ];
        for cfg in geometries() {
            assert_group_parity(cfg, false, &runs);
        }
    }

    #[test]
    fn prefetch_forces_scalar_but_stays_exact() {
        let runs = [
            Run {
                start: 0,
                stride: 8,
                count: 800,
                kind: AccessKind::Read,
            },
            Run {
                start: 1 << 21,
                stride: 8,
                count: 800,
                kind: AccessKind::Write,
            },
        ];
        assert_group_parity(HierarchyConfig::ultrasparc_i(), true, &runs);
        let mut h = Hierarchy::with_next_line_prefetch(HierarchyConfig::ultrasparc_i());
        assert!(!h.try_run_fast(runs[0]));
        assert_eq!(h.try_run_group_fast(&runs), GroupPath::Declined);
    }

    #[test]
    fn wide_stride_falls_back_to_scalar() {
        let run = Run {
            start: 0,
            stride: 64, // 2× the 32 B L1 line of ultrasparc_i
            count: 300,
            kind: AccessKind::Read,
        };
        let mut h = Hierarchy::new(HierarchyConfig::ultrasparc_i());
        assert!(!h.try_run_fast(run));
        let mut fast = Hierarchy::new(HierarchyConfig::ultrasparc_i());
        fast.run(run);
        let mut slow = Hierarchy::new(HierarchyConfig::ultrasparc_i());
        for t in 0..run.count {
            slow.access_addr_kind(run.addr(t), false);
        }
        assert_eq!(fast.stats(), slow.stats());
    }

    fn run(start: u64, stride: i64, count: u64, kind: AccessKind) -> Run {
        Run {
            start,
            stride,
            count,
            kind,
        }
    }

    /// Feed `runs` through [`Hierarchy::try_run_group_fast`] on one
    /// hierarchy and the exact scalar interleave on another, both warmed by
    /// the same `prime` accesses; demand identical per-level counters,
    /// write-backs and final per-set tag/dirty state. Returns the path the
    /// fast side took.
    fn group_state_parity(cfg: &HierarchyConfig, prime: &[u64], runs: &[Run]) -> GroupPath {
        let mut fast = Hierarchy::new(cfg.clone());
        let mut slow = Hierarchy::new(cfg.clone());
        for &a in prime {
            fast.access_addr_kind(a, a & 8 != 0);
            slow.access_addr_kind(a, a & 8 != 0);
        }
        let path = fast.try_run_group_fast(runs);
        let scalar = |h: &mut Hierarchy| {
            for t in 0..runs[0].count {
                for r in runs {
                    h.access_addr_kind(r.addr(t), r.is_write());
                }
            }
        };
        if path == GroupPath::Declined {
            scalar(&mut fast);
        }
        scalar(&mut slow);
        assert_eq!(fast.stats(), slow.stats(), "stats diverge for {runs:?}");
        assert_eq!(fast.writebacks(), slow.writebacks(), "{runs:?}");
        for (l, (f, s)) in fast.caches().iter().zip(slow.caches()).enumerate() {
            for set in 0..f.config().num_sets() {
                assert!(
                    f.set_contents(set).eq(s.set_contents(set)),
                    "level {l} set {set} state diverges for {runs:?}"
                );
            }
        }
        path
    }

    #[test]
    fn aligned_pair_one_line_short_of_the_cache_goes_periodic() {
        // Line-aligned f64 streams one L1 line short of the cache size:
        // D ≡ −1 (mod sets). D+1 ≡ 0 would collide, but with both offsets
        // at 0 mod 32 the distance never reaches D+1.
        for cfg in [tiny_cfg(), HierarchyConfig::ultrasparc_i()] {
            let l1 = cfg.levels[0];
            let d = (l1.size - l1.line) as u64;
            let runs = [
                run(1 << 16, 8, 300, AccessKind::Read),
                run((1 << 16) + d, 8, 300, AccessKind::Write),
            ];
            assert_eq!(
                group_state_parity(&cfg, &[0, 4096, 1 << 16], &runs),
                GroupPath::Periodic
            );
        }
    }

    #[test]
    fn pair_whose_next_line_collides_stays_windowed() {
        // The same pair shifted by one element: now every fourth trip puts
        // the trailing stream on the line that shares the leader's set.
        for cfg in [tiny_cfg(), HierarchyConfig::ultrasparc_i()] {
            let l1 = cfg.levels[0];
            let d = (l1.size - l1.line + 8) as u64;
            let runs = [
                run(1 << 16, 8, 300, AccessKind::Write),
                run((1 << 16) + d, 8, 300, AccessKind::Read),
            ];
            let mut h = Hierarchy::new(cfg.clone());
            let set_mask = l1.num_sets() as u64 - 1;
            assert!(h.run_group_windowed(&runs, 300, 5, set_mask, false) > 0);
            assert_eq!(group_state_parity(&cfg, &[], &runs), GroupPath::Windowed);
        }
    }

    #[test]
    fn short_run_keeps_the_conservative_test() {
        // Fewer than line/stride trips: the leader's offsets need not cover
        // their residue class, so both D and D+1 are assumed.
        let cfg = tiny_cfg();
        let runs = |count| {
            [
                run(0, 8, count, AccessKind::Read),
                run(96, 8, count, AccessKind::Read),
            ]
        };
        assert_eq!(group_state_parity(&cfg, &[], &runs(3)), GroupPath::Windowed);
        assert_eq!(group_state_parity(&cfg, &[], &runs(4)), GroupPath::Periodic);
    }

    #[test]
    fn invariant_reference_joins_the_periodic_schedule_when_disjoint() {
        // a(i,j) read and written, t = a(k,j) invariant in i: the moving
        // streams sweep L1 lines 0..2 of the tiny cache (sets 0–2).
        let cfg = tiny_cfg();
        let group = |pinned: u64| {
            [
                run(0, 8, 12, AccessKind::Read),
                run(pinned, 0, 12, AccessKind::Read),
                run(0, 8, 12, AccessKind::Write),
            ]
        };
        // Line 23 sits in set 3: disjoint.
        assert_eq!(
            group_state_parity(&cfg, &[736, 8], &group(736)),
            GroupPath::Periodic
        );
        // Line 20 shares set 0 with the streams' line 0.
        assert_eq!(
            group_state_parity(&cfg, &[], &group(640)),
            GroupPath::Windowed
        );
        // Line 0 itself is shared, not a collision.
        assert_eq!(
            group_state_parity(&cfg, &[], &group(16)),
            GroupPath::Periodic
        );
        // Descending streams and a written invariant, three-level deep.
        let deep = HierarchyConfig::new(
            vec![
                CacheConfig::direct_mapped(128, 32),
                CacheConfig::new(512, 64, 2, ReplacementPolicy::Lru),
                CacheConfig::direct_mapped(4096, 64),
            ],
            vec![1.0, 10.0, 50.0],
        );
        // The streams sweep L1 lines 2..1 and 131..130 (sets 1–3); the
        // invariant sits on line 20 (set 0).
        let runs = [
            run(88, -8, 8, AccessKind::Read),
            run(88 + 4128, -8, 8, AccessKind::Write),
            run(640, 0, 8, AccessKind::Write),
        ];
        assert_eq!(
            group_state_parity(&deep, &[640], &runs),
            GroupPath::Periodic
        );
    }

    /// Soundness (and, where it claims it, exactness) of the set-collision
    /// certificates against the windowed path's per-window check, which
    /// inspects every trip's lines directly: whenever a certificate says
    /// "disjoint", no window of the run may conflict. Every group is also
    /// replayed through the full fast path and checked against the scalar
    /// loop, state included.
    #[test]
    fn set_collision_certificates_are_sound() {
        let mut rng = crate::rng::DetRng::new(12);
        let policies = [ReplacementPolicy::Lru, ReplacementPolicy::Fifo];
        // Verdict counts, by [pinned group][certified].
        let mut seen = [[0u32; 2]; 2];
        for case in 0..1500 {
            let line = 1usize << rng.range_usize(4, 7);
            let level = |rng: &mut crate::rng::DetRng, line: usize, min_size: usize| {
                let assoc = *rng.pick(&[1usize, 2, 4]);
                let size = ((line * assoc) << rng.range_usize(0, 6)).max(min_size);
                CacheConfig::new(size, line, assoc, *rng.pick(&policies))
            };
            let mut levels = vec![level(&mut rng, line, 0)];
            if rng.bool() {
                let deeper = line << rng.range_usize(0, 2);
                levels.push(level(&mut rng, deeper, levels[0].size));
            }
            let costs = vec![1.0; levels.len()];
            let cfg = HierarchyConfig::new(levels, costs);
            // Strides up to half a line, both signs; 12 and 24 divide no line.
            let mut s = *rng.pick(&[1i64, 2, 4, 8, 12, 16, 24]);
            if s as usize * 2 > line {
                s = 8.min(line as i64 / 2);
            }
            if rng.bool() {
                s = -s;
            }
            let n = rng.range_usize(2, 5);
            let count = rng.range_u64(1, 3 * line as u64 / s.unsigned_abs() + 2);
            let span = (cfg.levels[0].size / cfg.levels[0].associativity) as i64;
            let base = 1i64 << 20;
            let runs: Vec<Run> = (0..n)
                .map(|_| {
                    let near = rng.range_i64(-3, 4) * span + rng.range_i64(-8, 9) * 4;
                    let stride = if rng.range_usize(0, 4) == 0 { 0 } else { s };
                    let kind = if rng.bool() {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    run((base + near) as u64, stride, count, kind)
                })
                .collect();
            let moving: Vec<Run> = runs.iter().filter(|r| r.stride != 0).copied().collect();
            let pinned = !moving.is_empty() && moving.len() < runs.len();
            let ms = moving.first().map_or(0, |r| r.stride.unsigned_abs());
            for l in &cfg.levels {
                let (shift, sets) = (l.line.trailing_zeros(), l.num_sets() as u64);
                let line = l.line as u64;
                let exact = ms != 0 && line.is_multiple_of(ms) && count >= line / ms;
                let cert = if pinned {
                    pinned_set_disjoint(&runs, &moving, count, shift, sets)
                } else {
                    lockstep_set_disjoint(&runs, count, shift, sets)
                };
                let mut h = Hierarchy::new(HierarchyConfig::new(vec![*l], vec![1.0]));
                let conflicts = h.run_group_windowed(&runs, count, shift, sets - 1, false);
                let ctx = format!("case {case}: {l:?} {runs:?}");
                if cert {
                    assert_eq!(conflicts, 0, "certified group conflicts: {ctx}");
                } else if exact {
                    assert!(
                        conflicts > 0,
                        "exact certificate refuted a clean group: {ctx}"
                    );
                }
                seen[pinned as usize][cert as usize] += 1;
            }
            let prime: Vec<u64> = (0..8).map(|_| rng.range_u64(0, 1 << 21) & !7).collect();
            group_state_parity(&cfg, &prime, &runs);
        }
        // Both verdicts, for lockstep and pinned groups alike.
        assert!(seen.iter().flatten().all(|&k| k > 100), "{seen:?}");
    }

    #[test]
    fn run_group_empty_and_zero_count_are_noops() {
        let mut h = Hierarchy::new(HierarchyConfig::ultrasparc_i());
        h.run_group(&[]);
        h.run_group(&[
            Run {
                start: 0,
                stride: 8,
                count: 0,
                kind: AccessKind::Read,
            },
            Run {
                start: 64,
                stride: 8,
                count: 0,
                kind: AccessKind::Write,
            },
        ]);
        assert_eq!(h.stats()[0].accesses(), 0);
    }
}
