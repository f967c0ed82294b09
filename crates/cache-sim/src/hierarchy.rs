//! A multi-level cache hierarchy.
//!
//! An access probes L1; on a miss the line is allocated at L1 and the access
//! propagates to L2, and so on until a level hits (or memory is reached).
//! Each level only sees the accesses that missed every level above it, which
//! is exactly the model behind the paper's simulations and the normalization
//! in [`crate::stats`].

use crate::cache::{trips_on_line, Cache, Probe};
use crate::config::HierarchyConfig;
use crate::replacement::ReplacementPolicy;
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
    /// Colliding lockstep group: super-periods replayed by translation.
    Translated,
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
    /// Per-level buffers of [`Hierarchy::run_group_translated`], kept so
    /// that consecutive groups reuse them. No state crosses groups.
    footprints: Vec<Footprint>,
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
            footprints: Vec::new(),
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
    /// engine's memo (`mlc_core::analytic`), which replays a recorded nest
    /// by restoring each level's exit state
    /// ([`Cache::restore_snapshot`]) and crediting its counts
    /// ([`Cache::account_analytic`]); ordinary drivers should stream
    /// accesses instead.
    pub fn caches_mut(&mut self) -> &mut [Cache] {
        &mut self.levels
    }

    /// Whether next-line prefetching is on (the analytic engine declines
    /// prefetching hierarchies, like the run fast path does).
    pub fn prefetch_enabled(&self) -> bool {
        self.next_line_prefetch
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
    /// windows scalar. Colliding groups whose stride divides the largest
    /// line and that last two super-periods take the translated route
    /// ([`Hierarchy::run_group_translated`]) instead. Groups that add
    /// loop-invariant references to one common stride are decided the same
    /// way by [`Hierarchy::run_group_pinned`].
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
        } else if !never_conflict && self.translates(stride, count) {
            self.run_group_translated(runs, count, line_shift, num_sets - 1);
            GroupPath::Translated
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
                    self.run_trips_scalar(runs, t, count - t);
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

    /// Whether a colliding lockstep group of this `stride` and `count` can
    /// take [`Hierarchy::run_group_translated`]: the stride divides `Lmax`,
    /// the run lasts at least two super-periods of `Lmax/|stride|` trips,
    /// and no level is an associative Random cache, whose victim depends on
    /// a generator state that translation does not carry.
    fn translates(&self, stride: i64, count: u64) -> bool {
        let lmax = self.config.max_line() as u64;
        stride != 0
            && lmax.is_multiple_of(stride.unsigned_abs())
            && count / (lmax / stride.unsigned_abs()) >= 2
            && self.levels.iter().all(|c| {
                let cfg = c.config();
                cfg.replacement != ReplacementPolicy::Random || cfg.associativity == 1
            })
    }

    /// Severe-conflict route for a lockstep group with a nonzero stride `s`
    /// that divides the largest line `Lmax`. Every `P = Lmax/|s|` trips
    /// (one super-period) each reference moves exactly `Lmax` bytes, so
    /// super-period `k` accesses super-period `r`'s addresses moved
    /// `(k − r)·Lmax` bytes. That move is a multiple of every level's line
    /// size: it keeps two addresses on one line exactly when they were,
    /// moves each line a fixed number of lines and so each set a fixed
    /// number of sets, and keeps recency order. So when, at every level,
    /// each set super-period `k`'s lines map to holds the reference's entry
    /// contents of the corresponding set, moved the same way (tags in
    /// recency order, dirty bits and empty ways, compared in full), the
    /// direct-mapped, LRU and FIFO transition functions take super-period
    /// `k` through the reference's hits, misses, evictions and write-backs
    /// moved by the same amount. Replay then writes the reference's exit
    /// contents, moved, and credits its per-level counts; no set outside
    /// those footprints is touched by either.
    ///
    /// Any super-period that fails the comparison runs through the scalar
    /// probes and becomes the new reference, unless it is the last one,
    /// which nothing could replay; the ragged tail runs scalar too. The
    /// first super-period enters with whatever ran before the group: when
    /// its footprint overlaps the second's at some level, the second enters
    /// with contents the first just wrote, so the first is no reference and
    /// runs scalar unrecorded. The footprint shape is computed once per
    /// group, and a group whose replays keep failing sends its remaining
    /// trips down the windowed path in one go, so a layout whose state
    /// never repeats costs little more than its scalar probes. Returns how
    /// many super-periods were replayed and how many were recorded as
    /// references.
    fn run_group_translated(
        &mut self,
        runs: &[Run],
        count: u64,
        line_shift: u32,
        set_mask: u64,
    ) -> (u64, u64) {
        /// Consecutive failed replays before the rest goes windowed.
        const REPLAY_BAIL: u32 = 3;
        let lmax = self.config.max_line() as u64;
        let stride = runs[0].stride;
        let period = lmax / stride.unsigned_abs();
        let supers = count / period;
        let moved = if stride > 0 {
            lmax
        } else {
            lmax.wrapping_neg()
        };
        let mut fps = std::mem::take(&mut self.footprints);
        fps.resize_with(self.levels.len(), Footprint::default);
        for (fp, c) in fps.iter_mut().zip(&self.levels) {
            fp.shape(c, runs, period, moved);
        }
        let mut k = 0;
        if fps.iter().any(Footprint::overlaps_next) {
            self.run_trips_scalar(runs, 0, period);
            k = 1;
        }
        let (mut replayed, mut referenced) = (0, 0);
        let mut reference = None;
        let mut failed = 0;
        while k < supers {
            if let Some(r) = reference {
                if fps
                    .iter()
                    .zip(&self.levels)
                    .all(|(fp, c)| fp.matches(c, r, k))
                {
                    for (fp, c) in fps.iter().zip(&mut self.levels) {
                        fp.replay(c, r, k);
                    }
                    replayed += 1;
                    failed = 0;
                    k += 1;
                    continue;
                }
                failed += 1;
                if failed == REPLAY_BAIL || k + 2 >= supers {
                    break;
                }
            }
            if k + 1 == supers {
                break;
            }
            for (fp, c) in fps.iter_mut().zip(&self.levels) {
                fp.record_entry(c, k);
            }
            self.run_trips_scalar(runs, k * period, period);
            for (fp, c) in fps.iter_mut().zip(&self.levels) {
                fp.record_exit(c, k);
            }
            reference = Some(k);
            referenced += 1;
            k += 1;
        }
        self.footprints = fps;
        let (from, rest) = (k * period, count - k * period);
        if failed == REPLAY_BAIL {
            let slice: Vec<Run> = runs
                .iter()
                .map(|r| Run {
                    start: r.addr(from),
                    count: rest,
                    ..*r
                })
                .collect();
            self.run_group_windowed(&slice, rest, line_shift, set_mask, false);
        } else {
            self.run_trips_scalar(runs, from, rest);
        }
        (replayed, referenced)
    }

    /// Trips `from..from + trips` of a group through the exact scalar
    /// interleave.
    fn run_trips_scalar(&mut self, runs: &[Run], from: u64, trips: u64) {
        for t in from..from + trips {
            for r in runs {
                self.access_addr_kind(r.addr(t), r.is_write());
            }
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
/// nonzero multiple of the set count. Exact, since a stride of at most half
/// a line visits every line of its interval.
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

/// One level's part of [`Hierarchy::run_group_translated`]: the sets one
/// super-period's lines map to, and a reference super-period's contents of
/// them at entry and exit, with its counts at this level.
#[derive(Debug, Clone, Default)]
struct Footprint {
    /// Sets super-period 0's lines map to, ascending and distinct. Those of
    /// super-period `k` are these moved `k·step`, masked.
    sets: Vec<u64>,
    /// Lines the group moves per super-period (wrapping when descending).
    step: u64,
    set_mask: u64,
    assoc: usize,
    /// The reference's entry and exit contents, `associativity` ways per
    /// set of `sets`, in [`Cache::push_ways`] form.
    entry: (Vec<u64>, Vec<bool>),
    exit: (Vec<u64>, Vec<bool>),
    /// The reference's access, miss and write-back counts: before it ran,
    /// then (after it ran) its deltas.
    counts: [u64; 3],
}

impl Footprint {
    /// The footprint shape of a group whose super-period is `period` trips
    /// and moves it `moved` bytes.
    fn shape(&mut self, c: &Cache, runs: &[Run], period: u64, moved: u64) {
        let cfg = c.config();
        let shift = cfg.line.trailing_zeros();
        self.set_mask = cfg.num_sets() as u64 - 1;
        self.assoc = cfg.associativity;
        self.step = ((moved as i64) >> shift) as u64;
        self.sets.clear();
        for r in runs {
            let (a, b) = (r.start, r.addr(period - 1));
            for line in (a.min(b) >> shift)..=(a.max(b) >> shift) {
                self.sets.push(line & self.set_mask);
            }
        }
        self.sets.sort_unstable();
        self.sets.dedup();
    }

    /// Whether super-period 1's sets meet super-period 0's.
    fn overlaps_next(&self) -> bool {
        self.sets.iter().any(|&s| {
            let next = s.wrapping_add(self.step) & self.set_mask;
            self.sets.binary_search(&next).is_ok()
        })
    }

    /// The set of super-period `k` that corresponds to `sets[i]`.
    #[inline]
    fn set(&self, i: usize, k: u64) -> usize {
        (self.sets[i].wrapping_add(k.wrapping_mul(self.step)) & self.set_mask) as usize
    }

    /// Super-period `k`'s contents, in [`Cache::push_ways`] form.
    fn read(&self, c: &Cache, k: u64, (lines, dirty): &mut (Vec<u64>, Vec<bool>)) {
        lines.clear();
        dirty.clear();
        for i in 0..self.sets.len() {
            c.push_ways(self.set(i, k), lines, dirty);
        }
    }

    fn record_entry(&mut self, c: &Cache, k: u64) {
        let mut entry = std::mem::take(&mut self.entry);
        self.read(c, k, &mut entry);
        self.entry = entry;
        self.counts = [c.accesses(), c.misses(), c.writebacks()];
    }

    fn record_exit(&mut self, c: &Cache, k: u64) {
        let mut exit = std::mem::take(&mut self.exit);
        self.read(c, k, &mut exit);
        self.exit = exit;
        let [a, m, w] = self.counts;
        self.counts = [c.accesses() - a, c.misses() - m, c.writebacks() - w];
    }

    /// Whether super-period `k` enters with reference `r`'s entry contents
    /// moved `k − r` super-periods.
    fn matches(&self, c: &Cache, r: u64, k: u64) -> bool {
        let n = self.assoc;
        let shift = (k - r).wrapping_mul(self.step);
        (0..self.sets.len()).all(|i| {
            let ways = i * n..(i + 1) * n;
            c.ways_match(
                self.set(i, k),
                &self.entry.0[ways.clone()],
                &self.entry.1[ways],
                shift,
            )
        })
    }

    /// Leave super-period `k`'s sets as reference `r` left its own, moved
    /// `k − r` super-periods, and credit its counts.
    fn replay(&self, c: &mut Cache, r: u64, k: u64) {
        let n = self.assoc;
        let shift = (k - r).wrapping_mul(self.step);
        for i in 0..self.sets.len() {
            let ways = i * n..(i + 1) * n;
            c.put_ways(
                self.set(i, k),
                &self.exit.0[ways.clone()],
                &self.exit.1[ways],
                shift,
            );
        }
        let [a, m, w] = self.counts;
        c.account_analytic(a, m, w);
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
                    self.run_trips_scalar(runs, 0, runs[0].count);
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
            assert_eq!(group_state_parity(&cfg, &[], &runs), GroupPath::Translated);
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

    /// [`group_state_parity`] for a group that must take the translated
    /// route, then the route itself on an identically primed hierarchy:
    /// returns that hierarchy and its (replayed, referenced) super-period
    /// counts.
    fn translated(cfg: &HierarchyConfig, prime: &[u64], runs: &[Run]) -> (Hierarchy, u64, u64) {
        assert_eq!(
            group_state_parity(cfg, prime, runs),
            GroupPath::Translated,
            "{runs:?}"
        );
        let mut h = Hierarchy::new(cfg.clone());
        for &a in prime {
            h.access_addr_kind(a, a & 8 != 0);
        }
        let l1 = cfg.levels[0];
        let (shift, mask) = (l1.line.trailing_zeros(), l1.num_sets() as u64 - 1);
        let (replayed, referenced) = h.run_group_translated(runs, runs[0].count, shift, mask);
        (h, replayed, referenced)
    }

    /// L1 1 KiB / 32 B and L2 8 KiB / 64 B, both direct-mapped.
    fn dm_1k_8k() -> HierarchyConfig {
        HierarchyConfig::new(
            vec![
                CacheConfig::direct_mapped(1024, 32),
                CacheConfig::direct_mapped(8192, 64),
            ],
            vec![1.0, 10.0],
        )
    }

    #[test]
    fn direct_mapped_ping_pong_pair_replays_by_translation() {
        // Two f64 streams one L1 size apart evict each other at every
        // access. Lmax = 64 B, so a super-period is 8 trips.
        let base = 1u64 << 16;
        for cfg in [tiny_cfg(), dm_1k_8k(), HierarchyConfig::ultrasparc_i()] {
            let l1 = cfg.levels[0].size as u64;
            let runs = [
                run(base, 8, 80, AccessKind::Read),
                run(base + l1, 8, 80, AccessKind::Read),
            ];
            let (h, replayed, referenced) = translated(&cfg, &[], &runs);
            // The tiny L1's 4 sets wrap every two super-periods, so the
            // third and fourth enter with lines the first two left.
            let want = if l1 == 128 { (7, 3) } else { (9, 1) };
            assert_eq!((replayed, referenced), want, "{cfg:?}");
            if l1 > 128 {
                assert_eq!(h.stats()[0].misses(), 160, "every access misses L1");
            }
        }
    }

    #[test]
    fn mixed_reads_and_writes_replay_their_write_backs() {
        // a(i) = a(i) + b(i) with b one L1 size past a: the written line
        // of a is evicted dirty by b at every trip. 100 trips are 12 super-
        // periods and a 4-trip tail.
        let cfg = dm_1k_8k();
        let runs = [
            run(1 << 16, 8, 100, AccessKind::Read),
            run((1 << 16) + 1024, 8, 100, AccessKind::Read),
            run(1 << 16, 8, 100, AccessKind::Write),
        ];
        let (h, replayed, referenced) = translated(&cfg, &[], &runs);
        assert_eq!((replayed, referenced), (11, 1));
        assert_eq!(
            h.writebacks()[0],
            75,
            "one per trip off the first of a line"
        );
    }

    #[test]
    fn descending_pair_replays_by_translation() {
        let cfg = dm_1k_8k();
        let top = (1u64 << 16) + 8 * 95;
        let runs = [
            run(top, -8, 96, AccessKind::Write),
            run(top + 1024, -8, 96, AccessKind::Read),
        ];
        let (h, replayed, _) = translated(&cfg, &[], &runs);
        assert!(replayed >= 10, "{replayed}");
        assert!(h.writebacks()[0] > 0);
    }

    #[test]
    fn three_streams_cycle_through_a_two_way_fifo_set() {
        // A 256 B 2-way FIFO L1 has 128 B ways: three streams 128 B apart
        // take turns evicting each other from one set.
        let fifo = |size, line| CacheConfig::new(size, line, 2, ReplacementPolicy::Fifo);
        let cfg = HierarchyConfig::new(vec![fifo(256, 32), fifo(2048, 64)], vec![1.0, 10.0]);
        let base = 1u64 << 16;
        let runs = [
            run(base, 8, 96, AccessKind::Read),
            run(base + 128, 8, 96, AccessKind::Write),
            run(base + 256, 8, 96, AccessKind::Read),
        ];
        let (h, replayed, _) = translated(&cfg, &[], &runs);
        assert!(replayed >= 8, "{replayed}");
        assert!(h.writebacks()[0] > 0);
    }

    #[test]
    fn three_level_hierarchy_with_a_two_way_lru_middle_replays() {
        // Three streams 256 B apart: one L1 set, one set of the 2-way LRU
        // L2 (256 B ways), three sets of the direct-mapped L3.
        let cfg = HierarchyConfig::new(
            vec![
                CacheConfig::direct_mapped(128, 32),
                CacheConfig::new(512, 64, 2, ReplacementPolicy::Lru),
                CacheConfig::direct_mapped(4096, 64),
            ],
            vec![1.0, 10.0, 50.0],
        );
        let base = 1u64 << 16;
        let runs = [
            run(base, 8, 88, AccessKind::Write),
            run(base + 256, 8, 88, AccessKind::Read),
            run(base + 512, 8, 88, AccessKind::Read),
        ];
        let (h, replayed, _) = translated(&cfg, &[0, 64, 4104, 8192], &runs);
        assert!(replayed >= 5, "{replayed}");
        assert!(h.stats()[1].misses() > 0 && h.writebacks()[1] > 0);
    }

    #[test]
    fn pair_colliding_at_the_next_line_only_replays() {
        // The pair of `pair_whose_next_line_collides_stays_windowed`: D is
        // clean, D+1 collides on every fourth trip.
        for cfg in [dm_1k_8k(), HierarchyConfig::ultrasparc_i()] {
            let l1 = cfg.levels[0];
            let d = (l1.size - l1.line + 8) as u64;
            let runs = [
                run(1 << 16, 8, 160, AccessKind::Write),
                run((1 << 16) + d, 8, 160, AccessKind::Read),
            ];
            let (_, replayed, _) = translated(&cfg, &[], &runs);
            assert!(replayed >= 15, "{replayed} of 20 super-periods replayed");
        }
    }

    #[test]
    fn count_off_the_super_period_runs_its_tail_scalar() {
        let cfg = dm_1k_8k();
        for count in [16, 17, 53, 87] {
            let runs = [
                run(1 << 16, 8, count, AccessKind::Read),
                run((1 << 16) + 1024, 8, count, AccessKind::Write),
            ];
            let (_, replayed, referenced) = translated(&cfg, &[], &runs);
            assert_eq!((replayed, referenced), (count / 8 - 1, 1));
        }
    }

    #[test]
    fn entry_state_that_breaks_translation_re_references() {
        // A ping-pong pair over ten super-periods; super-period k touches
        // L1 sets 2k and 2k+1 and L2 sets k and 16+k. Each prime breaks
        // the translation at super-period 4 at one level or in one bit,
        // and the route must notice, re-reference and stay exact.
        let cfg = dm_1k_8k();
        let base = 1u64 << 16;
        let runs = [
            run(base, 8, 80, AccessKind::Read),
            run(base + 1024, 8, 80, AccessKind::Read),
        ];
        // A warm L1 that translation carries: one line of a 1 KiB region
        // in every set, in L2 sets 64..80, away from the group's.
        let warm: Vec<u64> = (0..32).map(|i| base + 4096 + 32 * i).collect();
        let stranger = vec![base + 3072 + 4 * 64];
        let dirty: Vec<u64> = warm
            .iter()
            .map(|&a| if a == base + 4096 + 8 * 32 { a + 8 } else { a })
            .collect();
        let l2_only: Vec<u64> = std::iter::once(base + 4 * 64).chain(warm.clone()).collect();
        let (_, replayed, referenced) = translated(&cfg, &warm, &runs);
        assert_eq!((replayed, referenced), (9, 1), "warm state translates");
        for (what, prime) in [
            ("an L1 line", &stranger),
            ("a dirty bit", &dirty),
            ("an L2 line", &l2_only),
        ] {
            let (_, replayed, referenced) = translated(&cfg, prime, &runs);
            assert!(
                referenced >= 2 && replayed >= 6,
                "{what}: {replayed} replayed, {referenced} referenced"
            );
        }
    }

    #[test]
    fn associative_random_levels_stay_windowed() {
        // A Random victim depends on the generator state, which translation
        // does not carry; a direct-mapped Random level has no choice.
        let runs = [
            run(1 << 16, 8, 80, AccessKind::Read),
            run((1 << 16) + 512, 8, 80, AccessKind::Read),
            run((1 << 16) + 1024, 8, 80, AccessKind::Write),
        ];
        for (assoc, path) in [(2, GroupPath::Windowed), (1, GroupPath::Translated)] {
            let cfg = HierarchyConfig::new(
                vec![
                    CacheConfig::new(1024, 32, assoc, ReplacementPolicy::Random),
                    CacheConfig::direct_mapped(8192, 64),
                ],
                vec![1.0, 10.0],
            );
            assert_eq!(group_state_parity(&cfg, &[], &runs), path);
        }
    }

    /// The translated route against the scalar interleave on seeded
    /// colliding groups: direct-mapped, LRU and FIFO levels one to three
    /// deep, both stride signs, runs of two to about ten super-periods,
    /// entry state primed around the group with reads and writes.
    #[test]
    fn translated_route_matches_scalar_on_seeded_groups() {
        let mut rng = crate::rng::DetRng::new(24);
        let policies = [ReplacementPolicy::Lru, ReplacementPolicy::Fifo];
        let (mut routed, mut replaying) = (0, 0);
        for case in 0..1500 {
            let mut line = 1usize << rng.range_usize(4, 7);
            let mut size = 0;
            let mut levels = Vec::new();
            for _ in 0..rng.range_usize(1, 4) {
                let assoc = *rng.pick(&[1usize, 1, 2, 4]);
                size = ((line * assoc) << rng.range_usize(0, 5)).max(size);
                levels.push(CacheConfig::new(size, line, assoc, *rng.pick(&policies)));
                line <<= rng.range_usize(0, 2);
                size *= 1 << rng.range_usize(0, 3);
            }
            let costs = vec![1.0; levels.len()];
            let cfg = HierarchyConfig::new(levels, costs);
            let l1 = cfg.levels[0];
            let lmax = cfg.max_line() as u64;
            let mut s = *rng.pick(&[1i64, 2, 4, 8]);
            s = s.min(l1.line as i64 / 2);
            if rng.bool() {
                s = -s;
            }
            let period = lmax / s.unsigned_abs();
            let count = rng.range_u64(2 * period, 10 * period + period);
            let span = (l1.size / l1.associativity) as i64;
            let base = 1i64 << 20;
            let runs: Vec<Run> = (0..rng.range_usize(2, 5))
                .map(|_| {
                    let near = rng.range_i64(-3, 4) * span + rng.range_i64(-4, 5) * s.abs();
                    let kind = if rng.bool() {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    run((base + near) as u64, s, count, kind)
                })
                .collect();
            let reach = 4 * cfg.levels.last().unwrap().size as i64;
            let prime: Vec<u64> = (0..rng.range_usize(0, 40))
                .map(|_| (base + rng.range_i64(-reach, reach)) as u64 & !3)
                .collect();
            let path = group_state_parity(&cfg, &prime, &runs);
            if path == GroupPath::Translated {
                routed += 1;
                let (_, replayed, _) = translated(&cfg, &prime, &runs);
                replaying += (replayed > 0) as u32;
            }
            assert_ne!(path, GroupPath::Declined, "case {case}");
        }
        assert!(
            replaying >= 200,
            "{replaying} of {routed} routed groups replayed"
        );
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
