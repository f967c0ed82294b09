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
    buffers: GroupBuffers,
}

/// Per-group buffers of the run-group routes, kept in the [`Hierarchy`] so
/// that consecutive groups reuse them. No state crosses groups.
#[derive(Debug, Clone, Default)]
struct GroupBuffers {
    /// [`Hierarchy::run_group_pinned`]'s moving references.
    moving: Vec<Run>,
    /// [`Hierarchy::run_group_periodic`]'s schedule, and the read
    /// followers it leaves out.
    entries: Vec<Entry>,
    followers: Vec<Entry>,
    /// [`Hierarchy::run_group_windowed`]'s per-reference cursors.
    cursors: Vec<Cursor>,
    /// [`Hierarchy::run_group_translated`]'s per-level footprints.
    footprints: Vec<Footprint>,
}

/// One moving reference of a periodic group, in schedule order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The address at which it next enters a line.
    addr: u64,
    /// The trip of its first line crossing.
    first: u64,
    write: bool,
    role: Role,
    /// The last L2 line it probed (`u64::MAX` before the first).
    mark: u64,
}

/// How [`Hierarchy::run_group_periodic`] treats an [`Entry`]'s line
/// entries ([`role`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Each is probed through the hierarchy.
    Probe,
    /// Another moving reference touched the line at the previous trip, or
    /// earlier in body order at the same one: each is a guaranteed L1 hit,
    /// counted in closed form.
    Follow,
    /// A write [`Role::Follow`] whose leaders all read: each hit sets the
    /// line's dirty bit, without a probe.
    FollowWrite,
}

/// One reference of [`Hierarchy::run_group_windowed`].
#[derive(Debug, Clone, Copy)]
struct Cursor {
    /// Its current address.
    addr: u64,
    /// Trips left on its current line (0 ⇒ recompute).
    tol: u64,
    /// Its current line.
    line: u64,
    /// Whether its next access is the first on a new line.
    entering: bool,
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
            buffers: GroupBuffers::default(),
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
        let mut moving = std::mem::take(&mut self.buffers.moving);
        moving.clear();
        moving.extend(runs.iter().filter(|r| r.stride != 0));
        let stride = moving[0].stride;
        let path = if moving.iter().all(|r| r.stride == stride)
            && (1u64 << line_shift).is_multiple_of(stride.unsigned_abs())
            && pinned_set_disjoint(runs, &moving, count, line_shift, num_sets)
        {
            self.run_group_periodic(runs, &moving, count, line_shift);
            GroupPath::Periodic
        } else {
            self.run_group_windowed(runs, count, line_shift, num_sets - 1, false);
            GroupPath::Windowed
        };
        self.buffers.moving = moving;
        path
    }

    /// Collision-free group whose `moving` references (the nonzero-stride
    /// subsequence of `runs`, in body order) share one line-dividing
    /// stride: each crosses lines with the same period `line/|stride|`
    /// trips, so its line-entering trips form an arithmetic sequence known
    /// up front. The entering accesses are emitted in exact trip order (one
    /// stable sort); every other access is a guaranteed L1 hit, flushed as
    /// one counter bump. Stride-0 references are probed once at trip 0 and
    /// hit for the rest of the run.
    ///
    /// A follower ([`role`]) enters only lines another reference has just
    /// touched, so its entering accesses are L1 hits too: a read follower's
    /// are counted in closed form and leave the schedule, and a write
    /// follower whose leaders all read sets the dirty bit in the rounds
    /// where every reference enters a whole line, without a probe. Returns
    /// how many probes the followers skipped.
    fn run_group_periodic(
        &mut self,
        runs: &[Run],
        moving: &[Run],
        count: u64,
        line_shift: u32,
    ) -> u64 {
        let stride = moving[0].stride;
        let line = 1u64 << line_shift;
        let period = line / stride.unsigned_abs();
        let line_delta = if stride > 0 {
            line
        } else {
            line.wrapping_neg()
        };
        let mut hits = 0u64;
        let mut ents = std::mem::take(&mut self.buffers.entries);
        let mut followers = std::mem::take(&mut self.buffers.followers);
        ents.clear();
        followers.clear();
        // Trip 0: every reference's first access, in body order; each then
        // hits until its first line crossing (a stride-0 one never crosses).
        for r in runs {
            self.access_addr_kind(r.start, r.is_write());
            let tol = trips_on_line(r.start, r.stride, line_shift).min(count);
            if cfg!(debug_assertions) {
                self.levels[0].note_hits(r.start, tol - 1, r.is_write());
            } else {
                hits += tol - 1;
            }
            if r.stride != 0 {
                ents.push(Entry {
                    addr: r.addr(tol),
                    first: tol,
                    write: r.is_write(),
                    role: Role::Probe,
                    mark: u64::MAX,
                });
            }
        }
        // Each moving reference enters every line at the same in-line
        // offset, so whether it follows is one test per group. A follower
        // that needs no dirty bit hits from its first crossing to the end.
        for (i, e) in ents.iter_mut().enumerate() {
            e.role = role(moving, i, e.addr & (line - 1), line_shift);
        }
        followers.extend(ents.iter().filter(|e| e.role == Role::Follow));
        ents.retain(|e| e.role != Role::Follow);
        let rounds = |e: &Entry| (count - e.first).div_ceil(period);
        let mut skipped: u64 = followers.iter().map(rounds).sum();
        if !cfg!(debug_assertions) {
            hits += followers.iter().map(|f| count - f.first).sum::<u64>();
        }
        // Rounds of crossings: in round k, reference i enters a new line at
        // trip first + k·period, at an address exactly one line past its
        // previous entry. Within a round, ascending trip with ties in body
        // order — exactly the scalar emission order, since consecutive
        // rounds cover disjoint ascending trip ranges.
        ents.sort_by_key(|e| e.first);
        // The guaranteed-hit argument applies at L2 too where the group's
        // moving references provably never contend for its sets: once a
        // reference has probed an L2 line, later touches within this group
        // find it resident and still most-recent, so a repeat touch of the
        // line it last probed there ([`enter_l2`]) is a counter bump. After
        // trip 0 a stride-0 reference only ever hits L1.
        let (l2_disjoint, l2_shift) = self.levels.get(1).map_or((false, 0), |c| {
            let cfg = c.config();
            let shift = cfg.line.trailing_zeros();
            let sets = cfg.num_sets() as u64;
            (lockstep_set_disjoint(moving, count, shift, sets), shift)
        });
        // Rounds where every scheduled reference enters with a full-period
        // segment need no per-entry bounds checks and contribute a
        // closed-form hit count; only the ragged tail rounds are scheduled
        // individually.
        let full = ents
            .iter()
            .map(|e| (count - e.first) / period)
            .min()
            .unwrap_or(0);
        let dirtying = ents.iter().filter(|e| e.role == Role::FollowWrite).count() as u64;
        skipped += full * dirtying;
        {
            let (l1, deeper) = self.levels.split_first_mut().expect("a level");
            let (mut l2, past_l2) = match deeper {
                [] => (None, &mut [][..]),
                [l2, past_l2 @ ..] => (Some(l2), past_l2),
            };
            for round in 0..full {
                for e in ents.iter_mut() {
                    if e.role != Role::Probe {
                        // A write follower: the read ones left the schedule.
                        l1.mark_dirty(e.addr);
                    } else if l1.access_kind(e.addr, e.write) == Probe::Miss {
                        if let Some(l2) = l2.as_deref_mut() {
                            if enter_l2(l2, e, l2_disjoint, l2_shift) == Probe::Miss {
                                for c in past_l2.iter_mut() {
                                    if c.access_kind(e.addr, e.write) == Probe::Hit {
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    if cfg!(debug_assertions) {
                        l1.note_hits(e.addr, period - (e.role == Role::Probe) as u64, false);
                    }
                    e.addr = e.addr.wrapping_add(line_delta);
                }
                if cfg!(debug_assertions) {
                    note_follower_round(l1, &mut followers, round, period, count, line_delta);
                }
            }
        }
        if !cfg!(debug_assertions) {
            hits += full * (ents.len() as u64 * (period - 1) + dirtying);
        }
        let last = ents.iter().chain(&followers).map(rounds).max().unwrap_or(0);
        for round in full..last {
            for e in ents.iter_mut() {
                let enter = e.first + round * period;
                if enter >= count {
                    continue;
                }
                self.access_addr_kind(e.addr, e.write);
                let seg = period.min(count - enter);
                if cfg!(debug_assertions) {
                    self.levels[0].note_hits(e.addr, seg - 1, e.write);
                } else {
                    hits += seg - 1;
                }
                e.addr = e.addr.wrapping_add(line_delta);
            }
            if cfg!(debug_assertions) {
                let l1 = &mut self.levels[0];
                note_follower_round(l1, &mut followers, round, period, count, line_delta);
            }
        }
        self.levels[0].add_hit_accesses(hits);
        self.buffers.entries = ents;
        self.buffers.followers = followers;
        skipped
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
        // Each reference's next access is the first on a new line initially,
        // and for everyone after a conflict window, whose eviction order is
        // not tracked.
        let mut cur = std::mem::take(&mut self.buffers.cursors);
        cur.clear();
        cur.extend(runs.iter().map(|r| Cursor {
            addr: r.start,
            tol: 0,
            line: 0,
            entering: true,
        }));
        let mut hits = 0u64;
        let mut conflict_streak = 0u32;
        let mut conflicts = 0u64;
        let mut t = 0u64;
        while t < count {
            let mut w = count - t;
            for (c, r) in cur.iter_mut().zip(runs) {
                if c.tol == 0 {
                    c.tol = trips_on_line(c.addr, r.stride, line_shift);
                    c.line = c.addr >> line_shift;
                }
                w = w.min(c.tol);
            }
            // Pairs of references that both kept their lines were checked
            // when one of them last entered, so only pairs involving an
            // entering reference need (re)checking.
            let conflict = !never_conflict
                && cur.iter().enumerate().any(|(i, a)| {
                    a.entering
                        && cur.iter().enumerate().any(|(j, b)| {
                            j != i && b.line != a.line && (b.line & set_mask) == (a.line & set_mask)
                        })
                });
            if conflict {
                conflicts += 1;
                conflict_streak += 1;
                if conflict_streak >= CONFLICT_BAIL {
                    self.levels[0].add_hit_accesses(hits);
                    self.run_trips_scalar(runs, t, count - t);
                    self.buffers.cursors = cur;
                    return conflicts;
                }
                for trip in 0..w {
                    for (c, r) in cur.iter().zip(runs) {
                        let addr = c.addr.wrapping_add((r.stride as u64).wrapping_mul(trip));
                        self.access_addr_kind(addr, r.is_write());
                    }
                }
            } else {
                conflict_streak = 0;
                for (c, r) in cur.iter().zip(runs) {
                    let write = r.is_write();
                    if c.entering {
                        self.access_addr_kind(c.addr, write);
                    }
                    let h = w - c.entering as u64;
                    if cfg!(debug_assertions) {
                        self.levels[0].note_hits(c.addr, h, write);
                    } else {
                        hits += h;
                    }
                }
            }
            for (c, r) in cur.iter_mut().zip(runs) {
                c.tol -= w;
                c.entering = conflict || c.tol == 0;
                c.addr = c.addr.wrapping_add((r.stride as u64).wrapping_mul(w));
            }
            t += w;
        }
        self.levels[0].add_hit_accesses(hits);
        self.buffers.cursors = cur;
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
        let mut fps = std::mem::take(&mut self.buffers.footprints);
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
        self.buffers.footprints = fps;
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

/// The [`Role`] of moving reference `i` of a periodic group, which enters
/// each of its lines at in-line `offset`.
///
/// Reference `i` follows when another moving reference `j` touched the line
/// it enters at the previous trip, or earlier in body order at the same
/// trip. Marching at the common stride `s`, `j` sits `d = start_j −
/// start_i` bytes from `i` at every trip, so it is on `i`'s new line at the
/// same trip iff `0 ≤ offset + d < line`, and was one trip earlier iff
/// `0 ≤ offset + d − s < line`. Every access between that touch and `i`'s
/// entry is at one of those two trips, where the group's L1 certificate
/// ([`lockstep_set_disjoint`], [`pinned_set_disjoint`]) puts each reference
/// on `i`'s line or in another set. So the line stays resident and its
/// set's most recent, and `i`'s entry is a hit that changes only the access
/// counter and, unless a leader wrote the line, a write's dirty bit: for
/// direct-mapped, LRU, FIFO and Random levels alike.
fn role(moving: &[Run], i: usize, offset: u64, line_shift: u32) -> Role {
    let on_line = |at: i64| (0..1i64 << line_shift).contains(&at);
    let s = moving[0].stride;
    let (mut follows, mut dirty) = (false, false);
    for (j, r) in moving.iter().enumerate() {
        // Addresses are non-negative `i64`s and `offset + d ± s` stays far
        // from the wrap, so wrapping never lands on the line.
        let at = (offset as i64).wrapping_add(r.start.wrapping_sub(moving[i].start) as i64);
        if j != i && (on_line(at.wrapping_sub(s)) || (j < i && on_line(at))) {
            follows = true;
            dirty |= r.is_write();
        }
    }
    match (follows, moving[i].is_write() && !dirty) {
        (false, _) => Role::Probe,
        (true, true) => Role::FollowWrite,
        (true, false) => Role::Follow,
    }
}

/// A periodic group's line-entering access `e` at L2, which L1 missed.
/// Where the group is set-disjoint at L2 (`disjoint`, with `shift` its line
/// shift), nothing can have evicted or demoted the line `e` last probed
/// there (`e.mark`), so a repeat touch of it is a hit that changes only the
/// access counter: the dirty bit was set when the line was probed with this
/// same access kind, and promotion is a no-op because the line is still
/// its set's most recent. Anything else is a real probe.
#[inline(always)]
fn enter_l2(l2: &mut Cache, e: &mut Entry, disjoint: bool, shift: u32) -> Probe {
    let line = e.addr >> shift;
    if disjoint && e.mark == line {
        if cfg!(debug_assertions) {
            l2.note_hits(e.addr, 1, e.write);
        } else {
            l2.add_hit_accesses(1);
        }
        return Probe::Hit;
    }
    e.mark = line;
    l2.access_kind(e.addr, e.write)
}

/// Debug builds' check of one round of a periodic group's read followers,
/// which release builds count in closed form: each line a follower enters
/// in `round` is resident for the whole segment it stays there. The
/// schedule's probes of that round ran first, but a follower's line stays
/// resident until it leaves it, after every entry of the round.
fn note_follower_round(
    l1: &mut Cache,
    followers: &mut [Entry],
    round: u64,
    period: u64,
    count: u64,
    line_delta: u64,
) {
    for f in followers {
        let enter = f.first + round * period;
        if enter < count {
            l1.note_hits(f.addr, period.min(count - enter), false);
        }
        f.addr = f.addr.wrapping_add(line_delta);
    }
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

    /// The follower tests' hierarchies: a direct-mapped, a 2-way LRU, a
    /// 4-way FIFO and a 2-way Random L1 (32 B lines) over a direct-mapped
    /// L2, and the three-level Alpha-like one.
    fn follower_geometries() -> Vec<HierarchyConfig> {
        let over_l2 = |l1| {
            HierarchyConfig::new(
                vec![l1, CacheConfig::direct_mapped(64 * 1024, 64)],
                vec![1.0, 10.0],
            )
        };
        vec![
            HierarchyConfig::ultrasparc_i(),
            over_l2(CacheConfig::new(8192, 32, 2, ReplacementPolicy::Lru)),
            over_l2(CacheConfig::new(8192, 32, 4, ReplacementPolicy::Fifo)),
            over_l2(CacheConfig::new(8192, 32, 2, ReplacementPolicy::Random)),
            HierarchyConfig::alpha_21164_like(),
        ]
    }

    /// Run `runs` on every follower geometry: [`group_state_parity`] must
    /// see the periodic route, and the route itself, on an identically
    /// primed hierarchy, must skip exactly `skipped` probes.
    fn assert_followers_skip(runs: &[Run], skipped: u64) {
        let moving: Vec<Run> = runs.iter().filter(|r| r.stride != 0).copied().collect();
        // Dirty and clean lines around the group, at every level.
        let prime: Vec<u64> = (0..24u64).map(|k| FOLLOW_BASE - 4096 + 1000 * k).collect();
        for cfg in follower_geometries() {
            let path = group_state_parity(&cfg, &prime, runs);
            assert_eq!(path, GroupPath::Periodic, "{cfg:?} {runs:?}");
            let mut h = Hierarchy::new(cfg.clone());
            for &a in &prime {
                h.access_addr_kind(a, a & 8 != 0);
            }
            let shift = cfg.levels[0].line.trailing_zeros();
            let got = h.run_group_periodic(runs, &moving, runs[0].count, shift);
            assert_eq!(got, skipped, "probes skipped on {cfg:?}");
        }
    }

    /// The follower tests' groups start 24 B into a 32 B L1 line, so the
    /// first crossing comes after one trip, and run 203 f64 trips: 50 full
    /// rounds of 4 and a ragged tail.
    const FOLLOW_BASE: u64 = (1 << 16) + 24;
    const FOLLOW_TRIPS: u64 = 203;

    fn f64_ref(start: u64, stride: i64, kind: AccessKind) -> Run {
        run(start, stride, FOLLOW_TRIPS, kind)
    }

    #[test]
    fn read_then_write_of_one_element_follows() {
        // A(i) = A(i) + 1: the write enters each line its read just
        // brought in, at the same trip. It sets the dirty bit without a
        // probe in each of the 50 full rounds.
        let a = FOLLOW_BASE;
        assert_followers_skip(
            &[
                f64_ref(a, 8, AccessKind::Read),
                f64_ref(a, 8, AccessKind::Write),
            ],
            50,
        );
    }

    #[test]
    fn neighbours_one_element_apart_follow() {
        // B(i) = A(i-1) + A(i) + A(i+1): A(i+1) leads, A(i) and A(i-1)
        // enter each line one and two trips after it. A(i-1) enters 51
        // lines (first at trip 2), A(i) 51 (first at trip 1); none is
        // probed. B sits 48 L1 lines past A, in other sets of every level.
        let a = FOLLOW_BASE;
        assert_followers_skip(
            &[
                f64_ref(a - 8, 8, AccessKind::Read),
                f64_ref(a, 8, AccessKind::Read),
                f64_ref(a + 8, 8, AccessKind::Read),
                f64_ref(a + 1536, 8, AccessKind::Write),
            ],
            102,
        );
    }

    #[test]
    fn reference_one_line_behind_follows() {
        // A(i+4) is exactly one 32 B line ahead of A(i): its last touch of
        // each line is the trip before A(i) enters it. A(i) reads a line
        // A(i+4) wrote, so it needs no dirty bit either: 51 entries.
        let a = FOLLOW_BASE;
        assert_followers_skip(
            &[
                f64_ref(a, 8, AccessKind::Read),
                f64_ref(a + 32, 8, AccessKind::Write),
            ],
            51,
        );
    }

    #[test]
    fn descending_stride_follows_the_lower_reference() {
        // A(i+1) + A(i) with i descending: A(i) now leads, A(i+1) enters
        // each line one trip later (50 entries from trip 4), and the write
        // of A(i) follows its read at the same trip (50 full rounds).
        let a = (1 << 16) + 2048 + 16;
        assert_followers_skip(
            &[
                f64_ref(a + 8, -8, AccessKind::Read),
                f64_ref(a, -8, AccessKind::Read),
                f64_ref(a, -8, AccessKind::Write),
            ],
            100,
        );
    }

    #[test]
    fn invariant_reference_beside_a_write_follower() {
        // A(i) = A(i) * s, s loop-invariant 56 L1 lines past A's first,
        // outside the sets its 51 lines map to: a pinned group whose write
        // follower sets the dirty bit in 50 full rounds.
        let a = FOLLOW_BASE;
        assert_followers_skip(
            &[
                f64_ref(a, 8, AccessKind::Read),
                f64_ref(a + 1792, 0, AccessKind::Read),
                f64_ref(a, 8, AccessKind::Write),
            ],
            50,
        );
    }

    #[test]
    fn reference_one_stride_too_far_is_no_follower() {
        // A(i+5) is one line and one element ahead of A(i): when A(i)
        // enters a line, A(i+5) left it two trips ago, so A(i) probes.
        // Only the write of A(i+5) follows, in 49 full rounds (A(i+5)
        // first crosses at trip 4).
        let a = FOLLOW_BASE;
        assert_followers_skip(
            &[
                f64_ref(a, 8, AccessKind::Read),
                f64_ref(a + 40, 8, AccessKind::Read),
                f64_ref(a + 40, 8, AccessKind::Write),
            ],
            49,
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
