//! A single cache level.
//!
//! Tags are stored per set in recency order (index 0 = most recent), so LRU
//! is a shift within the set's slice and direct-mapped caches degenerate to
//! a single compare. The hot path is branch-light: typical experiment traces
//! run hundreds of millions of accesses through two of these.

use crate::config::CacheConfig;
use crate::replacement::ReplacementPolicy;

/// Number of consecutive run trips (including the one at `addr`) that stay
/// on the `1 << line_shift`-byte line containing `addr`. `u64::MAX` for a
/// zero stride (the run never leaves the line).
#[inline(always)]
pub(crate) fn trips_on_line(addr: u64, stride: i64, line_shift: u32) -> u64 {
    let offset = addr & ((1u64 << line_shift) - 1);
    match stride.cmp(&0) {
        std::cmp::Ordering::Equal => u64::MAX,
        std::cmp::Ordering::Greater => ((1u64 << line_shift) - 1 - offset) / stride as u64 + 1,
        std::cmp::Ordering::Less => offset / stride.unsigned_abs() + 1,
    }
}

/// Sentinel tag for an invalid (empty) way. Real tags are line addresses
/// shifted down by the set bits, which cannot reach `u64::MAX` for any
/// realistic address space.
const INVALID: u64 = u64::MAX;

/// One level of cache: a tag store with a replacement policy.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `num_sets * associativity` tags, each set contiguous, recency-ordered.
    tags: Vec<u64>,
    /// Dirty bits, parallel to `tags` (write-back policy).
    dirty: Vec<bool>,
    assoc: usize,
    set_mask: u64,
    line_shift: u32,
    set_shift: u32,
    rng_state: u64,
    accesses: u64,
    misses: u64,
    writebacks: u64,
}

/// One level's line state taken by [`Cache::snapshot`], for
/// [`Cache::matches_snapshot`] and [`Cache::restore_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    tags: Vec<u64>,
    dirty: Vec<bool>,
}

/// Result of probing a cache with an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Hit.
    Hit,
    /// Miss.
    Miss,
}

impl Probe {
    /// True iff the probe missed.
    #[inline]
    pub fn is_miss(self) -> bool {
        matches!(self, Probe::Miss)
    }
}

impl Cache {
    /// Create an empty (all-invalid) cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        let assoc = config.associativity;
        Self {
            config,
            tags: vec![INVALID; sets * assoc],
            dirty: vec![false; sets * assoc],
            assoc,
            set_mask: sets as u64 - 1,
            line_shift: config.line.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            rng_state: 0x9E37_79B9_7F4A_7C15,
            accesses: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The geometry this cache was built with.
    #[inline]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access a byte address: returns hit/miss and allocates the line on a
    /// miss (fetch-on-miss, allocate-on-write — the paper's trace simulations
    /// treat loads and stores identically for miss counting).
    #[inline]
    pub fn access(&mut self, addr: u64) -> Probe {
        self.access_kind(addr, false)
    }

    /// Access with a load/store distinction: stores mark the line dirty, and
    /// evicting a dirty line counts a write-back (write-back, write-allocate
    /// policy). Hit/miss accounting is identical to [`Cache::access`].
    ///
    /// This is the per-access transition function every engine is held to.
    /// It is force-inlined into the replay routes, which call it once per
    /// line they enter; the call overhead shows in end-to-end wall time.
    #[inline(always)]
    pub fn access_kind(&mut self, addr: u64, write: bool) -> Probe {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let base = set * self.assoc;

        // Direct-mapped fast path: one compare, one store.
        if self.assoc == 1 {
            if self.tags[base] == tag {
                self.dirty[base] |= write;
                return Probe::Hit;
            }
            if self.tags[base] != INVALID && self.dirty[base] {
                self.writebacks += 1;
            }
            self.tags[base] = tag;
            self.dirty[base] = write;
            self.misses += 1;
            return Probe::Miss;
        }

        let ways = &mut self.tags[base..base + self.assoc];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            if self.config.replacement.promote_on_hit() && pos != 0 {
                ways[..=pos].rotate_right(1);
                self.dirty[base..=base + pos].rotate_right(1);
            }
            let at = if self.config.replacement.promote_on_hit() {
                base
            } else {
                base + pos
            };
            self.dirty[at] |= write;
            return Probe::Hit;
        }

        self.misses += 1;
        let victim = match self.config.replacement {
            ReplacementPolicy::Random => {
                // Prefer an invalid way before evicting a random valid one.
                match ways.iter().position(|&t| t == INVALID) {
                    Some(i) => i,
                    None => self
                        .config
                        .replacement
                        .victim(self.assoc, &mut self.rng_state),
                }
            }
            _ => self.assoc - 1, // recency order ⇒ tail is LRU / oldest
        };
        if ways[victim] != INVALID && self.dirty[base + victim] {
            self.writebacks += 1;
        }
        self.tags[base + victim] = tag;
        self.dirty[base + victim] = write;
        // Newly-filled line becomes most recent (for LRU and FIFO alike:
        // FIFO order is fill order, which this maintains because hits do not
        // promote).
        self.tags[base..=base + victim].rotate_right(1);
        self.dirty[base..=base + victim].rotate_right(1);
        Probe::Miss
    }

    /// Record `n` guaranteed hits to the (resident) line containing `addr`
    /// without probing the tag store: bumps the access counter and, for
    /// writes, marks the line dirty. This is the bulk counterpart of `n`
    /// consecutive [`Cache::access_kind`] hits on one line — valid only
    /// while the line is resident and no other access to its set intervenes,
    /// in which case repeated hits cannot change the set's recency order
    /// (an LRU hit re-promotes the already-most-recent line; FIFO and
    /// Random hits never promote). The run-length fast path uses this to
    /// skip the provably-redundant lookups between line boundaries.
    ///
    /// Debug builds assert residency; release builds trust the caller.
    #[inline]
    pub fn note_hits(&mut self, addr: u64, n: u64, write: bool) {
        if n == 0 {
            return;
        }
        debug_assert_eq!(
            self.peek(addr),
            Probe::Hit,
            "note_hits on a non-resident line"
        );
        self.accesses += n;
        if write {
            self.mark_dirty(addr);
        }
    }

    /// Set the dirty bit of the resident line containing `addr`, as a write
    /// hit would; no counter moves.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, addr: u64) {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let base = set * self.assoc;
        let pos = self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == tag)
            .expect("dirtying a non-resident line");
        self.dirty[base + pos] = true;
    }

    /// Bulk access-counter bump for hits already proven by the caller. The
    /// run fast paths accumulate their per-segment hit counts and flush once
    /// through here; unlike [`Cache::note_hits`] this touches no line state,
    /// so the caller must have entered each batched line with an access of
    /// the same kind (which set the dirty bit if the run writes).
    #[inline]
    pub(crate) fn add_hit_accesses(&mut self, n: u64) {
        self.accesses += n;
    }

    /// Quietly install the line containing `addr` (hardware prefetch): no
    /// access/miss accounting, clean fill, MRU position. Returns `true` if
    /// the line was not already present. Evicting a dirty victim still
    /// counts a write-back.
    pub fn prefetch_fill(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let base = set * self.assoc;
        let ways = &mut self.tags[base..base + self.assoc];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            if self.config.replacement.promote_on_hit() && pos != 0 {
                ways[..=pos].rotate_right(1);
                self.dirty[base..=base + pos].rotate_right(1);
            }
            return false;
        }
        let victim = self.assoc - 1;
        if ways[victim] != INVALID && self.dirty[base + victim] {
            self.writebacks += 1;
        }
        ways[victim] = tag;
        self.dirty[base + victim] = false;
        ways[..=victim].rotate_right(1);
        self.dirty[base..=base + victim].rotate_right(1);
        true
    }

    /// Probe without modifying any state (no allocation, no promotion).
    pub fn peek(&self, addr: u64) -> Probe {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let ways = &self.tags[set * self.assoc..(set + 1) * self.assoc];
        if ways.contains(&tag) {
            Probe::Hit
        } else {
            Probe::Miss
        }
    }

    /// Total accesses since construction or the last [`Cache::reset_stats`].
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses since construction or the last [`Cache::reset_stats`].
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty lines evicted (write-backs) since construction or the last
    /// [`Cache::reset_stats`]. Observational only: the write-back traffic is
    /// not injected into lower levels.
    #[inline]
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Miss ratio over the accesses this level saw (NaN-free: 0 when idle).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Bulk counter credit for an access stream this level provably would
    /// have seen: `accesses` probes of which `misses` missed, evicting
    /// `writebacks` dirty lines. Touches no line state. The analytic
    /// engine's memo and the translated route of `Hierarchy::run_group`
    /// credit a recorded transition's deltas through here after restoring
    /// its exit contents, so counters and contents stay the bitwise image
    /// of a replay.
    pub fn account_analytic(&mut self, accesses: u64, misses: u64, writebacks: u64) {
        debug_assert!(misses <= accesses, "more misses than accesses");
        self.accesses += accesses;
        self.misses += misses;
        self.writebacks += writebacks;
    }

    /// Reconstruct the byte address of a line from its stored tag and set.
    #[inline(always)]
    fn line_addr_of(&self, tag: u64, set: usize) -> u64 {
        ((tag << self.set_shift) | set as u64) << self.line_shift
    }

    /// Resident lines of one set in recency order (most recent first), as
    /// `(line_byte_address, dirty)` pairs: the form the parity tests and
    /// oracles compare final contents in.
    pub fn set_contents(&self, set: usize) -> impl Iterator<Item = (u64, bool)> + '_ {
        let base = set * self.assoc;
        self.tags[base..base + self.assoc]
            .iter()
            .zip(&self.dirty[base..base + self.assoc])
            .filter(|(&t, _)| t != INVALID)
            .map(move |(&t, &d)| (self.line_addr_of(t, set), d))
    }

    /// A copy of every way's tag and dirty bit, in recency order, empty
    /// ways included: the whole line state, no counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            tags: self.tags.clone(),
            dirty: self.dirty.clone(),
        }
    }

    /// Whether the line state equals `snap` in full: every tag in recency
    /// order, every dirty bit and every empty way.
    pub fn matches_snapshot(&self, snap: &CacheSnapshot) -> bool {
        self.tags == snap.tags && self.dirty == snap.dirty
    }

    /// Overwrite the line state with `snap`. No counters move.
    ///
    /// # Panics
    /// Panics if `snap` was taken from a cache of another geometry.
    pub fn restore_snapshot(&mut self, snap: &CacheSnapshot) {
        self.tags.copy_from_slice(&snap.tags);
        self.dirty.copy_from_slice(&snap.dirty);
    }

    /// Append one set's ways, most recent first, to `lines` (line numbers,
    /// `u64::MAX` for an empty way) and `dirty`: the form the translated
    /// route of `Hierarchy::run_group` records a reference in.
    pub(crate) fn push_ways(&self, set: usize, lines: &mut Vec<u64>, dirty: &mut Vec<bool>) {
        let base = set * self.assoc;
        for w in base..base + self.assoc {
            let t = self.tags[w];
            lines.push(if t == INVALID {
                INVALID
            } else {
                (t << self.set_shift) | set as u64
            });
            dirty.push(self.dirty[w]);
        }
    }

    /// Whether one set's ways equal `lines` and `dirty`, recorded by
    /// [`Cache::push_ways`] from the set `shift` lines back, with every
    /// valid line moved `shift` lines (wrapping: a descending move).
    /// Compares every way: tags in recency order, dirty bits and empty ways.
    pub(crate) fn ways_match(&self, set: usize, lines: &[u64], dirty: &[bool], shift: u64) -> bool {
        let base = set * self.assoc;
        self.dirty[base..base + self.assoc] == *dirty
            && lines
                .iter()
                .zip(&self.tags[base..base + self.assoc])
                .all(|(&l, &t)| {
                    if l == INVALID {
                        t == INVALID
                    } else {
                        t != INVALID && t == l.wrapping_add(shift) >> self.set_shift
                    }
                })
    }

    /// Overwrite one set's ways with `lines` and `dirty`, recorded by
    /// [`Cache::push_ways`] from the set `shift` lines back, every valid
    /// line moved `shift` lines. No counters move.
    pub(crate) fn put_ways(&mut self, set: usize, lines: &[u64], dirty: &[bool], shift: u64) {
        let base = set * self.assoc;
        for (w, (&l, &d)) in lines.iter().zip(dirty).enumerate() {
            self.tags[base + w] = if l == INVALID {
                INVALID
            } else {
                let line = l.wrapping_add(shift);
                debug_assert_eq!(line & self.set_mask, set as u64, "line moved off its set");
                line >> self.set_shift
            };
            self.dirty[base + w] = d;
        }
    }

    /// Invalidate every line (cold cache) without touching counters.
    /// Dirty contents are discarded, not written back.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        self.dirty.fill(false);
    }

    /// Zero the access/miss/write-back counters without touching contents.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(size: usize, line: usize) -> Cache {
        Cache::new(CacheConfig::direct_mapped(size, line))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = dm(1024, 32);
        assert_eq!(c.access(0), Probe::Miss);
        assert_eq!(c.access(0), Probe::Hit);
        assert_eq!(c.access(31), Probe::Hit); // same line
        assert_eq!(c.access(32), Probe::Miss); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.accesses(), 4);
    }

    #[test]
    fn direct_mapped_ping_pong() {
        // Two addresses exactly one cache size apart: the paper's "severe"
        // or ping-pong conflict — every access misses.
        let mut c = dm(1024, 32);
        for _ in 0..10 {
            assert_eq!(c.access(0), Probe::Miss);
            assert_eq!(c.access(1024), Probe::Miss);
        }
        assert_eq!(c.misses(), 20);
    }

    #[test]
    fn two_way_absorbs_ping_pong() {
        let mut c = Cache::new(CacheConfig::new(1024, 32, 2, ReplacementPolicy::Lru));
        assert_eq!(c.access(0), Probe::Miss);
        assert_eq!(c.access(1024), Probe::Miss);
        for _ in 0..10 {
            assert_eq!(c.access(0), Probe::Hit);
            assert_eq!(c.access(1024), Probe::Hit);
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(CacheConfig::new(128, 32, 4, ReplacementPolicy::Lru));
        // One set of 4 ways (128/32 = 4 lines, 4-way ⇒ 1 set).
        for a in [0u64, 32, 64, 96] {
            assert_eq!(c.access(a), Probe::Miss);
        }
        // Touch 0 to make it MRU, then bring in a 5th line: victim must be 32.
        assert_eq!(c.access(0), Probe::Hit);
        assert_eq!(c.access(128), Probe::Miss);
        assert_eq!(c.peek(32), Probe::Miss);
        assert_eq!(c.peek(0), Probe::Hit);
        assert_eq!(c.peek(64), Probe::Hit);
        assert_eq!(c.peek(96), Probe::Hit);
    }

    #[test]
    fn fifo_ignores_hits_when_evicting() {
        let mut c = Cache::new(CacheConfig::new(128, 32, 4, ReplacementPolicy::Fifo));
        for a in [0u64, 32, 64, 96] {
            c.access(a);
        }
        // Hit 0 (the oldest). Under FIFO it is still evicted first.
        assert_eq!(c.access(0), Probe::Hit);
        assert_eq!(c.access(128), Probe::Miss);
        assert_eq!(c.peek(0), Probe::Miss);
        assert_eq!(c.peek(32), Probe::Hit);
    }

    #[test]
    fn peek_does_not_allocate() {
        let mut c = dm(1024, 32);
        assert_eq!(c.peek(0), Probe::Miss);
        assert_eq!(c.peek(0), Probe::Miss);
        assert_eq!(c.access(0), Probe::Miss);
        assert_eq!(c.peek(0), Probe::Hit);
    }

    #[test]
    fn flush_invalidates_contents_but_keeps_stats() {
        let mut c = dm(1024, 32);
        c.access(0);
        c.access(0);
        c.flush();
        assert_eq!(c.peek(0), Probe::Miss);
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = dm(1024, 32);
        c.access(0);
        c.reset_stats();
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.access(0), Probe::Hit);
    }

    #[test]
    fn miss_ratio_zero_when_idle() {
        let c = dm(1024, 32);
        assert_eq!(c.miss_ratio(), 0.0);
    }

    #[test]
    fn sequential_walk_misses_once_per_line() {
        let mut c = dm(16 * 1024, 32);
        for a in 0..(16 * 1024u64) {
            c.access(a);
        }
        assert_eq!(c.misses(), 512);
        // Second pass fits exactly: all hits.
        for a in 0..(16 * 1024u64) {
            assert_eq!(c.access(a), Probe::Hit);
        }
        assert_eq!(c.misses(), 512);
    }

    #[test]
    fn writebacks_counted_for_dirty_evictions_only() {
        let mut c = dm(1024, 32);
        // Read 0, evict with 1024 (clean): no writeback.
        c.access_kind(0, false);
        c.access_kind(1024, false);
        assert_eq!(c.writebacks(), 0);
        // Write 0 (miss, allocate dirty), evict with 1024: one writeback.
        c.access_kind(0, true);
        c.access_kind(1024, false);
        assert_eq!(c.writebacks(), 1);
        // Read then write-hit then evict: writeback too.
        c.access_kind(2048, false);
        c.access_kind(2048, true);
        c.access_kind(0, false);
        assert_eq!(c.writebacks(), 2);
    }

    #[test]
    fn read_only_trace_has_no_writebacks() {
        let mut c = dm(256, 32);
        for i in 0..4096u64 {
            c.access_kind(i * 8, false);
        }
        assert_eq!(c.writebacks(), 0);
        assert!(c.misses() > 0);
    }

    #[test]
    fn dirty_bits_follow_lru_rotation() {
        // 4-way set: write A, read B C D, touch A (hit), bring E evicting B
        // (clean): no writeback yet; then evict the rest and count exactly
        // one writeback (A's line).
        let mut c = Cache::new(CacheConfig::new(128, 32, 4, ReplacementPolicy::Lru));
        c.access_kind(0, true); // A dirty
        for a in [32u64, 64, 96] {
            c.access_kind(a, false);
        }
        c.access_kind(0, false); // A hits, stays dirty, becomes MRU
        c.access_kind(128, false); // evicts 32 (clean)
        assert_eq!(c.writebacks(), 0);
        c.access_kind(160, false); // evicts 64 (clean)
        c.access_kind(192, false); // evicts 96 (clean)
        c.access_kind(224, false); // evicts 128? order: evicts LRU...
                                   // Keep evicting until A's line goes; exactly one writeback total.
        for a in [256u64, 288, 320, 352] {
            c.access_kind(a, false);
        }
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn flush_discards_dirty_lines() {
        let mut c = dm(1024, 32);
        c.access_kind(0, true);
        c.flush();
        c.access_kind(1024, false); // would evict line 0 if still present
        assert_eq!(c.writebacks(), 0);
    }

    #[test]
    fn trips_on_line_counts_to_boundary() {
        // 32-byte lines (shift 5).
        assert_eq!(trips_on_line(0, 8, 5), 4);
        assert_eq!(trips_on_line(24, 8, 5), 1);
        assert_eq!(trips_on_line(8, 8, 5), 3);
        assert_eq!(trips_on_line(31, 1, 5), 1);
        assert_eq!(trips_on_line(0, 1, 5), 32);
        // Descending runs leave through the bottom of the line.
        assert_eq!(trips_on_line(24, -8, 5), 4);
        assert_eq!(trips_on_line(0, -8, 5), 1);
        // A zero stride never leaves the line.
        assert_eq!(trips_on_line(16, 0, 5), u64::MAX);
        // Unaligned strides still terminate.
        assert_eq!(trips_on_line(0, 24, 5), 2);
    }

    #[test]
    fn note_hits_bumps_accesses_and_dirty_only() {
        let mut c = dm(1024, 32);
        c.access_kind(0, false);
        c.note_hits(8, 3, false);
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 1);
        c.note_hits(16, 1, true); // write hit dirties the line
        c.access_kind(1024, false); // evict it
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn random_replacement_stays_within_set() {
        let mut c = Cache::new(CacheConfig::new(256, 32, 2, ReplacementPolicy::Random));
        // 8 lines, 2-way ⇒ 4 sets. Addresses 0 and 256 share set 0;
        // address 32 lives in set 1 and must never be evicted by them.
        c.access(32);
        for i in 0..100u64 {
            c.access((i % 3) * 256);
        }
        assert_eq!(c.peek(32), Probe::Hit);
    }
}
