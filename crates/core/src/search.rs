//! GROUPPAD's padding-position search as one exact sweep per placement.
//!
//! The exhaustive scan in [`crate::group_pad`] scores every candidate
//! position (`cache.size / quantum` of them — 512 per variable on the
//! 16 KiB L1) with a full severe-conflict + exploited-arc recompute over
//! every nest. This engine gets the same answer from two structural facts:
//!
//! **Suffix shifts.** The layout is cumulative (`base[j] = Σ pads[..=j] +
//! Σ sizes[..j]`), so placing variable `k` at candidate `c` shifts the
//! bases of arrays `k..` by one common delta `δ = c·quantum`. A nest whose
//! referenced arrays all move, or all stay, keeps every pairwise distance
//! modulo the cache size, so its severe and exploited counts are
//! invariant. Only nests whose references straddle the split (`min_array <
//! k <= max_array`, the per-variable index on [`ProgramSkeleton`]) can
//! change; the engine caches per-nest counts and folds the others into
//! constants ([`GroupPadSearch::rescore_move`] keeps the cache current).
//!
//! **Conflict windows.** Within an affected nest, every condition the
//! score depends on is a window of shift deltas — the paper's modular
//! arithmetic (§3), and the lattice view of conflicts in "Model-Driven
//! Automatic Tiling with Cache Associativity Lattices":
//!
//! * a lockstep pair with one side moving is severe on its circular-distance
//!   window `(a_m + δ − a_f) mod s ∈ (s − line, s) ∪ [0, line)`, minus its
//!   same-line window `|a_m + δ − a_f| < line`, which lies inside it;
//! * an intervener under an arc, with exactly one of it and the lead moving,
//!   kills the arc on its window `off ∈ [0, span + line) ∪ (s − line, s)`,
//!   where `off = ±δ + const` is its offset under the lead. It is a
//!   different array from the lead, so the same-tag exception never applies.
//!
//! Pairs and interveners whose two sides move together are position
//! invariant and fold into constants. Each window maps exactly onto the
//! candidate indices `ceil(lo / q) ..= floor(hi / q)`, split where it wraps
//! past `s`. One walk over the sorted endpoints keeps the severe count and
//! one killer count per arc (an arc is exploited while its count is zero),
//! and scores each segment start with the exhaustive scan's
//! `(severe, −exploited, pad)` first-best rule: within a segment the score
//! is constant and the start has the smallest pad, so the result is the
//! exhaustive scan's bitwise. Debug builds re-run the exhaustive scan after
//! every placement and assert the result identical; release parity is
//! covered by the differential suite in `mlc-experiments` and the fuzz
//! `search-parity` oracle.
//!
//! This engine is the only one behind [`crate::group_pad::group_pad`] and
//! its siblings. The exhaustive scan stays reachable for parity checks
//! through the explicitly named
//! [`crate::group_pad::group_pad_quantized_exhaustive`] and
//! [`crate::group_pad::group_pad_multi_exhaustive`].

use crate::group::{severe_pair, ProgramSkeleton};
use mlc_cache_sim::CacheConfig;

/// Cumulative layout arithmetic without allocating a layout: array `j` gets
/// base `Σ pads[..=j] + Σ sizes[..j]`.
pub(crate) fn compute_bases(sizes: &[u64], pads: &[u64], out: &mut Vec<u64>) {
    out.clear();
    let mut cursor = 0u64;
    for (sz, &p) in sizes.iter().zip(pads) {
        cursor += p;
        out.push(cursor);
        cursor += sz;
    }
}

/// [`Event::arc`] of an event on the severe-conflict count.
const SEVERE: u32 = u32::MAX;

/// One window endpoint: from candidate `at` on, add `delta` to the severe
/// count (`arc == SEVERE`) or to arc `arc`'s killer count.
#[derive(Debug, Clone, Copy)]
struct Event {
    at: u64,
    delta: i32,
    arc: u32,
}

/// The window endpoints of one placement, on candidate indices.
struct Windows {
    /// Cache size: shift deltas live in `0..s`.
    s: u64,
    /// Pad quantum; it divides `s`.
    q: u64,
    /// Number of candidates, `s / q`.
    candidates: u64,
    events: Vec<Event>,
}

impl Windows {
    /// Add `delta` on the shift deltas `lo..=hi` (`lo <= hi < s`), i.e. on
    /// the candidates `ceil(lo / q) ..= floor(hi / q)`.
    fn linear(&mut self, lo: u64, hi: u64, delta: i32, arc: u32) {
        let (first, last) = (lo.div_ceil(self.q), hi / self.q);
        if first > last {
            return; // the window falls between two candidates
        }
        self.events.push(Event {
            at: first,
            delta,
            arc,
        });
        if last + 1 < self.candidates {
            self.events.push(Event {
                at: last + 1,
                delta: -delta,
                arc,
            });
        }
    }

    /// Add `delta` on the `len` shift deltas from `from` on, circularly mod
    /// `s` (`from < s`); a window of `s` or more covers every candidate.
    fn circular(&mut self, from: u64, len: u64, delta: i32, arc: u32) {
        let s = self.s;
        if len >= s {
            self.linear(0, s - 1, delta, arc);
        } else if from + len <= s {
            self.linear(from, from + len - 1, delta, arc);
        } else {
            self.linear(from, s - 1, delta, arc);
            self.linear(0, from + len - 1 - s, delta, arc);
        }
    }
}

/// The incremental GROUPPAD search state: current pads, visibility mask,
/// and cached per-nest severe/exploited counts kept consistent with them.
pub(crate) struct GroupPadSearch<'a> {
    skel: &'a ProgramSkeleton,
    cache: CacheConfig,
    quantum: u64,
    /// Number of quantized positions per variable (`cache.size / quantum`).
    candidates: u64,
    /// Pads every candidate is offset from (the multi-level recursion's
    /// already-fixed lower-level layout).
    base: Vec<u64>,
    pub(crate) pads: Vec<u64>,
    visible: Vec<bool>,
    /// Bases under `pads` (kept consistent by `rescore_move`).
    bases: Vec<u64>,
    /// Cached severe-conflict count per nest under (`bases`, `visible`).
    sev: Vec<usize>,
    /// Cached exploited-arc count per nest under (`bases`, `visible`).
    expl: Vec<usize>,
    /// Candidate positions considered — matches the exhaustive scan's
    /// `positions_tried` exactly.
    pub(crate) tried: u64,
    /// Segment starts scored by the sweeps.
    pub(crate) scored: u64,
}

impl<'a> GroupPadSearch<'a> {
    pub(crate) fn new(
        skel: &'a ProgramSkeleton,
        cache: CacheConfig,
        quantum: u64,
        base: Vec<u64>,
    ) -> Self {
        let n = skel.n_arrays();
        let n_nests = skel.nests().len();
        let pads = base.clone();
        let mut bases = Vec::with_capacity(n);
        compute_bases(skel.array_sizes(), &pads, &mut bases);
        Self {
            skel,
            cache,
            quantum,
            candidates: cache.size as u64 / quantum,
            base,
            pads,
            // All arrays start hidden: every severe pair and arc member is
            // masked out, so the cached counts are all zero.
            visible: vec![false; n],
            bases,
            sev: vec![0; n_nests],
            expl: vec![0; n_nests],
            tried: 0,
            scored: 0,
        }
    }

    fn rescore_nest(&mut self, n: usize) {
        self.sev[n] = self
            .skel
            .severe_in_nest(n, &self.bases, self.cache, Some(&self.visible));
        self.expl[n] = self
            .skel
            .exploited_in_nest(n, &self.bases, self.cache, Some(&self.visible));
    }

    /// Reveal array `k` and refresh the cached counts of every nest that
    /// references it (`min <= k <= max`; others cannot see the change).
    pub(crate) fn set_visible(&mut self, k: usize) {
        self.visible[k] = true;
        for n in 0..self.skel.nests().len() {
            if matches!(self.skel.nest_array_span(n), Some((mn, mx)) if mn <= k && k <= mx) {
                self.rescore_nest(n);
            }
        }
    }

    /// Commit `pads[k] = new_pad` and incrementally refresh the cache:
    /// only nests straddling the split can have changed.
    pub(crate) fn rescore_move(&mut self, k: usize, new_pad: u64) {
        self.pads[k] = new_pad;
        compute_bases(self.skel.array_sizes(), &self.pads, &mut self.bases);
        for n in 0..self.skel.nests().len() {
            if self.skel.nest_affected_by_move(n, k) {
                self.rescore_nest(n);
            }
        }
    }

    /// Exhaustive scan with full recomputation — the scalar search's exact
    /// loop — used to validate the sweep's result in debug builds.
    #[cfg(debug_assertions)]
    fn exhaustive_best(&self, k: usize, bases0: &[u64]) -> (usize, i64, u64) {
        let mut best: Option<(usize, i64, u64)> = None;
        let mut bases = bases0.to_vec();
        for c in 0..self.candidates {
            let delta = c * self.quantum;
            for (b, &b0) in bases[k..].iter_mut().zip(&bases0[k..]) {
                *b = b0 + delta;
            }
            let candidate = self.base[k] + delta;
            let conflicts = self.skel.severe(&bases, self.cache, Some(&self.visible));
            let exploited = self.skel.exploited(&bases, self.cache, Some(&self.visible)) as i64;
            let score = (conflicts, -exploited, candidate);
            if best.is_none_or(|b| score < b) {
                best = Some(score);
            }
        }
        best.expect("at least one candidate position")
    }

    /// Find and commit the best position for variable `k` under the current
    /// visibility mask, in one sweep over the conflict windows of the nests
    /// the move straddles (see module docs). Reproduces the exhaustive
    /// scan's result bitwise.
    pub(crate) fn place(&mut self, k: usize) {
        // Layout at candidate 0 (pads[k] at its base value); candidate c
        // shifts bases[k..] by c·quantum.
        self.pads[k] = self.base[k];
        let mut bases0 = Vec::with_capacity(self.pads.len());
        compute_bases(self.skel.array_sizes(), &self.pads, &mut bases0);

        let s = self.cache.size as u64;
        let line = self.cache.line as u64;
        let visible = Some(self.visible.as_slice());
        let mut w = Windows {
            s,
            q: self.quantum,
            candidates: self.candidates,
            events: Vec::new(),
        };
        // Counts no candidate changes, and the number of arcs some
        // candidate does (each gets a killer count, indexed from 0).
        let (mut sev, mut expl, mut arcs) = (0i64, 0i64, 0u32);
        for n in 0..self.skel.nests().len() {
            if !self.skel.nest_affected_by_move(n, k) {
                sev += self.sev[n] as i64;
                expl += self.expl[n] as i64;
                continue;
            }
            let nest = &self.skel.nests[n];
            let addr0 = |r: usize| bases0[nest.array[r]] + nest.offset[r];
            let moves = |r: usize| nest.array[r] >= k;
            for &(i, j) in &self.skel.lockstep[n] {
                if !self.visible[nest.array[i]] || !self.visible[nest.array[j]] {
                    continue;
                }
                if moves(i) == moves(j) {
                    sev += severe_pair(addr0(i), addr0(j), self.cache) as i64;
                    continue;
                }
                let (am, af) = if moves(i) {
                    (addr0(i), addr0(j))
                } else {
                    (addr0(j), addr0(i))
                };
                // Severe where x = (am − af + δ) mod s is within a line of 0 ...
                let x0 = (am % s + s - af % s) % s;
                w.circular((2 * s - line + 1 - x0) % s, 2 * line - 1, 1, SEVERE);
                // ... unless |am + δ − af| < line: one memory line.
                let (d, l) = (af as i128 - am as i128, line as i128);
                let (lo, hi) = ((d - l + 1).max(0), (d + l - 1).min(s as i128 - 1));
                if lo <= hi {
                    w.linear(lo as u64, hi as u64, -1, SEVERE);
                }
            }
            for (trailing, lead, span) in nest.arcs(visible) {
                if span + line > s {
                    continue; // never exploited
                }
                // off ∈ [0, span + line) ∪ (s − line, s): `len` offsets
                // circularly from s − line + 1.
                let len = span + 2 * line - 1;
                let lead_loc0 = addr0(lead) % s;
                let mark = w.events.len();
                let mut killed = false;
                for r in 0..nest.len() {
                    if !nest.intervenes(r, trailing, lead, visible) {
                        continue;
                    }
                    if moves(r) == moves(lead) {
                        killed = killed || nest.flushes(&bases0, self.cache, r, lead, span);
                        continue;
                    }
                    // off = x0 + δ if the lead moves, x0 − δ if r does.
                    let x0 = (lead_loc0 + s - addr0(r) % s) % s;
                    let from = if moves(lead) {
                        (2 * s - line + 1 - x0) % s
                    } else {
                        (x0 + line + s - len.min(s)) % s
                    };
                    w.circular(from, len, 1, arcs);
                }
                if killed {
                    w.events.truncate(mark);
                } else if w.events.len() == mark {
                    expl += 1;
                } else {
                    arcs += 1;
                }
            }
        }

        // Walk the endpoints; every arc starts with no killer.
        w.events.sort_unstable_by_key(|e| e.at);
        let mut killers = vec![0i32; arcs as usize];
        expl += arcs as i64;
        let mut best: Option<(usize, i64, u64)> = None;
        let mut events = w.events.iter().peekable();
        let mut at = 0;
        loop {
            while let Some(e) = events.next_if(|e| e.at == at) {
                if e.arc == SEVERE {
                    sev += e.delta as i64;
                } else {
                    let count = &mut killers[e.arc as usize];
                    let was_exploited = *count == 0;
                    *count += e.delta;
                    expl += (*count == 0) as i64 - was_exploited as i64;
                }
            }
            self.scored += 1;
            let score = (sev as usize, -expl, self.base[k] + at * self.quantum);
            if best.is_none_or(|b| score < b) {
                best = Some(score);
            }
            match events.peek() {
                Some(e) => at = e.at,
                None => break,
            }
        }
        let best = best.expect("candidate 0 is always scored");
        self.tried += self.candidates;

        // Exhaustive cross-check: the full recompute validates the windows,
        // the folded constants and the cached unaffected-nest counts.
        #[cfg(debug_assertions)]
        assert_eq!(
            self.exhaustive_best(k, &bases0),
            best,
            "GROUPPAD sweep diverged from the exhaustive scan placing variable {k}"
        );

        self.rescore_move(k, best.2);
    }
}

/// The full GROUPPAD coordinate ascent (greedy placement in declaration
/// order, then up to two refinement sweeps) on the sweep engine. Returns
/// `(pads, positions_tried, positions_scored)`; `positions_tried` counts
/// every candidate the exhaustive scan would have scored, so the two paths
/// report identical `tried` numbers.
pub(crate) fn grouppad_search(
    skel: &ProgramSkeleton,
    cache: CacheConfig,
    quantum: u64,
    base: Vec<u64>,
) -> (Vec<u64>, u64, u64) {
    let n = skel.n_arrays();
    let mut eng = GroupPadSearch::new(skel, cache, quantum, base);
    for k in 0..n {
        eng.set_visible(k);
        eng.place(k);
    }
    for _ in 0..2 {
        let before = eng.pads.clone();
        for k in 0..n {
            eng.place(k);
        }
        if eng.pads == before {
            break;
        }
    }
    (eng.pads, eng.tried, eng.scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_model::program::figure2_example;

    fn brute_force_place(
        skel: &ProgramSkeleton,
        cache: CacheConfig,
        quantum: u64,
        base: &[u64],
        pads: &mut [u64],
        k: usize,
        visible: &[bool],
    ) {
        let mut best: Option<(usize, i64, u64)> = None;
        let mut best_pad = pads[k];
        let mut bases = Vec::new();
        for c in 0..cache.size as u64 / quantum {
            let candidate = base[k] + c * quantum;
            pads[k] = candidate;
            compute_bases(skel.array_sizes(), pads, &mut bases);
            let conflicts = skel.severe(&bases, cache, Some(visible));
            let exploited = skel.exploited(&bases, cache, Some(visible)) as i64;
            let score = (conflicts, -exploited, candidate);
            if best.is_none_or(|b| score < b) {
                best = Some(score);
                best_pad = candidate;
            }
        }
        pads[k] = best_pad;
    }

    #[test]
    fn engine_places_like_brute_force_step_by_step() {
        // Lockstep: drive the engine and an inline brute-force scan through
        // the same greedy schedule and compare after every single placement.
        for n in [48usize, 60, 64, 100] {
            let p = figure2_example(n);
            let skel = ProgramSkeleton::new(&p);
            let cache = CacheConfig::direct_mapped(1024, 32);
            let quantum = 32;
            let base = vec![0u64; p.arrays.len()];
            let mut eng = GroupPadSearch::new(&skel, cache, quantum, base.clone());
            let mut pads = base.clone();
            let mut visible = vec![false; p.arrays.len()];
            for k in 0..p.arrays.len() {
                visible[k] = true;
                eng.set_visible(k);
                eng.place(k);
                brute_force_place(&skel, cache, quantum, &base, &mut pads, k, &visible);
                assert_eq!(eng.pads, pads, "N={n}, after placing variable {k}");
            }
            // And one refinement sweep.
            for k in 0..p.arrays.len() {
                eng.place(k);
                brute_force_place(&skel, cache, quantum, &base, &mut pads, k, &visible);
                assert_eq!(eng.pads, pads, "N={n}, refinement at variable {k}");
            }
        }
    }

    #[test]
    fn sweep_scores_few_segment_starts() {
        let p = figure2_example(450);
        let skel = ProgramSkeleton::new(&p);
        let cache = CacheConfig::direct_mapped(16 * 1024, 32);
        let (_, tried, scored) = grouppad_search(&skel, cache, 32, vec![0; 3]);
        assert!(scored < tried / 2, "scored {scored} of {tried} candidates");
    }

    /// The events a set of windows leaves, as `(at, delta)` sorted.
    fn events(q: u64, add: impl FnOnce(&mut Windows)) -> Vec<(u64, i32)> {
        let mut w = Windows {
            s: 1024,
            q,
            candidates: 1024 / q,
            events: Vec::new(),
        };
        add(&mut w);
        let mut ev: Vec<_> = w.events.iter().map(|e| (e.at, e.delta)).collect();
        ev.sort_unstable();
        ev
    }

    #[test]
    fn windows_map_exactly_onto_candidates() {
        // Deltas 32..=95 on a 32-byte quantum: candidates 1 and 2, ending
        // before candidate 3; both ends are candidates themselves.
        assert_eq!(events(32, |w| w.linear(32, 95, 1, 0)), [(1, 1), (3, -1)]);
        assert_eq!(events(32, |w| w.linear(32, 96, 1, 0)), [(1, 1), (4, -1)]);
        // A low end past a candidate rounds up, a high end rounds down.
        assert_eq!(events(32, |w| w.linear(33, 127, 1, 0)), [(2, 1), (4, -1)]);
        // A window between two candidates holds none of them.
        assert_eq!(events(256, |w| w.linear(300, 500, 1, 0)), []);
        // A window reaching the last candidate has no closing endpoint.
        assert_eq!(events(256, |w| w.linear(700, 1023, -1, 0)), [(3, -1)]);
    }

    #[test]
    fn circular_windows_split_where_they_wrap() {
        // 64 deltas from 992 on: 992..=1023 and 0..=31.
        assert_eq!(
            events(32, |w| w.circular(992, 64, 1, 0)),
            [(0, 1), (1, -1), (31, 1)]
        );
        // A window of the whole cache or more covers every candidate.
        assert_eq!(events(32, |w| w.circular(500, 1024, 1, 0)), [(0, 1)]);
        assert_eq!(events(32, |w| w.circular(500, 5000, 1, 0)), [(0, 1)]);
        // Ending exactly at s does not wrap.
        assert_eq!(events(32, |w| w.circular(960, 64, 1, 0)), [(30, 1)]);
    }

    #[test]
    fn empty_program_searches_trivially() {
        let p = mlc_model::Program {
            name: "empty".into(),
            arrays: vec![],
            nests: vec![],
        };
        let skel = ProgramSkeleton::new(&p);
        let (pads, tried, scored) =
            grouppad_search(&skel, CacheConfig::direct_mapped(1024, 32), 32, vec![]);
        assert!(pads.is_empty());
        assert_eq!(tried, 0);
        assert_eq!(scored, 0);
    }
}
