//! Searchable generalized Morton layouts: per-array interleave words as a
//! search objective, refereed by full-hierarchy simulation.
//!
//! The padding searches of Section 3 move array *bases*; this engine moves
//! array *element orderings*. For each array it enumerates a bounded,
//! canonical family of bit-interleave words (`docs/LAYOUTS.md`) — the
//! round-robin word plus every blocked word with per-dimension group sizes
//! from `GROUP_SIZES` — and runs a greedy coordinate ascent in declaration
//! order: score every candidate family for one array (all other arrays
//! fixed), keep the first strict improvement by simulated memory-stall
//! cost, then refine for up to two extra sweeps, exactly the shape of the
//! `GROUPPAD` ascent in [`crate::search`].
//!
//! Candidates are statically pruned before any simulation: arrays no
//! reference touches, ranks outside `1..=MAX_SEARCH_RANK`, and words whose
//! power-of-two envelope would blow the allocation past
//! `MAX_ENVELOPE_FACTOR`× the linear size are never scored.
//!
//! Scoring simulates the steady-state protocol (warmup 1, timed 1) through
//! the run-length fast path — the same referee every sweep grid uses,
//! whose walk steps each Morton offset in constant time per access — and
//! weighs misses by the hierarchy's per-level penalties. Each distinct
//! family vector is simulated once per search: a memo seeded with the
//! all-linear baseline answers the vectors a refinement sweep offers
//! again. Every batch of vectors still unscored fans out over the
//! work-stealing executor in [`crate::exec`] whenever the thread budget is
//! above 1. The winner is then judged by walking the candidates in their
//! fixed order, so neither the memo nor the thread count changes a result:
//! ties break toward the earlier candidate, and `Linear` is always
//! candidate 0, so the search only ever returns a Morton word that strictly
//! beats row-of-columns order.
//!
//! Per call, [`ArrayChoice`] counts the simulations each array's scans
//! ran (memo hits excluded) and the words they pruned; [`stats`] exports
//! the same counts process-wide as `layout.search_*` telemetry next to
//! the `layout.*` trace counters from `mlc_model`.

use mlc_cache_sim::stats::MissRateReport;
use mlc_cache_sim::HierarchyConfig;
use mlc_model::layout::{blocked_word, round_robin_word, LayoutFamily};
use mlc_model::trace_gen::try_simulate_steady_with;
use mlc_model::{ArrayDecl, DataLayout, Program};
use std::collections::HashMap;

/// Per-dimension bit-group sizes enumerated by [`morton_candidates`]. Group
/// size 1 in every dimension is the round-robin word; a group as large as
/// the dimension's whole bit budget degenerates toward linear order.
pub const GROUP_SIZES: [u32; 4] = [1, 2, 4, 8];

/// Arrays of higher rank keep their linear layout: the candidate set grows
/// as `|GROUP_SIZES|^rank` and the paper's kernels are rank ≤ 3.
pub const MAX_SEARCH_RANK: usize = 3;

/// A word whose `2^bits` envelope exceeds this multiple of the array's
/// linear allocation is pruned unscored — the envelope shifts every later
/// base, and a search that trades a cache-size blowup for locality inside
/// one array optimizes the wrong thing.
pub const MAX_ENVELOPE_FACTOR: u64 = 4;

/// One array's searched outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayChoice {
    /// The winning family (`Linear` when no word beat it).
    pub family: LayoutFamily,
    /// Candidate family vectors this array's scans simulated; vectors an
    /// earlier scan of the same search had scored are not counted again.
    pub scored: u64,
    /// Candidate families statically pruned for this array.
    pub pruned: u64,
}

/// Result of a whole-program Morton layout search.
#[derive(Debug, Clone, PartialEq)]
pub struct MortonSearchResult {
    /// Winning per-array families, declaration order.
    pub families: Vec<LayoutFamily>,
    /// The winning layout (case pads preserved).
    pub layout: DataLayout,
    /// Steady-state report under the winning layout.
    pub report: MissRateReport,
    /// Memory-stall cost of the winning layout.
    pub cost: f64,
    /// Cost of the all-linear starting point, for A/B reporting.
    pub linear_cost: f64,
    /// Per-array accounting, declaration order.
    pub choices: Vec<ArrayChoice>,
}

impl MortonSearchResult {
    /// Whether any array ended up on a Morton word.
    pub fn any_morton(&self) -> bool {
        self.families.iter().any(|f| !f.is_linear())
    }
}

/// The canonical candidate words for one array: round-robin first, then
/// every [`blocked_word`] over `GROUP_SIZES` per dimension, deduplicated in
/// generation order. `Linear` itself is *not* included — the caller seeds
/// the ascent with it as candidate 0.
pub fn morton_candidates(decl: &ArrayDecl) -> Vec<LayoutFamily> {
    let rank = decl.rank();
    if rank == 0 || rank > MAX_SEARCH_RANK {
        return Vec::new();
    }
    let bits: Vec<u32> = (0..rank)
        .map(|d| mlc_model::layout::min_bits(decl.alloc_dim(d)))
        .collect();
    let mut words: Vec<Vec<u8>> = vec![round_robin_word(&bits)];
    let mut groups = vec![0usize; rank];
    loop {
        let g: Vec<u32> = groups.iter().map(|&i| GROUP_SIZES[i]).collect();
        let w = blocked_word(&bits, &g);
        if !words.contains(&w) {
            words.push(w);
        }
        // Odometer over GROUP_SIZES^rank.
        let mut d = 0;
        loop {
            groups[d] += 1;
            if groups[d] < GROUP_SIZES.len() {
                break;
            }
            groups[d] = 0;
            d += 1;
            if d == rank {
                return finish_candidates(decl, words);
            }
        }
    }
}

fn finish_candidates(decl: &ArrayDecl, words: Vec<Vec<u8>>) -> Vec<LayoutFamily> {
    words
        .into_iter()
        .map(LayoutFamily::Morton)
        .filter(|f| f.validate(decl).is_ok())
        .collect()
}

/// Process-wide counters for the Morton word search.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static WORDS_SCORED: AtomicU64 = AtomicU64::new(0);
    pub(super) static WORDS_PRUNED: AtomicU64 = AtomicU64::new(0);
    pub(super) static ARRAYS_SEARCHED: AtomicU64 = AtomicU64::new(0);
    pub(super) static MORTON_WINS: AtomicU64 = AtomicU64::new(0);

    /// Snapshot of the search counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LayoutSearchStats {
        /// Candidate family vectors simulated (memo hits excluded).
        pub words_scored: u64,
        /// Candidate words statically pruned (envelope, rank, unused array).
        pub words_pruned: u64,
        /// Arrays whose candidate set was searched.
        pub arrays_searched: u64,
        /// Arrays whose winner was a Morton word.
        pub morton_wins: u64,
    }

    /// Read and reset the process-wide search counters.
    pub fn take_stats() -> LayoutSearchStats {
        LayoutSearchStats {
            words_scored: WORDS_SCORED.swap(0, Ordering::Relaxed),
            words_pruned: WORDS_PRUNED.swap(0, Ordering::Relaxed),
            arrays_searched: ARRAYS_SEARCHED.swap(0, Ordering::Relaxed),
            morton_wins: MORTON_WINS.swap(0, Ordering::Relaxed),
        }
    }

    /// Drain the counters into a [`mlc_telemetry::MetricsRegistry`] as
    /// `layout.search_*` counters (zero values are skipped).
    pub fn install_metrics(reg: &mut mlc_telemetry::MetricsRegistry) {
        let s = take_stats();
        for (name, v) in [
            ("layout.search_words_scored", s.words_scored),
            ("layout.search_words_pruned", s.words_pruned),
            ("layout.search_arrays_searched", s.arrays_searched),
            ("layout.search_morton_wins", s.morton_wins),
        ] {
            if v > 0 {
                reg.count(name, v);
            }
        }
    }
}

fn bump(counter: &std::sync::atomic::AtomicU64, by: u64) {
    counter.fetch_add(by, std::sync::atomic::Ordering::Relaxed);
}

/// A family vector's memory-stall cost and steady-state report, `None`
/// when its layout does not simulate.
type Score = Option<(f64, MissRateReport)>;

/// Score one family vector: steady-state simulation, penalties-weighted.
/// `None` when the candidate layout does not simulate (a candidate must
/// never turn a simulable program unsimulable, but the search tolerates it
/// by skipping the candidate rather than panicking mid-sweep).
fn score(p: &Program, pads: &[u64], fams: &[LayoutFamily], h: &HierarchyConfig) -> Score {
    let layout = DataLayout::with_pads_and_families(&p.arrays, pads, fams).ok()?;
    let report = try_simulate_steady_with(p, &layout, h, 1, 1, true).ok()?;
    let cost = report.weighted_cost(&h.miss_penalty);
    Some((cost, report))
}

/// Search per-array Morton interleave words for `program` under fixed
/// inter-variable `pads`. Greedy coordinate ascent in declaration order
/// with up to two refinement sweeps; see the module docs for the candidate
/// set and pruning rules.
///
/// Errors only when the all-linear starting point itself does not simulate.
pub fn search_morton(
    program: &Program,
    pads: &[u64],
    h: &HierarchyConfig,
) -> Result<MortonSearchResult, String> {
    search(program, pads, h, crate::par::default_threads())
}

/// [`search_morton`] with its candidate batches scored on `threads`
/// workers.
fn search(
    program: &Program,
    pads: &[u64],
    h: &HierarchyConfig,
    threads: usize,
) -> Result<MortonSearchResult, String> {
    let n = program.arrays.len();
    let mut fams = vec![LayoutFamily::Linear; n];
    let (linear_cost, mut best_report) = score(program, pads, &fams, h)
        .ok_or_else(|| "all-linear baseline does not simulate".to_string())?;
    let mut best_cost = linear_cost;
    // Every family vector scored so far. A refinement sweep re-offers the
    // incumbent, and an array whose scan comes round again with no other
    // array moved in between re-offers every vector of its last scan; such
    // vectors are looked up here instead of simulated again.
    let mut memo: HashMap<Vec<LayoutFamily>, Score> = HashMap::new();
    memo.insert(fams.clone(), Some((linear_cost, best_report.clone())));

    let used: Vec<bool> = (0..n)
        .map(|a| {
            program
                .nests
                .iter()
                .any(|nest| nest.body.iter().any(|r| r.array == a))
        })
        .collect();

    let mut choices: Vec<ArrayChoice> = (0..n)
        .map(|_| ArrayChoice {
            family: LayoutFamily::Linear,
            scored: 0,
            pruned: 0,
        })
        .collect();

    let mut place = |k: usize,
                     fams: &mut Vec<LayoutFamily>,
                     choices: &mut Vec<ArrayChoice>,
                     best_cost: &mut f64,
                     best_report: &mut MissRateReport| {
        let decl = &program.arrays[k];
        let all = morton_candidates(decl);
        if !used[k] {
            // An untouched array cannot change the trace; every word for it
            // is statically pruned.
            choices[k].pruned += all.len() as u64;
            bump(&stats::WORDS_PRUNED, all.len() as u64);
            return;
        }
        let linear_bytes = decl.size_bytes() as u64;
        let (cands, pruned): (Vec<_>, Vec<_>) = all
            .into_iter()
            .partition(|f| f.alloc_bytes(decl) <= linear_bytes * MAX_ENVELOPE_FACTOR);
        choices[k].pruned += pruned.len() as u64;
        bump(&stats::WORDS_PRUNED, pruned.len() as u64);
        let trial: Vec<Vec<LayoutFamily>> = cands
            .iter()
            .map(|f| {
                let mut v = fams.clone();
                v[k] = f.clone();
                v
            })
            .collect();
        // Simulate only the vectors no earlier scan scored; the candidates
        // differ in array `k`'s family, so the batch has no repeats.
        let fresh: Vec<&Vec<LayoutFamily>> =
            trial.iter().filter(|v| !memo.contains_key(*v)).collect();
        let scores: Vec<Score> = if threads > 1 {
            crate::exec::execute(fresh.clone(), threads, |v| score(program, pads, v, h)).0
        } else {
            fresh.iter().map(|v| score(program, pads, v, h)).collect()
        };
        choices[k].scored += fresh.len() as u64;
        bump(&stats::WORDS_SCORED, fresh.len() as u64);
        memo.extend(fresh.into_iter().cloned().zip(scores));
        // Judge in candidate order, whichever scan scored each vector.
        for (f, v) in cands.into_iter().zip(&trial) {
            if let Some((cost, report)) = &memo[v] {
                // Strict improvement: Linear (and earlier words) win ties.
                if *cost < *best_cost {
                    *best_cost = *cost;
                    *best_report = report.clone();
                    fams[k] = f.clone();
                    choices[k].family = f;
                }
            }
        }
    };

    bump(
        &stats::ARRAYS_SEARCHED,
        used.iter().filter(|&&u| u).count() as u64,
    );
    for k in 0..n {
        place(k, &mut fams, &mut choices, &mut best_cost, &mut best_report);
    }
    for _ in 0..2 {
        let before = fams.clone();
        for k in 0..n {
            place(k, &mut fams, &mut choices, &mut best_cost, &mut best_report);
        }
        if fams == before {
            break;
        }
    }

    bump(
        &stats::MORTON_WINS,
        fams.iter().filter(|f| !f.is_linear()).count() as u64,
    );
    let layout = DataLayout::with_pads_and_families(&program.arrays, pads, &fams)
        .expect("winning family vector validated during scoring");
    Ok(MortonSearchResult {
        families: fams,
        layout,
        report: best_report,
        cost: best_cost,
        linear_cost,
        choices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache_sim::{CacheConfig, ReplacementPolicy};
    use mlc_model::expr::AffineExpr as E;
    use mlc_model::nest::{Loop, LoopNest};
    use mlc_model::reference::ArrayRef;

    fn transpose_program(n: usize) -> Program {
        // B(i,j) = A(j,i): one walk is unit-stride, the other jumps a full
        // column per iteration — padding cannot fix the strided walk, a
        // Morton word can shorten it.
        let mut p = Program::new("transpose");
        let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
        let b = p.add_array(ArrayDecl::f64("B", vec![n, n]));
        let nn = n as i64 - 1;
        p.add_nest(LoopNest::new(
            "t",
            vec![Loop::counted("j", 0, nn), Loop::counted("i", 0, nn)],
            vec![
                ArrayRef::read(a, vec![E::var("j"), E::var("i")]),
                ArrayRef::write(b, vec![E::var("i"), E::var("j")]),
            ],
        ));
        p
    }

    fn small_hierarchy() -> HierarchyConfig {
        HierarchyConfig::new(
            vec![
                CacheConfig::new(2048, 32, 1, ReplacementPolicy::Lru),
                CacheConfig::new(16384, 64, 2, ReplacementPolicy::Lru),
            ],
            vec![6.0, 50.0],
        )
    }

    #[test]
    fn candidates_are_canonical_and_valid() {
        let decl = ArrayDecl::f64("A", vec![64, 64]);
        let cands = morton_candidates(&decl);
        assert!(!cands.is_empty());
        for f in &cands {
            f.validate(&decl).unwrap();
            assert!(!f.is_linear());
        }
        // Deterministic: same declaration, same list.
        assert_eq!(cands, morton_candidates(&decl));
        // Round-robin is the head candidate.
        assert_eq!(cands[0], LayoutFamily::morton_round_robin(&decl));
        // Rank above the search bound yields nothing.
        let deep = ArrayDecl::new("D", 8, vec![2, 2, 2, 2]);
        assert!(morton_candidates(&deep).is_empty());
    }

    #[test]
    fn search_never_worsens_the_linear_baseline() {
        let p = transpose_program(32);
        let h = small_hierarchy();
        let r = search_morton(&p, &[0, 0], &h).unwrap();
        assert!(r.cost <= r.linear_cost, "{} > {}", r.cost, r.linear_cost);
        // The reported layout reproduces the reported cost.
        let replay = try_simulate_steady_with(&p, &r.layout, &h, 1, 1, true).unwrap();
        assert_eq!(replay, r.report);
    }

    #[test]
    fn transpose_prefers_a_morton_word() {
        // The canonical Morton showcase: on a direct-mapped L1 the strided
        // B(i,j) walk misses every access under any padding, and a blocked
        // interleave word converts it to tile-local traffic.
        let p = transpose_program(64);
        let h = small_hierarchy();
        let r = search_morton(&p, &[0, 0], &h).unwrap();
        assert!(
            r.any_morton(),
            "search kept all-linear: cost {} vs linear {}",
            r.cost,
            r.linear_cost
        );
        assert!(r.cost < r.linear_cost);
        // Per-call accounting: both arrays are searched, every word fits
        // the envelope bound, and each array simulates 25 distinct vectors
        // over its three scans.
        let counts: Vec<(u64, u64)> = r.choices.iter().map(|c| (c.scored, c.pruned)).collect();
        assert_eq!(counts, [(25, 0), (25, 0)]);
        assert_eq!(
            r.families,
            [
                LayoutFamily::Morton(vec![0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]),
                LayoutFamily::Morton(vec![0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]),
            ]
        );
        for (c, f) in r.choices.iter().zip(&r.families) {
            assert_eq!(&c.family, f);
        }
    }

    fn rowcol_program(n: usize) -> Program {
        // C(i,j) = A(i,j) + B(j,i): a same-orientation pair and a
        // transposed operand in one body.
        let mut p = Program::new("rowcol");
        let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
        let b = p.add_array(ArrayDecl::f64("B", vec![n, n]));
        let c = p.add_array(ArrayDecl::f64("C", vec![n, n]));
        let nn = n as i64 - 1;
        p.add_nest(LoopNest::new(
            "rc",
            vec![Loop::counted("i", 0, nn), Loop::counted("j", 0, nn)],
            vec![
                ArrayRef::read(a, vec![E::var("i"), E::var("j")]),
                ArrayRef::read(b, vec![E::var("j"), E::var("i")]),
                ArrayRef::write(c, vec![E::var("i"), E::var("j")]),
            ],
        ));
        p
    }

    #[test]
    fn thread_count_never_changes_the_result() {
        // Candidate batches fan out whenever more than one thread is
        // available; the winner is still judged in candidate order.
        let h = small_hierarchy();
        for (p, pads) in [
            (transpose_program(32), vec![0, 0]),
            (rowcol_program(24), vec![0, 0, 0]),
        ] {
            let one = search(&p, &pads, &h, 1).unwrap();
            assert!(one.any_morton(), "{}: nothing to compare", p.name);
            for threads in [2, 3] {
                assert_eq!(search(&p, &pads, &h, threads).unwrap(), one, "{threads}");
            }
        }
    }

    #[test]
    fn each_family_vector_is_simulated_once() {
        // transpose32 on the showcase hierarchy: A wins a word, B keeps
        // Linear, and the one refinement sweep re-offers both arrays' first
        // scans unchanged, so 26 of the 52 vectors offered are repeats.
        let r = search(&transpose_program(32), &[0, 0], &small_hierarchy(), 1).unwrap();
        assert_eq!(r.choices.iter().map(|c| c.scored).sum::<u64>(), 26);
    }

    #[test]
    fn unused_arrays_are_pruned_unscored() {
        let mut p = transpose_program(16);
        p.add_array(ArrayDecl::f64("UNUSED", vec![32, 32]));
        let r = search_morton(&p, &[0, 0, 0], &small_hierarchy()).unwrap();
        assert!(r.choices[2].scored == 0 && r.choices[2].pruned > 0);
        assert!(r.families[2].is_linear());
    }

    #[test]
    fn search_is_deterministic() {
        let p = transpose_program(32);
        let h = small_hierarchy();
        let a = search_morton(&p, &[0, 0], &h).unwrap();
        let b = search_morton(&p, &[0, 0], &h).unwrap();
        assert_eq!(a, b);
    }
}
