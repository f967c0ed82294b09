//! Group-temporal-reuse accounting: the arc test.
//!
//! Section 3.1.1 explains the layout diagrams: "Group reuse between two
//! columns of an array can be exploited only if the cache lines for the
//! first column are not flushed before they are reused. Group reuse is
//! represented by having no dots appear between an arc connecting two array
//! columns. [...] if a reference is connected by an arc from the right, it
//! reuses the data accessed by its right neighbor only if there are no
//! intervening references 'underneath' this arc."
//!
//! Formally: let leading reference `l` and trailing reference `t` be
//! memory-adjacent members of a uniformly generated set, `d` bytes apart.
//! An element `l` touches is touched again by `t` after the loop advances
//! `d` bytes. In between, every other reference `r` sweeps the cache
//! interval `[loc(r), loc(r)+d)`; it flushes the cached element iff that
//! sweep covers the element's cache location `loc(l)` — i.e. iff `r`'s dot
//! lies in the circular interval `(loc(t), loc(l))`, which is exactly the
//! "no dots under the arc" rule. We widen the interval by one line on each
//! side for line-granularity effects, and require the span itself to fit
//! in the cache.
//!
//! The same machinery yields the Section 4 per-reference classification
//! used by the fusion cost model: each reference in a nest either hits
//! registers (a duplicate created by fusion), exploits group reuse on L1,
//! exploits it on L2, or must go to memory (leading references, and arcs
//! exploited nowhere).
//!
//! Because `GROUPPAD` evaluates this accounting over many candidate base
//! addresses (and the Figure 11/12 sweeps rerun it for hundreds of problem
//! sizes), the analysis is split into a precompiled, allocation-free
//! [`ProgramSkeleton`]: everything that does not depend on base addresses
//! (uniformly generated sets, per-reference offsets, identical-reference
//! classes) is computed once; a candidate layout is then just a `bases`
//! slice. The per-pair and per-intervener tests are exposed separately so
//! the search in [`crate::search`] can turn each into a window of pads.

use mlc_cache_sim::CacheConfig;
use mlc_model::diagram::reference_addresses;
use mlc_model::reuse::uniformly_generated_sets;
use mlc_model::{DataLayout, LoopNest, Program};

/// Where a reference's data comes from, in the Section 4 accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RefClass {
    /// A duplicate of an earlier identical reference in the same body:
    /// "only the first may cause a cache fault; the second will access the
    /// L1 cache or a register."
    Register,
    /// Trailing reference whose arc is exploited on the L1 cache.
    L1,
    /// Arc not exploited on L1 but exploited on the L2 cache: "an L2
    /// reference".
    L2,
    /// Leading references and arcs exploited nowhere: "must access main
    /// memory" (inter-nest reuse is assumed absent, per the paper's
    /// capacity argument).
    Memory,
}

/// One arc of a nest's uniformly generated sets, with its exploitation
/// status on a particular cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArcInfo {
    /// Body index of the trailing (reusing) reference.
    pub trailing: usize,
    /// Body index of the leading reference it reuses.
    pub leading: usize,
    /// Memory distance in bytes.
    pub span_bytes: u64,
    /// Whether the trailing reference actually gets the reuse.
    pub exploited: bool,
}

/// A uniformly generated set, precompiled.
#[derive(Debug, Clone)]
pub(crate) struct SkelGroup {
    /// Element size of the array (bytes).
    pub(crate) elem: u64,
    /// Members sorted ascending by element offset: (body index, offset).
    pub(crate) members: Vec<(usize, i64)>,
}

/// One nest, precompiled for base-address-parametric analysis.
#[derive(Debug, Clone)]
pub struct NestSkeleton {
    /// Per body reference: owning array.
    pub(crate) array: Vec<usize>,
    /// Per body reference: byte offset of its first-iteration address from
    /// the array base (layout-independent).
    pub(crate) offset: Vec<u64>,
    /// Per body reference: id shared by *identical* references (same array,
    /// same coefficients, same constants).
    pub(crate) data_id: Vec<usize>,
    pub(crate) groups: Vec<SkelGroup>,
}

impl NestSkeleton {
    fn new(program: &Program, nest: &LoopNest) -> Self {
        // Offsets from a contiguous layout: address minus array base.
        let contig = DataLayout::contiguous(&program.arrays);
        let addrs = reference_addresses(program, nest, &contig);
        let array: Vec<usize> = nest.body.iter().map(|r| r.array).collect();
        let offset: Vec<u64> = nest
            .body
            .iter()
            .zip(&addrs)
            .map(|(r, &a)| a - contig.base(r.array))
            .collect();
        // Identity classes.
        let vars = nest.loop_vars();
        let mut keys: Vec<(usize, Vec<Vec<i64>>, Vec<i64>)> = Vec::new();
        let data_id: Vec<usize> = nest
            .body
            .iter()
            .map(|r| {
                let key = (r.array, r.coeff_matrix(&vars), r.constant_vector());
                if let Some(i) = keys.iter().position(|k| *k == key) {
                    i
                } else {
                    keys.push(key);
                    keys.len() - 1
                }
            })
            .collect();
        let groups = uniformly_generated_sets(nest, &program.arrays)
            .into_iter()
            .map(|g| SkelGroup {
                elem: program.arrays[g.array].elem_size as u64,
                members: g
                    .members
                    .iter()
                    .map(|m| (m.body_index, m.offset_elems))
                    .collect(),
            })
            .collect();
        Self {
            array,
            offset,
            data_id,
            groups,
        }
    }

    /// Number of body references.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// True iff the nest body is empty.
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// The arc test (see module docs), parametric in base addresses.
    /// `visible[a] == false` hides array `a`'s references entirely.
    pub(crate) fn arc_exploited(
        &self,
        bases: &[u64],
        cache: CacheConfig,
        trailing: usize,
        leading: usize,
        span_bytes: u64,
        visible: Option<&[bool]>,
    ) -> bool {
        if span_bytes == 0 {
            return true; // same element: register-level reuse
        }
        if span_bytes + cache.line as u64 > cache.size as u64 {
            return false; // the span cannot be held
        }
        !(0..self.len()).any(|r| {
            self.intervenes(r, trailing, leading, visible)
                && self.flushes(bases, cache, r, leading, span_bytes)
        })
    }

    /// Can reference `r` disturb the arc from `trailing` to `leading` at
    /// all? Only if it is visible and touches neither end's data: identical
    /// references (same data) never flush the shared line.
    pub(crate) fn intervenes(
        &self,
        r: usize,
        trailing: usize,
        leading: usize,
        visible: Option<&[bool]>,
    ) -> bool {
        r != trailing
            && r != leading
            && visible.is_none_or(|vis| vis[self.array[r]])
            && self.data_id[r] != self.data_id[leading]
            && self.data_id[r] != self.data_id[trailing]
    }

    /// Does intervening reference `r` flush the line `leading` brought in
    /// before the trailing reference `span_bytes` behind it reuses it?
    ///
    /// It does iff its offset under the lead, `(loc(lead) − loc(r)) mod s`,
    /// lies in `[0, span + line)` (its sweep covers the slot) or in
    /// `(s − line, s)` (it sits within a line above the lead) — unless it
    /// brings the cached line's own tag. Same-tag accesses refresh rather
    /// than evict, but only same-array adjacency is stable under
    /// inter-variable padding (two different arrays can share a line only by
    /// the accident of being laid out back-to-back); the model counts on the
    /// former and conservatively ignores the latter.
    pub(crate) fn flushes(
        &self,
        bases: &[u64],
        cache: CacheConfig,
        r: usize,
        leading: usize,
        span_bytes: u64,
    ) -> bool {
        let s = cache.size as u64;
        let line = cache.line as u64;
        let lead_addr = bases[self.array[leading]] + self.offset[leading];
        let r_addr = bases[self.array[r]] + self.offset[r];
        let same_array = self.array[r] == self.array[leading];
        let off = (cache.location(lead_addr) + s - cache.location(r_addr)) % s;
        if off < span_bytes + line {
            // r's sweep covers the slot; it evicts unless it is a group
            // sibling arriving with the cached line's own tag. Its data
            // address upon reaching the slot is r_addr + off (unit-stride
            // lockstep motion).
            !(same_array && (r_addr + off).abs_diff(lead_addr) < line)
        } else if off > s - line {
            // r sits within a line above the lead: same slot at the start;
            // a foreign tag evicts immediately.
            !(same_array && r_addr.abs_diff(lead_addr) < line)
        } else {
            false
        }
    }

    /// The arcs among the visible references, as `(trailing, leading,
    /// span_bytes)`: every reference of a uniformly generated set that has a
    /// memory-adjacent leader. Register-level duplicates and leading
    /// references have none, so every span is positive.
    pub(crate) fn arcs<'s>(
        &'s self,
        visible: Option<&'s [bool]>,
    ) -> impl Iterator<Item = (usize, usize, u64)> + 's {
        self.groups.iter().flat_map(move |g| {
            g.members
                .iter()
                .enumerate()
                .filter_map(move |(k, &(body, off))| {
                    if !visible.is_none_or(|vis| vis[self.array[body]])
                        || g.members[..k].iter().any(|&(_, o)| o == off)
                    {
                        return None; // hidden, or a register-level duplicate
                    }
                    let &(lead, lead_off) = g.members[k + 1..].iter().find(|&&(_, o)| o != off)?;
                    Some((body, lead, (lead_off - off) as u64 * g.elem))
                })
        })
    }

    /// Classify every body reference (Section 4 accounting).
    pub fn classify(
        &self,
        bases: &[u64],
        l1: CacheConfig,
        l2: Option<CacheConfig>,
        visible: Option<&[bool]>,
    ) -> Vec<RefClass> {
        let mut classes = vec![RefClass::Memory; self.len()];
        for g in &self.groups {
            for (k, &(body, off)) in g.members.iter().enumerate() {
                if let Some(vis) = visible {
                    if !vis[self.array[body]] {
                        continue;
                    }
                }
                if g.members[..k].iter().any(|&(_, o)| o == off) {
                    classes[body] = RefClass::Register;
                    continue;
                }
                let next = g.members[k + 1..].iter().find(|&&(_, o)| o != off);
                let Some(&(lead, lead_off)) = next else {
                    classes[body] = RefClass::Memory; // leader
                    continue;
                };
                let span = (lead_off - off) as u64 * g.elem;
                if self.arc_exploited(bases, l1, body, lead, span, visible) {
                    classes[body] = RefClass::L1;
                } else if let Some(c2) = l2 {
                    if self.arc_exploited(bases, c2, body, lead, span, visible) {
                        classes[body] = RefClass::L2;
                    } else {
                        classes[body] = RefClass::Memory;
                    }
                } else {
                    classes[body] = RefClass::Memory;
                }
            }
        }
        classes
    }

    /// Number of references exploiting group reuse on one cache.
    ///
    /// Equivalent to counting [`RefClass::L1`] in
    /// [`NestSkeleton::classify`] with `l2 = None`, but allocation-free —
    /// GROUPPAD's exhaustive reference scan calls it at every candidate
    /// position.
    pub fn exploited(&self, bases: &[u64], cache: CacheConfig, visible: Option<&[bool]>) -> usize {
        self.arcs(visible)
            .filter(|&(t, l, span)| self.arc_exploited(bases, cache, t, l, span, visible))
            .count()
    }
}

/// A whole program, precompiled.
#[derive(Debug, Clone)]
pub struct ProgramSkeleton {
    pub(crate) nests: Vec<NestSkeleton>,
    /// Per nest: cross-array lockstep pairs (body indices) for severe-
    /// conflict counting.
    pub(crate) lockstep: Vec<Vec<(usize, usize)>>,
    /// Per nest: the (min, max) array index its body references, or `None`
    /// for an empty body. The padding search's per-variable index: moving
    /// variable `k` shifts the bases of arrays `k..` by one common delta, so
    /// a nest's severe/exploited counts can only change when its references
    /// straddle the split — `min < k <= max`. Everything else is invariant
    /// under the move and need not be rescored.
    spans: Vec<Option<(usize, usize)>>,
    /// Per array: size in bytes (for cumulative base-address arithmetic).
    sizes: Vec<u64>,
    n_arrays: usize,
}

impl ProgramSkeleton {
    /// Precompile a program.
    pub fn new(program: &Program) -> Self {
        let nests: Vec<NestSkeleton> = program
            .nests
            .iter()
            .map(|n| NestSkeleton::new(program, n))
            .collect();
        let lockstep = program
            .nests
            .iter()
            .map(|nest| {
                let vars = nest.loop_vars();
                let mats: Vec<_> = nest.body.iter().map(|r| r.coeff_matrix(&vars)).collect();
                let mut pairs = Vec::new();
                for i in 0..nest.body.len() {
                    for j in i + 1..nest.body.len() {
                        if nest.body[i].array != nest.body[j].array && mats[i] == mats[j] {
                            pairs.push((i, j));
                        }
                    }
                }
                pairs
            })
            .collect();
        let spans = nests
            .iter()
            .map(|n| {
                let min = n.array.iter().copied().min()?;
                let max = n.array.iter().copied().max()?;
                Some((min, max))
            })
            .collect();
        let sizes = program
            .arrays
            .iter()
            .map(|a| a.size_bytes() as u64)
            .collect();
        Self {
            nests,
            lockstep,
            spans,
            sizes,
            n_arrays: program.arrays.len(),
        }
    }

    /// Number of arrays in the underlying program.
    pub fn n_arrays(&self) -> usize {
        self.n_arrays
    }

    /// Per-array sizes in bytes, in declaration order.
    pub fn array_sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Per-nest skeletons.
    pub fn nests(&self) -> &[NestSkeleton] {
        &self.nests
    }

    /// The (min, max) array ids referenced by nest `n` (`None` if its body
    /// is empty). See the field docs: this is the index that lets the
    /// search engine skip nests a coordinate move cannot affect.
    pub fn nest_array_span(&self, n: usize) -> Option<(usize, usize)> {
        self.spans[n]
    }

    /// Can moving the base addresses of arrays `k..` (all by one common
    /// delta) change nest `n`'s severe-conflict or exploited-arc counts?
    ///
    /// Only if the nest references arrays on both sides of the split: a nest
    /// whose references all move (or all stay) keeps every pairwise distance
    /// modulo the cache size, so both counts are invariant.
    pub fn nest_affected_by_move(&self, n: usize, k: usize) -> bool {
        match self.spans[n] {
            Some((min, max)) => min < k && k <= max,
            None => false,
        }
    }

    /// Classify the whole program under base addresses.
    pub fn classify(
        &self,
        bases: &[u64],
        l1: CacheConfig,
        l2: Option<CacheConfig>,
    ) -> Vec<Vec<RefClass>> {
        self.nests
            .iter()
            .map(|n| n.classify(bases, l1, l2, None))
            .collect()
    }

    /// Total references exploiting group reuse on `cache`, optionally
    /// restricted to the `visible` arrays (hidden arrays neither count nor
    /// interfere) — GROUPPAD's objective.
    pub fn exploited(&self, bases: &[u64], cache: CacheConfig, visible: Option<&[bool]>) -> usize {
        self.nests
            .iter()
            .map(|n| n.exploited(bases, cache, visible))
            .sum()
    }

    /// Severe cross-variable conflicts among visible arrays under `bases`.
    pub fn severe(&self, bases: &[u64], cache: CacheConfig, visible: Option<&[bool]>) -> usize {
        (0..self.nests.len())
            .map(|n| self.severe_in_nest(n, bases, cache, visible))
            .sum()
    }

    /// Severe cross-variable conflicts of one nest under `bases`.
    pub fn severe_in_nest(
        &self,
        n: usize,
        bases: &[u64],
        cache: CacheConfig,
        visible: Option<&[bool]>,
    ) -> usize {
        let nest = &self.nests[n];
        let addr = |r: usize| bases[nest.array[r]] + nest.offset[r];
        self.lockstep[n]
            .iter()
            .filter(|&&(i, j)| {
                visible.is_none_or(|vis| vis[nest.array[i]] && vis[nest.array[j]])
                    && severe_pair(addr(i), addr(j), cache)
            })
            .count()
    }

    /// References of nest `n` exploiting group reuse on `cache`.
    pub fn exploited_in_nest(
        &self,
        n: usize,
        bases: &[u64],
        cache: CacheConfig,
        visible: Option<&[bool]>,
    ) -> usize {
        self.nests[n].exploited(bases, cache, visible)
    }
}

/// The severe-conflict test for one lockstep pair at byte addresses `ai`
/// and `aj`: within a line of each other modulo the cache size
/// (ping-ponging), but not on one memory line (sharing).
pub(crate) fn severe_pair(ai: u64, aj: u64, cache: CacheConfig) -> bool {
    let line = cache.line as u64;
    let s = cache.size as u64;
    let d = (ai % s).abs_diff(aj % s);
    ai.abs_diff(aj) >= line && d.min(s - d) < line
}

/// All arcs of a nest with exploitation status on `cache`.
pub fn nest_arcs(
    program: &Program,
    nest: &LoopNest,
    layout: &DataLayout,
    cache: CacheConfig,
) -> Vec<ArcInfo> {
    let skel = NestSkeleton::new(program, nest);
    let groups = uniformly_generated_sets(nest, &program.arrays);
    let mut arcs = Vec::new();
    for g in &groups {
        let elem = program.arrays[g.array].elem_size as u64;
        for (t, l) in g.arcs() {
            let span = (l.offset_elems - t.offset_elems) as u64 * elem;
            let exploited =
                skel.arc_exploited(&layout.bases, cache, t.body_index, l.body_index, span, None);
            arcs.push(ArcInfo {
                trailing: t.body_index,
                leading: l.body_index,
                span_bytes: span,
                exploited,
            });
        }
    }
    arcs
}

/// Classify every body reference of a nest under a layout, following the
/// Section 4 accounting. `l2` may be `None` to classify against a single
/// cache level (references then split Register / L1 / Memory).
pub fn classify_nest(
    program: &Program,
    nest: &LoopNest,
    layout: &DataLayout,
    l1: CacheConfig,
    l2: Option<CacheConfig>,
) -> Vec<RefClass> {
    NestSkeleton::new(program, nest).classify(&layout.bases, l1, l2, None)
}

/// Per-program reference accounting: the static counts of Section 4 / 6.4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramAccounting {
    /// Classification of each nest's body.
    pub per_nest: Vec<Vec<RefClass>>,
    /// "References in all loops which miss the L1 cache but hit the L2
    /// cache" — class == L2.
    pub l2_refs: usize,
    /// "References in all loops missing both the L1 and L2 cache" — class
    /// == Memory.
    pub memory_refs: usize,
    /// References exploiting group reuse on L1.
    pub l1_refs: usize,
    /// Register-level duplicates.
    pub register_refs: usize,
}

impl ProgramAccounting {
    /// Build the aggregate counts from per-nest classes.
    pub fn from_classes(per_nest: Vec<Vec<RefClass>>) -> Self {
        let count = |c: RefClass| per_nest.iter().flatten().filter(|&&x| x == c).count();
        Self {
            l2_refs: count(RefClass::L2),
            memory_refs: count(RefClass::Memory),
            l1_refs: count(RefClass::L1),
            register_refs: count(RefClass::Register),
            per_nest,
        }
    }
}

/// Account a whole program under one layout.
pub fn account(
    program: &Program,
    layout: &DataLayout,
    l1: CacheConfig,
    l2: Option<CacheConfig>,
) -> ProgramAccounting {
    let skel = ProgramSkeleton::new(program);
    ProgramAccounting::from_classes(skel.classify(&layout.bases, l1, l2))
}

/// A copy of the program with only the given arrays' references kept in
/// nest bodies (declarations stay, so ids and layouts are unchanged).
pub fn restrict_to_arrays(program: &Program, arrays: &[usize]) -> Program {
    let mut p = program.clone();
    for nest in &mut p.nests {
        nest.body.retain(|r| arrays.contains(&r.array));
    }
    p
}

/// Number of references exploiting group reuse on a single cache — the
/// objective GROUPPAD maximizes (Section 3.2.1). When `restrict_to` is
/// non-empty, references of other arrays are removed from consideration
/// entirely (they neither count nor interfere).
pub fn exploited_count(
    program: &Program,
    layout: &DataLayout,
    cache: CacheConfig,
    restrict_to: &[usize],
) -> usize {
    let skel = ProgramSkeleton::new(program);
    let visible = if restrict_to.is_empty() {
        None
    } else {
        let mut v = vec![false; program.arrays.len()];
        for &a in restrict_to {
            v[a] = true;
        }
        Some(v)
    };
    skel.exploited(&layout.bases, cache, visible.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache_sim::CacheConfig;
    use mlc_model::program::figure2_example;
    use mlc_model::transform::fuse_in_program;
    use mlc_model::DataLayout;

    /// The paper's diagram proportions: cache "slightly more than double the
    /// common column size". N=60 doubles -> 480 B columns; 1024 B cache.
    const N: usize = 60;

    fn l1() -> CacheConfig {
        CacheConfig::direct_mapped(1024, 32)
    }

    fn l2() -> CacheConfig {
        CacheConfig::direct_mapped(8 * 1024, 64)
    }

    /// A hand-built GROUPPAD+L2MAXPAD-style layout reproducing Figure 4 on
    /// L1 and Figure 5 on L2 for the *unfused* program.
    ///
    /// Working the arc inequalities on the 1024-byte L1 (column = 480 B,
    /// line = 32 B): exploiting all three B arcs requires
    /// `loc(B) - loc(A) = loc(B) - loc(C) = 512` exactly, i.e. A and C
    /// coincide (at this cache-to-column ratio two of the three arrays'
    /// arcs must overlap, as the paper notes). We place, modulo 8192 (L2):
    /// A at 32, B at 2592 (≡ 544 mod 1024), C at 5152 (≡ 32 mod 1024):
    /// B's arcs clear on L1; everyone ~2 KiB apart on L2 so A's and C's
    /// arcs are exploited there (Figure 5). Each array is 60·60·8 = 28800
    /// bytes, which fixes the pads below.
    fn figure4_layout(p: &Program) -> DataLayout {
        DataLayout::with_pads(&p.arrays, &[32, 6528, 6528])
    }

    /// Layout for the *fused* program (Figure 7): GROUPPAD recomputed after
    /// fusion. On L1 the only placement exploiting the B(i,j-1)→B(i,j) arc
    /// puts A and C 32 bytes above B (mod 1024); on L2 we take
    /// A at 2080, B at 4096, C at 6176 (mod 8192), consistent with those
    /// L1 residues (32, 0, 32).
    fn figure7_layout(p: &Program) -> DataLayout {
        DataLayout::with_pads(&p.arrays, &[2080, 5984, 6048])
    }

    #[test]
    fn figure4_unfused_accounting_matches_paper() {
        let p = figure2_example(N);
        let layout = figure4_layout(&p);
        let acc = account(&p, &layout, l1(), Some(l2()));
        // Section 4: "references A(i,j+1), B(i,j+1), and C(i,j+1) in the
        // first loop must access main memory, as do B(i,j+1) and C(i,j) in
        // the second, totaling 5 memory references. Since A(i,j) and C(i,j)
        // in the first loop do not exploit group reuse on the L1 cache, they
        // must access the L2 cache. The remaining references (all to B)
        // successfully exploit group reuse on the L1 cache. In total, 2
        // references access the L2 cache."
        assert_eq!(acc.memory_refs, 5, "accounting: {:?}", acc.per_nest);
        assert_eq!(acc.l2_refs, 2, "accounting: {:?}", acc.per_nest);
        assert_eq!(acc.l1_refs, 3, "accounting: {:?}", acc.per_nest);
        // Specifically: nest1 B(i,j) is L1; nest2 B(i,j-1), B(i,j) are L1.
        assert_eq!(acc.per_nest[0][2], RefClass::L1);
        assert_eq!(acc.per_nest[1][0], RefClass::L1);
        assert_eq!(acc.per_nest[1][1], RefClass::L1);
        assert_eq!(acc.per_nest[0][0], RefClass::L2); // A(i,j)
        assert_eq!(acc.per_nest[0][4], RefClass::L2); // C(i,j)
    }

    #[test]
    fn figure7_fused_accounting_matches_paper() {
        let p = figure2_example(N);
        let fused = fuse_in_program(&p, 0).unwrap();
        // Figure 7: after fusion "group reuse is exploited only for one
        // reference, B(i,j-1)" on L1 (a cache over four times the column
        // size would be needed for all arcs).
        let layout = figure7_layout(&fused);
        let acc = account(&fused, &layout, l1(), Some(l2()));
        // "3 references, A(i,j+1), B(i,j+1), and C(i,j+1) must access main
        // memory [...] 3 references, A(i,j), B(i,j), and C(i,j) will access
        // the L2 cache. Note that wherever there are two identical
        // references, only the first may cause a cache fault; the second
        // will access the L1 cache or a register" — B(i,j), B(i,j+1) and
        // C(i,j) each appear twice after fusion: 3 register references.
        assert_eq!(acc.memory_refs, 3, "accounting: {:?}", acc.per_nest);
        assert_eq!(acc.l2_refs, 3, "accounting: {:?}", acc.per_nest);
        assert_eq!(acc.register_refs, 3, "accounting: {:?}", acc.per_nest);
        assert_eq!(acc.l1_refs, 1, "accounting: {:?}", acc.per_nest);
        // The one exploited reference is B(i,j-1) (body index 6 after
        // fusion: nest 1's six refs then nest 2's four).
        assert_eq!(acc.per_nest[0][6], RefClass::L1);
    }

    #[test]
    fn fusion_saves_two_memory_refs_and_costs_one_l2_ref() {
        // The net effect the paper derives: memory refs 5 -> 3, L2 refs
        // 2 -> 3 ("Fusion has therefore saved two memory misses for arrays
        // B and C" at the price of one more L2 reference).
        let p = figure2_example(N);
        let before = account(&p, &figure4_layout(&p), l1(), Some(l2()));
        let fused = fuse_in_program(&p, 0).unwrap();
        let after = account(&fused, &figure7_layout(&fused), l1(), Some(l2()));
        assert_eq!(before.memory_refs - after.memory_refs, 2);
        assert_eq!(after.l2_refs as i64 - before.l2_refs as i64, 1);
    }

    #[test]
    fn zero_span_arcs_always_exploited() {
        let p = figure2_example(N);
        let fused = fuse_in_program(&p, 0).unwrap();
        let arcs = nest_arcs(&fused, &fused.nests[0], &figure7_layout(&fused), l1());
        let zero: Vec<_> = arcs.iter().filter(|a| a.span_bytes == 0).collect();
        assert_eq!(zero.len(), 3); // the three duplicated references
        for a in zero {
            assert!(a.exploited);
        }
    }

    #[test]
    fn oversized_span_never_exploited() {
        // Column larger than the cache: no group reuse possible.
        let p = figure2_example(256); // 2 KiB columns vs 1 KiB cache
        let layout = DataLayout::with_pads(&p.arrays, &[0, 32, 64]);
        let acc = account(&p, &layout, l1(), None);
        assert_eq!(acc.l1_refs, 0);
    }

    #[test]
    fn l2_classification_requires_l2_exploitation() {
        // On the big L2 all spans fit and the figure4 layout separates
        // variables enough that unexploited-L1 arcs land on L2.
        let p = figure2_example(N);
        let acc_no_l2 = account(&p, &figure4_layout(&p), l1(), None);
        assert_eq!(acc_no_l2.l2_refs, 0);
        assert_eq!(acc_no_l2.memory_refs, 7); // the 2 L2 refs become memory
    }

    #[test]
    fn exploited_count_restriction() {
        let p = figure2_example(N);
        let layout = figure4_layout(&p);
        let all = exploited_count(&p, &layout, l1(), &[]);
        let only_b = exploited_count(&p, &layout, l1(), &[1]);
        assert_eq!(all, 3);
        assert_eq!(only_b, 3); // every exploited ref is a B ref here
                               // Restricted to A alone, the other arrays' dots vanish, so A's own
                               // arc is exploited in isolation (this is what incremental placement
                               // sees before B and C are placed).
        assert_eq!(exploited_count(&p, &layout, l1(), &[0]), 1);
    }

    #[test]
    fn skeleton_matches_slow_path() {
        // The precompiled skeleton must agree with the direct functions on
        // a batch of layouts.
        let p = figure2_example(N);
        let skel = ProgramSkeleton::new(&p);
        for pads in [
            [0u64, 0, 0],
            [32, 6528, 6528],
            [64, 128, 4096],
            [2080, 5984, 6048],
        ] {
            let layout = DataLayout::with_pads(&p.arrays, &pads);
            let direct = account(&p, &layout, l1(), Some(l2()));
            let fast =
                ProgramAccounting::from_classes(skel.classify(&layout.bases, l1(), Some(l2())));
            assert_eq!(direct, fast, "pads {pads:?}");
            // Severe counting agrees with the conflict module.
            let slow = crate::conflict::severe_conflicts(&p, &layout, l1()).len();
            assert_eq!(
                skel.severe(&layout.bases, l1(), None),
                slow,
                "pads {pads:?}"
            );
        }
    }

    #[test]
    fn skeleton_visibility_mask() {
        let p = figure2_example(N);
        let skel = ProgramSkeleton::new(&p);
        let layout = figure4_layout(&p);
        let only_ab = vec![true, true, false];
        let masked = skel.exploited(&layout.bases, l1(), Some(&only_ab));
        let direct = exploited_count(&p, &layout, l1(), &[0, 1]);
        assert_eq!(masked, direct);
    }
}
