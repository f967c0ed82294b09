//! Exact address-trace generation.
//!
//! Walks a program's iteration spaces in execution order and emits one
//! [`Access`] per array reference into any [`AccessSink`] — usually a
//! [`mlc_cache_sim::Hierarchy`]. This reproduces the paper's trace-driven
//! cache simulations.
//!
//! Nests are compiled first: every reference's byte address is affine in the
//! loop variables (see [`crate::layout::DataLayout::address_expr`]), so the
//! walker keeps per-reference partial sums per loop level and the innermost
//! loop advances each reference by a constant stride. The figure-11 sweep
//! pushes several billion accesses through this path, so it allocates
//! nothing per iteration.
//!
//! A sink sees the walk through the two calls of [`AccessSink`]. The fast
//! walk (`fast = true`) hands it one run group per innermost invocation
//! ([`AccessSink::run_group`]); the scalar walk emits one access at a time
//! ([`AccessSink::access`]). Expanded, the two streams are equal access
//! for access. The analytic engine (`mlc_core::analytic`) drives compiled
//! nests itself, and memoizes those with a
//! [`CompiledNest::constant_accesses`] count.
//!
//! A reference into a Morton-layout array is affine in each dimension, not
//! in its address. The fast walk keeps each such offset dilated (every
//! dimension's index spread over the bits the word gives it) and steps it
//! in constant time per trip; the scalar walk re-interleaves every access
//! with [`morton_index`]. Both emit a Morton nest access by access.
//!
//! The `engine-parity` fuzz oracle checks both walks' streams through a
//! [`RecordingSink`](mlc_cache_sim::trace::RecordingSink), access by access,
//! on generated cases and on their Morton and cache-oblivious variants, and
//! compares the cache simulations the walks drive.

use crate::layout::{morton_index, DataLayout, LayoutFamily};
use crate::nest::LoopNest;
use crate::program::Program;
use mlc_cache_sim::stats::MissRateReport;
use mlc_cache_sim::trace::{Access, AccessKind, AccessSink, Run};
use mlc_cache_sim::{Hierarchy, HierarchyConfig, MissClassifier};

/// Why a nest could not be compiled or streamed.
///
/// The historical API `panic!`ed on these; the panicking entry points
/// ([`CompiledNest::new`], [`generate`], [`simulate`], ...) still do, with
/// the same messages, but every condition is now a typed, matchable error
/// surfaced by the `try_*` variants. Differential-testing harnesses run
/// *generated* (untrusted) programs through the model, and a malformed
/// case must come back as a reportable value, not an abort — the same
/// motivation as `mlc-core`'s `PadError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A bound or subscript mentions a variable no enclosing loop binds.
    UnboundVariable {
        /// Nest name.
        nest: String,
        /// The unbound variable.
        var: String,
    },
    /// A loop has step 0 and would never terminate.
    ZeroStep {
        /// Nest name.
        nest: String,
        /// The offending loop variable.
        var: String,
    },
    /// A loop has no lower or no upper bound expression.
    EmptyBounds {
        /// Nest name.
        nest: String,
        /// The offending loop variable.
        var: String,
    },
    /// A reference provably generates a negative byte address (a layout
    /// bug): detected statically for constant-bound nests, or at the first
    /// offending innermost-loop invocation otherwise.
    NegativeAddress {
        /// Nest name.
        nest: String,
        /// Referenced array's name.
        array: String,
        /// The provable minimum address (negative).
        min: i64,
    },
    /// A loop's values, or a reference's byte addresses over them, leave
    /// the `i64` range: the walk's arithmetic would overflow. Loop values
    /// count one step past either end, where the walk's counter stops.
    /// Detected statically for constant-bound nests.
    Overflow {
        /// Nest name.
        nest: String,
        /// The offending loop (`loop i`) or reference (`reference to
        /// array A`).
        what: String,
    },
    /// A subscript of a Morton-layout reference leaves the interleave
    /// word's per-dimension bit envelope `[0, 2^bits)` — bit interleaving
    /// has no meaning outside it. Detected statically for constant-bound
    /// nests, at the offending innermost invocation otherwise.
    MortonOutOfRange {
        /// Nest name.
        nest: String,
        /// Referenced array's name.
        array: String,
        /// Offending dimension.
        dim: usize,
        /// The out-of-envelope subscript value.
        value: i64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::UnboundVariable { nest, var } => {
                write!(f, "variable {var} not bound by nest {nest}")
            }
            TraceError::ZeroStep { nest, var } => {
                write!(f, "nest {nest}: loop {var} has zero step")
            }
            TraceError::EmptyBounds { nest, var } => {
                write!(f, "nest {nest}: loop {var} has no bound expressions")
            }
            TraceError::NegativeAddress { nest, array, min } => write!(
                f,
                "nest {nest}: reference to array {array} generates a negative \
                 byte address (minimum {min}); check the data layout's base \
                 offsets and subscript bounds"
            ),
            TraceError::Overflow { nest, what } => write!(
                f,
                "nest {nest}: {what} leaves the i64 range; check loop bounds, \
                 subscript constants and coefficients"
            ),
            TraceError::MortonOutOfRange {
                nest,
                array,
                dim,
                value,
            } => write!(
                f,
                "nest {nest}: reference to morton-layout array {array} \
                 generates subscript {value} on dimension {dim}, outside the \
                 interleave word's bit envelope; check subscript offsets \
                 against the array extents"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// A bound expression resolved to loop-level indices.
#[derive(Debug, Clone, PartialEq)]
struct CompiledExpr {
    constant: i64,
    /// (outer-loop index, coefficient) pairs.
    terms: Vec<(usize, i64)>,
}

impl CompiledExpr {
    #[inline]
    fn eval(&self, vals: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(l, c) in &self.terms {
            acc += c * vals[l];
        }
        acc
    }
}

#[derive(Debug, Clone, PartialEq)]
struct CompiledLoop {
    lowers: Vec<CompiledExpr>,
    uppers: Vec<CompiledExpr>,
    step: i64,
}

impl CompiledLoop {
    #[inline]
    fn bounds(&self, vals: &[i64]) -> (i64, i64) {
        let lo = self.lowers.iter().map(|e| e.eval(vals)).max().unwrap();
        let hi = self.uppers.iter().map(|e| e.eval(vals)).min().unwrap();
        (lo, hi)
    }

    /// [`CompiledLoop::bounds`], when every bound is a constant.
    fn constant_bounds(&self) -> Option<(i64, i64)> {
        self.lowers
            .iter()
            .chain(&self.uppers)
            .all(|e| e.terms.is_empty())
            .then(|| self.bounds(&[]))
    }
}

/// Compiled form of a reference into a Morton-layout array: the address is
/// `base + morton_index(word, idx) * elem`, where each dimension's index is
/// affine in the loop variables. Affine in every *dimension*, not in the
/// address — which is why these refs bypass the single-stride machinery.
#[derive(Debug, Clone, PartialEq)]
struct CompiledMorton {
    /// The interleave word (LSB-first dimension ids).
    word: Vec<u8>,
    /// Per-dimension bit budget; indices must stay in `[0, 1 << bits[d])`.
    bits: Vec<u32>,
    /// `masks[d]`: the offset bits the word gives dimension `d`, so the
    /// interleaved offset is the OR over `d` of `idx[d]` scattered into
    /// `masks[d]`.
    masks: Vec<i64>,
    /// Constant part of each dimension's index function.
    dim_base: Vec<i64>,
    /// `dim_strides[d][l]`: dimension `d`'s index coefficient of loop `l`.
    dim_strides: Vec<Vec<i64>>,
    /// Array base byte address.
    base: i64,
    /// Element size in bytes.
    elem: i64,
}

impl CompiledMorton {
    /// Byte address for the given per-dimension index values.
    #[inline]
    fn addr(&self, idx: &[i64]) -> i64 {
        self.base + morton_index(&self.word, idx) * self.elem
    }

    /// Seed the steppers of one innermost invocation whose indices start
    /// at `idx` and change by `dd` per trip: push one [`DimStep`] per
    /// dimension the loop moves and return the offset bits of the
    /// dimensions it holds still. `morton_index` runs once, here.
    fn seed_steps(&self, idx: &[i64], dd: &[i64], steps: &mut Vec<DimStep>) -> i64 {
        let mut fixed = morton_index(&self.word, idx);
        for (&mask, &delta) in self.masks.iter().zip(dd) {
            if delta != 0 && mask != 0 {
                steps.push(DimStep {
                    x: fixed & mask,
                    mask,
                    dhat: scatter(delta.unsigned_abs(), mask),
                    forward: delta > 0,
                });
                fixed &= !mask;
            }
        }
        fixed
    }
}

/// `masks[d]`: the offset bits a Morton `word` gives dimension `d` of a
/// rank-`rank` array.
fn dim_masks(word: &[u8], rank: usize) -> Vec<i64> {
    let mut masks = vec![0i64; rank];
    for (p, &d) in word.iter().enumerate() {
        if let Some(m) = masks.get_mut(d as usize) {
            *m |= 1 << p;
        }
    }
    masks
}

/// The current interleaved offset of a stepped Morton reference (`fixed`
/// bits plus each moving dimension's), then every moving dimension one
/// trip on.
#[inline]
fn stepped_offset(fixed: i64, steps: &mut [DimStep]) -> i64 {
    #[cfg(test)]
    tests::STEPPED.with(|n| n.set(n.get() + 1));
    let mut off = fixed;
    for s in steps {
        off |= s.x;
        s.advance();
    }
    off
}

/// Scatter the low bits of `v` into the set bits of `mask`, lowest first:
/// the dilated form of an index whose dimension owns `mask`.
fn scatter(mut v: u64, mask: i64) -> i64 {
    let (mut out, mut m) = (0i64, mask);
    while m != 0 && v != 0 {
        if v & 1 == 1 {
            out |= m & m.wrapping_neg();
        }
        v >>= 1;
        m &= m - 1;
    }
    out
}

/// One Morton dimension that an innermost loop moves: its dilated index
/// steps in constant time per trip by dilated-integer arithmetic instead
/// of re-interleaving every bit of the offset.
#[derive(Debug)]
struct DimStep {
    /// The dimension's current index, scattered into `mask`.
    x: i64,
    /// The offset bits the word gives the dimension.
    mask: i64,
    /// The index's per-trip change in magnitude, scattered into `mask`.
    dhat: i64,
    /// Whether the index grows each trip.
    forward: bool,
}

impl DimStep {
    /// Move the index one trip on. Forward, the gaps between `mask`'s bits
    /// are filled with ones so that carries ripple across them; backward,
    /// borrows ripple through the gaps' zeros. Indices stay in the bit
    /// envelope on every trip the walk emits, so neither wraps there.
    #[inline]
    fn advance(&mut self) {
        self.x = if self.forward {
            ((self.x | !self.mask) + self.dhat) & self.mask
        } else {
            (self.x - self.dhat) & self.mask
        };
    }
}

/// One reference's state over an innermost invocation of a Morton-bearing
/// nest.
#[derive(Debug)]
struct Cursor {
    /// Affine references: the next byte address.
    addr: i64,
    /// Affine references: the byte delta per trip.
    delta: i64,
    /// Morton references: the offset bits of the dimensions the loop does
    /// not move.
    fixed: i64,
    /// Morton references: their moving dimensions in [`MortonWalkState::steps`].
    steps: std::ops::Range<usize>,
    /// Morton references: their dimensions in [`MortonWalkState::idx`].
    dims: std::ops::Range<usize>,
}

/// Per-invocation state of a Morton-bearing nest's innermost loop, kept
/// across invocations so that the walk allocates nothing per invocation.
#[derive(Debug, Default)]
struct MortonWalkState {
    /// One cursor per reference, body order.
    cursors: Vec<Cursor>,
    /// Every Morton reference's moving dimensions (fast walk only).
    steps: Vec<DimStep>,
    /// Every Morton reference's per-dimension index and its per-trip
    /// change: the scalar walk interleaves them on every access, and the
    /// fast walk checks its stepped offsets against them in debug builds.
    idx: Vec<i64>,
    dd: Vec<i64>,
}

#[derive(Debug, Clone, PartialEq)]
struct CompiledRef {
    /// Base byte address (constant part of the affine address function).
    /// For Morton refs this is the array base; the full address comes from
    /// `morton`.
    base: i64,
    /// Byte stride per loop level, outermost first (all zero for Morton
    /// refs — their addresses are not affine in the loop variables).
    strides: Vec<i64>,
    kind: AccessKind,
    /// Array name, for diagnostics.
    label: String,
    /// Present iff the referenced array uses a Morton family.
    morton: Option<CompiledMorton>,
}

/// A nest compiled against a layout, ready to stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledNest {
    name: String,
    loops: Vec<CompiledLoop>,
    refs: Vec<CompiledRef>,
}

impl CompiledNest {
    /// Compile `nest` over `program`'s arrays under `layout`.
    ///
    /// # Panics
    /// Panics if a bound or subscript mentions a variable that is not an
    /// enclosing loop of the nest (run [`Program::validate`] first), or if
    /// the nest provably generates a negative byte address (a layout bug).
    /// Use [`CompiledNest::try_new`] to get the condition as a value.
    pub fn new(program: &Program, nest: &LoopNest, layout: &DataLayout) -> Self {
        Self::try_new(program, nest, layout).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`CompiledNest::new`]: every malformed-nest condition
    /// comes back as a [`TraceError`].
    pub fn try_new(
        program: &Program,
        nest: &LoopNest,
        layout: &DataLayout,
    ) -> Result<Self, TraceError> {
        let var_index = |v: &str| -> Result<usize, TraceError> {
            nest.loop_index(v)
                .ok_or_else(|| TraceError::UnboundVariable {
                    nest: nest.name.clone(),
                    var: v.to_string(),
                })
        };
        let compile_expr = |e: &crate::expr::AffineExpr| -> Result<CompiledExpr, TraceError> {
            Ok(CompiledExpr {
                constant: e.constant_term(),
                terms: e
                    .terms()
                    .map(|(v, c)| Ok((var_index(v)?, c)))
                    .collect::<Result<_, TraceError>>()?,
            })
        };
        let mut loops = Vec::with_capacity(nest.loops.len());
        for l in &nest.loops {
            if l.step == 0 {
                return Err(TraceError::ZeroStep {
                    nest: nest.name.clone(),
                    var: l.var.clone(),
                });
            }
            if l.lowers.is_empty() || l.uppers.is_empty() {
                return Err(TraceError::EmptyBounds {
                    nest: nest.name.clone(),
                    var: l.var.clone(),
                });
            }
            loops.push(CompiledLoop {
                lowers: l
                    .lowers
                    .iter()
                    .map(compile_expr)
                    .collect::<Result<_, _>>()?,
                uppers: l
                    .uppers
                    .iter()
                    .map(compile_expr)
                    .collect::<Result<_, _>>()?,
                step: l.step,
            });
        }
        let mut refs = Vec::with_capacity(nest.body.len());
        for r in &nest.body {
            let decl = &program.arrays[r.array];
            if let LayoutFamily::Morton(word) = layout.family(r.array) {
                // Compile each dimension's subscript independently: the
                // address is non-affine, but every dimension index is.
                let mut dim_base = Vec::with_capacity(decl.rank());
                let mut dim_strides = Vec::with_capacity(decl.rank());
                for s in &r.subscripts {
                    for (v, _) in s.terms() {
                        var_index(v)?;
                    }
                    dim_base.push(s.constant_term());
                    dim_strides.push(
                        nest.loops
                            .iter()
                            .map(|l| s.coeff(&l.var))
                            .collect::<Vec<i64>>(),
                    );
                }
                let fam = LayoutFamily::Morton(word.clone());
                refs.push(CompiledRef {
                    base: layout.base(r.array) as i64,
                    strides: vec![0; nest.loops.len()],
                    kind: r.kind,
                    label: decl.name.clone(),
                    morton: Some(CompiledMorton {
                        word: word.clone(),
                        bits: fam.dim_bits(decl.rank()),
                        masks: dim_masks(word, decl.rank()),
                        dim_base,
                        dim_strides,
                        base: layout.base(r.array) as i64,
                        elem: decl.elem_size as i64,
                    }),
                });
                continue;
            }
            let addr = layout.try_address_expr(&program.arrays, r).ok_or_else(|| {
                TraceError::Overflow {
                    nest: nest.name.clone(),
                    what: format!("reference to array {}", decl.name),
                }
            })?;
            let mut strides = Vec::with_capacity(nest.loops.len());
            for l in &nest.loops {
                strides.push(addr.coeff(&l.var));
            }
            for (v, _) in addr.terms() {
                var_index(v)?; // subscript vars must be loop variables
            }
            refs.push(CompiledRef {
                base: addr.constant_term(),
                strides,
                kind: r.kind,
                label: decl.name.clone(),
                morton: None,
            });
        }
        let compiled = Self {
            name: nest.name.clone(),
            loops,
            refs,
        };
        compiled.validate_address_ranges(nest)?;
        Ok(compiled)
    }

    /// Static address-range checks, in release builds too, when every loop
    /// bound is a constant (the rectangular nests all experiments use):
    ///
    /// * **Overflow.** Every trip count and loop value the walk forms (its
    ///   counter stops one step past the last value visited; an empty loop
    ///   and the loops inside it count at their first value only), every
    ///   partial sum over these values of a byte address or Morton
    ///   dimension index (base + Σ stride × value, in any order), and the
    ///   magnitude of each innermost stride × step must fit in `i64`;
    ///   otherwise the nest is rejected with [`TraceError::Overflow`]
    ///   instead of wrapping.
    /// * **Negative addresses.** The minimum byte address each reference
    ///   can generate is computable exactly from bounds × strides, so a
    ///   layout that would emit a negative address is rejected here instead
    ///   of silently wrapping to a huge `u64` and corrupting miss counts.
    ///
    /// Nests with outer-variable-dependent bounds (triangular, strip-mined)
    /// are skipped here because interval reasoning over-approximates them;
    /// their negative addresses are still caught exactly by the endpoint
    /// check in the innermost walk.
    fn validate_address_ranges(&self, nest: &LoopNest) -> Result<(), TraceError> {
        let overflow = |what: String| TraceError::Overflow {
            nest: self.name.clone(),
            what,
        };
        // Per loop: the values visited, and the values the walk's counter
        // forms. The walk stops at an empty loop; from there on the layout
        // analyses evaluate each loop at its first value only.
        let mut ranges: Vec<(i64, i64)> = Vec::with_capacity(self.loops.len());
        let mut counters: Vec<(i64, i64)> = Vec::with_capacity(self.loops.len());
        let mut empty = false;
        for (lp, l) in self.loops.iter().zip(&nest.loops) {
            let Some((lo, hi)) = lp.constant_bounds() else {
                return Ok(());
            };
            let bad_loop = || overflow(format!("loop {}", l.var));
            let step = lp.step.checked_abs().ok_or_else(bad_loop)?;
            let first = if lp.step > 0 { lo } else { hi };
            let mut formed = (first, first);
            if hi < lo {
                empty = true;
            } else {
                // The walk starts at `lo` for a positive step and at `hi`
                // for a negative one, makes `span / step + 1` trips, and its
                // counter stops one step past the last value visited.
                let span = hi.checked_sub(lo).ok_or_else(bad_loop)? / step * step;
                (span / step).checked_add(1).ok_or_else(bad_loop)?;
                let (a, b, past) = if lp.step > 0 {
                    (lo, lo + span, (lo + span).checked_add(step))
                } else {
                    (hi - span, hi, (hi - span).checked_sub(step))
                };
                let past = past.ok_or_else(bad_loop)?;
                ranges.push((a, b));
                if !empty {
                    formed = (a.min(past), b.max(past));
                }
            }
            counters.push(formed);
        }
        let innermost_step = self.loops.last().filter(|_| !empty).map(|l| l.step);
        for r in &self.refs {
            let bad_ref = || overflow(format!("reference to array {}", r.label));
            // The affine byte address, or each Morton dimension index: a
            // constant plus one stride per loop. `min` and `max` bound every
            // partial sum of the terms, in whatever order they are added.
            let parts: Vec<(i64, &[i64])> = match &r.morton {
                Some(m) => m
                    .dim_base
                    .iter()
                    .zip(&m.dim_strides)
                    .map(|(&b, s)| (b, s.as_slice()))
                    .collect(),
                None => vec![(r.base, r.strides.as_slice())],
            };
            for (base, strides) in parts {
                let (mut min, mut max) = (base as i128, base as i128);
                for (&s, &(lo, hi)) in strides.iter().zip(&counters) {
                    let (a, b) = (s as i128 * lo as i128, s as i128 * hi as i128);
                    min += a.min(b).min(0);
                    max += a.max(b).max(0);
                    if [a, b, min, max]
                        .into_iter()
                        .any(|x| i64::try_from(x).is_err())
                    {
                        return Err(bad_ref());
                    }
                }
                // The innermost walk advances by stride × step, a run
                // stride whose magnitude the sinks take.
                if let (Some(&s), Some(step)) = (strides.last(), innermost_step) {
                    s.checked_mul(step)
                        .and_then(i64::checked_abs)
                        .ok_or_else(bad_ref)?;
                }
            }
        }
        if empty {
            return Ok(()); // provably empty loop: the nest emits nothing
        }
        for r in &self.refs {
            if let Some(m) = &r.morton {
                // Exact per-dimension interval check: each dimension index
                // is affine in the loop values, so its extremes over a
                // rectangular space come from per-loop endpoint picks.
                for d in 0..m.dim_base.len() {
                    let mut min = m.dim_base[d] as i128;
                    let mut max = min;
                    for (l, &(lo, hi)) in ranges.iter().enumerate() {
                        let s = m.dim_strides[d][l] as i128;
                        min += (s * lo as i128).min(s * hi as i128);
                        max += (s * lo as i128).max(s * hi as i128);
                    }
                    let limit = 1i128 << m.bits[d];
                    if min < 0 || max >= limit {
                        return Err(TraceError::MortonOutOfRange {
                            nest: self.name.clone(),
                            array: r.label.clone(),
                            dim: d,
                            value: if min < 0 { min as i64 } else { max as i64 },
                        });
                    }
                }
                continue;
            }
            let mut min = r.base as i128;
            for (l, &(lo, hi)) in ranges.iter().enumerate() {
                let s = r.strides[l] as i128;
                min += (s * lo as i128).min(s * hi as i128);
            }
            if min < 0 {
                return Err(TraceError::NegativeAddress {
                    nest: self.name.clone(),
                    array: r.label.clone(),
                    min: min as i64,
                });
            }
        }
        Ok(())
    }

    /// True when any reference targets a Morton-layout array, whose
    /// addresses are not affine in the loop variables.
    #[inline]
    pub fn has_morton(&self) -> bool {
        self.refs.iter().any(|r| r.morton.is_some())
    }

    /// Stream the nest's accesses into `sink`; returns the number emitted.
    ///
    /// The innermost loop is emitted as run-length-encoded [`Run`] groups
    /// (one [`Run`] per reference, interleaved per trip), so sinks that
    /// batch line-resident accesses — notably [`Hierarchy`] — skip the
    /// per-access work. Sinks without a `run_group` override expand the
    /// groups through the default per-access loop, so the observable access
    /// stream is identical either way. [`CompiledNest::run_with`] with
    /// `fast = false` forces per-access emission.
    pub fn run(&self, sink: &mut impl AccessSink) -> u64 {
        self.run_with(sink, true)
    }

    /// The number of accesses the nest makes, when it has a loop and a
    /// reference, every loop bound is a constant and no loop is empty;
    /// `Some(None)` when that count overflows `u64`. `None` for any other
    /// nest: the analytic engine's memo records only nests with a count.
    pub fn constant_accesses(&self) -> Option<Option<u64>> {
        if self.loops.is_empty() || self.refs.is_empty() {
            return None;
        }
        let mut total = Some(self.refs.len() as u64);
        for lp in &self.loops {
            let (lo, hi) = lp.constant_bounds()?;
            if hi < lo {
                return None;
            }
            let trips = ((hi - lo) / lp.step.abs() + 1) as u64;
            total = total.and_then(|t| t.checked_mul(trips));
        }
        Some(total)
    }

    /// Stream the nest, choosing run-length (`fast`) or per-access emission.
    pub fn run_with(&self, sink: &mut impl AccessSink, fast: bool) -> u64 {
        self.try_run_with(sink, fast)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`CompiledNest::run`].
    pub fn try_run(&self, sink: &mut impl AccessSink) -> Result<u64, TraceError> {
        self.try_run_with(sink, true)
    }

    /// Non-panicking [`CompiledNest::run_with`]: a runtime negative-address
    /// detection comes back as [`TraceError::NegativeAddress`] instead of a
    /// panic. On error, accesses emitted before the offending innermost-loop
    /// invocation have already reached `sink` — callers treating the sink's
    /// state as meaningful must discard it.
    pub fn try_run_with(&self, sink: &mut impl AccessSink, fast: bool) -> Result<u64, TraceError> {
        if self.loops.is_empty() {
            for r in &self.refs {
                let addr = match &r.morton {
                    Some(m) => {
                        for (d, &v) in m.dim_base.iter().enumerate() {
                            if v < 0 || v >= 1i64 << m.bits[d] {
                                return Err(self.morton_oob(r, d, v));
                            }
                        }
                        m.addr(&m.dim_base)
                    }
                    None => r.base,
                };
                if addr < 0 {
                    return Err(self.negative_addr(r, addr));
                }
                sink.access(Access {
                    addr: addr as u64,
                    kind: r.kind,
                });
            }
            return Ok(self.refs.len() as u64);
        }
        if self.has_morton() {
            use std::sync::atomic::Ordering;
            crate::layout::stats::MORTON_NESTS.fetch_add(1, Ordering::Relaxed);
            let mut vals = vec![0i64; self.loops.len()];
            let mut count = 0u64;
            let mut state = MortonWalkState::default();
            self.walk_morton(0, &mut vals, &mut state, sink, fast, &mut count)?;
            return Ok(count);
        }
        let depth = self.loops.len();
        let nrefs = self.refs.len();
        // partials[l * nrefs + r] = base + Σ_{k<l} stride_k * v_k for ref r.
        let mut partials = vec![0i64; depth * nrefs];
        for (r, cr) in self.refs.iter().enumerate() {
            partials[r] = cr.base;
        }
        let mut vals = vec![0i64; depth];
        let mut runs = Vec::with_capacity(nrefs);
        let mut count = 0u64;
        self.walk(
            0,
            &mut vals,
            &mut partials,
            sink,
            fast,
            &mut runs,
            &mut count,
        )?;
        Ok(count)
    }

    /// Exact negative-address guard for one innermost-loop invocation.
    ///
    /// Each reference's address is linear in the trip index, so its minimum
    /// over the invocation is at the first or last trip; checking those two
    /// endpoints is exact and O(refs), cheap enough to keep in release
    /// builds (it replaces a per-access `debug_assert!` that release builds
    /// compiled away, letting negative addresses wrap to huge `u64`s).
    #[inline]
    fn check_run_addrs(&self, cur: &[i64], deltas: &[i64], trips: u64) -> Result<(), TraceError> {
        for (r, (&first, &delta)) in cur.iter().zip(deltas).enumerate() {
            let last = first + delta * (trips as i64 - 1);
            if first.min(last) < 0 {
                return Err(self.negative_addr(&self.refs[r], first.min(last)));
            }
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn negative_addr(&self, r: &CompiledRef, addr: i64) -> TraceError {
        TraceError::NegativeAddress {
            nest: self.name.clone(),
            array: r.label.clone(),
            min: addr,
        }
    }

    #[cold]
    #[inline(never)]
    fn morton_oob(&self, r: &CompiledRef, dim: usize, value: i64) -> TraceError {
        TraceError::MortonOutOfRange {
            nest: self.name.clone(),
            array: r.label.clone(),
            dim,
            value,
        }
    }

    /// Iteration-space walk for nests with at least one Morton reference.
    /// Loop bounds and order are handled exactly like [`CompiledNest::walk`];
    /// only innermost emission differs (no single-stride partials exist).
    fn walk_morton(
        &self,
        level: usize,
        vals: &mut [i64],
        state: &mut MortonWalkState,
        sink: &mut impl AccessSink,
        fast: bool,
        count: &mut u64,
    ) -> Result<(), TraceError> {
        let lp = &self.loops[level];
        let (lo, hi) = lp.bounds(&vals[..level]);
        if hi < lo {
            return Ok(());
        }
        let (start, step) = if lp.step > 0 {
            (lo, lp.step)
        } else {
            (hi, lp.step)
        };
        let trips = ((hi - lo) / step.abs() + 1) as u64;
        if level == self.loops.len() - 1 {
            return self.emit_morton_innermost(
                vals,
                (start, step, trips),
                state,
                sink,
                fast,
                count,
            );
        }
        let mut v = start;
        for _ in 0..trips {
            vals[level] = v;
            self.walk_morton(level + 1, vals, state, sink, fast, count)?;
            v += step;
        }
        Ok(())
    }

    /// One innermost invocation of a Morton-bearing nest.
    ///
    /// The fast walk steps each Morton reference's interleaved offset in
    /// constant time per trip ([`DimStep`]); `morton_index` only seeds it.
    /// The scalar walk interleaves every access's indices with
    /// `morton_index`, the reference the `engine-parity` oracle compares
    /// the fast walk's stream against (debug builds also check every
    /// stepped offset against it).
    ///
    /// Both walks emit access by access: a run group needs one
    /// constant-stride run per reference, which Morton addresses do not
    /// give. Each fast invocation counts in `layout.morton_scalar_bails`.
    fn emit_morton_innermost(
        &self,
        vals: &[i64],
        (start, step, trips): (i64, i64, u64),
        state: &mut MortonWalkState,
        sink: &mut impl AccessSink,
        fast: bool,
        count: &mut u64,
    ) -> Result<(), TraceError> {
        use std::sync::atomic::Ordering;
        let inner = self.loops.len() - 1;
        let nrefs = self.refs.len();
        if nrefs == 0 {
            return Ok(());
        }
        // Resolve each reference's per-invocation cursor: affine refs get
        // (address, byte delta); Morton refs get per-dimension (index,
        // index delta), endpoint-checked against the bit envelope, and on
        // the fast walk a stepper per dimension the loop moves.
        let MortonWalkState {
            cursors,
            steps,
            idx,
            dd,
        } = state;
        cursors.clear();
        steps.clear();
        idx.clear();
        dd.clear();
        for r in &self.refs {
            let cursor = match &r.morton {
                Some(m) => {
                    let dims = idx.len()..idx.len() + m.dim_base.len();
                    for d in 0..m.dim_base.len() {
                        let s = &m.dim_strides[d];
                        let mut v0 = m.dim_base[d] + s[inner] * start;
                        for (l, &val) in vals[..inner].iter().enumerate() {
                            v0 += s[l] * val;
                        }
                        let delta = s[inner] * step;
                        let last = v0 + delta * (trips as i64 - 1);
                        let (min, max) = (v0.min(last), v0.max(last));
                        if min < 0 {
                            return Err(self.morton_oob(r, d, min));
                        }
                        if max >= 1i64 << m.bits[d] {
                            return Err(self.morton_oob(r, d, max));
                        }
                        idx.push(v0);
                        dd.push(delta);
                    }
                    let first = steps.len();
                    let fixed = if fast {
                        m.seed_steps(&idx[dims.clone()], &dd[dims.clone()], steps)
                    } else {
                        0
                    };
                    Cursor {
                        addr: 0,
                        delta: 0,
                        fixed,
                        steps: first..steps.len(),
                        dims,
                    }
                }
                None => {
                    let mut cur = r.base + r.strides[inner] * start;
                    for (l, &val) in vals[..inner].iter().enumerate() {
                        cur += r.strides[l] * val;
                    }
                    let delta = r.strides[inner] * step;
                    let last = cur + delta * (trips as i64 - 1);
                    if cur.min(last) < 0 {
                        return Err(self.negative_addr(r, cur.min(last)));
                    }
                    Cursor {
                        addr: cur,
                        delta,
                        fixed: 0,
                        steps: 0..0,
                        dims: 0..0,
                    }
                }
            };
            cursors.push(cursor);
        }
        // A Morton reference's next byte address, then one trip on.
        let mut next_morton = |m: &CompiledMorton, c: &Cursor| {
            let scalar = |idx: &mut [i64]| {
                let a = m.addr(&idx[c.dims.clone()]);
                for (v, d) in idx[c.dims.clone()].iter_mut().zip(&dd[c.dims.clone()]) {
                    *v += d;
                }
                a
            };
            if !fast {
                return scalar(idx);
            }
            let a = m.base + stepped_offset(c.fixed, &mut steps[c.steps.clone()]) * m.elem;
            if cfg!(debug_assertions) {
                assert_eq!(
                    a,
                    scalar(idx),
                    "stepped Morton offset diverges from morton_index"
                );
            }
            a
        };
        if fast {
            crate::layout::stats::MORTON_SCALAR_BAILS.fetch_add(1, Ordering::Relaxed);
        }
        for _ in 0..trips {
            for (cr, c) in self.refs.iter().zip(cursors.iter_mut()) {
                let addr = match &cr.morton {
                    Some(m) => next_morton(m, c),
                    None => {
                        let a = c.addr;
                        c.addr += c.delta;
                        a
                    }
                };
                sink.access(Access {
                    addr: addr as u64,
                    kind: cr.kind,
                });
            }
        }
        *count += trips * nrefs as u64;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        level: usize,
        vals: &mut [i64],
        partials: &mut [i64],
        sink: &mut impl AccessSink,
        fast: bool,
        runs: &mut Vec<Run>,
        count: &mut u64,
    ) -> Result<(), TraceError> {
        let nrefs = self.refs.len();
        let depth = self.loops.len();
        let lp = &self.loops[level];
        let (lo, hi) = lp.bounds(&vals[..level]);
        if hi < lo {
            return Ok(());
        }
        let (start, step) = if lp.step > 0 {
            (lo, lp.step)
        } else {
            (hi, lp.step)
        };
        let trips = ((hi - lo) / step.abs() + 1) as u64;

        if level == depth - 1 {
            // Innermost loop: advance each reference by its stride.
            if nrefs == 0 {
                return Ok(());
            }
            let base = &partials[(depth - 1) * nrefs..depth * nrefs];
            let cur: Vec<i64> = self
                .refs
                .iter()
                .enumerate()
                .map(|(r, cr)| base[r] + cr.strides[level] * start)
                .collect();
            let deltas: Vec<i64> = self
                .refs
                .iter()
                .map(|cr| cr.strides[level] * step)
                .collect();
            self.check_run_addrs(&cur, &deltas, trips)?;
            if fast {
                runs.clear();
                runs.extend(self.refs.iter().enumerate().map(|(r, cr)| Run {
                    start: cur[r] as u64,
                    stride: deltas[r],
                    count: trips,
                    kind: cr.kind,
                }));
                sink.run_group(runs);
            } else {
                let mut cur = cur;
                for _ in 0..trips {
                    for (r, cr) in self.refs.iter().enumerate() {
                        sink.access(Access {
                            addr: cur[r] as u64,
                            kind: cr.kind,
                        });
                        cur[r] += deltas[r];
                    }
                }
            }
            *count += trips * nrefs as u64;
            return Ok(());
        }

        let mut v = start;
        for _ in 0..trips {
            vals[level] = v;
            for r in 0..nrefs {
                partials[(level + 1) * nrefs + r] =
                    partials[level * nrefs + r] + self.refs[r].strides[level] * v;
            }
            self.walk(level + 1, vals, partials, sink, fast, runs, count)?;
            v += step;
        }
        Ok(())
    }
}

/// Stream one nest's trace.
pub fn generate_nest(
    program: &Program,
    nest: &LoopNest,
    layout: &DataLayout,
    sink: &mut impl AccessSink,
) -> u64 {
    CompiledNest::new(program, nest, layout).run(sink)
}

/// Stream the whole program's trace in execution order; returns the number
/// of references emitted.
pub fn generate(program: &Program, layout: &DataLayout, sink: &mut impl AccessSink) -> u64 {
    generate_with(program, layout, sink, true)
}

/// [`generate`] with an explicit fast-path choice: `fast = false` forces
/// per-access emission through [`AccessSink::access`].
pub fn generate_with(
    program: &Program,
    layout: &DataLayout,
    sink: &mut impl AccessSink,
    fast: bool,
) -> u64 {
    try_generate_with(program, layout, sink, fast).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`generate_with`]: compilation and streaming failures come
/// back as [`TraceError`]s. On error, accesses from earlier nests (and the
/// failing nest's earlier iterations) have already reached `sink`.
pub fn try_generate_with(
    program: &Program,
    layout: &DataLayout,
    sink: &mut impl AccessSink,
    fast: bool,
) -> Result<u64, TraceError> {
    let mut total = 0u64;
    for n in &program.nests {
        total += CompiledNest::try_new(program, n, layout)?.try_run_with(sink, fast)?;
    }
    Ok(total)
}

/// Convenience: simulate a program on a cold hierarchy and return the
/// paper-style miss-rate report.
pub fn simulate(
    program: &Program,
    layout: &DataLayout,
    config: &HierarchyConfig,
) -> MissRateReport {
    simulate_with(program, layout, config, true)
}

/// [`simulate`] with an explicit fast-path choice.
pub fn simulate_with(
    program: &Program,
    layout: &DataLayout,
    config: &HierarchyConfig,
    fast: bool,
) -> MissRateReport {
    try_simulate_with(program, layout, config, fast).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`simulate_with`]: a malformed program or a layout that
/// generates negative addresses yields a [`TraceError`] instead of a panic.
pub fn try_simulate_with(
    program: &Program,
    layout: &DataLayout,
    config: &HierarchyConfig,
    fast: bool,
) -> Result<MissRateReport, TraceError> {
    let mut hier = Hierarchy::new(config.clone());
    try_generate_with(program, layout, &mut hier, fast)?;
    Ok(hier.report())
}

/// One cold sweep through a [`MissClassifier`], which splits every miss
/// of its hierarchy into compulsory/capacity/conflict with one
/// fully-associative LRU shadow cache per level. The classifier's
/// [`MissClassifier::hierarchy`] holds the sweep's counts; export the
/// classes with [`MissClassifier::install_metrics`].
pub fn simulate_classified(
    program: &Program,
    layout: &DataLayout,
    config: &HierarchyConfig,
) -> MissClassifier {
    let mut classifier = MissClassifier::new(config.clone());
    generate(program, layout, &mut classifier);
    classifier
}

/// Simulate with `warmup` full program sweeps before counting, then `timed`
/// counted sweeps — the outer "time-step" loop of the iterative kernels.
pub fn simulate_steady(
    program: &Program,
    layout: &DataLayout,
    config: &HierarchyConfig,
    warmup: usize,
    timed: usize,
) -> MissRateReport {
    simulate_steady_with(program, layout, config, warmup, timed, true)
}

/// [`simulate_steady`] with an explicit fast-path choice.
pub fn simulate_steady_with(
    program: &Program,
    layout: &DataLayout,
    config: &HierarchyConfig,
    warmup: usize,
    timed: usize,
    fast: bool,
) -> MissRateReport {
    try_simulate_steady_with(program, layout, config, warmup, timed, fast)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`simulate_steady_with`].
pub fn try_simulate_steady_with(
    program: &Program,
    layout: &DataLayout,
    config: &HierarchyConfig,
    warmup: usize,
    timed: usize,
    fast: bool,
) -> Result<MissRateReport, TraceError> {
    let mut hier = Hierarchy::new(config.clone());
    for _ in 0..warmup {
        try_generate_with(program, layout, &mut hier, fast)?;
    }
    hier.reset_stats();
    for _ in 0..timed {
        try_generate_with(program, layout, &mut hier, fast)?;
    }
    Ok(hier.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayDecl;
    use crate::expr::AffineExpr as E;
    use crate::nest::Loop;
    use crate::program::figure2_example;
    use crate::reference::ArrayRef;
    use mlc_cache_sim::trace::{CountingSink, RecordingSink};

    thread_local! {
        /// Offsets [`stepped_offset`] produced on this test's thread.
        pub(super) static STEPPED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn simple_program(n: usize) -> Program {
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![n]));
        p.add_nest(LoopNest::new(
            "n",
            vec![Loop::counted("i", 0, n as i64 - 1)],
            vec![ArrayRef::read(a, vec![E::var("i")])],
        ));
        p
    }

    #[test]
    fn sequential_walk_addresses() {
        let p = simple_program(4);
        let l = DataLayout::contiguous(&p.arrays);
        let mut rec = RecordingSink::default();
        let n = generate(&p, &l, &mut rec);
        assert_eq!(n, 4);
        let addrs: Vec<u64> = rec.accesses.iter().map(|a| a.addr).collect();
        assert_eq!(addrs, vec![0, 8, 16, 24]);
    }

    #[test]
    fn body_order_is_program_order() {
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![8]));
        let b = p.add_array(ArrayDecl::f64("B", vec![8]));
        p.add_nest(LoopNest::new(
            "n",
            vec![Loop::counted("i", 0, 1)],
            vec![
                ArrayRef::read(a, vec![E::var("i")]),
                ArrayRef::write(b, vec![E::var("i")]),
            ],
        ));
        let l = DataLayout::contiguous(&p.arrays);
        let mut rec = RecordingSink::default();
        generate(&p, &l, &mut rec);
        let addrs: Vec<u64> = rec.accesses.iter().map(|x| x.addr).collect();
        assert_eq!(addrs, vec![0, 64, 8, 72]);
        assert_eq!(rec.accesses[1].kind, AccessKind::Write);
    }

    #[test]
    fn reference_count_matches_const_estimate() {
        let p = figure2_example(64);
        let l = DataLayout::contiguous(&p.arrays);
        let mut c = CountingSink::default();
        let n = generate(&p, &l, &mut c);
        assert_eq!(n, p.const_references().unwrap());
        assert_eq!(c.total, n);
    }

    #[test]
    fn two_level_nest_column_major_order() {
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![2, 2]));
        p.add_nest(LoopNest::new(
            "n",
            vec![Loop::counted("j", 0, 1), Loop::counted("i", 0, 1)],
            vec![ArrayRef::read(a, vec![E::var("i"), E::var("j")])],
        ));
        let l = DataLayout::contiguous(&p.arrays);
        let mut rec = RecordingSink::default();
        generate(&p, &l, &mut rec);
        let addrs: Vec<u64> = rec.accesses.iter().map(|x| x.addr).collect();
        // j outer, i inner, column-major: 0, 8, 16, 24 — perfectly sequential.
        assert_eq!(addrs, vec![0, 8, 16, 24]);
    }

    #[test]
    fn reversed_loop_walks_backward() {
        let mut p = simple_program(4);
        p.nests[0].loops[0].step = -1;
        let l = DataLayout::contiguous(&p.arrays);
        let mut rec = RecordingSink::default();
        generate(&p, &l, &mut rec);
        let addrs: Vec<u64> = rec.accesses.iter().map(|x| x.addr).collect();
        assert_eq!(addrs, vec![24, 16, 8, 0]);
    }

    #[test]
    fn triangular_bounds() {
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![4, 4]));
        p.add_nest(LoopNest::new(
            "n",
            vec![
                Loop::counted("j", 0, 3),
                Loop::new("i", E::constant(0), E::var("j")),
            ],
            vec![ArrayRef::read(a, vec![E::var("i"), E::var("j")])],
        ));
        let l = DataLayout::contiguous(&p.arrays);
        let mut c = CountingSink::default();
        let n = generate(&p, &l, &mut c);
        assert_eq!(n, 1 + 2 + 3 + 4);
    }

    #[test]
    fn strip_mined_bounds_with_min() {
        // for ii in (0..10 step 4) { for i in ii..=min(ii+3, 9) }
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![10]));
        let mut outer = Loop::counted("ii", 0, 9);
        outer.step = 4;
        let mut inner = Loop::new("i", E::var("ii"), E::var_plus("ii", 3));
        inner.uppers.push(E::constant(9));
        p.add_nest(LoopNest::new(
            "n",
            vec![outer, inner],
            vec![ArrayRef::read(a, vec![E::var("i")])],
        ));
        let l = DataLayout::contiguous(&p.arrays);
        let mut rec = RecordingSink::default();
        let n = generate(&p, &l, &mut rec);
        assert_eq!(n, 10); // 4 + 4 + 2
        let addrs: Vec<u64> = rec.accesses.iter().map(|x| x.addr).collect();
        assert_eq!(addrs, (0..10).map(|i| i * 8).collect::<Vec<_>>());
    }

    #[test]
    fn empty_range_emits_nothing() {
        let mut p = simple_program(4);
        p.nests[0].loops[0] = Loop::counted("i", 3, 2);
        let l = DataLayout::contiguous(&p.arrays);
        let mut c = CountingSink::default();
        assert_eq!(generate(&p, &l, &mut c), 0);
    }

    #[test]
    fn simulate_figure2_contiguous_has_severe_conflicts() {
        // With N a multiple of the cache column capacity, the contiguous
        // layout makes all three arrays coincide on the cache: L1 miss rate
        // should be near 100% (every access conflicts).
        let n = 512; // 512*512*8 = 2 MiB arrays; bases 0, 2 MiB, 4 MiB
        let p = figure2_example(n);
        let l = DataLayout::contiguous(&p.arrays);
        let cfg = HierarchyConfig::ultrasparc_i();
        let r = simulate(&p, &l, &cfg);
        // Nest 1: all six refs ping-pong (rate ~1); nest 2 only B(i,j)/C(i,j)
        // conflict, so the blended rate sits near (6·1 + 2·1 + 2·¼)/10.
        assert!(
            r.miss_rate(0) > 0.8,
            "expected severe conflicts, got L1 rate {}",
            r.miss_rate(0)
        );
    }

    #[test]
    fn steady_state_resets_warmup_counts() {
        let p = simple_program(64);
        let l = DataLayout::contiguous(&p.arrays);
        let cfg = HierarchyConfig::ultrasparc_i();
        let r = simulate_steady(&p, &l, &cfg, 1, 1);
        // Array is 512 bytes: fits L1; second sweep all hits.
        assert_eq!(r.levels[0].misses(), 0);
        assert_eq!(r.total_references, 64);
    }

    #[test]
    fn steady_with_zero_warmup_matches_cold_simulate() {
        let p = figure2_example(64);
        let l = DataLayout::contiguous(&p.arrays);
        let cfg = HierarchyConfig::ultrasparc_i();
        let cold = simulate(&p, &l, &cfg);
        let steady = simulate_steady(&p, &l, &cfg, 0, 1);
        assert_eq!(cold, steady);
        let steady_scalar = simulate_steady_with(&p, &l, &cfg, 0, 1, false);
        assert_eq!(cold, steady_scalar);
    }

    #[test]
    fn run_and_scalar_paths_emit_identical_streams() {
        // RecordingSink has no run override, so the run path expands through
        // the trait default; both paths must produce the same access list.
        for p in [figure2_example(32), simple_program(100)] {
            let l = DataLayout::contiguous(&p.arrays);
            let mut fast = RecordingSink::default();
            let nf = generate_with(&p, &l, &mut fast, true);
            let mut slow = RecordingSink::default();
            let ns = generate_with(&p, &l, &mut slow, false);
            assert_eq!(nf, ns);
            assert_eq!(fast.accesses, slow.accesses);
        }
    }

    #[test]
    fn empty_body_emits_zero_through_both_paths() {
        let mut p = Program::new("t");
        p.add_array(ArrayDecl::f64("A", vec![8]));
        p.add_nest(LoopNest::new(
            "empty",
            vec![Loop::counted("i", 0, 63)],
            vec![],
        ));
        let l = DataLayout::contiguous(&p.arrays);
        for fast in [true, false] {
            let mut c = CountingSink::default();
            assert_eq!(generate_with(&p, &l, &mut c, fast), 0);
            assert_eq!(c.total, 0);
            let mut h = Hierarchy::new(HierarchyConfig::ultrasparc_i());
            generate_with(&p, &l, &mut h, fast);
            assert_eq!(h.stats()[0].accesses(), 0);
        }
    }

    #[test]
    fn try_new_reports_overflow_as_value() {
        // A loop whose counter would step past i64::MAX, and a reference
        // whose byte addresses over an in-range loop leave the i64 range:
        // typed errors, not overflow panics or wrapped addresses.
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![8]));
        let l = DataLayout::contiguous(&p.arrays);
        let stepped = |lo, hi, step| {
            let mut lp = Loop::counted("i", lo, hi);
            lp.step = step;
            lp
        };
        for (lp, sub, what) in [
            (
                Loop::counted("i", i64::MAX - 7, i64::MAX),
                E::constant(0),
                "loop i",
            ),
            (
                stepped(i64::MIN, i64::MIN + 7, -1),
                E::constant(0),
                "loop i",
            ),
            // 2^63 trips: the trip count itself overflows.
            (
                Loop::counted("i", -1, i64::MAX - 1),
                E::constant(0),
                "loop i",
            ),
            (
                Loop::counted("i", 0, 1 << 61),
                E::var("i"),
                "reference to array A",
            ),
            // One trip whose addresses, one step on included, fit, but
            // whose stride × step (8 × -(2^61 - 1)) does not, and one whose
            // stride × step is i64::MIN, which has no magnitude in i64.
            (
                stepped((1 << 60) - 1, (1 << 60) - 1, -((1 << 61) - 1)),
                E::var("i"),
                "reference to array A",
            ),
            (
                stepped((1 << 60) - 1, (1 << 60) - 1, -(1 << 60)),
                E::var("i"),
                "reference to array A",
            ),
        ] {
            let nest = LoopNest::new("big", vec![lp], vec![ArrayRef::read(a, vec![sub])]);
            match CompiledNest::try_new(&p, &nest, &l) {
                Err(TraceError::Overflow { nest, what: w }) => {
                    assert_eq!((nest.as_str(), w.as_str()), ("big", what));
                }
                other => panic!("expected Overflow of {what}, got {other:?}"),
            }
        }
        // The counter stops one step past the end the walk moves toward,
        // so loops that end at the other i64 limit compile and run.
        for lp in [
            Loop::counted("i", i64::MIN, i64::MIN + 7),
            stepped(i64::MAX - 7, i64::MAX, -1),
            stepped(5, i64::MAX - 3, 10),
        ] {
            let nest = LoopNest::new(
                "edge",
                vec![lp],
                vec![ArrayRef::read(a, vec![E::constant(0)])],
            );
            let c = CompiledNest::try_new(&p, &nest, &l).unwrap();
            if nest.loops[0].step.abs() == 1 {
                assert_eq!(
                    c.try_run_with(&mut CountingSink::default(), false).unwrap(),
                    8
                );
            }
        }
    }

    #[test]
    fn negative_step_checks_the_values_the_walk_visits() {
        // i = 4, 1 (not 0, 3): A(i - 1) stays at or above byte 0.
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![8]));
        let mut lp = Loop::counted("i", 0, 4);
        lp.step = -3;
        let nest = LoopNest::new(
            "down",
            vec![lp],
            vec![ArrayRef::read(a, vec![E::var_plus("i", -1)])],
        );
        let l = DataLayout::contiguous(&p.arrays);
        let mut rec = RecordingSink::default();
        CompiledNest::try_new(&p, &nest, &l)
            .unwrap()
            .run_with(&mut rec, false);
        let addrs: Vec<u64> = rec.accesses.iter().map(|a| a.addr).collect();
        assert_eq!(addrs, [24, 0]);
    }

    fn negative_base_program() -> (Program, DataLayout) {
        // A(i - 4) over i in 0..=7: addresses -32..=24, negative at first.
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![8]));
        p.add_nest(LoopNest::new(
            "neg",
            vec![Loop::counted("i", 0, 7)],
            vec![ArrayRef::read(a, vec![E::var_plus("i", -4)])],
        ));
        let l = DataLayout::contiguous(&p.arrays);
        (p, l)
    }

    #[test]
    #[should_panic(expected = "negative byte address")]
    fn negative_address_rejected_at_compile_time() {
        let (p, l) = negative_base_program();
        CompiledNest::new(&p, &p.nests[0], &l);
    }

    #[test]
    #[should_panic(expected = "nest tri: reference to array A")]
    fn negative_address_caught_at_runtime_for_triangular_bounds() {
        // Bounds depend on an outer variable, so the static check cannot
        // prove anything and the endpoint check in the walk must fire —
        // in release builds too.
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![8, 8]));
        p.add_nest(LoopNest::new(
            "tri",
            vec![
                Loop::counted("j", 0, 3),
                Loop::new("i", E::var("j"), E::constant(3)),
            ],
            vec![ArrayRef::read(a, vec![E::var_plus("i", -2), E::var("j")])],
        ));
        let l = DataLayout::contiguous(&p.arrays);
        let nest = CompiledNest::new(&p, &p.nests[0], &l); // static check passes
        let mut c = CountingSink::default();
        nest.run(&mut c);
    }

    #[test]
    fn try_new_reports_negative_address_as_value() {
        let (p, l) = negative_base_program();
        match CompiledNest::try_new(&p, &p.nests[0], &l) {
            Err(TraceError::NegativeAddress { nest, array, min }) => {
                assert_eq!(nest, "neg");
                assert_eq!(array, "A");
                assert_eq!(min, -32);
            }
            other => panic!("expected NegativeAddress, got {other:?}"),
        }
    }

    #[test]
    fn try_new_reports_unbound_variable() {
        let mut p = simple_program(4);
        p.nests[0].body[0].subscripts[0] = E::var("k");
        let l = DataLayout::contiguous(&p.arrays);
        assert_eq!(
            CompiledNest::try_new(&p, &p.nests[0], &l),
            Err(TraceError::UnboundVariable {
                nest: "n".into(),
                var: "k".into()
            })
        );
    }

    #[test]
    fn try_new_reports_zero_step_and_empty_bounds() {
        let mut p = simple_program(4);
        p.nests[0].loops[0].step = 0;
        let l = DataLayout::contiguous(&p.arrays);
        assert_eq!(
            CompiledNest::try_new(&p, &p.nests[0], &l),
            Err(TraceError::ZeroStep {
                nest: "n".into(),
                var: "i".into()
            })
        );
        p.nests[0].loops[0] = Loop::counted("i", 0, 3);
        p.nests[0].loops[0].uppers.clear();
        assert_eq!(
            CompiledNest::try_new(&p, &p.nests[0], &l),
            Err(TraceError::EmptyBounds {
                nest: "n".into(),
                var: "i".into()
            })
        );
    }

    #[test]
    fn try_run_reports_runtime_negative_address() {
        // Same triangular case as the should_panic test above, through the
        // non-panicking API: the error is a value and the sink keeps the
        // accesses emitted before detection.
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![8, 8]));
        p.add_nest(LoopNest::new(
            "tri",
            vec![
                Loop::counted("j", 0, 3),
                Loop::new("i", E::var("j"), E::constant(3)),
            ],
            vec![ArrayRef::read(a, vec![E::var_plus("i", -2), E::var("j")])],
        ));
        let l = DataLayout::contiguous(&p.arrays);
        let nest = CompiledNest::try_new(&p, &p.nests[0], &l).unwrap();
        let mut c = CountingSink::default();
        match nest.try_run(&mut c) {
            Err(TraceError::NegativeAddress { nest, array, .. }) => {
                assert_eq!(nest, "tri");
                assert_eq!(array, "A");
            }
            other => panic!("expected NegativeAddress, got {other:?}"),
        }
    }

    #[test]
    fn try_simulate_matches_panicking_simulate_on_valid_input() {
        let p = figure2_example(64);
        let l = DataLayout::contiguous(&p.arrays);
        let cfg = HierarchyConfig::ultrasparc_i();
        let ok = try_simulate_with(&p, &l, &cfg, true).unwrap();
        assert_eq!(ok, simulate(&p, &l, &cfg));
        let steady = try_simulate_steady_with(&p, &l, &cfg, 1, 1, true).unwrap();
        assert_eq!(steady, simulate_steady(&p, &l, &cfg, 1, 1));
    }

    #[test]
    fn trace_error_display_is_stable() {
        // The panicking wrappers print these; tests elsewhere pin the
        // substrings "negative byte address" and "not bound by nest".
        let e = TraceError::NegativeAddress {
            nest: "n".into(),
            array: "A".into(),
            min: -8,
        };
        assert!(e.to_string().contains("negative byte address"));
        let e = TraceError::UnboundVariable {
            nest: "n".into(),
            var: "k".into(),
        };
        assert_eq!(e.to_string(), "variable k not bound by nest n");
    }

    fn morton_program(n: usize) -> (Program, DataLayout) {
        // B(i,j) = A(i,j) with A morton-laid-out, B linear.
        let mut p = Program::new("mz");
        let a = p.add_array(ArrayDecl::f64("A", vec![n, n]));
        let b = p.add_array(ArrayDecl::f64("B", vec![n, n]));
        let nn = n as i64 - 1;
        p.add_nest(LoopNest::new(
            "mz",
            vec![Loop::counted("j", 0, nn), Loop::counted("i", 0, nn)],
            vec![
                ArrayRef::read(a, vec![E::var("i"), E::var("j")]),
                ArrayRef::write(b, vec![E::var("i"), E::var("j")]),
            ],
        ));
        let fams = vec![
            crate::layout::LayoutFamily::morton_round_robin(&p.arrays[0]),
            crate::layout::LayoutFamily::Linear,
        ];
        let l = DataLayout::with_pads_and_families(&p.arrays, &[0, 0], &fams).unwrap();
        (p, l)
    }

    #[test]
    fn morton_fast_and_scalar_emit_identical_streams() {
        for n in [4usize, 7, 16] {
            let (p, l) = morton_program(n);
            let mut fast = RecordingSink::default();
            let nf = generate_with(&p, &l, &mut fast, true);
            let mut slow = RecordingSink::default();
            let ns = generate_with(&p, &l, &mut slow, false);
            assert_eq!(nf, ns, "n={n}");
            assert_eq!(nf, (n * n * 2) as u64);
            assert_eq!(fast.accesses, slow.accesses, "n={n}");
        }
    }

    /// Every vector `v` with `0 <= v[d] < lim[d]`.
    fn odometer(lim: &[i64]) -> Vec<Vec<i64>> {
        let mut out = vec![Vec::new()];
        for &l in lim {
            out = out
                .into_iter()
                .flat_map(|v| {
                    (0..l).map(move |x| {
                        let mut w = v.clone();
                        w.push(x);
                        w
                    })
                })
                .collect();
        }
        out
    }

    /// The words the Morton layout search offers an array whose dimensions
    /// need `bits`: round-robin, then every blocked word with group sizes
    /// 1, 2, 4 or 8 per dimension (`mlc_core`'s `morton_candidates`).
    fn search_words(bits: &[u32]) -> Vec<Vec<u8>> {
        let mut words = vec![crate::layout::round_robin_word(bits)];
        for g in odometer(&vec![4; bits.len()]) {
            let g: Vec<u32> = g.iter().map(|&i| 1 << i).collect();
            let w = crate::layout::blocked_word(bits, &g);
            if !words.contains(&w) {
                words.push(w);
            }
        }
        words
    }

    #[test]
    fn stepped_morton_offsets_equal_morton_index() {
        // Every searched word of rank-1 to rank-3 arrays with small
        // extents, from every start index in the envelope, with every
        // per-dimension delta in -3..=3 (several dimensions moving at once,
        // up and down): each stepped offset equals `morton_index` for as
        // long as the indices stay in the envelope.
        let mut checked = 0u64;
        for extents in [vec![7usize], vec![3, 6], vec![2, 3, 5]] {
            let rank = extents.len();
            let bits: Vec<u32> = extents
                .iter()
                .map(|&e| crate::layout::min_bits(e))
                .collect();
            let envelope: Vec<i64> = bits.iter().map(|&b| 1i64 << b).collect();
            let inside = |idx: &[i64]| idx.iter().zip(&envelope).all(|(&v, &e)| 0 <= v && v < e);
            for word in search_words(&bits) {
                let m = CompiledMorton {
                    masks: dim_masks(&word, rank),
                    word: word.clone(),
                    bits: bits.clone(),
                    dim_base: Vec::new(),
                    dim_strides: Vec::new(),
                    base: 0,
                    elem: 1,
                };
                for start in odometer(&envelope) {
                    for dd in odometer(&vec![7; rank]) {
                        let dd: Vec<i64> = dd.iter().map(|&d| d - 3).collect();
                        let mut steps = Vec::new();
                        let fixed = m.seed_steps(&start, &dd, &mut steps);
                        let mut idx = start.clone();
                        while inside(&idx) {
                            assert_eq!(
                                stepped_offset(fixed, &mut steps),
                                morton_index(&word, &idx),
                                "word {word:?} start {start:?} deltas {dd:?} at {idx:?}"
                            );
                            checked += 1;
                            if dd.iter().all(|&d| d == 0) {
                                break;
                            }
                            for (v, d) in idx.iter_mut().zip(&dd) {
                                *v += d;
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 100_000, "{checked}");
    }

    #[test]
    fn fast_walk_steps_every_morton_access() {
        // The fast walk computes every Morton address by stepping, in the
        // per-access branch (Morton A beside linear B) and in the run
        // re-encoding branch (A alone); the scalar walk never steps.
        let (p, l) = morton_program(8);
        let mut single = p.clone();
        single.nests[0].body.truncate(1);
        for (prog, morton_accesses) in [(&p, 64), (&single, 64)] {
            for fast in [true, false] {
                STEPPED.with(|n| n.set(0));
                generate_with(prog, &l, &mut CountingSink::default(), fast);
                let want = if fast { morton_accesses } else { 0 };
                assert_eq!(STEPPED.with(|n| n.get()), want, "fast {fast}");
            }
        }
    }

    #[test]
    fn morton_fast_walk_matches_scalar_in_both_loop_directions() {
        // A(c0*i + k0, c1*i + k1, c2*i + k2) on a rank-3 array, for every
        // searched word and every inner coefficient vector in -3..=3, with
        // the inner loop stepping up and down by 1 and 2: alone (run
        // re-encoding) and beside a linear B(i) (per-access emission), the
        // fast walk emits the scalar walk's stream.
        let extents = [4usize, 6, 5];
        let bits: Vec<u32> = extents
            .iter()
            .map(|&e| crate::layout::min_bits(e))
            .collect();
        let mut compared = 0;
        for word in search_words(&bits) {
            for c in odometer(&[7, 7, 7]) {
                let c: Vec<i64> = c.iter().map(|&x| x - 3).collect();
                let Some(trips) = c
                    .iter()
                    .zip(&extents)
                    .filter(|(&c, _)| c != 0)
                    .map(|(&c, &e)| (e as i64 - 1) / c.abs() + 1)
                    .min()
                else {
                    continue;
                };
                let subscripts: Vec<E> = c
                    .iter()
                    .zip(&extents)
                    .map(|(&c, &e)| {
                        let k = match c {
                            0 => e as i64 / 2,
                            c if c < 0 => -c * (trips - 1),
                            _ => 0,
                        };
                        E::scaled("i", c).plus(k)
                    })
                    .collect();
                for step in [1, -1, 2, -2] {
                    for with_linear in [false, true] {
                        let mut p = Program::new("dirs");
                        let a = p.add_array(ArrayDecl::f64("A", extents.to_vec()));
                        let b = p.add_array(ArrayDecl::f64("B", vec![8]));
                        let mut body = vec![ArrayRef::read(a, subscripts.clone())];
                        if with_linear {
                            body.push(ArrayRef::write(b, vec![E::var("i")]));
                        }
                        let mut inner = Loop::counted("i", 0, trips - 1);
                        inner.step = step;
                        p.add_nest(LoopNest::new(
                            "n",
                            vec![Loop::counted("j", 0, 1), inner],
                            body,
                        ));
                        let fams = vec![
                            crate::layout::LayoutFamily::Morton(word.clone()),
                            crate::layout::LayoutFamily::Linear,
                        ];
                        let l =
                            DataLayout::with_pads_and_families(&p.arrays, &[0, 0], &fams).unwrap();
                        let mut fast = RecordingSink::default();
                        let mut slow = RecordingSink::default();
                        let nf = generate_with(&p, &l, &mut fast, true);
                        assert_eq!(nf, generate_with(&p, &l, &mut slow, false));
                        assert_eq!(
                            fast.accesses, slow.accesses,
                            "word {word:?} coefficients {c:?} step {step}"
                        );
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 1000, "{compared}");
    }

    #[test]
    fn morton_addresses_interleave_bits() {
        // Single morton ref, i innermost: addresses follow the interleave.
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![4, 4]));
        p.add_nest(LoopNest::new(
            "n",
            vec![Loop::counted("j", 0, 3), Loop::counted("i", 0, 3)],
            vec![ArrayRef::read(a, vec![E::var("i"), E::var("j")])],
        ));
        let fams = vec![crate::layout::LayoutFamily::Morton(vec![0, 1, 0, 1])];
        let l = DataLayout::with_pads_and_families(&p.arrays, &[0], &fams).unwrap();
        let mut rec = RecordingSink::default();
        generate(&p, &l, &mut rec);
        let addrs: Vec<u64> = rec.accesses.iter().map(|x| x.addr).collect();
        // j=0: i interleaves into offsets 0,1,4,5 (x bits at even positions).
        assert_eq!(&addrs[..4], &[0, 8, 32, 40]);
        // j=1: y bit 0 set -> offset bit 1.
        assert_eq!(&addrs[4..8], &[16, 24, 48, 56]);
    }

    /// Counts the sink calls a walk makes, by kind. Unlike the process-wide
    /// `layout::stats` counters, no concurrently running test can disturb
    /// it.
    #[derive(Default)]
    struct CallCounter {
        accesses: u64,
        run_groups: u64,
    }

    impl AccessSink for CallCounter {
        fn access(&mut self, _: Access) {
            self.accesses += 1;
        }

        fn run_group(&mut self, _: &[Run]) {
            self.run_groups += 1;
        }
    }

    #[test]
    fn morton_nests_emit_access_by_access() {
        // Every innermost invocation (8 of them, 2 refs × 8 trips) is
        // emitted access by access, and so is a lone Morton reference.
        let (p, l) = morton_program(8);
        let mut c = CallCounter::default();
        assert_eq!(generate(&p, &l, &mut c), 128);
        assert_eq!((c.accesses, c.run_groups), (128, 0));
        let mut p = p;
        p.nests[0].body.pop();
        let mut c = CallCounter::default();
        assert_eq!(generate(&p, &l, &mut c), 64);
        assert_eq!((c.accesses, c.run_groups), (64, 0));
    }

    #[test]
    fn morton_subscript_outside_envelope_is_rejected_statically() {
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![4, 4]));
        p.add_nest(LoopNest::new(
            "n",
            vec![Loop::counted("j", 0, 3), Loop::counted("i", 0, 3)],
            vec![ArrayRef::read(a, vec![E::var_plus("i", 1), E::var("j")])],
        ));
        let fams = vec![crate::layout::LayoutFamily::Morton(vec![0, 1, 0, 1])];
        let l = DataLayout::with_pads_and_families(&p.arrays, &[0], &fams).unwrap();
        match CompiledNest::try_new(&p, &p.nests[0], &l) {
            Err(TraceError::MortonOutOfRange {
                array, dim, value, ..
            }) => {
                assert_eq!(array, "A");
                assert_eq!(dim, 0);
                assert_eq!(value, 4);
            }
            other => panic!("expected MortonOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn constant_accesses_counts_rectangular_nests_only() {
        let count = |p: &Program, l: &DataLayout| {
            CompiledNest::try_new(p, &p.nests[0], l)
                .unwrap()
                .constant_accesses()
        };
        // A Morton nest has a count: 4 × 4 trips of 2 references.
        let (p, l) = morton_program(4);
        assert_eq!(count(&p, &l), Some(Some(32)));
        // A triangular nest and a nest with an empty loop have none.
        let (mut p, _) = morton_program(4);
        p.nests[0].loops[1] = Loop::new("i", E::constant(0), E::var("j"));
        let l = DataLayout::contiguous(&p.arrays);
        assert_eq!(count(&p, &l), None);
        let mut p = simple_program(4);
        p.nests[0].loops[0] = Loop::counted("i", 3, 2);
        assert_eq!(count(&p, &l), None);
        // 2^66 accesses overflow: a count, but none that fits.
        let mut p = simple_program(4);
        p.nests[0].loops = (0..3)
            .map(|k| Loop::counted(format!("x{k}"), 0, (1 << 22) - 1))
            .collect();
        p.nests[0].body[0] = ArrayRef::read(0, vec![E::constant(0)]);
        let l = DataLayout::contiguous(&p.arrays);
        assert_eq!(count(&p, &l), Some(None));
    }

    #[test]
    fn morton_simulation_matches_scalar_replay_on_hierarchy() {
        let (p, l) = morton_program(16);
        let cfg = HierarchyConfig::ultrasparc_i();
        let fast = simulate_with(&p, &l, &cfg, true);
        let slow = simulate_with(&p, &l, &cfg, false);
        assert_eq!(fast, slow);
        let steady_f = simulate_steady_with(&p, &l, &cfg, 1, 2, true);
        let steady_s = simulate_steady_with(&p, &l, &cfg, 1, 2, false);
        assert_eq!(steady_f, steady_s);
    }

    #[test]
    fn provably_empty_loop_skips_static_validation() {
        // The nest would generate negative addresses, but its loop is
        // provably empty so it can never emit anything: compiling and
        // running it is fine.
        let (mut p, _) = negative_base_program();
        p.nests[0].loops[0] = Loop::counted("i", 3, 2);
        let l = DataLayout::contiguous(&p.arrays);
        let nest = CompiledNest::new(&p, &p.nests[0], &l);
        let mut c = CountingSink::default();
        assert_eq!(nest.run(&mut c), 0);
    }
}
