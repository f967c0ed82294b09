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

use crate::layout::{morton_index, DataLayout, LayoutFamily};
use crate::nest::LoopNest;
use crate::program::Program;
use mlc_cache_sim::stats::MissRateReport;
use mlc_cache_sim::trace::{Access, AccessKind, AccessSink, NestDescriptor, RefDescriptor, Run};
use mlc_cache_sim::{Hierarchy, HierarchyConfig};

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
                        dim_base,
                        dim_strides,
                        base: layout.base(r.array) as i64,
                        elem: decl.elem_size as i64,
                    }),
                });
                continue;
            }
            let addr = layout.address_expr(&program.arrays, r);
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
        compiled.validate_min_addresses()?;
        Ok(compiled)
    }

    /// Static negative-address check: when every loop bound is a constant
    /// (the rectangular nests all experiments use), the minimum byte address
    /// each reference can generate is computable exactly from bounds ×
    /// strides, so a layout that would emit a negative address is rejected
    /// here — at compile time, in release builds too — instead of silently
    /// wrapping to a huge `u64` and corrupting miss counts. Nests with
    /// outer-variable-dependent bounds (triangular, strip-mined) are skipped
    /// here because interval reasoning over-approximates them; they are
    /// still covered exactly by the endpoint check in the innermost walk.
    fn validate_min_addresses(&self) -> Result<(), TraceError> {
        let mut ranges: Vec<(i64, i64)> = Vec::with_capacity(self.loops.len());
        for lp in &self.loops {
            let constant_only = lp
                .lowers
                .iter()
                .chain(&lp.uppers)
                .all(|e| e.terms.is_empty());
            if !constant_only {
                return Ok(());
            }
            let lo = lp.lowers.iter().map(|e| e.constant).max().unwrap();
            let hi = lp.uppers.iter().map(|e| e.constant).min().unwrap();
            if hi < lo {
                return Ok(()); // provably empty loop: the nest emits nothing
            }
            // The values actually visited are lo, lo+|step|, ..;
            // the extreme reachable values are exact for constant bounds.
            let last = lo + (hi - lo) / lp.step.abs() * lp.step.abs();
            ranges.push((lo, last));
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

    /// True when any reference targets a Morton-layout array.
    #[inline]
    fn has_morton(&self) -> bool {
        self.refs.iter().any(|r| r.morton.is_some())
    }

    /// Stream the nest's accesses into `sink`; returns the number emitted.
    ///
    /// The innermost loop is emitted as run-length-encoded [`Run`] groups
    /// (one [`Run`] per reference, interleaved per trip), so sinks that
    /// batch line-resident accesses — notably [`Hierarchy`] — skip the
    /// per-access work. Sinks without a `run` override expand the runs
    /// through the default per-access loop, so the observable access stream
    /// is identical either way. Use [`CompiledNest::run_scalar`] to force
    /// per-access emission.
    pub fn run(&self, sink: &mut impl AccessSink) -> u64 {
        self.run_with(sink, true)
    }

    /// [`CompiledNest::run`] forced down the per-access scalar path: every
    /// reference of every trip goes through [`AccessSink::access`]
    /// individually. The differential-parity tests compare this against the
    /// run path.
    pub fn run_scalar(&self, sink: &mut impl AccessSink) -> u64 {
        self.run_with(sink, false)
    }

    /// The nest as a closed-form [`NestDescriptor`], when it has one: a
    /// non-empty rectangular iteration space (every bound constant) with at
    /// least one reference. Trip-space normalization folds each loop's
    /// start value and step into per-reference start addresses and per-trip
    /// deltas, so the descriptor is layout-resolved and self-contained.
    /// Start addresses are guaranteed non-negative — constant-bound nests
    /// passed [`CompiledNest::try_new`]'s exact minimum-address check.
    pub fn descriptor(&self) -> Option<NestDescriptor> {
        if self.loops.is_empty() || self.refs.is_empty() {
            return None;
        }
        let mut trips = Vec::with_capacity(self.loops.len());
        let mut starts = Vec::with_capacity(self.loops.len());
        for lp in &self.loops {
            let constant_only = lp
                .lowers
                .iter()
                .chain(&lp.uppers)
                .all(|e| e.terms.is_empty());
            if !constant_only {
                return None;
            }
            let lo = lp.lowers.iter().map(|e| e.constant).max().unwrap();
            let hi = lp.uppers.iter().map(|e| e.constant).min().unwrap();
            if hi < lo {
                return None; // empty loop: the nest emits nothing
            }
            trips.push(((hi - lo) / lp.step.abs() + 1) as u64);
            starts.push(if lp.step > 0 { lo } else { hi });
        }
        if self.has_morton() {
            // The trip space is rectangular, but at least one reference's
            // address function is not affine in it, so no `RefDescriptor`
            // can describe the stream. Offer the marked descriptor anyway:
            // closed-form sinks decline it (counting the decline), and
            // streaming proceeds through the Morton-aware walk.
            return Some(NestDescriptor {
                trips,
                refs: Vec::new(),
                non_affine: true,
            });
        }
        let refs = self
            .refs
            .iter()
            .map(|cr| {
                let start = cr.base
                    + cr.strides
                        .iter()
                        .zip(&starts)
                        .map(|(&s, &v)| s * v)
                        .sum::<i64>();
                debug_assert!(start >= 0, "validated min address went negative");
                RefDescriptor {
                    start: start as u64,
                    deltas: cr
                        .strides
                        .iter()
                        .zip(&self.loops)
                        .map(|(&s, lp)| s * lp.step)
                        .collect(),
                    kind: cr.kind,
                }
            })
            .collect();
        Some(NestDescriptor {
            trips,
            refs,
            non_affine: false,
        })
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
        // Offer the whole nest in closed form first (fast path only: the
        // scalar path keeps its strict per-access promise). Sinks without an
        // analytic backend decline at zero cost.
        if fast {
            if let Some(desc) = self.descriptor() {
                if let Some(n) = sink.nest(&desc) {
                    return Ok(n);
                }
            }
        }
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
            self.walk_morton(0, &mut vals, sink, fast, &mut count)?;
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
            return self.emit_morton_innermost(vals, start, step, trips, sink, fast, count);
        }
        let mut v = start;
        for _ in 0..trips {
            vals[level] = v;
            self.walk_morton(level + 1, vals, sink, fast, count)?;
            v += step;
        }
        Ok(())
    }

    /// One innermost invocation of a Morton-bearing nest.
    ///
    /// The run-length fast path holds in exactly one shape: a single
    /// (necessarily Morton) reference, whose address sequence is re-encoded
    /// greedily into maximal constant-stride [`Run`]s — batching stays
    /// correct *across* Morton tiles because runs break exactly where the
    /// stride does. Any multi-reference body bails to per-access scalar
    /// emission (`layout.morton_scalar_bails`): interleaving affine and
    /// non-affine streams into `run_group`s would need equal-count
    /// constant-stride runs that Morton addresses do not provide.
    #[allow(clippy::too_many_arguments)]
    fn emit_morton_innermost(
        &self,
        vals: &[i64],
        start: i64,
        step: i64,
        trips: u64,
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
        // Resolve each reference's per-invocation state: affine refs get
        // (address, byte delta); Morton refs get per-dimension (index,
        // index delta), endpoint-checked against the bit envelope.
        let mut aff: Vec<(i64, i64)> = Vec::with_capacity(nrefs);
        let mut mort: Vec<(Vec<i64>, Vec<i64>)> = Vec::with_capacity(nrefs);
        for r in &self.refs {
            match &r.morton {
                Some(m) => {
                    let rank = m.dim_base.len();
                    let mut idx = Vec::with_capacity(rank);
                    let mut dd = Vec::with_capacity(rank);
                    for d in 0..rank {
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
                    aff.push((0, 0));
                    mort.push((idx, dd));
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
                    aff.push((cur, delta));
                    mort.push((Vec::new(), Vec::new()));
                }
            }
        }
        if fast && nrefs == 1 {
            // Single Morton reference: greedy run re-encoding.
            let r = &self.refs[0];
            let m = r.morton.as_ref().expect("has_morton nest with one ref");
            let (idx, dd) = &mut mort[0];
            let mut prev = m.addr(idx);
            let (mut run_start, mut stride, mut n) = (prev, 0i64, 1u64);
            for _ in 1..trips {
                for (v, d) in idx.iter_mut().zip(dd.iter()) {
                    *v += d;
                }
                let a = m.addr(idx);
                if n == 1 {
                    stride = a - prev;
                    n = 2;
                } else if a - prev == stride {
                    n += 1;
                } else {
                    sink.run(Run {
                        start: run_start as u64,
                        stride,
                        count: n,
                        kind: r.kind,
                    });
                    crate::layout::stats::MORTON_RUNS.fetch_add(1, Ordering::Relaxed);
                    run_start = a;
                    stride = 0;
                    n = 1;
                }
                prev = a;
            }
            sink.run(Run {
                start: run_start as u64,
                stride,
                count: n,
                kind: r.kind,
            });
            crate::layout::stats::MORTON_RUNS.fetch_add(1, Ordering::Relaxed);
        } else {
            if fast {
                crate::layout::stats::MORTON_SCALAR_BAILS.fetch_add(1, Ordering::Relaxed);
            }
            for _ in 0..trips {
                for (r, cr) in self.refs.iter().enumerate() {
                    let addr = match &cr.morton {
                        Some(m) => {
                            let (idx, dd) = &mut mort[r];
                            let a = m.addr(idx);
                            for (v, d) in idx.iter_mut().zip(dd.iter()) {
                                *v += *d;
                            }
                            a
                        }
                        None => {
                            let a = aff[r].0;
                            aff[r].0 += aff[r].1;
                            a
                        }
                    };
                    sink.access(Access {
                        addr: addr as u64,
                        kind: cr.kind,
                    });
                }
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
                if let [run] = runs.as_slice() {
                    sink.run(*run);
                } else {
                    sink.run_group(runs);
                }
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

/// [`simulate`] with a 3C miss classification attached: every access also
/// drives one fully-associative LRU shadow cache per level, splitting each
/// real miss into compulsory/capacity/conflict. Returns the report plus the
/// loaded classifier (use
/// [`mlc_telemetry::MissClassifier::install_metrics`] to export it).
pub fn simulate_classified(
    program: &Program,
    layout: &DataLayout,
    config: &HierarchyConfig,
) -> (MissRateReport, mlc_telemetry::MissClassifier) {
    let mut hier = Hierarchy::new(config.clone());
    let mut classifier = config.miss_classifier();
    generate(program, layout, &mut hier.probed(&mut classifier));
    (hier.report(), classifier)
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
        runs: u64,
        run_groups: u64,
        total: u64,
    }

    impl AccessSink for CallCounter {
        fn access(&mut self, _: Access) {
            self.accesses += 1;
            self.total += 1;
        }

        fn run(&mut self, run: Run) {
            self.runs += 1;
            self.total += run.count;
        }

        fn run_group(&mut self, runs: &[Run]) {
            self.run_groups += 1;
            self.total += runs.iter().map(|r| r.count).sum::<u64>();
        }
    }

    #[test]
    fn morton_single_ref_fast_path_batches_runs() {
        // A 1-D morton family is linear-in-disguise: the whole innermost
        // sweep must coalesce into runs, not per-access emissions.
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::f64("A", vec![64]));
        p.add_nest(LoopNest::new(
            "n",
            vec![Loop::counted("i", 0, 63)],
            vec![ArrayRef::read(a, vec![E::var("i")])],
        ));
        let fams = vec![crate::layout::LayoutFamily::morton_round_robin(
            &p.arrays[0],
        )];
        let l = DataLayout::with_pads_and_families(&p.arrays, &[0], &fams).unwrap();
        let mut c = CallCounter::default();
        assert_eq!(generate(&p, &l, &mut c), 64);
        assert_eq!(c.total, 64);
        assert_eq!(c.runs, 1, "sequential morton sweep is one run");
        assert_eq!((c.accesses, c.run_groups), (0, 0));
    }

    #[test]
    fn morton_multi_ref_body_bails_to_scalar() {
        // Every innermost invocation (8 of them, 2 refs × 8 trips) is
        // emitted access by access.
        let (p, l) = morton_program(8);
        let mut c = CallCounter::default();
        assert_eq!(generate(&p, &l, &mut c), 128);
        assert_eq!(c.accesses, 128);
        assert_eq!((c.runs, c.run_groups), (0, 0));
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
    fn morton_nest_offers_marked_descriptor() {
        let (p, l) = morton_program(4);
        let nest = CompiledNest::try_new(&p, &p.nests[0], &l).unwrap();
        let desc = nest.descriptor().expect("constant bounds have descriptors");
        assert!(desc.non_affine);
        assert!(desc.refs.is_empty());
        assert_eq!(desc.trips, vec![4, 4]);
        // Affine nests stay unmarked.
        let p3 = simple_program(4);
        let l3 = DataLayout::contiguous(&p3.arrays);
        let d3 = CompiledNest::try_new(&p3, &p3.nests[0], &l3)
            .unwrap()
            .descriptor()
            .unwrap();
        assert!(!d3.non_affine);
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
