#![warn(missing_docs)]

//! # mlc-model — loop-nest and array-reference program model
//!
//! The substrate the SC '99 optimization algorithms (`mlc-core`) analyze and
//! transform. The paper implemented its passes inside the Stanford SUIF
//! compiler over Fortran; this crate reproduces the abstractions those passes
//! consumed:
//!
//! * [`array::ArrayDecl`] — column-major (Fortran-layout) array variables.
//! * [`expr::AffineExpr`] — affine subscript expressions over loop variables.
//! * [`nest::LoopNest`] / [`program::Program`] — perfect loop nests whose
//!   bodies are lists of array references, and whole programs as sequences
//!   of nests over a shared set of arrays. Loop indices are **0-based**
//!   (the paper's Fortran examples are 1-based; models here shift bounds).
//! * [`layout::DataLayout`] — the paper's "single global structured
//!   variable": every array gets a byte base address in one address space,
//!   and padding transformations manipulate those bases.
//! * [`trace_gen`] — exact address-trace generation from a program + layout,
//!   streamed into any `mlc-cache-sim` sink. This is the bridge to the cache
//!   simulator used for every miss-rate experiment.
//! * [`reuse`] — Wolf–Lam reuse classification (self/group × temporal/
//!   spatial) and uniformly generated sets, the vocabulary of Section 2.
//! * [`dependence`] — legality tests for fusion and permutation.
//! * [`transform`] — loop permutation, reversal, fusion, strip-mining and
//!   tiling, each producing a new nest/program (the IR is immutable-ish).
//! * [`footprint`] — per-nest address-range/working-set estimates.
//! * [`diagram`] — ASCII renderings of the paper's cache-layout diagrams
//!   (Figures 3–5 and 7).
//! * [`case`] / [`corpus`] — self-contained (program, pads, hierarchy)
//!   cases and their line-oriented `.case` text format: the committed
//!   fuzz-regression corpus under `tests/corpus/` and the wire format of
//!   the `mlc-serve` HTTP API.
//!
//! ## Example: the paper's Figure 1
//!
//! ```
//! use mlc_model::prelude::*;
//!
//! // real A(N,M), B(N); do j = 1,N { do i = 1,M { B(j) = A(j,i) } }
//! let (n, m) = (64, 16);
//! let mut p = Program::new("figure1");
//! let a = p.add_array(ArrayDecl::new("A", 8, vec![n, m]));
//! let b = p.add_array(ArrayDecl::new("B", 8, vec![n]));
//! let nest = LoopNest::new(
//!     "main",
//!     vec![Loop::counted("j", 0, n as i64 - 1), Loop::counted("i", 0, m as i64 - 1)],
//!     vec![
//!         ArrayRef::read(a, vec![AffineExpr::var("j"), AffineExpr::var("i")]),
//!         ArrayRef::write(b, vec![AffineExpr::var("j")]),
//!     ],
//! );
//! p.add_nest(nest);
//! p.validate().unwrap();
//!
//! // Loop permutation moves the j loop innermost, restoring spatial reuse
//! // of A — and the access multiset is unchanged.
//! let permuted = mlc_model::transform::permute(&p.nests[0], &[1, 0]).unwrap();
//! assert_eq!(permuted.loops[0].var, "i");
//! ```

pub mod arbitrary;
pub mod array;
pub mod case;
pub mod content_hash;
pub mod corpus;
pub mod dependence;
pub mod diagram;
pub mod expr;
pub mod footprint;
pub mod layout;
pub mod nest;
pub mod pretty;
pub mod program;
pub mod reference;
pub mod reuse;
pub mod trace_gen;
pub mod transform;

/// Convenient glob import for model construction.
pub mod prelude {
    pub use crate::array::{ArrayDecl, ArrayId};
    pub use crate::expr::AffineExpr;
    pub use crate::layout::{DataLayout, LayoutFamily};
    pub use crate::nest::{Loop, LoopNest};
    pub use crate::program::Program;
    pub use crate::reference::ArrayRef;
    pub use mlc_cache_sim::trace::AccessKind;
}

pub use array::{ArrayDecl, ArrayId};
pub use expr::AffineExpr;
pub use layout::{DataLayout, LayoutFamily};
pub use nest::{Loop, LoopNest};
pub use program::Program;
pub use reference::ArrayRef;
