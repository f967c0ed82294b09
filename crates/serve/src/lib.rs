#![warn(missing_docs)]

//! # mlc-serve — padding-as-a-service over the `.case` wire format
//!
//! The SC '99 padding optimizer and multi-level cache simulator as a
//! long-lived network service. The wire format *is* the fuzz corpus
//! format: any committed `tests/corpus/*.case` file — and any shrunk fuzz
//! reproducer — can be `POST`ed verbatim, which is what makes the
//! differential serve-parity oracle possible (the same bytes drive the
//! in-process pipeline and the served one, and the answers must match
//! exactly).
//!
//! * `POST /simulate` — miss-rate report for the case as given
//!   (`protocol=cold|steady`, `warmup=`, `timed=`, `engine=auto`).
//! * `POST /optimize` — run the padding pipeline (`target=l1|multi`),
//!   answer with the pad vector, layout bases, and before/after reports.
//! * `POST /sweep` — version × protocol grid (`versions=orig,l1,l1l2`,
//!   comma lists for `warmup=`/`timed=`), capped by
//!   [`api::MAX_SWEEP_CELLS`] and [`api::MAX_TOTAL_ACCESSES`].
//! * `GET /stats`, `GET /healthz` — live counters and liveness.
//!
//! Three properties the test batteries pin:
//!
//! 1. **Parity** — served answers are byte-for-byte the in-process
//!    answers; the server adds transport, never semantics.
//! 2. **Coalescing** — all endpoints answer through one shared
//!    [`mlc_core::ResultCache`] front, so N concurrent requests for the
//!    same [`mlc_core::CacheKey`] cost one compute and N−1 coalesced hits.
//! 3. **Typed failure** — every failure mode is a documented
//!    `(status, code)` pair (see [`error::ApiError`] and
//!    `docs/SERVING.md`); overload answers `429` + `Retry-After` from a
//!    bounded admission queue, and nothing answers an undocumented 500.
//!
//! Dependency-free by construction: the HTTP layer is ~300 lines over
//! `std::net` because the workspace ships no async runtime, and a
//! request/response cycle over loopback does not need one.

pub mod api;
pub mod error;
pub mod http;
pub mod server;

pub use api::{ServeCounters, ServeState};
pub use error::ApiError;
pub use http::{send_request, ClientResponse, Request, Response};
pub use server::{Server, ServerConfig};
