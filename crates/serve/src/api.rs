//! Endpoint handlers: `.case` text in, structured JSON out.
//!
//! Three POST endpoints share one shape — parse the body with the corpus
//! parser (the fuzzer's own format validator), pre-compile every nest so IR
//! errors surface as typed 422s before any cache traffic, then answer
//! through the shared [`ResultCache`] front so identical in-flight requests
//! coalesce onto one compute. Handlers never panic on purpose; the worker
//! loop wraps [`handle`] in `catch_unwind` as the last line of defense.

use crate::error::ApiError;
use crate::http::{Request, Response};
use mlc_core::rescache::report_to_json;
use mlc_core::{
    try_optimize, try_simulate_analytic, try_simulate_steady_analytic, CacheKey, OptimizeOptions,
    ResultCache, SimProtocol,
};
use mlc_model::case::Case;
use mlc_model::corpus::parse_case;
use mlc_model::trace_gen::CompiledNest;
use mlc_model::{DataLayout, Program};
use mlc_telemetry::json::JsonValue;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Most sweep-grid cells one `/sweep` request may expand to.
pub const MAX_SWEEP_CELLS: u64 = 64;

/// Most simulated accesses one request may cost across its whole grid.
pub const MAX_TOTAL_ACCESSES: u64 = 50_000_000;

/// Largest accepted `warmup`/`timed` sweep count.
pub const MAX_SWEEPS: u64 = 1024;

/// Monotonic request/outcome counters, shared by workers, acceptor and the
/// `/stats` endpoint. Exported as `serve.*` metrics at shutdown.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Requests fully handled by a worker (any status).
    pub requests: AtomicU64,
    /// 2xx responses.
    pub ok: AtomicU64,
    /// 4xx responses (including accept-side 429s).
    pub client_errors: AtomicU64,
    /// 5xx responses (caught panics; should stay zero).
    pub server_errors: AtomicU64,
    /// Accept-side 429s: connections refused by the full admission queue.
    pub queue_full: AtomicU64,
    /// Simulations actually executed inside this process (cache-front
    /// coalescing and disk hits do not count).
    pub computes: AtomicU64,
    /// `/simulate` requests.
    pub simulate: AtomicU64,
    /// `/optimize` requests.
    pub optimize: AtomicU64,
    /// `/sweep` requests.
    pub sweep: AtomicU64,
    /// `/stats` + `/healthz` requests.
    pub introspect: AtomicU64,
    /// Requests to unknown endpoints or with wrong methods.
    pub other: AtomicU64,
}

impl ServeCounters {
    /// Record a response's status class.
    pub fn record_status(&self, status: u16) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let bucket = match status {
            200..=299 => &self.ok,
            400..=499 => &self.client_errors,
            _ => &self.server_errors,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
    }

    /// Install the counters into a metrics registry under `prefix.`.
    pub fn install_metrics(&self, metrics: &mut mlc_telemetry::MetricsRegistry, prefix: &str) {
        let pairs: [(&str, &AtomicU64); 11] = [
            ("requests", &self.requests),
            ("ok", &self.ok),
            ("client_errors", &self.client_errors),
            ("server_errors", &self.server_errors),
            ("queue_full", &self.queue_full),
            ("computes", &self.computes),
            ("endpoint.simulate", &self.simulate),
            ("endpoint.optimize", &self.optimize),
            ("endpoint.sweep", &self.sweep),
            ("endpoint.introspect", &self.introspect),
            ("endpoint.other", &self.other),
        ];
        for (name, v) in pairs {
            metrics.count(&format!("{prefix}.{name}"), v.load(Ordering::Relaxed));
        }
    }
}

/// Shared immutable state behind all workers.
#[derive(Debug)]
pub struct ServeState {
    /// Content-addressed result store; the coalescing front.
    pub cache: Arc<ResultCache>,
    /// Request/outcome counters.
    pub counters: Arc<ServeCounters>,
    /// Worker-pool size (reported by `/stats`).
    pub workers: usize,
    /// Admission-queue depth (reported by `/stats`).
    pub queue_depth: usize,
    /// Request-body cap in bytes.
    pub max_body_bytes: usize,
    /// Server start time (for `/stats` uptime).
    pub started: Instant,
}

/// Route and execute one request. Never panics: endpoint bodies run under
/// `catch_unwind` and surface as typed 500s (counted in `server_errors`).
pub fn handle(state: &ServeState, req: &Request) -> Response {
    let endpoint_counter = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/simulate") => &state.counters.simulate,
        ("POST", "/optimize") => &state.counters.optimize,
        ("POST", "/sweep") => &state.counters.sweep,
        ("GET", "/stats") | ("GET", "/healthz") => &state.counters.introspect,
        _ => &state.counters.other,
    };
    endpoint_counter.fetch_add(1, Ordering::Relaxed);

    let result = catch_unwind(AssertUnwindSafe(|| route(state, req)));
    let response = match result {
        Ok(Ok(resp)) => resp,
        Ok(Err(err)) => err.to_response(),
        Err(panic) => {
            ApiError::internal(format!("handler panicked: {}", panic_text(&panic))).to_response()
        }
    };
    state.counters.record_status(response.status);
    response
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn route(state: &ServeState, req: &Request) -> Result<Response, ApiError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/simulate") => simulate(state, req),
        ("POST", "/optimize") => optimize(state, req),
        ("POST", "/sweep") => sweep(state, req),
        ("GET", "/healthz") => Ok(Response::json(
            200,
            JsonValue::object(vec![("status", JsonValue::Str("ok".into()))]).to_string_compact(),
        )),
        ("GET", "/stats") => Ok(Response::json(200, stats_json(state).to_string_compact())),
        (_, p @ ("/simulate" | "/optimize" | "/sweep")) => {
            Err(ApiError::method_not_allowed(&req.method, p, "POST"))
        }
        (_, p @ ("/stats" | "/healthz")) => {
            Err(ApiError::method_not_allowed(&req.method, p, "GET"))
        }
        (_, p) => Err(ApiError::not_found(p)),
    }
}

// ---------------------------------------------------------------------------
// Shared request plumbing
// ---------------------------------------------------------------------------

fn parse_body(req: &Request) -> Result<Case, ApiError> {
    if req.body.trim().is_empty() {
        return Err(ApiError::bad_request(
            "empty body; POST the case in the .case corpus text format",
        ));
    }
    let (case, _note) = parse_case(&req.body).map_err(ApiError::malformed_case)?;
    Ok(case)
}

/// Compile every nest up front so trace-IR errors surface as typed 422s
/// *before* the request touches the shared cache (whose compute closure is
/// infallible by design).
fn precheck_ir(program: &Program, layout: &DataLayout) -> Result<(), ApiError> {
    for nest in &program.nests {
        CompiledNest::try_new(program, nest, layout)
            .map_err(|e| ApiError::invalid_ir(e.to_string()))?;
    }
    Ok(())
}

fn q_u64(req: &Request, key: &str, default: u64) -> Result<u64, ApiError> {
    match req.query(key) {
        None => Ok(default),
        Some(v) => v.parse::<u64>().map_err(|_| {
            ApiError::bad_request(format!(
                "query parameter {key}={v:?} is not a non-negative integer"
            ))
        }),
    }
}

fn q_u64_list(req: &Request, key: &str, default: u64) -> Result<Vec<u64>, ApiError> {
    match req.query(key) {
        None => Ok(vec![default]),
        Some(v) => v
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse::<u64>().map_err(|_| {
                    ApiError::bad_request(format!(
                        "query parameter {key}={v:?} must be a comma list of non-negative integers"
                    ))
                })
            })
            .collect(),
    }
}

/// Check the `engine` parameter: `auto`, the only engine, or absent.
fn q_engine(req: &Request) -> Result<(), ApiError> {
    match req.query("engine") {
        None | Some("auto") => Ok(()),
        Some(v) => Err(ApiError::bad_request(format!(
            "engine={v:?}; expected auto"
        ))),
    }
}

fn q_protocol(req: &Request) -> Result<SimProtocol, ApiError> {
    let warmup = q_u64(req, "warmup", 1)?;
    let timed = q_u64(req, "timed", 1)?;
    match req.query("protocol") {
        Some("cold") => Ok(SimProtocol::Cold),
        None | Some("steady") => {
            check_sweeps(warmup, timed)?;
            Ok(SimProtocol::Steady { warmup, timed })
        }
        Some(v) => Err(ApiError::bad_request(format!(
            "protocol={v:?}; expected cold or steady"
        ))),
    }
}

fn check_sweeps(warmup: u64, timed: u64) -> Result<(), ApiError> {
    if timed == 0 {
        return Err(ApiError::bad_request("timed must be at least 1"));
    }
    if warmup > MAX_SWEEPS || timed > MAX_SWEEPS {
        return Err(ApiError::grid_too_large(format!(
            "warmup/timed capped at {MAX_SWEEPS} sweeps"
        )));
    }
    Ok(())
}

fn protocol_sweeps(protocol: SimProtocol) -> u64 {
    match protocol {
        SimProtocol::Cold => 1,
        SimProtocol::Steady { warmup, timed } => warmup + timed,
    }
}

fn protocol_json(protocol: SimProtocol) -> JsonValue {
    match protocol {
        SimProtocol::Cold => JsonValue::object(vec![("kind", JsonValue::Str("cold".into()))]),
        SimProtocol::Steady { warmup, timed } => JsonValue::object(vec![
            ("kind", JsonValue::Str("steady".into())),
            ("warmup", JsonValue::from(warmup)),
            ("timed", JsonValue::from(timed)),
        ]),
    }
}

/// Exact accesses one program sweep generates. Corpus-parsed cases always
/// have constant loop bounds, so this is a closed form; a non-constant
/// bound (impossible via the wire format) counts as unbounded.
fn accesses_per_sweep(program: &Program) -> u64 {
    let mut total: u64 = 0;
    for nest in &program.nests {
        let mut iters: u64 = 1;
        for l in &nest.loops {
            let constant = |es: &[mlc_model::AffineExpr]| -> Option<Vec<i64>> {
                es.iter()
                    .map(|e| e.is_constant().then(|| e.constant_term()))
                    .collect()
            };
            let trip = match (constant(&l.lowers), constant(&l.uppers)) {
                (Some(lo), Some(hi)) => {
                    let lo = lo.into_iter().max().unwrap_or(0);
                    let hi = hi.into_iter().min().unwrap_or(-1);
                    if hi < lo {
                        0
                    } else {
                        (hi - lo) as u64 / l.step.unsigned_abs() + 1
                    }
                }
                _ => u64::MAX,
            };
            iters = iters.saturating_mul(trip);
        }
        total = total.saturating_add(iters.saturating_mul(nest.body.len() as u64));
    }
    total
}

fn check_access_budget(program: &Program, sweeps: u64) -> Result<(), ApiError> {
    let cost = accesses_per_sweep(program).saturating_mul(sweeps);
    if cost > MAX_TOTAL_ACCESSES {
        return Err(ApiError::grid_too_large(format!(
            "request would simulate {cost} accesses; cap is {MAX_TOTAL_ACCESSES}"
        )));
    }
    Ok(())
}

fn pads_json(pads: &[u64]) -> JsonValue {
    JsonValue::Array(pads.iter().map(|&p| JsonValue::from(p)).collect())
}

/// Simulate through the shared cache front (auto engine). The closure is
/// infallible: [`precheck_ir`] ran, and corpus cases have constant bounds,
/// so `try_simulate_*` cannot fail past compilation.
fn cached_simulate(
    state: &ServeState,
    program: &Program,
    layout: &DataLayout,
    hierarchy: &mlc_cache_sim::HierarchyConfig,
    protocol: SimProtocol,
) -> (CacheKey, mlc_cache_sim::MissRateReport) {
    let key = CacheKey::derive(program, layout, hierarchy, protocol);
    let report = state.cache.get_or_compute(key, || {
        state.counters.computes.fetch_add(1, Ordering::Relaxed);
        match protocol {
            SimProtocol::Cold => try_simulate_analytic(program, layout, hierarchy),
            SimProtocol::Steady { warmup, timed } => try_simulate_steady_analytic(
                program,
                layout,
                hierarchy,
                warmup as usize,
                timed as usize,
            ),
        }
        .unwrap_or_else(|e| panic!("post-precheck trace error: {e}"))
    });
    (key, report)
}

// ---------------------------------------------------------------------------
// POST /simulate
// ---------------------------------------------------------------------------

fn simulate(state: &ServeState, req: &Request) -> Result<Response, ApiError> {
    let case = parse_body(req)?;
    let protocol = q_protocol(req)?;
    q_engine(req)?;
    let layout = case.layout();
    precheck_ir(&case.program, &layout)?;
    check_access_budget(&case.program, protocol_sweeps(protocol))?;

    let (key, report) = cached_simulate(state, &case.program, &layout, &case.hierarchy, protocol);
    let body = JsonValue::object(vec![
        ("key", JsonValue::Str(key.to_hex())),
        ("engine", JsonValue::Str("auto".into())),
        ("protocol", protocol_json(protocol)),
        ("pads", pads_json(&case.pads)),
        ("report", report_to_json(&report)),
    ]);
    Ok(Response::json(200, body.to_string_compact()))
}

// ---------------------------------------------------------------------------
// POST /optimize
// ---------------------------------------------------------------------------

/// Marker the padding search panics with when it exhausts its candidate
/// space — kept in sync with `mlc-core`'s search (the fuzzer's oracle
/// battery keys on the same text).
fn is_search_exhaustion(msg: &str) -> bool {
    msg.contains("padding search for")
}

/// Resolve the optimization target against the hierarchy: `multi` on a
/// single-level hierarchy degrades to the L1 pipeline (there is no L2 to
/// co-optimize; the in-process pipeline treats this as a caller error, the
/// service treats it as the obvious intent).
fn resolve_options(
    target_multi: bool,
    hierarchy: &mlc_cache_sim::HierarchyConfig,
) -> OptimizeOptions {
    if target_multi && hierarchy.depth() >= 2 {
        OptimizeOptions::multilvl_group()
    } else {
        OptimizeOptions::l1_group()
    }
}

fn q_options(
    req: &Request,
    hierarchy: &mlc_cache_sim::HierarchyConfig,
) -> Result<OptimizeOptions, ApiError> {
    match req.query("target") {
        None | Some("multi") => Ok(resolve_options(true, hierarchy)),
        Some("l1") => Ok(resolve_options(false, hierarchy)),
        Some(v) => Err(ApiError::bad_request(format!(
            "target={v:?}; expected l1 or multi"
        ))),
    }
}

fn optimize(state: &ServeState, req: &Request) -> Result<Response, ApiError> {
    let case = parse_body(req)?;
    let protocol = q_protocol(req)?;
    let options = q_options(req, &case.hierarchy)?;
    let layout = case.layout();
    precheck_ir(&case.program, &layout)?;
    // Before + after simulation, each one grid cell.
    check_access_budget(&case.program, protocol_sweeps(protocol).saturating_mul(2))?;

    let optimized = match catch_unwind(AssertUnwindSafe(|| {
        try_optimize(&case.program, &case.hierarchy, &options)
    })) {
        Ok(Ok(opt)) => opt,
        Ok(Err(pad_err)) => return Err(ApiError::optimize_failed(pad_err.to_string())),
        Err(panic) => {
            let msg = panic_text(&panic);
            return Err(if is_search_exhaustion(&msg) {
                ApiError::search_exhausted(msg)
            } else {
                ApiError::internal(format!("optimizer panicked: {msg}"))
            });
        }
    };
    // The pipeline may intra-pad (changing array shapes), so the optimized
    // program is re-prechecked under its own layout.
    precheck_ir(&optimized.program, &optimized.layout)?;

    let (before_key, before) =
        cached_simulate(state, &case.program, &layout, &case.hierarchy, protocol);
    let (after_key, after) = cached_simulate(
        state,
        &optimized.program,
        &optimized.layout,
        &case.hierarchy,
        protocol,
    );
    let pads = optimized.layout.pads(&optimized.program.arrays);

    let body = JsonValue::object(vec![
        ("protocol", protocol_json(protocol)),
        ("pads", pads_json(&pads)),
        (
            "bases",
            JsonValue::Array(
                optimized
                    .layout
                    .bases
                    .iter()
                    .map(|&b| JsonValue::from(b))
                    .collect(),
            ),
        ),
        (
            "before",
            JsonValue::object(vec![
                ("key", JsonValue::Str(before_key.to_hex())),
                ("report", report_to_json(&before)),
            ]),
        ),
        (
            "after",
            JsonValue::object(vec![
                ("key", JsonValue::Str(after_key.to_hex())),
                ("report", report_to_json(&after)),
            ]),
        ),
    ]);
    Ok(Response::json(200, body.to_string_compact()))
}

// ---------------------------------------------------------------------------
// POST /sweep
// ---------------------------------------------------------------------------

fn sweep(state: &ServeState, req: &Request) -> Result<Response, ApiError> {
    let case = parse_body(req)?;
    q_engine(req)?;
    let versions: Vec<&str> = match req.query("versions") {
        None => vec!["orig", "l1", "l1l2"],
        Some(v) => {
            let vs: Vec<&str> = v.split(',').filter(|s| !s.is_empty()).collect();
            for v in &vs {
                if !matches!(*v, "orig" | "l1" | "l1l2") {
                    return Err(ApiError::bad_request(format!(
                        "versions entry {v:?}; expected orig, l1, or l1l2"
                    )));
                }
            }
            vs
        }
    };
    let warmups = q_u64_list(req, "warmup", 1)?;
    let timeds = q_u64_list(req, "timed", 1)?;
    for &w in &warmups {
        for &t in &timeds {
            check_sweeps(w, t)?;
        }
    }

    let cells = versions.len() as u64 * warmups.len() as u64 * timeds.len() as u64;
    if cells == 0 {
        return Err(ApiError::bad_request("empty sweep grid"));
    }
    if cells > MAX_SWEEP_CELLS {
        return Err(ApiError::grid_too_large(format!(
            "{cells} grid cells; cap is {MAX_SWEEP_CELLS}"
        )));
    }
    let layout = case.layout();
    precheck_ir(&case.program, &layout)?;
    let total_sweeps: u64 = warmups
        .iter()
        .flat_map(|&w| timeds.iter().map(move |&t| w + t))
        .sum::<u64>()
        .saturating_mul(versions.len() as u64);
    check_access_budget(&case.program, total_sweeps)?;

    // Optimize once per requested version, then reuse across cells.
    let mut programs: Vec<(&str, Program, DataLayout, Vec<u64>)> = Vec::new();
    for &version in &versions {
        let (program, vlayout) = match version {
            "orig" => (case.program.clone(), layout.clone()),
            opt => {
                let options = resolve_options(opt == "l1l2", &case.hierarchy);
                let optimized = match catch_unwind(AssertUnwindSafe(|| {
                    try_optimize(&case.program, &case.hierarchy, &options)
                })) {
                    Ok(Ok(o)) => o,
                    Ok(Err(e)) => return Err(ApiError::optimize_failed(e.to_string())),
                    Err(panic) => {
                        let msg = panic_text(&panic);
                        return Err(if is_search_exhaustion(&msg) {
                            ApiError::search_exhausted(msg)
                        } else {
                            ApiError::internal(format!("optimizer panicked: {msg}"))
                        });
                    }
                };
                precheck_ir(&optimized.program, &optimized.layout)?;
                (optimized.program, optimized.layout)
            }
        };
        let pads = vlayout.pads(&program.arrays);
        programs.push((version, program, vlayout, pads));
    }

    let mut grid = Vec::new();
    for (version, program, vlayout, pads) in &programs {
        for &warmup in &warmups {
            for &timed in &timeds {
                let protocol = SimProtocol::Steady { warmup, timed };
                let (key, report) =
                    cached_simulate(state, program, vlayout, &case.hierarchy, protocol);
                grid.push(JsonValue::object(vec![
                    ("version", JsonValue::Str((*version).into())),
                    ("protocol", protocol_json(protocol)),
                    ("key", JsonValue::Str(key.to_hex())),
                    ("pads", pads_json(pads)),
                    ("report", report_to_json(&report)),
                ]));
            }
        }
    }

    let body = JsonValue::object(vec![
        ("cells", JsonValue::from(grid.len() as u64)),
        ("grid", JsonValue::Array(grid)),
    ]);
    Ok(Response::json(200, body.to_string_compact()))
}

// ---------------------------------------------------------------------------
// GET /stats
// ---------------------------------------------------------------------------

fn stats_json(state: &ServeState) -> JsonValue {
    let c = &state.counters;
    let load = |a: &AtomicU64| JsonValue::from(a.load(Ordering::Relaxed));
    let cache = state.cache.stats();
    JsonValue::object(vec![
        (
            "serve",
            JsonValue::object(vec![
                ("requests", load(&c.requests)),
                ("ok", load(&c.ok)),
                ("client_errors", load(&c.client_errors)),
                ("server_errors", load(&c.server_errors)),
                ("queue_full", load(&c.queue_full)),
                ("computes", load(&c.computes)),
                (
                    "endpoints",
                    JsonValue::object(vec![
                        ("simulate", load(&c.simulate)),
                        ("optimize", load(&c.optimize)),
                        ("sweep", load(&c.sweep)),
                        ("introspect", load(&c.introspect)),
                        ("other", load(&c.other)),
                    ]),
                ),
                ("workers", JsonValue::from(state.workers as u64)),
                ("queue_depth", JsonValue::from(state.queue_depth as u64)),
                (
                    "uptime_ms",
                    JsonValue::from(state.started.elapsed().as_millis() as u64),
                ),
            ]),
        ),
        (
            "rescache",
            JsonValue::object(vec![
                ("hits", JsonValue::from(cache.hits)),
                ("misses", JsonValue::from(cache.misses)),
                ("stores", JsonValue::from(cache.stores)),
                ("coalesced", JsonValue::from(cache.coalesced)),
                ("corrupt", JsonValue::from(cache.corrupt)),
                ("stale", JsonValue::from(cache.stale)),
            ]),
        ),
    ])
}
