//! The oracle battery: every differential pair and paper invariant checked
//! on one [`Case`].
//!
//! Each oracle is pure with respect to the case. Library panics —
//! including the padding searches' "no conflict-free position" exhaustion
//! and debug-build cross-check assertions — are caught and either reported
//! as violations or recorded as skips when they are a documented legitimate
//! outcome rather than a bug.

use crate::case::Case;
use mlc_cache_sim::trace::RecordingSink;
use mlc_cache_sim::{Hierarchy, HierarchyConfig, LevelStats};
use mlc_core::analytic::NestMemo;
use mlc_core::conflict::severe_conflicts;
use mlc_core::fusion::{accounting_cost, fusion_profit, reuse_layout};
use mlc_core::group::{exploited_count, ProgramSkeleton};
use mlc_core::group_pad::{
    group_pad, group_pad_multi, group_pad_multi_exhaustive, group_pad_quantized_exhaustive,
};
use mlc_core::maxpad::l2_max_pad;
use mlc_core::pad::{multilvl_pad, pad_all_levels, PadResult};
use mlc_core::{estimate_misses, MissCosts};
use mlc_model::trace_gen::{
    try_generate_with, try_simulate_steady_with, try_simulate_with, TraceError,
};
use mlc_model::{DataLayout, Program};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Names of every oracle, in the order they run. Telemetry counters and the
/// corpus format refer to oracles by these names.
pub const ORACLES: &[&str] = &[
    "engine-parity",
    "search-parity",
    "multilvlpad-clears-all-levels",
    "l2maxpad-preserves-l1",
    "base-shift-invariance",
    "severe-count-differential",
    "fusion-model",
    "estimator-agreement",
    "cache-parity",
    "serve-parity",
];

/// Simulator-vs-estimator ranking indifference band (miss-rate units). The
/// estimator is not cycle-accurate; it only promises to *rank* layouts the
/// way the simulator does. Two layouts closer than this band at a level are
/// treated as tied — the fuzzed programs run a few hundred references, so
/// rate differences near the band are a handful of misses, inside the
/// estimator's modeling error. Calibrated over seeds 0..5000 of the default
/// generator; the repo's kernel-suite validation (large footprints, long
/// trips — the estimator's operating regime) holds a far tighter 0.02 band.
pub const ESTIMATOR_ORDER_MARGIN: f64 = 0.20;

/// Minimum innermost-loop trip count before the estimator's ranking promise
/// is binding. The estimator amortizes misses over a steady-state inner
/// loop; below this many iterations a severe conflict it predicts may never
/// actually evict anything, so rankings on shorter loops are noise.
pub const MIN_ESTIMATOR_TRIP: i64 = 8;

/// One oracle failure on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired (an entry of [`ORACLES`]).
    pub oracle: &'static str,
    /// Human-readable account of the disagreement.
    pub detail: String,
}

/// One oracle that declined to judge a case, and why. Skips are expected
/// (gated oracles, legitimate search exhaustion) and are surfaced as
/// telemetry so a gate that silently eats every case is visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Skip {
    /// Which oracle skipped.
    pub oracle: &'static str,
    /// Why it could not judge this case.
    pub reason: String,
}

/// Everything the battery concluded about one case.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Oracle failures (empty on a clean case).
    pub violations: Vec<Violation>,
    /// Oracles that declined to judge the case.
    pub skips: Vec<Skip>,
    /// Oracles that ran to completion.
    pub checked: Vec<&'static str>,
}

impl Report {
    /// True iff some oracle fired.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Whether a specific oracle (by name) fired on this case.
    pub fn violates(&self, oracle: &str) -> bool {
        self.violations.iter().any(|v| v.oracle == oracle)
    }

    fn fail(&mut self, oracle: &'static str, detail: String) {
        self.violations.push(Violation { oracle, detail });
    }

    fn skip(&mut self, oracle: &'static str, reason: String) {
        self.skips.push(Skip { oracle, reason });
    }
}

/// Run a closure, converting a panic into its message.
fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// The incremental padding searches panic with this marker when no
/// conflict-free position exists within their pad budget — a documented
/// legitimate outcome on pathological programs, not a bug.
fn is_search_exhaustion(msg: &str) -> bool {
    msg.contains("padding search for")
}

/// Run the full battery on one case.
pub fn check_case(case: &Case) -> Report {
    let mut r = Report::default();
    let layout = case.layout();
    let h = &case.hierarchy;
    let p = &case.program;

    check_engine_parity(case, &layout, &mut r);
    check_search_parity(case, &mut r);
    check_multilvlpad(case, &mut r);
    check_l2maxpad(case, &mut r);
    check_base_shift(case, &mut r);

    // severe-count-differential: the skeleton's lockstep counter and the
    // reference implementation must agree exactly, at every level, on the
    // case layout. Severe-conflict analysis is defined on affine address
    // expressions, so a case whose base layout carries a Morton family is
    // out of its domain (the padding oracles still run — their searches
    // build their own linear layouts).
    if !layout.fully_affine() {
        r.skip(
            "severe-count-differential",
            "non-affine layout family".to_string(),
        );
    } else {
        let oracle = "severe-count-differential";
        let skel = ProgramSkeleton::new(p);
        let mut ok = true;
        for (lvl, &cache) in h.levels.iter().enumerate() {
            let from_skel = skel.severe(&layout.bases, cache, None);
            let from_ref = severe_conflicts(p, &layout, cache).len();
            if from_skel != from_ref {
                ok = false;
                r.fail(
                    oracle,
                    format!(
                        "L{} ({} B): skeleton counts {from_skel} severe pairs, \
                         conflict::severe_conflicts finds {from_ref}",
                        lvl + 1,
                        cache.size
                    ),
                );
            }
        }
        if ok {
            r.checked.push(oracle);
        }
    }

    check_fusion_model(case, &mut r);
    check_estimator_agreement(case, &layout, &mut r);
    check_cache_parity(case, &layout, &mut r);
    check_serve_parity(case, &layout, &mut r);
    r
}

/// Sweeps the `engine-parity` oracle runs on a case and on each variant.
/// Counts are compared after every sweep, so four cover the cold protocol
/// and the (warm-up + timed) protocols 1 + 1, 0 + 2 and 2 + 2; the repeat
/// variant's later sweeps enter states the memo recorded in earlier ones.
const PARITY_SWEEPS: usize = 4;

/// Engine parity: scalar replay, run-length replay and the analytic
/// engine's memo agree through [`engine_parity`] over [`PARITY_SWEEPS`]
/// sweeps of the case and of every variant [`engine_variants`] derives
/// from it; and, on the case and its layout variants, the fast generator's
/// stream, expanded access by access, equals the scalar walk's (the repeat
/// variant streams the case's nests again through the same walk). The case
/// itself must simulate; on a variant, the same trace error from every
/// engine is agreement.
fn check_engine_parity(case: &Case, layout: &DataLayout, r: &mut Report) {
    let oracle = "engine-parity";
    let variants = match engine_variants(case, layout) {
        Ok(v) => v,
        Err(e) => {
            r.fail(oracle, e);
            return;
        }
    };
    let build = || Hierarchy::new(case.hierarchy.clone());
    let programs = std::iter::once(("case", &case.program, layout))
        .chain(variants.iter().map(|(label, p, l)| (*label, p, l)));
    for (label, p, l) in programs {
        let stream = if label == "repeat" {
            None
        } else {
            stream_difference(p, l)
        };
        let diff = stream.or_else(|| match engine_parity(p, l, build, PARITY_SWEEPS) {
            Ok(Ok(_)) => None,
            Ok(Err(_)) if label != "case" => None,
            Ok(Err(e)) => Some(format!("does not simulate: {e}")),
            Err(diff) => Some(diff),
        });
        if let Some(diff) = diff {
            r.fail(oracle, format!("{label}: {diff}"));
            return;
        }
    }
    r.checked.push(oracle);
}

/// The variants `engine-parity` derives from a case, each with its layout:
/// - `repeat`: an outermost repeat loop on every nest the memo is offered
///   ([`repeated_nests`]), so that the memo takes hits;
/// - `collide`: every array's base on a multiple of the largest cache
///   ([`colliding_layout`]), so that run groups take the translated route;
/// - `morton`: every eligible array on its round-robin Morton word;
/// - `morton-blocked`: every eligible array on its blocked word with two
///   bits of each dimension per round, the kind of word the layout search
///   picks;
/// - `cot`: every constant-bound unit-step nest cache-obliviously tiled
///   (leaf 4); nests the recursion cannot express are kept as they are.
///
/// A variant is left out when its derivation changes nothing: no nest is
/// offered to the memo, no base moves (or the program has one array), no
/// array takes a Morton word, or no nest splits.
/// `Err` names a word that validated against its array but that the
/// layout rejects.
fn engine_variants(
    case: &Case,
    layout: &DataLayout,
) -> Result<Vec<(&'static str, Program, DataLayout)>, String> {
    use mlc_model::layout::{blocked_word, min_bits};
    use mlc_model::transform::cache_oblivious_unchecked;
    use mlc_model::{ArrayDecl, LayoutFamily};
    let p = &case.program;
    let mut variants = Vec::new();

    let repeated = repeated_nests(p, layout);
    if repeated != *p {
        variants.push(("repeat", repeated, layout.clone()));
    }
    if let Some(l) = colliding_layout(p, layout, &case.hierarchy) {
        variants.push(("collide", p.clone(), l));
    }

    fn blocked(a: &ArrayDecl) -> LayoutFamily {
        let bits: Vec<u32> = (0..a.rank()).map(|d| min_bits(a.alloc_dim(d))).collect();
        LayoutFamily::Morton(blocked_word(&bits, &vec![2; bits.len()]))
    }
    let words = [
        (
            "morton",
            LayoutFamily::morton_round_robin as fn(&ArrayDecl) -> LayoutFamily,
        ),
        ("morton-blocked", blocked),
    ];
    for (label, word) in words {
        let fams: Vec<LayoutFamily> = p
            .arrays
            .iter()
            .map(|a| {
                let f = word(a);
                if f.validate(a).is_ok() {
                    f
                } else {
                    LayoutFamily::Linear
                }
            })
            .collect();
        if fams.iter().any(|f| !f.is_linear()) {
            let l = DataLayout::with_pads_and_families(&p.arrays, &case.pads, &fams)
                .map_err(|e| format!("{label}: validated word rejected by layout: {e}"))?;
            variants.push((label, p.clone(), l));
        }
    }

    let mut tiled = p.clone();
    tiled.nests.clear();
    let mut transformed = false;
    for nest in &p.nests {
        match cache_oblivious_unchecked(nest, 4) {
            Ok(leaves) => {
                transformed = transformed || leaves.len() > 1;
                tiled.nests.extend(leaves);
            }
            Err(_) => tiled.nests.push(nest.clone()),
        }
    }
    if transformed {
        variants.push(("cot", tiled, layout.clone()));
    }
    Ok(variants)
}

/// `layout` with every array's base moved up to the next multiple of the
/// hierarchy's largest cache size, families kept. Equal subscripts of
/// different arrays then share a set at every level, the severe conflict
/// [`Hierarchy`]'s translated route replays. `None` for a one-array
/// program, when no base moves, or when the layout's end would leave the
/// `i64` address range.
fn colliding_layout(p: &Program, layout: &DataLayout, h: &HierarchyConfig) -> Option<DataLayout> {
    let size = h.levels.iter().map(|c| c.size as u64).max()?;
    if p.arrays.len() < 2 {
        return None;
    }
    let mut pads = Vec::with_capacity(p.arrays.len());
    let mut end = 0u64;
    for (a, fam) in p.arrays.iter().zip(&layout.families) {
        let base = end.checked_next_multiple_of(size)?;
        pads.push(base - end);
        end = base.checked_add(fam.alloc_bytes(a))?;
    }
    DataLayout::checked_end(&p.arrays, &pads, &layout.families)?;
    let moved = DataLayout::with_pads_and_families(&p.arrays, &pads, &layout.families).ok()?;
    (moved != *layout).then_some(moved)
}

/// `p` with an outermost repeat loop on every nest the analytic engine is
/// offered, sized so the nest offers at least
/// [`mlc_core::analytic::MIN_MEMO_ACCESSES`] accesses. No subscript uses
/// the loop, so each nest streams its own accesses that many times over.
/// Other nests stay as they are.
fn repeated_nests(p: &Program, layout: &DataLayout) -> Program {
    use mlc_core::analytic::MIN_MEMO_ACCESSES;
    use mlc_model::trace_gen::CompiledNest;
    let mut q = p.clone();
    for nest in &mut q.nests {
        let total = CompiledNest::try_new(p, nest, layout)
            .ok()
            .filter(|c| !c.has_morton())
            .and_then(|c| c.constant_accesses())
            .flatten();
        let Some(total) = total else { continue };
        let mut var = "rep".to_string();
        while nest.loops.iter().any(|l| l.var == var) {
            var.push('_');
        }
        let trips = MIN_MEMO_ACCESSES.div_ceil(total);
        nest.loops
            .insert(0, mlc_model::Loop::counted(var, 0, trips as i64 - 1));
    }
    q
}

/// Where the fast generator's stream, expanded access by access, first
/// differs from the scalar walk's stream, if it does. A [`RecordingSink`]
/// batches nothing: runs and run groups reach it through the per-access
/// defaults of [`AccessSink`](mlc_cache_sim::trace::AccessSink).
fn stream_difference(p: &Program, layout: &DataLayout) -> Option<String> {
    let (mut fast, mut scalar) = (RecordingSink::default(), RecordingSink::default());
    let nf = try_generate_with(p, layout, &mut fast, true);
    let ns = try_generate_with(p, layout, &mut scalar, false);
    if nf != ns {
        return Some(format!(
            "streams: the fast walk counts {nf:?}, scalar {ns:?}"
        ));
    }
    let (f, s) = (&fast.accesses, &scalar.accesses);
    let at = (0..f.len().max(s.len())).find(|&i| f.get(i) != s.get(i))?;
    Some(format!(
        "streams: access {at} is {:?} on the fast walk, {:?} on the scalar walk",
        f.get(at),
        s.get(at)
    ))
}

/// The engine-parity comparator. Scalar replay, run-length replay and the
/// analytic engine's memo ([`NestMemo`]) each simulate `sweeps` sweeps
/// of `p` under `layout` on their own hierarchy from `build`, advanced
/// together one sweep at a time. Scalar replay is the reference:
/// - after every sweep, each other engine's reference count, per-level
///   accesses, misses and write-backs, and prefetch fills must equal it;
/// - after the first sweep and after the last, so must the contents of
///   every set at every level: tags, dirty bits and recency order.
///
/// Returns `Ok(Ok(hits))`, the memo's hit count, when the engines agree;
/// `Ok(Err(e))` when all three stop with the same trace error `e` in the
/// same sweep; and `Err` describing the first difference, naming the
/// engine and the sweep (counted from 1), and the level and set where it
/// has them.
pub fn engine_parity(
    p: &Program,
    layout: &DataLayout,
    build: impl Fn() -> Hierarchy,
    sweeps: usize,
) -> Result<Result<u64, TraceError>, String> {
    let outcome = lockstep(
        p,
        layout,
        build,
        sweeps,
        |sweep, [(_, counted, scalar), rest @ ..]| {
            let n = sweep + 1;
            for (engine, other, _) in &rest {
                if *other != counted {
                    return Err(Err(format!(
                        "{engine}, sweep {n}: counted {other:?}, scalar {counted:?}"
                    )));
                }
            }
            counted.map_err(Ok)?;
            for (engine, _, h) in rest {
                if let Some(diff) = hierarchy_difference(h, scalar, n == 1 || n == sweeps) {
                    return Err(Err(format!("{engine}, sweep {n}: {diff}")));
                }
            }
            Ok(())
        },
    );
    match outcome {
        Ok(hits) => Ok(Ok(hits)),
        Err(Ok(e)) => Ok(Err(e)),
        Err(Err(diff)) => Err(diff),
    }
}

/// One engine's outcome of one sweep: its name, the references the sweep
/// counted (or the trace error that stopped it), and the hierarchy it left.
type EngineSweep<'a> = (&'static str, Result<u64, TraceError>, &'a Hierarchy);

/// Scalar replay, run-length replay and the analytic engine's memo
/// ([`NestMemo`]), each on its own hierarchy from `build`, advanced
/// together over `sweeps` sweeps of `p`. After each sweep, `after` sees the
/// sweep's index and every engine's outcome, scalar first; its first `Err`
/// ends the run and is returned. Otherwise the memo's hit count is.
fn lockstep<B>(
    p: &Program,
    layout: &DataLayout,
    build: impl Fn() -> Hierarchy,
    sweeps: usize,
    mut after: impl FnMut(usize, [EngineSweep<'_>; 3]) -> Result<(), B>,
) -> Result<u64, B> {
    let (mut scalar, mut run_length, mut memo_hierarchy) = (build(), build(), build());
    let mut memo = NestMemo::new(&mut memo_hierarchy, p, layout);
    for sweep in 0..sweeps {
        let s = try_generate_with(p, layout, &mut scalar, false);
        let r = try_generate_with(p, layout, &mut run_length, true);
        let m = memo.sweep();
        after(
            sweep,
            [
                ("scalar", s, &scalar),
                ("run-length", r, &run_length),
                ("memo", m, memo.hierarchy()),
            ],
        )?;
    }
    Ok(memo.nests_closed())
}

/// The first difference of `h` from the reference `scalar`: a level's
/// accesses and misses, the write-backs, the prefetch fills, or, with
/// `contents`, a set's tags, dirty bits and recency order.
fn hierarchy_difference(h: &Hierarchy, scalar: &Hierarchy, contents: bool) -> Option<String> {
    let levels = h.stats().into_iter().zip(scalar.stats());
    if let Some((level, (x, y))) = levels.enumerate().find(|(_, (x, y))| x != y) {
        return Some(format!("L{}: {x:?}, scalar {y:?}", level + 1));
    }
    let (x, y) = (h.writebacks(), scalar.writebacks());
    if x != y {
        return Some(format!("write-backs per level {x:?}, scalar {y:?}"));
    }
    let (x, y) = (h.prefetch_fills(), scalar.prefetch_fills());
    if x != y {
        return Some(format!("prefetch fills {x}, scalar {y}"));
    }
    if !contents {
        return None;
    }
    for (level, (c, s)) in h.caches().iter().zip(scalar.caches()).enumerate() {
        for set in 0..c.config().num_sets() {
            if !c.set_contents(set).eq(s.set_contents(set)) {
                let (x, y): (Vec<_>, Vec<_>) =
                    (c.set_contents(set).collect(), s.set_contents(set).collect());
                return Some(format!(
                    "L{} set {set}: contents {x:?}, scalar {y:?}",
                    level + 1
                ));
            }
        }
    }
    None
}

/// Run only the serve-parity oracle on a case — the tier-1 serve-parity
/// battery replays hundreds of generated cases and does not need the other
/// ten oracles re-judging each one.
pub fn check_serve_parity_only(case: &Case) -> Report {
    let mut r = Report::default();
    check_serve_parity(case, &case.layout(), &mut r);
    r
}

/// The shared in-process HTTP server behind the serve-parity oracle,
/// started on first use and deliberately leaked: the oracle runs per case
/// from many fuzz threads, and a per-case server would dominate runtime.
/// Two workers are plenty — the oracle sends one request at a time.
fn serve_parity_addr() -> Result<std::net::SocketAddr, String> {
    use std::sync::OnceLock;
    static ADDR: OnceLock<Result<std::net::SocketAddr, String>> = OnceLock::new();
    ADDR.get_or_init(|| {
        let server = mlc_serve::Server::start(mlc_serve::ServerConfig {
            workers: Some(2),
            ..mlc_serve::ServerConfig::default()
        })
        .map_err(|e| format!("cannot start serve-parity server: {e}"))?;
        let addr = server.addr();
        std::mem::forget(server);
        Ok(addr)
    })
    .clone()
}

/// The served API must be a pure transport: byte-identical `.case` input
/// must produce the same miss counters, the same pads, and the same
/// *failures* as the in-process library — under both protocols, for both
/// `/simulate` and `/optimize`.
fn check_serve_parity(case: &Case, layout: &DataLayout, r: &mut Report) {
    use mlc_core::rescache::report_from_json;
    use mlc_core::{try_optimize, OptimizeOptions};
    use mlc_telemetry::json::JsonValue;

    let oracle = "serve-parity";
    let (p, h) = (&case.program, &case.hierarchy);
    let text = match crate::corpus::write_case(case, None) {
        Ok(t) => t,
        Err(e) => {
            r.skip(oracle, format!("case does not serialize: {e}"));
            return;
        }
    };
    let addr = match serve_parity_addr() {
        Ok(a) => a,
        Err(e) => {
            r.skip(oracle, e);
            return;
        }
    };
    let request = |path: &str| -> Result<mlc_serve::ClientResponse, String> {
        mlc_serve::send_request(addr, "POST", path, &text).map_err(|e| e.to_string())
    };
    let parse_body = |body: &str| -> Result<JsonValue, String> {
        JsonValue::parse(body).map_err(|e| format!("unparseable response body: {e:?}"))
    };
    let served_report = |json: &JsonValue, field: &str| -> Result<_, String> {
        let report = field
            .split('.')
            .try_fold(json, |v, k| v.get(k).ok_or(format!("no {field} field")))?;
        report_from_json(report)
    };

    // /simulate, differentially on the success AND the error path.
    let mut base_simulates = true;
    for (label, query, inproc) in [
        (
            "cold",
            "/simulate?protocol=cold",
            try_simulate_with(p, layout, h, true),
        ),
        (
            "steady",
            "/simulate?protocol=steady&warmup=1&timed=1",
            try_simulate_steady_with(p, layout, h, 1, 1, true),
        ),
    ] {
        let resp = match request(query) {
            Ok(resp) => resp,
            Err(e) => {
                r.fail(oracle, format!("{label}: transport error: {e}"));
                return;
            }
        };
        match (inproc, resp.status) {
            (Ok(expected), 200) => {
                let parsed = match parse_body(&resp.body).and_then(|json| {
                    let report = served_report(&json, "report")?;
                    let pads: Option<Vec<u64>> = json
                        .get("pads")
                        .and_then(JsonValue::as_array)
                        .map(|a| a.iter().filter_map(JsonValue::as_u64).collect());
                    Ok((report, pads))
                }) {
                    Ok(x) => x,
                    Err(e) => {
                        r.fail(oracle, format!("{label}: {e}"));
                        return;
                    }
                };
                let (served, pads) = parsed;
                if served != expected {
                    r.fail(
                        oracle,
                        format!(
                            "{label}: served report diverges: in-process {expected:?}, \
                             served {served:?}"
                        ),
                    );
                    return;
                }
                if pads.as_deref() != Some(&case.pads[..]) {
                    r.fail(
                        oracle,
                        format!("{label}: served pads {pads:?} != case pads {:?}", case.pads),
                    );
                    return;
                }
            }
            (Err(_), 422) => {
                // Both sides reject the trace IR: the error path agrees.
                base_simulates = false;
            }
            (Ok(_), status) => {
                r.fail(
                    oracle,
                    format!(
                        "{label}: simulates in-process but server answered {status}: {}",
                        resp.body
                    ),
                );
                return;
            }
            (Err(e), status) => {
                r.fail(
                    oracle,
                    format!(
                        "{label}: in-process trace error ({e}) but server answered \
                         {status} instead of 422: {}",
                        resp.body
                    ),
                );
                return;
            }
        }
    }

    // /optimize: same pads, same before/after counters, same failure mode.
    // Mirror the server's target resolution: `multi` degrades to the L1
    // pipeline on a single-level hierarchy.
    let options = if h.depth() >= 2 {
        OptimizeOptions::multilvl_group()
    } else {
        OptimizeOptions::l1_group()
    };
    let inproc = caught(|| try_optimize(p, h, &options));
    let resp = match request("/optimize") {
        Ok(resp) => resp,
        Err(e) => {
            r.fail(oracle, format!("optimize: transport error: {e}"));
            return;
        }
    };
    match (inproc, resp.status, base_simulates) {
        (Ok(Ok(opt)), 200, true) => {
            let expected_pads = opt.layout.pads(&opt.program.arrays);
            let expected_after =
                match try_simulate_steady_with(&opt.program, &opt.layout, h, 1, 1, true) {
                    Ok(report) => report,
                    Err(e) => {
                        r.fail(
                            oracle,
                            format!("optimized program does not simulate in-process: {e}"),
                        );
                        return;
                    }
                };
            let parsed = parse_body(&resp.body).and_then(|json| {
                let after = served_report(&json, "after.report")?;
                let pads: Option<Vec<u64>> = json
                    .get("pads")
                    .and_then(JsonValue::as_array)
                    .map(|a| a.iter().filter_map(JsonValue::as_u64).collect());
                Ok((after, pads))
            });
            let (after, pads) = match parsed {
                Ok(x) => x,
                Err(e) => {
                    r.fail(oracle, format!("optimize: {e}"));
                    return;
                }
            };
            if pads.as_deref() != Some(&expected_pads[..]) {
                r.fail(
                    oracle,
                    format!("optimize: served pads {pads:?} != in-process {expected_pads:?}"),
                );
                return;
            }
            if after != expected_after {
                r.fail(
                    oracle,
                    format!(
                        "optimize: served after-report diverges: in-process \
                         {expected_after:?}, served {after:?}"
                    ),
                );
                return;
            }
        }
        (_, 422, false) => {} // both sides already agreed the IR is bad
        (Err(msg), 422, _) if is_search_exhaustion(&msg) => {
            if !resp.body.contains("search_exhausted") {
                r.fail(
                    oracle,
                    format!(
                        "optimize: search exhausted in-process but server answered \
                         a different 422: {}",
                        resp.body
                    ),
                );
                return;
            }
        }
        (Ok(Err(_)), 422, _) => {} // pipeline rejection agrees (optimize_failed)
        (inproc, status, _) => {
            r.fail(
                oracle,
                format!(
                    "optimize: outcome mismatch: in-process {:?}, server {status}: {}",
                    inproc.map(|res| res.map(|o| o.layout.pads(&o.program.arrays))),
                    resp.body
                ),
            );
            return;
        }
    }
    r.checked.push(oracle);
}

/// The content-addressed result cache must be transparent: for an
/// arbitrary generated case, a result stored then re-read from disk is
/// bitwise identical to a fresh uncached simulation, under both the cold
/// and the steady protocol. The integer-count payload encoding
/// (`rescache::report_to_json`) makes exact equality the right check.
fn check_cache_parity(case: &Case, layout: &DataLayout, r: &mut Report) {
    use mlc_core::rescache::{CacheKey, ResultCache, SimProtocol};
    let oracle = "cache-parity";
    let (p, h) = (&case.program, &case.hierarchy);

    static NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mlc-fuzz-cache-parity-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let cache = match ResultCache::open(&dir) {
        Ok(c) => c,
        Err(e) => {
            r.skip(oracle, format!("cannot create temp cache dir: {e}"));
            return;
        }
    };

    for (label, protocol, uncached) in [
        (
            "cold",
            SimProtocol::Cold,
            try_simulate_with(p, layout, h, true),
        ),
        (
            "steady",
            SimProtocol::Steady {
                warmup: 1,
                timed: 1,
            },
            try_simulate_steady_with(p, layout, h, 1, 1, true),
        ),
    ] {
        let uncached = match uncached {
            Ok(report) => report,
            Err(e) => {
                r.skip(oracle, format!("{label}: case does not simulate: {e}"));
                let _ = std::fs::remove_dir_all(&dir);
                return;
            }
        };
        let key = CacheKey::derive(p, layout, h, protocol);
        // First pass computes and stores; second pass must be served from
        // disk. Both must equal the direct simulation exactly.
        let stored = cache.get_or_compute(key, || uncached.clone());
        let reloaded = match caught(|| {
            cache.get_or_compute(key, || panic!("second lookup was not served from disk"))
        }) {
            Ok(report) => report,
            Err(e) => {
                r.fail(oracle, format!("{label}: {e}"));
                let _ = std::fs::remove_dir_all(&dir);
                return;
            }
        };
        if stored != uncached || reloaded != uncached {
            r.fail(
                oracle,
                format!(
                    "{label}: cached result diverges from uncached simulation: \
                     uncached {uncached:?}, stored {stored:?}, reloaded {reloaded:?}"
                ),
            );
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
    }
    let stats = cache.stats();
    if stats.hits < 2 || stats.corrupt != 0 || stats.stale != 0 {
        r.fail(
            oracle,
            format!(
                "cache traffic is wrong for store-then-reload: {} hits, {} corrupt, {} stale",
                stats.hits, stats.corrupt, stats.stale
            ),
        );
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let _ = std::fs::remove_dir_all(&dir);
    r.checked.push(oracle);
}

/// GROUPPAD's interval sweep vs the exhaustive scalar scan:
/// bitwise-identical pads, bases and positions-tried, on GROUPPAD and its
/// multi-level form.
fn check_search_parity(case: &Case, r: &mut Report) {
    let oracle = "search-parity";
    let (p, h) = (&case.program, &case.hierarchy);
    let fast = caught(|| {
        let g = group_pad(p, h.l1());
        let m = (h.depth() >= 2).then(|| group_pad_multi(p, h));
        (g, m)
    });
    let scalar = caught(|| {
        let l1 = h.l1();
        let g = group_pad_quantized_exhaustive(p, l1, l1.line as u64, &[])
            .expect("cache line divides cache size");
        let m = (h.depth() >= 2).then(|| group_pad_multi_exhaustive(p, h));
        (g, m)
    });

    match (fast, scalar) {
        (Ok((gf, mf)), Ok((gs, ms))) => {
            let mut diverged = false;
            let mut cmp = |label: &str, f: &PadResult, s: &PadResult| {
                if f.pads != s.pads || f.layout != s.layout {
                    diverged = true;
                    r.fail(
                        oracle,
                        format!(
                            "{label}: sweep pads {:?} vs exhaustive pads {:?}",
                            f.pads, s.pads
                        ),
                    );
                }
                if f.positions_tried != s.positions_tried {
                    diverged = true;
                    r.fail(
                        oracle,
                        format!(
                            "{label}: positions_tried {} (sweep) vs {} (exhaustive)",
                            f.positions_tried, s.positions_tried
                        ),
                    );
                }
                if s.positions_scored != s.positions_tried {
                    diverged = true;
                    r.fail(
                        oracle,
                        format!(
                            "{label}: exhaustive scan reports scored {} != tried {}",
                            s.positions_scored, s.positions_tried
                        ),
                    );
                }
                if f.positions_scored > f.positions_tried {
                    diverged = true;
                    r.fail(
                        oracle,
                        format!(
                            "{label}: sweep scored {} > tried {}",
                            f.positions_scored, f.positions_tried
                        ),
                    );
                }
            };
            cmp("group_pad(L1)", &gf, &gs);
            match (&mf, &ms) {
                (None, None) => {}
                (Some(Ok(f)), Some(Ok(s))) => cmp("group_pad_multi", f, s),
                (Some(Err(ef)), Some(Err(es))) if ef == es => {}
                (f, s) => {
                    diverged = true;
                    r.fail(
                        oracle,
                        format!("group_pad_multi outcome differs: sweep {f:?} vs exhaustive {s:?}"),
                    );
                }
            }
            if !diverged {
                r.checked.push(oracle);
            }
        }
        (Err(e), _) | (_, Err(e)) => r.fail(oracle, format!("padding search panicked: {e}")),
    }
}

/// `MULTILVLPAD` (and the explicit per-level `PAD`) leave no severe
/// conflict at *any* level — the Section 3.1.2 claim that padding against
/// the virtual cache `(S1, Lmax)` suffices for the whole hierarchy.
fn check_multilvlpad(case: &Case, r: &mut Report) {
    let oracle = "multilvlpad-clears-all-levels";
    let (p, h) = (&case.program, &case.hierarchy);
    let conflict_free = |label: &str, result: PadResult, r: &mut Report| -> bool {
        let mut clean = true;
        for (lvl, &cache) in h.levels.iter().enumerate() {
            let left = severe_conflicts(p, &result.layout, cache);
            if !left.is_empty() {
                clean = false;
                r.fail(
                    oracle,
                    format!(
                        "{label} left {} severe conflict(s) at L{} ({} B), e.g. {:?}",
                        left.len(),
                        lvl + 1,
                        cache.size,
                        left[0]
                    ),
                );
            }
        }
        clean
    };
    let multi = caught(|| multilvl_pad(p, h));
    let per_level = caught(|| pad_all_levels(p, h));
    let mut ran = true;
    match multi {
        Ok(result) => {
            if !conflict_free("MULTILVLPAD", result, r) {
                return;
            }
        }
        Err(e) if is_search_exhaustion(&e) => {
            ran = false;
            r.skip(oracle, format!("MULTILVLPAD exhausted its pad budget: {e}"));
        }
        Err(e) => {
            r.fail(oracle, format!("MULTILVLPAD panicked: {e}"));
            return;
        }
    }
    match per_level {
        Ok(result) => {
            if !conflict_free("pad_all_levels", result, r) {
                return;
            }
        }
        Err(e) if is_search_exhaustion(&e) => {
            ran = false;
            r.skip(
                oracle,
                format!("pad_all_levels exhausted its pad budget: {e}"),
            );
        }
        Err(e) => {
            r.fail(oracle, format!("pad_all_levels panicked: {e}"));
            return;
        }
    }
    if ran {
        r.checked.push(oracle);
    }
}

/// `L2MAXPAD` preserves the GROUPPAD L1 layout exactly: every base address
/// unchanged mod `S1`, every extra pad an `S1` multiple, the count of
/// references exploiting group reuse on L1 untouched (Section 3.2.2), and,
/// where [`compare_l1_counts`] applies, the simulated L1 counts too.
fn check_l2maxpad(case: &Case, r: &mut Report) {
    let oracle = "l2maxpad-preserves-l1";
    let (p, h) = (&case.program, &case.hierarchy);
    if h.depth() < 2 {
        r.skip(oracle, "hierarchy has a single level".to_string());
        return;
    }
    let (l1, l2) = (h.levels[0], h.levels[1]);
    let g = match caught(|| group_pad(p, l1)) {
        Ok(g) => g,
        Err(e) => {
            r.fail(oracle, format!("group_pad panicked: {e}"));
            return;
        }
    };
    let m = match caught(|| l2_max_pad(p, l1, l2, &g.pads)) {
        Ok(Ok(m)) => m,
        Ok(Err(e)) => {
            r.fail(
                oracle,
                format!("l2_max_pad rejected a nested hierarchy: {e}"),
            );
            return;
        }
        Err(e) => {
            r.fail(oracle, format!("l2_max_pad panicked: {e}"));
            return;
        }
    };
    let s1 = l1.size as u64;
    for (k, (a, b)) in g.layout.bases.iter().zip(&m.layout.bases).enumerate() {
        if a % s1 != b % s1 {
            r.fail(
                oracle,
                format!("array {k} base moved on L1: {a} mod {s1} != {b} mod {s1}"),
            );
            return;
        }
    }
    for (k, (gp, mp)) in g.pads.iter().zip(&m.pads).enumerate() {
        if mp < gp || (mp - gp) % s1 != 0 {
            r.fail(
                oracle,
                format!("array {k}: extra pad {mp} - {gp} is not a non-negative S1 multiple"),
            );
            return;
        }
    }
    let before = exploited_count(p, &g.layout, l1, &[]);
    let after = exploited_count(p, &m.layout, l1, &[]);
    if before != after {
        r.fail(
            oracle,
            format!("L1 exploited count changed: {before} before L2MAXPAD, {after} after"),
        );
        return;
    }
    if let Err(detail) = compare_l1_counts(p, h, &g.layout, &m.layout) {
        r.fail(oracle, detail);
        return;
    }
    r.checked.push(oracle);
}

/// Shifting every array base by `k·Lmax` bytes, `Lmax` the largest line,
/// moves every line a whole number of lines at every level, so the access
/// stream of each set moves intact to another set and the cold caches are
/// alike: every per-level access, miss and write-back count must stay the
/// same after a cold sweep and after a second sweep (so cold and steady,
/// 1 + 1), on every engine [`lockstep`] runs: scalar replay, run-length
/// replay and the memo. The translated route of `Hierarchy::run_group`
/// rests on this symmetry. The shifts are `Lmax` and `3·Lmax`, a multiple
/// of no cache size larger than `Lmax`, and the largest cache size, a
/// multiple of every one.
fn check_base_shift(case: &Case, r: &mut Report) {
    let oracle = "base-shift-invariance";
    let h = &case.hierarchy;
    if case.pads.is_empty() {
        r.skip(oracle, "program has no arrays".to_string());
        return;
    }
    let lmax = h.max_line() as u64;
    let smax = h.levels.iter().map(|l| l.size).max().unwrap_or(1) as u64;
    let counts = |case: &Case| caught(|| shift_counts(case)).and_then(|r| r);
    let Ok(base) = counts(case) else {
        r.skip(oracle, "case does not simulate".to_string());
        return;
    };
    for shift in [lmax, 3 * lmax, smax] {
        let mut moved = case.clone();
        moved.pads[0] += shift;
        if moved.validate().is_err() {
            r.skip(
                oracle,
                format!("a {shift} B shift leaves the address range"),
            );
            return;
        }
        match counts(&moved) {
            Ok(c) => {
                if let Some(((sweep, engine, from), (_, _, to))) =
                    base.iter().zip(&c).find(|(b, m)| b != m)
                {
                    r.fail(
                        oracle,
                        format!(
                            "{engine}: shifting every base by {shift} B (Lmax {lmax}) changes \
                             the per-level counts and write-backs after sweep {sweep} \
                             from {from:?} to {to:?}"
                        ),
                    );
                    return;
                }
            }
            Err(e) => {
                r.fail(
                    oracle,
                    format!("the {shift} B shift does not simulate: {e}"),
                );
                return;
            }
        }
    }
    r.checked.push(oracle);
}

/// Every engine's per-level counts and write-backs after each of two sweeps
/// of the case, run in [`lockstep`], as (sweep, engine, (counts,
/// write-backs)) in sweep order.
#[allow(clippy::type_complexity)]
fn shift_counts(
    case: &Case,
) -> Result<Vec<(usize, &'static str, (Vec<LevelStats>, Vec<u64>))>, String> {
    let mut counts = Vec::new();
    let build = || Hierarchy::new(case.hierarchy.clone());
    lockstep(&case.program, &case.layout(), build, 2, |sweep, engines| {
        for (engine, outcome, h) in engines {
            if let Err(e) = outcome {
                return Err(e.to_string());
            }
            counts.push((sweep + 1, engine, (h.stats(), h.writebacks())));
        }
        Ok(())
    })?;
    Ok(counts)
}

/// Compare the simulated L1 counters (cold, and steady after one warm-up
/// sweep) of two layouts whose bases agree mod `S1`. The counts must match
/// when no L1 line holds bytes of two arrays in either layout: every L1
/// line then holds the same bytes in the same set under both layouts, and
/// L1 outcomes never depend on deeper levels (levels are non-inclusive and
/// nothing below L1 feeds back into it). A shared line is excluded because
/// moving one of its arrays by `S1` splits it into two lines.
///
/// Returns whether the counts were compared; `Err` names a mismatch. A
/// layout the trace generator rejects is not compared.
fn compare_l1_counts(
    p: &Program,
    h: &HierarchyConfig,
    a: &DataLayout,
    b: &DataLayout,
) -> Result<bool, String> {
    let line = h.levels[0].line as u64;
    if shares_a_line(p, a, line) || shares_a_line(p, b, line) {
        return Ok(false);
    }
    for (proto, ra, rb) in [
        (
            "cold",
            try_simulate_with(p, a, h, true),
            try_simulate_with(p, b, h, true),
        ),
        (
            "steady",
            try_simulate_steady_with(p, a, h, 1, 1, true),
            try_simulate_steady_with(p, b, h, 1, 1, true),
        ),
    ] {
        let (Ok(ra), Ok(rb)) = (ra, rb) else {
            return Ok(false);
        };
        if ra.levels[0] != rb.levels[0] {
            return Err(format!(
                "{proto} L1 counts changed: {:?} under GROUPPAD, {:?} under L2MAXPAD",
                ra.levels[0], rb.levels[0]
            ));
        }
    }
    Ok(true)
}

/// Whether some `line`-byte cache line holds bytes of two arrays.
fn shares_a_line(p: &Program, layout: &DataLayout, line: u64) -> bool {
    let mut spans: Vec<(u64, u64)> = p
        .arrays
        .iter()
        .enumerate()
        .map(|(k, a)| {
            let base = layout.bases[k];
            (base, base + layout.family(k).alloc_bytes(a))
        })
        .collect();
    spans.sort_unstable();
    spans
        .windows(2)
        .any(|w| (w[0].1 - 1) / line >= w[1].0 / line)
}

/// The fusion cost model's published fields must be internally consistent:
/// deltas match the before/after accountings, the weighted cost matches
/// [`accounting_cost`], the accounting conserves references, and the fused
/// program is a valid program laid out the way the model claims.
fn check_fusion_model(case: &Case, r: &mut Report) {
    let oracle = "fusion-model";
    let (p, h) = (&case.program, &case.hierarchy);
    if h.depth() < 2 {
        r.skip(oracle, "hierarchy has a single level".to_string());
        return;
    }
    if p.nests.len() < 2 {
        r.skip(oracle, "program has a single nest".to_string());
        return;
    }
    let (l1, l2) = (h.levels[0], h.levels[1]);
    let costs = MissCosts::from_hierarchy(h);
    let mut judged = false;
    for at in 0..p.nests.len() - 1 {
        let d = match caught(|| fusion_profit(p, at, l1, l2, &costs)) {
            Ok(Ok(d)) => d,
            Ok(Err(_)) => continue, // illegal fusion: nothing to check
            Err(e) => {
                r.fail(oracle, format!("fusion_profit({at}) panicked: {e}"));
                return;
            }
        };
        judged = true;
        if d.delta_l2_refs != d.after.l2_refs as i64 - d.before.l2_refs as i64
            || d.delta_memory_refs != d.after.memory_refs as i64 - d.before.memory_refs as i64
        {
            r.fail(
                oracle,
                format!(
                    "at {at}: deltas ({}, {}) disagree with accountings {:?} -> {:?}",
                    d.delta_l2_refs, d.delta_memory_refs, d.before, d.after
                ),
            );
            return;
        }
        let recomputed = accounting_cost(&d.after, &costs) - accounting_cost(&d.before, &costs);
        if (d.delta_cost - recomputed).abs() > 1e-6 {
            r.fail(
                oracle,
                format!(
                    "at {at}: delta_cost {} != recomputed {}",
                    d.delta_cost, recomputed
                ),
            );
            return;
        }
        for (acc, prog, label) in [(&d.before, p, "before"), (&d.after, &d.fused, "after")] {
            let body_refs: usize = prog.nests.iter().map(|n| n.body.len()).sum();
            let classified: usize = acc.per_nest.iter().map(|c| c.len()).sum();
            let bucketed = acc.register_refs + acc.l1_refs + acc.l2_refs + acc.memory_refs;
            if classified != body_refs || bucketed != body_refs {
                r.fail(
                    oracle,
                    format!(
                        "at {at} ({label}): accounting covers {classified} refs, buckets {bucketed}, \
                         program has {body_refs}"
                    ),
                );
                return;
            }
        }
        if let Err(e) = d.fused.validate() {
            r.fail(oracle, format!("at {at}: fused program invalid: {e}"));
            return;
        }
        let expected_layout = match caught(|| reuse_layout(&d.fused, l1, l2)) {
            Ok(l) => l,
            Err(e) => {
                r.fail(oracle, format!("at {at}: reuse_layout panicked: {e}"));
                return;
            }
        };
        if d.fused_layout != expected_layout {
            r.fail(
                oracle,
                format!(
                    "at {at}: fused_layout bases {:?} != recomputed GROUPPAD+L2MAXPAD bases {:?}",
                    d.fused_layout.bases, expected_layout.bases
                ),
            );
            return;
        }
    }
    if judged {
        r.checked.push(oracle);
    } else {
        r.skip(oracle, "no legal fusion candidate".to_string());
    }
}

/// The analytic miss estimator must rank layouts the way the simulator
/// does, on cases satisfying its assumptions (unit steps, constant bounds).
/// Ranking is compared between the case layout, the contiguous layout and
/// the GROUPPAD+L2MAXPAD reuse layout with an indifference band of
/// [`ESTIMATOR_ORDER_MARGIN`].
fn check_estimator_agreement(case: &Case, layout: &DataLayout, r: &mut Report) {
    let oracle = "estimator-agreement";
    let (p, h) = (&case.program, &case.hierarchy);
    if h.depth() < 2 {
        r.skip(oracle, "hierarchy has a single level".to_string());
        return;
    }
    if !layout.fully_affine() {
        r.skip(oracle, "non-affine layout family".to_string());
        return;
    }
    if p.nests.iter().any(|n| n.loops.iter().any(|l| l.step != 1)) {
        r.skip(oracle, "non-unit or reversed loop steps".to_string());
        return;
    }
    // The estimator amortizes conflict misses over a steady-state inner
    // loop; with a handful of iterations a predicted eviction may simply
    // never come due, so rankings only bind on real trip counts.
    let inner_trip_ok = p.nests.iter().all(|n| {
        let inner = n.innermost();
        match (inner.lowers.first(), inner.uppers.first()) {
            (Some(lo), Some(hi)) if lo.is_constant() && hi.is_constant() => {
                hi.constant_term() - lo.constant_term() + 1 >= MIN_ESTIMATOR_TRIP
            }
            _ => false,
        }
    });
    if !inner_trip_ok {
        r.skip(
            oracle,
            format!("an innermost trip count is below {MIN_ESTIMATOR_TRIP}"),
        );
        return;
    }
    let reuse = match caught(|| reuse_layout(p, h.levels[0], h.levels[1])) {
        Ok(l) => l,
        Err(e) => {
            r.fail(oracle, format!("reuse_layout panicked: {e}"));
            return;
        }
    };
    let contiguous = DataLayout::contiguous(&p.arrays);
    let layouts = [layout, &contiguous, &reuse];
    let mut sim_rates = Vec::new();
    let mut est_rates = Vec::new();
    for l in layouts {
        // Cold rates, not steady-state: the estimator charges each reference
        // once per new cache line (with a footprint cap), which is cold-run
        // accounting — steady-state residency would hide exactly the
        // streaming misses it is built to count.
        match try_simulate_with(p, l, h, true) {
            Ok(report) => sim_rates.push([report.miss_rate(0), report.miss_rate(1)]),
            Err(e) => {
                r.fail(oracle, format!("simulation failed: {e}"));
                return;
            }
        }
        let est = estimate_misses(p, l, h);
        est_rates.push([est.miss_rate(0), est.miss_rate(1)]);
    }
    for level in 0..2 {
        for i in 0..layouts.len() {
            for j in 0..layouts.len() {
                let (si, sj) = (sim_rates[i][level], sim_rates[j][level]);
                let (ei, ej) = (est_rates[i][level], est_rates[j][level]);
                if si + ESTIMATOR_ORDER_MARGIN < sj && ei > ej + ESTIMATOR_ORDER_MARGIN {
                    r.fail(
                        oracle,
                        format!(
                            "level {level}: simulator ranks layout {i} ({si:.3}) well below \
                             layout {j} ({sj:.3}) but estimator inverts it ({ei:.3} vs {ej:.3})"
                        ),
                    );
                    return;
                }
            }
        }
    }
    r.checked.push(oracle);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::CaseConfig;

    #[test]
    fn small_seed_sweep_is_clean() {
        // A handful of cases must pass every oracle; the full sweep runs in
        // the fuzz binary and CI. Failures here mean a real regression.
        let cfg = CaseConfig::default();
        for seed in 0..12 {
            let case = Case::generate(seed, &cfg);
            let report = check_case(&case);
            assert!(
                report.violations.is_empty(),
                "seed {seed} ({}): {:?}",
                case.size_summary(),
                report.violations
            );
            assert!(!report.checked.is_empty(), "seed {seed} checked nothing");
        }
    }

    #[test]
    fn every_oracle_judges_some_case() {
        // Gates must not silently starve an oracle: over a modest sweep,
        // every oracle in the table runs at least once.
        let cfg = CaseConfig::default();
        let mut seen: Vec<&'static str> = Vec::new();
        for seed in 0..40 {
            let report = check_case(&Case::generate(seed, &cfg));
            for name in report.checked {
                if !seen.contains(&name) {
                    seen.push(name);
                }
            }
        }
        for name in ORACLES {
            assert!(seen.contains(name), "oracle {name} never ran in 40 cases");
        }
    }

    #[test]
    fn repeated_nests_reach_the_memo() {
        // Generated nests are too small for the analytic engine's memo, so
        // on the cases themselves the engine-parity oracle checks only its
        // declines. Their repeat variants must reach it: all 200 of seeds
        // 0-199 take a memo hit, and the floor leaves room for a case whose
        // every nest is unofferable (non-constant bounds, Morton families).
        let cfg = CaseConfig::default();
        let hits = (0..200)
            .filter(|&seed| {
                let case = Case::generate(seed, &cfg);
                let layout = case.layout();
                let q = repeated_nests(&case.program, &layout);
                let build = || Hierarchy::new(case.hierarchy.clone());
                matches!(engine_parity(&q, &layout, build, PARITY_SWEEPS), Ok(Ok(hits)) if hits > 0)
            })
            .count();
        assert!(hits >= 190, "{hits} of 200 repeat variants took a memo hit");
    }

    /// GROUPPAD and L2MAXPAD layouts of a generated case, when both
    /// searches succeed on a hierarchy of two or more levels.
    fn l2maxpad_pair(case: &Case) -> Option<(DataLayout, DataLayout)> {
        let (p, h) = (&case.program, &case.hierarchy);
        if h.depth() < 2 {
            return None;
        }
        let g = caught(|| group_pad(p, h.levels[0])).ok()?;
        let m = caught(|| l2_max_pad(p, h.levels[0], h.levels[1], &g.pads))
            .ok()?
            .ok()?;
        Some((g.layout, m.layout))
    }

    #[test]
    fn l2maxpad_l1_counts_are_compared_on_moved_layouts() {
        // The count comparison must not be starved by its line-sharing
        // condition: on some generated case it runs where L2MAXPAD moved a
        // base, so the two simulations differ in their L2 layout.
        let cfg = CaseConfig::default();
        let compared = (0..40)
            .filter(|&seed| {
                let case = Case::generate(seed, &cfg);
                l2maxpad_pair(&case).is_some_and(|(g, m)| {
                    g.bases != m.bases
                        && compare_l1_counts(&case.program, &case.hierarchy, &g, &m) == Ok(true)
                })
            })
            .count();
        assert!(compared > 0, "no moved layout had its L1 counts compared");
    }

    #[test]
    fn l2maxpad_l1_counts_may_differ_when_arrays_share_a_line() {
        // Seed 98: GROUPPAD leaves two arrays on one L1 line, L2MAXPAD
        // moves one of them by a multiple of S1 and so splits that line,
        // and the L1 miss counts differ. The comparison must exclude it.
        let case = Case::generate(98, &CaseConfig::default());
        let (p, h) = (&case.program, &case.hierarchy);
        let (g, m) = l2maxpad_pair(&case).expect("both searches succeed");
        assert!(shares_a_line(p, &g, h.levels[0].line as u64));
        let l1 = |layout: &DataLayout| try_simulate_with(p, layout, h, true).unwrap().levels[0];
        assert_ne!(l1(&g), l1(&m));
        assert_eq!(compare_l1_counts(p, h, &g, &m), Ok(false));
    }
}
