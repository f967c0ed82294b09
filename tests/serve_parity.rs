//! Tier-1 serve-parity battery: the HTTP service must be a pure transport.
//!
//! Every committed `tests/corpus/*.case` file and a fresh sweep of seeded
//! generator cases go through the real server (`POST /simulate`,
//! `POST /optimize` over a loopback socket) and must produce exactly the
//! in-process answers — same per-level miss counters, same pad vectors,
//! and the same typed failures. The differential logic lives in the fuzz
//! battery's `serve-parity` oracle (`mlc_fuzz::oracle`); this test pins it
//! to plain `cargo test` so a wire-format or handler regression cannot
//! land silently. The `serve_load` request stream, replayed from several
//! clients, pins the result-cache front: repeats of a request are answered
//! without computing it again.

use mlc_fuzz::oracle::check_serve_parity_only;
use mlc_fuzz::{corpus, Case, CaseConfig, RequestStream, RequestStreamConfig};
use mlc_serve::{send_request, Server, ServerConfig};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fresh generator cases replayed through the server per run.
const FRESH_CASES: u64 = 200;

#[test]
fn committed_corpus_serves_identically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "regression corpus is empty");

    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let (case, _oracle) = corpus::read_case(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = check_serve_parity_only(&case);
        assert!(
            !report.failed(),
            "{name}: served answers diverge: {:?}",
            report.violations
        );
    }
}

#[test]
fn fresh_seeded_cases_serve_identically() {
    let cfg = CaseConfig::default();
    let mut judged = 0u64;
    for seed in 0..FRESH_CASES {
        let case = Case::generate(seed, &cfg);
        let report = check_serve_parity_only(&case);
        assert!(
            !report.failed(),
            "seed {seed} ({}): served answers diverge: {:?}",
            case.size_summary(),
            report.violations
        );
        if report.checked.contains(&"serve-parity") {
            judged += 1;
        }
    }
    // The oracle may legitimately skip a pathological case (e.g. it does
    // not serialize), but a battery that silently skips most of its input
    // is not a battery.
    assert!(
        judged >= FRESH_CASES * 9 / 10,
        "only {judged}/{FRESH_CASES} cases were actually judged"
    );
}

/// The default `serve_load` stream (seed 0: 200 requests over an 8-case
/// pool), replayed from 4 client threads through a self-hosted server: every
/// request gets a 2xx answer, and the server computes each distinct
/// `(case, endpoint)` key at most once. Racing duplicates coalesce onto one
/// compute and later ones are cache hits, so without the result-cache
/// front nearly every request would compute.
#[test]
fn request_stream_computes_each_distinct_key_at_most_once() {
    let stream = RequestStream::generate(0, &RequestStreamConfig::default());
    let mut server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.addr();
    let next = AtomicUsize::new(0);
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some(req) = stream.requests.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let resp = send_request(addr, "POST", &req.path_and_query, &req.body)
                            .expect("request answered");
                        mine.push(resp.status);
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    let computes = server.counters().computes.load(Ordering::Relaxed);
    server.shutdown();

    assert_eq!(statuses.len(), 200);
    let refused: Vec<u16> = statuses
        .into_iter()
        .filter(|s| !(200..300).contains(s))
        .collect();
    assert!(refused.is_empty(), "answers without 2xx: {refused:?}");
    assert!(
        computes <= stream.distinct_keys as u64,
        "{computes} computes for {} distinct keys",
        stream.distinct_keys
    );
}
