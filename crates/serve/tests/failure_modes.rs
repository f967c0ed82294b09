//! The failure-mode battery: every documented failure answers its typed
//! `(status, code)` pair — never a bare 500, never a worker panic — and
//! overload/shutdown behave as `docs/SERVING.md` promises.

mod common;

use common::{error_code, get, post, start, SIMPLE_CASE};
use mlc_serve::{send_request, Server, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn shutdown(mut server: Server) {
    server.shutdown();
}

#[test]
fn malformed_case_is_typed_400() {
    let server = start(1, 8);
    let resp = post(
        &server,
        "/simulate",
        "seed 0\nprogram broken\nnonsense line\n",
    );
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    assert_eq!(error_code(&resp), "malformed_case");

    // Valid JSON, but not the .case wire format, is still malformed.
    let resp = post(&server, "/optimize", "{\"program\": \"nope\"}");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp), "malformed_case");
    shutdown(server);
}

#[test]
fn empty_body_is_bad_request() {
    let server = start(1, 8);
    let resp = post(&server, "/simulate", "");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp), "bad_request");
    shutdown(server);
}

#[test]
fn negative_address_ir_is_typed_422() {
    // Subscript i-100 over a base-0 layout provably generates negative
    // byte addresses: rejected at nest compile time as invalid_ir.
    let case = "\
seed 0
program negaddr
level 1024 32 1 6
array A 8 64 0 0
nest n0
loop i 0 9 1
ref r 0 -100,i,1
end
";
    let server = start(1, 8);
    let resp = post(&server, "/simulate", case);
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert_eq!(error_code(&resp), "invalid_ir");
    shutdown(server);
}

#[test]
fn many_column_nest_is_served_on_the_auto_engine() {
    // A nest of 140000 two-trip columns: the engine replays it through
    // run-length and records it, and the answer is an exact 200.
    let case = "\
seed 0
program decline
level 1024 32 1 6
array A 8 2,140000 0,0 0
nest n0
loop i 0 139999 1
loop j 0 1 1
ref r 0 0,j,1;0,i,1
end
";
    let server = start(1, 8);
    let resp = post(&server, "/simulate?engine=auto", case);
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    shutdown(server);
}

#[test]
fn oversized_grids_and_budgets_are_typed_422() {
    let server = start(1, 8);

    // 65 timed points x 3 versions > 64-cell cap.
    let timeds: Vec<String> = (1..=65).map(|t| t.to_string()).collect();
    let resp = post(
        &server,
        &format!("/sweep?timed={}", timeds.join(",")),
        SIMPLE_CASE,
    );
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert_eq!(error_code(&resp), "grid_too_large");

    // Sweep counts above the per-request cap.
    let resp = post(&server, "/simulate?warmup=100000", SIMPLE_CASE);
    assert_eq!(resp.status, 422);
    assert_eq!(error_code(&resp), "grid_too_large");

    // timed=0 is meaningless rather than oversized.
    let resp = post(&server, "/simulate?timed=0", SIMPLE_CASE);
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp), "bad_request");
    shutdown(server);
}

#[test]
fn bad_query_parameters_are_bad_request() {
    let server = start(1, 8);
    for query in [
        "/simulate?protocol=lukewarm",
        "/simulate?warmup=many",
        "/simulate?engine=quantum",
        "/simulate?engine=analytic",
        "/optimize?target=l3",
        "/sweep?versions=orig,l9",
    ] {
        let resp = post(&server, query, SIMPLE_CASE);
        assert_eq!(resp.status, 400, "{query}: {}", resp.body);
        assert_eq!(error_code(&resp), "bad_request", "{query}");
    }
    shutdown(server);
}

#[test]
fn unknown_paths_and_methods_are_typed() {
    let server = start(1, 8);
    let resp = post(&server, "/optimise", SIMPLE_CASE); // wrong spelling
    assert_eq!(resp.status, 404);
    assert_eq!(error_code(&resp), "not_found");

    let resp = get(&server, "/simulate");
    assert_eq!(resp.status, 405);
    assert_eq!(error_code(&resp), "method_not_allowed");
    assert_eq!(resp.header("allow"), Some("POST"));

    let resp = post(&server, "/stats", "");
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));
    shutdown(server);
}

#[test]
fn oversized_body_is_payload_too_large() {
    let server = Server::start(ServerConfig {
        workers: Some(1),
        queue_depth: 8,
        max_body_bytes: 4096,
        ..ServerConfig::default()
    })
    .unwrap();
    let big = "x".repeat(5000);
    let resp = send_request(server.addr(), "POST", "/simulate", &big).expect("request");
    assert_eq!(resp.status, 413);
    assert_eq!(error_code(&resp), "payload_too_large");
    shutdown(server);
}

#[test]
fn healthz_reports_ok() {
    let server = start(1, 8);
    let resp = get(&server, "/healthz");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"ok\""));
    shutdown(server);
}

/// Queue-full backpressure and graceful shutdown, deterministically: one
/// worker held at the pause gate with a dequeued connection, one queued
/// connection filling the depth-1 queue, then everything after answers 429
/// with Retry-After — and shutdown still drains both held requests.
#[test]
fn backpressure_answers_429_and_shutdown_drains() {
    let mut server = start(1, 1);
    let addr = server.addr();
    server.pause_workers();

    // Request B: dequeued by the (paused) worker, held at the gate.
    let mut held = TcpStream::connect(addr).unwrap();
    write_simulate(&mut held);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.paused_holding() != 1 {
        assert!(Instant::now() < deadline, "worker never reached the gate");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Request C: admitted into the (depth-1) queue.
    let mut queued = TcpStream::connect(addr).unwrap();
    write_simulate(&mut queued);

    // Requests D, E: queue full; the acceptor answers 429 immediately.
    for _ in 0..2 {
        let resp = send_request(addr, "POST", "/simulate", common::SIMPLE_CASE).unwrap();
        assert_eq!(resp.status, 429, "body: {}", resp.body);
        assert_eq!(error_code(&resp), "queue_full");
        assert_eq!(resp.header("retry-after"), Some("1"));
    }
    assert_eq!(server.counters().queue_full.load(Ordering::SeqCst), 2);

    // Graceful shutdown: both in-flight requests drain with full answers.
    server.shutdown();
    assert_eq!(read_response_status(held), 200);
    assert_eq!(read_response_status(queued), 200);

    // The listener is closed: new connections are refused.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener still accepting"
    );
}

fn write_simulate(stream: &mut TcpStream) {
    let req = format!(
        "POST /simulate HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        SIMPLE_CASE.len(),
        SIMPLE_CASE
    );
    stream.write_all(req.as_bytes()).unwrap();
}

fn read_response_status(stream: TcpStream) -> u16 {
    use std::io::Read;
    let mut stream = stream;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    text.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {text:?}"))
}
