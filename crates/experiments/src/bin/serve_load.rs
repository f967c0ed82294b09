//! Load generator for the `mlc-serve` HTTP service.
//!
//! Replays a deterministic fuzz-generated request stream
//! (`mlc_fuzz::requests`) against a server — a private in-process one by
//! default, or an external `--addr` — from `--clients` concurrent
//! connections, and reports the latency distribution plus the
//! coalesced/cached share of the work as JSON (default
//! `BENCH_serve_latency.json`).
//!
//! ```text
//! serve_load [--addr HOST:PORT] [--requests N] [--clients N] [--pool N]
//!            [--optimize-percent P] [--seed S] [--out PATH]
//! ```
//!
//! Exit status 0 means every request got a 2xx answer; 1 means some did
//! not (a 4xx, a 5xx, or a 429 still refused after the last retry) or the
//! run itself failed; 2 means bad usage, reported before any request.
//!
//! The stream deliberately draws its bodies from a small case pool, so
//! identical `CacheKey`s recur and the rescache front's hit/coalesce path
//! is on the measured path — `cache_hit_rate` is the share of simulate
//! lookups served without a fresh compute. Self-hosted runs size the
//! admission queue to the client count, so a healthy run records zero
//! 429s; against an external `--addr` the generator retries queue-full
//! answers after the advertised `Retry-After` and reports the retry count.
//! `--threads` (via the shared `TelemetryCli` extractor) sizes the
//! self-hosted worker pool.

use mlc_experiments::{flag_value, TelemetryCli};
use mlc_fuzz::requests::{RequestStream, RequestStreamConfig};
use mlc_serve::{send_request, Server, ServerConfig};
use mlc_telemetry::json::JsonValue;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Give up on a request after this many queue-full retries.
const MAX_RETRIES_429: u32 = 50;

/// A failed run: exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("serve_load: {msg}");
    std::process::exit(1);
}

/// Bad usage: exit 2, before any request is sent.
fn usage(msg: &str) -> ! {
    eprintln!("serve_load: {msg}");
    std::process::exit(2);
}

struct Sample {
    micros: u64,
    status: u16,
    retries: u32,
}

fn main() {
    let (tcli, argv) = TelemetryCli::from_env();

    let mut addr: Option<SocketAddr> = None;
    let mut requests = 200usize;
    let mut clients = 4usize;
    let mut pool = 8usize;
    let mut optimize_percent = 10u64;
    let mut seed = 0u64;
    let mut out = String::from("BENCH_serve_latency.json");
    let mut it = argv.into_iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = Some(flag_value(it.next(), "--addr", "HOST:PORT", |_| true));
            }
            "--requests" => {
                requests = flag_value(it.next(), "--requests", "a positive count", |&n| n > 0);
            }
            "--clients" => {
                clients = flag_value(it.next(), "--clients", "a positive count", |&n| n > 0);
            }
            "--pool" => pool = flag_value(it.next(), "--pool", "a positive count", |&n| n > 0),
            "--optimize-percent" => {
                optimize_percent =
                    flag_value(it.next(), "--optimize-percent", "0..=100", |&n| n <= 100);
            }
            "--seed" => seed = flag_value(it.next(), "--seed", "a number", |_| true),
            "--out" => out = it.next().unwrap_or_else(|| usage("--out needs a path")),
            other => usage(&format!("unknown argument {other}")),
        }
    }

    let stream = RequestStream::generate(
        seed,
        &RequestStreamConfig {
            requests,
            pool,
            optimize_percent,
            ..RequestStreamConfig::default()
        },
    );
    eprintln!(
        "serve_load: {requests} requests over a {pool}-case pool ({} distinct keys), {clients} clients",
        stream.distinct_keys
    );

    // Self-host unless an external address was given. The queue is sized
    // past the client count so backpressure is not part of the measurement.
    let mut hosted = None;
    let addr = match addr {
        Some(a) => a,
        None => {
            let server = Server::start(ServerConfig {
                queue_depth: (2 * clients).max(8),
                cache: tcli.cache.clone(),
                ..ServerConfig::default()
            })
            .unwrap_or_else(|e| fail(&format!("cannot start server: {e}")));
            let a = server.addr();
            eprintln!(
                "serve_load: self-hosting on {a} with {} workers",
                server.workers()
            );
            hosted = Some(server);
            a
        }
    };

    // Replay: every client thread claims the next request index until the
    // stream is exhausted, so the mix each client sees is arbitrary but
    // the total work is exactly the stream.
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = stream.requests.get(i) else {
                            break;
                        };
                        let t0 = Instant::now();
                        let mut retries = 0u32;
                        let status = loop {
                            match send_request(addr, "POST", &req.path_and_query, &req.body) {
                                Ok(resp) if resp.status == 429 && retries < MAX_RETRIES_429 => {
                                    retries += 1;
                                    let secs = resp
                                        .header("retry-after")
                                        .and_then(|v| v.parse().ok())
                                        .unwrap_or(1u64);
                                    // Back off far less than a full second:
                                    // the advertised Retry-After is an upper
                                    // bound meant for polite external
                                    // clients, not a bench harness.
                                    std::thread::sleep(Duration::from_millis(20 * secs));
                                }
                                Ok(resp) => break resp.status,
                                Err(e) => fail(&format!("request {i}: {e}")),
                            }
                        };
                        mine.push(Sample {
                            micros: t0.elapsed().as_micros() as u64,
                            status,
                            retries,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    // Post-run stats from the server itself: the rescache counters say how
    // much of the stream was served without a fresh compute.
    let stats = send_request(addr, "GET", "/stats", "")
        .ok()
        .and_then(|r| JsonValue::parse(&r.body).ok());
    let rescache_u64 = |key: &str| {
        stats
            .as_ref()
            .and_then(|s| s.get("rescache"))
            .and_then(|r| r.get(key))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    let hits = rescache_u64("hits");
    let misses = rescache_u64("misses");
    let coalesced = rescache_u64("coalesced");
    let lookups = hits + misses + coalesced;
    let cache_hit_rate = if lookups == 0 {
        0.0
    } else {
        (hits + coalesced) as f64 / lookups as f64
    };

    if let Some(mut server) = hosted {
        server.shutdown();
    }

    let mut micros: Vec<u64> = samples.iter().map(|s| s.micros).collect();
    micros.sort_unstable();
    let pct = |p: f64| -> f64 {
        let idx = ((micros.len() as f64 * p).ceil() as usize).clamp(1, micros.len()) - 1;
        micros[idx] as f64 / 1e3
    };
    let p50_ms = pct(0.50);
    let p99_ms = pct(0.99);
    let req_per_sec = samples.len() as f64 / elapsed.max(1e-9);
    let ok = samples
        .iter()
        .filter(|s| (200..300).contains(&s.status))
        .count();
    let client_errors = samples
        .iter()
        .filter(|s| (400..500).contains(&s.status))
        .count();
    let server_errors = samples.iter().filter(|s| s.status >= 500).count();
    let retries_429: u32 = samples.iter().map(|s| s.retries).sum();

    assert_eq!(
        samples.len(),
        requests,
        "every stream request must produce exactly one sample"
    );

    let case = format!("r{requests}c{clients}");
    let snapshot = JsonValue::object(vec![
        ("bench", JsonValue::from("serve_latency")),
        ("case", JsonValue::from(case.as_str())),
        ("requests", JsonValue::from(requests as u64)),
        ("clients", JsonValue::from(clients as u64)),
        ("pool", JsonValue::from(pool as u64)),
        (
            "distinct_keys",
            JsonValue::from(stream.distinct_keys as u64),
        ),
        ("seed", JsonValue::from(seed)),
        ("elapsed_s", JsonValue::Num(elapsed)),
        ("p50_ms", JsonValue::Num(p50_ms)),
        ("p99_ms", JsonValue::Num(p99_ms)),
        ("req_per_sec", JsonValue::Num(req_per_sec)),
        ("ok", JsonValue::from(ok as u64)),
        ("client_errors", JsonValue::from(client_errors as u64)),
        ("server_errors", JsonValue::from(server_errors as u64)),
        ("retries_429", JsonValue::from(retries_429 as u64)),
        ("cache_hit_rate", JsonValue::Num(cache_hit_rate)),
        ("rescache_hits", JsonValue::from(hits)),
        ("rescache_misses", JsonValue::from(misses)),
        ("rescache_coalesced", JsonValue::from(coalesced)),
    ]);
    std::fs::write(&out, snapshot.to_string_compact() + "\n")
        .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    eprintln!(
        "serve_load: {} ok / {client_errors} 4xx / {server_errors} 5xx in {elapsed:.3}s — \
         p50 {p50_ms:.2} ms, p99 {p99_ms:.2} ms, {req_per_sec:.0} req/s, \
         cache hit rate {:.1}% ({retries_429} retries); written to {out}",
        ok,
        100.0 * cache_hit_rate,
    );

    let refused = requests - ok;
    if refused > 0 {
        let throttled = samples.iter().filter(|s| s.status == 429).count();
        fail(&format!(
            "{refused} of {requests} requests got no 2xx answer: {client_errors} 4xx \
             ({throttled} of them 429 after {MAX_RETRIES_429} retries), {server_errors} 5xx"
        ));
    }
}
