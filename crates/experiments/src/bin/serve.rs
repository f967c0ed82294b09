//! Standalone padding-as-a-service front end.
//!
//! Binds the `mlc-serve` HTTP server (`POST /simulate`, `POST /optimize`,
//! `POST /sweep`, `GET /healthz`, `GET /stats` — see `docs/SERVING.md`)
//! and runs until killed, or for `--duration` seconds when given (the CI
//! smoke shape). The listening address is printed to stdout as
//! `serving on ADDR` so scripts can scrape an OS-assigned port.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--queue-depth N] [--max-body BYTES]
//!       [--duration SECS]
//! ```
//!
//! Exit status 2 means bad usage, reported before the server starts; 1
//! means it could not start or could not write its telemetry outputs.
//!
//! Plus the shared `TelemetryCli` flags: `--threads N` pins the worker
//! pool size process-wide (`workers` defaults to it), `--cache-dir PATH`
//! shares a persistent content-addressed result store across restarts,
//! and `--trace-out` / `--metrics-out` capture per-request spans and the
//! `serve.*` / `serve.rescache.*` counters at shutdown.

use mlc_experiments::{flag_value, TelemetryCli};
use mlc_serve::{Server, ServerConfig};
use std::sync::{Arc, Mutex};

/// A failed run: exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(1);
}

/// Bad usage: exit 2, before the server starts.
fn usage(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(2);
}

fn main() {
    let (mut tcli, args) = TelemetryCli::from_env();

    let mut addr = String::new();
    let mut workers: Option<usize> = None;
    let mut queue_depth = 0usize;
    let mut max_body = 0usize;
    let mut duration: Option<u64> = None;
    let mut it = args.into_iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().unwrap_or_else(|| usage("--addr needs HOST:PORT")),
            "--workers" => {
                workers = Some(flag_value(
                    it.next(),
                    "--workers",
                    "a positive count",
                    |&n| n > 0,
                ));
            }
            "--queue-depth" => {
                queue_depth =
                    flag_value(it.next(), "--queue-depth", "a positive count", |&n| n > 0);
            }
            "--max-body" => {
                max_body = flag_value(it.next(), "--max-body", "a positive byte count", |&n| n > 0);
            }
            "--duration" => {
                duration = Some(flag_value(it.next(), "--duration", "seconds", |_| true));
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }

    // Hand the telemetry bundle to the server for per-request spans; it is
    // reclaimed after shutdown so `finish` writes the serve counters too.
    let shared = tcli
        .is_enabled()
        .then(|| Arc::new(Mutex::new(std::mem::take(&mut tcli.telemetry))));

    let mut server = Server::start(ServerConfig {
        addr,
        workers,
        queue_depth,
        max_body_bytes: max_body,
        cache: tcli.cache.clone(),
        telemetry: shared.clone(),
    })
    .unwrap_or_else(|e| fail(&format!("cannot start: {e}")));

    println!("serving on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    match duration {
        Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
        None => loop {
            // No deadline: serve until the process is killed.
            std::thread::park();
        },
    }

    eprintln!("serve: --duration elapsed, draining");
    server.shutdown();
    if let Some(shared) = shared {
        tcli.telemetry = std::mem::take(&mut *shared.lock().unwrap_or_else(|e| e.into_inner()));
    }
    if let Err(e) = tcli.finish() {
        fail(&format!("writing telemetry outputs: {e}"));
    }
}
