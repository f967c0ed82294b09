//! The worker-thread count for the parallel sweeps.
//!
//! The fan-out itself is the work-stealing executor in [`crate::exec`];
//! this module decides how many workers it gets: an explicit CLI
//! `--threads` ([`set_thread_override`]), then the `MLC_THREADS`
//! environment variable, then the machine's parallelism
//! ([`default_threads`]).

/// Process-wide thread-count override (0 = none). Set from CLI `--threads`
/// flags so an explicit flag beats the `MLC_THREADS` environment variable
/// everywhere — including nested uses like the Morton layout search's
/// candidate scans, which consult [`default_threads`] well below the CLI
/// layer. Without this, `MLC_THREADS` set in the environment would silently
/// win over an explicit `--threads` inside those nested scans.
static THREAD_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Pin (or with `None` release) the process-wide thread count consulted by
/// [`default_threads`]. CLI entry points call this after parsing
/// `--threads`, giving the explicit flag precedence over `MLC_THREADS`.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(
        threads.map(|n| n.max(1)).unwrap_or(0),
        std::sync::atomic::Ordering::Relaxed,
    );
}

/// The active [`set_thread_override`] value, if any.
pub fn thread_override() -> Option<usize> {
    match THREAD_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Number of worker threads to use for parallel sweeps.
///
/// Precedence: an explicit [`set_thread_override`] (CLI `--threads`), then
/// the `MLC_THREADS` environment variable when it holds a positive integer
/// (`0` clamps to 1, so CI runs can pin parallelism without per-binary
/// flags), then the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Some(n) = thread_override() {
        return n;
    }
    match env_threads(std::env::var("MLC_THREADS").ok().as_deref()) {
        Some(n) => n,
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    }
}

/// Parse an `MLC_THREADS`-style override. Absent, empty, or unparsable
/// values mean "no override" (unparsable ones warn on stderr); numeric
/// values are clamped to at least 1.
pub fn env_threads(value: Option<&str>) -> Option<usize> {
    let s = value?.trim();
    if s.is_empty() {
        return None;
    }
    match s.parse::<usize>() {
        Ok(n) => Some(n.max(1)),
        Err(_) => {
            eprintln!("MLC_THREADS={s:?} is not a thread count; ignoring");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_threads_parses_and_clamps() {
        assert_eq!(env_threads(None), None);
        assert_eq!(env_threads(Some("")), None);
        assert_eq!(env_threads(Some("  ")), None);
        assert_eq!(env_threads(Some("8")), Some(8));
        assert_eq!(env_threads(Some(" 3 ")), Some(3));
        assert_eq!(env_threads(Some("0")), Some(1), "clamped to >= 1");
        assert_eq!(env_threads(Some("lots")), None, "garbage is ignored");
        assert_eq!(env_threads(Some("-2")), None);
    }

    #[test]
    fn default_threads_honors_mlc_threads() {
        // Process-global env: other tests only read MLC_THREADS through
        // default_threads(), where any positive value is valid, so briefly
        // setting it cannot make them wrong.
        std::env::set_var("MLC_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("MLC_THREADS", "0");
        assert_eq!(default_threads(), 1);
        std::env::remove_var("MLC_THREADS");
        assert!(default_threads() >= 1);

        // A CLI --threads value pinned via set_thread_override must win
        // over MLC_THREADS, so an explicit flag holds even when the env
        // var is set. Both knobs are
        // process-global, so this stays in the same #[test] as the env
        // assertions above rather than racing them from a parallel runner.
        std::env::set_var("MLC_THREADS", "7");
        set_thread_override(Some(2));
        assert_eq!(default_threads(), 2, "--threads beats MLC_THREADS");
        assert_eq!(thread_override(), Some(2));
        set_thread_override(Some(0));
        assert_eq!(default_threads(), 1, "override clamps to >= 1");
        set_thread_override(None);
        assert_eq!(default_threads(), 7, "released override falls back to env");
        std::env::remove_var("MLC_THREADS");
        assert!(default_threads() >= 1);
    }
}
