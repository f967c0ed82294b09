//! Work-stealing executor for the embarrassingly parallel sweeps.
//!
//! The evaluation grid (kernels × padding families × hierarchies) and the
//! Morton layout search's candidate scans both fan a fixed, indexed work
//! set out over OS threads. Results never pass through a single consumer (one
//! receiver draining the whole machine's output would make added cores
//! queue behind it instead of finishing the sweep sooner):
//!
//! * **Per-worker chunked deques.** The index space `0..n` is split into
//!   one contiguous chunk per worker. A worker drains its own chunk from
//!   the front one index at a time (an uncontended CAS in the common
//!   case); when its chunk is empty it scans the other chunks and *steals*
//!   half of a victim's remaining range in one claim, so a straggler's
//!   backlog is rebalanced in `O(log)` steals rather than item by item.
//!   Every index is claimed by exactly one worker — claims move a chunk's
//!   atomic cursor forward with bounded CAS, never past its end.
//! * **Direct slot writes.** Results go straight into a pre-sized slot
//!   vector (`slots[i]`), not through a channel: the claim protocol makes
//!   worker `w` the unique writer of any index it claimed, so there is no
//!   single consumer and no per-result synchronization at all.
//! * **Panic-safe joins.** A panicking work item is caught in its worker,
//!   the first payload is kept, every other worker stops at its next
//!   claim, all threads are joined, and the payload is re-raised from the
//!   caller — the executor never returns partial results and never leaves
//!   a `None` slot reachable by an `unwrap`.
//! * **Per-worker telemetry.** Each worker counts items done, items
//!   stolen, and busy/idle wall time; [`ExecReport::install_metrics`]
//!   exports the totals and per-worker distributions into a
//!   [`MetricsRegistry`] (`exec.*` on the experiment binaries).
//!
//! The design follows the lock-free-allocator playbook (per-core chunk
//! ownership with atomic stealing, llfree-style) rather than a general
//! deque library: the work set is static and indexed, so a cursor per
//! chunk is all the structure the problem needs.

use mlc_telemetry::MetricsRegistry;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One worker's share of the telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (also the index of the chunk it owns).
    pub worker: usize,
    /// Items this worker completed (own chunk + stolen).
    pub done: u64,
    /// Of [`WorkerStats::done`], how many were stolen from other chunks.
    pub steals: u64,
    /// Wall time spent inside the work closure, in nanoseconds.
    pub busy_ns: u64,
    /// Wall time spent outside the work closure (claiming, scanning for
    /// steals, exiting), in nanoseconds.
    pub idle_ns: u64,
}

/// What one [`execute`] call did, per worker and in total.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Items in the work set.
    pub items: usize,
    /// Workers actually spawned (`threads` clamped to the item count).
    pub threads: usize,
    /// End-to-end wall time of the parallel section.
    pub elapsed: Duration,
    /// Per-worker counters, indexed by worker.
    pub workers: Vec<WorkerStats>,
}

impl ExecReport {
    /// Total items completed (equals [`ExecReport::items`] on a clean run).
    pub fn total_done(&self) -> u64 {
        self.workers.iter().map(|w| w.done).sum()
    }

    /// Total items obtained by stealing from another worker's chunk.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total worker-nanoseconds spent outside the work closure.
    pub fn total_idle_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.idle_ns).sum()
    }

    /// Total worker-nanoseconds spent inside the work closure.
    pub fn total_busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Items completed per second of wall time (0 when instantaneous).
    pub fn items_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.total_done() as f64 / s
        }
    }

    /// Export the counters into `metrics` under `prefix` (e.g.
    /// `exec.items`, `exec.steals`, plus per-worker `exec.worker_cells`
    /// and `exec.worker_steals` histograms).
    pub fn install_metrics(&self, metrics: &mut MetricsRegistry, prefix: &str) {
        metrics.count(&format!("{prefix}.items"), self.items as u64);
        metrics.count(&format!("{prefix}.done"), self.total_done());
        metrics.count(&format!("{prefix}.steals"), self.total_steals());
        metrics.set_value(&format!("{prefix}.threads"), self.threads as f64);
        metrics.set_value(&format!("{prefix}.elapsed_s"), self.elapsed.as_secs_f64());
        metrics.set_value(
            &format!("{prefix}.busy_s"),
            self.total_busy_ns() as f64 / 1e9,
        );
        metrics.set_value(
            &format!("{prefix}.idle_s"),
            self.total_idle_ns() as f64 / 1e9,
        );
        for w in &self.workers {
            metrics.record(&format!("{prefix}.worker_cells"), w.done);
            metrics.record(&format!("{prefix}.worker_steals"), w.steals);
        }
    }
}

/// One worker's chunk of the index space: a forward-moving cursor with a
/// fixed end. Owners and thieves both claim through the same CAS, so each
/// index in `start..end` is handed out exactly once.
struct Chunk {
    next: AtomicUsize,
    end: usize,
}

impl Chunk {
    /// Claim up to `max_take` indices (but never more than half the
    /// remainder, rounded up, so thieves leave work behind for the owner).
    /// Returns `None` once the chunk is drained.
    fn claim(&self, max_take: usize) -> Option<std::ops::Range<usize>> {
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            if cur >= self.end {
                return None;
            }
            let remaining = self.end - cur;
            let take = remaining.div_ceil(2).min(max_take).max(1);
            match self.next.compare_exchange_weak(
                cur,
                cur + take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(cur..cur + take),
                Err(now) => cur = now,
            }
        }
    }
}

/// Pre-sized result slots. Safety contract: the claim protocol gives every
/// index exactly one claimant, so at most one thread ever writes `data[i]`,
/// and reads only happen after all workers are joined.
struct Slots<R> {
    data: Vec<UnsafeCell<Option<R>>>,
}

// SAFETY: see the struct docs — disjoint indices are written by disjoint
// threads (enforced by the atomic claim), and reads are join-ordered.
unsafe impl<R: Send> Sync for Slots<R> {}

/// Run `f` over `items` on up to `threads` worker threads, preserving
/// order, and report per-worker telemetry. Panics from `f` are re-raised
/// after all workers have stopped (no partial results escape).
pub fn execute<T, R, F>(items: Vec<T>, threads: usize, f: F) -> (Vec<R>, ExecReport)
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return (Vec::new(), ExecReport::default());
    }
    let threads = threads.clamp(1, n);

    // One contiguous chunk per worker, [w·n/threads, (w+1)·n/threads).
    let chunks: Vec<Chunk> = (0..threads)
        .map(|w| Chunk {
            next: AtomicUsize::new(w * n / threads),
            end: (w + 1) * n / threads,
        })
        .collect();
    let slots = Slots {
        data: std::iter::repeat_with(|| UnsafeCell::new(None))
            .take(n)
            .collect(),
    };
    let abort = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let started = Instant::now();
    let worker_stats = std::thread::scope(|s| {
        let chunks = &chunks;
        let slots = &slots;
        let abort = &abort;
        let panic_payload = &panic_payload;
        let items = &items;
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                s.spawn(move || {
                    let t0 = Instant::now();
                    let mut stats = WorkerStats {
                        worker: me,
                        ..WorkerStats::default()
                    };
                    let mut busy = Duration::ZERO;
                    'work: while !abort.load(Ordering::Relaxed) {
                        // Own chunk first, one index at a time; once it is
                        // dry, steal half a victim's remainder in one go.
                        let (range, stolen) = match chunks[me].claim(1) {
                            Some(r) => (r, false),
                            None => {
                                let mut found = None;
                                for off in 1..threads {
                                    let victim = (me + off) % threads;
                                    if let Some(r) = chunks[victim].claim(usize::MAX) {
                                        found = Some(r);
                                        break;
                                    }
                                }
                                match found {
                                    Some(r) => (r, true),
                                    None => break 'work, // everything claimed
                                }
                            }
                        };
                        for i in range {
                            if abort.load(Ordering::Relaxed) {
                                break 'work;
                            }
                            let t1 = Instant::now();
                            let out = catch_unwind(AssertUnwindSafe(|| f(&items[i])));
                            busy += t1.elapsed();
                            match out {
                                Ok(r) => {
                                    // SAFETY: index `i` was claimed exactly
                                    // once (atomic cursor), so this worker
                                    // is its only writer.
                                    unsafe { *slots.data[i].get() = Some(r) };
                                    stats.done += 1;
                                    if stolen {
                                        stats.steals += 1;
                                    }
                                }
                                Err(p) => {
                                    let mut slot =
                                        panic_payload.lock().unwrap_or_else(|e| e.into_inner());
                                    if slot.is_none() {
                                        *slot = Some(p);
                                    }
                                    abort.store(true, Ordering::Relaxed);
                                    break 'work;
                                }
                            }
                        }
                    }
                    let total = t0.elapsed();
                    stats.busy_ns = busy.as_nanos() as u64;
                    stats.idle_ns = total.saturating_sub(busy).as_nanos() as u64;
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("executor workers catch their own panics"))
            .collect::<Vec<_>>()
    });
    let elapsed = started.elapsed();

    if let Some(p) = panic_payload
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
    {
        resume_unwind(p);
    }

    let report = ExecReport {
        items: n,
        threads,
        elapsed,
        workers: worker_stats,
    };
    let results = slots
        .data
        .into_iter()
        .map(|c| {
            c.into_inner()
                .expect("no abort: every index was claimed and completed")
        })
        .collect();
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let (ys, report) = execute(xs.clone(), 8, |&x| x * x);
        assert_eq!(ys, xs.iter().map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(report.items, 1000);
        assert_eq!(report.total_done(), 1000);
        assert!(report.threads <= 8);
    }

    #[test]
    fn execute_preserves_order_under_heavy_contention() {
        // Thousands of near-zero-work items on many threads: the shape under
        // which any per-item lock would contend.
        let xs: Vec<u64> = (0..10_000).collect();
        let (ys, report) = execute(xs.clone(), 32, |&x| x.wrapping_mul(3));
        assert_eq!(ys, xs.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(report.total_done(), 10_000);
    }

    #[test]
    fn execute_empty_and_single() {
        let (ys, report) = execute(Vec::<u64>::new(), 4, |&x| x);
        assert!(ys.is_empty());
        assert_eq!(report.threads, 0);
        let (ys, report) = execute(vec![7u64], 16, |&x| x + 1);
        assert_eq!(ys, vec![8]);
        assert_eq!(report.threads, 1, "threads clamp to the item count");
    }

    #[test]
    fn chunk_claims_are_exclusive_and_bounded() {
        let c = Chunk {
            next: AtomicUsize::new(0),
            end: 10,
        };
        let mut seen = Vec::new();
        while let Some(r) = c.claim(usize::MAX) {
            assert!(r.end <= 10);
            seen.extend(r);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(c.claim(1).is_none());
    }

    #[test]
    fn imbalanced_work_is_stolen() {
        // All the expensive items live in worker 0's chunk; the other
        // workers must steal to finish it. (Single-core machines still
        // steal: the fast workers drain their chunks and scan while worker
        // 0 sleeps inside an item.)
        let n = 32;
        let threads = 4;
        let xs: Vec<usize> = (0..n).collect();
        let (ys, report) = execute(xs, threads, |&i| {
            if i < n / threads {
                std::thread::sleep(Duration::from_millis(10));
            }
            i
        });
        assert_eq!(ys, (0..n).collect::<Vec<_>>());
        assert!(
            report.total_steals() > 0,
            "expected steals, got {:?}",
            report.workers
        );
        assert_eq!(report.total_done(), n as u64);
    }

    #[test]
    fn worker_panic_is_propagated_after_join() {
        let xs: Vec<u64> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            execute(xs, 4, |&x| {
                if x == 37 {
                    panic!("item 37 exploded");
                }
                x
            })
        });
        let payload = result.expect_err("the worker panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("item 37 exploded"),
            "caller must see the original payload, not an unwrap on an \
             empty slot; got {msg:?}"
        );
        // And a clean run afterwards still preserves order: the panic left
        // no poisoned state behind.
        let xs: Vec<u64> = (0..100).collect();
        let (ys, _) = execute(xs.clone(), 4, |&x| x + 1);
        assert_eq!(ys, xs.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn telemetry_accounts_for_all_items() {
        let xs: Vec<u64> = (0..500).collect();
        let (_, report) = execute(xs, 8, |&x| x.wrapping_mul(3));
        assert_eq!(report.total_done(), 500);
        let mut m = MetricsRegistry::new();
        report.install_metrics(&mut m, "exec");
        assert_eq!(m.counter("exec.done"), 500);
        assert_eq!(m.counter("exec.items"), 500);
        let h = m
            .histogram("exec.worker_cells")
            .expect("per-worker histogram");
        assert_eq!(h.sum(), 500);
        assert_eq!(h.count(), report.threads as u64);
    }
}
