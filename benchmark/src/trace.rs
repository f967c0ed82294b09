//! Spans recorded from the benchmark's own code around each library call.
//!
//! Recording is off unless [`set_enabled`] turns it on, and then costs two
//! clock reads and a push per span. Each thread keeps its spans in its own
//! buffer; [`flush`] moves them to the shared sink once per work item, so
//! threads never contend while an item runs. A span's parent is the span
//! open on the same thread when it began, or one named explicitly with
//! [`child_of`] (a work item whose pass span lives on another thread).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the process's trace
/// epoch; `parent` and `item` are 0 when absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span, or 0.
    pub parent: u64,
    /// `layer.operation`, e.g. `sim.simulate_one`.
    pub name: &'static str,
    /// Work item this span belongs to, or 0.
    pub item: u64,
    /// Recording thread (small integers in order of first use).
    pub thread: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

#[derive(Default)]
struct Local {
    thread: u64,
    /// Open spans on this thread: (id, item).
    stack: Vec<(u64, u64)>,
    buf: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off for spans that begin afterwards.
pub fn set_enabled(on: bool) {
    now_ns(); // pin the epoch before the first span
    ENABLED.store(on, Ordering::Relaxed);
}

/// Closes its span when dropped, so a panic unwinding through a traced
/// call still ends the span and pops the thread's stack.
struct Open {
    id: u64,
    parent: u64,
    item: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    fn begin(name: &'static str, explicit: Option<(u64, u64)>) -> Open {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let (parent, item) = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let (parent, item) =
                explicit.unwrap_or_else(|| l.stack.last().copied().unwrap_or((0, 0)));
            l.stack.push((id, item));
            (parent, item)
        });
        Open {
            id,
            parent,
            item,
            name,
            start_ns: now_ns(),
        }
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.thread == 0 {
                l.thread = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            }
            l.stack.pop();
            let thread = l.thread;
            l.buf.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                item: self.item,
                thread,
                start_ns: self.start_ns,
                end_ns,
            });
        });
    }
}

/// Run `f` inside a span named `name` (a no-op wrapper when recording is
/// off). Returns `f`'s value.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let _open = Open::begin(name, None);
    f()
}

/// Like [`span`], but opening the span under an explicit `parent` and for
/// work item `item`.
pub fn child_of<R>(name: &'static str, parent: u64, item: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let _open = Open::begin(name, Some((parent, item)));
    f()
}

/// Run `f` inside a span and also hand it the span's id, so work on other
/// threads can name it as parent (0 when recording is off).
pub fn span_with_id<R>(name: &'static str, f: impl FnOnce(u64) -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f(0);
    }
    let open = Open::begin(name, None);
    f(open.id)
}

/// Move this thread's finished spans to the shared sink.
pub fn flush() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().buf));
    if !spans.is_empty() {
        SINK.lock()
            .expect("span sink poisoned by a panicking flush")
            .extend(spans);
    }
}

/// Flush this thread and take every span recorded so far, in start order.
pub fn take_all() -> Vec<Span> {
    flush();
    let mut spans = std::mem::take(
        &mut *SINK
            .lock()
            .expect("span sink poisoned by a panicking flush"),
    );
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Self time of every span, in nanoseconds, parallel to `spans`: its
/// duration minus the part of its interval that its child spans cover.
/// Children that overlap each other (work items on two threads) are
/// counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            dur.saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t.x",
            item: 0,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            mk(1, 0, 0, 100),
            mk(2, 1, 10, 30),
            mk(3, 1, 20, 50),  // overlaps 2: counted once
            mk(4, 1, 80, 120), // runs past the parent: clipped
            mk(5, 2, 12, 14),  // grandchild: only 2's self time shrinks
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 20, 18, 30, 40, 2]);
    }

    #[test]
    fn nesting_and_explicit_parents_are_recorded() {
        // The only test that records, so the shared sink is ours.
        set_enabled(true);
        let outer = span_with_id("exec.pass", |id| {
            span("sim.simulate_one", || ());
            id
        });
        let worker = std::thread::spawn(move || {
            child_of("exec.item", outer, 7, || {
                span("optimize.build_versions", || ())
            });
            flush();
        });
        worker.join().expect("worker thread");
        set_enabled(false);
        span("sim.untraced", || ());
        let spans = take_all();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect(n).clone();
        let (pass, sim) = (by_name("exec.pass"), by_name("sim.simulate_one"));
        let (item, opt) = (by_name("exec.item"), by_name("optimize.build_versions"));
        assert_eq!(sim.parent, pass.id);
        assert_eq!(item.parent, pass.id);
        assert_eq!((opt.parent, opt.item), (item.id, 7));
        assert_ne!(item.thread, pass.thread);
        assert_eq!(opt.layer(), "optimize");
        assert!(spans.iter().all(|s| s.name != "sim.untraced"));
    }
}
