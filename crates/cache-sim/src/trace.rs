//! Access traces and sinks.
//!
//! The program model (`mlc-model`) walks iteration spaces and emits one
//! [`Access`] per array reference; anything implementing [`AccessSink`] can
//! consume the stream — most importantly [`crate::Hierarchy`], but also the
//! 3C [`crate::MissClassifier`] and the counting and recording sinks.

/// Load or store. The simulator counts them identically (fetch-on-miss,
/// allocate-on-write) but sinks may care.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read.
    Read,
    /// Write.
    Write,
}

/// One memory reference: a byte address plus kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// Load or store.
    pub kind: AccessKind,
}

impl Access {
    /// A read of `addr`.
    #[inline]
    pub fn read(addr: u64) -> Self {
        Self {
            addr,
            kind: AccessKind::Read,
        }
    }

    /// A write of `addr`.
    #[inline]
    pub fn write(addr: u64) -> Self {
        Self {
            addr,
            kind: AccessKind::Write,
        }
    }
}

/// A run-length-encoded access sequence: `count` accesses starting at
/// `start`, each `stride` bytes after the previous one, all of the same
/// kind. Affine references have constant innermost strides, so the trace
/// generator can describe an entire innermost loop as one `Run` per
/// reference instead of emitting accesses one at a time; sinks that
/// understand cache geometry (notably [`crate::Hierarchy`]) exploit this to
/// batch the provably-redundant lookups between line boundaries.
///
/// Every address in a run must be representable: `start + t * stride` must
/// stay within `[0, u64::MAX]` for all `t < count` (the trace generator
/// validates this before emitting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Address of the first access.
    pub start: u64,
    /// Byte stride between consecutive accesses (may be zero or negative).
    pub stride: i64,
    /// Number of accesses.
    pub count: u64,
    /// Load or store (applies to every access of the run).
    pub kind: AccessKind,
}

impl Run {
    /// The address of the `t`-th access (0-based).
    #[inline]
    pub fn addr(&self, t: u64) -> u64 {
        self.start
            .wrapping_add((self.stride as u64).wrapping_mul(t))
    }

    /// True iff this run stores.
    #[inline]
    pub fn is_write(&self) -> bool {
        self.kind == AccessKind::Write
    }
}

/// A whole affine loop nest described in closed form: per-reference
/// base/stride descriptors over a rectangular (constant-bound) iteration
/// space, instead of the expanded access stream.
///
/// The trace generator offers one of these to the sink *before* streaming a
/// nest (see [`AccessSink::nest`]). A sink that accounts for the entire
/// nest itself consumes it, and the generator skips the nest. The analytic
/// engine's memo does so: it restores a recorded transition from an equal
/// entry state, or replays the nest from this descriptor and records it.
/// The descriptor is normalized to trip space: loop `l` runs `trips[l]`
/// times and reference `r` starts at `refs[r].start` and advances by
/// `refs[r].deltas[l]` bytes per trip of loop `l` (outermost first). The
/// access order is the interleaved walk: for every outer trip vector, the
/// innermost loop advances with the references interleaved in body order —
/// exactly what [`AccessSink::run_group`] would see, one group per
/// innermost invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestDescriptor {
    /// Trip count per loop, outermost first (all ≥ 1; empty or zero-trip
    /// nests are never offered as descriptors).
    pub trips: Vec<u64>,
    /// One descriptor per reference, in body (interleave) order.
    pub refs: Vec<RefDescriptor>,
    /// True when at least one reference's address function is *not* affine
    /// in the trip vector (e.g. a Morton-layout array), so `refs` does not
    /// describe the stream. Sinks must decline such descriptors — expanding
    /// `refs` would miscount — and let the caller stream the nest itself.
    pub non_affine: bool,
}

/// One array reference of a [`NestDescriptor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefDescriptor {
    /// Byte address at the all-zero trip vector (validated non-negative by
    /// the trace generator before the descriptor is offered).
    pub start: u64,
    /// Byte delta per trip of each loop, outermost first (stride × step).
    pub deltas: Vec<i64>,
    /// Load or store.
    pub kind: AccessKind,
}

impl NestDescriptor {
    /// Total accesses the nest emits, Π trips × refs, or `None` when that
    /// count overflows `u64`.
    pub fn total_accesses(&self) -> Option<u64> {
        self.trips
            .iter()
            .try_fold(1u64, |a, &t| a.checked_mul(t))?
            .checked_mul(self.refs.len() as u64)
    }
}

/// Consumer of an access stream.
pub trait AccessSink {
    /// Consume one access.
    fn access(&mut self, access: Access);

    /// Offer a whole loop nest as a descriptor *instead of* its expanded
    /// stream. Returning `Some(n)` means the sink fully accounted for all
    /// `n` accesses (counters **and** any state the sink models must end up
    /// exactly as if the stream had been replayed); the caller then skips
    /// the nest entirely. Returning `None` (the default) declines, and the
    /// caller streams the nest through `access`/`run`/`run_group` as usual.
    ///
    /// Only `mlc_core::analytic`'s hierarchy wrapper overrides this: it
    /// serves a nest from its memo of recorded transitions, or replays and
    /// records it. Overrides must be observably identical to replay
    /// wherever they accept.
    fn nest(&mut self, _desc: &NestDescriptor) -> Option<u64> {
        None
    }

    /// Consume a batch; override if a sink can do better than a loop.
    fn access_all(&mut self, accesses: &[Access]) {
        for &a in accesses {
            self.access(a);
        }
    }

    /// Consume a strided run: `run.count` accesses at `start`,
    /// `start + stride`, ... in order. The default implementation loops over
    /// [`AccessSink::access`], so every sink keeps exact per-access
    /// semantics; sinks that can do better (bulk counters, line-boundary
    /// batching) override this. Overrides must be observably identical to
    /// the default loop.
    fn run(&mut self, run: Run) {
        let mut addr = run.start;
        for _ in 0..run.count {
            self.access(Access {
                addr,
                kind: run.kind,
            });
            addr = addr.wrapping_add(run.stride as u64);
        }
    }

    /// Consume an interleaved group of runs sharing one trip count: for each
    /// trip `t` in `0..count`, every run's `t`-th access is consumed in
    /// group order. This is exactly the access order of a loop body with one
    /// reference per run, which is why the trace generator emits one group
    /// per innermost loop. All runs must have the same `count`.
    ///
    /// The default implementation performs the interleaved scalar loop;
    /// overrides must be observably identical to it.
    fn run_group(&mut self, runs: &[Run]) {
        let Some(first) = runs.first() else { return };
        debug_assert!(
            runs.iter().all(|r| r.count == first.count),
            "run_group requires equal counts"
        );
        for t in 0..first.count {
            for r in runs {
                self.access(Access {
                    addr: r.addr(t),
                    kind: r.kind,
                });
            }
        }
    }
}

/// Counts accesses (and reads/writes) without storing them.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    /// Total accesses seen.
    pub total: u64,
    /// Read accesses seen.
    pub reads: u64,
    /// Write accesses seen.
    pub writes: u64,
}

impl AccessSink for CountingSink {
    #[inline]
    fn access(&mut self, access: Access) {
        self.total += 1;
        match access.kind {
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
    }

    #[inline]
    fn run(&mut self, run: Run) {
        self.total += run.count;
        match run.kind {
            AccessKind::Read => self.reads += run.count,
            AccessKind::Write => self.writes += run.count,
        }
    }

    #[inline]
    fn run_group(&mut self, runs: &[Run]) {
        for &r in runs {
            self.run(r);
        }
    }
}

/// Records every access; for tests and small traces only.
#[derive(Debug, Default, Clone)]
pub struct RecordingSink {
    /// Recorded accesses, in order.
    pub accesses: Vec<Access>,
}

impl AccessSink for RecordingSink {
    #[inline]
    fn access(&mut self, access: Access) {
        self.accesses.push(access);
    }
}

impl<S: AccessSink + ?Sized> AccessSink for &mut S {
    #[inline]
    fn access(&mut self, access: Access) {
        (**self).access(access);
    }

    #[inline]
    fn nest(&mut self, desc: &NestDescriptor) -> Option<u64> {
        (**self).nest(desc)
    }

    #[inline]
    fn run(&mut self, run: Run) {
        (**self).run(run);
    }

    #[inline]
    fn run_group(&mut self, runs: &[Run]) {
        (**self).run_group(runs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_splits_kinds() {
        let mut c = CountingSink::default();
        c.access(Access::read(0));
        c.access(Access::write(8));
        c.access(Access::read(16));
        assert_eq!(c.total, 3);
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
    }

    #[test]
    fn recording_sink_preserves_order() {
        let mut r = RecordingSink::default();
        r.access_all(&[Access::read(1), Access::write(2)]);
        assert_eq!(r.accesses, vec![Access::read(1), Access::write(2)]);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        fn feed(sink: &mut impl AccessSink) {
            sink.access(Access::read(0));
        }
        let mut c = CountingSink::default();
        feed(&mut &mut c);
        assert_eq!(c.total, 1);
    }

    #[test]
    fn run_default_impl_expands_to_accesses() {
        let mut r = RecordingSink::default();
        r.run(Run {
            start: 100,
            stride: -8,
            count: 3,
            kind: AccessKind::Write,
        });
        let addrs: Vec<u64> = r.accesses.iter().map(|a| a.addr).collect();
        assert_eq!(addrs, vec![100, 92, 84]);
        assert!(r.accesses.iter().all(|a| a.kind == AccessKind::Write));
    }

    #[test]
    fn run_group_default_impl_interleaves() {
        let mut r = RecordingSink::default();
        r.run_group(&[
            Run {
                start: 0,
                stride: 8,
                count: 2,
                kind: AccessKind::Read,
            },
            Run {
                start: 1000,
                stride: 8,
                count: 2,
                kind: AccessKind::Write,
            },
        ]);
        let addrs: Vec<u64> = r.accesses.iter().map(|a| a.addr).collect();
        assert_eq!(addrs, vec![0, 1000, 8, 1008]);
    }

    #[test]
    fn counting_sink_run_overrides_match_default() {
        let run = Run {
            start: 16,
            stride: 8,
            count: 5,
            kind: AccessKind::Write,
        };
        let mut fast = CountingSink::default();
        fast.run(run);
        let mut slow = CountingSink::default();
        let mut addr = run.start;
        for _ in 0..run.count {
            slow.access(Access::write(addr));
            addr += 8;
        }
        assert_eq!(fast.total, slow.total);
        assert_eq!(fast.writes, slow.writes);
        assert_eq!(fast.reads, slow.reads);
    }

    #[test]
    fn empty_run_and_group_emit_nothing() {
        let mut r = RecordingSink::default();
        r.run(Run {
            start: 0,
            stride: 8,
            count: 0,
            kind: AccessKind::Read,
        });
        r.run_group(&[]);
        assert!(r.accesses.is_empty());
    }
}
