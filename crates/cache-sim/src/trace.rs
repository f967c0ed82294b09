//! Access traces and sinks.
//!
//! The program model (`mlc-model`) walks iteration spaces in execution
//! order and feeds an [`AccessSink`] through its two calls: one [`Access`]
//! at a time ([`AccessSink::access`]), or one innermost loop at a time as
//! a group of strided [`Run`]s, one per array reference
//! ([`AccessSink::run_group`]). Anything implementing the trait can consume
//! the stream — most importantly [`crate::Hierarchy`], which batches the
//! line-resident accesses of a group, but also the 3C
//! [`crate::MissClassifier`] and the counting and recording sinks.

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

/// Consumer of an access stream. A sink that only implements
/// [`AccessSink::access`] sees every group expanded access by access.
pub trait AccessSink {
    /// Consume one access.
    fn access(&mut self, access: Access);

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
    fn run_group(&mut self, runs: &[Run]) {
        for r in runs {
            self.total += r.count;
            match r.kind {
                AccessKind::Read => self.reads += r.count,
                AccessKind::Write => self.writes += r.count,
            }
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
        r.access(Access::read(1));
        r.access(Access::write(2));
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
    fn one_run_group_expands_to_accesses() {
        let mut r = RecordingSink::default();
        r.run_group(&[Run {
            start: 100,
            stride: -8,
            count: 3,
            kind: AccessKind::Write,
        }]);
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
    fn counting_sink_group_override_matches_default() {
        let runs = [
            Run {
                start: 16,
                stride: 8,
                count: 5,
                kind: AccessKind::Write,
            },
            Run {
                start: 4096,
                stride: 0,
                count: 5,
                kind: AccessKind::Read,
            },
        ];
        let mut fast = CountingSink::default();
        fast.run_group(&runs);
        let mut slow = CountingSink::default();
        for t in 0..5 {
            for r in &runs {
                slow.access(Access {
                    addr: r.addr(t),
                    kind: r.kind,
                });
            }
        }
        assert_eq!(fast.total, slow.total);
        assert_eq!(fast.writes, slow.writes);
        assert_eq!(fast.reads, slow.reads);
    }

    #[test]
    fn empty_run_and_group_emit_nothing() {
        let mut r = RecordingSink::default();
        r.run_group(&[Run {
            start: 0,
            stride: 8,
            count: 0,
            kind: AccessKind::Read,
        }]);
        r.run_group(&[]);
        assert!(r.accesses.is_empty());
    }
}
