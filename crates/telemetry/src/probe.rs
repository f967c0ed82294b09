//! The cache probe API.
//!
//! `mlc-cache-sim` drives implementations of [`CacheProbe`] with one event
//! per cache-level outcome: an [`AccessEvent`] for every probe of a level
//! (hit or miss) and an [`EvictionEvent`] whenever a valid line is
//! replaced. Events carry line-granular addresses — the byte address of the
//! line start — because that is the granularity every cache decision is
//! made at.
//!
//! The simulator's hot path is generic over a no-op observer and only
//! constructs events when a real probe is attached, so simulation results
//! are identical whether or not a probe exists.

/// One cache-level probe outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Cache level, 0 = L1.
    pub level: usize,
    /// Byte address of the start of the accessed line.
    pub line_addr: u64,
    /// Set index the line maps to at this level.
    pub set: usize,
    /// True for a store.
    pub write: bool,
    /// True if the level hit.
    pub hit: bool,
}

/// A valid line replaced at some level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionEvent {
    /// Cache level, 0 = L1.
    pub level: usize,
    /// Byte address of the start of the evicted line.
    pub line_addr: u64,
    /// Set index the eviction happened in.
    pub set: usize,
    /// True if the evicted line was dirty (counts as a write-back).
    pub dirty: bool,
}

/// Observer of per-level cache events.
///
/// Implementations must not assume anything about event ordering beyond:
/// events for one access are emitted level by level, L1 outward, and an
/// eviction at a level is reported before the access event that caused it
/// completes that level.
pub trait CacheProbe {
    /// A level was probed (hit or miss).
    fn on_access(&mut self, event: AccessEvent);

    /// A valid line was evicted to make room. Default: ignored.
    fn on_eviction(&mut self, event: EvictionEvent) {
        let _ = event;
    }
}

/// A probe that ignores everything; useful to measure probing overhead.
#[derive(Debug, Default, Clone, Copy)]
pub struct NopProbe;

impl CacheProbe for NopProbe {
    #[inline]
    fn on_access(&mut self, _event: AccessEvent) {}
}

impl<P: CacheProbe + ?Sized> CacheProbe for &mut P {
    #[inline]
    fn on_access(&mut self, event: AccessEvent) {
        (**self).on_access(event);
    }

    #[inline]
    fn on_eviction(&mut self, event: EvictionEvent) {
        (**self).on_eviction(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counting(u64, u64);
    impl CacheProbe for Counting {
        fn on_access(&mut self, _e: AccessEvent) {
            self.0 += 1;
        }
        fn on_eviction(&mut self, _e: EvictionEvent) {
            self.1 += 1;
        }
    }

    #[test]
    fn mut_ref_forwards() {
        let mut c = Counting(0, 0);
        {
            let r: &mut dyn CacheProbe = &mut c;
            r.on_access(AccessEvent {
                level: 0,
                line_addr: 0,
                set: 0,
                write: false,
                hit: true,
            });
            r.on_eviction(EvictionEvent {
                level: 0,
                line_addr: 64,
                set: 1,
                dirty: true,
            });
        }
        assert_eq!((c.0, c.1), (1, 1));
    }

    #[test]
    fn nop_probe_is_inert() {
        let mut p = NopProbe;
        p.on_access(AccessEvent {
            level: 1,
            line_addr: 32,
            set: 0,
            write: true,
            hit: false,
        });
        p.on_eviction(EvictionEvent {
            level: 1,
            line_addr: 0,
            set: 0,
            dirty: false,
        });
    }
}
