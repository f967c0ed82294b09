//! Content-addressed, persistent memoization of simulation results.
//!
//! The paper's evaluation is a large cross-product — 24 kernels ×
//! optimization versions × hierarchies — and every cell bottoms out in the
//! same expensive call: simulate one (program, layout, hierarchy) triple.
//! Those triples recur constantly (across figure binaries, across sweep
//! grids, across reruns after unrelated code changes), so this module
//! gives them a durable identity and a disk-backed store:
//!
//! * [`CacheKey`] — a [`StableHasher`] digest over the canonical program
//!   IR, the data layout, the full hierarchy configuration (sizes, lines,
//!   associativity, replacement policy, miss penalties), the simulation
//!   protocol, and [`SIM_VERSION_SALT`]. Anything that can change a result
//!   perturbs the key; anything that cannot (the run-length fast path,
//!   GROUPPAD's interval sweep — both differentially proven identical) does
//!   not.
//! * [`ResultCache`] — one JSON file per entry under a cache directory,
//!   with a versioned header, a key echo, and an integrity checksum over
//!   the payload. Writes are atomic (`tmp` + rename), so a crashed or
//!   parallel sweep can never leave a half-written entry that a later run
//!   would trust: a truncated or bit-flipped file fails its checksum, is
//!   logged, counted, and treated as a miss — never a panic, never a wrong
//!   result. Each entry lands as soon as it is computed, so rerunning an
//!   interrupted sweep over the same directory recomputes only what is
//!   missing.
//!
//! The salt is the invalidation lever: bump [`SIM_VERSION_SALT`] whenever
//! simulator semantics change and every stale entry silently becomes a
//! miss. See `docs/CACHING.md` for the full design.

use mlc_cache_sim::stable_hash::{StableHash, StableHasher};
use mlc_cache_sim::{HierarchyConfig, LevelStats, MissRateReport};
use mlc_model::{DataLayout, Program};
use mlc_telemetry::json::JsonValue;
use mlc_telemetry::MetricsRegistry;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// On-disk entry format version. Bump on any change to the entry JSON
/// shape; readers reject other versions (treated as a miss).
pub const FORMAT_VERSION: u64 = 1;

/// Simulator semantics version. Part of every [`CacheKey`]: bump whenever
/// the simulator (or trace generator, or anything between program and miss
/// counts) changes behavior, and all previously cached results become
/// unreachable without touching the store.
pub const SIM_VERSION_SALT: u64 = 1;

/// Which simulation protocol produced (or would produce) a result. The
/// steady-state and cold protocols visit different access streams, so they
/// are part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimProtocol {
    /// One cold sweep from an empty hierarchy.
    Cold,
    /// `warmup` unmeasured sweeps followed by `timed` measured sweeps.
    Steady {
        /// Warm-up sweeps (stats discarded).
        warmup: u64,
        /// Measured sweeps.
        timed: u64,
    },
}

impl StableHash for SimProtocol {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            SimProtocol::Cold => h.write_u8(0),
            SimProtocol::Steady { warmup, timed } => {
                h.write_u8(1);
                h.write_u64(*warmup);
                h.write_u64(*timed);
            }
        }
    }
}

/// The content address of one simulation result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Derive the key for simulating `program` under `layout` on
    /// `hierarchy` with `protocol`, salted with [`SIM_VERSION_SALT`].
    pub fn derive(
        program: &Program,
        layout: &DataLayout,
        hierarchy: &HierarchyConfig,
        protocol: SimProtocol,
    ) -> Self {
        Self::derive_salted(program, layout, hierarchy, protocol, SIM_VERSION_SALT)
    }

    /// [`CacheKey::derive`] with an explicit salt (exposed so tests can
    /// demonstrate that the salt invalidates).
    pub fn derive_salted(
        program: &Program,
        layout: &DataLayout,
        hierarchy: &HierarchyConfig,
        protocol: SimProtocol,
        salt: u64,
    ) -> Self {
        let mut h = StableHasher::new();
        h.write_str("mlc.rescache.key");
        h.write_u64(salt);
        program.stable_hash(&mut h);
        layout.stable_hash(&mut h);
        hierarchy.stable_hash(&mut h);
        protocol.stable_hash(&mut h);
        Self(h.finish())
    }

    /// A key from an arbitrary pre-hashed digest — for payloads that are
    /// not plain simulation results (e.g. whole sweep cells), whose fields
    /// the caller absorbs into its own [`StableHasher`].
    pub fn from_digest(digest: u64) -> Self {
        Self(digest)
    }

    /// The raw 64-bit digest.
    pub fn digest(&self) -> u64 {
        self.0
    }

    /// The 16-hex-char rendering used as the entry file stem.
    pub fn to_hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Monotonic counters describing one cache's traffic. All methods take
/// `&self`; the cache is shared freely across executor workers.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    stale: AtomicU64,
    coalesced: AtomicU64,
}

/// A point-in-time snapshot of [`CacheCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that found no usable entry (includes corrupt and stale).
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries rejected by parsing, shape or checksum validation.
    pub corrupt: u64,
    /// Entries rejected for a format-version or key mismatch.
    pub stale: u64,
    /// Of the hits, how many were served by the in-memory front without
    /// touching disk — a second looker coalescing onto a compute or read
    /// another thread already did (or is doing).
    pub coalesced: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Shards in the in-memory coalescing front. Power of two so the digest
/// masks cleanly; 16 keeps lock contention negligible at any realistic
/// worker count without much per-cache footprint.
const FRONT_SHARDS: usize = 16;

/// What the front remembers for one key. The two public `get_or_compute*`
/// APIs store different shapes; a key is only ever used through one of
/// them (content addressing), but a mismatch degrades to an uncoalesced
/// disk round-trip rather than a wrong answer.
#[derive(Debug)]
enum FrontSlot {
    /// A decoded [`MissRateReport`] (the `get_or_compute` API).
    Report(MissRateReport),
    /// A raw payload with its entry kind (the `get_or_compute_raw` API).
    Raw(String, JsonValue),
}

/// One key's rendezvous point: whoever gets here first computes (or reads
/// disk); everyone else blocks inside `OnceLock::get_or_init` and reuses
/// the result. Exactly one compute and one store per key per process.
type FrontCell = Arc<OnceLock<FrontSlot>>;

/// A persistent, content-addressed result store: one JSON file per entry,
/// fronted by a sharded in-memory index that coalesces concurrent work on
/// the same key (see [`ResultCache::get_or_compute`]).
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    counters: CacheCounters,
    front: Vec<Mutex<HashMap<u64, FrontCell>>>,
}

/// Why a stored entry was rejected (all cases degrade to a miss).
enum Reject {
    Corrupt(String),
    Stale(String),
}

impl ResultCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            counters: CacheCounters::default(),
            front: (0..FRONT_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        })
    }

    /// The front cell for `key` (created on first use). The shard lock is
    /// held only for the map access, never across a compute.
    fn front_cell(&self, key: CacheKey) -> FrontCell {
        let shard = (key.digest() as usize) & (FRONT_SHARDS - 1);
        let mut map = self.front[shard].lock().unwrap_or_else(|e| e.into_inner());
        map.entry(key.digest()).or_default().clone()
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an entry for `key` lives in.
    pub fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.to_hex()))
    }

    /// Look up a raw payload of the given `kind`. Returns `None` — and
    /// counts a miss — when the entry is absent, unreadable, corrupt,
    /// stale, of another kind, or fails its checksum. Never panics on file
    /// contents.
    pub fn lookup_raw(&self, key: CacheKey, kind: &str) -> Option<JsonValue> {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                // Absent (the common case) or unreadable: a plain miss.
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match Self::decode_entry(&text, key, kind) {
            Ok(payload) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Err(Reject::Corrupt(why)) => {
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "rescache: corrupt entry {} ({why}); treating as a miss",
                    path.display()
                );
                None
            }
            Err(Reject::Stale(why)) => {
                self.counters.stale.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "rescache: stale entry {} ({why}); treating as a miss",
                    path.display()
                );
                None
            }
        }
    }

    /// Validate and unwrap one entry document.
    fn decode_entry(text: &str, key: CacheKey, kind: &str) -> Result<JsonValue, Reject> {
        let doc = JsonValue::parse(text).map_err(|e| Reject::Corrupt(e.to_string()))?;
        let format = doc.get("format").and_then(JsonValue::as_u64);
        if format != Some(FORMAT_VERSION) {
            return Err(Reject::Stale(format!(
                "format {format:?}, reader expects {FORMAT_VERSION}"
            )));
        }
        let echoed = doc.get("key").and_then(JsonValue::as_str);
        if echoed != Some(key.to_hex().as_str()) {
            return Err(Reject::Stale(format!(
                "key echo {echoed:?} does not match file name {key}"
            )));
        }
        let entry_kind = doc.get("kind").and_then(JsonValue::as_str);
        if entry_kind != Some(kind) {
            return Err(Reject::Stale(format!(
                "kind {entry_kind:?}, caller wants {kind:?}"
            )));
        }
        let payload = doc
            .get("payload")
            .ok_or_else(|| Reject::Corrupt("no payload member".into()))?;
        let declared = doc
            .get("checksum")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| Reject::Corrupt("no checksum member".into()))?;
        let actual = payload_checksum(payload);
        if declared != actual {
            return Err(Reject::Corrupt(format!(
                "checksum {declared} != recomputed {actual}"
            )));
        }
        Ok(payload.clone())
    }

    /// Store a raw payload under `key`, atomically: the entry is written
    /// to a temporary file in the same directory and renamed into place,
    /// so concurrent readers (and a crash at any point) see either the
    /// previous state or the complete new entry.
    pub fn store_raw(&self, key: CacheKey, kind: &str, payload: JsonValue) -> std::io::Result<()> {
        let checksum = payload_checksum(&payload);
        let doc = JsonValue::object(vec![
            ("format", JsonValue::from(FORMAT_VERSION)),
            ("key", JsonValue::from(key.to_hex())),
            ("kind", JsonValue::from(kind)),
            ("checksum", JsonValue::from(checksum)),
            ("payload", payload),
        ]);
        let final_path = self.entry_path(key);
        let tmp_path = self.dir.join(format!(
            "{}.tmp.{}.{:x}",
            key.to_hex(),
            std::process::id(),
            tmp_nonce()
        ));
        std::fs::write(&tmp_path, doc.pretty())?;
        match std::fs::rename(&tmp_path, &final_path) {
            Ok(()) => {
                self.counters.stores.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp_path);
                Err(e)
            }
        }
    }

    /// Look up a cached [`MissRateReport`].
    pub fn lookup_report(&self, key: CacheKey) -> Option<MissRateReport> {
        let payload = self.lookup_raw(key, "miss_report")?;
        match report_from_json(&payload) {
            Ok(r) => Some(r),
            Err(why) => {
                // Checksummed payload with an invalid shape: a writer bug
                // or a truly unlucky corruption. Still never panic.
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "rescache: undecodable miss_report for {key} ({why}); treating as a miss"
                );
                None
            }
        }
    }

    /// Store a [`MissRateReport`] under `key`.
    pub fn store_report(&self, key: CacheKey, report: &MissRateReport) -> std::io::Result<()> {
        self.store_raw(key, "miss_report", report_to_json(report))
    }

    /// The memoization workhorse: return the cached report for `key`, or
    /// run `compute`, store its result, and return it. Store failures are
    /// logged and swallowed — a read-only cache directory degrades the
    /// cache to a pass-through, it never fails the simulation.
    ///
    /// Concurrent callers with the same `key` coalesce through the sharded
    /// in-memory front: exactly one of them computes (and writes the disk
    /// entry); the rest block until it finishes and share the result. The
    /// coalesced callers count as hits (and as `coalesced` in
    /// [`CacheStats`]) without touching disk.
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> MissRateReport,
    ) -> MissRateReport {
        let cell = self.front_cell(key);
        let mut compute = Some(compute);
        let slot = cell.get_or_init(|| {
            let compute = compute.take().expect("initializer runs at most once");
            FrontSlot::Report(match self.lookup_report(key) {
                Some(hit) => hit,
                None => {
                    let report = compute();
                    if let Err(e) = self.store_report(key, &report) {
                        eprintln!("rescache: failed to store {key}: {e}");
                    }
                    report
                }
            })
        });
        match slot {
            FrontSlot::Report(report) => {
                if compute.is_some() {
                    // We did not initialize: another thread's work (past or
                    // in-flight) served us entirely from memory.
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                report.clone()
            }
            FrontSlot::Raw(kind, _) => {
                // The same digest was used through the raw API — possible
                // only for deliberately colliding keys. Fall back to an
                // uncoalesced disk round-trip; never a wrong answer.
                eprintln!(
                    "rescache: front holds a raw {kind:?} entry for {key}; bypassing the front"
                );
                let compute = compute.take().expect("raw slot means we lost no closure");
                match self.lookup_report(key) {
                    Some(hit) => hit,
                    None => {
                        let report = compute();
                        if let Err(e) = self.store_report(key, &report) {
                            eprintln!("rescache: failed to store {key}: {e}");
                        }
                        report
                    }
                }
            }
        }
    }

    /// [`ResultCache::get_or_compute`] for raw payloads of an arbitrary
    /// entry `kind`: coalesces concurrent callers of the same key onto one
    /// compute and one store, consults disk before computing, and logs
    /// (never propagates) store failures.
    pub fn get_or_compute_raw(
        &self,
        key: CacheKey,
        kind: &str,
        compute: impl FnOnce() -> JsonValue,
    ) -> JsonValue {
        let cell = self.front_cell(key);
        let mut compute = Some(compute);
        let slot = cell.get_or_init(|| {
            let compute = compute.take().expect("initializer runs at most once");
            FrontSlot::Raw(
                kind.to_string(),
                self.fetch_or_compute_raw(key, kind, compute),
            )
        });
        match slot {
            FrontSlot::Raw(cached_kind, payload) if cached_kind == kind => {
                if compute.is_some() {
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                payload.clone()
            }
            other => {
                let held = match other {
                    FrontSlot::Report(_) => "a miss_report".to_string(),
                    FrontSlot::Raw(k, _) => format!("kind {k:?}"),
                };
                eprintln!(
                    "rescache: front holds {held} for {key}, caller wants {kind:?}; \
                     bypassing the front"
                );
                let compute = compute
                    .take()
                    .expect("mismatched slot means we lost no closure");
                self.fetch_or_compute_raw(key, kind, compute)
            }
        }
    }

    /// Uncoalesced lookup-then-compute-then-store, shared by the front's
    /// initializer and its mismatch fallback.
    fn fetch_or_compute_raw(
        &self,
        key: CacheKey,
        kind: &str,
        compute: impl FnOnce() -> JsonValue,
    ) -> JsonValue {
        match self.lookup_raw(key, kind) {
            Some(payload) => payload,
            None => {
                let payload = compute();
                if let Err(e) = self.store_raw(key, kind, payload.clone()) {
                    eprintln!("rescache: failed to store {key}: {e}");
                }
                payload
            }
        }
    }

    /// Snapshot the traffic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            stores: self.counters.stores.load(Ordering::Relaxed),
            corrupt: self.counters.corrupt.load(Ordering::Relaxed),
            stale: self.counters.stale.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Export the counters into a [`MetricsRegistry`] under `prefix`
    /// (e.g. `rescache.hits`).
    pub fn install_metrics(&self, metrics: &mut MetricsRegistry, prefix: &str) {
        let s = self.stats();
        metrics.count(&format!("{prefix}.hits"), s.hits);
        metrics.count(&format!("{prefix}.misses"), s.misses);
        metrics.count(&format!("{prefix}.stores"), s.stores);
        metrics.count(&format!("{prefix}.corrupt"), s.corrupt);
        metrics.count(&format!("{prefix}.stale"), s.stale);
        metrics.count(&format!("{prefix}.coalesced"), s.coalesced);
        metrics.set_value(&format!("{prefix}.hit_rate"), s.hit_rate());
    }
}

/// A per-call nonce for temporary file names, so two threads storing the
/// same key from one process cannot collide on the tmp path.
fn tmp_nonce() -> u64 {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    NONCE.fetch_add(1, Ordering::Relaxed)
}

/// The checksum string written into (and verified against) each entry: a
/// [`StableHasher`] digest of the payload's compact serialization.
fn payload_checksum(payload: &JsonValue) -> String {
    let mut h = StableHasher::new();
    h.write_str("mlc.rescache.checksum");
    h.write_str(&payload.to_string_compact());
    format!("{:016x}", h.finish())
}

/// Serialize a report as integers only, so it round-trips bit-for-bit.
pub fn report_to_json(report: &MissRateReport) -> JsonValue {
    let levels = report
        .levels
        .iter()
        .map(|l| {
            JsonValue::object(vec![
                ("accesses", JsonValue::from(l.accesses())),
                ("misses", JsonValue::from(l.misses())),
            ])
        })
        .collect();
    JsonValue::object(vec![
        ("total_references", JsonValue::from(report.total_references)),
        ("levels", JsonValue::Array(levels)),
    ])
}

/// Parse [`report_to_json`] output, validating shape and count sanity.
pub fn report_from_json(v: &JsonValue) -> Result<MissRateReport, String> {
    let total = v
        .get("total_references")
        .and_then(JsonValue::as_u64)
        .ok_or("total_references missing or not a count")?;
    let levels = v
        .get("levels")
        .and_then(JsonValue::as_array)
        .ok_or("levels missing or not an array")?;
    let mut parsed = Vec::with_capacity(levels.len());
    for (i, l) in levels.iter().enumerate() {
        let accesses = l
            .get("accesses")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("level {i}: accesses missing or not a count"))?;
        let misses = l
            .get("misses")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("level {i}: misses missing or not a count"))?;
        if misses > accesses {
            return Err(format!("level {i}: {misses} misses > {accesses} accesses"));
        }
        parsed.push(LevelStats::from_counts(accesses, misses));
    }
    Ok(MissRateReport::from_levels(parsed).normalized_to(total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache_sim::ReplacementPolicy;
    use mlc_model::program::figure2_example;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mlc-rescache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_report() -> MissRateReport {
        MissRateReport::from_levels(vec![
            LevelStats::from_counts(1000, 100),
            LevelStats::from_counts(100, 20),
        ])
    }

    fn sample_key() -> CacheKey {
        let p = figure2_example(64);
        let l = DataLayout::contiguous(&p.arrays);
        let h = HierarchyConfig::ultrasparc_i();
        CacheKey::derive(&p, &l, &h, SimProtocol::Cold)
    }

    #[test]
    fn key_hex_round_trips() {
        let k = sample_key();
        let hex = k.to_hex();
        assert_eq!(hex.len(), 16, "fixed-width file stem");
        assert_eq!(u64::from_str_radix(&hex, 16), Ok(k.digest()));
    }

    #[test]
    fn key_depends_on_every_input() {
        let p = figure2_example(64);
        let l = DataLayout::contiguous(&p.arrays);
        let h = HierarchyConfig::ultrasparc_i();
        let base = CacheKey::derive(&p, &l, &h, SimProtocol::Cold);

        let mut pads = vec![0u64; p.arrays.len()];
        pads[0] = 32;
        let l2 = DataLayout::with_pads(&p.arrays, &pads);
        assert_ne!(base, CacheKey::derive(&p, &l2, &h, SimProtocol::Cold));

        let mut h2 = h.clone();
        h2.levels[0].replacement = ReplacementPolicy::Fifo;
        assert_ne!(base, CacheKey::derive(&p, &l, &h2, SimProtocol::Cold));

        assert_ne!(
            base,
            CacheKey::derive(
                &p,
                &l,
                &h,
                SimProtocol::Steady {
                    warmup: 1,
                    timed: 1
                }
            )
        );
        assert_ne!(
            base,
            CacheKey::derive_salted(&p, &l, &h, SimProtocol::Cold, SIM_VERSION_SALT + 1)
        );
    }

    #[test]
    fn store_then_lookup_is_bitwise_identical() {
        let cache = ResultCache::open(tmp_dir("roundtrip")).unwrap();
        let key = sample_key();
        let report = sample_report();
        assert_eq!(cache.lookup_report(key), None);
        cache.store_report(key, &report).unwrap();
        assert_eq!(cache.lookup_report(key), Some(report));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 1, 1));
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn get_or_compute_memoizes() {
        let cache = ResultCache::open(tmp_dir("memo")).unwrap();
        let key = sample_key();
        let mut calls = 0;
        let a = cache.get_or_compute(key, || {
            calls += 1;
            sample_report()
        });
        let b = cache.get_or_compute(key, || {
            calls += 1;
            panic!("second call must be served from disk")
        });
        assert_eq!(a, b);
        assert_eq!(calls, 1);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn truncated_entry_is_a_logged_miss_not_a_panic() {
        let cache = ResultCache::open(tmp_dir("truncate")).unwrap();
        let key = sample_key();
        cache.store_report(key, &sample_report()).unwrap();
        let path = cache.entry_path(key);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(cache.lookup_report(key), None);
        assert_eq!(cache.stats().corrupt, 1);
        // The cache recovers: a fresh store over the corpse works.
        cache.store_report(key, &sample_report()).unwrap();
        assert_eq!(cache.lookup_report(key), Some(sample_report()));
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn bit_flipped_payload_fails_the_checksum() {
        let cache = ResultCache::open(tmp_dir("bitflip")).unwrap();
        let key = sample_key();
        cache.store_report(key, &sample_report()).unwrap();
        let path = cache.entry_path(key);
        // Flip one digit inside the payload (the miss count 100 -> 900),
        // leaving the JSON perfectly well-formed.
        let text = std::fs::read_to_string(&path).unwrap();
        let flipped = text.replacen("\"misses\": 100", "\"misses\": 900", 1);
        assert_ne!(text, flipped, "fixture must actually change the payload");
        std::fs::write(&path, flipped).unwrap();
        assert_eq!(cache.lookup_report(key), None);
        assert_eq!(cache.stats().corrupt, 1);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn key_mismatch_and_format_mismatch_are_stale() {
        let cache = ResultCache::open(tmp_dir("stale")).unwrap();
        let key = sample_key();
        let other = CacheKey::from_digest(key.digest() ^ 1);
        cache.store_report(other, &sample_report()).unwrap();
        // Copy the other entry over this key's file: key echo mismatch.
        std::fs::copy(cache.entry_path(other), cache.entry_path(key)).unwrap();
        assert_eq!(cache.lookup_report(key), None);
        assert_eq!(cache.stats().stale, 1);
        // Format-version bump: rewrite with an alien version.
        let text = std::fs::read_to_string(cache.entry_path(other)).unwrap();
        std::fs::write(
            cache.entry_path(other),
            text.replacen("\"format\": 1", "\"format\": 999", 1),
        )
        .unwrap();
        assert_eq!(cache.lookup_report(other), None);
        assert_eq!(cache.stats().stale, 2);
        assert_eq!(cache.stats().corrupt, 0);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn report_json_rejects_nonsense() {
        assert!(report_from_json(&JsonValue::Null).is_err());
        assert!(report_from_json(&JsonValue::object(vec![(
            "total_references",
            JsonValue::from(1u64)
        )]))
        .is_err());
        let bad = JsonValue::parse(
            r#"{"total_references": 10, "levels": [{"accesses": 5, "misses": 9}]}"#,
        )
        .unwrap();
        assert!(report_from_json(&bad).is_err(), "misses > accesses");
    }

    #[test]
    fn metrics_export_installs_counters() {
        let cache = ResultCache::open(tmp_dir("metrics")).unwrap();
        let key = sample_key();
        cache.store_report(key, &sample_report()).unwrap();
        cache.lookup_report(key);
        let mut m = MetricsRegistry::new();
        cache.install_metrics(&mut m, "rescache");
        assert_eq!(m.counter("rescache.hits"), 1);
        assert_eq!(m.counter("rescache.stores"), 1);
        assert_eq!(m.counter("rescache.coalesced"), 0);
        assert_eq!(m.value("rescache.hit_rate"), Some(1.0));
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn racing_get_or_compute_coalesces_to_one_compute_and_store() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Barrier;

        let cache = ResultCache::open(tmp_dir("race")).unwrap();
        let key = sample_key();
        let computes = AtomicU64::new(0);
        const N: usize = 8;
        let barrier = Barrier::new(N);
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    barrier.wait();
                    let r = cache.get_or_compute(key, || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        // Hold the slot long enough that the other threads
                        // genuinely pile up on the in-flight computation.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        sample_report()
                    });
                    assert_eq!(r, sample_report());
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1, "exactly one compute");
        let s = cache.stats();
        assert_eq!(s.stores, 1, "exactly one disk write");
        assert_eq!(s.misses, 1, "only the winner touched disk");
        assert_eq!(s.coalesced, N as u64 - 1, "everyone else was coalesced");
        assert_eq!(
            s.hits,
            N as u64 - 1,
            "coalesced callers still count as hits"
        );
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn racing_get_or_compute_raw_coalesces() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Barrier;

        let cache = ResultCache::open(tmp_dir("race-raw")).unwrap();
        let key = CacheKey::from_digest(0xfeed);
        let computes = AtomicU64::new(0);
        const N: usize = 6;
        let barrier = Barrier::new(N);
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    barrier.wait();
                    let v = cache.get_or_compute_raw(key, "sweep_cell", || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        JsonValue::from(42u64)
                    });
                    assert_eq!(v, JsonValue::from(42u64));
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        let s = cache.stats();
        assert_eq!((s.stores, s.coalesced), (1, N as u64 - 1));
        // A kind mismatch on the same key must not serve the cached raw
        // payload; it degrades to an uncoalesced compute.
        let v = cache.get_or_compute_raw(key, "other_kind", || JsonValue::from(7u64));
        assert_eq!(v, JsonValue::from(7u64));
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }
}
