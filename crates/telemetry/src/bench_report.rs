//! The benchmark ledger: one versioned entry schema and an append-only,
//! commit-stamped history store.
//!
//! Every `BENCH_*.json` family used to be a latest-snapshot-only artifact:
//! each run overwrote the last and the repo had no performance trajectory.
//! This module gives every benchmark run a second, durable output — a
//! stream of [`BenchEntry`] records appended to
//! `results/bench_history/<family>.jsonl`, one JSON object per line,
//! stamped with the commit id, timestamp, host/toolchain fingerprint and
//! build profile, so the `bench-history` binary can compare commits, gate
//! CI on regressions against a rolling-median baseline, and render the
//! `docs/bench/` dashboard.
//!
//! Invariants:
//!
//! * **Append-only.** [`append_history`] opens the per-family file in
//!   append mode and never rewrites existing bytes; history is a ledger,
//!   not a cache. (Tested by reading the byte prefix back.)
//! * **Versioned.** Every entry carries `schema_version`
//!   ([`BENCH_SCHEMA_VERSION`]); readers skip lines with a newer version
//!   instead of failing, so old binaries tolerate new history.
//! * **Self-describing direction.** Every metric says whether higher or
//!   lower is better ([`Direction`]), so gates and dashboards never need
//!   a side table of metric semantics.
//!
//! The JSON shape is pinned by `results/bench_entry_schema.json` and the
//! round-trip tests below.

use crate::json::JsonValue;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Version of the [`BenchEntry`] JSON shape.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Whether a bigger value of a metric is an improvement or a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput, speedup, hit counts).
    Higher,
    /// Smaller is better (latency, violation counts, corruption).
    Lower,
}

impl Direction {
    /// The wire spelling (`"higher"` / `"lower"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Higher => "higher",
            Direction::Lower => "lower",
        }
    }

    /// Parse the wire spelling.
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "higher" => Some(Direction::Higher),
            "lower" => Some(Direction::Lower),
            _ => None,
        }
    }

    /// Signed "goodness" of going from `baseline` to `head`: positive is
    /// an improvement, negative a regression, in absolute value units.
    pub fn improvement(self, baseline: f64, head: f64) -> f64 {
        match self {
            Direction::Higher => head - baseline,
            Direction::Lower => baseline - head,
        }
    }
}

/// Environment fingerprint shared by every entry a run emits.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvInfo {
    /// Commit id of the tree the benchmark ran on (`unknown` outside git).
    pub commit: String,
    /// Unix timestamp (seconds) of the run.
    pub timestamp: u64,
    /// Host fingerprint: `os/arch/hostname`.
    pub host: String,
    /// `rustc -V` of the toolchain (best effort).
    pub rustc: String,
    /// Build profile of the benchmark binary (`debug` / `release`).
    pub profile: String,
}

impl EnvInfo {
    /// Capture the current environment. Overridable via `MLC_BENCH_COMMIT`,
    /// `MLC_BENCH_RUSTC` and `MLC_BENCH_TIMESTAMP` (useful for
    /// deterministic tests and for CI runners where `git` is absent);
    /// otherwise the commit comes from `git rev-parse HEAD` and the
    /// toolchain from `rustc -V`, falling back to `"unknown"`.
    pub fn capture() -> Self {
        let commit = std::env::var("MLC_BENCH_COMMIT")
            .ok()
            .filter(|s| !s.trim().is_empty())
            .or_else(|| run_capture("git", &["rev-parse", "HEAD"]))
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::env::var("MLC_BENCH_RUSTC")
            .ok()
            .filter(|s| !s.trim().is_empty())
            .or_else(|| run_capture("rustc", &["-V"]))
            .unwrap_or_else(|| "unknown".to_string());
        let timestamp = std::env::var("MLC_BENCH_TIMESTAMP")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0)
            });
        let hostname = std::env::var("HOSTNAME")
            .ok()
            .filter(|s| !s.trim().is_empty())
            .or_else(|| {
                std::fs::read_to_string("/etc/hostname")
                    .ok()
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            commit,
            timestamp,
            host: format!(
                "{}/{}/{}",
                std::env::consts::OS,
                std::env::consts::ARCH,
                hostname
            ),
            rustc,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        }
    }
}

fn run_capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// One measured fact: a metric of a case of a benchmark family, stamped
/// with the environment it was measured in.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Entry format version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Benchmark family (`trace_throughput`, `analytic_throughput`, …);
    /// names the history file the entry lives in.
    pub family: String,
    /// Case within the family (`expl512/ultrasparc_i`, `sweep`,
    /// `geomean`, …).
    pub case: String,
    /// Metric name (`speedup`, `geomean_speedup`, `fast_accesses_per_sec`, …).
    pub metric: String,
    /// Unit of `value` (`x`, `accesses/s`, `count`, `s`, …).
    pub unit: String,
    /// The measured value.
    pub value: f64,
    /// Whether higher or lower values are better.
    pub direction: Direction,
    /// Commit id the benchmark ran on.
    pub commit: String,
    /// Unix timestamp (seconds) of the run.
    pub timestamp: u64,
    /// Host fingerprint `os/arch/hostname`.
    pub host: String,
    /// Toolchain (`rustc -V`).
    pub rustc: String,
    /// Build profile (`debug` / `release`). Comparisons only make sense
    /// within one profile; the gate filters on it.
    pub profile: String,
}

impl BenchEntry {
    /// The entry as a JSON object (field order is part of the format).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("schema_version", JsonValue::from(self.schema_version)),
            ("family", JsonValue::from(self.family.as_str())),
            ("case", JsonValue::from(self.case.as_str())),
            ("metric", JsonValue::from(self.metric.as_str())),
            ("unit", JsonValue::from(self.unit.as_str())),
            ("value", JsonValue::Num(self.value)),
            ("direction", JsonValue::from(self.direction.as_str())),
            ("commit", JsonValue::from(self.commit.as_str())),
            ("timestamp", JsonValue::from(self.timestamp)),
            ("host", JsonValue::from(self.host.as_str())),
            ("rustc", JsonValue::from(self.rustc.as_str())),
            ("profile", JsonValue::from(self.profile.as_str())),
        ])
    }

    /// One history line: compact JSON, no trailing newline.
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Parse a JSON object back into an entry. Returns `None` on shape
    /// mismatch or on a newer `schema_version` (readers skip, not fail).
    pub fn from_json(v: &JsonValue) -> Option<BenchEntry> {
        let schema_version = v.get("schema_version")?.as_u64()?;
        if schema_version > BENCH_SCHEMA_VERSION {
            return None;
        }
        let s = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        Some(BenchEntry {
            schema_version,
            family: s("family")?,
            case: s("case")?,
            metric: s("metric")?,
            unit: s("unit")?,
            value: v.get("value")?.as_f64()?,
            direction: Direction::parse(v.get("direction")?.as_str()?)?,
            commit: s("commit")?,
            timestamp: v.get("timestamp")?.as_u64()?,
            host: s("host")?,
            rustc: s("rustc")?,
            profile: s("profile")?,
        })
    }

    /// Parse one history line.
    pub fn parse_line(line: &str) -> Option<BenchEntry> {
        JsonValue::parse(line)
            .ok()
            .and_then(|v| Self::from_json(&v))
    }

    /// `family/case/metric` — the key gates and dashboards group by.
    pub fn series_key(&self) -> String {
        format!("{}/{}/{}", self.family, self.case, self.metric)
    }
}

/// Builder collecting one run's metrics before stamping them into entries.
///
/// ```
/// use mlc_telemetry::bench_report::{BenchReport, Direction, EnvInfo};
/// let mut report = BenchReport::new("trace_throughput");
/// report.metric("expl512/ultrasparc_i", "speedup", "x", 3.4, Direction::Higher);
/// let entries = report.entries(&EnvInfo::capture());
/// assert_eq!(entries.len(), 1);
/// assert_eq!(entries[0].series_key(), "trace_throughput/expl512/ultrasparc_i/speedup");
/// ```
#[derive(Debug, Clone)]
pub struct BenchReport {
    family: String,
    metrics: Vec<(String, String, String, f64, Direction)>,
}

impl BenchReport {
    /// An empty report for `family`.
    pub fn new(family: &str) -> Self {
        Self {
            family: family.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Record one metric.
    pub fn metric(&mut self, case: &str, metric: &str, unit: &str, value: f64, dir: Direction) {
        self.metrics.push((
            case.to_string(),
            metric.to_string(),
            unit.to_string(),
            value,
            dir,
        ));
    }

    /// The family this report appends to.
    pub fn family(&self) -> &str {
        &self.family
    }

    /// Number of metrics recorded so far.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True iff no metric was recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Stamp every recorded metric with `env` into full entries.
    pub fn entries(&self, env: &EnvInfo) -> Vec<BenchEntry> {
        self.metrics
            .iter()
            .map(|(case, metric, unit, value, dir)| BenchEntry {
                schema_version: BENCH_SCHEMA_VERSION,
                family: self.family.clone(),
                case: case.clone(),
                metric: metric.clone(),
                unit: unit.clone(),
                value: *value,
                direction: *dir,
                commit: env.commit.clone(),
                timestamp: env.timestamp,
                host: env.host.clone(),
                rustc: env.rustc.clone(),
                profile: env.profile.clone(),
            })
            .collect()
    }

    /// Capture the environment, stamp, and append to the history store at
    /// `dir`. Returns the number of entries written.
    pub fn append_to(&self, dir: &Path) -> std::io::Result<usize> {
        let entries = self.entries(&EnvInfo::capture());
        append_history(dir, &entries)?;
        Ok(entries.len())
    }
}

/// The history file entries of `family` live in, under store root `dir`.
pub fn family_path(dir: &Path, family: &str) -> PathBuf {
    // Family names come from in-tree emitters, but sanitize anyway so a
    // hostile name cannot escape the store directory.
    let safe: String = family
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{safe}.jsonl"))
}

/// Append entries to the per-family JSONL files under `dir`, creating the
/// directory and files as needed. Existing content is never touched: the
/// files are opened in append mode and only whole lines are written.
pub fn append_history(dir: &Path, entries: &[BenchEntry]) -> std::io::Result<()> {
    if entries.is_empty() {
        return Ok(());
    }
    std::fs::create_dir_all(dir)?;
    // Group by family, preserving entry order within each.
    let mut families: Vec<&str> = entries.iter().map(|e| e.family.as_str()).collect();
    families.sort_unstable();
    families.dedup();
    for family in families {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(family_path(dir, family))?;
        let mut buf = String::new();
        for e in entries.iter().filter(|e| e.family == family) {
            buf.push_str(&e.to_json_line());
            buf.push('\n');
        }
        file.write_all(buf.as_bytes())?;
    }
    Ok(())
}

/// Load one family's history, oldest first. Unparseable or
/// newer-schema-version lines are skipped (counted in the second return),
/// so a corrupted or future line cannot take the ledger down.
pub fn load_family(dir: &Path, family: &str) -> std::io::Result<(Vec<BenchEntry>, usize)> {
    let path = family_path(dir, family);
    if !path.exists() {
        return Ok((Vec::new(), 0));
    }
    let text = std::fs::read_to_string(&path)?;
    let mut entries = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match BenchEntry::parse_line(line) {
            Some(e) => entries.push(e),
            None => skipped += 1,
        }
    }
    Ok((entries, skipped))
}

/// Every family present in the store (by file name), sorted.
pub fn list_families(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut names = Vec::new();
    if !dir.exists() {
        return Ok(names);
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                names.push(stem.to_string());
            }
        }
    }
    names.sort();
    Ok(names)
}

/// Load the whole store, oldest first within each family.
pub fn load_all(dir: &Path) -> std::io::Result<Vec<BenchEntry>> {
    let mut all = Vec::new();
    for family in list_families(dir)? {
        all.extend(load_family(dir, &family)?.0);
    }
    Ok(all)
}

/// Median of `values` (mean of the middle two for even counts); `None`
/// when empty. The gate uses a *rolling median* of the last few commits as
/// its baseline so one noisy run cannot move the bar much.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_env() -> EnvInfo {
        EnvInfo {
            commit: "c0ffee".to_string(),
            timestamp: 1_700_000_000,
            host: "linux/x86_64/testhost".to_string(),
            rustc: "rustc 1.0.0-test".to_string(),
            profile: "release".to_string(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mlc-bench-report-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn entry_round_trips_through_json_line() {
        let mut r = BenchReport::new("trace_throughput");
        r.metric(
            "expl512/ultrasparc_i",
            "speedup",
            "x",
            3.375,
            Direction::Higher,
        );
        r.metric("fuzz", "violations", "count", 0.0, Direction::Lower);
        let entries = r.entries(&test_env());
        for e in &entries {
            let back = BenchEntry::parse_line(&e.to_json_line()).expect("round trip");
            assert_eq!(&back, e);
        }
        assert_eq!(entries[0].direction, Direction::Higher);
        assert_eq!(entries[1].direction, Direction::Lower);
    }

    #[test]
    fn future_schema_versions_are_skipped_not_fatal() {
        let e = BenchReport::new("f").entries(&test_env());
        assert!(e.is_empty());
        let mut r = BenchReport::new("f");
        r.metric("c", "m", "x", 1.0, Direction::Higher);
        let entry = &r.entries(&test_env())[0];
        let line = entry
            .to_json_line()
            .replace("\"schema_version\":1", "\"schema_version\":999");
        assert!(BenchEntry::parse_line(&line).is_none());
        assert!(BenchEntry::parse_line("not json").is_none());
        assert!(BenchEntry::parse_line("{\"schema_version\":1}").is_none());
    }

    #[test]
    fn append_is_append_only() {
        let dir = tmpdir("append-only");
        let mut r = BenchReport::new("fam");
        r.metric("a", "m", "x", 1.0, Direction::Higher);
        append_history(&dir, &r.entries(&test_env())).unwrap();
        let first = std::fs::read(family_path(&dir, "fam")).unwrap();

        let mut r2 = BenchReport::new("fam");
        r2.metric("a", "m", "x", 2.0, Direction::Higher);
        append_history(&dir, &r2.entries(&test_env())).unwrap();
        let second = std::fs::read(family_path(&dir, "fam")).unwrap();

        // Existing bytes are a strict prefix of the new content.
        assert!(second.len() > first.len());
        assert_eq!(&second[..first.len()], &first[..]);

        let (entries, skipped) = load_family(&dir, "fam").unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].value, 1.0);
        assert_eq!(entries[1].value, 2.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_groups_by_family_and_lists() {
        let dir = tmpdir("families");
        let env = test_env();
        let mut a = BenchReport::new("alpha");
        a.metric("c", "m", "x", 1.0, Direction::Higher);
        let mut b = BenchReport::new("beta");
        b.metric("c", "m", "x", 2.0, Direction::Lower);
        let mut entries = a.entries(&env);
        entries.extend(b.entries(&env));
        append_history(&dir, &entries).unwrap();
        assert_eq!(list_families(&dir).unwrap(), vec!["alpha", "beta"]);
        assert_eq!(load_all(&dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_lines_are_skipped_and_counted() {
        let dir = tmpdir("corrupt");
        let mut r = BenchReport::new("fam");
        r.metric("a", "m", "x", 1.0, Direction::Higher);
        append_history(&dir, &r.entries(&test_env())).unwrap();
        let path = family_path(&dir, "fam");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"broken\n");
        std::fs::write(&path, text).unwrap();
        let (entries, skipped) = load_family(&dir, "fam").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn family_names_are_sanitized() {
        let dir = PathBuf::from("/store");
        assert_eq!(
            family_path(&dir, "../escape me"),
            PathBuf::from("/store/___escape_me.jsonl")
        );
    }

    #[test]
    fn median_damps_outliers() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 100.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 100.0]), Some(2.5));
    }

    #[test]
    fn direction_improvement_signs() {
        assert!(Direction::Higher.improvement(1.0, 2.0) > 0.0);
        assert!(Direction::Higher.improvement(2.0, 1.0) < 0.0);
        assert!(Direction::Lower.improvement(2.0, 1.0) > 0.0);
        assert!(Direction::Lower.improvement(1.0, 2.0) < 0.0);
    }

    #[test]
    fn entries_match_committed_schema() {
        // The JSON shape is pinned by results/bench_entry_schema.json;
        // validate a generated entry against the committed file so the
        // writer and the schema cannot drift apart.
        let schema_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/bench_entry_schema.json");
        let schema = JsonValue::parse(&std::fs::read_to_string(schema_path).unwrap()).unwrap();
        let mut r = BenchReport::new("fam");
        r.metric("case", "metric", "x", 1.5, Direction::Higher);
        let entry = &r.entries(&test_env())[0];
        let errors = crate::schema::validate(&schema, &entry.to_json());
        assert!(errors.is_empty(), "schema violations: {errors:?}");
    }
}
