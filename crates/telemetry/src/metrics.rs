//! Counters, values and histograms under one exportable registry.
//!
//! Names are flat dotted strings (`sim.l1.miss.conflict`,
//! `optimizer.pad.positions_tried`); the registry keeps them sorted so the
//! JSON export is deterministic. Histograms are log₂-bucketed —
//! the right shape for conflict distances and set-pressure counts, which
//! span many orders of magnitude.
//!
//! The export format is frozen by `results/metrics_schema.json` (a JSON
//! Schema) and validated in tests; it is the JSON that `--metrics-out`
//! writes.

use crate::json::JsonValue;
use std::collections::BTreeMap;

/// Number of log₂ buckets: values up to `2^63` are representable.
const BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples `v` with `v == 0 && i == 0` or
/// `v.ilog2() == i`, i.e. the bucket's inclusive upper bound is
/// `2^(i+1) - 1` (and 0 for the first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let b = if value == 0 {
            0
        } else {
            value.ilog2() as usize
        };
        self.buckets[b] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one exactly (buckets and summary
    /// fields are both additive/extremal).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Non-empty `(log2_bucket, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
    }

    fn to_json(&self) -> JsonValue {
        let buckets = self
            .nonzero_buckets()
            .map(|(i, c)| {
                JsonValue::object(vec![
                    ("log2", JsonValue::from(u64::from(i))),
                    ("count", JsonValue::from(c)),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("count", JsonValue::from(self.count)),
            ("sum", JsonValue::from(self.sum)),
            ("min", JsonValue::from(self.min().unwrap_or(0))),
            ("max", JsonValue::from(self.max().unwrap_or(0))),
            ("mean", JsonValue::Num(self.mean())),
            ("buckets", JsonValue::Array(buckets)),
        ])
    }
}

/// A registry of named counters, values and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    values: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (creating it at 0).
    pub fn count(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set gauge/value `name` (last write wins).
    pub fn set_value(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record one sample into histogram `name` (creating it empty).
    pub fn record(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Fold a whole histogram into histogram `name`.
    pub fn merge_histogram(&mut self, name: &str, histogram: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(histogram);
    }

    /// Read a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Read a value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Read a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.values.is_empty() && self.histograms.is_empty()
    }

    /// Merge another registry into this one (counters add, values overwrite,
    /// histograms are summed bucket-wise via re-recording of summaries is
    /// not possible — they are combined exactly since both are bucketed).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.values {
            self.values.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// The registry as a JSON value matching `results/metrics_schema.json`.
    pub fn to_json(&self) -> JsonValue {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), JsonValue::from(v)))
            .collect();
        let values = self
            .values
            .iter()
            .map(|(k, &v)| (k.clone(), JsonValue::Num(v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        JsonValue::object(vec![
            ("schema_version", JsonValue::from(1u64)),
            ("counters", JsonValue::Object(counters)),
            ("values", JsonValue::Object(values)),
            ("histograms", JsonValue::Object(histograms)),
        ])
    }

    /// Pretty-printed JSON export.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1034);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1024));
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        // 0 and 1 in bucket 0; 2,3 in bucket 1; 4 in bucket 2; 1024 in 10.
        assert_eq!(buckets, vec![(0, 2), (1, 2), (2, 1), (10, 1)]);
    }

    #[test]
    fn registry_round_trip_counters() {
        let mut m = MetricsRegistry::new();
        m.count("a.b", 2);
        m.count("a.b", 3);
        m.set_value("r", 0.5);
        m.record("h", 7);
        assert_eq!(m.counter("a.b"), 5);
        assert_eq!(m.value("r"), Some(0.5));
        assert_eq!(m.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn json_export_has_schema_shape() {
        let mut m = MetricsRegistry::new();
        m.count("c", 1);
        m.record("h", 3);
        let j = m.to_json();
        assert_eq!(j.get("schema_version").and_then(JsonValue::as_u64), Some(1));
        assert!(j.get("counters").and_then(|c| c.get("c")).is_some());
        let h = j.get("histograms").and_then(|h| h.get("h")).unwrap();
        assert_eq!(h.get("count").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.count("c", 1);
        b.count("c", 2);
        a.record("h", 1);
        b.record("h", 64);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(64));
    }
}
