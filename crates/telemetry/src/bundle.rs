//! The [`Telemetry`] bundle: one tracer plus one metrics registry,
//! threaded by value through the optimizer and the experiment binaries.
//!
//! `Telemetry::disabled()` costs nothing to pass around — the tracer
//! no-ops and the registry stays empty — so instrumented entry points can
//! serve both traced and untraced callers.

use crate::metrics::MetricsRegistry;
use crate::span::Tracer;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// A tracer and a metrics registry travelling together.
#[derive(Debug)]
pub struct Telemetry {
    /// Span/event tracer.
    pub tracer: Tracer,
    /// Counter/value/histogram registry.
    pub metrics: MetricsRegistry,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// Telemetry that records spans and metrics.
    pub fn enabled() -> Self {
        Self {
            tracer: Tracer::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Telemetry whose tracer no-ops. The metrics registry still accepts
    /// writes (they are cheap and callers check [`Telemetry::is_enabled`]
    /// before doing expensive collection).
    pub fn disabled() -> Self {
        Self {
            tracer: Tracer::disabled(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Whether the tracer records spans.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Write the trace as JSONL to `path`.
    pub fn write_trace_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        self.tracer.write_jsonl(&mut out)?;
        out.flush()
    }

    /// Write the metrics registry as pretty JSON to `path`.
    pub fn write_metrics_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(self.metrics.to_json_string().as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn disabled_bundle_is_inert_but_usable() {
        let mut t = Telemetry::disabled();
        let s = t.tracer.begin("x");
        t.tracer.end(s);
        assert!(!t.is_enabled());
        assert!(t.tracer.spans().is_empty());
    }

    #[test]
    fn files_round_trip() {
        let mut t = Telemetry::enabled();
        let s = t.tracer.begin("pass.pad");
        t.tracer.end(s);
        t.metrics.count("sim.l1.accesses", 10);

        let dir = std::env::temp_dir().join("mlc-telemetry-bundle-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.jsonl");
        let json = dir.join("m.json");
        t.write_trace_jsonl(&trace).unwrap();
        t.write_metrics_json(&json).unwrap();

        let line = std::fs::read_to_string(&trace).unwrap();
        assert!(JsonValue::parse(line.lines().next().unwrap()).is_ok());
        let metrics = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(
            metrics.get("schema_version").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            metrics
                .get("counters")
                .and_then(|c| c.get("sim.l1.accesses"))
                .and_then(JsonValue::as_u64),
            Some(10)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
