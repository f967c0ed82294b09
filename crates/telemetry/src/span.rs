//! Structured span tracing.
//!
//! A [`Tracer`] records a tree of named spans (wall-time intervals with
//! typed attributes) plus point-in-time events. The optimizer pipeline
//! opens one span per pass (`intra_pad`, `permutation`, `fusion`, `pad`)
//! and the experiment binaries open one per phase, so a single trace
//! answers "where did the wall time and the positions-tried budget go?".
//!
//! Spans are explicit (`begin` / `end` with a [`SpanId`]) rather than
//! guard-based so callers can attach attributes discovered mid-pass
//! without fighting the borrow checker. A disabled tracer turns every
//! operation into a no-op, letting instrumented code paths serve both the
//! traced and untraced entry points.
//!
//! Output formats:
//! * [`Tracer::write_jsonl`] — one JSON object per line, `type` field
//!   `"span"` or `"event"`, machine-readable (see `docs/OBSERVABILITY.md`
//!   for the field list);
//! * [`Tracer::render_text`] — an indented human-readable tree.

use crate::json::JsonValue;
use std::fmt;
use std::time::Instant;

/// A typed span/event attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counters, byte sizes).
    UInt(u64),
    /// Float (rates, deltas).
    Float(f64),
    /// String (names, algorithm labels).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl AttrValue {
    fn to_json(&self) -> JsonValue {
        match self {
            AttrValue::Int(v) => JsonValue::from(*v),
            AttrValue::UInt(v) => JsonValue::from(*v),
            AttrValue::Float(v) => JsonValue::Num(*v),
            AttrValue::Str(v) => JsonValue::Str(v.clone()),
            AttrValue::Bool(v) => JsonValue::Bool(*v),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::UInt(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v:.3}"),
            AttrValue::Str(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::UInt(v)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::UInt(v as u64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// Handle to an open (or closed) span. The id of a disabled tracer's spans
/// is a sentinel and all operations on it are no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

const DISABLED_SPAN: SpanId = SpanId(u64::MAX);

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within this tracer (1-based).
    pub id: u64,
    /// Enclosing span's id, if any.
    pub parent: Option<u64>,
    /// Span name (e.g. `"pass.pad"`).
    pub name: String,
    /// Start, in microseconds since the tracer was created.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Attributes in attachment order.
    pub attrs: Vec<(String, AttrValue)>,
}

/// One point-in-time event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Microseconds since the tracer was created.
    pub at_us: u64,
    /// Enclosing span's id, if any was open.
    pub span: Option<u64>,
    /// Event name.
    pub name: String,
    /// Attributes.
    pub attrs: Vec<(String, AttrValue)>,
}

#[derive(Debug, Clone)]
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_us: u64,
    attrs: Vec<(String, AttrValue)>,
}

/// Collects spans and events; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    open: Vec<OpenSpan>,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An enabled tracer with its epoch at "now".
    pub fn new() -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            next_id: 1,
            open: Vec::new(),
            spans: Vec::new(),
            events: Vec::new(),
        }
    }

    /// A tracer whose every operation is a no-op.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a span named `name`, nested under the innermost open span.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return DISABLED_SPAN;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|s| s.id);
        self.open.push(OpenSpan {
            id,
            parent,
            name: name.to_string(),
            start_us: self.now_us(),
            attrs: Vec::new(),
        });
        SpanId(id)
    }

    /// Attach an attribute to an open span.
    pub fn attr(&mut self, span: SpanId, key: &str, value: impl Into<AttrValue>) {
        if !self.enabled || span == DISABLED_SPAN {
            return;
        }
        if let Some(s) = self.open.iter_mut().rev().find(|s| s.id == span.0) {
            s.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Close a span. Spans opened after it that are still open are closed
    /// too (truncated at the same instant), keeping the record well-formed
    /// even on early returns.
    pub fn end(&mut self, span: SpanId) {
        if !self.enabled || span == DISABLED_SPAN {
            return;
        }
        let Some(pos) = self.open.iter().rposition(|s| s.id == span.0) else {
            return;
        };
        let now = self.now_us();
        while self.open.len() > pos {
            let s = self.open.pop().unwrap();
            self.spans.push(SpanRecord {
                id: s.id,
                parent: s.parent,
                name: s.name,
                start_us: s.start_us,
                dur_us: now.saturating_sub(s.start_us),
                attrs: s.attrs,
            });
        }
    }

    /// Run `f` inside a span named `name`; the span closes when `f`
    /// returns. The span id is passed in for attribute attachment.
    pub fn in_span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer, SpanId) -> T) -> T {
        let id = self.begin(name);
        let out = f(self, id);
        self.end(id);
        out
    }

    /// Record a point-in-time event under the innermost open span.
    pub fn event(&mut self, name: &str, attrs: Vec<(String, AttrValue)>) {
        if !self.enabled {
            return;
        }
        self.events.push(EventRecord {
            at_us: self.now_us(),
            span: self.open.last().map(|s| s.id),
            name: name.to_string(),
            attrs,
        });
    }

    /// Completed spans (closed ones only), in close order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Recorded events in emission order.
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Find the first completed span with this name.
    pub fn span_named(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Write the trace as JSONL: one `{"type":"span",…}` or
    /// `{"type":"event",…}` object per line, spans sorted by start time.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let attrs_json = |attrs: &[(String, AttrValue)]| {
            JsonValue::Object(
                attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json()))
                    .collect(),
            )
        };
        let mut spans: Vec<&SpanRecord> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_us, s.id));
        for s in spans {
            let mut pairs = vec![
                ("type", JsonValue::from("span")),
                ("id", JsonValue::from(s.id)),
            ];
            if let Some(p) = s.parent {
                pairs.push(("parent", JsonValue::from(p)));
            }
            pairs.extend([
                ("name", JsonValue::Str(s.name.clone())),
                ("start_us", JsonValue::from(s.start_us)),
                ("dur_us", JsonValue::from(s.dur_us)),
                ("attrs", attrs_json(&s.attrs)),
            ]);
            writeln!(out, "{}", JsonValue::object(pairs).to_string_compact())?;
        }
        for e in &self.events {
            let mut pairs = vec![("type", JsonValue::from("event"))];
            if let Some(p) = e.span {
                pairs.push(("span", JsonValue::from(p)));
            }
            pairs.extend([
                ("name", JsonValue::Str(e.name.clone())),
                ("at_us", JsonValue::from(e.at_us)),
                ("attrs", attrs_json(&e.attrs)),
            ]);
            writeln!(out, "{}", JsonValue::object(pairs).to_string_compact())?;
        }
        Ok(())
    }

    /// Render the span tree as indented human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut roots: Vec<&SpanRecord> =
            self.spans.iter().filter(|s| s.parent.is_none()).collect();
        roots.sort_by_key(|s| (s.start_us, s.id));
        for root in roots {
            self.render_span(root, 0, &mut out);
        }
        for e in &self.events {
            out.push_str(&format!("event {} @{}us", e.name, e.at_us));
            for (k, v) in &e.attrs {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
        }
        out
    }

    fn render_span(&self, span: &SpanRecord, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!("{} [{} us]", span.name, span.dur_us));
        for (k, v) in &span.attrs {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        let mut children: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span.id))
            .collect();
        children.sort_by_key(|s| (s.start_us, s.id));
        for c in children {
            self.render_span(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.attr(inner, "n", 3u64);
        t.end(inner);
        t.attr(outer, "done", true);
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        let inner = t.span_named("inner").unwrap();
        let outer = t.span_named("outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.attrs[0].0, "n");
        assert!(outer.dur_us >= inner.dur_us);
    }

    #[test]
    fn ending_parent_closes_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let _inner = t.begin("inner");
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let s = t.begin("x");
        t.attr(s, "k", 1u64);
        t.event("e", vec![]);
        t.end(s);
        assert!(t.spans().is_empty());
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn jsonl_lines_parse_and_carry_fields() {
        let mut t = Tracer::new();
        let s = t.begin("pass.pad");
        t.attr(s, "positions_tried", 96u64);
        t.event("note", vec![("x".into(), AttrValue::Int(-1))]);
        t.end(s);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let span = JsonValue::parse(lines[0]).unwrap();
        assert_eq!(span.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(span.get("name").unwrap().as_str(), Some("pass.pad"));
        assert_eq!(
            span.get("attrs")
                .unwrap()
                .get("positions_tried")
                .unwrap()
                .as_u64(),
            Some(96)
        );
        let event = JsonValue::parse(lines[1]).unwrap();
        assert_eq!(event.get("type").unwrap().as_str(), Some("event"));
    }

    #[test]
    fn text_rendering_indents_children() {
        let mut t = Tracer::new();
        let o = t.begin("optimize");
        let i = t.begin("pass.intra_pad");
        t.end(i);
        t.end(o);
        let text = t.render_text();
        assert!(text.contains("optimize ["));
        assert!(text.contains("\n  pass.intra_pad ["));
    }

    #[test]
    fn in_span_closes_on_return() {
        let mut t = Tracer::new();
        let got = t.in_span("work", |t, id| {
            t.attr(id, "k", "v");
            42
        });
        assert_eq!(got, 42);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].attrs.len(), 1);
    }
}
