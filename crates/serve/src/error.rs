//! The typed error taxonomy of the HTTP API.
//!
//! Every failure a request can provoke maps to one documented
//! `(status, code)` pair and a JSON body of the shape
//! `{"error":{"code":...,"status":...,"message":...}}` — clients switch on
//! `code`, humans read `message`. Nothing in the handler path is allowed to
//! answer with an undocumented 500: panics are caught and surfaced as
//! [`ApiError::internal`], and the failure-mode test battery pins each
//! constructor below to its wire shape.

use crate::http::Response;
use mlc_telemetry::json::JsonValue;

/// One typed API failure.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable code (the contract; see `docs/SERVING.md`).
    pub code: &'static str,
    /// Human-readable detail. Free-form; never part of the contract.
    pub message: String,
    /// Extra headers (e.g. `Retry-After` on backpressure).
    pub headers: Vec<(&'static str, String)>,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            code,
            message: message.into(),
            headers: Vec::new(),
        }
    }

    /// 400 `malformed_case`: the body did not parse as `.case` text.
    pub fn malformed_case(detail: impl Into<String>) -> Self {
        Self::new(400, "malformed_case", detail)
    }

    /// 400 `bad_request`: missing body, unreadable framing, or a bad query
    /// parameter.
    pub fn bad_request(detail: impl Into<String>) -> Self {
        Self::new(400, "bad_request", detail)
    }

    /// 404 `not_found`: unknown path.
    pub fn not_found(path: &str) -> Self {
        Self::new(404, "not_found", format!("no such endpoint: {path}"))
    }

    /// 405 `method_not_allowed`.
    pub fn method_not_allowed(method: &str, path: &str, allow: &'static str) -> Self {
        Self::new(
            405,
            "method_not_allowed",
            format!("{method} not allowed on {path}"),
        )
        .with_header("Allow", allow.to_string())
    }

    /// 413 `payload_too_large`: request head or body over the limit.
    pub fn payload_too_large(what: &str, limit: usize) -> Self {
        Self::new(
            413,
            "payload_too_large",
            format!("request {what} exceeds {limit} bytes"),
        )
    }

    /// 422 `invalid_ir`: the case parsed but its program cannot generate a
    /// trace (unbound variable, zero step, empty bounds, negative address).
    pub fn invalid_ir(detail: impl Into<String>) -> Self {
        Self::new(422, "invalid_ir", detail)
    }

    /// 422 `search_exhausted`: the padding search ran out of candidates.
    pub fn search_exhausted(detail: impl Into<String>) -> Self {
        Self::new(422, "search_exhausted", detail)
    }

    /// 422 `optimize_failed`: the pipeline rejected the request (e.g. a
    /// hierarchy whose levels do not nest).
    pub fn optimize_failed(detail: impl Into<String>) -> Self {
        Self::new(422, "optimize_failed", detail)
    }

    /// 422 `grid_too_large`: a sweep grid over the per-request cell or
    /// access budget.
    pub fn grid_too_large(detail: impl Into<String>) -> Self {
        Self::new(422, "grid_too_large", detail)
    }

    /// 429 `queue_full`: admission queue at capacity; retry later.
    pub fn queue_full(retry_after_secs: u64) -> Self {
        Self::new(
            429,
            "queue_full",
            "admission queue is full; retry after the indicated delay",
        )
        .with_header("Retry-After", retry_after_secs.to_string())
    }

    /// 500 `internal`: a caught panic. Should never fire; counted
    /// separately so tests and the load generator can assert it stays zero.
    pub fn internal(detail: impl Into<String>) -> Self {
        Self::new(500, "internal", detail)
    }

    fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.headers.push((name, value));
        self
    }

    /// The JSON body for this error.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![(
            "error",
            JsonValue::object(vec![
                ("code", JsonValue::Str(self.code.to_string())),
                ("status", JsonValue::from(u64::from(self.status))),
                ("message", JsonValue::Str(self.message.clone())),
            ]),
        )])
    }

    /// The full HTTP response for this error.
    pub fn to_response(&self) -> Response {
        let mut resp = Response::json(self.status, self.to_json().to_string_compact());
        for (name, value) in &self.headers {
            resp = resp.header(name, value.clone());
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_body_shape_is_stable() {
        let e = ApiError::malformed_case("line 3: bad keyword");
        let json = e.to_json();
        let err = json.get("error").expect("error object");
        assert_eq!(
            err.get("code").and_then(JsonValue::as_str),
            Some("malformed_case")
        );
        assert_eq!(err.get("status").and_then(JsonValue::as_u64), Some(400));
        assert!(err
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("line 3"));
    }

    #[test]
    fn queue_full_carries_retry_after() {
        let resp = ApiError::queue_full(1).to_response();
        assert_eq!(resp.status, 429);
        assert!(resp
            .headers
            .iter()
            .any(|(n, v)| n == "Retry-After" && v == "1"));
    }

    #[test]
    fn method_not_allowed_carries_allow() {
        let resp = ApiError::method_not_allowed("GET", "/simulate", "POST").to_response();
        assert_eq!(resp.status, 405);
        assert!(resp
            .headers
            .iter()
            .any(|(n, v)| n == "Allow" && v == "POST"));
    }
}
