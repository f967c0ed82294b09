//! A minimal JSON Schema validator over [`JsonValue`].
//!
//! Supports the subset of draft-07 needed to pin down the metrics export
//! format in `results/metrics_schema.json`: `type` (string or array of
//! strings), `properties`, `required`, `additionalProperties` (boolean or
//! schema), `items` (single schema), `enum`, `minimum`, and `const`.
//! Unknown keywords are ignored, as the spec requires.
//!
//! Not a general-purpose validator — no `$ref`, no `oneOf`, no string
//! formats — but enough that the experiment binaries' output can be
//! checked in-tree without external dependencies.

use crate::json::JsonValue;

/// One schema violation: where and what.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaError {
    /// JSON-pointer-ish path to the failing value (`$`, `$.counters.x`,
    /// `$.buckets[2]`).
    pub path: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// Validate `value` against `schema`; returns every violation found.
/// An empty vector means the document conforms.
pub fn validate(schema: &JsonValue, value: &JsonValue) -> Vec<SchemaError> {
    let mut errors = Vec::new();
    validate_at(schema, value, "$", &mut errors);
    errors
}

fn json_type_name(value: &JsonValue) -> &'static str {
    match value {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "boolean",
        JsonValue::Num(n) => {
            if n.fract() == 0.0 && n.is_finite() {
                "integer"
            } else {
                "number"
            }
        }
        JsonValue::Str(_) => "string",
        JsonValue::Array(_) => "array",
        JsonValue::Object(_) => "object",
    }
}

fn type_matches(expected: &str, value: &JsonValue) -> bool {
    let actual = json_type_name(value);
    expected == actual || (expected == "number" && actual == "integer")
}

fn validate_at(schema: &JsonValue, value: &JsonValue, path: &str, errors: &mut Vec<SchemaError>) {
    // A boolean schema accepts (true) or rejects (false) everything.
    if let JsonValue::Bool(allow) = schema {
        if !allow {
            errors.push(SchemaError {
                path: path.to_string(),
                message: "schema forbids any value here".to_string(),
            });
        }
        return;
    }
    let Some(schema_obj) = schema.as_object() else {
        return; // Non-object, non-bool schema: nothing to check.
    };
    let field = |name: &str| schema_obj.iter().find(|(k, _)| k == name).map(|(_, v)| v);

    if let Some(ty) = field("type") {
        let allowed: Vec<&str> = match ty {
            JsonValue::Str(s) => vec![s.as_str()],
            JsonValue::Array(items) => items.iter().filter_map(|v| v.as_str()).collect(),
            _ => vec![],
        };
        if !allowed.is_empty() && !allowed.iter().any(|t| type_matches(t, value)) {
            errors.push(SchemaError {
                path: path.to_string(),
                message: format!(
                    "expected type {}, got {}",
                    allowed.join(" or "),
                    json_type_name(value)
                ),
            });
            return; // Further keyword checks would only cascade.
        }
    }

    if let Some(JsonValue::Array(options)) = field("enum") {
        if !options.iter().any(|o| o == value) {
            errors.push(SchemaError {
                path: path.to_string(),
                message: format!("value {} not in enum", value.to_string_compact()),
            });
        }
    }

    if let Some(expected) = field("const") {
        if expected != value {
            errors.push(SchemaError {
                path: path.to_string(),
                message: format!(
                    "expected const {}, got {}",
                    expected.to_string_compact(),
                    value.to_string_compact()
                ),
            });
        }
    }

    if let Some(min) = field("minimum").and_then(JsonValue::as_f64) {
        if let Some(n) = value.as_f64() {
            if n < min {
                errors.push(SchemaError {
                    path: path.to_string(),
                    message: format!("value {n} below minimum {min}"),
                });
            }
        }
    }

    if let Some(fields) = value.as_object() {
        if let Some(JsonValue::Array(required)) = field("required") {
            for name in required.iter().filter_map(|v| v.as_str()) {
                if !fields.iter().any(|(k, _)| k == name) {
                    errors.push(SchemaError {
                        path: path.to_string(),
                        message: format!("missing required property \"{name}\""),
                    });
                }
            }
        }
        let properties = field("properties").and_then(JsonValue::as_object);
        let additional = field("additionalProperties");
        for (key, child) in fields {
            let child_path = format!("{path}.{key}");
            let declared =
                properties.and_then(|props| props.iter().find(|(k, _)| k == key).map(|(_, v)| v));
            match (declared, additional) {
                (Some(sub), _) => validate_at(sub, child, &child_path, errors),
                (None, Some(JsonValue::Bool(false))) => errors.push(SchemaError {
                    path: child_path,
                    message: "property not allowed (additionalProperties: false)".to_string(),
                }),
                (None, Some(sub @ JsonValue::Object(_))) => {
                    validate_at(sub, child, &child_path, errors)
                }
                (None, _) => {}
            }
        }
    }

    if let Some(JsonValue::Array(items)) = Some(value) {
        if let Some(item_schema) = field("items") {
            for (i, item) in items.iter().enumerate() {
                validate_at(item_schema, item, &format!("{path}[{i}]"), errors);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(text: &str) -> JsonValue {
        JsonValue::parse(text).unwrap()
    }

    #[test]
    fn accepts_conforming_object() {
        let s = schema(
            r#"{"type":"object","required":["n"],
                "properties":{"n":{"type":"integer","minimum":0}},
                "additionalProperties":false}"#,
        );
        let v = JsonValue::parse(r#"{"n": 3}"#).unwrap();
        assert!(validate(&s, &v).is_empty());
    }

    #[test]
    fn flags_missing_required_and_bad_type() {
        let s =
            schema(r#"{"type":"object","required":["n"],"properties":{"n":{"type":"integer"}}}"#);
        let missing = JsonValue::parse(r#"{}"#).unwrap();
        assert_eq!(validate(&s, &missing).len(), 1);
        let wrong = JsonValue::parse(r#"{"n":"x"}"#).unwrap();
        let errs = validate(&s, &wrong);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("expected type integer"));
        assert_eq!(errs[0].path, "$.n");
    }

    #[test]
    fn additional_properties_schema_applies_to_dynamic_keys() {
        let s = schema(r#"{"type":"object","additionalProperties":{"type":"integer"}}"#);
        let good = JsonValue::parse(r#"{"a":1,"b":2}"#).unwrap();
        assert!(validate(&s, &good).is_empty());
        let bad = JsonValue::parse(r#"{"a":1,"b":"x"}"#).unwrap();
        let errs = validate(&s, &bad);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].path, "$.b");
    }

    #[test]
    fn additional_properties_false_rejects_unknown() {
        let s = schema(r#"{"type":"object","properties":{"a":true},"additionalProperties":false}"#);
        let v = JsonValue::parse(r#"{"a":1,"z":2}"#).unwrap();
        let errs = validate(&s, &v);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("not allowed"));
    }

    #[test]
    fn items_and_enum_and_const() {
        let s = schema(
            r#"{"type":"array","items":{"type":"object",
                "properties":{"kind":{"enum":["a","b"]},"v":{"const":1}}}}"#,
        );
        let good = JsonValue::parse(r#"[{"kind":"a","v":1},{"kind":"b","v":1}]"#).unwrap();
        assert!(validate(&s, &good).is_empty());
        let bad = JsonValue::parse(r#"[{"kind":"c","v":2}]"#).unwrap();
        let errs = validate(&s, &bad);
        assert_eq!(errs.len(), 2);
        assert_eq!(errs[0].path, "$[0].kind");
    }

    #[test]
    fn integer_matches_number_but_not_vice_versa() {
        let s = schema(r#"{"type":"number"}"#);
        assert!(validate(&s, &JsonValue::Num(3.0)).is_empty());
        assert!(validate(&s, &JsonValue::Num(3.5)).is_empty());
        let s = schema(r#"{"type":"integer"}"#);
        assert!(validate(&s, &JsonValue::Num(3.0)).is_empty());
        assert_eq!(validate(&s, &JsonValue::Num(3.5)).len(), 1);
    }

    #[test]
    fn minimum_is_checked() {
        let s = schema(r#"{"type":"number","minimum":0}"#);
        assert!(validate(&s, &JsonValue::Num(0.0)).is_empty());
        assert_eq!(validate(&s, &JsonValue::Num(-1.0)).len(), 1);
    }
}
