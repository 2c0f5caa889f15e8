//! Minimal JSON emission shared by the run summaries and the HTTP server.
//!
//! The build environment vendors no serialisation crate, so the workspace
//! hand-rolls its (small, write-only) JSON needs here: proper string
//! escaping, non-finite-float handling, and two composable builders —
//! [`JsonObject`] and [`JsonArray`] — with an *inline* single-line style for
//! nested values and a *pretty* two-space-indented style for top-level
//! documents. Both the CLI's `-o summary` output and every JSON response of
//! `backboning_server` are produced through this module, so the two surfaces
//! can never drift apart on escaping rules.
//!
//! ```
//! use backboning::json::{self, JsonObject};
//!
//! let mut policy = JsonObject::inline();
//! policy.string("kind", "top_share").f64("value", 0.2);
//! let mut summary = JsonObject::pretty();
//! summary.string("method", "nc").raw("policy", &policy.finish());
//! assert_eq!(
//!     summary.finish(),
//!     "{\n  \"method\": \"nc\",\n  \"policy\": { \"kind\": \"top_share\", \"value\": 0.2 }\n}"
//! );
//! assert_eq!(json::escape("tab\there"), "tab\\there");
//! ```

use backboning_graph::io::write_f64;

/// Append `text` to `out` with JSON string escaping (quotes, backslashes,
/// and control characters; no surrounding quotes).
pub fn escape_into(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// [`escape_into`] returning a fresh string (still without quotes).
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_into(&mut out, text);
    out
}

/// `text` as a quoted, escaped JSON string literal.
pub fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    escape_into(&mut out, text);
    out.push('"');
    out
}

/// `value` as a JSON number: the bytes of its `{}` text, the shortest
/// digits that read back to it and never an exponent, written by
/// [`write_f64`]; non-finite values (which JSON cannot represent) become
/// `null`.
pub fn number(value: f64) -> String {
    if !value.is_finite() {
        return "null".to_string();
    }
    let mut text = Vec::with_capacity(24);
    write_f64(&mut text, value).expect("writing to a Vec cannot fail");
    String::from_utf8(text).expect("write_f64 writes ASCII")
}

/// `value` as a JSON number with a fixed number of decimal places (the
/// summary format uses 6 for shares and 3 for milliseconds); non-finite
/// values become `null`.
pub fn number_fixed(value: f64, decimals: usize) -> String {
    if value.is_finite() {
        format!("{value:.decimals$}")
    } else {
        "null".to_string()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Style {
    /// `{ "k": v, "k2": v2 }` on a single line (for nested values).
    Inline,
    /// One field per line, two-space indent (for top-level documents).
    Pretty,
}

/// A JSON object under construction. Fields are emitted in call order.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    style: Style,
    fields: usize,
}

impl JsonObject {
    /// A single-line object: `{ "kind": "score", "value": 1.64 }`.
    pub fn inline() -> Self {
        JsonObject {
            buf: String::from("{"),
            style: Style::Inline,
            fields: 0,
        }
    }

    /// A multi-line object with two-space-indented fields.
    pub fn pretty() -> Self {
        JsonObject {
            buf: String::from("{"),
            style: Style::Pretty,
            fields: 0,
        }
    }

    fn key(&mut self, key: &str) {
        if self.fields > 0 {
            self.buf.push(',');
        }
        match self.style {
            Style::Inline => self.buf.push(' '),
            Style::Pretty => self.buf.push_str("\n  "),
        }
        self.fields += 1;
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\": ");
    }

    /// Add an already-serialised JSON value (a nested object, array, or any
    /// raw token) under `key`.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Add a string field (escaped and quoted).
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Add a numeric field via [`number`].
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        let rendered = number(value);
        self.raw(key, &rendered)
    }

    /// Add a numeric field with fixed decimals via [`number_fixed`].
    pub fn f64_fixed(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        let rendered = number_fixed(value, decimals);
        self.raw(key, &rendered)
    }

    /// Add an integer field.
    pub fn usize(&mut self, key: &str, value: usize) -> &mut Self {
        let rendered = value.to_string();
        self.raw(key, &rendered)
    }

    /// Add an integer field from a `u64`.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        let rendered = value.to_string();
        self.raw(key, &rendered)
    }

    /// Add a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Close the object and return its serialised form.
    pub fn finish(&mut self) -> String {
        let mut buf = std::mem::take(&mut self.buf);
        if self.fields == 0 {
            buf.push('}');
        } else {
            match self.style {
                Style::Inline => buf.push_str(" }"),
                Style::Pretty => buf.push_str("\n}"),
            }
        }
        buf
    }
}

/// A JSON array under construction. Elements are emitted in call order.
#[derive(Debug)]
pub struct JsonArray {
    buf: String,
    elements: usize,
}

impl JsonArray {
    /// An empty array builder (`[]` until elements are pushed).
    pub fn new() -> Self {
        JsonArray {
            buf: String::from("["),
            elements: 0,
        }
    }

    fn separator(&mut self) {
        if self.elements > 0 {
            self.buf.push_str(", ");
        }
        self.elements += 1;
    }

    /// Push an already-serialised JSON value.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.separator();
        self.buf.push_str(json);
        self
    }

    /// Push a string element (escaped and quoted).
    pub fn string(&mut self, value: &str) -> &mut Self {
        self.separator();
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Close the array and return its serialised form.
    pub fn finish(&mut self) -> String {
        let mut buf = std::mem::take(&mut self.buf);
        buf.push(']');
        buf
    }
}

impl Default for JsonArray {
    fn default() -> Self {
        JsonArray::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape("back\\slash"), "back\\\\slash");
        assert_eq!(escape("line\nbreak\ttab\rret"), "line\\nbreak\\ttab\\rret");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("unicode: é λ"), "unicode: é λ");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn numbers_render_shortest_and_null_for_non_finite() {
        assert_eq!(number(0.2), "0.2");
        assert_eq!(number(5.0), "5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number_fixed(0.5, 6), "0.500000");
        assert_eq!(number_fixed(f64::NAN, 3), "null");
    }

    #[test]
    fn inline_objects_match_the_summary_style() {
        let mut o = JsonObject::inline();
        o.string("kind", "top_share").f64("value", 0.2);
        assert_eq!(o.finish(), "{ \"kind\": \"top_share\", \"value\": 0.2 }");
        assert_eq!(JsonObject::inline().finish(), "{}");
    }

    #[test]
    fn pretty_objects_indent_fields() {
        let mut o = JsonObject::pretty();
        o.usize("a", 1).bool("b", true).u64("c", 2);
        assert_eq!(o.finish(), "{\n  \"a\": 1,\n  \"b\": true,\n  \"c\": 2\n}");
        assert_eq!(JsonObject::pretty().finish(), "{}");
    }

    #[test]
    fn keys_are_escaped_too() {
        let mut o = JsonObject::inline();
        o.usize("a\"b", 1);
        assert_eq!(o.finish(), "{ \"a\\\"b\": 1 }");
    }

    #[test]
    fn arrays_join_elements() {
        let mut a = JsonArray::new();
        a.string("x").raw("1").raw("{}");
        assert_eq!(a.finish(), "[\"x\", 1, {}]");
        assert_eq!(JsonArray::default().finish(), "[]");
    }

    #[test]
    fn nesting_composes_through_raw() {
        let mut inner = JsonObject::inline();
        inner.usize("n", 7);
        let mut list = JsonArray::new();
        list.raw(&inner.finish());
        let mut outer = JsonObject::pretty();
        outer.raw("items", &list.finish());
        assert_eq!(outer.finish(), "{\n  \"items\": [{ \"n\": 7 }]\n}");
    }
}
