//! PATCH body parsing: one request body in, one [`DeltaBatch`] out.
//!
//! Two wire formats are accepted, selected by `Content-Type`:
//!
//! * **TSV** (the default, mirroring the edge-list upload format): one op
//!   per line — `add SRC TGT W`, `remove SRC TGT`, `reweight SRC TGT W` —
//!   with blank lines and `#` comments ignored. Parsed by
//!   [`DeltaBatch::parse_tsv`], so CLI and server accept byte-identical
//!   delta files.
//! * **JSON** (`Content-Type: application/json`):
//!   `{"ops": [{"op": "add", "source": "a", "target": "b", "weight": 2.0}, …]}`
//!   where `source`/`target` may be strings (labels) or numbers (ids) and
//!   `remove` takes no weight. Parsed by a small hand-rolled reader —
//!   the workspace's `json` module is write-only and the dependency policy
//!   is std-only — and mapped onto the same [`DeltaBatch`], with the op's
//!   1-based position standing in for the TSV line number so validation
//!   errors stay addressable either way.

use backboning_graph::delta::{DeltaOp, DeltaOpKind};
use backboning_graph::DeltaBatch;

use crate::http::Request;

/// Parse a PATCH request body into a delta batch. Errors are ready-to-serve
/// 400 messages (line- or op-numbered).
pub fn parse_delta_body(request: &Request) -> Result<DeltaBatch, String> {
    let body = std::str::from_utf8(&request.body)
        .map_err(|_| "delta body is not valid UTF-8".to_string())?;
    let is_json = request
        .header("content-type")
        .is_some_and(|value| value.contains("application/json"));
    if is_json {
        parse_json_delta(body)
    } else {
        DeltaBatch::parse_tsv(body).map_err(|err| err.to_string())
    }
}

/// A parsed JSON value — just enough of the grammar for delta bodies.
enum Value {
    Object(Vec<(String, Value)>),
    Array(Vec<Value>),
    Text(String),
    Number(f64),
    Bool,
    Null,
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Object(_) => "object",
            Value::Array(_) => "array",
            Value::Text(_) => "string",
            Value::Number(_) => "number",
            Value::Bool => "boolean",
            Value::Null => "null",
        }
    }
}

/// How deeply arrays and objects may nest in a delta body. A valid body
/// nests three levels (`{"ops": [{…}]}`); the bound keeps a body of a
/// million `[` from overflowing a worker's stack, which aborts the process.
const MAX_JSON_DEPTH: usize = 32;

/// A minimal recursive-descent JSON reader over the body text.
struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("delta JSON: {message} (at byte {})", self.pos)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_whitespace();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        match self.peek() {
            Some(found) if found == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(found) => Err(self.error(&format!(
                "expected `{}`, found `{}`",
                byte as char, found as char
            ))),
            None => Err(self.error(&format!("expected `{}`, found end of input", byte as char))),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_JSON_DEPTH => Err(self.error(&format!(
                "arrays and objects nest deeper than {MAX_JSON_DEPTH} levels"
            ))),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::Text(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool),
            Some(b'f') => self.literal("false", Value::Bool),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(&format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        self.skip_whitespace();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            hex
                        }
                        other => {
                            return Err(
                                self.error(&format!("unknown escape `\\{}`", *other as char))
                            )
                        }
                    });
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a full UTF-8 scalar, not a byte. Every step
                    // above moves over whole characters, so `pos` is on a
                    // character boundary; slicing there is O(1).
                    let ch = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.error("invalid UTF-8 in string"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_whitespace();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii run");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error(&format!("cannot parse number `{text}`")))
    }
}

/// A node token from a JSON field: strings pass through as labels/ids,
/// numbers are accepted as a convenience for unlabeled graphs.
fn node_token(op_index: usize, field: &str, value: &Value) -> Result<String, String> {
    match value {
        Value::Text(text) => Ok(text.clone()),
        Value::Number(number) if number.fract() == 0.0 && *number >= 0.0 => {
            Ok(format!("{}", *number as u64))
        }
        other => Err(format!(
            "op {}: `{field}` must be a string or a non-negative integer, got {}",
            op_index + 1,
            other.kind()
        )),
    }
}

fn parse_json_delta(body: &str) -> Result<DeltaBatch, String> {
    let mut reader = Reader::new(body);
    let document = reader.value()?;
    if reader.peek().is_some() {
        return Err(reader.error("trailing content after document"));
    }
    let Value::Object(fields) = document else {
        return Err(format!(
            "delta JSON: expected a top-level object with an `ops` array, got {}",
            document.kind()
        ));
    };
    let mut ops_value = None;
    for (key, value) in fields {
        match key.as_str() {
            "ops" => ops_value = Some(value),
            other => return Err(format!("delta JSON: unknown top-level field `{other}`")),
        }
    }
    let Some(Value::Array(items)) = ops_value else {
        return Err("delta JSON: the top-level `ops` array is required".to_string());
    };

    let mut ops = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let Value::Object(fields) = item else {
            return Err(format!(
                "op {}: expected an object, got {}",
                index + 1,
                item.kind()
            ));
        };
        let mut op = None;
        let mut source = None;
        let mut target = None;
        let mut weight = None;
        for (key, value) in fields {
            match key.as_str() {
                "op" => match value {
                    Value::Text(text) => op = Some(text.clone()),
                    other => {
                        return Err(format!(
                            "op {}: `op` must be a string, got {}",
                            index + 1,
                            other.kind()
                        ))
                    }
                },
                "source" => source = Some(node_token(index, "source", value)?),
                "target" => target = Some(node_token(index, "target", value)?),
                "weight" => match value {
                    Value::Number(number) => weight = Some(*number),
                    other => {
                        return Err(format!(
                            "op {}: `weight` must be a number, got {}",
                            index + 1,
                            other.kind()
                        ))
                    }
                },
                other => return Err(format!("op {}: unknown field `{other}`", index + 1)),
            }
        }
        let require = |name: &str, value: Option<String>| {
            value.ok_or_else(|| format!("op {}: the `{name}` field is required", index + 1))
        };
        let op_name = op.ok_or_else(|| format!("op {}: the `op` field is required", index + 1))?;
        let kind = match op_name.as_str() {
            "add" => DeltaOpKind::Add {
                source: require("source", source)?,
                target: require("target", target)?,
                weight: weight.ok_or_else(|| {
                    format!("op {}: the `weight` field is required for add", index + 1)
                })?,
            },
            "remove" => {
                if weight.is_some() {
                    return Err(format!("op {}: remove takes no `weight`", index + 1));
                }
                DeltaOpKind::Remove {
                    source: require("source", source)?,
                    target: require("target", target)?,
                }
            }
            "reweight" => DeltaOpKind::Reweight {
                source: require("source", source)?,
                target: require("target", target)?,
                weight: weight.ok_or_else(|| {
                    format!(
                        "op {}: the `weight` field is required for reweight",
                        index + 1
                    )
                })?,
            },
            other => {
                return Err(format!(
                    "op {}: unknown op `{other}` (expected add, remove or reweight)",
                    index + 1
                ))
            }
        };
        ops.push(DeltaOp {
            line: index + 1,
            kind,
        });
    }
    Ok(DeltaBatch { ops })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_ops_map_onto_the_tsv_batch() {
        let body = r#"{"ops": [
            {"op": "add", "source": "a", "target": "b", "weight": 2.5},
            {"op": "remove", "source": 3, "target": 7},
            {"op": "reweight", "source": "x", "target": "y", "weight": 1}
        ]}"#;
        let batch = parse_json_delta(body).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(
            batch.ops[0].kind,
            DeltaOpKind::Add {
                source: "a".to_string(),
                target: "b".to_string(),
                weight: 2.5,
            }
        );
        assert_eq!(
            batch.ops[1].kind,
            DeltaOpKind::Remove {
                source: "3".to_string(),
                target: "7".to_string(),
            }
        );
        assert_eq!(batch.ops[1].line, 2);
        assert_eq!(
            batch.ops[2].kind,
            DeltaOpKind::Reweight {
                source: "x".to_string(),
                target: "y".to_string(),
                weight: 1.0,
            }
        );
    }

    #[test]
    fn json_errors_are_op_numbered() {
        let missing = r#"{"ops": [{"op": "add", "source": "a", "target": "b"}]}"#;
        assert_eq!(
            parse_json_delta(missing).unwrap_err(),
            "op 1: the `weight` field is required for add"
        );
        let unknown = r#"{"ops": [{"op": "add", "source": "a", "target": "b", "weight": 1},
                                  {"op": "upsert", "source": "a", "target": "b"}]}"#;
        assert!(parse_json_delta(unknown).unwrap_err().starts_with("op 2:"));
        let spurious = r#"{"ops": [{"op": "remove", "source": "a", "target": "b", "weight": 1}]}"#;
        assert_eq!(
            parse_json_delta(spurious).unwrap_err(),
            "op 1: remove takes no `weight`"
        );
    }

    #[test]
    fn malformed_json_is_rejected_with_position() {
        for body in ["", "[1,2]", r#"{"ops": "#, r#"{"ops": [{}], "extra": 1}"#] {
            assert!(parse_json_delta(body).is_err(), "`{body}`");
        }
        let err = parse_json_delta(r#"{"ops": [{"op": "add",]}"#).unwrap_err();
        assert!(err.contains("at byte"), "{err}");
    }

    #[test]
    fn deep_nesting_is_refused_without_overflowing_the_stack() {
        let deep = "[".repeat(1_000_000);
        let err = parse_json_delta(&deep).unwrap_err();
        assert!(err.contains("nest deeper than 32 levels"), "{err}");
        // The bound sits well above what a delta body needs.
        let nested = format!("{}{}", "[".repeat(31), "]".repeat(31));
        let err = parse_json_delta(&nested).unwrap_err();
        assert!(err.contains("top-level object"), "{err}");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Re-validating the rest of the body per character made this
        // quadratic: minutes for a few MiB, which pins a worker.
        let text = "\u{e9}x".repeat(1 << 20);
        let body = format!(r#"{{"ops": [{{"op": "remove", "source": "{text}", "target": "b"}}]}}"#);
        let start = std::time::Instant::now();
        let batch = parse_json_delta(&body).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(20));
        assert_eq!(
            batch.ops[0].kind,
            DeltaOpKind::Remove {
                source: text,
                target: "b".to_string(),
            }
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let body = r#"{"ops": [{"op": "remove", "source": "a\tb", "target": "é"}]}"#;
        let batch = parse_json_delta(body).unwrap();
        assert_eq!(
            batch.ops[0].kind,
            DeltaOpKind::Remove {
                source: "a\tb".to_string(),
                target: "é".to_string(),
            }
        );
    }
}
