//! Never-panic fuzzing of the three parsers a PATCH request passes through:
//! the HTTP request reader, the TSV delta reader and the JSON delta reader.
//!
//! Inputs are built from token alphabets (as in the edge-list readers'
//! fuzzing in `crates/graph/tests/csr_ingestion_parity.rs`): mostly tokens
//! the grammar expects, so many inputs parse or fail only somewhere inside,
//! plus rare tokens the parser must reject. Every parser must return `Ok` or
//! its structured error; a panic fails the case.

use backboning_graph::{DeltaBatch, DeltaOpKind};
use backboning_server::http::{read_request, Request, MAX_BODY_BYTES};
use backboning_server::patch::parse_delta_body;
use proptest::prelude::*;

/// TSV delta tokens for the first field: the three ops, comment marks and
/// words that are not ops.
const OP_TOKENS: [&str; 8] = [
    "add", "remove", "reweight", "add", "reweight", "ADD", "#", "drop",
];

/// TSV delta tokens for the node fields: plain, numeric, comment-mark- and
/// non-ASCII labels, a byte-order mark.
const NODE_TOKENS: [&str; 8] = ["a", "b", "7", "x#y", "\u{fc}ber", "-", "\u{feff}", "0"];

/// TSV delta tokens for the weight field: weights that parse (including the
/// `nan`, negative and infinite ones the apply step rejects) and one that
/// does not.
const WEIGHT_TOKENS: [&str; 8] = ["1.5", "0", "12", "nan", "-2", "1e400", "inf", "heavy"];

/// Gaps between TSV fields: ASCII and Unicode spaces, a bare carriage
/// return, a comma, and nothing (two tokens run together).
const GAPS: [&str; 8] = [" ", "\t", "  ", "\u{a0}", "\u{3000}", "\r", ",", ""];

/// Line ends: `\n`, `\r\n`, a blank line, and none (the last line).
const LINE_ENDS: [&str; 4] = ["\n", "\r\n", "\n\n", ""];

/// Strategy: TSV delta text of up to 8 lines, each an op token and up to
/// four more fields. Fields 1–2 draw node tokens and field 3 on weight
/// tokens; one field in eight draws from the other alphabet.
fn delta_tsv() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        (
            0usize..8,
            proptest::collection::vec((0usize..8, 0usize..8, 0usize..12), 0..5),
            0usize..4,
        ),
        0..8,
    )
    .prop_map(|lines| {
        let mut text = String::new();
        for (op, fields, end) in lines {
            text.push_str(OP_TOKENS[op]);
            for (position, (pick, swap, gap)) in fields.into_iter().enumerate() {
                text.push_str(if gap < 8 { GAPS[gap] } else { " " });
                let node = position < 2;
                text.push_str(if node == (swap != 0) {
                    NODE_TOKENS[pick]
                } else {
                    WEIGHT_TOKENS[pick]
                });
            }
            text.push_str(LINE_ENDS[end]);
        }
        text
    })
}

/// JSON values that may fill a delta op's field.
const JSON_VALUES: [&str; 16] = [
    r#""add""#,
    r#""remove""#,
    r#""reweight""#,
    r#""a""#,
    r#""b\u00e9""#,
    r#""x\ty""#,
    "7",
    "1.5",
    "-2",
    "1e400",
    "2.5e",
    "true",
    "null",
    "[]",
    "{}",
    r#""\ud800""#,
];

/// JSON field names of a delta op, and two it does not know.
const JSON_KEYS: [&str; 6] = ["op", "source", "target", "weight", "ops", "extra"];

/// Stray JSON tokens: structure out of place, broken strings and escapes,
/// bytes that are not UTF-8, a bare word.
const JSON_STRAYS: [&[u8]; 8] = [
    b"{",
    b"]",
    b",",
    b":",
    b"\"",
    b"\"\\x\"",
    b"\xff\xfe",
    b"nul",
];

/// Strategy: a JSON delta body. Usually an `{"ops": [...]}` document whose
/// ops are objects of up to five `key: value` fields; a stray token replaces
/// one field in eight, and one body in four loses its closing brackets.
fn delta_json() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(
            proptest::collection::vec((0usize..6, 0usize..16, 0usize..64), 0..5),
            0..5,
        ),
        0usize..4,
    )
        .prop_map(|(ops, shape)| {
            let mut body: Vec<u8> = Vec::new();
            if shape != 3 {
                body.extend_from_slice(b"{\"ops\": [");
            }
            for (index, fields) in ops.into_iter().enumerate() {
                if index > 0 {
                    body.extend_from_slice(b", ");
                }
                body.push(b'{');
                for (position, (key, value, stray)) in fields.into_iter().enumerate() {
                    if position > 0 {
                        body.push(b',');
                    }
                    if stray < 8 {
                        body.extend_from_slice(JSON_STRAYS[stray]);
                    } else {
                        body.extend_from_slice(
                            format!("\"{}\": {}", JSON_KEYS[key], JSON_VALUES[value]).as_bytes(),
                        );
                    }
                }
                body.push(b'}');
            }
            if shape < 2 {
                body.extend_from_slice(b"]}");
            }
            body
        })
}

/// Request-line and header tokens: methods, targets with broken percent
/// escapes and odd queries, versions, and header lines the reader must
/// accept or reject.
const METHODS: [&str; 4] = ["PATCH", "GET", "post", "DELETE"];
const TARGETS: [&str; 8] = [
    "/graphs/g",
    "/graphs/g/backbone?method=nc&top_k=3",
    "/%zz",
    "/a%",
    "/a%C3%28?x=%E2%82",
    "/?=&&=+",
    "*",
    "/graphs/%2e%2e",
];
const VERSIONS: [&str; 4] = ["HTTP/1.1", "HTTP/1.0", "HTTP/1.1", "HTTP/2"];
const HEADERS: [&str; 12] = [
    "Host: x",
    "Content-Type: application/json",
    "Content-Length: 3",
    "Content-Length: 0",
    "Content-Length: -1",
    "Content-Length: 99999999999999999999",
    "content-length:  5 ",
    "X-Empty:",
    "no colon here",
    ":",
    "Content-Length: 67108865",
    "\u{fc}: \u{fc}",
];
const HTTP_LINE_ENDS: [&str; 4] = ["\r\n", "\n", "\r\n", "\r"];

/// Strategy: the bytes of one request: a request line (one in three has
/// one, two or four words instead of three), up to five header lines, the
/// blank line (sometimes missing) and a short body, which may be shorter or
/// longer than the declared length.
fn http_request() -> impl Strategy<Value = Vec<u8>> {
    (
        (0usize..4, 0usize..8, 0usize..4, 0usize..9),
        proptest::collection::vec((0usize..12, 0usize..4), 0..5),
        (0usize..4, 0usize..4, 0usize..8),
    )
        .prop_map(
            |((method, target, version, words), headers, (end, blank, body))| {
                let mut text = String::new();
                let line = [METHODS[method], TARGETS[target], VERSIONS[version], "extra"];
                text.push_str(&line[..[1, 2, 4].get(words).copied().unwrap_or(3)].join(" "));
                text.push_str(HTTP_LINE_ENDS[end]);
                for (header, line_end) in headers {
                    text.push_str(HEADERS[header]);
                    text.push_str(HTTP_LINE_ENDS[line_end]);
                }
                if blank != 0 {
                    text.push_str("\r\n");
                }
                let mut bytes = text.into_bytes();
                bytes.extend_from_slice(&b"add a b 1\n"[..body]);
                bytes
            },
        )
}

/// The 1-based line number a TSV delta error names.
fn error_line(message: &str) -> Option<usize> {
    let rest = &message[message.find("line ")? + 5..];
    rest[..rest.find(':')?].parse().ok()
}

fn json_request(body: Vec<u8>) -> Request {
    Request {
        method: "PATCH".to_string(),
        path: "/graphs/g".to_string(),
        query: Vec::new(),
        headers: vec![("content-type".to_string(), "application/json".to_string())],
        body,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The TSV delta reader returns a batch whose ops carry their own line
    /// numbers and whitespace-free node tokens, or an error naming a line
    /// of the input.
    #[test]
    fn delta_tsv_reader_never_panics(text in delta_tsv()) {
        let lines = text.lines().count();
        match DeltaBatch::parse_tsv(&text) {
            Ok(batch) => {
                let mut previous = 0;
                for op in &batch.ops {
                    prop_assert!(op.line > previous && op.line <= lines, "{op:?} in {text:?}");
                    previous = op.line;
                    let (source, target) = match &op.kind {
                        DeltaOpKind::Add { source, target, .. }
                        | DeltaOpKind::Remove { source, target }
                        | DeltaOpKind::Reweight { source, target, .. } => (source, target),
                    };
                    for token in [source, target] {
                        prop_assert!(!token.is_empty() && !token.contains(char::is_whitespace));
                    }
                }
            }
            Err(err) => {
                let message = err.to_string();
                let line = error_line(&message);
                prop_assert!(
                    line.is_some_and(|line| (1..=lines).contains(&line)),
                    "{message} for {text:?}"
                );
            }
        }
    }

    /// The JSON delta reader (reached through `parse_delta_body` with a
    /// JSON content type) returns a batch numbered by op, or a message that
    /// names the JSON position or the op at fault.
    #[test]
    fn delta_json_reader_never_panics(body in delta_json()) {
        match parse_delta_body(&json_request(body.clone())) {
            Ok(batch) => {
                for (index, op) in batch.ops.iter().enumerate() {
                    prop_assert_eq!(op.line, index + 1);
                }
            }
            Err(message) => {
                prop_assert!(
                    message.starts_with("delta JSON: ")
                        || message.starts_with("op ")
                        || message == "delta body is not valid UTF-8",
                    "{message} for {:?}",
                    String::from_utf8_lossy(&body)
                );
            }
        }
    }

    /// The HTTP reader returns nothing for an empty stream, a request whose
    /// body has exactly the declared length, or a structured error.
    #[test]
    fn http_request_reader_never_panics(bytes in http_request()) {
        match read_request(&mut bytes.as_slice()) {
            Ok(None) => prop_assert!(bytes.is_empty()),
            Ok(Some(request)) => {
                prop_assert!(!request.method.is_empty());
                let declared = request
                    .header("content-length")
                    .map_or(0, |value| value.parse::<usize>().expect("accepted length parses"));
                prop_assert_eq!(request.body.len(), declared);
                prop_assert!(declared <= MAX_BODY_BYTES);
            }
            Err(err) => prop_assert!(!err.to_string().is_empty()),
        }
    }
}
