//! A minimal HTTP/1.1 request parser and response writer on `std::io`.
//!
//! The build environment vendors no HTTP crate, so the server hand-rolls the
//! small subset of RFC 9112 it needs: a request line, headers, an optional
//! `Content-Length` body, and fixed-length `Connection: close` responses.
//! Each connection carries exactly one request — the right trade-off for an
//! API whose expensive work (scoring a graph) dwarfs a TCP handshake, and it
//! keeps the worker pool free of keep-alive bookkeeping.

use std::io::{BufRead, Write};

/// Upload bodies larger than this are rejected with `413 Payload Too Large`
/// before any parsing happens (64 MiB — roomy for multi-million-edge lists,
/// small enough that a misbehaving client cannot exhaust memory).
pub const MAX_BODY_BYTES: usize = 64 << 20;

/// Limit on the request head (request line + headers) to bound memory.
const MAX_HEAD_BYTES: usize = 64 << 10;

/// A parse/read failure while receiving a request.
#[derive(Debug)]
pub enum HttpError {
    /// The request violates the subset of HTTP/1.1 the server speaks.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    TooLarge(usize),
    /// The underlying socket read failed.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(message) => write!(f, "malformed request: {message}"),
            HttpError::TooLarge(bytes) => {
                write!(
                    f,
                    "body of {bytes} bytes exceeds the {MAX_BODY_BYTES} byte limit"
                )
            }
            HttpError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), upper-case as received.
    pub method: String,
    /// Decoded path without the query string, e.g. `/graphs/trade/backbone`.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header fields with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// The last value of query parameter `name`, if present. The router
    /// refuses a request that gives a name twice before any route reads it.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .rev()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }

    /// The value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value.as_str())
    }

    /// Whether the client's `Accept` header asks for JSON.
    pub fn accepts_json(&self) -> bool {
        self.header("accept")
            .is_some_and(|accept| accept.contains("application/json"))
    }

    /// Path segments between `/` separators, empty segments dropped
    /// (`/graphs/trade/` → `["graphs", "trade"]`).
    pub fn path_segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Decode `%XX` escapes and `+`-as-space in a query component.
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            byte => {
                out.push(byte);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((key, value)) => (percent_decode(key), percent_decode(value)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Read one `\n`-terminated line without ever buffering more than the
/// remaining head `budget` — a peer streaming an endless line cannot grow
/// server memory past [`MAX_HEAD_BYTES`]. Returns `Ok(None)` on a clean
/// end-of-stream before any byte of the line.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    budget: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (used, done) = {
            let buf = reader.fill_buf().map_err(|err| {
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    HttpError::Malformed("timed out mid-request".into())
                } else {
                    HttpError::Io(err)
                }
            })?;
            if buf.is_empty() {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("connection closed mid-request".into()));
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(position) => {
                    if line.len() + position > *budget {
                        return Err(HttpError::Malformed(format!(
                            "request head exceeds {MAX_HEAD_BYTES} bytes"
                        )));
                    }
                    line.extend_from_slice(&buf[..position]);
                    (position + 1, true)
                }
                None => {
                    if line.len() + buf.len() > *budget {
                        return Err(HttpError::Malformed(format!(
                            "request head exceeds {MAX_HEAD_BYTES} bytes"
                        )));
                    }
                    line.extend_from_slice(buf);
                    (buf.len(), false)
                }
            }
        };
        reader.consume(used);
        *budget = budget.saturating_sub(used);
        if done {
            while line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
        }
    }
}

/// Read one request from `reader`.
///
/// Returns `Ok(None)` when the peer closed the connection without sending
/// anything (a health probe or the shutdown self-wake) so callers can drop
/// such connections silently instead of logging a parse error.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let Some(request_line) = read_bounded_line(reader, &mut budget)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(target), Some(version), None) => (method, target, version),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol version `{version}`"
        )));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_bounded_line(reader, &mut budget)?
            .ok_or_else(|| HttpError::Malformed("connection closed mid-request".into()))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            HttpError::Malformed(format!("header line without a colon: `{line}`"))
        })?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .map(|(_, value)| {
            value
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("unparseable Content-Length `{value}`")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(HttpError::Io)?;
    }

    Ok(Some(Request {
        method: method.to_string(),
        path: percent_decode(raw_path),
        query: parse_query(raw_query),
        headers,
        body,
    }))
}

/// A fixed-length HTTP response ready to be written to a socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

/// `Content-Type` for tab-separated edge lists and score tables.
pub const CONTENT_TSV: &str = "text/tab-separated-values; charset=utf-8";
/// `Content-Type` for JSON documents.
pub const CONTENT_JSON: &str = "application/json";
/// `Content-Type` for the Prometheus text exposition format.
pub const CONTENT_PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: CONTENT_JSON,
            body: body.into_bytes(),
        }
    }

    /// A TSV response with the given status.
    pub fn tsv(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type: CONTENT_TSV,
            body,
        }
    }

    /// A Prometheus text exposition response.
    pub fn prometheus(body: String) -> Response {
        Response {
            status: 200,
            content_type: CONTENT_PROMETHEUS,
            body: body.into_bytes(),
        }
    }

    /// An error response: `{ "status": <code>, "error": "<message>" }`.
    pub fn error(status: u16, message: &str) -> Response {
        let mut object = backboning::json::JsonObject::pretty();
        object
            .usize("status", status as usize)
            .string("error", message);
        let mut body = object.finish();
        body.push('\n');
        Response::json(status, body)
    }

    /// The head the response serialises with (status line + headers).
    fn head(&self) -> String {
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        )
    }

    /// Total bytes the response occupies on the wire (head + body) — what
    /// the bytes-out counter accounts for.
    pub fn encoded_len(&self) -> u64 {
        (self.head().len() + self.body.len()) as u64
    }

    /// Serialise the response (status line, headers, body) onto `writer`.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        writer.write_all(self.head().as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Request {
        read_request(&mut raw.as_bytes())
            .expect("request parses")
            .expect("request present")
    }

    #[test]
    fn parses_a_get_with_query_and_headers() {
        let req = parse(
            "GET /graphs/trade/backbone?method=nc&top_share=0.2 HTTP/1.1\r\n\
             Host: localhost\r\nAccept: application/json\r\n\r\n",
        );
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/graphs/trade/backbone");
        assert_eq!(req.path_segments(), vec!["graphs", "trade", "backbone"]);
        assert_eq!(req.query_param("method"), Some("nc"));
        assert_eq!(req.query_param("top_share"), Some("0.2"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert!(req.accepts_json());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req = parse("POST /graphs/up HTTP/1.1\r\nContent-Length: 8\r\n\r\na b 1\nc ");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"a b 1\nc ");
    }

    #[test]
    fn percent_and_plus_decoding() {
        let req = parse("GET /graphs/a%20b?note=x%3Dy+z&flag HTTP/1.1\r\n\r\n");
        assert_eq!(req.path, "/graphs/a b");
        assert_eq!(req.query_param("note"), Some("x=y z"));
        assert_eq!(req.query_param("flag"), Some(""));
    }

    #[test]
    fn empty_connection_reads_as_none() {
        assert!(read_request(&mut "".as_bytes()).unwrap().is_none());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /path SPDY/3\r\n\r\n",
            "GET /p HTTP/1.1\r\nno-colon-header\r\n\r\n",
            "POST /p HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            assert!(
                matches!(
                    read_request(&mut raw.as_bytes()),
                    Err(HttpError::Malformed(_))
                ),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn oversized_request_heads_are_cut_off() {
        // A request line that never ends: rejected once it exceeds the head
        // budget instead of buffering without bound.
        let raw = format!("GET /{}", "a".repeat(MAX_BODY_BYTES.min(128 << 10)));
        assert!(matches!(
            read_request(&mut raw.as_bytes()),
            Err(HttpError::Malformed(message)) if message.contains("head exceeds")
        ));
        // Same for a single runaway header line.
        let raw = format!("GET /p HTTP/1.1\r\nX-Big: {}", "b".repeat(128 << 10));
        assert!(matches!(
            read_request(&mut raw.as_bytes()),
            Err(HttpError::Malformed(message)) if message.contains("head exceeds")
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_upfront() {
        let raw = format!(
            "POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            read_request(&mut raw.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn truncated_bodies_are_io_errors() {
        let raw = "POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(
            read_request(&mut raw.as_bytes()),
            Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut out = Vec::new();
        Response::json(200, "{}".to_string())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        Response::error(404, "no such graph")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("\"error\": \"no such graph\""));
    }
}
