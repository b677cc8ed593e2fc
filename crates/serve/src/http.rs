//! Minimal hand-rolled HTTP/1.1 framing: just enough protocol for a
//! JSON-over-loopback serving daemon and its load generator, with zero
//! external dependencies.
//!
//! Scope (deliberately small, documented in the README):
//!
//! - One request per connection: every response carries
//!   `Connection: close` and the server closes the socket after
//!   writing. Clients reconnect per request.
//! - Bodies are delimited by `Content-Length` only (no chunked
//!   transfer encoding) and must be UTF-8.
//! - Header blocks are capped at [`MAX_HEAD_BYTES`], bodies at
//!   [`MAX_BODY_BYTES`]; larger inputs are rejected before buffering.
//!
//! The reader/writer pairs are generic over [`Read`]/[`Write`] so the
//! server, the load generator, and unit tests all share one framing
//! implementation.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Upper bound on the request/status line plus all headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request or response body.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parse failure while reading a request; maps onto a 4xx response.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (timeout, reset, EOF mid-frame).
    Io(std::io::Error),
    /// The bytes on the wire are not valid HTTP/1.x.
    Malformed(String),
    /// Head or body exceeded its size cap.
    TooLarge(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "I/O: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// A parsed inbound request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path only; no query parsing).
    pub path: String,
    /// UTF-8 body (empty when no `Content-Length` was sent).
    pub body: String,
}

/// The default response media type.
pub const CONTENT_TYPE_JSON: &str = "application/json";
/// The Prometheus text exposition format (version 0.0.4).
pub const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4";

/// An outbound response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Optional `Retry-After` header value in seconds (backpressure).
    pub retry_after: Option<u32>,
    /// Whether serving this response should trigger a graceful
    /// drain-and-exit (set by the shutdown endpoint handler).
    pub shutdown: bool,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: CONTENT_TYPE_JSON.to_string(),
            retry_after: None,
            shutdown: false,
        }
    }

    /// A response with an explicit media type (e.g. Prometheus text).
    pub fn with_content_type(status: u16, content_type: &str, body: impl Into<String>) -> Response {
        Response {
            content_type: content_type.to_string(),
            ..Response::json(status, body)
        }
    }

    /// A JSON error response with the given status, using the unified
    /// envelope `{"error":{"code":"...","message":"..."}}`.
    ///
    /// `code` is a stable machine-readable string (see [`ErrorBody`] for
    /// the vocabulary); `message` is free-form human-readable detail.
    pub fn error(status: u16, code: &str, message: &str) -> Response {
        let body = serde_json::to_string(&ErrorBody {
            error: ErrorDetail {
                code: code.to_string(),
                message: message.to_string(),
            },
        })
        .expect("error body serializes");
        Response::json(status, body)
    }
}

/// Wire shape of error responses: `{"error":{"code","message"}}`.
///
/// Stable `code` vocabulary:
///
/// | code | meaning | typical status |
/// |---|---|---|
/// | `invalid_argument` | request parsed but a field is unusable | 400 |
/// | `malformed_request` | the HTTP frame or JSON body failed to parse | 400 |
/// | `not_found` | no such endpoint | 404 |
/// | `method_not_allowed` | endpoint exists, wrong method | 405 |
/// | `too_large` | head or body over its size cap | 413 |
/// | `internal` | computation failed server-side | 500 |
/// | `trial_failed` | a Monte-Carlo trial failed its retry; nothing was cached or stored | 500 |
/// | `overloaded` | accept queue full or deadline expired while queued, retry later | 503 |
/// | `deadline_exceeded` | request deadline expired mid-computation; completed rows persisted with a store, lost without | 504 |
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ErrorBody {
    /// The nested error detail.
    pub error: ErrorDetail,
}

/// The `error` object inside [`ErrorBody`].
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ErrorDetail {
    /// Stable machine-readable class.
    pub code: String,
    /// Human-readable detail, not stable.
    pub message: String,
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Fails with a timeout [`HttpError::Io`] once `deadline` has passed.
/// Checked *between* chunk reads: a per-read socket timeout alone never
/// fires against a slowloris client trickling one byte per period, but
/// this overall budget does.
fn check_deadline(deadline: Option<Instant>) -> Result<(), HttpError> {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(HttpError::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "overall read budget exhausted",
        )));
    }
    Ok(())
}

/// Reads until the `\r\n\r\n` head terminator, returning the head bytes
/// and any body bytes already pulled off the socket.
fn read_head<R: Read>(
    reader: &mut R,
    deadline: Option<Instant>,
) -> Result<(Vec<u8>, Vec<u8>), HttpError> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(end) = find_terminator(&buf) {
            let rest = buf.split_off(end + 4);
            buf.truncate(end);
            return Ok((buf, rest));
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(format!(
                "header block exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        check_deadline(deadline)?;
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed(
                "connection closed before the header terminator".into(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Case-insensitive header lookup over raw head lines.
fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().skip(1).find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

fn read_body<R: Read>(
    reader: &mut R,
    mut pending: Vec<u8>,
    length: usize,
    deadline: Option<Instant>,
) -> Result<String, HttpError> {
    if length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!(
            "Content-Length {length} exceeds {MAX_BODY_BYTES}"
        )));
    }
    pending.truncate(pending.len().min(length));
    while pending.len() < length {
        check_deadline(deadline)?;
        let mut chunk = vec![0u8; (length - pending.len()).min(64 * 1024)];
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body".into()));
        }
        pending.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8(pending).map_err(|_| HttpError::Malformed("body is not UTF-8".into()))
}

/// Extracts the body length from the head, rejecting request smuggling
/// vectors: any `Transfer-Encoding` header (this server only frames by
/// `Content-Length`) and conflicting duplicate `Content-Length` values.
fn body_length(head: &str) -> Result<usize, HttpError> {
    if header_value(head, "transfer-encoding").is_some() {
        return Err(HttpError::Malformed(
            "Transfer-Encoding is not supported; frame bodies with Content-Length".into(),
        ));
    }
    let mut length: Option<usize> = None;
    for line in head.lines().skip(1) {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        if !key.trim().eq_ignore_ascii_case("content-length") {
            continue;
        }
        let value = value.trim();
        let parsed = value
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {value:?}")))?;
        if let Some(seen) = length {
            if seen != parsed {
                return Err(HttpError::Malformed(format!(
                    "conflicting Content-Length values {seen} and {parsed}"
                )));
            }
        }
        length = Some(parsed);
    }
    Ok(length.unwrap_or(0))
}

/// Reads and parses one request.
///
/// # Errors
///
/// [`HttpError`] on socket failure, malformed framing, or an oversized
/// head/body.
pub fn read_request<R: Read>(reader: &mut R) -> Result<Request, HttpError> {
    read_request_within(reader, None)
}

/// [`read_request`] under an overall read budget covering head *and*
/// body. `None` means unbounded. The budget is enforced between chunk
/// reads, so it bounds clients that trickle bytes too fast for the
/// per-read socket timeout to fire (slowloris) — pair it with a socket
/// read timeout to also bound fully stalled clients.
///
/// # Errors
///
/// [`HttpError::Io`] with `ErrorKind::TimedOut` once the budget is
/// exhausted, plus everything [`read_request`] can return.
pub fn read_request_within<R: Read>(
    reader: &mut R,
    budget: Option<Duration>,
) -> Result<Request, HttpError> {
    let deadline = budget.map(|b| Instant::now() + b);
    let (head_bytes, rest) = read_head(reader, deadline)?;
    let head = std::str::from_utf8(&head_bytes)
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let request_line = head
        .lines()
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?;
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let length = body_length(head)?;
    let body = read_body(reader, rest, length, deadline)?;
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        body,
    })
}

/// Writes one response with `Connection: close` framing.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response<W: Write>(writer: &mut W, response: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
    );
    if let Some(secs) = response.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(response.body.as_bytes())?;
    writer.flush()
}

/// Writes one request with `Connection: close` framing (client side).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_request<W: Write>(
    writer: &mut W,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: onion-dtn\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Reads and parses one response (client side). The `Retry-After`
/// header is surfaced; the `shutdown` flag is always `false`.
///
/// # Errors
///
/// [`HttpError`] on socket failure or malformed framing.
pub fn read_response<R: Read>(reader: &mut R) -> Result<Response, HttpError> {
    let (head_bytes, rest) = read_head(reader, None)?;
    let head = std::str::from_utf8(&head_bytes)
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let status_line = head
        .lines()
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = status_line.split_whitespace();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| HttpError::Malformed("bad status code".into()))?;
    let retry_after = header_value(head, "retry-after").and_then(|v| v.parse::<u32>().ok());
    let content_type = header_value(head, "content-type")
        .unwrap_or(CONTENT_TYPE_JSON)
        .to_string();
    let length = match header_value(head, "content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
    };
    let body = read_body(reader, rest, length, None)?;
    Ok(Response {
        status,
        body,
        content_type,
        retry_after,
        shutdown: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_roundtrips() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/v1/model/delivery", "{\"t\":360.0}").unwrap();
        let req = read_request(&mut Cursor::new(wire)).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/model/delivery");
        assert_eq!(req.body, "{\"t\":360.0}");
    }

    #[test]
    fn response_roundtrips_with_retry_after() {
        let mut wire = Vec::new();
        let resp = Response {
            retry_after: Some(2),
            ..Response::error(503, "overloaded", "queue full")
        };
        write_response(&mut wire, &resp).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        let back = read_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!(back.status, 503);
        assert_eq!(back.retry_after, Some(2));
        assert_eq!(back.body, resp.body);
        assert_eq!(back.content_type, CONTENT_TYPE_JSON);
    }

    #[test]
    fn content_type_roundtrips() {
        let mut wire = Vec::new();
        let resp = Response::with_content_type(200, CONTENT_TYPE_PROMETHEUS, "metric 1\n");
        write_response(&mut wire, &resp).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        let back = read_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!(back.content_type, CONTENT_TYPE_PROMETHEUS);
        assert_eq!(back.body, "metric 1\n");
    }

    #[test]
    fn empty_body_needs_no_content_length() {
        let wire = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
        let req = read_request(&mut Cursor::new(wire)).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
    }

    #[test]
    fn headers_are_case_insensitive_and_method_is_upcased() {
        let wire = b"post /x HTTP/1.0\r\ncOnTeNt-LeNgTh: 2\r\n\r\nhi".to_vec();
        let req = read_request(&mut Cursor::new(wire)).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "hi");
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for wire in [
            &b"GARBAGE\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"[..],
        ] {
            assert!(read_request(&mut Cursor::new(wire.to_vec())).is_err());
        }
    }

    #[test]
    fn oversized_head_and_body_are_capped() {
        let mut wire = b"GET /x HTTP/1.1\r\n".to_vec();
        wire.extend(vec![b'a'; MAX_HEAD_BYTES + 8]);
        assert!(matches!(
            read_request(&mut Cursor::new(wire)),
            Err(HttpError::TooLarge(_) | HttpError::Malformed(_))
        ));

        let wire = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .into_bytes();
        assert!(matches!(
            read_request(&mut Cursor::new(wire)),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn smuggling_vectors_are_rejected() {
        // Any Transfer-Encoding header: this server frames by
        // Content-Length only, so TE must never be silently ignored.
        let wire = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        assert!(matches!(
            read_request(&mut Cursor::new(wire)),
            Err(HttpError::Malformed(_))
        ));
        // Conflicting duplicate Content-Length values.
        let wire =
            b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhi---".to_vec();
        assert!(matches!(
            read_request(&mut Cursor::new(wire)),
            Err(HttpError::Malformed(_))
        ));
        // Agreeing duplicates are harmless and accepted.
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi".to_vec();
        assert_eq!(read_request(&mut Cursor::new(wire)).unwrap().body, "hi");
    }

    #[test]
    fn non_utf8_bodies_are_rejected() {
        let mut wire = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n".to_vec();
        wire.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            read_request(&mut Cursor::new(wire)),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn exhausted_read_budget_times_out() {
        // A zero budget must fail before the first chunk read, with a
        // TimedOut I/O error (the server drops such connections).
        let wire = b"GET /healthz HTTP/1.1\r\n\r\n".to_vec();
        match read_request_within(&mut Cursor::new(wire.clone()), Some(Duration::ZERO)) {
            Err(HttpError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut),
            other => panic!("expected timeout, got {other:?}"),
        }
        // A generous budget lets the same bytes through.
        let req =
            read_request_within(&mut Cursor::new(wire), Some(Duration::from_secs(5))).unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn body_split_across_reads_is_reassembled() {
        // A reader that returns one byte at a time exercises the
        // buffering paths in read_head/read_body.
        struct OneByte(Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = buf.len().min(1);
                self.0.read(&mut buf[..n])
            }
        }
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/p", "{\"k\":123}").unwrap();
        let req = read_request(&mut OneByte(Cursor::new(wire))).unwrap();
        assert_eq!(req.body, "{\"k\":123}");
    }
}

/// Property battery: the request parser must *never* panic — hostile
/// bytes always land in a clean `Ok` or typed `Err`. Each strategy
/// targets a different hostile shape; the chaos integration tests
/// replay the same shapes over real sockets.
#[cfg(test)]
mod parser_props {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    /// A syntactically valid request that parsers must accept.
    fn valid_wire(path_salt: u8, body_len: usize) -> Vec<u8> {
        let body = "b".repeat(body_len);
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", &format!("/p{path_salt}"), &body).unwrap();
        wire
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary garbage bytes: parse or reject, never panic.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let _ = read_request(&mut Cursor::new(bytes));
        }

        /// Valid requests truncated at every possible point: the parser
        /// must fail cleanly on every prefix and succeed on the whole.
        #[test]
        fn truncation_never_panics(salt in any::<u8>(), body_len in 0..64usize, cut in any::<u16>()) {
            let wire = valid_wire(salt, body_len);
            let cut = (cut as usize) % (wire.len() + 1);
            let result = read_request(&mut Cursor::new(wire[..cut].to_vec()));
            if cut == wire.len() {
                prop_assert!(result.is_ok());
            } else {
                prop_assert!(result.is_err());
            }
        }

        /// Declared Content-Length values across the whole u64 range,
        /// including values far beyond the actual bytes sent.
        #[test]
        fn hostile_content_length_never_panics(declared in any::<u64>(), sent in 0..32usize) {
            let wire = format!(
                "POST /x HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n{}",
                "y".repeat(sent)
            );
            let result = read_request(&mut Cursor::new(wire.into_bytes()));
            if declared as usize > MAX_BODY_BYTES {
                prop_assert!(matches!(result, Err(HttpError::TooLarge(_))));
            }
        }

        /// Random bytes spliced into a valid request at a random
        /// offset: smuggled headers, split tokens, non-UTF-8 — the
        /// parser must stay panic-free whatever lands where.
        #[test]
        fn spliced_bytes_never_panic(
            salt in any::<u8>(),
            at in any::<u16>(),
            junk in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let mut wire = valid_wire(salt, 16);
            let at = (at as usize) % (wire.len() + 1);
            for (i, b) in junk.into_iter().enumerate() {
                wire.insert(at + i, b);
            }
            let _ = read_request(&mut Cursor::new(wire));
        }

        /// Header blocks built from random header-ish lines, including
        /// duplicate and conflicting Content-Length / Transfer-Encoding.
        #[test]
        fn random_headers_never_panic(
            lines in proptest::collection::vec(any::<u32>(), 0..8),
            body in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let mut head = String::from("POST /x HTTP/1.1\r\n");
            for raw in lines {
                let (kind, value) = (raw % 6, raw >> 3);
                match kind {
                    0 => head.push_str(&format!("Content-Length: {value}\r\n")),
                    1 => head.push_str(&format!("content-length: {value}\r\n")),
                    2 => head.push_str("Transfer-Encoding: chunked\r\n"),
                    3 => head.push_str(&format!("X-Filler: {value}\r\n")),
                    4 => head.push_str("Content-Length: not-a-number\r\n"),
                    _ => head.push_str(&format!(":{value}\r\n")),
                }
            }
            head.push_str("\r\n");
            let mut wire = head.into_bytes();
            wire.extend_from_slice(&body);
            let _ = read_request(&mut Cursor::new(wire));
        }
    }
}
