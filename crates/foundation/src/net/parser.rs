//! HTTP/1.1-subset framing: request/response types, the blocking
//! reader used by clients, and the incremental parser the event loop
//! feeds with whatever bytes the socket had.

use std::io::{self, BufRead, Write};

/// Hard cap on header lines per request.
pub(crate) const MAX_HEADERS: usize = 64;
/// Hard cap on one header or request line, in bytes, not counting its
/// CRLF or LF terminator.
pub(crate) const MAX_LINE: usize = 8 * 1024;
/// Hard cap on a request body, in bytes (64 MiB — a multi-million
/// access trace in JSON still fits comfortably).
pub(crate) const MAX_BODY: usize = 64 * 1024 * 1024;

/// Error while reading or parsing a request.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error.
    Io(io::Error),
    /// The peer sent something that is not a well-formed request.
    Malformed(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Malformed(m) => write!(f, "malformed request: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// One parsed request: method, path, headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request path, verbatim (`/solve`).
    pub path: String,
    /// Header name/value pairs in arrival order; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw request body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// A request with no headers and no body (test/client helper).
    pub fn new(method: &str, path: &str) -> Self {
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A `POST` carrying `body` (client helper).
    pub fn post(path: &str, body: impl Into<Vec<u8>>) -> Self {
        Request {
            method: "POST".to_owned(),
            path: path.to_owned(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// First value of header `name` (case-insensitive lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// Serializes the request in wire form (client side).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(w, "{} {} HTTP/1.1\r\n", self.method, self.path)?;
        for (k, v) in &self.headers {
            write!(w, "{k}: {v}\r\n")?;
        }
        write!(w, "content-length: {}\r\n\r\n", self.body.len())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Whether the unterminated line `pending` already exceeds
/// [`MAX_LINE`]; a trailing `\r` may yet turn out to start the CRLF.
fn too_long(pending: &[u8]) -> bool {
    pending.strip_suffix(b"\r").unwrap_or(pending).len() > MAX_LINE
}

/// Reads one line terminated by `\n`, stripping the optional `\r`.
/// Returns `Ok(None)` on clean EOF before the first byte.
fn read_line<R: BufRead>(r: &mut R) -> Result<Option<String>, NetError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(NetError::Malformed("unexpected EOF in line".into()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| NetError::Malformed("non-UTF-8 header line".into()));
                }
                line.push(byte[0]);
                if too_long(&line) {
                    return Err(NetError::Malformed("header line too long".into()));
                }
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
}

/// Parses a `name: value` header line, folding the name to lower case
/// and recording a `content-length` in `content_length` under the rule
/// every message reader shares: ASCII digits only (`usize::from_str`
/// would also take a leading `+`), and a repeated header must repeat
/// the first value (RFC 9112 §6.3: anything else leaves the body's end
/// ambiguous). Requests also cap the length at [`MAX_BODY`]; responses
/// pass `usize::MAX`.
fn parse_header(
    line: &str,
    content_length: &mut Option<usize>,
    max_body: usize,
) -> Result<(String, String), NetError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(NetError::Malformed(format!("bad header line {line:?}")));
    };
    let name = name.trim().to_ascii_lowercase();
    let value = value.trim().to_owned();
    if name == "content-length" {
        let length = match value.parse::<usize>() {
            Ok(length) if value.bytes().all(|b| b.is_ascii_digit()) => length,
            _ => return Err(NetError::Malformed(format!("bad content-length {value:?}"))),
        };
        if content_length.is_some_and(|first| first != length) {
            return Err(NetError::Malformed("conflicting content-length".into()));
        }
        if length > max_body {
            return Err(NetError::Malformed("body too large".into()));
        }
        *content_length = Some(length);
    }
    Ok((name, value))
}

/// Splits a request line into method and path.
fn parse_request_line(line: &str) -> Result<(String, String), NetError> {
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some(method), Some(path)) => Ok((method.to_owned(), path.to_owned())),
        _ => Err(NetError::Malformed(format!("bad request line {line:?}"))),
    }
}

/// Reads one request off `r`. `Ok(None)` means the peer closed the
/// connection cleanly between requests (normal keep-alive teardown).
///
/// # Errors
///
/// [`NetError::Malformed`] on protocol violations (bad request line,
/// oversized headers/body, missing UTF-8), [`NetError::Io`] on socket
/// errors — including read timeouts, which surface as
/// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`].
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Option<Request>, NetError> {
    let Some(request_line) = read_line(r)? else {
        return Ok(None);
    };
    let (method, path) = parse_request_line(&request_line)?;
    let mut headers = Vec::new();
    let mut content_length = None;
    loop {
        let Some(line) = read_line(r)? else {
            return Err(NetError::Malformed("EOF in headers".into()));
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(NetError::Malformed("too many headers".into()));
        }
        headers.push(parse_header(&line, &mut content_length, MAX_BODY)?);
    }
    let mut body = vec![0u8; content_length.unwrap_or(0)];
    r.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Outcome of feeding buffered bytes to [`try_parse_request`].
#[derive(Debug)]
pub enum Parsed {
    /// The buffer does not yet hold one complete request.
    Incomplete,
    /// One complete request, and how many buffer bytes it consumed —
    /// the caller drains that prefix and keeps the rest (pipelining).
    Complete(Request, usize),
}

/// Returns the next line in `buf` starting at `start` (CR stripped),
/// or `Ok(None)` when no full line has arrived yet. The `MAX_LINE`
/// bound is enforced even on partial lines, so a peer trickling an
/// endless header cannot grow the buffer unboundedly.
fn take_line(buf: &[u8], start: usize) -> Result<Option<(&str, usize)>, NetError> {
    match buf[start..].iter().position(|&b| b == b'\n') {
        Some(i) => {
            let mut line = &buf[start..start + i];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            if line.len() > MAX_LINE {
                return Err(NetError::Malformed("header line too long".into()));
            }
            std::str::from_utf8(line)
                .map(|s| Some((s, start + i + 1)))
                .map_err(|_| NetError::Malformed("non-UTF-8 header line".into()))
        }
        None if too_long(&buf[start..]) => Err(NetError::Malformed("header line too long".into())),
        None => Ok(None),
    }
}

/// Incremental request parser for the event loop: inspects the bytes
/// buffered so far and reports [`Parsed::Incomplete`] until one whole
/// request (headers plus `content-length` body) has arrived. Protocol
/// limits are enforced on partial data too, so malformed or abusive
/// input fails as soon as it is detectable.
///
/// # Errors
///
/// [`NetError::Malformed`], with the same taxonomy as
/// [`read_request`]; never [`NetError::Io`].
pub fn try_parse_request(buf: &[u8]) -> Result<Parsed, NetError> {
    let Some((request_line, mut pos)) = take_line(buf, 0)? else {
        return Ok(Parsed::Incomplete);
    };
    let (method, path) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    let mut content_length = None;
    loop {
        let Some((line, next)) = take_line(buf, pos)? else {
            return Ok(Parsed::Incomplete);
        };
        pos = next;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(NetError::Malformed("too many headers".into()));
        }
        let line = line.to_owned();
        headers.push(parse_header(&line, &mut content_length, MAX_BODY)?);
    }
    let content_length = content_length.unwrap_or(0);
    if buf.len() < pos + content_length {
        return Ok(Parsed::Incomplete);
    }
    let body = buf[pos..pos + content_length].to_vec();
    Ok(Parsed::Complete(
        Request {
            method,
            path,
            headers,
            body,
        },
        pos + content_length,
    ))
}

/// One response: status code plus headers and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (200, 400, 404, 503, …).
    pub status: u16,
    /// Extra headers (content-length and connection are added by the
    /// writer).
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response: sets `content-type: application/json`.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: vec![("content-type".into(), "text/plain".into())],
            body: body.into(),
        }
    }

    /// Appends a header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_ascii_lowercase(), value.into()));
        self
    }

    /// First value of header `name` (case-insensitive lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// Whether the status is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Writes the response in wire form. `close` adds
    /// `connection: close` (sent on the last response before teardown).
    pub fn write_to<W: Write>(&self, w: &mut W, close: bool) -> io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, self.reason())?;
        for (k, v) in &self.headers {
            write!(w, "{k}: {v}\r\n")?;
        }
        write!(w, "content-length: {}\r\n", self.body.len())?;
        write!(
            w,
            "connection: {}\r\n\r\n",
            if close { "close" } else { "keep-alive" }
        )?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Reads one response off `r` (client side). `Ok(None)` on clean EOF.
/// The `content-length` rule is [`read_request`]'s, without its body
/// cap.
///
/// # Errors
///
/// Same contract as [`read_request`].
pub fn read_response<R: BufRead>(r: &mut R) -> Result<Option<Response>, NetError> {
    let Some(status_line) = read_line(r)? else {
        return Ok(None);
    };
    let mut parts = status_line.split_whitespace();
    let status = parts
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| NetError::Malformed(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    let mut content_length = None;
    loop {
        let Some(line) = read_line(r)? else {
            return Err(NetError::Malformed("EOF in headers".into()));
        };
        if line.is_empty() {
            break;
        }
        headers.push(parse_header(&line, &mut content_length, usize::MAX)?);
    }
    let mut body = vec![0u8; content_length.unwrap_or(0)];
    r.read_exact(&mut body)?;
    Ok(Some(Response {
        status,
        headers,
        body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Checker;
    use crate::rng::Rng;
    use crate::{require, require_eq};

    #[test]
    fn incremental_parser_reports_incomplete_until_whole_request() {
        let wire = b"POST /solve HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
        for cut in 0..wire.len() {
            assert!(
                matches!(try_parse_request(&wire[..cut]), Ok(Parsed::Incomplete)),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let Parsed::Complete(req, consumed) = try_parse_request(wire).unwrap() else {
            panic!("full request should parse");
        };
        assert_eq!(consumed, wire.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/solve");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn incremental_parser_leaves_pipelined_tail_in_place() {
        let mut wire = Vec::new();
        Request::new("GET", "/a").write_to(&mut wire).unwrap();
        let first_len = wire.len();
        Request::new("GET", "/b").write_to(&mut wire).unwrap();
        let Parsed::Complete(req, consumed) = try_parse_request(&wire).unwrap() else {
            panic!("first pipelined request should parse");
        };
        assert_eq!(req.path, "/a");
        assert_eq!(consumed, first_len);
        let Parsed::Complete(req, _) = try_parse_request(&wire[consumed..]).unwrap() else {
            panic!("second pipelined request should parse");
        };
        assert_eq!(req.path, "/b");
    }

    #[test]
    fn incremental_parser_enforces_limits_on_partial_data() {
        // An endless header line fails before any newline arrives.
        let trickle = vec![b'a'; MAX_LINE + 1];
        assert!(try_parse_request(&trickle).is_err());
        // Oversized declared body fails at the header, not after 64 MiB.
        let huge = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n", MAX_BODY + 1);
        assert!(try_parse_request(huge.as_bytes()).is_err());
        // Garbage request lines fail immediately.
        assert!(try_parse_request(b"garbage\r\n").is_err());
    }

    #[test]
    fn incremental_and_blocking_parsers_agree() {
        let mut wire = Vec::new();
        let mut req = Request::post("/solve", "{\"k\":1}");
        req.headers.push(("x-test".into(), "yes".into()));
        req.write_to(&mut wire).unwrap();
        let blocking = read_request(&mut std::io::BufReader::new(std::io::Cursor::new(
            wire.clone(),
        )))
        .unwrap()
        .unwrap();
        let Parsed::Complete(incremental, consumed) = try_parse_request(&wire).unwrap() else {
            panic!("should parse");
        };
        assert_eq!(blocking, incremental);
        assert_eq!(consumed, wire.len());
    }

    /// Both parsers' verdicts on `wire`: blocking, then incremental.
    fn both(wire: &[u8]) -> (Result<Option<Request>, NetError>, Result<Parsed, NetError>) {
        (read_request(&mut &wire[..]), try_parse_request(wire))
    }

    fn is_malformed<T>(verdict: &Result<T, NetError>) -> bool {
        matches!(verdict, Err(NetError::Malformed(_)))
    }

    #[test]
    fn content_length_must_be_ascii_digits() {
        for value in ["+5", "-5", "0x5", "5 5", "5,5", ""] {
            let wire = format!("POST / HTTP/1.1\r\ncontent-length: {value}\r\n\r\nhello");
            let (blocking, incremental) = both(wire.as_bytes());
            assert!(is_malformed(&blocking), "{value:?}: {blocking:?}");
            assert!(is_malformed(&incremental), "{value:?}: {incremental:?}");
        }
    }

    #[test]
    fn conflicting_content_lengths_are_malformed() {
        // Last-one-wins would read an empty body and parse `hello` as
        // the start of the next request.
        let wire = b"POST / HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 0\r\n\r\n\
                     helloGET /health HTTP/1.1\r\n\r\n";
        let (blocking, incremental) = both(wire);
        assert!(is_malformed(&blocking), "{blocking:?}");
        assert!(is_malformed(&incremental), "{incremental:?}");
        // A repeat of the same value leaves nothing ambiguous.
        let wire = b"POST / HTTP/1.1\r\ncontent-length: 5\r\nContent-Length: 5\r\n\r\nhello";
        let (blocking, incremental) = both(wire);
        assert_eq!(blocking.unwrap().unwrap().body, b"hello");
        let Ok(Parsed::Complete(request, consumed)) = incremental else {
            panic!("a repeated equal content-length should parse");
        };
        assert_eq!(
            (request.body.as_slice(), consumed),
            (&b"hello"[..], wire.len())
        );
    }

    #[test]
    fn responses_take_the_request_content_length_rule() {
        // `usize::from_str` would read a 2-byte body here.
        let signed = b"HTTP/1.1 200 OK\r\ncontent-length: +2\r\n\r\nok";
        let verdict = read_response(&mut &signed[..]);
        assert!(is_malformed(&verdict), "{verdict:?}");
        // Last-one-wins would read an empty body and leave `ok` on the
        // stream as the start of the next response.
        let conflicting = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 0\r\n\r\nok";
        let verdict = read_response(&mut &conflicting[..]);
        assert!(is_malformed(&verdict), "{verdict:?}");
        let repeated = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nContent-Length: 2\r\n\r\nok";
        let response = read_response(&mut &repeated[..]).unwrap().unwrap();
        assert_eq!(response.body, b"ok");
    }

    /// Lowercase names the generator draws header names from.
    const NAMES: [&str; 5] = [
        "x-trace-id",
        "accept",
        "user-agent",
        "content-type",
        "connection",
    ];
    const PATH_CHARS: &[u8] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/_-.?=&%";
    const VALUE_CHARS: &[u8] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,;=/.-:";

    fn ascii_from(rng: &mut Rng, alphabet: &[u8], len: usize) -> String {
        (0..len)
            .map(|_| char::from(alphabet[rng.gen_range(0..alphabet.len())]))
            .collect()
    }

    fn mixed_case(rng: &mut Rng, name: &str) -> String {
        name.chars()
            .map(|c| {
                if rng.gen_bool(0.5) {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    }

    fn eol(rng: &mut Rng) -> &'static str {
        if rng.gen_bool(0.9) {
            "\r\n"
        } else {
            "\n"
        }
    }

    /// A request's wire form and the request both parsers must read
    /// back: random method and path (now and then a request line of
    /// exactly `MAX_LINE` or `MAX_LINE - 1` bytes), 0–5 headers with
    /// mixed-case names and a `content-length` among them, a 0–300-byte
    /// body that contains line breaks, and CRLF or bare-LF line ends.
    fn gen_request(rng: &mut Rng) -> (Vec<u8>, Request) {
        let method = ["GET", "POST", "PUT", "DELETE", "PATCH"][rng.gen_range(0..5usize)];
        let path_len = if rng.gen_bool(0.1) {
            MAX_LINE - method.len() - " / HTTP/1.1".len() - rng.gen_range(0..2usize)
        } else {
            rng.gen_range(0..40usize)
        };
        let path = format!("/{}", ascii_from(rng, PATH_CHARS, path_len));
        let body: Vec<u8> = (0..rng.gen_range(0..=300usize))
            .map(|_| [b'\r', b'\n', b'{', b':', rng.gen::<u8>()][rng.gen_range(0..5usize)])
            .collect();
        let mut headers: Vec<(String, String)> = (0..rng.gen_range(0..=5usize))
            .map(|_| {
                let name = NAMES[rng.gen_range(0..NAMES.len())].to_owned();
                let len = rng.gen_range(0..20usize);
                (name, ascii_from(rng, VALUE_CHARS, len).trim().to_owned())
            })
            .collect();
        if !body.is_empty() || rng.gen_bool(0.5) {
            let copies = if rng.gen_bool(0.1) { 2 } else { 1 };
            for _ in 0..copies {
                let at = rng.gen_range(0..=headers.len());
                headers.insert(at, ("content-length".into(), body.len().to_string()));
            }
        }
        let mut wire = format!("{method} {path} HTTP/1.1{}", eol(rng));
        for (name, value) in &headers {
            let gap = [":", ": ", ":  ", ":\t"][rng.gen_range(0..4usize)];
            let trail = if rng.gen_bool(0.2) { " " } else { "" };
            let line_end = eol(rng);
            wire += &format!("{}{gap}{value}{trail}{line_end}", mixed_case(rng, name));
        }
        wire += eol(rng);
        let mut wire = wire.into_bytes();
        wire.extend_from_slice(&body);
        let request = Request {
            method: method.to_owned(),
            path,
            headers,
            body,
        };
        (wire, request)
    }

    /// Up to 20 KiB of bytes, each either random or an HTTP-ish piece,
    /// mixed in a proportion drawn per case.
    fn gen_garbage(rng: &mut Rng) -> Vec<u8> {
        const PIECES: [&[u8]; 8] = [
            b"\r\n",
            b"\n",
            b": ",
            b" ",
            b"content-length: ",
            b"GET / HTTP/1.1",
            b"12",
            b"\r",
        ];
        let len = rng.gen_range(0..=20 * 1024usize);
        let piece_share = rng.next_f64();
        let mut garbage = Vec::with_capacity(len + 16);
        while garbage.len() < len {
            if rng.gen_bool(piece_share) {
                garbage.extend_from_slice(PIECES[rng.gen_range(0..PIECES.len())]);
            } else {
                garbage.push(rng.gen());
            }
        }
        garbage.truncate(len);
        garbage
    }

    /// A request with a framing error, followed by a pipelined
    /// `GET /health`: a `content-length` that is not all ASCII digits,
    /// or a second one that differs from the first.
    fn gen_framing_error(rng: &mut Rng) -> Vec<u8> {
        let n = rng.gen_range(0..100usize);
        let first = format!("content-length: {n}\r\n");
        let bad = match rng.gen_range(0..6usize) {
            0 => format!("content-length: +{n}\r\n"),
            1 => format!("content-length: -{n}\r\n"),
            2 => format!("content-length: {n}x\r\n"),
            3 => format!("content-length: {n}, {n}\r\n"),
            4 => format!(
                "{first}Content-Length: {}\r\n",
                n + rng.gen_range(1..10usize)
            ),
            _ => format!("content-length: 0x{n:x}\r\n"),
        };
        let body = "b".repeat(n);
        format!("POST /solve HTTP/1.1\r\n{bad}\r\n{body}GET /health HTTP/1.1\r\n\r\n").into_bytes()
    }

    #[derive(Debug)]
    struct Pipeline {
        requests: Vec<(Vec<u8>, Request)>,
        garbage: Vec<u8>,
        /// A request whose line `long_line_at` runs past `MAX_LINE`.
        long_line: (Vec<u8>, usize),
        /// Headers that declare a body above `MAX_BODY`, the body
        /// itself not sent.
        oversized: Vec<u8>,
        framing_error: Vec<u8>,
    }

    fn gen_pipeline(rng: &mut Rng) -> Pipeline {
        let requests = (0..rng.gen_range(1..=3usize))
            .map(|_| gen_request(rng))
            .collect();
        let garbage = gen_garbage(rng);
        let long_len = MAX_LINE + rng.gen_range(0..64usize);
        let long = ascii_from(rng, PATH_CHARS, long_len);
        let long_line = if rng.gen_bool(0.5) {
            (format!("GET /{long} HTTP/1.1\r\n\r\n").into_bytes(), 0)
        } else {
            let head = "GET / HTTP/1.1\r\naccept: */*\r\n";
            (
                format!("{head}x-long: {long}\r\n\r\n").into_bytes(),
                head.len(),
            )
        };
        let declared = MAX_BODY + 1 + rng.gen_range(0..1_000_000usize);
        let oversized = format!(
            "POST /solve HTTP/1.1\r\naccept: */*\r\n{}: {declared}\r\n",
            mixed_case(rng, "content-length")
        )
        .into_bytes();
        Pipeline {
            requests,
            garbage,
            long_line,
            oversized,
            framing_error: gen_framing_error(rng),
        }
    }

    #[test]
    fn generated_pipelines_parse_alike_in_both_parsers() {
        Checker::new("http_parser_pipelines").run(gen_pipeline, |case| {
            let mut wire: Vec<u8> = case.requests.iter().flat_map(|(w, _)| w.clone()).collect();
            wire.extend_from_slice(&case.garbage);
            for cut in 0..case.requests[0].0.len() {
                require!(
                    matches!(try_parse_request(&wire[..cut]), Ok(Parsed::Incomplete)),
                    "a {cut}-byte prefix of the first request is not Incomplete"
                );
            }
            // Each request parses whole, as generated and as the
            // blocking parser reads it, and leaves the next in place.
            let mut blocking = &wire[..];
            let mut pos = 0;
            for (i, (bytes, expected)) in case.requests.iter().enumerate() {
                let parsed = try_parse_request(&wire[pos..]);
                let Ok(Parsed::Complete(request, consumed)) = parsed else {
                    return Err(format!("request {i} did not parse: {parsed:?}"));
                };
                require_eq!(consumed, bytes.len(), "request {i} consumed");
                require_eq!(&request, expected, "request {i}");
                let read = read_request(&mut blocking).map_err(|e| format!("request {i}: {e}"))?;
                require_eq!(read.as_ref(), Some(expected), "blocking request {i}");
                pos += consumed;
            }
            // The garbage tail may parse or not, but never panics, and
            // a parse never consumes more than the buffer holds.
            let tail = &wire[pos..];
            for k in 0..=8 {
                let cut = tail.len() * k / 8;
                if let Ok(Parsed::Complete(_, consumed)) = try_parse_request(&tail[..cut]) {
                    require!(consumed <= cut, "consumed {consumed} of {cut} bytes");
                }
            }
            let _ = read_request(&mut blocking);
            // Limits fail on partial data, before the rest arrives.
            let (long, at) = &case.long_line;
            let (blocking, incremental) = both(&long[..at + MAX_LINE + 1]);
            require!(is_malformed(&blocking), "long line, blocking: {blocking:?}");
            require!(is_malformed(&incremental), "long line: {incremental:?}");
            let (blocking, incremental) = both(&case.oversized);
            require!(
                is_malformed(&blocking),
                "oversized body, blocking: {blocking:?}"
            );
            require!(
                is_malformed(&incremental),
                "oversized body: {incremental:?}"
            );
            let (blocking, incremental) = both(&case.framing_error);
            require!(
                is_malformed(&blocking),
                "framing error, blocking: {blocking:?}"
            );
            require!(is_malformed(&incremental), "framing error: {incremental:?}");
            Ok(())
        });
    }

    #[test]
    fn timeout_status_has_a_reason() {
        let mut wire = Vec::new();
        Response::text(408, "request header timeout\n")
            .write_to(&mut wire, true)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 408 Request Timeout\r\n"));
        assert!(text.contains("connection: close"));
    }
}
