//! Minimal HTTP/1.1 framing over `std::net`.
//!
//! The build environment has no registry access, so there is no tokio or
//! hyper to lean on; this module hand-rolls exactly the subset of RFC 9112
//! the wire protocol needs: request-line + headers + `Content-Length`
//! framed bodies, and `Connection: close` responses.  Chunked transfer
//! encoding, keep-alive and HTTP/2 are deliberately out of scope — one
//! request per connection keeps reader threads stateless.
//!
//! Limits are enforced before any allocation proportional to the input:
//! headers are capped at 16 KiB and bodies at 16 MiB, so a hostile client
//! cannot balloon a reader's memory.

// A panic here kills a reader thread: degrade to a `500` (docs/LINTS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;

/// Maximum accepted size of the request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request body size.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component of the request target (no query string).
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Raw request body (`Content-Length` framed).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// How reading a request failed, mapped to a response status by the server.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request → `400`.
    BadRequest(String),
    /// Head or body over the caps → `431` / `413`.
    TooLarge(&'static str),
    /// Socket-level failure (no response possible).
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::TooLarge(what) => write!(f, "{what} too large"),
            HttpError::Io(err) => write!(f, "socket error: {err}"),
        }
    }
}

/// Reads and parses one request from `stream`.
///
/// Generic over [`Read`] so the framing logic is unit-testable without a
/// socket; the server instantiates it with a `TcpStream`.  The head scan
/// resumes from the previous buffer tail (a terminator can only start in
/// the last three bytes already seen), so a trickle-fed head costs O(n),
/// and reads are capped so the head buffer never exceeds
/// [`MAX_HEAD_BYTES`].
pub fn read_request<S: Read>(stream: &mut S) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let mut scanned = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf, scanned) {
            break pos;
        }
        scanned = buf.len().saturating_sub(3);
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge("request head"));
        }
        let limit = chunk.len().min(MAX_HEAD_BYTES - buf.len());
        let n = stream.read(&mut chunk[..limit]).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::BadRequest("connection closed mid-head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("non-UTF-8 request head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::BadRequest("malformed request line".into())),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!("unsupported version {version}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::BadRequest("chunked bodies are not supported".into()));
    }

    let mut declared_length: Option<&str> = None;
    for (name, value) in &headers {
        if name == "content-length" {
            match declared_length {
                Some(prev) if prev != value => {
                    return Err(HttpError::BadRequest(
                        "conflicting duplicate content-length headers".into(),
                    ));
                }
                _ => declared_length = Some(value),
            }
        }
    }
    // RFC 9110 §8.6: `Content-Length = 1*DIGIT`.  `str::parse` alone would
    // also take a leading `+`, a framing another hop may read differently.
    let content_length = match declared_length {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|_| v.bytes().all(|b| b.is_ascii_digit()))
            .ok_or_else(|| HttpError::BadRequest("unparseable content-length".into()))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("request body"));
    }

    let body_start = head_end + 4;
    let mut body: Vec<u8> = buf[body_start.min(buf.len())..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::BadRequest("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    let (path, query) = parse_target(target)?;
    Ok(Request { method: method.to_string(), path, query, headers, body })
}

/// Index of the `\r\n\r\n` separator, if fully buffered.
///
/// `from` is how far previous scans already got; a terminator cannot start
/// in a region that was fully scanned before, so rescans stay O(1) per new
/// chunk instead of O(buffer).
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..].windows(4).position(|w| w == b"\r\n\r\n").map(|pos| pos + from)
}

/// Splits a request target into decoded path + query pairs.
///
/// `+`-as-space applies only to query keys and values
/// (`application/x-www-form-urlencoded` convention); in the path component
/// `+` is a literal character per RFC 3986.
fn parse_target(target: &str) -> Result<(String, Vec<(String, String)>), HttpError> {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path, false)?;
    let mut query = Vec::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k, true)?, percent_decode(v, true)?));
        }
    }
    Ok((path, query))
}

/// Decodes `%XX` escapes in a target component; `+` becomes a space only
/// when `plus_as_space` is set (query components, never the path).
fn percent_decode(s: &str, plus_as_space: bool) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Exactly two hex digits: `from_str_radix` alone would also
                // take a sign (`%+f`).
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| HttpError::BadRequest("malformed percent escape".into()))?;
                out.push(hex);
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::BadRequest("non-UTF-8 percent escape".into()))
}

/// An HTTP response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// JSON body, behind a reference count: a shard's memoised `/query`
    /// body is shared with every other response of that version, never
    /// copied into this one.
    pub body: Arc<str>,
    /// Optional `Retry-After` header (seconds), used by `429` responses.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Arc<str>>) -> Self {
        Response { status, body: body.into(), retry_after: None }
    }

    /// Attaches a `Retry-After` header.
    pub fn with_retry_after(mut self, seconds: u32) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Writes the response (status line, headers, body) onto `w`; a
    /// shared body is sent from where it lives.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let reason = reason_phrase(self.status);
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason,
            self.body.len(),
        );
        if let Some(seconds) = self.retry_after {
            head.push_str(&format!("Retry-After: {seconds}\r\n"));
        }
        head.push_str("\r\n");
        write_message(w, head.as_bytes(), self.body.as_bytes())
    }
}

/// Writes a message's head and body in one vectored write — a small message
/// is one segment, and neither part is copied next to the other first —
/// with plain writes for whatever that first call did not take, then
/// flushes.  Both directions use it: two small writes followed by a read are
/// what Nagle's algorithm and a delayed ACK turn into a stall.
pub(crate) fn write_message(w: &mut impl Write, head: &[u8], body: &[u8]) -> io::Result<()> {
    let sent = match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
        Ok(sent) => sent,
        Err(err) if err.kind() == io::ErrorKind::Interrupted => 0,
        Err(err) => return Err(err),
    };
    if sent < head.len() {
        w.write_all(&head[sent..])?;
        w.write_all(body)?;
    } else {
        w.write_all(&body[sent - head.len()..])?;
    }
    w.flush()
}

/// Reason phrase for the status codes the protocol uses.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A [`Read`] that hands out at most `step` bytes per call, simulating
    /// a client trickling the request onto the socket.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        step: usize,
        reads: usize,
    }

    impl Trickle {
        fn new(data: impl Into<Vec<u8>>, step: usize) -> Self {
            Trickle { data: data.into(), pos: 0, step, reads: 0 }
        }
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = self.step.min(self.data.len() - self.pos).min(out.len());
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn parses_targets() {
        let (path, query) = parse_target("/query?group=g%201&view=table&flag").unwrap();
        assert_eq!(path, "/query");
        assert_eq!(
            query,
            vec![
                ("group".into(), "g 1".into()),
                ("view".into(), "table".into()),
                ("flag".into(), String::new()),
            ]
        );
        assert!(parse_target("/x%zz").is_err());
    }

    #[test]
    fn decodes_plus_and_percent() {
        assert_eq!(percent_decode("a+b%2Fc", true).unwrap(), "a b/c");
        assert_eq!(percent_decode("a+b%2Fc", false).unwrap(), "a+b/c");
        assert_eq!(percent_decode("%2B%2b%41", true).unwrap(), "++A");
        // An escape is exactly two hex digits; `u8::from_str_radix("+f", 16)`
        // alone would be `Ok(15)`.
        for bad in ["%+f", "%-1", "%+F", "%f", "%", "%g1", "%1g"] {
            assert!(percent_decode(bad, true).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn plus_is_literal_in_paths_but_space_in_queries() {
        let (path, query) = parse_target("/c++/docs?group=a+b&tag=c%2Bd").unwrap();
        assert_eq!(path, "/c++/docs");
        assert_eq!(query, vec![("group".into(), "a b".into()), ("tag".into(), "c+d".into())]);
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        let raw = "POST /ingest HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi!";
        let err = read_request(&mut Trickle::new(raw, 4096)).unwrap_err();
        assert!(
            matches!(err, HttpError::BadRequest(ref m) if m.contains("content-length")),
            "{err}"
        );
    }

    #[test]
    fn identical_duplicate_content_lengths_are_tolerated() {
        let raw = "POST /ingest HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi";
        let request = read_request(&mut Trickle::new(raw, 4096)).unwrap();
        assert_eq!(request.body, b"hi");
    }

    #[test]
    fn content_length_must_be_digits() {
        // `"+5".parse::<usize>()` is `Ok(5)`; RFC 9110 says `1*DIGIT`.
        for bad in ["+5", "-5", "5 5", "0x5", "5.0", ""] {
            let raw = format!("POST /ingest HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhello");
            let err = read_request(&mut Trickle::new(raw, 4096)).unwrap_err();
            assert!(
                matches!(err, HttpError::BadRequest(ref m) if m.contains("content-length")),
                "{bad:?}: {err}"
            );
        }
        let raw = "POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(read_request(&mut Trickle::new(raw, 4096)).unwrap().body, b"hello");
    }

    #[test]
    fn slow_trickle_head_is_parsed_in_linear_passes() {
        let filler = "x".repeat(8 * 1024);
        let raw = format!("GET /health HTTP/1.1\r\nX-Filler: {filler}\r\nHost: t\r\n\r\n");
        let mut stream = Trickle::new(raw.clone(), 1);
        let request = read_request(&mut stream).unwrap();
        assert_eq!(request.path, "/health");
        assert_eq!(request.header("host"), Some("t"));
        assert_eq!(stream.reads, raw.len());
    }

    #[test]
    fn terminator_split_across_chunks_is_found() {
        for step in [1, 2, 3, 5] {
            let raw = "GET /q HTTP/1.1\r\nHost: t\r\n\r\n";
            let request = read_request(&mut Trickle::new(raw, step)).unwrap();
            assert_eq!(request.path, "/q");
        }
    }

    #[test]
    fn head_cap_is_enforced_exactly() {
        // An unterminated head: the reader must give up with 431 once (and
        // only once) MAX_HEAD_BYTES are buffered, never over-reading.
        let raw = format!("GET /q HTTP/1.1\r\nX-Filler: {}", "y".repeat(2 * MAX_HEAD_BYTES));
        let mut stream = Trickle::new(raw, 4096);
        let err = read_request(&mut stream).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge("request head")), "{err}");
        assert_eq!(stream.pos, MAX_HEAD_BYTES, "reader consumed bytes past the head cap");

        // A head that fits exactly under the cap still parses, with the
        // body following intact.
        let head = "POST /ingest HTTP/1.1\r\nContent-Length: 4\r\nX-Pad: ";
        let pad = "p".repeat(MAX_HEAD_BYTES - head.len() - 4);
        let raw = format!("{head}{pad}\r\n\r\nbody");
        let request = read_request(&mut Trickle::new(raw, 4096)).unwrap();
        assert_eq!(request.body, b"body");
    }

    #[test]
    fn response_serializes_with_framing() {
        let mut out = Vec::new();
        Response::json(429, "{}").with_retry_after(2).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// A [`Write`] that takes at most `step` bytes per call and no second
    /// slice, like a socket with a nearly full send buffer.
    struct Dribble {
        taken: Vec<u8>,
        step: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len());
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_lose_no_response_bytes() {
        let response = Response::json(200, "{\"k\":\"v\"}".repeat(40));
        let mut whole = Vec::new();
        response.write_to(&mut whole).unwrap();
        let head = whole.len() - response.body.len();
        // Cuts inside the head, at its end, and inside the body.
        for step in [1, 7, head, whole.len() - 3, whole.len()] {
            let mut out = Dribble { taken: Vec::new(), step };
            response.write_to(&mut out).unwrap();
            assert_eq!(out.taken, whole, "step {step}");
        }
    }

    /// splitmix64: a seeded case generator with no dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }
    }

    /// A valid request in parts, so that its `Content-Length` lines can be
    /// rendered as the mutations below need them.
    struct Case {
        request_line: String,
        /// Header lines other than `Content-Length`, as sent.
        lines: Vec<String>,
        /// Where the `Content-Length` lines go among `lines`.
        length_at: usize,
        has_length: bool,
        body: Vec<u8>,
        method: &'static str,
        path: String,
        query: Vec<(String, String)>,
        /// `lines` as the parser must report them.
        headers: Vec<(String, String)>,
    }

    impl Case {
        fn render(&self, lengths: &[String]) -> Vec<u8> {
            let mut lines = self.lines.clone();
            for length in lengths.iter().rev() {
                lines.insert(self.length_at, format!("Content-Length: {length}"));
            }
            let mut head = format!("{}\r\n", self.request_line);
            for line in lines {
                head = head + &line + "\r\n";
            }
            let mut bytes = (head + "\r\n").into_bytes();
            bytes.extend_from_slice(&self.body);
            bytes
        }

        fn valid(&self) -> Vec<u8> {
            let lengths = if self.has_length { vec![self.body.len().to_string()] } else { vec![] };
            self.render(&lengths)
        }
    }

    /// One path segment or query key / value: `(as sent, as decoded)`, with
    /// `%XX` escapes in either hex case and `+` in its per-component sense.
    fn component(rng: &mut SplitMix, in_query: bool) -> (String, String) {
        const PLAIN: &[u8] = b"abcXYZ019-._~!$'()*,;:@";
        let (mut sent, mut decoded) = (String::new(), String::new());
        for _ in 0..rng.below(8) {
            match rng.below(6) {
                0 => {
                    let c = rng.pick(&['/', '?', '&', '=', '%', '+', '#', ' ', 'é', '€']);
                    for byte in c.to_string().bytes() {
                        let escape = if rng.below(2) == 0 {
                            format!("%{byte:02X}")
                        } else {
                            format!("%{byte:02x}")
                        };
                        sent.push_str(&escape);
                    }
                    decoded.push(c);
                }
                1 => {
                    sent.push('+');
                    decoded.push(if in_query { ' ' } else { '+' });
                }
                _ => {
                    let c = char::from(rng.pick(PLAIN));
                    sent.push(c);
                    decoded.push(c);
                }
            }
        }
        (sent, decoded)
    }

    fn generate(rng: &mut SplitMix) -> Case {
        let method = rng.pick(&["GET", "POST"]);
        let (mut target, mut path) = (String::new(), String::new());
        for _ in 0..1 + rng.below(3) {
            let (sent, decoded) = component(rng, false);
            target = format!("{target}/{sent}");
            path = format!("{path}/{decoded}");
        }
        let mut query = Vec::new();
        let pairs: Vec<String> = (0..rng.below(4))
            .map(|_| {
                let ((key, k), (value, v)) = (component(rng, true), component(rng, true));
                query.push((k, v));
                format!("{key}={value}")
            })
            .collect();
        if !pairs.is_empty() || rng.below(4) == 0 {
            target = format!("{target}?{}", pairs.join("&"));
        }
        let version = rng.pick(&["HTTP/1.1", "HTTP/1.0"]);

        let (mut lines, mut headers) = (Vec::new(), Vec::new());
        for _ in 0..rng.below(6) {
            let name: String = (0..1 + rng.below(12))
                .map(|_| char::from(rng.pick(b"abcdefxyzABCDEFXYZ0129-")))
                .collect();
            let value: String =
                (0..rng.below(20)).map(|_| char::from(b'!' + rng.below(94) as u8)).collect();
            let pad = rng.pick(&["", " ", "  ", "\t"]);
            lines.push(format!("{name}:{pad}{value}{pad}"));
            headers.push((name.to_ascii_lowercase(), value));
        }
        let body: Vec<u8> = (0..rng.below(4097)).map(|_| rng.next() as u8).collect();
        Case {
            request_line: format!("{method} {target} {version}"),
            length_at: rng.below(lines.len() + 1),
            has_length: !body.is_empty() || rng.below(2) == 0,
            lines,
            body,
            method,
            path,
            query,
            headers,
        }
    }

    /// Parses `bytes` fed `step` at a time, then an endless run of filler,
    /// and returns the outcome with the bytes consumed; a panic names the
    /// input it came from.
    fn parse(bytes: &[u8], step: usize) -> (Result<Request, HttpError>, usize) {
        const BOUND: u64 = (MAX_HEAD_BYTES + MAX_BODY_BYTES + 4096) as u64;
        let mut stream = Trickle::new(bytes, step).chain(io::repeat(b'x')).take(BOUND + 1);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read_request(&mut stream)))
                .unwrap_or_else(|_| {
                    panic!("read_request panicked on {:?}", String::from_utf8_lossy(bytes))
                });
        (outcome, (BOUND + 1 - stream.limit()) as usize)
    }

    #[test]
    fn generated_requests_round_trip_and_their_mutants_fail_cleanly() {
        const CEILING: usize = MAX_HEAD_BYTES + MAX_BODY_BYTES + 4096;
        let mut rng = SplitMix(0x5EED_1A4E);
        for _ in 0..300 {
            let case = generate(&mut rng);
            let valid = case.valid();
            let step = if rng.below(4) == 0 { 1 + rng.below(8) } else { 1 + rng.below(4096) };
            let request = read_request(&mut Trickle::new(&valid[..], step))
                .unwrap_or_else(|err| panic!("{err}: {:?}", String::from_utf8_lossy(&valid)));
            let mut headers = case.headers.clone();
            if case.has_length {
                headers
                    .insert(case.length_at, ("content-length".into(), case.body.len().to_string()));
            }
            assert_eq!(request.method, case.method);
            assert_eq!((&request.path, &request.query), (&case.path, &case.query));
            assert_eq!(request.headers, headers);
            assert_eq!(request.body, case.body);

            let mut mutants = Vec::new();
            mutants.push(valid[..rng.below(valid.len())].to_vec());
            let mut spliced = valid.clone();
            let at = rng.below(spliced.len());
            let cut = (at + rng.below(8)).min(spliced.len());
            let noise: Vec<u8> = (0..rng.below(16)).map(|_| rng.next() as u8).collect();
            spliced.splice(at..cut, noise);
            mutants.push(spliced);
            let mut flipped = valid.clone();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(flipped.len());
                flipped[at] ^= 1 << rng.below(8);
            }
            mutants.push(flipped);
            for mutant in &mutants {
                let (_, consumed) = parse(mutant, 1 + rng.below(4096));
                assert!(consumed <= CEILING, "consumed {consumed} bytes");
            }

            // Inflated and duplicated lengths, each with the answer it must get.
            let length = case.body.len().to_string();
            for (lengths, expected) in [
                (vec![(MAX_BODY_BYTES + 1).to_string()], "413"),
                (vec!["1234567890123456789012345".to_string()], "400"),
                (vec![length.clone(), length.clone()], "same body"),
                (vec![length, (case.body.len() + 1).to_string()], "400"),
            ] {
                let (outcome, consumed) = parse(&case.render(&lengths), step);
                assert!(consumed <= CEILING, "consumed {consumed} bytes");
                let got = match outcome {
                    Ok(request) if request.body == case.body => "same body",
                    Err(HttpError::TooLarge("request body")) => "413",
                    Err(HttpError::BadRequest(msg)) if msg.contains("content-length") => "400",
                    _ => "something else",
                };
                assert_eq!(got, expected, "Content-Length {lengths:?}");
            }
        }
    }
}
