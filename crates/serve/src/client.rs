//! A small blocking client for the wire protocol.
//!
//! One `TcpStream` per request (the server speaks `Connection: close`),
//! JSON bodies built and decoded by [`wire`] and the vendored
//! `serde_json`.  Used by the integration tests, the serving benchmark and
//! the CI smoke job; `docs/PROTOCOL.md` shows the equivalent raw `curl`
//! calls.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use lake_runtime::pause;
use lake_table::Table;

use crate::http::write_message;
use crate::wire;

/// Client-side failure talking to a server.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, writing or reading the socket failed.
    Io(std::io::Error),
    /// The response was not parseable HTTP/JSON.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "client I/O error: {err}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Io(err)
    }
}

/// A server reply: status code, optional `Retry-After`, raw JSON body.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` header in seconds, when present (on `429`).
    pub retry_after: Option<u32>,
    /// The raw response body (JSON for every documented route).
    pub body: String,
}

impl Reply {
    /// Parses the body as JSON.
    pub fn json(&self) -> Result<serde_json::Value, ClientError> {
        serde_json::from_str(&self.body)
            .map_err(|err| ClientError::Protocol(format!("unparseable body: {err}")))
    }
}

/// Which shard a `/query` should read.
#[derive(Debug, Clone, Copy)]
pub enum QueryTarget<'a> {
    /// Resolve the shard from a group name (server applies
    /// [`route_group`](crate::route_group)).
    Group(&'a str),
    /// An explicit shard index.
    Shard(usize),
}

/// Blocking wire-protocol client.
///
/// # Examples
///
/// ```no_run
/// use lake_serve::{LakeServer, ServeClient, ServePolicy};
/// use lake_table::TableBuilder;
///
/// let server = LakeServer::start(ServePolicy::default()).unwrap();
/// let client = ServeClient::new(server.addr());
///
/// let table = TableBuilder::new("S0", ["City", "Cases"]).row(["Berlin", "1.4M"]).build().unwrap();
/// let ack = client.ingest("covid", &table).unwrap();
/// assert_eq!(ack.status, 202);
///
/// client.wait_idle(std::time::Duration::from_secs(5)).unwrap();
/// let reply = client.query(lake_serve::QueryTarget::Group("covid"), "table").unwrap();
/// assert_eq!(reply.status, 200);
/// server.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: SocketAddr,
    timeout: Duration,
}

impl ServeClient {
    /// A client for the server at `addr` (10 s I/O timeout).
    pub fn new(addr: SocketAddr) -> Self {
        ServeClient { addr, timeout: Duration::from_secs(10) }
    }

    /// `GET /health`.
    pub fn health(&self) -> Result<Reply, ClientError> {
        self.request("GET", "/health", None)
    }

    /// `GET /stats`.
    pub fn stats(&self) -> Result<Reply, ClientError> {
        self.request("GET", "/stats", None)
    }

    /// `POST /ingest` of `table` under `group`.
    pub fn ingest(&self, group: &str, table: &Table) -> Result<Reply, ClientError> {
        self.request("POST", "/ingest", Some(&wire::ingest_body(group, table)))
    }

    /// `GET /query` for one view (`"table"`, `"report"` or `"provenance"`).
    pub fn query(&self, target: QueryTarget<'_>, view: &str) -> Result<Reply, ClientError> {
        let target = match target {
            QueryTarget::Group(group) => format!("group={}", percent_encode(group)),
            QueryTarget::Shard(shard) => format!("shard={shard}"),
        };
        self.request("GET", &format!("/query?{target}&view={view}"), None)
    }

    /// Polls `/stats` until every shard is idle (empty queue, writer not
    /// integrating) or `timeout` elapses.  Returns whether idle was
    /// reached — the queues are drained and every acknowledged ingest is
    /// visible to queries when it is.
    pub fn wait_idle(&self, timeout: Duration) -> Result<bool, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let stats = self.stats()?.json()?;
            let idle = stats
                .get("shards")
                .and_then(serde_json::Value::as_array)
                .map(|shards| {
                    shards.iter().all(|shard| {
                        shard.get("queued").and_then(serde_json::Value::as_u64) == Some(0)
                            && shard.get("busy").and_then(serde_json::Value::as_bool) == Some(false)
                    })
                })
                .unwrap_or(false);
            if idle {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            pause(Duration::from_millis(5));
        }
    }

    /// An arbitrary request (any method/target/body) through the client's
    /// transport — the escape hatch the protocol-conformance tests use to
    /// send requests the typed helpers would never produce.
    pub fn raw(
        &self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<Reply, ClientError> {
        self.request(method, target, body)
    }

    /// One request/response round-trip.
    fn request(
        &self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<Reply, ClientError> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        // Head and body leave in one write, and nothing is held back to
        // be coalesced with a later one.
        stream.set_nodelay(true)?;
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: lake-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len(),
        );
        write_message(&mut stream, head.as_bytes(), body.as_bytes())?;

        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        parse_reply(&raw)
    }
}

/// Parses a `Connection: close` HTTP response.
fn parse_reply(raw: &[u8]) -> Result<Reply, ClientError> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| ClientError::Protocol("response has no header terminator".into()))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| ClientError::Protocol("non-UTF-8 response head".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line {status_line:?}")))?;
    let mut retry_after = None;
    let mut content_length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "retry-after" => retry_after = value.trim().parse::<u32>().ok(),
                "content-length" => content_length = value.trim().parse::<usize>().ok(),
                _ => {}
            }
        }
    }
    let body_bytes = &raw[head_end + 4..];
    let body_bytes = match content_length {
        Some(len) if len <= body_bytes.len() => &body_bytes[..len],
        _ => body_bytes,
    };
    let body = String::from_utf8(body_bytes.to_vec())
        .map_err(|_| ClientError::Protocol("non-UTF-8 response body".into()))?;
    Ok(Reply { status, retry_after, body })
}

/// Percent-encodes a query-string value (conservative: everything outside
/// unreserved characters).
fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for byte in s.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(byte as char)
            }
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_replies_with_retry_after() {
        let raw =
            b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\nRetry-After: 3\r\n\r\n{}";
        let reply = parse_reply(raw).unwrap();
        assert_eq!(reply.status, 429);
        assert_eq!(reply.retry_after, Some(3));
        assert_eq!(reply.body, "{}");
    }

    #[test]
    fn rejects_garbage_replies() {
        assert!(parse_reply(b"not http").is_err());
        assert!(parse_reply(b"HTTP/1.1 xx\r\n\r\n").is_err());
    }

    #[test]
    fn percent_encoding_covers_reserved_bytes() {
        assert_eq!(percent_encode("a b/c=1&x"), "a%20b%2Fc%3D1%26x");
        assert_eq!(percent_encode("tenant-0.a_b~"), "tenant-0.a_b~");
    }
}
