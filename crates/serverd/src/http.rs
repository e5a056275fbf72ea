//! A minimal HTTP/1.1 layer over `std::net` — request parsing, plain
//! responses, and Server-Sent Event streaming.
//!
//! The build vendors no async runtime or HTTP stack, and none is needed:
//! each connection is owned by one thread, requests are small JSON bodies,
//! and responses either fit in one write or stream as SSE frames. The
//! parser handles exactly what the front-end serves — a request line,
//! headers, and an optional `Content-Length` body — and rejects everything
//! else (chunked uploads, HTTP/2 preambles) with a clean error rather than
//! guessing.
//!
//! Client disconnects surface as write errors: SSE frames are flushed per
//! event (and interleaved with `: ping` comments while a stream is idle),
//! so a vanished reader fails the next write within one keep-alive period
//! and the connection handler can cancel the request it was streaming.

// Malformed input must become a 4xx response, never a worker abort.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::panic_in_result_fn
)]

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Hard cap on the request head (request line + headers): generous for any
/// real client, small enough that a garbage stream cannot balloon memory.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP/1.1 request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Request path including any query string, e.g. `/v1/generate`.
    pub path: String,
    /// Header `(name, value)` pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let needle = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == needle)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// The socket failed or closed mid-request.
    Io(io::Error),
    /// The bytes were not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// The declared body exceeds the configured limit.
    BodyTooLarge {
        /// Bytes the client declared.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "socket error: {e}"),
            ParseError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            ParseError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
        }
    }
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Reads and parses one request from `stream`, enforcing `max_body_bytes`.
pub fn read_request(
    stream: &mut TcpStream,
    max_body_bytes: usize,
) -> Result<HttpRequest, ParseError> {
    // Accumulate until the blank line ending the head. Reads are
    // byte-buffered locally; anything past the head is body prefix.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ParseError::Malformed("request head too large".into()));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ParseError::Malformed("connection closed mid-head".into()));
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
    };

    let head = std::str::from_utf8(buf.get(..head_end).unwrap_or_default())
        .map_err(|_| ParseError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ParseError::Malformed("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ParseError::Malformed("missing method".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing path".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!(
            "unsupported version `{version}`"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Malformed(format!("bad header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = HttpRequest {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(ParseError::Malformed(
            "chunked request bodies are not supported".into(),
        ));
    }

    let declared: usize = match request.header("content-length") {
        Some(v) => v
            .parse()
            .map_err(|_| ParseError::Malformed(format!("bad content-length `{v}`")))?,
        None => 0,
    };
    if declared > max_body_bytes {
        return Err(ParseError::BodyTooLarge {
            declared,
            limit: max_body_bytes,
        });
    }

    // Body bytes already read past the head, then the remainder.
    let mut body = buf.get(head_end + 4..).unwrap_or_default().to_vec();
    while body.len() < declared {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ParseError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(chunk.get(..n).unwrap_or_default());
    }
    body.truncate(declared);

    Ok(HttpRequest { body, ..request })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes a complete response with `Content-Length` and `Connection:
/// close`. `extra` headers are appended verbatim.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    extra: &[(&str, &str)],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Convenience for a JSON body.
pub fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
    extra: &[(&str, &str)],
) -> io::Result<()> {
    respond(
        stream,
        status,
        reason,
        "application/json",
        body.as_bytes(),
        extra,
    )
}

/// Starts a Server-Sent Events response. Subsequent frames go through
/// [`sse_event`] / [`sse_ping`]; the stream ends when the connection
/// closes (`Connection: close`, no `Content-Length`).
pub fn start_sse(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Writes one SSE frame: `event: <event>` + `data: <data>` + blank line.
/// `data` must be a single line (JSON is).
pub fn sse_event(stream: &mut TcpStream, event: &str, data: &str) -> io::Result<()> {
    stream.write_all(format!("event: {event}\ndata: {data}\n\n").as_bytes())?;
    stream.flush()
}

/// Writes an SSE comment frame — a keep-alive that doubles as disconnect
/// detection while a stream is idle.
pub fn sse_ping(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b": ping\n\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs the parser against raw bytes by pushing them through a real
    /// loopback socket, mirroring production conditions.
    fn parse_bytes(bytes: &[u8], max_body: usize) -> Result<HttpRequest, ParseError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload = bytes.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&payload).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let result = read_request(&mut conn, max_body);
        writer.join().unwrap();
        result
    }

    #[test]
    fn parses_request_line_headers_and_body() {
        let req = parse_bytes(
            b"POST /v1/generate HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"a\": [1,2]}",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/generate");
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.header("CONTENT-TYPE"), Some("application/json"));
        assert_eq!(
            req.body,
            b"{\"a\": [1,2]".to_vec(),
            "body honors content-length"
        );
    }

    #[test]
    fn rejects_oversized_and_malformed_requests() {
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 10),
            Err(ParseError::BodyTooLarge {
                declared: 999,
                limit: 10
            })
        ));
        assert!(matches!(
            parse_bytes(b"GARBAGE\r\n\r\n", 10),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_bytes(b"GET / HTTP/2.0\r\n\r\n", 10),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 10),
            Err(ParseError::Malformed(_))
        ));
    }
}
