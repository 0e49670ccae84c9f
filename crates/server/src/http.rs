//! Minimal HTTP/1.1 framing over `std::net` — just enough protocol for a
//! loopback job API: request-line + headers + `Content-Length` body in,
//! one `Connection: close` response out. No keep-alive, no chunked
//! encoding, no TLS; tenants that need more put a real proxy in front.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on accepted request bodies (a job spec is ~200 bytes; a
/// multi-megabyte body is a client bug or abuse, not a bigger job).
const MAX_BODY: usize = 1 << 20;

/// Upper bound on the request line and on each header line, CRLF included.
const MAX_LINE: usize = 8 * 1024;

/// Upper bound on the number of header lines.
const MAX_HEADERS: usize = 64;

/// The request line, a header line or the header count is over its cap
/// (answered with 431).
#[derive(Debug)]
pub struct HeaderTooLarge;

impl std::fmt::Display for HeaderTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request header fields too large (lines <= {MAX_LINE} bytes, <= {MAX_HEADERS} headers)"
        )
    }
}

impl std::error::Error for HeaderTooLarge {}

impl HeaderTooLarge {
    /// Whether `e` is this error.
    pub fn is(e: &io::Error) -> bool {
        e.get_ref()
            .is_some_and(|inner| inner.is::<HeaderTooLarge>())
    }
}

fn too_large() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, HeaderTooLarge)
}

/// Append one line of at most [`MAX_LINE`] bytes to `line`, reading no
/// further than the cap. Returns the bytes read (0 at end of stream).
fn read_line_capped(reader: &mut impl BufRead, line: &mut String) -> io::Result<usize> {
    let n = reader.take(MAX_LINE as u64).read_line(line)?;
    if n == MAX_LINE && !line.ends_with('\n') {
        return Err(too_large());
    }
    Ok(n)
}

/// A parsed request.
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Raw query string after `?` (empty when none was sent).
    pub query: String,
    /// Decoded body (empty when no `Content-Length` was sent).
    pub body: String,
}

impl Request {
    /// The value of query parameter `key`, if present (`?a=1&b=2` style;
    /// no percent-decoding — values here are metric prefixes and small
    /// integers, never arbitrary text).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Read one request off `stream`.
pub fn read_request(stream: &TcpStream) -> io::Result<Request> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    read_line_capped(&mut reader, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts.next().ok_or_else(|| bad("missing request target"))?;
    let method = method.to_ascii_uppercase();
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    let path = path.to_string();
    let query = query.to_string();

    let mut content_length = 0usize;
    for n_headers in 0.. {
        let mut header = String::new();
        if read_line_capped(&mut reader, &mut header)? == 0 {
            return Err(bad("connection closed inside headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if n_headers == MAX_HEADERS {
            return Err(too_large());
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not utf-8"))?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Write a complete JSON response and flush.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Start a streaming NDJSON response: status line + headers, no
/// `Content-Length` — the body is delimited by connection close (we never
/// send keep-alive, so every client already reads to EOF). The caller
/// writes one JSON line per interval and flushes after each.
pub fn write_stream_head(stream: &mut TcpStream) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

/// One-line JSON error payload.
pub fn error_body(msg: &str) -> String {
    format!("{{\"error\": \"{}\"}}\n", mpas_telemetry::json_escape(msg))
}

/// Blocking one-shot client: send `method path` with a JSON `body` to
/// `addr`, return `(status, body)`. The counterpart of [`read_request`] /
/// [`write_response`], used by the load generator and the tests.
pub fn request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    Ok((status, body.to_string()))
}

/// Blocking streaming client: `GET path` against `addr` and read body
/// lines as they arrive, up to `max_lines` (0 = until the server closes).
/// Returns the non-empty body lines; errors if the response is not a 200.
/// The counterpart of [`write_stream_head`], used by `swe_load`'s stream
/// observer and the live-telemetry tests.
pub fn stream_lines(
    addr: std::net::SocketAddr,
    path: &str,
    max_lines: usize,
) -> io::Result<Vec<String>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    if status != 200 {
        return Err(bad(&format!("stream request returned {status}")));
    }
    // Skip headers.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed inside headers"));
        }
        if header.trim_end().is_empty() {
            break;
        }
    }
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break; // server closed the stream
        }
        let line = line.trim_end();
        if !line.is_empty() {
            lines.push(line.to_string());
        }
        if max_lines > 0 && lines.len() >= max_lines {
            break;
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &str) -> io::Result<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (server, _) = listener.accept().unwrap();
        let req = read_request(&server);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            round_trip("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"level\":3}")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "{\"level\":3}");
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.query.is_empty());
        assert!(req.body.is_empty());
    }

    #[test]
    fn splits_and_parses_query_strings() {
        let req =
            round_trip("GET /metrics?prefix=server.&interval_ms=50 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query_param("prefix"), Some("server."));
        assert_eq!(req.query_param("interval_ms"), Some("50"));
        assert_eq!(req.query_param("count"), None);
    }

    #[test]
    fn caps_header_lines_without_buffering_past_the_cap() {
        // A 1 MiB line with no newline: an error after reading at most
        // MAX_LINE bytes of it.
        let raw = vec![b'a'; 1 << 20];
        let mut rest = &raw[..];
        let mut line = String::new();
        let err = read_line_capped(&mut rest, &mut line).unwrap_err();
        assert!(HeaderTooLarge::is(&err), "{err}");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(line.len() <= MAX_LINE);
        assert!(raw.len() - rest.len() <= MAX_LINE);

        // Over the socket: as a request line and as a header line (short
        // enough for the socket buffers to hold what the server leaves
        // unread).
        let long = "a".repeat(8 * MAX_LINE);
        for raw in [
            format!("GET /{long} HTTP/1.1\r\n\r\n"),
            format!("GET / HTTP/1.1\r\nX-Long: {long}\r\n\r\n"),
        ] {
            let err = round_trip(&raw).map(|_| ()).unwrap_err();
            assert!(HeaderTooLarge::is(&err), "{err}");
        }
    }

    #[test]
    fn caps_the_header_count() {
        let headers = |n: usize| "X-H: 1\r\n".repeat(n);
        let ok = format!("GET / HTTP/1.1\r\n{}\r\n", headers(MAX_HEADERS));
        assert!(round_trip(&ok).is_ok());
        let over = format!("GET / HTTP/1.1\r\n{}\r\n", headers(MAX_HEADERS + 1));
        let err = round_trip(&over).map(|_| ()).unwrap_err();
        assert!(HeaderTooLarge::is(&err), "{err}");
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(round_trip(&raw).is_err());
    }
}
