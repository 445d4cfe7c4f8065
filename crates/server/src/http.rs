//! Minimal HTTP/1.1 request reader and response writer.
//!
//! Only what the serving edge needs: request line + headers + an optional
//! `Content-Length` body, keep-alive semantics, and hard caps on header and
//! body sizes so a misbehaving client cannot balloon memory. Chunked
//! transfer encoding is deliberately unsupported: a request that carries
//! `Transfer-Encoding`, or two `Content-Length` headers that disagree, is
//! refused with 400 rather than framed by a guess, and a `POST` with neither
//! gets 411. Load generators and Prometheus scrapers speak plain
//! `Content-Length` requests.

use std::io::{BufRead, Read, Write};

/// Cap on the request line plus all headers combined.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Method verb, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Path with any `?query` stripped.
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this exchange.
    pub close: bool,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadError {
    /// Clean EOF before any bytes: the peer closed an idle keep-alive
    /// connection. Not an error worth a response.
    Closed,
    /// Socket error mid-request.
    Io(String),
    /// The whole-request read deadline expired (slow or trickling client)
    /// → 408 when the request had started, silent close when idle.
    TimedOut,
    /// Request line / header syntax problems → 400.
    Malformed(&'static str),
    /// `POST` without a `Content-Length` → 411.
    LengthRequired,
    /// Declared body larger than the configured cap → 413.
    TooLarge,
}

/// Read one request from a buffered stream.
///
/// `max_body` bounds the accepted `Content-Length`. Returns
/// [`ReadError::Closed`] on immediate EOF so the keep-alive loop can exit
/// silently.
pub fn read_request(stream: &mut impl BufRead, max_body: usize) -> Result<Request, ReadError> {
    let mut head_bytes = 0usize;
    let start = read_line(stream, &mut head_bytes)?;
    if start.is_empty() {
        return Err(ReadError::Closed);
    }
    let mut parts = start.split_whitespace();
    let method = parts
        .next()
        .ok_or(ReadError::Malformed("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(ReadError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(ReadError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed("unsupported HTTP version"));
    }
    // HTTP/1.0 defaults to close, 1.1 to keep-alive.
    let mut close = version == "HTTP/1.0";
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    loop {
        let line = read_line(stream, &mut head_bytes)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ReadError::Malformed("header line without `:`"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "connection" {
            let v = value.to_ascii_lowercase();
            if v.contains("close") {
                close = true;
            } else if v.contains("keep-alive") {
                close = false;
            }
        }
        headers.push((name, value));
    }

    // The body is framed by one `Content-Length` and nothing else: a second
    // framing the edge would ignore is how a request gets smuggled past a
    // proxy that honours the other one.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(ReadError::Malformed("Transfer-Encoding is not supported"));
    }
    let mut lengths = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str());
    let declared = lengths.next();
    if lengths.any(|other| Some(other) != declared) {
        return Err(ReadError::Malformed("conflicting Content-Length headers"));
    }
    let content_length = declared
        .map(str::parse::<usize>)
        .transpose()
        .map_err(|_| ReadError::Malformed("unparseable Content-Length"))?;

    let body = match content_length {
        Some(n) if n > max_body => return Err(ReadError::TooLarge),
        Some(n) => {
            let mut buf = vec![0u8; n];
            std::io::Read::read_exact(stream, &mut buf).map_err(io_read_error)?;
            buf
        }
        None if method == "POST" || method == "PUT" => return Err(ReadError::LengthRequired),
        None => Vec::new(),
    };

    Ok(Request {
        method,
        path,
        headers,
        body,
        close,
    })
}

/// Classify a read failure: timeout-shaped errors (including `WouldBlock`,
/// which non-blocking-capable platforms report for an expired socket
/// timeout) become [`ReadError::TimedOut`] so the connection loop can
/// answer 408 instead of hanging up silently.
fn io_read_error(e: std::io::Error) -> ReadError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => ReadError::TimedOut,
        _ => ReadError::Io(e.to_string()),
    }
}

/// Read one CRLF-terminated line, enforcing the head-size cap: at most one
/// byte past what is left of the cap is ever buffered, however long the
/// client keeps sending without a newline.
fn read_line(stream: &mut impl BufRead, head_bytes: &mut usize) -> Result<String, ReadError> {
    let budget = MAX_HEAD_BYTES.saturating_sub(*head_bytes) + 1;
    let mut raw = Vec::new();
    let n = stream
        .by_ref()
        .take(budget as u64)
        .read_until(b'\n', &mut raw)
        .map_err(io_read_error)?;
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(ReadError::Malformed("request head too large"));
    }
    while matches!(raw.last(), Some(b'\n' | b'\r')) {
        raw.pop();
    }
    String::from_utf8(raw).map_err(|_| ReadError::Malformed("non-UTF-8 in request head"))
}

/// A response ready to serialise.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Whether to close the connection after writing.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, content_type: &'static str, body: String) -> Response {
        Response {
            status,
            content_type,
            body: body.into_bytes(),
            close: false,
        }
    }

    /// Serialise status line, headers and body to the stream.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let connection = if self.close { "close" } else { "keep-alive" };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            connection,
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Canonical reason phrase for the status codes the edge emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_get_with_headers_and_query() {
        let req = read("GET /healthz?verbose=1 HTTP/1.1\r\nHost: x\r\nX-Ab: c d\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("x-ab"), Some("c d"));
        assert!(!req.close);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = read("POST /v1/submit HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn post_without_length_is_411() {
        assert_eq!(
            read("POST /v1/submit HTTP/1.1\r\n\r\n").unwrap_err(),
            ReadError::LengthRequired
        );
    }

    #[test]
    fn oversized_body_is_413() {
        let err = read("POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert_eq!(err, ReadError::TooLarge);
    }

    #[test]
    fn connection_semantics() {
        assert!(read("GET / HTTP/1.0\r\n\r\n").unwrap().close);
        assert!(
            !read("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap()
                .close
        );
        assert!(
            read("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .close
        );
    }

    #[test]
    fn eof_on_idle_connection_is_closed() {
        assert_eq!(read("").unwrap_err(), ReadError::Closed);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(matches!(
            read("GARBAGE\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            read("GET / SPDY/3\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            read("GET / HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        let huge = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(20_000));
        assert!(matches!(read(&huge), Err(ReadError::Malformed(_))));
    }

    /// A client that never sends a newline costs the cap, not the deadline.
    #[test]
    fn newline_free_head_is_cut_off_at_the_cap() {
        /// Counts what the parser takes out of the stream.
        struct Counting<'a> {
            inner: &'a [u8],
            consumed: usize,
        }
        impl std::io::Read for Counting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.inner.read(buf)?;
                self.consumed += n;
                Ok(n)
            }
        }
        impl BufRead for Counting<'_> {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                Ok(self.inner)
            }
            fn consume(&mut self, n: usize) {
                self.consumed += n;
                self.inner.consume(n);
            }
        }
        let start = "GET / HTTP/1.1\r\nX: ";
        let raw = format!("{start}{}", "a".repeat(1 << 20));
        let mut stream = Counting {
            inner: raw.as_bytes(),
            consumed: 0,
        };
        assert_eq!(
            read_request(&mut stream, 1024).unwrap_err(),
            ReadError::Malformed("request head too large")
        );
        assert!(
            stream.consumed <= MAX_HEAD_BYTES + 1,
            "{} bytes taken off the wire",
            stream.consumed
        );
        // A head of exactly the cap still parses.
        let padding = MAX_HEAD_BYTES - start.len() - "\r\n\r\n".len();
        let at_cap = format!("{start}{}\r\n\r\n", "a".repeat(padding));
        assert_eq!(at_cap.len(), MAX_HEAD_BYTES);
        assert!(read(&at_cap).is_ok());
        assert!(read(&at_cap.replacen("X: ", "X: a", 1)).is_err());
    }

    #[test]
    fn ambiguous_body_framing_is_rejected() {
        for smuggle in [
            "POST /v1/submit HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}",
            "POST /v1/submit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            "POST /v1/submit HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\n{}{}",
        ] {
            assert!(
                matches!(read(smuggle), Err(ReadError::Malformed(_))),
                "{smuggle:?}"
            );
        }
        // The same length stated twice is merely redundant.
        let twice = "POST /v1/submit HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(read(twice).unwrap().body, b"{}");
    }

    #[test]
    fn timeout_shaped_io_errors_become_timed_out() {
        struct Stall;
        impl std::io::Read for Stall {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "stall"))
            }
        }
        let err = read_request(&mut BufReader::new(Stall), 1024).unwrap_err();
        assert_eq!(err, ReadError::TimedOut);
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{}".to_string())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
