//! The benchmark's side of the socket: one keep-alive HTTP/1.1 connection
//! that sends request bytes rendered beforehand and reads one reply.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A reply that takes longer than this is a failed request.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Renders a whole request, head and body, to the bytes that go on the wire.
pub fn render_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: diagnet\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One connection. After an error the next request reconnects.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(128 * 1024),
        }
    }

    /// Sends `request` and reads the reply: its status and its body, which
    /// stays valid until the next call.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        let result = self.exchange(request);
        if result.is_err() {
            self.stream = None;
        }
        let (status, body_start) = result?;
        Ok((status, &self.buf[body_start..]))
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, usize)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(TIMEOUT))?;
            stream.set_write_timeout(Some(TIMEOUT))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(request)?;

        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the reply head ended",
                ));
            }
            // The terminator may straddle two reads.
            let from = self.buf.len().saturating_sub(3);
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(at) = find(&self.buf[from..], b"\r\n\r\n") {
                break from + at + 4;
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply head is not UTF-8"))?;
        let (status, length, close) = parse_head(head)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed reply head"))?;

        let total = head_end + length;
        let mut filled = self.buf.len();
        if filled > total {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "reply longer than its Content-Length",
            ));
        }
        self.buf.resize(total, 0);
        while filled < total {
            let n = stream.read(&mut self.buf[filled..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside the reply body",
                ));
            }
            filled += n;
        }
        if close {
            self.stream = None;
        }
        Ok((status, head_end))
    }
}

/// One `GET` on a connection of its own, so that no idle connection holds a
/// worker of the server meanwhile.
pub fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    match Conn::new(addr).roundtrip(&render_request("GET", path, "")) {
        Ok((200, body)) => Ok(String::from_utf8_lossy(body).into_owned()),
        Ok((status, _)) => Err(format!("GET {path} answered {status}")),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Status, `Content-Length` and whether the server closes the connection.
fn parse_head(head: &str) -> Option<(u16, usize, bool)> {
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut length = 0;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok()?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    Some((status, length, close))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_heads_are_parsed() {
        let head = "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
                    Content-Length: 27\r\nConnection: close\r\n\r\n";
        assert_eq!(parse_head(head), Some((400, 27, true)));
        let head = "HTTP/1.1 200 OK\r\ncontent-length: 0\r\nConnection: keep-alive\r\n\r\n";
        assert_eq!(parse_head(head), Some((200, 0, false)));
        assert_eq!(parse_head("garbage\r\n\r\n"), None);
    }

    #[test]
    fn requests_carry_their_length() {
        let bytes = render_request("POST", "/v1/submit", "{\"a\":1}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /v1/submit HTTP/1.1\r\n"));
        assert!(text.ends_with("Content-Length: 7\r\n\r\n{\"a\":1}"));
    }
}
