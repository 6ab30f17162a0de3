//! The load generator's own HTTP/1.1 client: request bytes out, response
//! bytes in, with timeouts so a stalled daemon fails the run instead of
//! hanging it. Nothing is retried — a refused or broken request counts
//! as failed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long one request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);

/// One parsed reply.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Whether the daemon keeps the connection open.
    pub keep_alive: bool,
    /// Response body.
    pub body: String,
}

/// Opens a connection with the request timeout on reads and writes.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    Ok(stream)
}

/// Renders one request.
pub fn render(method: &str, target: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// A connection plus its read buffer (bytes past one reply stay for the
/// next).
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Dials `addr`.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        Ok(Conn {
            stream: connect(addr)?,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Writes one rendered request and reads its reply.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.stream.write_all(request)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> std::io::Result<Reply> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((reply, used)) = parse_reply(&self.buf)? {
                self.buf.drain(..used);
                return Ok(reply);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-reply",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

/// Parses one complete reply from the front of `buf`: `Ok(None)` while
/// the head or body is still incomplete.
pub fn parse_reply(buf: &[u8]) -> std::io::Result<Option<(Reply, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty head"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad content-length"))?,
                )
            }
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let length = length.ok_or_else(|| bad("reply without content-length"))?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    let body = String::from_utf8(buf[body_start..body_start + length].to_vec())
        .map_err(|_| bad("non-UTF-8 body"))?;
    Ok(Some((
        Reply {
            status,
            keep_alive,
            body,
        },
        body_start + length,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_framed_replies_and_waits_for_partial_ones() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: keep-alive\r\nx-cache: hit\r\n\r\n{}HTTP/1.1";
        let (reply, used) = parse_reply(raw).unwrap().unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, "{}");
        assert!(reply.keep_alive);
        assert_eq!(&raw[used..], b"HTTP/1.1");
        assert!(parse_reply(&raw[..40]).unwrap().is_none());
    }

    #[test]
    fn renders_content_length_and_disposition() {
        let wire = render("POST", "/v1/weave", "abc", false);
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("POST /v1/weave HTTP/1.1\r\n"));
        assert!(text.contains("content-length: 3\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nabc"));
    }
}
