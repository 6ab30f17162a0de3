//! A tiny blocking HTTP client for the daemon — used by the equivalence
//! tests, the bench suite and the `SERVING.md` examples.
//!
//! [`Client`] holds one keep-alive connection and reuses it across
//! requests by default ([`Client::no_keepalive`] is the
//! one-request-per-connection mode); [`Client::pipeline`] writes a whole
//! batch of requests before reading the replies back in order. The free
//! functions [`request`]/[`post`]/[`get`] are one-shot: a
//! [`Client::no_keepalive`] client used once. Every reply is read by its
//! `Content-Length` framing, whichever mode sent the request.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A daemon reply as seen on the wire.
#[derive(Clone, Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl Reply {
    /// First header value with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The daemon's `X-Cache` disposition (`hit` / `canonical` / `miss`
    /// / `none`).
    pub fn cache(&self) -> &str {
        self.header("x-cache").unwrap_or("none")
    }

    /// The daemon's `X-Trace-Id` header, if the request was traced (16
    /// hex digits; absent on transport-level errors).
    pub fn trace_id(&self) -> Option<&str> {
        self.header("x-trace-id")
    }

    /// Whether the daemon kept the connection open after this reply.
    pub fn keep_alive(&self) -> bool {
        self.header("connection") == Some("keep-alive")
    }
}

/// One daemon request for [`Client::pipeline`]: method, target (path +
/// query) and body.
#[derive(Clone, Debug)]
pub struct PipelinedRequest {
    /// Request method (`GET`, `POST`).
    pub method: String,
    /// Path plus any query string.
    pub target: String,
    /// Request body.
    pub body: String,
}

impl PipelinedRequest {
    /// A `POST` request.
    pub fn post(target: impl Into<String>, body: impl Into<String>) -> PipelinedRequest {
        PipelinedRequest {
            method: "POST".into(),
            target: target.into(),
            body: body.into(),
        }
    }

    /// A `GET` request.
    pub fn get(target: impl Into<String>) -> PipelinedRequest {
        PipelinedRequest {
            method: "GET".into(),
            target: target.into(),
            body: String::new(),
        }
    }
}

/// A daemon client holding (at most) one persistent connection.
///
/// Requests reuse the connection while the daemon keeps it open; a stale
/// connection (closed by the daemon's idle timeout between requests) is
/// transparently re-dialed once. With [`Client::no_keepalive`], every
/// request sends `Connection: close` on a fresh connection — the
/// pre-keep-alive behavior, kept for baseline measurements.
pub struct Client {
    addr: SocketAddr,
    keepalive: bool,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    /// A keep-alive client for the daemon at `addr`. No connection is
    /// dialed until the first request.
    pub fn connect(addr: SocketAddr) -> Client {
        Client {
            addr,
            keepalive: true,
            stream: None,
            buf: Vec::new(),
        }
    }

    /// Switches to one-request-per-connection (`Connection: close`)
    /// mode.
    pub fn no_keepalive(mut self) -> Client {
        self.keepalive = false;
        self.stream = None;
        self
    }

    /// Sends one request and reads its reply. On a keep-alive client the
    /// connection is reused; if the daemon closed it in the meantime the
    /// request is retried once on a fresh connection. Without keep-alive
    /// every request sends `Connection: close` on a fresh connection.
    pub fn request(&mut self, method: &str, target: &str, body: &str) -> std::io::Result<Reply> {
        if !self.keepalive {
            self.stream = None;
        }
        let fresh = self.stream.is_none();
        match self.try_request(method, target, body) {
            Ok(reply) => Ok(reply),
            Err(e) if !fresh => {
                // The daemon may have closed the idle connection between
                // requests; one retry on a fresh dial.
                let _ = e;
                self.stream = None;
                self.try_request(method, target, body)
            }
            Err(e) => Err(e),
        }
    }

    /// `POST` convenience.
    pub fn post(&mut self, target: &str, body: &str) -> std::io::Result<Reply> {
        self.request("POST", target, body)
    }

    /// `GET` convenience.
    pub fn get(&mut self, target: &str) -> std::io::Result<Reply> {
        self.request("GET", target, "")
    }

    /// Pipelines a batch: writes every request back-to-back on the one
    /// connection, then reads the replies, which the daemon returns in
    /// request order. Requires keep-alive mode.
    pub fn pipeline(&mut self, requests: &[PipelinedRequest]) -> std::io::Result<Vec<Reply>> {
        if !self.keepalive {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "pipelining needs a keep-alive client",
            ));
        }
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        self.ensure_stream()?;
        let stream = self.stream.as_mut().expect("ensured above");
        let mut wire = Vec::new();
        for r in requests {
            render_request(&mut wire, &r.method, &r.target, self.addr, &r.body, true);
        }
        stream.write_all(&wire)?;
        stream.flush()?;
        let mut replies = Vec::with_capacity(requests.len());
        for _ in requests {
            replies.push(self.read_reply()?);
        }
        Ok(replies)
    }

    fn ensure_stream(&mut self) -> std::io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            // A pipelined batch spans several TCP segments; without
            // nodelay the tail segment waits on the server's delayed ACK.
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
            self.buf.clear();
        }
        Ok(())
    }

    fn try_request(&mut self, method: &str, target: &str, body: &str) -> std::io::Result<Reply> {
        self.ensure_stream()?;
        let stream = self.stream.as_mut().expect("ensured above");
        let mut wire = Vec::new();
        render_request(&mut wire, method, target, self.addr, body, self.keepalive);
        stream.write_all(&wire)?;
        stream.flush()?;
        self.read_reply()
    }

    /// Reads one content-length-framed reply off the connection
    /// (leftover buffered bytes belong to the next reply).
    fn read_reply(&mut self) -> std::io::Result<Reply> {
        let malformed = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed reply");
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((reply, consumed)) = parse_reply_framed(&self.buf) {
                self.buf.drain(..consumed);
                if !reply.keep_alive() {
                    self.stream = None;
                }
                return Ok(reply);
            }
            let stream = self.stream.as_mut().ok_or_else(malformed)?;
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                self.stream = None;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-reply",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn render_request(
    out: &mut Vec<u8>,
    method: &str,
    target: &str,
    addr: SocketAddr,
    body: &str,
    keep_alive: bool,
) {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
}

/// Sends one `Connection: close` request on a fresh connection and reads
/// its reply. `target` is the path plus any query string (e.g.
/// `/v1/simulate?branch=g:T`).
pub fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> std::io::Result<Reply> {
    Client::connect(addr)
        .no_keepalive()
        .request(method, target, body)
}

/// One-shot `POST` convenience (`Connection: close`).
pub fn post(addr: SocketAddr, target: &str, body: &str) -> std::io::Result<Reply> {
    request(addr, "POST", target, body)
}

/// One-shot `GET` convenience (`Connection: close`).
pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<Reply> {
    request(addr, "GET", target, "")
}

/// Parses one complete `Content-Length`-framed reply from the front of
/// `buf`, returning it and the bytes consumed. On a keep-alive connection
/// the next reply follows in the same buffer.
fn parse_reply_framed(buf: &[u8]) -> Option<(Reply, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.lines();
    let status: u16 = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return None;
    }
    let body = String::from_utf8(buf[body_start..body_start + length].to_vec()).ok()?;
    Some((
        Reply {
            status,
            headers,
            body,
        },
        body_start + length,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_reply() {
        let raw = b"HTTP/1.1 200 OK\r\nX-Cache: hit\r\ncontent-length: 2\r\n\r\n{}";
        let (reply, used) = parse_reply_framed(raw).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.cache(), "hit");
        assert_eq!(reply.body, "{}");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn one_shot_get_to_a_closed_port_is_an_error() {
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        // The listener is dropped: nothing accepts on `addr` any more.
        assert!(get(addr, "/healthz").is_err());
    }

    #[test]
    fn one_shot_reply_parses_under_connection_close() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") {
                stream.read_exact(&mut byte).unwrap();
                head.push(byte[0]);
            }
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\nx-cache: hit\r\n\r\n{}")
                .unwrap();
            String::from_utf8(head).unwrap()
        });
        let reply = get(addr, "/healthz").unwrap();
        let head = peer.join().unwrap();
        assert!(head.starts_with("GET /healthz HTTP/1.1\r\n"));
        assert!(head.contains("connection: close\r\n"));
        assert_eq!(reply.status, 200);
        assert_eq!(reply.cache(), "hit");
        assert_eq!(reply.body, "{}");
        assert!(!reply.keep_alive());
    }

    #[test]
    fn framed_parse_splits_back_to_back_replies() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\n{}HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\n\r\n";
        let (first, used) = parse_reply_framed(raw).unwrap();
        assert_eq!(first.status, 200);
        assert!(first.keep_alive());
        let (second, used2) = parse_reply_framed(&raw[used..]).unwrap();
        assert_eq!(second.status, 429);
        assert!(!second.keep_alive());
        assert_eq!(used + used2, raw.len());
        // A prefix is "not yet".
        assert!(parse_reply_framed(&raw[..used - 1]).is_none());
    }
}
