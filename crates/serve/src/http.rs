//! A minimal HTTP/1.1 reader/writer, in the spirit of `dscweaver-xml`:
//! just enough of the protocol for the weaver daemon's wire format —
//! request line, headers, `Content-Length` bodies — with no external
//! dependencies.
//!
//! The parser is **incremental**: [`parse_buffered`] inspects a byte
//! buffer and either yields one complete request plus the bytes it
//! consumed, or reports that more input is needed — the shape a
//! keep-alive connection loop wants, where many pipelined requests can
//! sit in one buffer and a request can arrive split across reads. Header
//! names are matched case-insensitively (stored lower-cased), whitespace
//! around values is tolerated, and declared bodies beyond the caller's
//! `max_body` cap are rejected with `413` before any buffering grows to
//! meet them. [`render_response`] is the writing half.

/// Default cap on request body size, in bytes (`--max-body` overrides at
/// the daemon). Oversized requests are rejected with `413 Payload Too
/// Large` as soon as their `Content-Length` is seen.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// Largest request head (request line + headers) the parser accepts.
/// A buffer this large with no blank-line terminator is a `431`.
pub const MAX_HEAD: usize = 64 * 1024;

/// A parsed HTTP request: method, split target, headers, body and the
/// connection's keep-alive disposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the request target, before any `?`.
    pub path: String,
    /// Decoded query parameters in order of appearance. Splitting is
    /// plain `&`/`=` — the daemon's parameter values (`g=T` branch picks,
    /// hexadecimal hashes) never need percent-encoding.
    pub query: Vec<(String, String)>,
    /// Header name/value pairs, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw request body (`Content-Length` bytes).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to `true`, HTTP/1.0 to `false`, and a
    /// `Connection: close` / `Connection: keep-alive` header overrides
    /// either way.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First header value with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All query values for the given key, in order.
    pub fn query_all(&self, key: &str) -> Vec<&str> {
        self.query
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// First query value for the given key.
    pub fn query_first(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// What went wrong while reading a request. Carries the HTTP status the
/// daemon should answer with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpError {
    /// Response status code (400, 413, ...).
    pub status: u16,
    /// Human-readable reason, sent in the error body.
    pub message: String,
}

impl HttpError {
    fn bad(message: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// Tries to parse one complete request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a full head and body are
/// present — the caller drains `consumed` bytes and may call again on the
/// remainder (pipelining). Returns `Ok(None)` when the buffer holds only
/// a prefix of a request (read more). Returns `Err` on malformed input,
/// a head larger than [`MAX_HEAD`] (431) or a declared body larger than
/// `max_body` (413) — connection-fatal conditions.
///
/// Stray leading CRLFs (as HTTP/1.1 permits between pipelined requests)
/// are skipped and counted into `consumed`.
///
/// ```
/// use dscweaver_serve::http::parse_buffered;
/// let raw = b"POST /v1/weave?x=1 HTTP/1.1\r\ncontent-length: 2\r\n\r\nhiGET /healthz HTTP/1.1\r\n";
/// let (req, used) = parse_buffered(raw, 1024).unwrap().unwrap();
/// assert_eq!(req.method, "POST");
/// assert_eq!(req.path, "/v1/weave");
/// assert_eq!(req.query_first("x"), Some("1"));
/// assert_eq!(req.body, b"hi");
/// assert!(req.keep_alive);
/// // The second (incomplete) request stays in the buffer.
/// assert_eq!(&raw[used..], b"GET /healthz HTTP/1.1\r\n");
/// assert_eq!(parse_buffered(&raw[used..], 1024).unwrap(), None);
/// ```
pub fn parse_buffered(
    buf: &[u8],
    max_body: usize,
) -> Result<Option<(HttpRequest, usize)>, HttpError> {
    // Skip blank lines between pipelined requests.
    let mut start = 0;
    while buf[start..].starts_with(b"\r\n") {
        start += 2;
    }
    let buf_at = &buf[start..];
    let Some(head_len) = find_head_end(buf_at) else {
        if buf_at.len() > MAX_HEAD {
            return Err(HttpError {
                status: 431,
                message: format!("request head exceeds the {MAX_HEAD}-byte cap"),
            });
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf_at[..head_len])
        .map_err(|_| HttpError::bad("request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::bad("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing request target"))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.clone(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for hl in lines {
        if hl.is_empty() {
            continue;
        }
        let Some((name, value)) = hl.split_once(':') else {
            return Err(HttpError::bad(format!("malformed header '{hl}'")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::bad("bad content-length"))?;
        }
        headers.push((name, value));
    }
    if content_length > max_body {
        return Err(HttpError {
            status: 413,
            message: format!("body of {content_length} bytes exceeds the {max_body}-byte cap"),
        });
    }
    let body_start = head_len + 4;
    if buf_at.len() < body_start + content_length {
        return Ok(None);
    }
    let body = buf_at[body_start..body_start + content_length].to_vec();

    // Keep-alive disposition: HTTP/1.1 defaults open, 1.0 defaults
    // closed, an explicit Connection token overrides either.
    let mut keep_alive = version != "HTTP/1.0";
    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    if let Some(tokens) = connection {
        if tokens.split(',').any(|t| t.trim() == "close") {
            keep_alive = false;
        } else if tokens.split(',').any(|t| t.trim() == "keep-alive") {
            keep_alive = true;
        }
    }

    Ok(Some((
        HttpRequest {
            method,
            path,
            query,
            headers,
            body,
            keep_alive,
        },
        start + body_start + content_length,
    )))
}

/// Position of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The standard reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    }
}

/// Renders one HTTP/1.1 response (status line, `content-type`,
/// `content-length`, a `connection: keep-alive`/`close` disposition, the
/// extra headers, then the body) into bytes, ready for a single write.
pub fn render_response(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (n, v) in extra_headers {
        out.push_str(n);
        out.push_str(": ");
        out.push_str(v);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(raw: &[u8]) -> Result<HttpRequest, HttpError> {
        let (req, used) = parse_buffered(raw, MAX_BODY)?.expect("a complete request");
        assert_eq!(used, raw.len());
        Ok(req)
    }

    #[test]
    fn parses_request_with_query_and_body() {
        let raw =
            b"POST /v1/simulate?branch=g:T&branch=h:F HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = parse_one(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/simulate");
        assert_eq!(req.query_all("branch"), vec!["g:T", "h:F"]);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive);
    }

    #[test]
    fn header_names_are_case_insensitive_and_values_tolerate_whitespace() {
        let raw = b"POST / HTTP/1.1\r\nCONTENT-length :  3 \r\nX-Thing:  v  \r\n\r\nabc";
        let req = parse_one(raw).unwrap();
        assert_eq!(req.body, b"abc");
        assert_eq!(req.header("x-thing"), Some("v"));
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let parse = |raw: &[u8]| parse_buffered(raw, MAX_BODY).unwrap().unwrap().0;
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n").keep_alive);
        assert!(!parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive);
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
        assert!(parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").keep_alive);
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: close, upgrade\r\n\r\n").keep_alive);
    }

    #[test]
    fn buffered_parse_is_incremental_and_pipelined() {
        let full = b"POST /a HTTP/1.1\r\ncontent-length: 2\r\n\r\nxyGET /b HTTP/1.1\r\n\r\n";
        // Every strict prefix of the first request parses to "need more".
        let first_len = b"POST /a HTTP/1.1\r\ncontent-length: 2\r\n\r\nxy".len();
        for cut in 0..first_len {
            assert_eq!(
                parse_buffered(&full[..cut], MAX_BODY).unwrap(),
                None,
                "cut at {cut}"
            );
        }
        let (first, used) = parse_buffered(full, MAX_BODY).unwrap().unwrap();
        assert_eq!((first.path.as_str(), first.body.as_slice()), ("/a", &b"xy"[..]));
        let (second, used2) = parse_buffered(&full[used..], MAX_BODY).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(used + used2, full.len());
    }

    #[test]
    fn stray_leading_crlfs_are_skipped() {
        let raw = b"\r\n\r\nGET /x HTTP/1.1\r\n\r\n";
        let (req, used) = parse_buffered(raw, MAX_BODY).unwrap().unwrap();
        assert_eq!(req.path, "/x");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn rejects_oversized_and_malformed() {
        let raw = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        let err = parse_one(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status, 413);
        // The cap is the caller's: a tiny max_body rejects small bodies.
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\n";
        assert_eq!(parse_buffered(raw, 4).unwrap_err().status, 413);
        let raw = b"POST / HTTP/1.1\r\nnocolon\r\n\r\n";
        assert_eq!(parse_one(raw).unwrap_err().status, 400);
        // A huge head with no terminator is fatal, not "need more".
        let huge = vec![b'a'; MAX_HEAD + 8];
        assert_eq!(parse_buffered(&huge, MAX_BODY).unwrap_err().status, 431);
    }

    #[test]
    fn response_round_trips() {
        let buf = render_response(200, "application/json", &[("x-cache", "hit")], "{}", false);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("x-cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let kept = render_response(200, "application/json", &[], "{}", true);
        assert!(String::from_utf8(kept).unwrap().contains("connection: keep-alive\r\n"));
        assert_eq!(reason(429), "Too Many Requests");
    }
}
