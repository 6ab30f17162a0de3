//! The TCP daemon: a std-only, connection-oriented HTTP/1.1 listener in
//! front of [`crate::service::handle`].
//!
//! Connections are first-class and persistent: each accepted socket
//! becomes a `Conn` with a reusable read/parse buffer and a pending
//! output buffer, served keep-alive until the peer closes, sends
//! `Connection: close`, goes idle past `--idle-timeout`, or errors.
//!
//! One event-loop thread owns the listener and every connection and
//! blocks in `poll(2)` until one of them is ready: the listener (while
//! below `--max-conns`), each connection's input (while it still takes
//! requests) and its output (only while a response is pending). The
//! timeout is the next idle-expiry deadline, capped by a short stop
//! check, so an idle daemon wakes a few times a second and a request is
//! picked up the moment it arrives. The loop serves every ready
//! connection inline: it drains the socket, parses up to
//! `PIPELINE_DEPTH` (32) pipelined requests from the buffer, serves them
//! in order, and writes the responses back in request order — a burst of
//! requests on one warm connection costs one wake-up, no accept, and no
//! per-request allocation beyond the response itself. A connection that
//! hit `PIPELINE_DEPTH` with complete requests still buffered is served
//! again on the next pass without waiting; one holding only part of a
//! request waits for the rest. Parallelism lives inside a request: the
//! engines fan out on the shared `dscweaver_graph` pool, sized by
//! `--threads`. Serving on one thread keeps the set of threads that
//! compile artifacts — and so the malloc arenas that hold them — bounded
//! by the pool size.
//!
//! A request that panics is contained: it is answered `500` with its
//! trace id, counted in `serve.panics`, and only its own connection is
//! closed; every other connection and the loop carry on.
//!
//! When `accept` fails for lack of resources (out of file descriptors,
//! say) the connection stays in the listen backlog and the listener stays
//! readable, so the loop stops watching it until a connection closes or
//! `ACCEPT_RETRY` (100 ms) passes, instead of spinning on it.
//!
//! Per-request observability: `serve.parse`, `serve.lookup` /
//! `serve.compile` (in the registry), `serve.run` and `serve.respond`
//! spans, plus `serve.requests`, `serve.connections`,
//! `serve.conns_reused`, `serve.cache_hits`, `serve.cache_misses`,
//! `serve.canonical_hits`, `serve.evictions` and `serve.panics`
//! counters, the `serve.in_flight` gauge and the `serve.conn.lifetime`
//! histogram.

use crate::http::{parse_buffered, render_response, HttpError, HttpRequest};
use crate::registry::Registry;
use crate::service::{dispatch, handle_admitted, parse, Request, Response};
use crate::trace::TraceConfig;
use dscweaver_obs as obs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most new connections accepted per listener wake-up.
const ACCEPT_BATCH: usize = 64;

/// Most pipelined requests served from one connection per pass of the
/// event loop; further buffered requests wait for the next pass so one
/// flooding client cannot monopolize the loop.
const PIPELINE_DEPTH: usize = 32;

/// Longest the event loop blocks in `poll` before re-checking the stop
/// flag, so [`Server::shutdown`] returns promptly.
const STOP_CHECK: Duration = Duration::from_millis(50);

/// How long the listener goes unwatched after `accept` fails for lack of
/// resources, unless a connection closes first.
const ACCEPT_RETRY: Duration = Duration::from_millis(100);

/// The endpoints behind the observability envelope: [`dispatch`] in the
/// daemon; this module's tests swap in endpoints that panic.
type Handler = fn(&Registry, &Request) -> Response;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (`0` = ephemeral, kernel-assigned).
    pub port: u16,
    /// Threads the engines fan out to inside one request (`0` = auto).
    /// Connections are all served by the one event-loop thread.
    pub threads: usize,
    /// Prepared-artifact cache capacity (canonical entries; LRU beyond
    /// it).
    pub cache_capacity: usize,
    /// Most connections held open concurrently (`--max-conns`); accepts
    /// beyond it wait in the listen backlog.
    pub max_conns: usize,
    /// Close a connection after this many milliseconds without a
    /// complete request (`--idle-timeout`).
    pub idle_timeout_ms: u64,
    /// Largest accepted request body in bytes (`--max-body`); larger
    /// declared bodies are rejected with `413`.
    pub max_body: usize,
    /// Tail sampling: keep the full trace of any request slower than
    /// this many milliseconds (`0` disables the slow criterion).
    pub trace_slow_ms: u64,
    /// Tail sampling: additionally keep every N-th request (`0`
    /// disables the sample grid).
    pub trace_sample: u64,
    /// How many kept request traces `/v1/traces` retains.
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let trace = TraceConfig::daemon_default();
        ServeConfig {
            port: 0,
            threads: 0,
            cache_capacity: 1024,
            max_conns: 1024,
            idle_timeout_ms: 10_000,
            max_body: crate::http::MAX_BODY,
            trace_slow_ms: trace.slow_ns / 1_000_000,
            trace_sample: trace.sample_every,
            trace_capacity: trace.capacity,
        }
    }
}

/// A running daemon: event-loop thread plus shared registry. Dropping the
/// handle without [`Server::shutdown`] leaves the thread running for the
/// process lifetime — call `shutdown` for an orderly stop.
pub struct Server {
    addr: SocketAddr,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:port` and starts the event loop on a background
    /// thread.
    pub fn start(config: &ServeConfig) -> std::io::Result<Server> {
        Server::start_with(config, dispatch)
    }

    fn start_with(config: &ServeConfig, handler: Handler) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // The daemon is a long-running process: turn on the cumulative
        // metrics plane (counters/gauges/histograms, read non-drainingly
        // by `/metrics`) without enabling span recording, whose
        // thread-local buffers would grow unboundedly until drained.
        obs::set_metrics_enabled(true);
        let registry = Arc::new(
            Registry::new(config.cache_capacity, config.threads).with_trace_config(TraceConfig {
                slow_ns: config.trace_slow_ms.saturating_mul(1_000_000),
                sample_every: config.trace_sample,
                capacity: config.trace_capacity,
            }),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let registry = registry.clone();
            let stop = stop.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name("dscw-serve".into())
                .spawn(move || event_loop(listener, registry, stop, config, handler))?
        };
        Ok(Server {
            addr,
            registry,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (`127.0.0.1:<port>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared artifact registry (for stats or in-process requests).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stops the event loop and joins its thread, within about 50 ms
    /// (the loop's stop check). Buffered responses are flushed first;
    /// open connections are then dropped.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One live client connection: nonblocking socket, reusable read/parse
/// buffer, pending (response) output, and bookkeeping for idle pruning
/// and the lifetime/reuse metrics.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    opened: Instant,
    last_active: Instant,
    served: u64,
    close: bool,
    dead: bool,
    /// The last pass stopped at `PIPELINE_DEPTH`: more complete requests
    /// may be buffered, so serve again without waiting for the socket.
    backlog: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        let now = Instant::now();
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            opened: now,
            last_active: now,
            served: 0,
            close: false,
            dead: false,
            backlog: false,
        }
    }

    /// The readiness this connection waits for: input while it still
    /// takes requests (a closing connection's socket would report
    /// end-of-file forever), output only while some is pending.
    fn interest(&self) -> sys::Events {
        let mut events = 0;
        if !self.close {
            events |= sys::POLLIN;
        }
        if !self.out.is_empty() {
            events |= sys::POLLOUT;
        }
        events
    }

    /// When an idle connection expires; `None` while output is pending.
    fn expiry(&self, idle: Duration) -> Option<Instant> {
        self.out.is_empty().then(|| self.last_active + idle)
    }
}

fn event_loop(
    listener: TcpListener,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    config: ServeConfig,
    handler: Handler,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let max_conns = config.max_conns.max(1);
    let idle = Duration::from_millis(config.idle_timeout_ms.max(1));
    // Set while `accept` is failing for lack of resources: until then the
    // listener goes unwatched.
    let mut accept_paused: Option<Instant> = None;
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if accept_paused.is_some_and(|until| now >= until) {
            accept_paused = None;
        }
        let timeout = if conns.iter().any(|c| c.backlog) {
            Duration::ZERO
        } else {
            conns
                .iter()
                .filter_map(|c| c.expiry(idle))
                .chain(accept_paused)
                .min()
                .map_or(STOP_CHECK, |at| {
                    at.saturating_duration_since(now).min(STOP_CHECK)
                })
        };
        fds.clear();
        // Below --max-conns the listener is watched; at the cap, or while
        // accepts are paused, connections wait in the listen backlog.
        let accepting = if conns.len() < max_conns && accept_paused.is_none() {
            sys::POLLIN
        } else {
            0
        };
        fds.push(sys::PollFd::new(listener.as_raw_fd(), accepting));
        fds.extend(
            conns
                .iter()
                .map(|c| sys::PollFd::new(c.stream.as_raw_fd(), c.interest())),
        );
        if sys::wait(&mut fds, timeout).is_err() {
            // EINTR (a signal) or a transient ENOMEM: poll again.
            continue;
        }
        for (conn, fd) in conns.iter_mut().zip(&fds[1..]) {
            if fd.revents != 0 || conn.backlog {
                serve_ready(conn, &registry, &config, handler);
            }
        }
        if fds[0].revents != 0 && accept_batch(&listener, &mut conns, max_conns).is_err() {
            // The failed connection is still queued, so the listener would
            // report ready again at once: look away until a connection
            // closes or the retry deadline passes.
            accept_paused = Some(Instant::now() + ACCEPT_RETRY);
        }
        // Prune: dead sockets, and connections idle past --idle-timeout
        // with nothing left to flush.
        let now = Instant::now();
        let open = conns.len();
        conns.retain(|conn| {
            let expired = conn.expiry(idle).is_some_and(|at| now >= at);
            let gone = conn.dead || expired || (conn.close && conn.out.is_empty());
            if gone {
                obs::histogram("serve.conn.lifetime")
                    .observe(conn.opened.elapsed().as_nanos() as u64);
            }
            !gone
        });
        if conns.len() < open {
            // Closing freed a descriptor: try the backlog again.
            accept_paused = None;
        }
    }
    // Orderly stop: one last flush attempt for buffered responses.
    for conn in &mut conns {
        let _ = conn.stream.write_all(&conn.out);
        obs::histogram("serve.conn.lifetime").observe(conn.opened.elapsed().as_nanos() as u64);
    }
}

/// Admits the connections waiting on the listener, bounded per wake-up
/// and by `max_conns`. They are first served once `poll` reports their
/// input ready. `Err` means `accept` failed for lack of resources (out of
/// file descriptors or memory) and left the connection queued.
fn accept_batch(
    listener: &TcpListener,
    conns: &mut Vec<Conn>,
    max_conns: usize,
) -> std::io::Result<()> {
    let mut accepted = 0usize;
    while conns.len() < max_conns && accepted < ACCEPT_BATCH {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            // The peer gave up before it was accepted, or a signal
            // arrived: go on with the backlog.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        // Responses are written whole; never hold them back for
        // coalescing (Nagle stalls pipelined batches on the peer's
        // delayed ACK).
        let _ = stream.set_nodelay(true);
        obs::counter_add("serve.connections", 1);
        conns.push(Conn::new(stream));
        accepted += 1;
    }
    Ok(())
}

/// One pass over one ready connection: drain the socket into the
/// reusable buffer, serve up to `PIPELINE_DEPTH` buffered requests in
/// order, and flush as much of the output buffer as the socket accepts.
fn serve_ready(conn: &mut Conn, registry: &Registry, config: &ServeConfig, handler: Handler) {
    // Drain the socket. WouldBlock = no more data now; Ok(0) = peer
    // closed its half — serve what is buffered, then close.
    let mut chunk = [0u8; 16 * 1024];
    while !conn.close {
        match conn.stream.read(&mut chunk) {
            Ok(0) => conn.close = true,
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.last_active = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }

    // Serve buffered requests in arrival order, bounded per pass.
    let mut served_now = 0usize;
    while served_now < PIPELINE_DEPTH && !conn.close {
        let parsed = {
            let _span = obs::span("serve.parse");
            parse_buffered(&conn.buf, config.max_body)
        };
        match parsed {
            Ok(None) => break,
            Ok(Some((http, consumed))) => {
                conn.buf.drain(..consumed);
                obs::counter_add("serve.requests", 1);
                if !http.keep_alive {
                    conn.close = true;
                }
                let response = respond(registry, &http, handler).unwrap_or_else(|trace_id| {
                    // The panic is contained to this request: answer it,
                    // then close only this connection.
                    obs::counter_add("serve.panics", 1);
                    conn.close = true;
                    let mut response =
                        Response::error(500, "internal error while serving the request");
                    response.trace_id = trace_id;
                    response
                });
                conn.served += 1;
                if conn.served == 2 {
                    obs::counter_add("serve.conns_reused", 1);
                }
                push_response(conn, &response);
                served_now += 1;
            }
            Err(HttpError { status, message }) => {
                // Malformed framing is connection-fatal: answer, then
                // close (the buffer position is no longer trustworthy).
                conn.close = true;
                push_response(conn, &Response::error(status, &message));
                served_now += 1;
            }
        }
    }
    conn.backlog = served_now == PIPELINE_DEPTH && !conn.close;
    if served_now > 0 {
        conn.last_active = Instant::now();
    }

    // Flush as much output as the socket accepts; leftovers wait for
    // `POLLOUT`.
    while !conn.out.is_empty() {
        match conn.stream.write(&conn.out) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.out.drain(..n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.close && conn.out.is_empty() {
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        conn.dead = true;
    }
}

/// Parses and serves one request with any panic contained. `Err` carries
/// the trace id of the request that panicked.
fn respond(registry: &Registry, http: &HttpRequest, handler: Handler) -> Result<Response, u64> {
    let mut trace_id = None;
    panic::catch_unwind(AssertUnwindSafe(|| match parse(http) {
        Ok(request) => {
            let admitted = registry.tracer().next_id();
            trace_id = Some(admitted.1);
            handle_admitted(registry, &request, admitted, handler)
        }
        Err(HttpError { status, message }) => Response::error(status, &message),
    }))
    .map_err(|_| trace_id.unwrap_or_else(|| registry.tracer().next_id().1))
}

/// Renders `response` (keep-alive unless the connection is closing) onto
/// the connection's output buffer, responses strictly in request order.
fn push_response(conn: &mut Conn, response: &Response) {
    let _span = obs::span("serve.respond");
    let trace_id = format!("{:016x}", response.trace_id);
    let mut headers: Vec<(&str, &str)> = vec![("x-cache", response.cache.as_str())];
    if response.trace_id != 0 {
        headers.push(("x-trace-id", &trace_id));
    }
    let rendered = render_response(
        response.status,
        response.content_type,
        &headers,
        &response.body,
        !conn.close,
    );
    conn.out.extend_from_slice(&rendered);
}

/// The `poll(2)` binding. std links the C library already, so declaring
/// the one function by hand adds no dependency.
mod sys {
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    /// A `pollfd` event mask.
    pub type Events = c_short;
    /// Data may be read without blocking (or the peer closed).
    pub const POLLIN: Events = 0x001;
    /// Data may be written without blocking.
    pub const POLLOUT: Events = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: Events,
        /// What `poll` reported; errors and hang-ups are always reported.
        pub revents: Events,
    }

    impl PollFd {
        pub fn new(fd: c_int, events: Events) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until some entry of `fds` is ready or `timeout` (rounded
    /// up to whole milliseconds) passes, filling in each `revents`.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<usize> {
        let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
        let nfds = Nfds::try_from(fds.len()).expect("one pollfd per open socket fits nfds_t");
        // SAFETY: `fds` is an exclusively borrowed array of `nfds`
        // initialized `PollFd`s, laid out as C's `struct pollfd`
        // (`repr(C)`: int, short, short); `poll` writes only their
        // `revents` fields and keeps no pointer after returning.
        let ready = unsafe { poll(fds.as_mut_ptr(), nfds, ms) };
        usize::try_from(ready).map_err(|_| std::io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::service::handle;
    use std::net::TcpStream;

    const PROC: &str =
        "process P {\n var x;\n sequence { assign a writes x; assign b reads x; }\n}";

    /// The daemon's endpoints, except that every validate request panics.
    fn validate_panics(reg: &Registry, req: &Request) -> Response {
        if matches!(req, Request::Validate { .. }) {
            panic!("injected validate failure");
        }
        dispatch(reg, req)
    }

    /// Arms [`reweave_panics_once`].
    static REWEAVE_ARMED: AtomicBool = AtomicBool::new(false);

    /// The daemon's endpoints, except that the first re-weave after
    /// arming panics while it holds its base's session, as a panic inside
    /// the re-weave engine would.
    fn reweave_panics_once(reg: &Registry, req: &Request) -> Response {
        if let Request::Reweave { base, .. } = req {
            if REWEAVE_ARMED.swap(false, Ordering::Relaxed) {
                let entry = reg.get(*base).expect("the base is cached");
                let _session = entry.lock_session();
                panic!("injected re-weave failure");
            }
        }
        dispatch(reg, req)
    }

    /// Sends one keep-alive request on a raw stream and reads its reply
    /// (status line through the content-length-framed body).
    fn round_trip(stream: &mut TcpStream, target: &str, body: &str) -> String {
        write!(
            stream,
            "POST {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reply = Vec::new();
        let mut byte = [0u8; 1];
        while !reply.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).unwrap();
            reply.push(byte[0]);
        }
        let head = String::from_utf8(reply).unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap()
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
        head + &String::from_utf8(body).unwrap()
    }

    #[test]
    fn a_panicking_request_answers_500_and_spares_the_other_connections() {
        let _serial = obs::test_lock();
        let panics = || {
            obs::metrics_snapshot()
                .counters
                .get("serve.panics")
                .copied()
                .unwrap_or(0)
        };
        let before = panics();
        let server = Server::start_with(
            &ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
            validate_panics,
        )
        .unwrap();
        let mut bystander = TcpStream::connect(server.addr()).unwrap();
        let first = round_trip(&mut bystander, "/v1/weave", PROC);
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");

        let reply = Client::connect(server.addr())
            .post("/v1/validate", PROC)
            .unwrap();
        assert_eq!(reply.status, 500, "{}", reply.body);
        assert!(
            reply.trace_id().is_some_and(|id| id.len() == 16),
            "500 carries the trace id"
        );
        assert!(
            !reply.keep_alive(),
            "the panicking request's connection closes"
        );
        // The id in the reply names a trace that can be looked up.
        let id = reply.trace_id().unwrap().to_string();
        let traces = Client::connect(server.addr()).get("/v1/traces").unwrap();
        assert!(
            traces
                .body
                .contains(&format!("trace_id={id} endpoint=validate status=500")),
            "{id} missing from {}",
            traces.body
        );
        assert_eq!(panics(), before + 1);
        assert_eq!(
            server.registry().stats().in_flight,
            0,
            "in-flight slot released"
        );

        // The loop survived, and so did the other connection.
        let again = round_trip(&mut bystander, "/v1/weave", PROC);
        assert!(again.starts_with("HTTP/1.1 200"), "{again}");
        assert_eq!(
            again.split("\r\n\r\n").nth(1),
            first.split("\r\n\r\n").nth(1)
        );
        server.shutdown();
    }

    #[test]
    fn a_reweave_that_panicked_leaves_its_base_usable() {
        const REVISION: &str = "process P {\n var x;\n sequence { assign a writes x; assign b reads x; assign c reads x; }\n}";
        // Serialized with the other test that counts `serve.panics`.
        let _serial = obs::test_lock();
        let server = Server::start_with(
            &ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
            reweave_panics_once,
        )
        .unwrap();
        let woven = Client::connect(server.addr())
            .post("/v1/weave", PROC)
            .unwrap();
        assert_eq!(woven.status, 200, "{}", woven.body);
        let base = &woven.body.split("\"hash\":\"").nth(1).unwrap()[..16];
        let target = format!("/v1/reweave?base={base}");

        REWEAVE_ARMED.store(true, Ordering::Relaxed);
        let failed = Client::connect(server.addr())
            .post(&target, REVISION)
            .unwrap();
        assert_eq!(failed.status, 500, "{}", failed.body);

        // The poisoned session restarts from the base, so the same
        // re-weave now answers as it would on a fresh registry.
        let again = Client::connect(server.addr())
            .post(&target, REVISION)
            .unwrap();
        assert_eq!(again.status, 200, "{}", again.body);
        let fresh = Registry::new(4, 2);
        let entry = fresh.lookup_or_build(PROC).unwrap().entry;
        let expected = handle(
            &fresh,
            &Request::Reweave {
                text: REVISION.into(),
                base: entry.hash,
            },
        );
        assert_eq!(again.body, expected.body);
        server.shutdown();
    }
}
