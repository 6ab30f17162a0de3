//! Out of file descriptors: when `accept` fails with `EMFILE` the
//! connection stays in the listen backlog and the listener stays
//! readable. The event loop must stop watching it rather than spin, and
//! must accept the queued connection once a descriptor frees up. A file
//! of its own: it lowers this process's descriptor limit, and no other
//! test's threads may use CPU during the measurement.

#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use dscweaver_serve::server::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::raw::c_int;
use std::time::Duration;

const RLIMIT_NOFILE: c_int = 7;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const EMFILE: i32 = 24;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Sets this process's soft descriptor limit; returns the previous one.
fn set_soft_fd_limit(cur: u64) -> u64 {
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a valid `struct rlimit` (two 64-bit `rlim_t`s
    // on this target) that the calls read or fill in.
    unsafe {
        assert_eq!(getrlimit(RLIMIT_NOFILE, &mut limit), 0);
        let previous = limit.cur;
        limit.cur = cur.min(limit.max);
        assert_eq!(setrlimit(RLIMIT_NOFILE, &limit), 0);
        previous
    }
}

/// CPU time this process has used. Opens no descriptor, unlike reading
/// `/proc/self/stat`.
fn cpu_time() -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid `struct timespec` for the call to fill in.
    assert_eq!(
        unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) },
        0
    );
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Sends a keep-alive health probe and waits up to `wait` for the whole
/// reply; `None` when the daemon has not answered by then.
fn probe(stream: &mut TcpStream, wait: Duration) -> Option<String> {
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
        .unwrap();
    reply(stream, wait)
}

fn reply(stream: &mut TcpStream, wait: Duration) -> Option<String> {
    stream.set_read_timeout(Some(wait)).unwrap();
    let mut got = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let text = String::from_utf8_lossy(&got);
        if let Some((head, body)) = text.split_once("\r\n\r\n") {
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length: "))
                .unwrap()
                .parse()
                .unwrap();
            if body.len() == len {
                return Some(text.into_owned());
            }
        }
        match stream.read(&mut byte) {
            Ok(1) => got.push(byte[0]),
            Ok(_) => panic!("daemon closed the connection"),
            Err(_) => return None,
        }
    }
}

#[test]
fn out_of_descriptors_the_loop_waits_instead_of_spinning() {
    let server = Server::start(&ServeConfig::default()).expect("bind ephemeral port");
    let open = std::fs::read_dir("/proc/self/fd").unwrap().count() as u64;
    let previous = set_soft_fd_limit(open + 16);

    // Each served connection costs two descriptors, the client's and the
    // daemon's. Connect until the client takes the last one, so the
    // daemon's `accept` fails; the spare fixes the parity.
    let mut spare = Some(std::fs::File::open("/dev/null").unwrap());
    let mut served = Vec::new();
    let mut pending = loop {
        let mut stream = match TcpStream::connect(server.addr()) {
            Ok(stream) => stream,
            Err(e) if e.raw_os_error() == Some(EMFILE) => {
                drop(spare.take().expect("a spare descriptor to free"));
                continue;
            }
            Err(e) => panic!("connect: {e}"),
        };
        match probe(&mut stream, Duration::from_millis(300)) {
            Some(reply) => {
                assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
                served.push(stream);
            }
            None => break stream,
        }
    };
    assert!(!served.is_empty());

    // A loop that kept polling the ready listener would burn the whole
    // window on one core.
    let window = Duration::from_millis(500);
    let before = cpu_time();
    std::thread::sleep(window);
    let used = cpu_time() - before;
    assert!(
        used < window / 4,
        "{used:?} of CPU in {window:?} out of descriptors"
    );

    // Closing a connection frees descriptors: the queued one is accepted
    // and its request answered.
    drop(served.pop());
    let reply = reply(&mut pending, Duration::from_secs(5)).expect("queued connection served");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");

    drop((served, pending));
    set_soft_fd_limit(previous);
    server.shutdown();
}
