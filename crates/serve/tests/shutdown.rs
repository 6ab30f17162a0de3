//! Lifecycle of an idle daemon: with keep-alive connections open — one
//! of them holding half a request — and nothing to do, the event loop
//! sleeps in `poll` (no busy-wait), and `Server::shutdown` returns
//! promptly. A file of its own, so no other
//! test's threads use CPU during the measurement.

use dscweaver_serve::client::Client;
use dscweaver_serve::server::{ServeConfig, Server};
use std::io::Write;
use std::time::{Duration, Instant};

/// CPU time this process has used, user plus system (`None` where
/// `/proc` is unavailable).
fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().ok()? + fields[12].parse::<u64>().ok()?;
    Some(Duration::from_millis(ticks * 10))
}

#[test]
fn idle_keepalive_connections_cost_no_cpu_and_shutdown_is_prompt() {
    let server = Server::start(&ServeConfig::default()).expect("bind ephemeral port");
    let mut clients: Vec<Client> = (0..3).map(|_| Client::connect(server.addr())).collect();
    for client in &mut clients {
        let reply = client.get("/healthz").unwrap();
        assert!(reply.keep_alive(), "connection stays open");
    }
    let mut partial = std::net::TcpStream::connect(server.addr()).unwrap();
    partial
        .write_all(b"POST /v1/weave HTTP/1.1\r\ncontent-length: 100\r\n\r\nprocess")
        .unwrap();

    let idle = Duration::from_millis(400);
    let cpu_before = cpu_time();
    std::thread::sleep(idle);
    if let (Some(before), Some(after)) = (cpu_before, cpu_time()) {
        // A spinning loop would burn the whole window on one core.
        assert!(
            after - before < idle / 4,
            "{:?} of CPU in {idle:?} of idleness",
            after - before
        );
    }

    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
    drop((clients, partial));
}
