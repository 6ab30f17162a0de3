//! The daemon under test: a child `dscw serve` process on an ephemeral
//! port, plus the scrapes the benchmark reads from it (`/v1/stats`,
//! `/metrics`, peak resident memory).

use dscweaver::obs;
use dscweaver::serve::client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// PIDs of live daemon children, for [`kill_all`].
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Kills every live daemon child (the watchdog's last act before the
/// benchmark exits, so no child outlives it).
pub fn kill_all() {
    let pids = CHILDREN.lock().map(|p| p.clone()).unwrap_or_default();
    for pid in pids {
        // SAFETY: `kill` takes plain integers and touches no memory of
        // this process; the PID belongs to a child not yet reaped, so it
        // cannot have been recycled for another process.
        unsafe {
            kill(pid as i32, 9);
        }
    }
}

/// A running `dscw serve` child. Dropping it kills and reaps the child.
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    addr: SocketAddr,
    flags: Vec<String>,
}

/// Registry counters from one `/v1/stats` response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Snapshot sequence number (the `?since=` key).
    pub seq: u64,
    /// Raw-memo hits.
    pub hits: u64,
    /// Canonical hits (new text, cached canonical entry).
    pub canonical_hits: u64,
    /// Compiles.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Completed process-keyed requests.
    pub served: u64,
    /// Requests rejected by back-pressure.
    pub rejected: u64,
    /// Cached canonical entries.
    pub entries: u64,
}

impl Daemon {
    /// Spawns `dscw serve --port 0 --cache <cache>` (every other flag at
    /// its shipped default) and waits until `/healthz` answers.
    pub fn spawn(dscw: &Path, cache: usize) -> Result<Daemon, String> {
        let flags = vec![
            "serve".to_string(),
            "--port".into(),
            "0".into(),
            "--cache".into(),
            cache.to_string(),
        ];
        let mut child = Command::new(dscw)
            .args(&flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", dscw.display()))?;
        CHILDREN
            .lock()
            .expect("child list lock poisoned")
            .push(child.id());
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        // The drain thread forwards the listening line, then keeps reading
        // so the child never blocks on a full stderr pipe.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.split("listening on http://").nth(1) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.split_whitespace().next().unwrap_or("").to_string());
                    }
                }
            }
        });
        let mut daemon = Daemon {
            child,
            drain: Some(drain),
            addr: "127.0.0.1:0".parse().expect("literal address"),
            flags,
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "daemon did not report its listening address".to_string())?;
        daemon.addr = addr
            .parse()
            .map_err(|e| format!("bad listening address '{addr}': {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match client::get(daemon.addr, "/healthz") {
                Ok(r) if r.status == 200 => break,
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                _ => return Err("daemon never answered /healthz".into()),
            }
        }
        Ok(daemon)
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The command-line flags the daemon runs with.
    pub fn flags(&self) -> String {
        self.flags.join(" ")
    }

    /// Cumulative `/v1/stats`, or the delta since snapshot `since`.
    pub fn stats(&self, since: Option<u64>) -> Result<Stats, String> {
        let target = match since {
            Some(s) => format!("/v1/stats?since={s}"),
            None => "/v1/stats".into(),
        };
        let reply = client::get(self.addr, &target).map_err(|e| format!("stats: {e}"))?;
        if reply.status != 200 {
            return Err(format!("stats: status {}: {}", reply.status, reply.body));
        }
        let doc = obs::json::parse(&reply.body).map_err(|e| format!("stats json: {e:?}"))?;
        let num = |k: &str| doc.get(k).and_then(|v| v.as_num()).unwrap_or(0.0) as u64;
        Ok(Stats {
            seq: num("seq"),
            hits: num("hits"),
            canonical_hits: num("canonical_hits"),
            misses: num("misses"),
            evictions: num("evictions"),
            served: num("served"),
            rejected: num("rejected"),
            entries: num("entries"),
        })
    }

    /// One counter from `/metrics` (its Prometheus sample name), `0`
    /// when the daemon has not registered it yet.
    pub fn metric(&self, name: &str) -> Result<f64, String> {
        let reply = client::get(self.addr, "/metrics").map_err(|e| format!("metrics: {e}"))?;
        let samples = obs::prom::parse(&reply.body)?;
        Ok(samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum())
    }

    /// Peak resident set of the daemon process (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Kills the child and waits for it and its stderr drain to end.
    pub fn stop(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        // Holding the list lock until the child is reaped keeps the
        // watchdog from signalling a PID the kernel has already recycled.
        let mut pids = CHILDREN.lock().unwrap_or_else(|p| p.into_inner());
        let _ = self.child.kill();
        let _ = self.child.wait();
        pids.retain(|&p| p != self.child.id());
        drop(pids);
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}
