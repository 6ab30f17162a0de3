//! The daemon workloads, `serve_hot` and `serve_churn`: a child
//! `dscw serve`, two closed-loop client threads, every reply checked.

use crate::daemon::{Daemon, Stats};
use crate::gen::{pick_indices, ChurnClass, ChurnMix, ChurnRequest, HotMix, HotOp};
use crate::report::Report;
use crate::stats::{window_batches, window_rates, Samples};
use crate::steal::{self, Ticks};
use crate::wire::{self, Conn};
use dscweaver::graph::par_map;
use dscweaver::serve::registry::Registry;
use dscweaver::serve::service::{handle, oneshot, Request};
use dscweaver_bench::perf_serve::proc_text;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client threads (and connections) driving the daemon.
pub const CLIENTS: usize = 2;
/// `serve_hot` working set: structurally distinct processes.
pub const HOT_WORKING_SET: usize = 2000;
/// `serve_hot` cache capacity (at least the working set).
pub const HOT_CACHE: usize = 4096;
/// `serve_churn` cache capacity (far below the population).
pub const CHURN_CACHE: usize = 256;
/// `serve_churn` population.
pub const CHURN_POPULATION: usize = 10_000;
/// `serve_churn` pre-warm: this many processes outside the population
/// fill the cache, so the window starts in the steady evicting state.
pub const CHURN_PREWARM: usize = CHURN_CACHE;
/// `serve_hot` daemon set-ups per run (each pre-warms 2,000 processes);
/// `setup_s` is the median of the quiet ones.
pub const HOT_SETUPS: usize = 3;
/// `serve_churn` daemon set-ups per run (each pre-warms 256 processes).
pub const CHURN_SETUPS: usize = 5;
/// Requests per `batch_s` sample on the serve workloads.
pub const BATCH_REQUESTS: usize = 100;
/// One in this many `serve_churn` requests is checked against its
/// one-shot reference (every reply's status is checked).
pub const CHURN_SAMPLE_EVERY: u64 = 8;

/// One request ready for the wire, with what its reply must be.
#[derive(Clone)]
pub struct Job {
    /// Rendered request bytes.
    pub wire: Arc<[u8]>,
    /// Expected body, when this request is checked.
    pub expect: Option<Arc<str>>,
    /// Whether the request goes through `Registry::lookup_or_build`
    /// (and so lands in exactly one of hits / canonical hits / misses).
    pub lookup: bool,
    /// Label for failure messages.
    pub label: Arc<str>,
}

/// What one client thread observed.
#[derive(Default)]
pub struct ClientLog {
    /// Per request: (completion time in seconds since the window start,
    /// latency in µs from send to whole reply; fresh connections include
    /// the connect). Sorted by completion once merged.
    pub samples: Vec<(f64, f64)>,
    /// Requests sent.
    pub attempted: u64,
    /// Non-200, refused, broken or timed-out requests.
    pub failed: u64,
    /// Requests through the registry lookup.
    pub lookups: u64,
    /// Replies compared against a reference body.
    pub checked: u64,
    /// Wrong bodies (first few).
    pub wrong: Vec<String>,
    /// Failure descriptions (first few).
    pub failures: Vec<String>,
}

impl ClientLog {
    fn merge(logs: Vec<ClientLog>) -> ClientLog {
        let mut out = ClientLog::default();
        for l in logs {
            out.samples.extend(l.samples);
            out.attempted += l.attempted;
            out.failed += l.failed;
            out.lookups += l.lookups;
            out.checked += l.checked;
            out.wrong.extend(l.wrong);
            out.failures.extend(l.failures);
        }
        out.samples
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("times are never NaN"));
        out
    }

    /// Completion times, seconds, ascending.
    pub fn completions(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.0).collect()
    }

    /// Latencies, µs, in completion order.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }
}

/// Sends jobs from `next` until `deadline`, one at a time (closed loop),
/// over one keep-alive connection or a fresh connection per request.
pub fn drive(
    addr: SocketAddr,
    keep_alive: bool,
    t0: Instant,
    deadline: Instant,
    mut next: impl FnMut() -> Job,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn: Option<Conn> = None;
    while Instant::now() < deadline {
        let job = next();
        let start = Instant::now();
        let result = (|| {
            if conn.is_none() {
                conn = Some(Conn::open(addr)?);
            }
            conn.as_mut().expect("opened above").exchange(&job.wire)
        })();
        let end = Instant::now();
        log.attempted += 1;
        log.lookups += job.lookup as u64;
        log.samples.push((
            end.duration_since(t0).as_secs_f64(),
            end.duration_since(start).as_secs_f64() * 1e6,
        ));
        match result {
            Ok(reply) => {
                if !keep_alive || !reply.keep_alive {
                    conn = None;
                }
                if reply.status != 200 {
                    log.failed += 1;
                    if log.failures.len() < 4 {
                        log.failures.push(format!(
                            "{}: status {}: {}",
                            job.label, reply.status, reply.body
                        ));
                    }
                } else if let Some(expect) = &job.expect {
                    log.checked += 1;
                    if reply.body != **expect && log.wrong.len() < 4 {
                        log.wrong.push(format!(
                            "{}: body differs from the one-shot reference\n got: {}\nwant: {}",
                            job.label, reply.body, expect
                        ));
                    }
                }
            }
            Err(e) => {
                conn = None;
                log.failed += 1;
                if log.failures.len() < 4 {
                    log.failures.push(format!("{}: {e}", job.label));
                }
            }
        }
    }
    log
}

/// Runs `CLIENTS` threads of [`drive`] for `seconds`, each with its own
/// job source, while a sampler reads the host's steal ticks at every
/// 1 s window boundary. Returns the merged log and each window's stolen
/// share.
fn run_clients(
    addr: SocketAddr,
    keep_alive: bool,
    seconds: u64,
    sources: Vec<Box<dyn FnMut() -> Job + Send + '_>>,
) -> (ClientLog, Vec<f64>) {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(seconds);
    let (logs, ticks) = std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut ticks: Vec<Ticks> = Vec::with_capacity(seconds as usize + 1);
            for k in 0..=seconds {
                let at = t0 + Duration::from_secs(k);
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                ticks.push(steal::read());
            }
            ticks
        });
        let handles: Vec<_> = sources
            .into_iter()
            .map(|next| s.spawn(move || drive(addr, keep_alive, t0, deadline, next)))
            .collect();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, sampler.join().expect("steal sampler panicked"))
    });
    (ClientLog::merge(logs), steal::fractions(&ticks))
}

/// The window statistics every serve report uses, over the quiet 1 s
/// windows only (see [`crate::steal`]).
pub struct Summary {
    /// Completed requests per quiet window.
    pub rates: Samples,
    /// Latencies (µs) of the requests completed in quiet windows.
    pub latency: Samples,
    /// Wall time of each `BATCH_REQUESTS` consecutive completions inside
    /// a quiet window, seconds.
    pub batches: Samples,
    /// Quiet windows used, of all windows.
    pub quiet: (usize, usize),
}

/// Everything a serve run measured, for the end-to-end and per-layer
/// reports.
pub struct ServeRun {
    /// Merged client logs of the timed window.
    pub log: ClientLog,
    /// `/v1/stats` delta over the timed window.
    pub delta: Stats,
    /// Set-ups (spawn → `/healthz` → pre-warm done): seconds and host
    /// steal share.
    pub setups: Vec<(f64, f64)>,
    /// Daemon peak RSS at the end of the window, MiB.
    pub peak_rss_mb: f64,
    /// Host steal share of each 1 s window.
    pub steal: Vec<f64>,
    /// The daemon, still running (for the traced probes).
    pub daemon: Daemon,
    /// Window length, seconds.
    pub seconds: u64,
}

impl ServeRun {
    /// The quiet-window summary of the timed window.
    pub fn summary(&self) -> Summary {
        let keep = steal::quiet(&self.steal);
        let kept = |t: f64| keep.get(t.floor() as usize).copied().unwrap_or(false);
        let completions = self.log.completions();
        let rates: Vec<f64> = window_rates(&completions, 1.0, self.seconds as f64)
            .into_iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(r, _)| r)
            .collect();
        Summary {
            rates: Samples::new(rates),
            latency: Samples::new(
                self.log
                    .samples
                    .iter()
                    .filter(|s| kept(s.0))
                    .map(|s| s.1)
                    .collect(),
            ),
            batches: Samples::new(window_batches(&completions, 1.0, &keep, BATCH_REQUESTS)),
            quiet: (keep.iter().filter(|&&k| k).count(), keep.len()),
        }
    }

    /// Reports the end-to-end metrics.
    pub fn end_to_end(&self, report: &mut Report) {
        let sum = self.summary();
        let setups = steal::quiet_median(&self.setups);
        let (quiet, windows) = sum.quiet;
        let lat = &sum.latency;
        report.metric(
            "setup_s",
            "s",
            setups,
            self.setups.len(),
            None,
            "daemon set-up (spawn, /healthz answers, pre-warm done), median over quiet set-ups",
        );
        report.metric(
            "throughput_rps",
            "req/s",
            sum.rates.median(),
            sum.rates.len(),
            None,
            format!(
                "completed requests per 1 s window, median over {quiet} quiet of {windows} windows"
            ),
        );
        report.metric(
            "latency_p50_us",
            "us",
            lat.percentile(50.0),
            lat.len(),
            Some(lat.beyond(50.0)),
            format!(
                "client-observed, exact rank over the requests of the quiet windows (p99 {:.3}, {} beyond)",
                lat.percentile(99.0),
                lat.beyond(99.0)
            ),
        );
        report.metric(
            "peak_rss_mb",
            "MiB",
            self.peak_rss_mb,
            1,
            None,
            "daemon VmHWM at the end of the window",
        );
        report.metric(
            "batch_s",
            "s",
            sum.batches.median(),
            sum.batches.len(),
            None,
            format!("wall time of {BATCH_REQUESTS} consecutive completed requests inside a quiet window, median"),
        );
    }
}

/// Checks the client logs and the `/v1/stats` delta: every body that has
/// a reference matches it, and the registry counters account for every
/// request that went through the lookup.
fn check_window(report: &mut Report, log: &ClientLog, keyed: u64, delta: &Stats) {
    report.attempted += log.attempted;
    report.failed += log.failed;
    for w in &log.wrong {
        report.fail(w.clone());
    }
    for f in &log.failures {
        eprintln!("perfbench: failed request: {f}");
    }
    let counted = delta.hits + delta.canonical_hits + delta.misses;
    let (lo, hi) = (log.lookups.saturating_sub(log.failed), log.lookups);
    report.check(counted >= lo && counted <= hi, || {
        format!(
            "registry counters do not account for the requests: hits {} + canonical {} + misses {} = {counted}, lookups sent {}",
            delta.hits, delta.canonical_hits, delta.misses, log.lookups
        )
    });
    let (lo, hi) = (keyed.saturating_sub(log.failed), keyed);
    report.check(delta.served >= lo && delta.served <= hi, || {
        format!(
            "daemon served {} process-keyed requests, client sent {keyed}",
            delta.served
        )
    });
    report.check(log.checked > 0, || "no reply was checked".into());
}

/// Spawns the daemon `rounds` times, pre-warming each with `prewarm`,
/// and keeps the last one.
fn set_up(
    dscw: &Path,
    cache: usize,
    rounds: usize,
    prewarm: &(dyn Fn(SocketAddr) -> Result<(), String> + Sync),
) -> Result<(Daemon, Vec<(f64, f64)>), String> {
    let mut setups = Vec::with_capacity(rounds);
    let mut kept = None;
    for round in 0..rounds {
        let (t, ticks) = (Instant::now(), steal::read());
        let daemon = Daemon::spawn(dscw, cache)?;
        prewarm(daemon.addr())?;
        setups.push((
            t.elapsed().as_secs_f64(),
            steal::fraction(ticks, steal::read()),
        ));
        if round + 1 == rounds {
            kept = Some(daemon);
        } else {
            daemon.stop();
        }
    }
    let daemon = kept.expect("at least one set-up");
    Ok((daemon, setups))
}

/// The `serve_hot` workload's inputs: the working set and the one-shot
/// reference body of every request it can send.
pub struct HotInputs {
    /// Process index per working-set slot.
    pub indices: Vec<usize>,
    /// Process text per slot.
    pub texts: Vec<Arc<str>>,
    /// Rendered keep-alive request per `slot * 4 + op.slot()`.
    pub wires: Vec<Arc<[u8]>>,
    /// Reference body per `slot * 4 + op.slot()`.
    pub refs: Vec<Arc<str>>,
    /// Failure label per `slot * 4 + op.slot()`.
    pub labels: Vec<Arc<str>>,
}

/// The typed request for a hot (slot, kind) pair.
pub fn hot_request(op: HotOp, index: usize, text: &str) -> Request {
    let text = text.to_string();
    match op {
        HotOp::Weave => Request::Weave { text },
        HotOp::Validate => Request::Validate { text },
        HotOp::Simulate { branch_t } => Request::Simulate {
            text,
            branches: vec![(format!("g{index}"), if branch_t { "T" } else { "F" }.into())],
        },
    }
}

/// Builds the working set and computes every reference with
/// `service::oneshot`, before anything is timed.
pub fn hot_inputs(seed: u64) -> HotInputs {
    let indices = pick_indices(seed, HOT_WORKING_SET);
    let texts: Vec<Arc<str>> = indices.iter().map(|&i| Arc::from(proc_text(i))).collect();
    let mut wires = Vec::with_capacity(indices.len() * 4);
    let mut keys = Vec::with_capacity(indices.len() * 4);
    let mut labels = Vec::with_capacity(indices.len() * 4);
    for (slot, &i) in indices.iter().enumerate() {
        for op in HotOp::ALL {
            wires.push(Arc::from(wire::render(
                "POST",
                &op.target(i),
                &texts[slot],
                true,
            )));
            keys.push((slot, op));
            labels.push(Arc::from(format!("{op:?} of process {i}")));
        }
    }
    let refs = par_map(CLIENTS, &keys, &|&(slot, op)| {
        let resp = oneshot(&hot_request(op, indices[slot], &texts[slot]), 1);
        assert_eq!(
            resp.status, 200,
            "reference for {op:?} failed: {}",
            resp.body
        );
        Arc::<str>::from(resp.body)
    });
    HotInputs {
        indices,
        texts,
        wires,
        refs,
        labels,
    }
}

/// Pre-warms a hot daemon: every working-set process woven once, split
/// across the client connections, each reply checked.
fn hot_prewarm(addr: SocketAddr, inputs: &HotInputs) -> Result<(), String> {
    let n = inputs.indices.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || -> Result<(), String> {
                    let mut conn = Conn::open(addr).map_err(|e| format!("prewarm connect: {e}"))?;
                    for slot in (c..n).step_by(CLIENTS) {
                        let key = slot * 4 + HotOp::Weave.slot();
                        let reply = conn
                            .exchange(&inputs.wires[key])
                            .map_err(|e| format!("prewarm: {e}"))?;
                        if reply.status != 200 || reply.body != *inputs.refs[key] {
                            return Err(format!(
                                "prewarm of process {} answered {}: {}",
                                inputs.indices[slot], reply.status, reply.body
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("prewarm thread panicked"))
    })
}

/// `serve_hot`: set up, pre-warm, then `seconds` of keep-alive closed
/// loop over the working set, every body checked.
pub fn serve_hot(
    dscw: &Path,
    seed: u64,
    seconds: u64,
    report: &mut Report,
) -> Result<(ServeRun, HotInputs), String> {
    let inputs = hot_inputs(seed);
    let (daemon, setups) = set_up(dscw, HOT_CACHE, HOT_SETUPS, &|addr| {
        hot_prewarm(addr, &inputs)
    })?;
    let before = daemon.stats(None)?;
    let sources: Vec<Box<dyn FnMut() -> Job + Send + '_>> = (0..CLIENTS)
        .map(|c| {
            let mut mix = HotMix::new(seed, c, HOT_WORKING_SET);
            let inputs = &inputs;
            Box::new(move || {
                let (slot, op) = mix.next_request();
                let key = slot * 4 + op.slot();
                Job {
                    wire: inputs.wires[key].clone(),
                    expect: Some(inputs.refs[key].clone()),
                    lookup: true,
                    label: inputs.labels[key].clone(),
                }
            }) as Box<dyn FnMut() -> Job + Send>
        })
        .collect();
    let (log, steal) = run_clients(daemon.addr(), true, seconds, sources);
    let delta = daemon.stats(Some(before.seq))?;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    check_window(report, &log, log.attempted, &delta);
    report.fact(
        "steal_median_pct",
        format!("{:.2}", steal::median_pct(&steal)),
    );
    report.fact("working_set", HOT_WORKING_SET.to_string());
    report.fact("clients", CLIENTS.to_string());
    report.fact("checked", log.checked.to_string());
    Ok((
        ServeRun {
            log,
            delta,
            setups,
            peak_rss_mb,
            steal,
            daemon,
            seconds,
        },
        inputs,
    ))
}

/// One churn request rendered for the wire, with its reference when
/// sampled.
fn churn_job(req: &ChurnRequest, expect: Option<Arc<str>>) -> Job {
    Job {
        wire: Arc::from(wire::render("POST", &req.target, &req.text, false)),
        expect,
        lookup: req.class != ChurnClass::Reweave,
        label: Arc::from(format!("{:?} {}", req.class, req.target)),
    }
}

/// The one-shot reference body of a churn request: `oneshot` for a
/// weave; for a re-weave, a fresh registry that weaves the base and then
/// the revision (the daemon's base session holds exactly that state,
/// since every base is re-woven at most once).
pub fn churn_reference(req: &ChurnRequest) -> String {
    match &req.base_text {
        None => {
            let resp = oneshot(
                &Request::Weave {
                    text: req.text.clone(),
                },
                1,
            );
            assert_eq!(resp.status, 200, "reference weave failed: {}", resp.body);
            resp.body
        }
        Some(base_text) => {
            let reg = Registry::new(1, 1);
            let woven = handle(
                &reg,
                &Request::Weave {
                    text: base_text.clone(),
                },
            );
            assert_eq!(woven.status, 200, "reference base failed: {}", woven.body);
            let base = u64::from_str_radix(
                req.target
                    .rsplit('=')
                    .next()
                    .expect("reweave target has a base"),
                16,
            )
            .expect("base is hex");
            let resp = handle(
                &reg,
                &Request::Reweave {
                    text: req.text.clone(),
                    base,
                },
            );
            assert_eq!(resp.status, 200, "reference reweave failed: {}", resp.body);
            resp.body
        }
    }
}

/// Requests generated (and sampled for references) per churn client
/// before the window; a faster daemon keeps drawing from the same
/// generator, unchecked past this point.
pub const CHURN_PREGENERATED: usize = 6000;

/// The `serve_churn` inputs: per client, the pre-generated requests with
/// references on a seeded sample, and the generator to continue from.
pub struct ChurnInputs {
    /// Per client: jobs ready for the wire.
    pub jobs: Vec<Vec<Job>>,
    /// Per client: the generated requests (for the in-process replay).
    pub requests: Vec<Vec<ChurnRequest>>,
    /// Per client: the generator, positioned after the pre-generated
    /// requests.
    pub mixes: Vec<ChurnMix>,
    /// Pre-warm requests (processes outside the population).
    pub prewarm: Vec<Arc<[u8]>>,
}

/// Fills a churn daemon's cache over one keep-alive connection.
fn churn_prewarm(addr: SocketAddr, prewarm: &[Arc<[u8]>]) -> Result<(), String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("prewarm connect: {e}"))?;
    for wire in prewarm {
        let reply = conn.exchange(wire).map_err(|e| format!("prewarm: {e}"))?;
        if reply.status != 200 {
            return Err(format!("prewarm answered {}: {}", reply.status, reply.body));
        }
    }
    Ok(())
}

/// Generates the churn streams and their sampled references.
pub fn churn_inputs(seed: u64) -> ChurnInputs {
    let population = pick_indices(seed, CHURN_POPULATION + CHURN_PREWARM);
    let prewarm = population[CHURN_POPULATION..]
        .iter()
        .map(|&i| Arc::<[u8]>::from(wire::render("POST", "/v1/weave", &proc_text(i), true)))
        .collect();
    let per = CHURN_POPULATION / CLIENTS;
    let mut requests = Vec::new();
    let mut mixes = Vec::new();
    for c in 0..CLIENTS {
        let mut mix = ChurnMix::new(seed, c, population[c * per..(c + 1) * per].to_vec());
        requests.push(
            (0..CHURN_PREGENERATED)
                .map(|_| mix.next_request())
                .collect::<Vec<_>>(),
        );
        mixes.push(mix);
    }
    let mut sample = dscweaver_prng::Rng::seed_from_u64(seed ^ 0x0c4e_c4ed);
    let mut jobs = Vec::new();
    for reqs in &requests {
        let picks: Vec<usize> = (0..reqs.len())
            .filter(|_| sample.random_range(CHURN_SAMPLE_EVERY as usize) == 0)
            .collect();
        let refs = par_map(CLIENTS, &picks, &|&k| {
            Arc::<str>::from(churn_reference(&reqs[k]))
        });
        let mut expect: Vec<Option<Arc<str>>> = vec![None; reqs.len()];
        for (k, r) in picks.into_iter().zip(refs) {
            expect[k] = Some(r);
        }
        jobs.push(
            reqs.iter()
                .zip(expect)
                .map(|(r, e)| churn_job(r, e))
                .collect(),
        );
    }
    ChurnInputs {
        jobs,
        requests,
        mixes,
        prewarm,
    }
}

/// `serve_churn`: a small-cache daemon, `seconds` of closed loop with a
/// fresh connection per request.
pub fn serve_churn(
    dscw: &Path,
    seed: u64,
    seconds: u64,
    report: &mut Report,
) -> Result<(ServeRun, ChurnInputs), String> {
    let mut inputs = churn_inputs(seed);
    let (daemon, setups) = set_up(dscw, CHURN_CACHE, CHURN_SETUPS, &|addr| {
        churn_prewarm(addr, &inputs.prewarm)
    })?;
    let before = daemon.stats(None)?;
    let sources: Vec<Box<dyn FnMut() -> Job + Send + '_>> = inputs
        .jobs
        .iter()
        .zip(inputs.mixes.iter_mut())
        .map(|(jobs, mix)| {
            let mut k = 0usize;
            Box::new(move || {
                let job = match jobs.get(k) {
                    Some(j) => j.clone(),
                    None => churn_job(&mix.next_request(), None),
                };
                k += 1;
                job
            }) as Box<dyn FnMut() -> Job + Send>
        })
        .collect();
    let (log, steal) = run_clients(daemon.addr(), false, seconds, sources);
    let delta = daemon.stats(Some(before.seq))?;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    check_window(report, &log, log.attempted, &delta);
    report.fact(
        "steal_median_pct",
        format!("{:.2}", steal::median_pct(&steal)),
    );
    report.fact("population", CHURN_POPULATION.to_string());
    report.fact("clients", CLIENTS.to_string());
    report.fact("checked", log.checked.to_string());
    Ok((
        ServeRun {
            log,
            delta,
            setups,
            peak_rss_mb,
            steal,
            daemon,
            seconds,
        },
        inputs,
    ))
}
