//! The traced run's per-layer numbers. Each layer's public functions are
//! timed from here, on the workload's own inputs, around the calls the
//! daemon or the one-shot path makes; daemon counters come from
//! `/v1/stats` and `/metrics`. No span inside the program is needed.
//!
//! Every traced run reports every per-layer metric. Where a workload's
//! load does not reach a layer, the layer is still timed on that
//! workload's inputs (README.md lists the stand-ins), so each number is
//! a measurement and a change to any layer shows on every workload.

use crate::daemon::{Daemon, Stats};
use crate::gen::{one_edit, HotMix, TAIL_BITS};
use crate::report::Report;
use crate::serve::{hot_request, ChurnInputs, ClientLog, HotInputs, ServeRun, CLIENTS};
use crate::stats::{unattributed, Samples};
use crate::vertical::{self, VerticalRun};
use crate::wire::{self, Conn};
use dscweaver::bpel::emit_string;
use dscweaver::core::{
    merge, minimize, translate_services, DependencySet, EdgeOrder, ExecConditions, ReweavePath,
    Weaver,
};
use dscweaver::dscl::SyncGraph;
use dscweaver::graph::{effective_threads, interned_closure, par_shards, DnfPool};
use dscweaver::model::{parse_process, Process};
use dscweaver::petri::{CompiledValidation, ValidateOptions};
use dscweaver::scheduler::MonitorEvent;
use dscweaver::scheduler::{
    MonitorConfig, MonitorProgram, MonitorState, PreparedSchedule, ScheduleTables, SimConfig,
};
use dscweaver::serve::canon::canonicalize;
use dscweaver::serve::http::{parse_buffered, render_response, MAX_BODY};
use dscweaver::serve::registry::Registry;
use dscweaver::serve::service::{self, handle, Request};
use dscweaver::workloads::eventlog::{monitor_fixture, MonitorFixture};
use dscweaver::workloads::purchasing::PURCHASING_DSL;
use dscweaver_bench::perf_serve::proc_text;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Processes the per-process layer timings average over on the serve
/// workloads.
const SERVE_UNITS: usize = 40;
/// In-process request replays for the serve-layer means.
const REPLAYS: usize = 2000;
/// `/healthz` round trips per server probe.
const PROBES: usize = 500;
/// Monitor stand-in fleet on the serve workloads (20 events each).
const SERVE_MONITOR_FLEET: u32 = 5_000;

/// Times one call, microseconds.
fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// The traced run's own end-to-end numbers: the gap to the untraced
/// run's numbers for the same seed is the tracing overhead.
fn traced_end_to_end(report: &mut Report, run: &ServeRun) {
    let sum = run.summary();
    let (rates, lat) = (sum.rates, sum.latency);
    report.metric(
        "trace.throughput_rps",
        "req/s",
        rates.median(),
        rates.len(),
        None,
        "this traced run's throughput_rps; minus the untraced median = tracing overhead",
    );
    report.metric(
        "trace.latency_p50_us",
        "us",
        lat.percentile(50.0),
        lat.len(),
        Some(lat.beyond(50.0)),
        "this traced run's latency_p50_us; minus the untraced median = tracing overhead",
    );
    report.metric(
        "trace.latency_p99_us",
        "us",
        lat.percentile(99.0),
        lat.len(),
        Some(lat.beyond(99.0)),
        "client-observed p99 over the quiet windows; too noisy on a shared host to bound",
    );
}

/// `serve::server`: warm keep-alive `/healthz` round trip and fresh
/// connect + first `/healthz`, both medians; plus the connection-reuse
/// ratio the daemon counted over the run.
fn server_probes(report: &mut Report, daemon: &Daemon) -> Result<(), String> {
    let connections = daemon.metric("serve_connections_total")?;
    let reused = daemon.metric("serve_conns_reused_total")?;
    let health = wire::render("GET", "/healthz", "", true);
    let mut conn = Conn::open(daemon.addr()).map_err(|e| format!("probe: {e}"))?;
    let mut rtt = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let (reply, us) = time_us(|| conn.exchange(&health));
        let reply = reply.map_err(|e| format!("healthz probe: {e}"))?;
        report.check(reply.status == 200, || {
            format!("healthz answered {}", reply.status)
        });
        rtt.push(us);
    }
    drop(conn);
    let close = wire::render("GET", "/healthz", "", false);
    let mut connect = Vec::with_capacity(PROBES / 5);
    for _ in 0..PROBES / 5 {
        let (reply, us) =
            time_us(|| Conn::open(daemon.addr()).and_then(|mut c| c.exchange(&close)));
        let reply = reply.map_err(|e| format!("connect probe: {e}"))?;
        report.check(reply.status == 200, || {
            format!("healthz answered {}", reply.status)
        });
        connect.push(us);
    }
    let rtt = Samples::new(rtt);
    let connect = Samples::new(connect);
    report.metric(
        "server.healthz_rtt_us",
        "us",
        rtt.median(),
        rtt.len(),
        None,
        "GET /healthz on a warm keep-alive connection, median",
    );
    report.metric(
        "server.connect_us",
        "us",
        connect.median(),
        connect.len(),
        None,
        "connect + first GET /healthz on a fresh connection, median",
    );
    report.metric(
        "server.conns_reused_ratio",
        "ratio",
        if connections > 0.0 {
            reused / connections
        } else {
            0.0
        },
        connections as usize,
        None,
        "/metrics serve.conns_reused / serve.connections over the daemon's life",
    );
    Ok(())
}

/// `graph::par_shards` at the daemon's thread count over the live
/// connection shape (`CLIENTS` connections, trivial work per shard): the
/// fan-out cost each event-loop tick pays.
fn par_fanout(report: &mut Report) {
    let threads = effective_threads(0, 8).min(CLIENTS);
    let mut conns = vec![0u64; CLIENTS];
    let mut samples = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let (_, us) = time_us(|| {
            par_shards(threads, &mut conns, &|_, c: &mut u64| {
                *c += 1;
                true
            })
        });
        samples.push(us);
    }
    let s = Samples::new(samples);
    report.metric(
        "graph.par_fanout_us",
        "us",
        s.median(),
        s.len(),
        None,
        format!("par_shards over {CLIENTS} shards at {threads} threads, median"),
    );
}

/// Registry ratios over the timed window, from the `/v1/stats` delta.
fn registry_ratios(report: &mut Report, delta: &Stats) {
    let total = (delta.hits + delta.canonical_hits + delta.misses).max(1) as f64;
    let n = total as usize;
    report.metric(
        "registry.raw_hit_ratio",
        "ratio",
        delta.hits as f64 / total,
        n,
        None,
        "/v1/stats delta over the window",
    );
    report.metric(
        "registry.canonical_hit_ratio",
        "ratio",
        delta.canonical_hits as f64 / total,
        n,
        None,
        "/v1/stats delta over the window",
    );
    report.metric(
        "registry.miss_ratio",
        "ratio",
        delta.misses as f64 / total,
        n,
        None,
        "/v1/stats delta over the window",
    );
    report.metric(
        "registry.evictions",
        "count",
        delta.evictions as f64,
        n,
        None,
        "/v1/stats delta over the window",
    );
}

/// The serve layers, in process, on the workload's own requests:
/// `http::parse_buffered`, `service::parse`, `service::handle` (replayed
/// in order on one registry), `http::render_response`, plus the hit and
/// compile paths of the registry and the front-end parsers on the
/// workload's process texts. Returns the mean in-process time of one
/// request (parse + parse + handle + render), for the residual.
fn serve_layers(
    report: &mut Report,
    replay: &[(Vec<u8>, Request)],
    registry: &Registry,
    texts: &[String],
) -> f64 {
    let (mut http_parse, mut svc_parse, mut svc_handle, mut render) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (bytes, expected) in replay {
        let (parsed, us) = time_us(|| parse_buffered(bytes, MAX_BODY));
        http_parse.push(us);
        let (http, _) = parsed
            .expect("benchmark requests are well-formed")
            .expect("benchmark requests are complete");
        let (typed, us) = time_us(|| service::parse(&http));
        svc_parse.push(us);
        let typed = typed.expect("benchmark requests route");
        report.check(typed == *expected, || {
            "service::parse changed a request".into()
        });
        let (resp, us) = time_us(|| handle(registry, &typed));
        svc_handle.push(us);
        report.check(resp.status == 200, || {
            format!("in-process replay answered {}: {}", resp.status, resp.body)
        });
        let headers = [("x-cache", resp.cache.as_str())];
        let (_, us) =
            time_us(|| render_response(resp.status, resp.content_type, &headers, &resp.body, true));
        render.push(us);
    }
    let means: Vec<f64> = [&http_parse, &svc_parse, &svc_handle, &render]
        .iter()
        .map(|v| Samples::new(v.to_vec()).mean())
        .collect();
    let n = replay.len();
    report.metric(
        "http.parse_us",
        "us",
        means[0],
        n,
        None,
        "http::parse_buffered on the workload's request bytes, mean",
    );
    report.metric(
        "service.parse_us",
        "us",
        means[1],
        n,
        None,
        "service::parse on the workload's requests, mean",
    );
    report.metric(
        "http.render_us",
        "us",
        means[3],
        n,
        None,
        "http::render_response of the replies, mean",
    );

    // Registry hit path and render-back, on warm entries.
    let (mut hit, mut handle_hit, mut rend) = (Vec::new(), Vec::new(), Vec::new());
    for text in texts {
        let _ = registry.lookup_or_build(text);
        let (found, us) = time_us(|| registry.lookup_or_build(text));
        hit.push(us);
        let found = found.expect("workload texts compile");
        let dscl = found.entry.output.minimal.to_dscl();
        let (_, us) = time_us(|| found.renaming.render_original(&dscl));
        rend.push(us);
        let req = Request::Weave { text: text.clone() };
        let (_, us) = time_us(|| handle(registry, &req));
        handle_hit.push(us);
    }
    // Compile path: a cold registry per call.
    let (mut miss, mut canon, mut model, mut pdg) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for text in texts {
        let cold = Registry::new(4, 0);
        let req = Request::Weave { text: text.clone() };
        let (resp, us) = time_us(|| handle(&cold, &req));
        report.check(resp.status == 200, || {
            format!("cold weave failed: {}", resp.body)
        });
        miss.push(us);
        let (_, us) = time_us(|| canonicalize(text));
        canon.push(us);
        let (process, us) = time_us(|| parse_process(text));
        model.push(us);
        let process = process.expect("workload texts parse");
        let (_, us) = time_us(|| extract(&process));
        pdg.push(us);
    }
    let m = texts.len();
    let mean = |v: Vec<f64>| Samples::new(v).mean();
    report.metric(
        "service.handle_hit_us",
        "us",
        mean(handle_hit),
        m,
        None,
        "service::handle of a weave on a warm registry, mean",
    );
    report.metric(
        "service.handle_miss_us",
        "us",
        mean(miss),
        m,
        None,
        "service::handle of a weave on a cold registry, mean",
    );
    report.metric(
        "registry.lookup_hit_us",
        "us",
        mean(hit),
        m,
        None,
        "Registry::lookup_or_build on raw-memo hits, mean",
    );
    report.metric(
        "canon.canonicalize_us",
        "us",
        mean(canon),
        m,
        None,
        "canon::canonicalize, mean",
    );
    report.metric(
        "canon.render_us",
        "us",
        mean(rend),
        m,
        None,
        "Renaming::render_original of the minimal DSCL, mean",
    );
    report.metric(
        "model.parse_us",
        "us",
        mean(model),
        m,
        None,
        "model::parse_process, mean",
    );
    report.metric(
        "pdg.extract_us",
        "us",
        mean(pdg),
        m,
        None,
        "pdg::extract (data + control), mean",
    );
    means[0] + means[1] + means[2] + means[3]
}

fn extract(process: &Process) -> DependencySet {
    dscweaver::pdg::extract(
        process,
        dscweaver::pdg::ExtractOptions {
            data: true,
            control: true,
            services_from_decls: false,
        },
    )
}

/// The residual: mean client latency minus the in-process layers of the
/// same requests.
fn residual(report: &mut Report, log: &ClientLog, in_process_us: f64) {
    let client = Samples::new(log.latencies()).mean();
    report.metric(
        "server.unattributed_us",
        "us",
        unattributed(client, &[in_process_us]),
        log.samples.len(),
        None,
        format!("mean client latency {client:.3}us minus in-process layers {in_process_us:.3}us"),
    );
}

/// The compile and run layers on `(process, dependency set)` inputs:
/// mean time per input for each stage the one-shot path runs.
fn pipeline_layers(report: &mut Report, units: &[(Process, DependencySet)]) -> Result<(), String> {
    let threads = effective_threads(0, 8);
    let mut t: [Vec<f64>; 10] = Default::default();
    let (mut assignments, mut checks) = (0usize, 0u64);
    for (process, ds) in units {
        let (sc, us) = time_us(|| merge(ds));
        t[0].push(us);
        let ((asc, _), us) = time_us(|| translate_services(&sc));
        t[1].push(us);
        let exec = ExecConditions::derive(&asc);
        let (min, us) =
            time_us(|| minimize(&asc, &exec, Weaver::new().mode, &EdgeOrder::default()));
        t[2].push(us);
        min.map_err(|e| format!("{}: {e}", ds.name))?;
        let sg = SyncGraph::build(&asc);
        let (closure, us) = time_us(|| {
            interned_closure(
                &sg.graph,
                &|_, w: &dscweaver::dscl::SyncEdge| w.cond.clone(),
                &mut DnfPool::new(),
                threads,
            )
        });
        t[3].push(us);
        closure.map_err(|_| format!("{}: cyclic ASC", ds.name))?;
        let (out, us) = time_us(|| Weaver::new().run(ds));
        t[4].push(us);
        let out = out.map_err(|e| format!("{}: {e}", ds.name))?;
        let (compiled, us) = time_us(|| CompiledValidation::compile(&out.minimal, &out.exec));
        t[5].push(us);
        let (validation, us) = time_us(|| compiled.run(&ValidateOptions::default()));
        t[6].push(us);
        report.check(validation.ok(), || {
            format!("{}: validation failed", ds.name)
        });
        assignments += validation.assignments_checked;
        let (tables, us) = time_us(|| ScheduleTables::derive(&out.minimal, &out.exec));
        t[7].push(us);
        let (schedule, us) = time_us(|| {
            PreparedSchedule::with_tables(&out.minimal, &out.exec, &tables)
                .run(&SimConfig::default())
        });
        t[8].push(us);
        report.check(schedule.completed(), || {
            format!("{}: schedule stuck", ds.name)
        });
        checks += schedule.constraint_checks;
        let (_, us) = time_us(|| emit_string(process, &out.minimal));
        t[9].push(us);
    }
    let n = units.len();
    let mean = |k: usize| Samples::new(t[k].clone()).mean();
    report.metric(
        "core.merge_ms",
        "ms",
        mean(0) / 1e3,
        n,
        None,
        "core::merge, mean per input",
    );
    report.metric(
        "core.translate_ms",
        "ms",
        mean(1) / 1e3,
        n,
        None,
        "core::translate_services, mean per input",
    );
    report.metric(
        "core.minimize_ms",
        "ms",
        mean(2) / 1e3,
        n,
        None,
        "core::minimize, mean per input",
    );
    report.metric(
        "graph.closure_ms",
        "ms",
        mean(3) / 1e3,
        n,
        None,
        format!("graph::interned_closure of the ASC at {threads} threads, mean per input"),
    );
    report.metric(
        "core.weave_us",
        "us",
        mean(4),
        n,
        None,
        "Weaver::run (threads auto), mean per input",
    );
    report.metric(
        "petri.compile_us",
        "us",
        mean(5),
        n,
        None,
        "CompiledValidation::compile, mean per input",
    );
    report.metric(
        "petri.validate_ms",
        "ms",
        mean(6) / 1e3,
        n,
        None,
        "CompiledValidation::run, mean per input",
    );
    report.metric(
        "petri.assignments_checked",
        "count",
        assignments as f64,
        n,
        None,
        "branch assignments validated, total over the inputs",
    );
    report.metric(
        "scheduler.derive_us",
        "us",
        mean(7),
        n,
        None,
        "ScheduleTables::derive, mean per input",
    );
    report.metric(
        "scheduler.run_us",
        "us",
        mean(8),
        n,
        None,
        "PreparedSchedule::run, mean per input",
    );
    report.metric(
        "scheduler.constraint_checks",
        "count",
        checks as f64,
        n,
        None,
        "constraint checks, total over the inputs",
    );
    report.metric(
        "bpel.emit_ms",
        "ms",
        mean(9) / 1e3,
        n,
        None,
        "bpel::emit_string of the minimal set, mean per input",
    );
    Ok(())
}

/// `WeaveSession::weave` per revision, given (base, revision) pairs or a
/// revision chain; reports the median and the delta-path share.
fn reweave_layer(report: &mut Report, chains: &[Vec<DependencySet>]) -> Result<(), String> {
    let mut times = Vec::new();
    let (mut delta, mut total) = (0usize, 0usize);
    for chain in chains {
        let mut session = Weaver::new().session();
        session
            .weave(&chain[0])
            .map_err(|e| format!("reweave base: {e}"))?;
        for rev in &chain[1..] {
            let (rep, us) = time_us(|| session.weave(rev));
            let rep = rep.map_err(|e| format!("reweave: {e}"))?;
            times.push(us / 1e3);
            total += 1;
            delta += matches!(rep.path, ReweavePath::Delta) as usize;
        }
    }
    let s = Samples::new(times);
    report.metric(
        "core.reweave_ms",
        "ms",
        s.median(),
        s.len(),
        None,
        "WeaveSession::weave per revision, median",
    );
    report.metric(
        "core.reweave_delta_ratio",
        "ratio",
        delta as f64 / total.max(1) as f64,
        total,
        None,
        "share of revisions that took the delta path",
    );
    Ok(())
}

/// `scheduler::monitor` on a fixture and its log: compile, ingest, and
/// resident bytes per live instance.
fn monitor_layer(
    report: &mut Report,
    fixture: &MonitorFixture,
    events: &[MonitorEvent],
    note: &str,
) {
    let mut compile = Vec::new();
    for _ in 0..20 {
        let (_, us) = time_us(|| MonitorProgram::compile(&fixture.cs, &fixture.conversations));
        compile.push(us / 1e3);
    }
    let mut state = MonitorState::new(
        &fixture.program,
        &MonitorConfig {
            threads: 0,
            shards: 0,
            capacity: 0,
        },
    );
    let t = Instant::now();
    for chunk in events.chunks(vertical::INGEST_BATCH) {
        black_box(state.ingest(chunk));
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / events.len() as f64;
    let stats = state.stats();
    let compile = Samples::new(compile);
    report.metric(
        "monitor.compile_ms",
        "ms",
        compile.median(),
        compile.len(),
        None,
        format!("MonitorProgram::compile, median; {note}"),
    );
    report.metric(
        "monitor.ingest_ns_per_event",
        "ns",
        ns,
        events.len(),
        None,
        format!("MonitorState::ingest, whole log; {note}"),
    );
    report.metric(
        "monitor.bytes_per_instance",
        "B",
        stats.bytes as f64 / stats.peak_live.max(1) as f64,
        stats.peak_live,
        None,
        format!("MonitorState::stats bytes per live instance; {note}"),
    );
}

/// The monitor stand-in for the serve workloads, whose processes always
/// skip one branch and so cannot form a skip-free monitor stream.
fn serve_monitor(report: &mut Report, seed: u64) {
    let fixture = monitor_fixture(&vertical::monitor_scenario());
    let events = vertical::monitor_log(&fixture, SERVE_MONITOR_FLEET, seed);
    monitor_layer(report, &fixture, &events, "stand-in scenario log");
}

/// Serve-workload processes as pipeline inputs, each with a one-edit
/// revision for the re-weave layer.
fn serve_units(indices: &[usize]) -> (Vec<(Process, DependencySet)>, Vec<Vec<DependencySet>>) {
    let mut units = Vec::new();
    let mut chains = Vec::new();
    for (k, &i) in indices.iter().take(SERVE_UNITS).enumerate() {
        let text = proc_text(i);
        let process = parse_process(&text).expect("the process family parses");
        let ds = extract(&process);
        let edited = one_edit(&text, i, k % TAIL_BITS);
        let revised = extract(&parse_process(&edited).expect("one edit still parses"));
        chains.push(vec![ds.clone(), revised]);
        units.push((process, ds));
    }
    (units, chains)
}

/// Per-layer report for `serve_hot`.
pub fn serve_hot(
    run: &ServeRun,
    inputs: &HotInputs,
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    traced_end_to_end(report, run);
    registry_ratios(report, &run.delta);
    server_probes(report, &run.daemon)?;
    par_fanout(report);
    let registry = Registry::new(crate::serve::HOT_CACHE, 0);
    for text in &inputs.texts {
        registry
            .lookup_or_build(text)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let mut mix = HotMix::new(seed, 0, inputs.indices.len());
    let replay: Vec<(Vec<u8>, Request)> = (0..REPLAYS)
        .map(|_| {
            let (slot, op) = mix.next_request();
            let key = slot * 4 + op.slot();
            (
                inputs.wires[key].to_vec(),
                hot_request(op, inputs.indices[slot], &inputs.texts[slot]),
            )
        })
        .collect();
    let texts: Vec<String> = inputs
        .texts
        .iter()
        .take(SERVE_UNITS)
        .map(|t| t.to_string())
        .collect();
    let in_process = serve_layers(report, &replay, &registry, &texts);
    residual(report, &run.log, in_process);
    let (units, chains) = serve_units(&inputs.indices);
    pipeline_layers(report, &units)?;
    reweave_layer(report, &chains)?;
    serve_monitor(report, seed);
    Ok(())
}

/// Per-layer report for `serve_churn`.
pub fn serve_churn(
    run: &ServeRun,
    inputs: &ChurnInputs,
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    traced_end_to_end(report, run);
    registry_ratios(report, &run.delta);
    server_probes(report, &run.daemon)?;
    par_fanout(report);
    // Replay client 0's stream in order on a registry of the daemon's
    // capacity: the same hit/miss/evict sequence, minus the transport.
    let registry = Registry::new(crate::serve::CHURN_CACHE, 0);
    let replay: Vec<(Vec<u8>, Request)> = inputs.requests[0]
        .iter()
        .take(REPLAYS / 2)
        .map(|r| {
            let wire = wire::render("POST", &r.target, &r.text, true);
            let typed = match &r.base_text {
                None => Request::Weave {
                    text: r.text.clone(),
                },
                Some(_) => Request::Reweave {
                    text: r.text.clone(),
                    base: u64::from_str_radix(r.target.rsplit('=').next().unwrap_or(""), 16)
                        .expect("reweave targets carry a hex base"),
                },
            };
            (wire, typed)
        })
        .collect();
    let texts: Vec<String> = inputs.requests[0]
        .iter()
        .filter(|r| r.base_text.is_none())
        .take(SERVE_UNITS)
        .map(|r| r.text.clone())
        .collect();
    let in_process = serve_layers(report, &replay, &registry, &texts);
    residual(report, &run.log, in_process);
    let indices: Vec<usize> = crate::gen::pick_indices(seed, SERVE_UNITS);
    let (units, chains) = serve_units(&indices);
    pipeline_layers(report, &units)?;
    reweave_layer(report, &chains)?;
    serve_monitor(report, seed);
    Ok(())
}

/// Per-layer report for `vertical_batch`: the pipeline layers on the
/// batch, the re-weave sequence, the monitor log; the serve layers on the
/// batch's one `.proc` text (Purchasing) through a short-lived daemon.
pub fn vertical_batch(dscw: &Path, run: &VerticalRun, report: &mut Report) -> Result<(), String> {
    let lat = Samples::new(run.input_latencies_us());
    let rates = Samples::new(run.rates());
    report.metric(
        "trace.throughput_rps",
        "req/s",
        rates.median(),
        rates.len(),
        None,
        "this traced run's throughput_rps",
    );
    report.metric(
        "trace.latency_p50_us",
        "us",
        lat.percentile(50.0),
        lat.len(),
        Some(lat.beyond(50.0)),
        "this traced run's latency_p50_us",
    );
    report.metric(
        "trace.latency_p99_us",
        "us",
        lat.percentile(99.0),
        lat.len(),
        Some(lat.beyond(99.0)),
        "the slowest inputs' latency (median of their quiet passes)",
    );

    // The serve layers on the Purchasing text: a daemon driven keep-alive
    // with the same request, then the in-process replay.
    let daemon = Daemon::spawn(dscw, crate::serve::HOT_CACHE)?;
    let before = daemon.stats(None)?;
    let wire = wire::render("POST", "/v1/weave", PURCHASING_DSL, true);
    let expect = service::oneshot(
        &Request::Weave {
            text: PURCHASING_DSL.into(),
        },
        1,
    )
    .body;
    let mut log = ClientLog::default();
    let mut conn = Conn::open(daemon.addr()).map_err(|e| format!("probe: {e}"))?;
    for _ in 0..REPLAYS / 4 {
        let (reply, us) = time_us(|| conn.exchange(&wire));
        let reply = reply.map_err(|e| format!("purchasing weave: {e}"))?;
        report.check(reply.status == 200 && reply.body == expect, || {
            "daemon's Purchasing weave differs from the one-shot reference".into()
        });
        log.samples.push((0.0, us));
    }
    drop(conn);
    let delta = daemon.stats(Some(before.seq))?;
    registry_ratios(report, &delta);
    server_probes(report, &daemon)?;
    daemon.stop();
    par_fanout(report);
    let registry = Registry::new(16, 0);
    let replay: Vec<(Vec<u8>, Request)> = (0..REPLAYS / 4)
        .map(|_| {
            (
                wire.clone(),
                Request::Weave {
                    text: PURCHASING_DSL.into(),
                },
            )
        })
        .collect();
    let in_process = serve_layers(report, &replay, &registry, &[PURCHASING_DSL.to_string()]);
    residual(report, &log, in_process);

    let units: Vec<(Process, DependencySet)> = run
        .inputs
        .items
        .iter()
        .map(|i| (i.process.clone(), i.ds.clone()))
        .collect();
    pipeline_layers(report, &units)?;
    reweave_layer(report, std::slice::from_ref(&run.inputs.revisions))?;
    monitor_layer(
        report,
        &run.inputs.monitor,
        &run.inputs.events,
        "the workload's own log",
    );
    Ok(())
}
