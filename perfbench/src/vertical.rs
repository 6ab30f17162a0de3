//! `vertical_batch`: no daemon. A seeded batch through the one-shot
//! library path `dscw optimize/run` uses, an edit-burst sequence through
//! a `ReweaveSession`, and a monitor ingest of a generated event log.

use crate::report::Report;
use crate::stats::Samples;
use crate::steal;
use dscweaver::core::{DependencySet, Weaver, WeaverOutput};
use dscweaver::model::{parse_process, Construct, Process};
use dscweaver::scheduler::{
    oracle_verdicts, MonitorConfig, MonitorEvent, MonitorState, SimConfig, Verdict,
};
use dscweaver::vertical::{weave_dependencies, ReweaveSession, VerticalOutput};
use dscweaver::workloads::eventlog::{
    event_log, monitor_fixture, EventLogParams, MonitorFixture, MonitorScenarioParams,
};
use dscweaver::workloads::purchasing::PURCHASING_DSL;
use dscweaver::workloads::{
    dense_conditional, disjoint_conditional, edit_burst, fork_join, layered,
    purchasing_dependencies, DenseConditionalParams, DisjointConditionalParams, EditProfile,
    LayeredParams,
};
use dscweaver_prng::Rng;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Timed passes at least, however long they take.
pub const MIN_PASSES: usize = 3;
/// Edit-burst sizes of the re-weave sequence, applied cumulatively.
pub const BURSTS: [usize; 5] = [1, 2, 4, 8, 16];
/// Monitor fleet: 50k instances × 20 events = 1M events.
pub const FLEET: u32 = 50_000;
/// Monitor ingest batch.
pub const INGEST_BATCH: usize = 16_384;
/// One in this many monitor instances (plus every flagged one) is
/// replayed through the post-hoc oracle; the oracle costs about a
/// millisecond per instance, the whole fleet would take a minute.
pub const ORACLE_SAMPLE_EVERY: u32 = 64;

/// One batch input: a process (for BPEL activity kinds) and its
/// dependency set.
pub struct Item {
    /// Input name (generator and size).
    pub name: String,
    /// The process definition.
    pub process: Process,
    /// The dependency set woven.
    pub ds: DependencySet,
}

/// Everything `vertical_batch` reads, generated from the seed.
pub struct Inputs {
    /// The one-shot batch.
    pub items: Vec<Item>,
    /// The re-weave base (layered, n≈2003) and its revisions.
    pub revisions: Vec<DependencySet>,
    /// The compiled monitor scenario.
    pub monitor: MonitorFixture,
    /// The generated event log.
    pub events: Vec<MonitorEvent>,
}

/// Seeds for each generated input, drawn from the run seed.
struct Seeds(Rng);

impl Seeds {
    fn new(seed: u64) -> Seeds {
        Seeds(Rng::seed_from_u64(seed))
    }

    fn next(&mut self) -> u64 {
        self.0.next_u64() % 1_000_000
    }
}

fn synthetic(ds: DependencySet) -> Item {
    Item {
        name: ds.name.clone(),
        process: Process::new(ds.name.clone(), Construct::flow(Vec::new())),
        ds,
    }
}

/// The monitor scenario: 10 activities, 20 events per instance, so the
/// fleet size sets the stream length.
pub fn monitor_scenario() -> MonitorScenarioParams {
    MonitorScenarioParams {
        width: 2,
        depth: 3,
        redundant: 4,
        exclusive_pairs: 1,
        conversations: 1,
        seed: 41,
    }
}

/// A seeded monitor log over `fleet` instances with a few dozen injected
/// violations per kind.
pub fn monitor_log(fixture: &MonitorFixture, fleet: u32, seed: u64) -> Vec<MonitorEvent> {
    let rate = (20.0 / fleet as f64).min(0.04);
    event_log(
        &fixture.program,
        &fixture.base,
        &EventLogParams {
            instances: fleet,
            seed,
            ordering_rate: rate,
            exclusive_rate: rate,
            conversation_rate: rate,
            ..EventLogParams::default()
        },
    )
    .events
}

/// The set-up a user of the one-shot path pays: parse the Purchasing
/// process, build every batch input, compile the monitor and lay out
/// its event log. Returns the batch, the monitor fixture and the log.
pub fn set_up(seed: u64) -> (Vec<Item>, MonitorFixture, Vec<MonitorEvent>) {
    let mut seeds = Seeds::new(seed);
    let purchasing = Item {
        name: "purchasing".into(),
        process: parse_process(PURCHASING_DSL).expect("the Purchasing process parses"),
        ds: purchasing_dependencies(),
    };
    let mut items = vec![purchasing];
    for _ in 0..3 {
        items.push(synthetic(layered(&LayeredParams {
            width: 8,
            depth: 50,
            density: 0.25,
            redundant: 400,
            guards: 3,
            seed: seeds.next(),
        })));
    }
    items.push(synthetic(layered(&LayeredParams {
        width: 10,
        depth: 100,
        density: 0.25,
        redundant: 3_000,
        guards: 3,
        seed: seeds.next(),
    })));
    items.push(synthetic(dense_conditional(&DenseConditionalParams {
        guards: 9,
        chain_len: 12,
        redundant: 96,
        seed: seeds.next(),
    })));
    items.push(synthetic(disjoint_conditional(
        &DisjointConditionalParams {
            groups: 3,
            guards_per_group: 3,
            chain_len: 6,
            redundant: 24,
            seed: seeds.next(),
        },
    )));
    items.push(synthetic(fork_join(8, 10, 80, seeds.next())));
    let monitor = monitor_fixture(&monitor_scenario());
    let events = monitor_log(&monitor, FLEET, seeds.next());
    (items, monitor, events)
}

/// The re-weave sequence: a layered n≈2003 base, then each burst of
/// [`BURSTS`] applied on top of the previous revision. Generated once per
/// run, outside the set-up: `edit_burst`'s delete-site scan is quadratic
/// in the dependency count, which is the generator's cost, not the
/// program's.
pub fn revisions(seed: u64) -> Vec<DependencySet> {
    let mut seeds = Seeds::new(seed ^ 0x7e_a7e);
    let mut revision = layered(&LayeredParams {
        width: 20,
        depth: 100,
        density: 0.25,
        redundant: 2_000,
        guards: 3,
        seed: seeds.next(),
    });
    let mut revisions = vec![revision.clone()];
    let mut edits = Rng::seed_from_u64(seeds.next());
    for burst in BURSTS {
        edit_burst(&mut revision, &mut edits, burst, EditProfile::LevelStable);
        revisions.push(revision.clone());
    }
    revisions
}

/// The weaver every stage runs with: threads auto, as `dscw` defaults.
pub fn weaver() -> Weaver {
    Weaver::new()
}

/// Sorted rendering of a minimal set, for equality checks.
pub fn minimal_key(out: &WeaverOutput) -> Vec<String> {
    let mut kept: Vec<String> = out
        .minimal
        .happen_befores()
        .map(|r| r.to_string())
        .collect();
    kept.sort();
    kept
}

/// What one pass produced, for the cross-pass checks.
#[derive(Clone, Debug, PartialEq)]
pub struct PassDigest {
    /// Per item: (SC size, minimal size, assignments checked, BPEL bytes).
    pub items: Vec<(usize, usize, usize, usize)>,
    /// Per revision: minimal size.
    pub revisions: Vec<usize>,
    /// Verdict count and retired instances.
    pub monitor: (u64, u64),
}

/// One pass's timings.
pub struct PassTimes {
    /// Per item: weave → validate → simulate → verify → BPEL, seconds.
    pub items: Vec<f64>,
    /// The whole pass, seconds.
    pub total: f64,
    /// Host steal share during the pass.
    pub steal: f64,
}

fn run_item(item: &Item) -> Result<VerticalOutput, String> {
    weave_dependencies(&item.process, &item.ds, &weaver(), &SimConfig::default())
        .map_err(|e| format!("{}: {e}", item.name))
}

fn ingest(
    fixture: &MonitorFixture,
    events: &[MonitorEvent],
    collect: bool,
) -> (Vec<Verdict>, u64, u64) {
    let mut state = MonitorState::new(
        &fixture.program,
        &MonitorConfig {
            threads: 0,
            shards: 0,
            capacity: FLEET as usize,
        },
    );
    let mut verdicts = Vec::new();
    let mut count = 0u64;
    for chunk in events.chunks(INGEST_BATCH) {
        let v = state.ingest(chunk);
        count += v.len() as u64;
        if collect {
            verdicts.extend(v);
        }
    }
    let stats = state.stats();
    (verdicts, count, stats.retired)
}

/// One full pass: every batch item, the re-weave sequence, the monitor
/// ingest. With `check` set, every output is checked against its
/// reference (the paper's numbers, fresh weaves, the monitor oracle).
pub fn pass(
    inputs: &Inputs,
    mut check: Option<&mut Report>,
) -> Result<(PassTimes, PassDigest), String> {
    let t_pass = Instant::now();
    let ticks = steal::read();
    let mut times = PassTimes {
        items: Vec::new(),
        total: 0.0,
        steal: 0.0,
    };
    let mut digest = PassDigest {
        items: Vec::new(),
        revisions: Vec::new(),
        monitor: (0, 0),
    };
    for item in &inputs.items {
        let t = Instant::now();
        let out = run_item(item)?;
        times.items.push(t.elapsed().as_secs_f64());
        if !out.ok() {
            return Err(format!(
                "{}: vertical output not ok\n{}",
                item.name,
                out.report()
            ));
        }
        digest.items.push((
            out.weaver.sc.constraint_count(),
            out.weaver.minimal.constraint_count(),
            out.validation.assignments_checked,
            out.bpel.len(),
        ));
        if let Some(r) = check.as_deref_mut() {
            if item.name == "purchasing" {
                let (sc, min, removed) = (
                    out.weaver.sc.constraint_count(),
                    out.weaver.minimal.constraint_count(),
                    out.weaver.total_removed(),
                );
                r.check((sc, min, removed) == (40, 17, 23), || {
                    format!("purchasing: SC {sc}, P* {min}, removed {removed}; the paper has 40, 17, 23")
                });
            }
            r.check(out.bpel.contains("<flow"), || {
                format!("{}: BPEL has no flow", item.name)
            });
        }
    }
    let mut session = ReweaveSession::new(&weaver());
    for (k, rev) in inputs.revisions.iter().enumerate() {
        session
            .reweave(rev)
            .map_err(|e| format!("revision {k}: {e}"))?;
        let out = session.output().expect("a successful re-weave has output");
        digest.revisions.push(out.minimal.constraint_count());
        if let Some(r) = check.as_deref_mut() {
            // The reference runs sequentially: the result is the same
            // for every thread count, and one thread is the fast path on
            // small hosts.
            let fresh = Weaver {
                threads: 1,
                ..weaver()
            }
            .run(rev)
            .map_err(|e| format!("fresh revision {k}: {e}"))?;
            r.check(minimal_key(out) == minimal_key(&fresh), || {
                format!("revision {k}: re-woven minimal set differs from a fresh Weaver::run")
            });
        }
    }
    let (verdicts, count, retired) = ingest(&inputs.monitor, &inputs.events, check.is_some());
    digest.monitor = (count, retired);
    if let Some(r) = check {
        let (got, oracle) = sampled_oracle(&inputs.monitor, &inputs.events, verdicts);
        r.check(!got.is_empty() && got == oracle, || {
            format!(
                "monitor verdicts ({}) differ from scheduler::oracle_verdicts ({}) on the sampled instances",
                got.len(),
                oracle.len()
            )
        });
        r.check(retired == u64::from(FLEET), || {
            format!("monitor retired {retired} of {FLEET} instances")
        });
    }
    times.total = t_pass.elapsed().as_secs_f64();
    times.steal = steal::fraction(ticks, steal::read());
    Ok((times, digest))
}

/// The monitor's verdicts and the oracle's, both sorted, restricted to
/// every flagged instance plus one in [`ORACLE_SAMPLE_EVERY`] of the
/// rest. Verdicts are per instance, so the restriction is exact.
pub fn sampled_oracle(
    fixture: &MonitorFixture,
    events: &[MonitorEvent],
    mut verdicts: Vec<Verdict>,
) -> (Vec<Verdict>, Vec<Verdict>) {
    let flagged: std::collections::HashSet<_> = verdicts.iter().map(|v| v.instance).collect();
    let keep = |i: &dscweaver::scheduler::InstanceId| {
        flagged.contains(i) || i.is_multiple_of(ORACLE_SAMPLE_EVERY)
    };
    let sampled: Vec<MonitorEvent> = events
        .iter()
        .filter(|e| keep(&e.instance))
        .cloned()
        .collect();
    let oracle = oracle_verdicts(
        &fixture.program,
        &fixture.cs,
        &fixture.conversations,
        &sampled,
    );
    verdicts.retain(|v| keep(&v.instance));
    verdicts.sort();
    (verdicts, oracle)
}

/// A finished `vertical_batch` run.
pub struct VerticalRun {
    /// The inputs (for the traced probes).
    pub inputs: Inputs,
    /// Set-ups: seconds and host steal share.
    pub setups: Vec<(f64, f64)>,
    /// Timed passes.
    pub passes: Vec<PassTimes>,
    /// Peak RSS of this process, MiB.
    pub peak_rss_mb: f64,
}

/// Runs the workload: `SETUPS` set-ups, the re-weave revisions, one
/// checked pass, then timed passes until `seconds` have been measured
/// (at least `MIN_PASSES`).
pub fn vertical_batch(seed: u64, seconds: u64, report: &mut Report) -> Result<VerticalRun, String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let (t, ticks) = (Instant::now(), steal::read());
        let built = set_up(seed);
        setups.push((
            t.elapsed().as_secs_f64(),
            steal::fraction(ticks, steal::read()),
        ));
        kept = Some(built);
    }
    let (items, monitor, events) = kept.expect("at least one set-up");
    let inputs = Inputs {
        items,
        revisions: revisions(seed),
        monitor,
        events,
    };
    let (_, reference) = pass(&inputs, Some(report))?;
    let mut passes = Vec::new();
    let t0 = Instant::now();
    while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds as f64 {
        let (times, digest) = pass(&inputs, None)?;
        report.check(digest == reference, || {
            format!(
                "pass {} produced different outputs than the checked pass",
                passes.len()
            )
        });
        passes.push(times);
    }
    let ops = (inputs.items.len() + inputs.revisions.len() + 1) as u64;
    report.attempted += ops * (passes.len() as u64 + 1);
    report.fact("items", inputs.items.len().to_string());
    report.fact("revisions", (inputs.revisions.len() - 1).to_string());
    report.fact("monitor_events", inputs.events.len().to_string());
    report.fact("passes", passes.len().to_string());
    let steals: Vec<f64> = passes.iter().map(|p| p.steal).collect();
    report.fact(
        "steal_median_pct",
        format!("{:.2}", steal::median_pct(&steals)),
    );
    let peak_rss_mb = crate::daemon::peak_rss_mb("/proc/self/status")?;
    Ok(VerticalRun {
        inputs,
        setups,
        passes,
        peak_rss_mb,
    })
}

impl VerticalRun {
    /// The quiet passes: host steal at or below the run's median (see
    /// [`crate::steal`]).
    pub fn quiet_passes(&self) -> Vec<&PassTimes> {
        let keep = steal::quiet(&self.passes.iter().map(|p| p.steal).collect::<Vec<_>>());
        self.passes
            .iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|(p, _)| p)
            .collect()
    }

    /// One latency per batch input, µs: the median of its quiet passes,
    /// so a single slow pass cannot move the percentiles across inputs.
    pub fn input_latencies_us(&self) -> Vec<f64> {
        let passes = self.quiet_passes();
        (0..self.inputs.items.len())
            .map(|k| Samples::new(passes.iter().map(|p| p.items[k] * 1e6).collect()).median())
            .collect()
    }

    /// Pipeline runs per second of each quiet pass's batch.
    pub fn rates(&self) -> Vec<f64> {
        self.quiet_passes()
            .iter()
            .map(|p| p.items.len() as f64 / p.items.iter().sum::<f64>())
            .collect()
    }

    /// Reports the end-to-end metrics.
    pub fn end_to_end(&self, report: &mut Report) {
        let setups = steal::quiet_median(&self.setups);
        let lat = Samples::new(self.input_latencies_us());
        let rates = Samples::new(self.rates());
        let batch = Samples::new(self.quiet_passes().iter().map(|p| p.total).collect());
        report.metric(
            "setup_s",
            "s",
            setups,
            self.setups.len(),
            None,
            "set-up (parse and generate every input, compile the monitor), median over quiet set-ups",
        );
        report.metric(
            "throughput_rps",
            "req/s",
            rates.median(),
            rates.len(),
            None,
            "one-shot pipeline runs per second of the batch, median over quiet passes",
        );
        report.metric(
            "latency_p50_us",
            "us",
            lat.percentile(50.0),
            lat.len(),
            Some(lat.beyond(50.0)),
            format!(
                "per input (weave to BPEL, median of its quiet passes), exact rank across inputs (p99 {:.3})",
                lat.percentile(99.0)
            ),
        );
        report.metric(
            "peak_rss_mb",
            "MiB",
            self.peak_rss_mb,
            1,
            None,
            "benchmark process VmHWM (the pipeline runs in-process)",
        );
        report.metric(
            "batch_s",
            "s",
            batch.median(),
            batch.len(),
            None,
            "pass wall time (batch, re-weave sequence, monitor ingest), median over quiet passes",
        );
    }
}
