//! In-repo tracing and metrics for the dscweaver pipeline.
//!
//! The build is fully offline, so this crate replaces `tracing` +
//! `tracing-chrome` with the ~5% of their surface the pipeline needs:
//!
//! * a **global recorder** toggled at runtime ([`set_enabled`]) — every
//!   instrumentation point is a single relaxed atomic flag-byte load when
//!   recording is off, so the engines can stay instrumented permanently;
//! * **hierarchical spans** ([`span`] / [`span_with`]) and **instant
//!   events** ([`instant`]) buffered in thread-local vectors (no lock on
//!   the hot path) and flushed wholesale when a snapshot is taken — pool
//!   chunks flush explicitly ([`flush_thread`]) before their fork/join
//!   call returns;
//! * **worker lanes** ([`worker_lane`]): the shared pool in `graph::par`
//!   runs each chunk on a stable `worker-{slot}` lane so traces show one
//!   row per pool slot, reused across sequential fork/join calls;
//! * a **counter/gauge registry** ([`counter_add`] / [`gauge_set`]) that
//!   absorbs the engines' existing telemetry (pool sizes, cache hit
//!   rates, assignment counts) into the same snapshot;
//! * a **metrics plane** that can run without span buffering
//!   ([`set_metrics_enabled`]): lock-free log₂ latency **histograms**
//!   ([`hist`], registered via [`histogram`]), read non-destructively by
//!   [`metrics_snapshot`] and rendered as Prometheus text exposition by
//!   [`prom::render`] — what a long-lived daemon serves on `/metrics`;
//! * two sinks on [`TraceSnapshot`]: Chrome trace-event JSON
//!   ([`TraceSnapshot::to_chrome_json`], loadable in Perfetto or
//!   `chrome://tracing`) and a per-phase text table
//!   ([`TraceSnapshot::summary`]).
//!
//! See `OBSERVABILITY.md` at the repository root for the span taxonomy
//! and sink formats.
//!
//! ```
//! use dscweaver_obs as obs;
//!
//! let _serial = obs::test_lock(); // the recorder is global
//! let (value, snap) = obs::record_with(|| {
//!     let _outer = obs::span("outer");
//!     {
//!         let _inner = obs::span_with("inner", || "detail".to_string());
//!         obs::counter_add("work.items", 3);
//!     }
//!     42
//! });
//! assert_eq!(value, 42);
//! let totals = snap.phase_totals();
//! assert_eq!(totals.len(), 2); // outer + inner, both balanced
//! assert_eq!(snap.counters().get("work.items"), Some(&3));
//! assert!(snap.to_chrome_json().starts_with("{\"traceEvents\":["));
//!
//! // Disabled recorder: nothing recorded, output byte-stable.
//! let _noop = obs::span("ignored");
//! drop(_noop);
//! let empty = obs::take();
//! assert_eq!(empty.to_chrome_json(), obs::TraceSnapshot::EMPTY_CHROME_JSON);
//! ```

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod prom;
mod snapshot;

pub use hist::{histogram, Histogram, HistogramSnapshot};
pub use snapshot::{PhaseTotal, TraceSnapshot};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Recorder flag bit: hierarchical span/event tracing (buffered, drained
/// by [`take`]).
const FLAG_TRACE: u8 = 1;
/// Recorder flag bit: the metrics plane (counters, gauges, histograms —
/// cumulative, read without draining via [`metrics_snapshot`]).
const FLAG_METRICS: u8 = 2;

static FLAGS: AtomicU8 = AtomicU8::new(0);

/// Whether span/event tracing is currently on. A single relaxed atomic
/// load — this is the entire cost of an instrumentation point while
/// recording is disabled.
#[inline]
pub fn enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & FLAG_TRACE != 0
}

/// Whether the metrics plane (counters, gauges, histograms) is currently
/// on. Like [`enabled`], a single relaxed atomic load per probe when off.
///
/// Metrics can be enabled on their own ([`set_metrics_enabled`]) without
/// turning on span buffering — the mode a long-running daemon serves
/// `/metrics` in, since cumulative metrics are bounded while buffered
/// spans grow until drained.
#[inline]
pub fn metrics_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & FLAG_METRICS != 0
}

/// Turns the global recorder on or off — both the tracing and the
/// metrics plane. Spans opened while the recorder was on still record
/// their end after it is turned off, so phase totals stay balanced
/// across a toggle.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before the first event so timestamps are
        // monotonic from the moment recording starts.
        let _ = epoch();
    }
    let flags = if on { FLAG_TRACE | FLAG_METRICS } else { 0 };
    FLAGS.store(flags, Ordering::Relaxed);
}

/// Turns the metrics plane (counters, gauges, histograms) on or off
/// without touching span tracing. Safe to leave on for the lifetime of a
/// daemon: metrics are fixed-size cumulative cells, not buffers.
pub fn set_metrics_enabled(on: bool) {
    if on {
        FLAGS.fetch_or(FLAG_METRICS, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!FLAG_METRICS, Ordering::Relaxed);
    }
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// What a recorded [`Event`] marks: the start of a span, its end, or a
/// zero-duration instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened ([`span`] / [`span_with`]).
    Begin,
    /// The matching span closed (its guard dropped).
    End,
    /// A point event with no duration ([`instant`]).
    Instant,
}

/// One recorded trace event. Events are buffered per thread and carry the
/// lane they were recorded on, so snapshots can rebuild per-lane span
/// stacks regardless of flush order.
#[derive(Clone, Debug)]
pub struct Event {
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Static span or event name (the span taxonomy in OBSERVABILITY.md).
    pub name: &'static str,
    /// Optional dynamic payload, only materialized while recording.
    pub detail: Option<Box<str>>,
    /// Lane index; resolve with [`TraceSnapshot::lane_name`].
    pub lane: u32,
    /// Nanoseconds since the recorder epoch.
    pub ts_ns: u64,
}

struct Registry {
    events: Mutex<Vec<Event>>,
    lanes: Mutex<Vec<String>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        events: Mutex::new(Vec::new()),
        lanes: Mutex::new(vec!["main".to_string()]),
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct ThreadBuf {
    lane: u32,
    buf: Vec<Event>,
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        // Safety net only: a fork/join call waits for its chunks, not
        // for any thread's TLS teardown (pool threads never exit), so a
        // drop-flush would land after the call returns (and after a
        // snapshot was taken). Pool chunks therefore call `flush_thread`
        // explicitly when they end; this catches plain detached threads.
        if !self.buf.is_empty() {
            lock(&registry().events).append(&mut self.buf);
        }
    }
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = const {
        RefCell::new(ThreadBuf { lane: 0, buf: Vec::new() })
    };
}

fn push_event(kind: EventKind, name: &'static str, detail: Option<Box<str>>) {
    let ts_ns = now_ns();
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let lane = t.lane;
        t.buf.push(Event { kind, name, detail, lane, ts_ns });
    });
}

/// A RAII span guard: records `Begin` when created via [`span`] /
/// [`span_with`] while the recorder is on, and always records the
/// matching `End` on drop once armed — even if recording was switched off
/// in between — so span stacks stay balanced.
#[must_use = "a span records its duration when dropped; binding it to _ closes it immediately"]
pub struct Span {
    name: &'static str,
    armed: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            push_event(EventKind::End, self.name, None);
        }
    }
}

/// Opens a named span on the current thread's lane. No-op (and no
/// allocation) while the recorder is disabled.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { name, armed: false };
    }
    push_event(EventKind::Begin, name, None);
    Span { name, armed: true }
}

/// Like [`span`], with a lazily-built detail string that is only
/// materialized while the recorder is on.
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span { name, armed: false };
    }
    push_event(EventKind::Begin, name, Some(detail().into_boxed_str()));
    Span { name, armed: true }
}

/// Records a zero-duration instant event. No-op while disabled.
pub fn instant(name: &'static str) {
    if enabled() {
        push_event(EventKind::Instant, name, None);
    }
}

/// Like [`instant`], with a lazily-built detail string.
pub fn instant_with(name: &'static str, detail: impl FnOnce() -> String) {
    if enabled() {
        push_event(EventKind::Instant, name, Some(detail().into_boxed_str()));
    }
}

/// Adds `delta` to a named monotonic counter. No-op while the metrics
/// plane is disabled.
pub fn counter_add(name: &'static str, delta: u64) {
    if !metrics_enabled() {
        return;
    }
    *lock(&registry().counters).entry(name).or_insert(0) += delta;
}

/// Sets a named gauge to `value` (last write wins). No-op while the
/// metrics plane is disabled.
pub fn gauge_set(name: &'static str, value: f64) {
    if !metrics_enabled() {
        return;
    }
    lock(&registry().gauges).insert(name, value);
}

/// A non-draining view of the metrics plane: current counter and gauge
/// values plus a snapshot of every registered histogram. This is what
/// `/metrics` exposition renders ([`prom::render`]) — unlike [`take`],
/// reading it leaves the cumulative metrics in place, so consecutive
/// scrapes see monotonic counters.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// One snapshot per registered histogram, sorted by name.
    pub hists: Vec<(&'static str, HistogramSnapshot)>,
}

/// Takes a [`MetricsSnapshot`] of the metrics plane without draining it.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let r = registry();
    MetricsSnapshot {
        counters: lock(&r.counters).clone(),
        gauges: lock(&r.gauges).clone(),
        hists: hist::snapshot_all(),
    }
}

/// Restores the previous lane of the thread that called [`worker_lane`].
#[must_use = "dropping the guard restores the previous lane"]
pub struct LaneGuard {
    prev: u32,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        TLS.with(|t| t.borrow_mut().lane = self.prev);
    }
}

/// Routes the current thread's events onto the stable `worker-{slot}`
/// lane until the returned guard drops. Lane indices are interned
/// globally, so slot 0 of every sequential fork/join scope shares one
/// trace row. No-op while the recorder is disabled.
pub fn worker_lane(slot: usize) -> LaneGuard {
    let prev = TLS.with(|t| t.borrow().lane);
    if !enabled() {
        return LaneGuard { prev };
    }
    let id = intern_lane(&format!("worker-{slot}"));
    TLS.with(|t| t.borrow_mut().lane = id);
    LaneGuard { prev }
}

fn intern_lane(name: &str) -> u32 {
    let mut lanes = lock(&registry().lanes);
    if let Some(i) = lanes.iter().position(|l| l == name) {
        return i as u32;
    }
    lanes.push(name.to_string());
    (lanes.len() - 1) as u32
}

/// Flushes the current thread's buffered events into the global sink.
/// Called automatically by [`take`] for the calling thread. Pool chunks
/// must call this when they end: a fork/join call waits for its chunks,
/// not for thread teardown (pool threads live as long as the process),
/// so relying on the thread-exit flush would miss a snapshot taken right
/// after the call.
pub fn flush_thread() {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if !t.buf.is_empty() {
            lock(&registry().events).append(&mut t.buf);
        }
    });
}

/// Drains everything recorded so far — events, counters, gauges — into a
/// [`TraceSnapshot`], leaving the recorder empty (but not toggling it).
/// Events are stably sorted by timestamp, which preserves per-lane
/// recording order.
pub fn take() -> TraceSnapshot {
    flush_thread();
    let r = registry();
    let mut events = std::mem::take(&mut *lock(&r.events));
    let lanes = lock(&r.lanes).clone();
    let counters = std::mem::take(&mut *lock(&r.counters));
    let gauges = std::mem::take(&mut *lock(&r.gauges));
    events.sort_by_key(|e| e.ts_ns);
    TraceSnapshot::from_parts(events, lanes, counters, gauges)
}

/// Runs `f` with the recorder enabled and returns its result together
/// with a snapshot of exactly what `f` recorded. Any events pending from
/// before the call are discarded, and the previous enabled/disabled state
/// is restored afterwards.
pub fn record_with<T>(f: impl FnOnce() -> T) -> (T, TraceSnapshot) {
    let prev = FLAGS.load(Ordering::Relaxed);
    set_enabled(true);
    drop(take()); // isolate: clear anything recorded before `f`
    let out = f();
    let snap = take();
    FLAGS.store(prev, Ordering::Relaxed);
    (out, snap)
}

/// Serializes tests that exercise the global recorder. Lock this first in
/// every `#[test]` that calls [`set_enabled`] / [`take`] /
/// [`record_with`]; the guard survives poisoning so one failing test does
/// not cascade.
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
