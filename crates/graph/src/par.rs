//! Shared persistent worker pool.
//!
//! Three phases of the pipeline are embarrassingly parallel behind a
//! deterministic merge: the initial annotated closure of §4.4
//! minimization (one topological level's rows at a time, in `iclosure`),
//! Petri-net validation (one independent maximal-step run per branch
//! assignment) and the DES scheduler's per-wavefront readiness
//! evaluation. All of them share this
//! module: chunked fork/join maps with a `threads: usize` knob following
//! one convention everywhere — `0` picks the machine's available
//! parallelism, `1` forces the fully sequential path, and the result is
//! bit-identical for any value.
//!
//! Behind the three entry points sits one process-wide pool of parked
//! threads, spawned lazily and never more than `available_parallelism − 1`
//! of them. A call splits its input into the same chunks or windows as
//! the thread count dictates, publishes them as one batch, and then
//! claims chunks from the batch's shared index alongside whichever pool
//! threads wake up; it returns once every chunk has finished. The caller
//! always takes part, so a call asking for more threads than the pool has
//! (or a pool that has none, on one core) still completes, just with less
//! overlap. Chunks borrow the caller's read-only snapshot directly (no
//! `Arc`, no channels), and a call with `threads <= 1` or a tiny input
//! never touches the pool, so sprinkling `par_map` on a cold path costs
//! nothing.
//!
//! A `par_*` call made from inside a pool thread runs its chunks inline,
//! in order, on that thread. Results are thread-count-independent by
//! contract, so this changes no output; it means no pool thread ever
//! blocks on another batch (no deadlock), and the set of threads that
//! ever run pipeline work — and so allocate compile artifacts, each with
//! its own malloc arena — stays bounded by the pool size plus the callers.
//!
//! A chunk that panics does not stop the batch: the remaining chunks
//! still run, and the first panic payload is then re-raised on the
//! caller, exactly as if the chunk had run there.
//!
//! When the global `dscweaver-obs` recorder is on, each chunk runs on the
//! stable `worker-{slot}` trace lane (its chunk index) wrapped in a span
//! (`par.map.chunk` / `par.range.window` / `par.shard.chunk`), and its
//! thread's events are flushed when the chunk ends, so a Chrome-trace
//! export shows one row per slot with the fork/join structure of every
//! parallel phase, and a snapshot taken right after the call sees all of
//! it. Disabled, this costs a relaxed atomic load and two thread-local
//! reads per chunk.
//!
//! ```
//! use dscweaver_graph::{par_map, par_ranges};
//!
//! let xs: Vec<u64> = (0..100).collect();
//! // Output order matches input order for any thread count.
//! assert_eq!(par_map(4, &xs, &|x| x * x), par_map(1, &xs, &|x| x * x));
//!
//! // Deterministic contiguous windows over 0..n, merged positionally.
//! let sums = par_ranges(3, 100, &|r| r.map(|i| i as u64).sum::<u64>());
//! assert_eq!(sums.len(), 3);
//! assert_eq!(sums.iter().sum::<u64>(), 4950);
//! ```

use dscweaver_obs as obs;
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Resolves a user-facing thread knob: `0` picks the machine's available
/// parallelism (capped at `cap` — the row/assignment work saturates well
/// before large core counts), anything else is taken literally.
pub fn effective_threads(threads: usize, cap: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(cap.max(1))
}

/// Chunked parallel map on the pool. Falls back to a plain sequential
/// map for one thread, tiny inputs, or a call from inside a pool thread.
/// Output order matches input order regardless of thread count.
pub fn par_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: &(impl Fn(&T) -> R + Sync),
) -> Vec<R> {
    if threads <= 1 || items.len() <= 1 || in_pool() {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    run_batch(
        items.chunks(chunk).zip(out.chunks_mut(chunk)).collect(),
        &|_, (ichunk, ochunk): (&[T], &mut [Option<R>])| {
            let _span = obs::span_with("par.map.chunk", || format!("len={}", ichunk.len()));
            for (item, slot) in ichunk.iter().zip(ochunk.iter_mut()) {
                *slot = Some(f(item));
            }
        },
    );
    out.into_iter()
        .map(|r| r.expect("every chunk filled its slots"))
        .collect()
}

/// Splits `0..n` into at most `threads` contiguous windows and maps each
/// as one pool chunk, returning the per-window results in window order.
/// The deterministic window layout (equal-sized, remainder spread over
/// the leading windows) makes the concatenated result independent of the
/// thread count, so callers can merge worker outputs positionally — e.g.
/// branch-assignment validation keeps its failures in
/// assignment-lexicographic order by construction.
pub fn par_ranges<R: Send>(
    threads: usize,
    n: usize,
    f: &(impl Fn(std::ops::Range<usize>) -> R + Sync),
) -> Vec<R> {
    let windows = windows_of(threads, n);
    if threads <= 1 || windows.len() <= 1 || in_pool() {
        return windows.into_iter().map(f).collect();
    }
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None)
        .take(windows.len())
        .collect();
    run_batch(
        windows.into_iter().zip(out.iter_mut()).collect(),
        &|_, (w, slot): (std::ops::Range<usize>, &mut Option<R>)| {
            let _span = obs::span_with("par.range.window", || format!("{}..{}", w.start, w.end));
            *slot = Some(f(w));
        },
    );
    out.into_iter()
        .map(|r| r.expect("every window filled its slot"))
        .collect()
}

/// Chunked parallel map over *mutable* shards: each chunk owns a
/// contiguous run of `shards` exclusively for the duration of the call,
/// so shard state can be advanced in place without locks. The per-shard
/// results come back in shard order regardless of the thread count, which
/// keeps a positional merge deterministic — the streaming conformance
/// monitor relies on this for its batch-ingest fan-out. `f` receives the
/// shard's index alongside the shard so workers can look up read-only
/// side tables (e.g. per-shard routing lists) without capturing them
/// mutably.
///
/// Falls back to a plain sequential loop for `threads <= 1`, a single
/// shard, or a call from inside a pool thread; like [`par_map`], the
/// result is bit-identical either way.
pub fn par_shards<T: Send, R: Send>(
    threads: usize,
    shards: &mut [T],
    f: &(impl Fn(usize, &mut T) -> R + Sync),
) -> Vec<R> {
    if threads <= 1 || shards.len() <= 1 || in_pool() {
        return shards
            .iter_mut()
            .enumerate()
            .map(|(i, s)| f(i, s))
            .collect();
    }
    let chunk = shards.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(shards.len()).collect();
    run_batch(
        shards
            .chunks_mut(chunk)
            .zip(out.chunks_mut(chunk))
            .collect(),
        &|wslot, (ichunk, ochunk): (&mut [T], &mut [Option<R>])| {
            let _span = obs::span_with("par.shard.chunk", || format!("len={}", ichunk.len()));
            for (i, (shard, slot)) in ichunk.iter_mut().zip(ochunk.iter_mut()).enumerate() {
                *slot = Some(f(wslot * chunk + i, shard));
            }
        },
    );
    out.into_iter()
        .map(|r| r.expect("every chunk filled its slots"))
        .collect()
}

/// The contiguous window layout used by [`par_ranges`]: `min(threads, n)`
/// windows covering `0..n`, sizes differing by at most one, remainder on
/// the leading windows. Empty for `n == 0`.
pub fn windows_of(threads: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let k = threads.max(1).min(n);
    let base = n / k;
    let rem = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

thread_local! {
    /// Set once on each pool thread; `par_*` calls made there run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Runs `f(slot, task)` once for every task, slot = the task's index, on
/// the pool with the caller taking part; returns when all have finished
/// and re-raises the first chunk panic, if any.
fn run_batch<W: Send>(tasks: Vec<W>, f: &(impl Fn(usize, W) + Sync)) {
    let slots: Vec<Mutex<Option<W>>> = tasks.into_iter().map(|w| Mutex::new(Some(w))).collect();
    let run = |i: usize| {
        let task = lock(&slots[i])
            .take()
            .expect("each chunk index is claimed once");
        f(i, task);
    };
    let batch = Arc::new(Batch::new(&run, slots.len()));
    let pool = pool();
    let offered = pool.offer(&batch);
    // Nothing from here to `wait` can unwind: `work` catches chunk
    // panics and every lock recovers from poisoning. That is what keeps
    // `run` (and the borrows in `slots` and `f`) alive for as long as
    // any thread may call it.
    batch.work();
    if offered {
        pool.withdraw(&batch);
    }
    batch.wait();
    let payload = lock(&batch.panic).take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// A mutex guard regardless of poisoning. Pool state is valid at every
/// step (no code panics while holding these locks), so a poisoned lock
/// carries no torn data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The chunk runner of one batch, its lifetime erased so pool threads can
/// hold the batch.
type Chunk = dyn Fn(usize) + Sync;

/// One published `par_*` call: `chunks` indices handed out through
/// `next`, each run once by whichever thread claims it.
struct Batch {
    /// Points at a closure on the caller's stack. Only dereferenced after
    /// claiming an index below `chunks`; see `run_batch` for why it is
    /// alive then.
    run: *const Chunk,
    chunks: usize,
    next: AtomicUsize,
    finished: Mutex<usize>,
    all_finished: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `run` points at a `Sync` closure, so calling it from several
// threads at once is allowed; it is only called for a claimed index, and
// the caller that owns the closure does not return before every claimed
// index has finished (`Batch::wait`), with every index claimed by then
// (`Batch::work` on the caller drains `next`). All other fields are
// `Send + Sync` std types.
unsafe impl Send for Batch {}
// SAFETY: as for `Send`.
unsafe impl Sync for Batch {}

impl Batch {
    fn new<'a>(run: &'a (dyn Fn(usize) + Sync + 'a), chunks: usize) -> Batch {
        // SAFETY: only the trait object's lifetime bound changes; the
        // pointer and its vtable are the same. `Batch`'s safety comment
        // says why it is never dereferenced after `'a`.
        let run: *const Chunk =
            unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + 'a), *const Chunk>(run) };
        Batch {
            run,
            chunks,
            next: AtomicUsize::new(0),
            finished: Mutex::new(0),
            all_finished: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn drained(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.chunks
    }

    /// Claims and runs chunks until none is left. Never unwinds: a chunk
    /// panic is stored (the first one wins) and the loop goes on.
    fn work(&self) {
        loop {
            // Relaxed: the index only distributes work; the closure and
            // its data were published through the pool queue's mutex (or
            // belong to this thread), and results are published through
            // `finished`'s mutex.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            // SAFETY: `i < chunks` was claimed by this thread, so the
            // caller is still inside `run_batch` (see `Batch`).
            let run = unsafe { &*self.run };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                let _lane = obs::worker_lane(i);
                run(i);
            }));
            obs::flush_thread();
            if let Err(payload) = outcome {
                lock(&self.panic).get_or_insert(payload);
            }
            let mut finished = lock(&self.finished);
            *finished += 1;
            if *finished == self.chunks {
                self.all_finished.notify_all();
            }
        }
    }

    /// Blocks until every chunk has finished.
    fn wait(&self) {
        let mut finished = lock(&self.finished);
        while *finished < self.chunks {
            finished = self
                .all_finished
                .wait(finished)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The process-wide pool: a queue of published batches and the parked
/// threads that drain it.
struct Pool {
    state: Mutex<PoolState>,
    wake: Condvar,
    max_threads: usize,
}

struct PoolState {
    batches: VecDeque<Arc<Batch>>,
    threads: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            batches: VecDeque::new(),
            threads: 0,
        }),
        wake: Condvar::new(),
        max_threads: std::thread::available_parallelism().map_or(1, |n| n.get()) - 1,
    })
}

impl Pool {
    /// Publishes `batch` for up to `chunks − 1` helpers, spawning pool
    /// threads up to that many (within the cap) first. Returns whether
    /// the batch was queued (`false` when the pool has no threads).
    fn offer(&self, batch: &Arc<Batch>) -> bool {
        let helpers = (batch.chunks - 1).min(self.max_threads);
        let mut state = lock(&self.state);
        while state.threads < helpers {
            let spawned = std::thread::Builder::new()
                .name(format!("dscw-pool-{}", state.threads))
                .spawn(|| pool().serve());
            if spawned.is_err() {
                break;
            }
            state.threads += 1;
        }
        let helpers = helpers.min(state.threads);
        if helpers == 0 {
            return false;
        }
        state.batches.push_back(batch.clone());
        drop(state);
        for _ in 0..helpers {
            self.wake.notify_one();
        }
        true
    }

    /// Drops `batch` from the queue once its caller has drained it.
    fn withdraw(&self, batch: &Arc<Batch>) {
        lock(&self.state).batches.retain(|b| !Arc::ptr_eq(b, batch));
    }

    /// A pool thread's life: park until a batch is queued, help drain
    /// it, repeat. Pool threads live as long as the process; they never
    /// unwind, because `Batch::work` catches chunk panics.
    fn serve(&self) {
        IN_POOL.with(|p| p.set(true));
        loop {
            let batch = {
                let mut state = lock(&self.state);
                loop {
                    while state.batches.front().is_some_and(|b| b.drained()) {
                        state.batches.pop_front();
                    }
                    if let Some(b) = state.batches.front() {
                        break b.clone();
                    }
                    state = self
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            batch.work();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [0usize, 1, 2, 3, 7, 100, 1000] {
            let got = par_map(threads, &items, &|&x| x * x + 1);
            assert_eq!(got, expect, "threads {threads}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, &|&x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], &|&x| x + 1), vec![8]);
    }

    #[test]
    fn par_shards_mutates_in_place_and_merges_in_shard_order() {
        for threads in [0usize, 1, 2, 3, 7, 64] {
            let mut shards: Vec<Vec<u64>> = (0..9).map(|i| vec![i]).collect();
            let sums = par_shards(threads, &mut shards, &|i, s: &mut Vec<u64>| {
                s.push(i as u64 * 10);
                s.iter().sum::<u64>()
            });
            let expect: Vec<u64> = (0..9u64).map(|i| i + i * 10).collect();
            assert_eq!(sums, expect, "threads {threads}");
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s, &vec![i as u64, i as u64 * 10], "shard {i} mutated once");
            }
        }
    }

    #[test]
    fn windows_cover_exactly_once() {
        for threads in 1..8 {
            for n in 0..50 {
                let ws = windows_of(threads, n);
                let mut covered = Vec::new();
                for w in &ws {
                    covered.extend(w.clone());
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "t={threads} n={n}");
                if n > 0 {
                    assert_eq!(ws.len(), threads.min(n));
                    let sizes: Vec<usize> = ws.iter().map(|w| w.len()).collect();
                    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(max - min <= 1, "balanced: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn par_ranges_concatenation_is_thread_count_independent() {
        let collect = |threads: usize| -> Vec<usize> {
            par_ranges(threads, 37, &|r| r.map(|i| i * 3).collect::<Vec<_>>())
                .into_iter()
                .flatten()
                .collect()
        };
        // NOTE: window *boundaries* differ with the thread count; only the
        // concatenation is pinned.
        let expect = collect(1);
        for threads in [2usize, 3, 5, 64] {
            assert_eq!(collect(threads), expect, "threads {threads}");
        }
    }

    #[test]
    fn effective_threads_convention() {
        assert_eq!(effective_threads(3, 8), 3);
        assert_eq!(effective_threads(1, 8), 1);
        assert!(effective_threads(0, 8) >= 1);
        assert!(effective_threads(0, 2) <= 2);
    }
}
