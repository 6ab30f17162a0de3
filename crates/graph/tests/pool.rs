//! Properties of the persistent `par` pool: concurrent callers and nested
//! calls get the sequential results without deadlock, the pool never
//! grows past the machine's parallelism, and a panicking chunk reaches
//! its caller without breaking the pool for the next call.

use dscweaver_graph::{par_map, par_ranges, par_shards};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

/// Live threads of this process named as pool threads (`0` where
/// `/proc` is unavailable).
fn pool_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("dscw-pool"))
        .count()
}

/// One caller's mixed workload at `threads`; every closure nests a
/// further `par_map` at the same thread count.
fn workload(threads: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<Vec<u64>>) {
    let inner: Vec<u64> = (0..9).collect();
    let nested = |x: u64| -> u64 { par_map(threads, &inner, &|y| x * 31 + y).iter().sum() };
    let items: Vec<u64> = (0..61).collect();
    let mapped = par_map(threads, &items, &|&x| nested(x));
    let ranged: Vec<u64> = par_ranges(threads, 47, &|r| {
        r.map(|i| nested(i as u64)).collect::<Vec<u64>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let mut shards: Vec<Vec<u64>> = (0..13).map(|i| vec![i]).collect();
    let sharded = par_shards(threads, &mut shards, &|i, s: &mut Vec<u64>| {
        s.push(nested(i as u64));
        s.iter().sum::<u64>()
    });
    (mapped, ranged, sharded, shards)
}

#[test]
fn concurrent_nested_calls_match_sequential_within_the_thread_cap() {
    let cap = std::thread::available_parallelism().map_or(1, |n| n.get());
    let expect = workload(1);
    let callers = 4;
    let start = Arc::new(Barrier::new(callers));
    let running = Arc::new(AtomicBool::new(true));
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let (running, peak) = (running.clone(), peak.clone());
        std::thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                peak.fetch_max(pool_threads(), Ordering::Relaxed);
                std::thread::yield_now();
            }
        })
    };
    let (done_tx, done_rx) = mpsc::channel();
    for c in 0..callers {
        let (start, done_tx, expect) = (start.clone(), done_tx.clone(), expect.clone());
        std::thread::spawn(move || {
            start.wait();
            for round in 0..100 {
                for threads in [2usize, 3, 8] {
                    assert_eq!(
                        workload(threads),
                        expect,
                        "caller {c}, round {round}, threads {threads}"
                    );
                }
            }
            done_tx.send(c).expect("the test thread is waiting");
        });
    }
    for _ in 0..callers {
        // A dead caller (failed assert) drops its sender without sending;
        // a deadlocked one times out.
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("every caller finishes: no deadlock and no failed comparison");
    }
    running.store(false, Ordering::Relaxed);
    sampler.join().expect("sampler never panics");
    let peak = peak.load(Ordering::Relaxed).max(pool_threads());
    assert!(peak <= cap, "{peak} pool threads on a {cap}-way machine");
}

#[test]
fn a_chunk_panic_reaches_the_caller_and_the_pool_keeps_working() {
    let items: Vec<u64> = (0..40).collect();
    let ran = AtomicUsize::new(0);
    let caught = std::panic::catch_unwind(|| {
        par_map(4, &items, &|&x| {
            if x == 13 {
                panic!("item {x} exploded");
            }
            ran.fetch_add(1, Ordering::Relaxed);
            x
        })
    })
    .expect_err("the panic propagates to the caller");
    assert_eq!(
        caught.downcast_ref::<String>().map(String::as_str),
        Some("item 13 exploded"),
        "the original payload arrives"
    );
    // The batch finished: the other three chunks of ten ran whole, and
    // the panicking chunk (items 10..20) got as far as item 13.
    assert_eq!(ran.load(Ordering::Relaxed), 30 + 3);

    let expect: Vec<u64> = items.iter().map(|x| x * 7).collect();
    for threads in [2usize, 4, 8] {
        assert_eq!(
            par_map(threads, &items, &|x| x * 7),
            expect,
            "threads {threads}"
        );
        let windows: Vec<u64> = par_ranges(threads, items.len(), &|r| {
            r.map(|i| items[i] * 7).collect::<Vec<u64>>()
        })
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(windows, expect, "threads {threads}");
    }
}
