//! The optimized minimizer (interned annotations + bitset prefilters +
//! a level-parallel initial closure) must be **edge-for-edge identical**
//! to the sequential structural reference implementation
//! (`dscweaver_bench::oracle::minimize_generic_baseline`) — same removals, in the
//! same order — for every equivalence mode, removal order, and thread
//! count, on arbitrary layered / fork-join workloads with conditional
//! constraints. Determinism across thread counts is the key property: the
//! only parallel phase is the closure build, which is bit-identical at
//! every thread count, and the greedy loop runs sequentially, so neither
//! the decisions nor the interning telemetry can depend on scheduling.
//!
//! Every test here holds `obs::test_lock`: one of them records a trace,
//! and the recorder is process-global, so a minimizer run on a concurrent
//! test thread would otherwise leak its spans into that trace.

use dscweaver::core::{
    merge, minimize, minimize_generic, minimize_generic_with, minimize_unconditional_fast,
    translate_services, EdgeOrder, EquivalenceMode, ExecConditions, MinimizeOptions,
    MinimizeResult,
};
use dscweaver::dscl::{Condition, ConstraintSet, Origin, Relation, StateRef};
use dscweaver::obs::{self, EventKind};
use dscweaver::workloads::{
    dense_conditional, fork_join, layered, DenseConditionalParams, LayeredParams,
};
use dscweaver_bench::oracle::minimize_generic_baseline;
use dscweaver_prng::Rng;

fn prepared(ds: &dscweaver::core::DependencySet) -> (ConstraintSet, ExecConditions) {
    let mut sc = merge(ds);
    sc.desugar_happen_together();
    let exec = ExecConditions::derive(&sc);
    let (asc, _) = translate_services(&sc);
    (asc, exec)
}

fn removed_list(r: &dscweaver::core::MinimizeResult) -> Vec<String> {
    r.removed.iter().map(|x| x.to_string()).collect()
}

const MODES: [EquivalenceMode; 3] = [
    EquivalenceMode::Strict,
    EquivalenceMode::ExecutionAware,
    EquivalenceMode::Reachability,
];

fn orders() -> [EdgeOrder; 3] {
    [EdgeOrder::Given, EdgeOrder::ReverseGiven, EdgeOrder::default()]
}

/// Engine ≡ baseline on layered DAGs with conditional (guarded) edges,
/// across every mode × order × thread count.
#[test]
fn engine_matches_baseline_on_conditional_layered() {
    let _serial = obs::test_lock();
    let mut rng = Rng::seed_from_u64(0xE001);
    for case in 0..16 {
        let ds = layered(&LayeredParams {
            width: 2 + rng.random_range(4),
            depth: 2 + rng.random_range(4),
            density: 0.4,
            redundant: rng.random_range(15),
            guards: 1 + rng.random_range(2), // always conditional
            seed: rng.next_u64(),
        });
        let (asc, exec) = prepared(&ds);
        for mode in MODES {
            for order in orders() {
                let base = minimize_generic_baseline(&asc, &exec, mode, &order).unwrap();
                for threads in [1usize, 2, 4] {
                    let opts = MinimizeOptions {
                        threads,
                        ..Default::default()
                    };
                    let eng = minimize_generic_with(&asc, &exec, mode, &order, &opts).unwrap();
                    assert_eq!(
                        removed_list(&eng),
                        removed_list(&base),
                        "case {case}: removal sequence diverged \
                         (mode {mode:?}, order {order:?}, threads {threads})"
                    );
                    assert_eq!(eng.kept(), base.kept(), "case {case}");
                    assert_eq!(
                        eng.candidates_checked, base.candidates_checked,
                        "case {case}: engines examined different candidate counts"
                    );
                }
            }
        }
    }
}

/// Engine ≡ baseline on fork-join skeletons with injected redundancy
/// (unconditional inputs — the prefilters must decide every candidate and
/// still agree with the structural reference AND the transitive-reduction
/// fast path).
#[test]
fn engine_matches_baseline_and_fast_path_on_fork_join() {
    let _serial = obs::test_lock();
    let mut rng = Rng::seed_from_u64(0xE002);
    for case in 0..16 {
        let width = 1 + rng.random_range(5);
        let chain = 1 + rng.random_range(5);
        let ds = fork_join(width, chain, rng.random_range(20), rng.next_u64());
        let (asc, exec) = prepared(&ds);
        for order in orders() {
            let base =
                minimize_generic_baseline(&asc, &exec, EquivalenceMode::Strict, &order).unwrap();
            let eng = minimize_generic_with(
                &asc,
                &exec,
                EquivalenceMode::Strict,
                &order,
                &MinimizeOptions {
                    threads: 4,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(removed_list(&eng), removed_list(&base), "case {case}");
            // Same minimal set as the dedicated transitive-reduction path.
            let fast = minimize_unconditional_fast(&asc, &order).unwrap();
            let kept = |r: &dscweaver::core::MinimizeResult| {
                let mut v: Vec<String> =
                    r.minimal.happen_befores().map(|x| x.to_string()).collect();
                v.sort();
                v
            };
            assert_eq!(kept(&eng), kept(&fast), "case {case} vs fast path");
        }
    }
}

/// Thread count never changes the result even when runs are repeated —
/// guards against latent scheduling nondeterminism in the parallel
/// closure build.
#[test]
fn thread_count_is_invisible_across_repeats() {
    let _serial = obs::test_lock();
    let ds = layered(&LayeredParams {
        width: 5,
        depth: 8,
        density: 0.35,
        redundant: 30,
        guards: 3,
        seed: 0xBEEF,
    });
    let (asc, exec) = prepared(&ds);
    let order = EdgeOrder::default();
    let reference = minimize_generic_with(
        &asc,
        &exec,
        EquivalenceMode::ExecutionAware,
        &order,
        &MinimizeOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    for _ in 0..5 {
        for threads in [2usize, 3, 8] {
            let run = minimize_generic_with(
                &asc,
                &exec,
                EquivalenceMode::ExecutionAware,
                &order,
                &MinimizeOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(removed_list(&run), removed_list(&reference), "threads {threads}");
        }
    }
}

/// One conditional layered, one dense-conditional and one unconditional
/// fork-join input — the three shapes the thread-count tests sweep.
fn thread_sweep_cases() -> Vec<(&'static str, ConstraintSet, ExecConditions)> {
    let shapes = [
        (
            "layered",
            layered(&LayeredParams {
                width: 6,
                depth: 9,
                density: 0.35,
                redundant: 40,
                guards: 3,
                seed: 0x51DE,
            }),
        ),
        (
            "dense_conditional",
            dense_conditional(&DenseConditionalParams {
                guards: 4,
                chain_len: 5,
                redundant: 24,
                seed: 7,
            }),
        ),
        ("fork_join", fork_join(6, 5, 30, 0xF0F0)),
    ];
    shapes
        .into_iter()
        .map(|(name, ds)| {
            let (asc, exec) = prepared(&ds);
            (name, asc, exec)
        })
        .collect()
}

fn run_with_threads(
    asc: &ConstraintSet,
    exec: &ExecConditions,
    mode: EquivalenceMode,
    threads: usize,
) -> MinimizeResult {
    let opts = MinimizeOptions {
        threads,
        ..Default::default()
    };
    minimize_generic_with(asc, exec, mode, &EdgeOrder::default(), &opts).unwrap()
}

/// The greedy phase does not depend on the thread count at all: not only
/// the removals, but the candidates examined and every interning and
/// `implies`-memo counter are identical at threads {1, 2, 4, 8}.
#[test]
fn greedy_phase_is_identical_at_every_thread_count() {
    let _serial = obs::test_lock();
    for (name, asc, exec) in thread_sweep_cases() {
        for mode in MODES {
            let reference = run_with_threads(&asc, &exec, mode, 1);
            for threads in [2usize, 4, 8] {
                let run = run_with_threads(&asc, &exec, mode, threads);
                let ctx = format!("{name}, mode {mode:?}, threads {threads}");
                assert_eq!(removed_list(&run), removed_list(&reference), "{ctx}");
                assert_eq!(run.candidates_checked, reference.candidates_checked, "{ctx}");
                assert_eq!(run.stats, reference.stats, "{ctx}");
            }
        }
    }
}

/// The greedy loop never fans out: in a recorded run at four threads no
/// pool span (`par.map.chunk`, `par.range.window`, `par.shard.chunk`)
/// begins while a `minimize.greedy` span is open. Pool chunks run on
/// worker lanes, so containment is judged by timestamps, not lanes.
#[test]
fn greedy_phase_runs_no_pool_chunks() {
    let _serial = obs::test_lock();
    for (name, asc, exec) in thread_sweep_cases() {
        let (_, snap) =
            obs::record_with(|| run_with_threads(&asc, &exec, EquivalenceMode::ExecutionAware, 4));
        let mut greedy: Vec<(u64, u64)> = Vec::new();
        let mut open: Option<u64> = None;
        for e in snap.events().iter().filter(|e| e.name == "minimize.greedy") {
            match e.kind {
                EventKind::Begin => open = Some(e.ts_ns),
                EventKind::End => greedy.push((open.take().expect("balanced"), e.ts_ns)),
                EventKind::Instant => {}
            }
        }
        assert_eq!(greedy.len(), 1, "{name}: one greedy span per run");
        let pool_begins: Vec<(u64, &str)> = snap
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name.starts_with("par."))
            .map(|e| (e.ts_ns, e.name))
            .collect();
        let inside: Vec<&str> = pool_begins
            .iter()
            .filter(|&&(ts, _)| greedy.iter().any(|&(b, end)| b <= ts && ts <= end))
            .map(|&(_, n)| n)
            .collect();
        assert!(inside.is_empty(), "{name}: pool spans inside minimize.greedy: {inside:?}");
        // The recorder did see the pool where it still pays (the closure
        // levels), so an empty greedy window is not a dead recorder.
        if name == "layered" {
            assert!(!pool_begins.is_empty(), "{name}: the closure build should fan out");
        }
    }
}

fn cs_with(activities: &[&str], rels: Vec<Relation>) -> ConstraintSet {
    let mut cs = ConstraintSet::new("t");
    for a in activities {
        cs.add_activity(*a);
    }
    for r in rels {
        cs.push(r);
    }
    cs
}

fn before(a: &str, b: &str, o: Origin) -> Relation {
    Relation::before(StateRef::finish(a), StateRef::start(b), o)
}

/// Minimal-set relations rendered and sorted — removal-order agnostic.
fn kept_set(r: &MinimizeResult) -> Vec<String> {
    let mut v: Vec<String> = r
        .minimal
        .happen_befores()
        .map(|x| format!("{x} ({})", x.origin()))
        .collect();
    v.sort();
    v
}

/// A two-activity cycle is a conflict for the engine and the reference
/// alike.
#[test]
fn baseline_reports_the_same_conflict() {
    let _serial = obs::test_lock();
    let cs = cs_with(
        &["a", "b"],
        vec![
            before("a", "b", Origin::Data),
            before("b", "a", Origin::Cooperation),
        ],
    );
    let exec = ExecConditions::derive(&cs);
    assert!(minimize(&cs, &exec, EquivalenceMode::Strict, &EdgeOrder::default()).is_err());
    assert!(
        minimize_generic_baseline(&cs, &exec, EquivalenceMode::Strict, &EdgeOrder::default())
            .is_err()
    );
}

#[test]
fn fast_path_agrees_with_generic_on_unconditional_sets() {
    let _serial = obs::test_lock();
    // Deterministic pseudo-random unconditional DAGs: the dispatch
    // (fast path), the optimized generic engine, and the sequential
    // baseline must keep exactly the same relations.
    let mut x: u64 = 0xD1B54A32D192ED03;
    let mut rnd = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for case in 0..20 {
        let n = 4 + (case % 5);
        let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let mut cs = ConstraintSet::new("rand");
        for a in &names {
            cs.add_activity(a.clone());
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if rnd() % 3 == 0 {
                    let origin = if rnd() % 2 == 0 {
                        Origin::Data
                    } else {
                        Origin::Cooperation
                    };
                    cs.push(Relation::before(
                        StateRef::finish(&names[i]),
                        StateRef::start(&names[j]),
                        origin,
                    ));
                }
            }
        }
        let exec = ExecConditions::derive(&cs);
        for order in [
            EdgeOrder::Given,
            EdgeOrder::ReverseGiven,
            EdgeOrder::default(),
        ] {
            let fast = minimize_unconditional_fast(&cs, &order).unwrap();
            let generic = minimize_generic(&cs, &exec, EquivalenceMode::Strict, &order).unwrap();
            let baseline =
                minimize_generic_baseline(&cs, &exec, EquivalenceMode::Strict, &order).unwrap();
            assert_eq!(
                kept_set(&fast),
                kept_set(&generic),
                "case {case}, order {order:?}"
            );
            assert_eq!(
                kept_set(&generic),
                kept_set(&baseline),
                "case {case}, order {order:?} (baseline)"
            );
        }
    }
}

#[test]
fn engine_agrees_with_baseline_on_conditional_sets() {
    let _serial = obs::test_lock();
    // Hand-built conditional sets covering the prefilter edge cases:
    // same-guard duplicates, guarded shortcut chains, branch joins.
    let mut cs = cs_with(
        &["a", "g", "x", "y", "j", "z"],
        vec![
            before("a", "g", Origin::Data),
            Relation::before_if(
                StateRef::finish("g"),
                StateRef::start("x"),
                Condition::new("g", "T"),
                Origin::Control,
            ),
            Relation::before_if(
                StateRef::finish("g"),
                StateRef::start("y"),
                Condition::new("g", "F"),
                Origin::Control,
            ),
            before("x", "j", Origin::Data),
            before("y", "j", Origin::Data),
            before("g", "j", Origin::Control),
            before("a", "j", Origin::Cooperation),
            Relation::before_if(
                StateRef::finish("g"),
                StateRef::start("z"),
                Condition::new("g", "T"),
                Origin::Data,
            ),
            Relation::before_if(
                StateRef::finish("g"),
                StateRef::start("z"),
                Condition::new("g", "T"),
                Origin::Cooperation,
            ),
        ],
    );
    cs.add_domain("g", vec!["T".into(), "F".into()]);
    let exec = ExecConditions::derive(&cs);
    for mode in [
        EquivalenceMode::Strict,
        EquivalenceMode::ExecutionAware,
        EquivalenceMode::Reachability,
    ] {
        for order in [
            EdgeOrder::Given,
            EdgeOrder::ReverseGiven,
            EdgeOrder::default(),
        ] {
            for threads in [1usize, 4] {
                let opts = MinimizeOptions {
                    threads,
                    ..Default::default()
                };
                let engine = minimize_generic_with(&cs, &exec, mode, &order, &opts).unwrap();
                let baseline = minimize_generic_baseline(&cs, &exec, mode, &order).unwrap();
                assert_eq!(
                    kept_set(&engine),
                    kept_set(&baseline),
                    "mode {mode:?}, order {order:?}, threads {threads}"
                );
                assert_eq!(engine.removed.len(), baseline.removed.len());
            }
        }
    }
}
