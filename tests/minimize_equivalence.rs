//! The optimized minimizer (interned annotations + bitset prefilters +
//! scoped worker threads) must be **edge-for-edge identical** to the
//! sequential structural reference implementation
//! (`dscweaver_bench::oracle::minimize_generic_baseline`) — same removals, in the
//! same order — for every equivalence mode, removal order, and thread
//! count, on arbitrary layered / fork-join workloads with conditional
//! constraints. Determinism across thread counts is the key property: the
//! parallel phases (candidate screening, level-batched ancestor
//! recomputation) are advisory precomputation only, so the greedy
//! decisions cannot depend on scheduling.

use dscweaver::core::{
    merge, minimize, minimize_generic, minimize_generic_with, minimize_unconditional_fast,
    translate_services, EdgeOrder, EquivalenceMode, ExecConditions, MinimizeOptions,
    MinimizeResult,
};
use dscweaver::dscl::{Condition, ConstraintSet, Origin, Relation, StateRef};
use dscweaver::workloads::{fork_join, layered, LayeredParams};
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
/// guards against latent scheduling nondeterminism in the screening
/// window.
#[test]
fn thread_count_is_invisible_across_repeats() {
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
