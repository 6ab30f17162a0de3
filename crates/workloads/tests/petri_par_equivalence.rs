//! Property tests pinning the parallel Petri validation paths
//! bit-identical to their sequential counterparts, on seeded workloads:
//!
//! * `validate` with `threads ∈ {1, 2, auto}` must produce the same report
//!   as the sequential legacy-rescan reference (`oracle::validate_rescan`),
//!   with failures in assignment-lexicographic order;
//! * `explore_with` must reproduce the FIFO `oracle::explore` exactly
//!   (seen-insertion order, truncation, terminal markings, fired set, peak
//!   tokens);
//! * `run_to_quiescence_wavefront` must replay the rescan
//!   `oracle::run_to_quiescence`'s firing sequence exactly.

use dscweaver_bench::oracle::{explore, run_to_quiescence, validate_rescan};
use dscweaver_core::Weaver;
use dscweaver_dscl::{Condition, ConstraintSet, Relation, StateRef};
use dscweaver_petri::{
    assignment_chooser, explore_with, lower, run_to_quiescence_wavefront, validate,
    AssignmentFailure, FactorPolicy, ValidateOptions, ValidationReport,
};
use dscweaver_prng::Rng;
use dscweaver_workloads::{dense_conditional, fork_join, DenseConditionalParams};
use std::collections::HashMap;

/// Canonical, order-stable view of a failure (the raw assignment is a
/// HashMap whose Debug order is unstable).
fn canon_failure(f: &AssignmentFailure) -> (Vec<(String, String)>, Vec<String>, String, bool) {
    let mut a: Vec<(String, String)> = f
        .assignment
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    a.sort();
    (a, f.stuck.clone(), f.marking.clone(), f.diverged)
}

#[allow(clippy::type_complexity)]
fn canon_report(
    r: &ValidationReport,
) -> (
    Option<Vec<String>>,
    usize,
    bool,
    Vec<(Vec<(String, String)>, Vec<String>, String, bool)>,
) {
    (
        r.conflict_cycle.clone(),
        r.assignments_checked,
        r.assignments_truncated,
        r.failures.iter().map(canon_failure).collect(),
    )
}

#[test]
fn validate_report_is_thread_invariant_on_clean_workloads() {
    for seed in [3u64, 17, 91] {
        let ds = dense_conditional(&DenseConditionalParams {
            guards: 5,
            chain_len: 3,
            redundant: 16,
            seed,
        });
        let out = Weaver::new().run(&ds).unwrap();
        let reference = validate_rescan(&out.minimal, &out.exec, &ValidateOptions::default());
        assert!(reference.ok(), "seed {seed}: {:?}", reference.failures);
        assert_eq!(reference.assignments_checked, 32);
        for threads in [1usize, 2, 0] {
            let par = validate(
                &out.minimal,
                &out.exec,
                &ValidateOptions {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(
                canon_report(&par),
                canon_report(&reference),
                "seed {seed} threads {threads}"
            );
        }
    }
}

/// Three "ghost" guards (domains declared, control places never fed) make
/// every branch assignment fail — 8 failures whose merge order across
/// windows must be exactly assignment-lexicographic for any thread count.
#[test]
fn failure_merge_order_is_lexicographic_and_thread_invariant() {
    let mut cs = ConstraintSet::new("ghosts");
    for k in 0..3 {
        cs.add_activity(format!("b{k}"));
        cs.add_domain(format!("g{k}"), vec!["T".into(), "F".into()]);
        cs.relations.push(Relation::before_if(
            StateRef::finish(&format!("g{k}")),
            StateRef::start(&format!("b{k}")),
            Condition::new(format!("g{k}"), "T"),
            dscweaver_dscl::Origin::Control,
        ));
    }
    let exec = dscweaver_core::ExecConditions::derive(&cs);
    // The reference enumerates the full 2^3 space; the engine must too,
    // so pin it unfactored: the three ghost guards are provably
    // independent, and auto-factoring would shrink the enumeration.
    let reference = validate_rescan(&cs, &exec, &ValidateOptions::default());
    assert!(!reference.ok());
    assert_eq!(reference.assignments_checked, 8);
    assert_eq!(reference.failures.len(), 8, "every assignment deadlocks");
    for threads in [1usize, 2, 0] {
        let got = validate(
            &cs,
            &exec,
            &ValidateOptions {
                threads,
                factor: FactorPolicy::Off,
                ..Default::default()
            },
        );
        assert_eq!(
            canon_report(&got),
            canon_report(&reference),
            "threads {threads}"
        );
    }
}

#[test]
fn explore_with_matches_sequential_explore() {
    let ds = dense_conditional(&DenseConditionalParams {
        guards: 3,
        chain_len: 2,
        redundant: 6,
        seed: 5,
    });
    let out = Weaver::new().run(&ds).unwrap();
    let fj = fork_join(3, 3, 4, 9);
    let fj_out = Weaver::new().run(&fj).unwrap();
    for (cs, exec) in [(&out.minimal, &out.exec), (&fj_out.minimal, &fj_out.exec)] {
        let net = lower(cs, exec).net;
        // One truncated budget and one generous budget: the layered merge
        // must reproduce both the cut and the full frontier identically.
        for max_states in [40usize, 20_000] {
            let seq = explore(&net, max_states);
            for threads in [1usize, 2, 0] {
                let par = explore_with(&net, max_states, threads);
                assert_eq!(par.states, seq.states, "states (budget {max_states})");
                assert_eq!(par.truncated, seq.truncated);
                assert_eq!(par.terminal, seq.terminal, "terminal markings in order");
                assert_eq!(par.max_place_tokens, seq.max_place_tokens);
                let mut pf: Vec<_> = par.fired.iter().copied().collect();
                let mut sf: Vec<_> = seq.fired.iter().copied().collect();
                pf.sort();
                sf.sort();
                assert_eq!(pf, sf);
            }
        }
    }
}

#[test]
fn wavefront_quiescence_replays_rescan_firing_sequence() {
    let mut rng = Rng::seed_from_u64(77);
    for seed in [2u64, 13, 40] {
        let ds = dense_conditional(&DenseConditionalParams {
            guards: 4,
            chain_len: 4,
            redundant: 10,
            seed,
        });
        let out = Weaver::new().run(&ds).unwrap();
        let net = lower(&out.minimal, &out.exec).net;
        // A handful of random branch assignments per net.
        for _ in 0..5 {
            let assignment: HashMap<String, String> = (0..4)
                .map(|k| {
                    let v = if rng.random_bool(0.5) { "T" } else { "F" };
                    (format!("finish(g_{k})"), v.to_string())
                })
                .collect();
            let a = run_to_quiescence(&net, assignment_chooser(&assignment), 1_000_000);
            let b = run_to_quiescence_wavefront(&net, assignment_chooser(&assignment), 1_000_000);
            assert_eq!(a.diverged, b.diverged);
            assert_eq!(a.trace, b.trace, "firing sequence diverged (seed {seed})");
            assert_eq!(a.final_marking, b.final_marking);
        }
    }
}
