//! Property tests for the prepared engines: a `PreparedNet`/`NetSession`
//! and a `PreparedSchedule` reused across many consecutive runs (varying
//! branch assignments, oracles, assignment windows and thread counts) must
//! produce results byte-identical to the fresh-build paths, and factored
//! validation must agree with the full enumeration's verdict while
//! checking strictly fewer assignments on guard-independent workloads.

use dscweaver_core::{merge, translate_services, ExecConditions, Weaver};
use dscweaver_petri::{
    assignment_chooser, guard_groups, lower, run_to_quiescence_wavefront, validate,
    AssignmentFailure, FactorPolicy, PreparedNet, ValidateOptions, ValidationReport,
};
use dscweaver_scheduler::{simulate, PreparedSchedule, Schedule, SimConfig};
use dscweaver_workloads::{
    dense_conditional, disjoint_conditional, DenseConditionalParams, DisjointConditionalParams,
};
use std::collections::HashMap;

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
    usize,
    usize,
    Vec<(Vec<(String, String)>, Vec<String>, String, bool)>,
) {
    (
        r.conflict_cycle.clone(),
        r.assignments_checked,
        r.assignments_truncated,
        r.guard_groups,
        r.assignment_space,
        r.failures.iter().map(canon_failure).collect(),
    )
}

fn trace_key(s: &Schedule) -> String {
    format!("{:?} stuck={:?} checks={}", s.trace, s.stuck, s.constraint_checks)
}

/// One `NetSession` replayed across every assignment of a 4-guard workload
/// (16 consecutive runs on the same scratch state) must match a fresh
/// wavefront simulation per assignment exactly.
#[test]
fn net_session_reuse_matches_fresh_wavefront_across_runs() {
    for seed in [3u64, 17, 91] {
        let ds = dense_conditional(&DenseConditionalParams {
            guards: 4,
            chain_len: 3,
            redundant: 12,
            seed,
        });
        let out = Weaver::new().run(&ds).unwrap();
        let lowered = lower(&out.minimal, &out.exec);
        let prep = PreparedNet::new(&lowered.net);
        let mut session = prep.session();
        for bits in 0u32..16 {
            let assignment: HashMap<String, String> = (0..4)
                .map(|k| {
                    let v = if bits & (1 << k) != 0 { "T" } else { "F" };
                    (format!("finish(g_{k})"), v.to_string())
                })
                .collect();
            let fresh = run_to_quiescence_wavefront(
                &lowered.net,
                assignment_chooser(&assignment),
                1_000_000,
            );
            let reused = session.run(assignment_chooser(&assignment), 1_000_000);
            assert_eq!(fresh.trace, reused.trace, "seed {seed} bits {bits:04b}");
            assert_eq!(fresh.final_marking, reused.final_marking);
            assert_eq!(fresh.diverged, reused.diverged);
        }
    }
}

/// `validate` (which now runs one session per worker window) must stay
/// bit-identical to the sequential rescan reference for every thread count
/// and for truncating assignment windows.
#[test]
fn validate_sessions_are_thread_and_window_invariant() {
    let ds = dense_conditional(&DenseConditionalParams {
        guards: 5,
        chain_len: 3,
        redundant: 16,
        seed: 17,
    });
    let out = Weaver::new().run(&ds).unwrap();
    for max_assignments in [4096usize, 20, 7] {
        let reference = validate(
            &out.minimal,
            &out.exec,
            &ValidateOptions {
                threads: 1,
                rescan_baseline: true,
                max_assignments,
                ..Default::default()
            },
        );
        assert_eq!(reference.assignments_checked, max_assignments.min(32));
        for threads in [1usize, 2, 0] {
            let got = validate(
                &out.minimal,
                &out.exec,
                &ValidateOptions {
                    threads,
                    max_assignments,
                    ..Default::default()
                },
            );
            assert_eq!(
                canon_report(&got),
                canon_report(&reference),
                "threads {threads} window {max_assignments}"
            );
        }
    }
}

/// Factored validation on a guard-independent workload: same verdict as
/// the full enumeration, strictly fewer assignments, and thread-invariant.
#[test]
fn factored_validation_agrees_with_full_enumeration() {
    let ds = disjoint_conditional(&DisjointConditionalParams {
        groups: 2,
        guards_per_group: 3,
        chain_len: 2,
        redundant: 6,
        seed: 5,
    });
    let out = Weaver::new().run(&ds).unwrap();
    let lowered = lower(&out.minimal, &out.exec);
    let groups = guard_groups(&lowered, &out.minimal);
    assert_eq!(groups.len(), 2, "two provably disjoint islands: {groups:?}");
    assert!(groups.iter().all(|g| g.len() == 3));

    let full = validate(
        &out.minimal,
        &out.exec,
        &ValidateOptions {
            factor: FactorPolicy::Off,
            ..Default::default()
        },
    );
    assert!(full.ok(), "failures: {:?}", full.failures);
    assert_eq!(full.assignments_checked, 64); // 2^6
    assert_eq!(full.guard_groups, 1);
    assert!(!full.factored);

    let mut first = None;
    for threads in [1usize, 2, 0] {
        let factored = validate(
            &out.minimal,
            &out.exec,
            &ValidateOptions {
                threads,
                ..Default::default()
            },
        );
        assert_eq!(factored.ok(), full.ok());
        assert_eq!(factored.guard_groups, 2);
        assert_eq!(factored.assignments_checked, 16); // 2 · 2^3
        assert_eq!(factored.assignment_space, 64);
        assert!(factored.assignments_checked < full.assignments_checked);
        let canon = canon_report(&factored);
        if let Some(f) = &first {
            assert_eq!(&canon, f, "factored report not thread-invariant");
        } else {
            first = Some(canon);
        }
    }
}

/// One `PreparedSchedule` replayed across oracles, worker limits and
/// thread counts (3 × 3 × 2 consecutive runs) must match a fresh
/// `simulate` per configuration exactly, checks included.
#[test]
fn prepared_schedule_reuse_matches_fresh_simulate() {
    let ds = dense_conditional(&DenseConditionalParams {
        guards: 4,
        chain_len: 4,
        redundant: 10,
        seed: 6,
    });
    let mut sc = merge(&ds);
    sc.desugar_happen_together();
    let exec = ExecConditions::derive(&sc);
    let (cs, _) = translate_services(&sc);
    let session = PreparedSchedule::new(&cs, &exec);
    for bits in [0u32, 5, 15] {
        for workers in [None, Some(2), Some(4)] {
            for threads in [1usize, 2] {
                let mut config = SimConfig::default();
                for k in 0..4 {
                    let v = if bits & (1 << k) != 0 { "T" } else { "F" };
                    config.oracle.insert(format!("g_{k}"), v.to_string());
                }
                config.workers = workers;
                config.threads = threads;
                let fresh = simulate(&cs, &exec, &config);
                let replay = session.run(&config);
                assert_eq!(
                    trace_key(&replay),
                    trace_key(&fresh),
                    "bits {bits:04b} workers {workers:?} threads {threads}"
                );
                assert!(fresh.completed(), "stuck: {:?}", fresh.stuck);
            }
        }
    }
}
