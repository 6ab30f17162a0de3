//! Property tests for the wavefront DES scheduler: on seeded workloads the
//! agenda engine must produce byte-identical traces for any thread count,
//! reproduce the legacy rescan engine's trace exactly
//! (`dscweaver_bench::oracle::simulate_rescan_baseline`), and never spend
//! more constraint checks than the rescan it replaces.

use dscweaver_bench::oracle::simulate_rescan_baseline;
use dscweaver_core::{merge, translate_services, ExecConditions};
use dscweaver_dscl::{Condition, ConstraintSet, Origin, Relation, StateRef};
use dscweaver_prng::Rng;
use dscweaver_scheduler::{simulate, Schedule, SimConfig};
use dscweaver_workloads::{
    dense_conditional, fork_join, layered, DenseConditionalParams, LayeredParams,
};

/// Prepares an executable (desugared, service-free) constraint set from a
/// dependency set, the same front half the vertical pipeline runs.
fn prepare(ds: &dscweaver_core::DependencySet) -> (ConstraintSet, ExecConditions) {
    let mut sc = merge(ds);
    sc.desugar_happen_together();
    let exec = ExecConditions::derive(&sc);
    let (asc, _) = translate_services(&sc);
    (asc, exec)
}

fn trace_key(s: &Schedule) -> String {
    format!("{:?} stuck={:?}", s.trace, s.stuck)
}

#[test]
fn wavefront_trace_is_thread_invariant_and_matches_rescan() {
    let mut rng = Rng::seed_from_u64(4242);
    let mut cases: Vec<(String, dscweaver_core::DependencySet)> = Vec::new();
    for seed in [1u64, 23, 77] {
        cases.push((
            format!("layered_{seed}"),
            layered(&LayeredParams {
                width: 5,
                depth: 8,
                density: 0.35,
                redundant: 30,
                guards: 2,
                seed,
            }),
        ));
        cases.push((
            format!("dense_{seed}"),
            dense_conditional(&DenseConditionalParams {
                guards: 4,
                chain_len: 3,
                redundant: 12,
                seed,
            }),
        ));
        cases.push((format!("forkjoin_{seed}"), fork_join(4, 5, 15, seed)));
    }
    for (name, ds) in &cases {
        let (cs, exec) = prepare(ds);
        // Randomized durations and a worker cap exercise the non-monotone
        // commit gates (exclusive partners, worker slots).
        let mut config = SimConfig::default();
        for a in &cs.activities {
            config.durations.set(a, 1 + rng.random_range(9) as u64);
        }
        config.workers = Some(3);
        let base = simulate_rescan_baseline(&cs, &exec, &config);
        assert!(base.completed(), "{name}: rescan stuck {:?}", base.stuck);
        let mut first: Option<Schedule> = None;
        for threads in [1usize, 2, 0] {
            let mut c = config.clone();
            c.threads = threads;
            let wf = simulate(&cs, &exec, &c);
            assert_eq!(
                trace_key(&wf),
                trace_key(&base),
                "{name}: wavefront trace diverged from rescan (threads {threads})"
            );
            assert!(
                wf.constraint_checks <= base.constraint_checks,
                "{name}: agenda spent more checks ({} > {})",
                wf.constraint_checks,
                base.constraint_checks
            );
            if let Some(f) = &first {
                assert_eq!(
                    wf.constraint_checks, f.constraint_checks,
                    "{name}: checks not thread-invariant"
                );
            } else {
                first = Some(wf);
            }
        }
        // The executed trace still satisfies the full constraint set.
        assert!(base.trace.verify(&cs).is_empty(), "{name}");
    }
}

#[test]
fn wavefront_handles_branch_oracles_identically() {
    let ds = dense_conditional(&DenseConditionalParams {
        guards: 4,
        chain_len: 4,
        redundant: 10,
        seed: 6,
    });
    let (cs, exec) = prepare(&ds);
    // Sweep all 16 oracle combinations: dead paths skip, live paths run,
    // and both engines must agree everywhere.
    for bits in 0u32..16 {
        let mut config = SimConfig::default();
        for k in 0..4 {
            let v = if bits & (1 << k) != 0 { "T" } else { "F" };
            config.oracle.insert(format!("g_{k}"), v.to_string());
        }
        let base = simulate_rescan_baseline(&cs, &exec, &config);
        let wf = simulate(&cs, &exec, &config);
        assert_eq!(trace_key(&wf), trace_key(&base), "oracle bits {bits:04b}");
        assert!(base.completed(), "bits {bits:04b} stuck {:?}", base.stuck);
        assert!(base.trace.verify(&cs).is_empty());
    }
}

#[test]
fn wavefront_agrees_with_rescan_on_deadlock_reporting() {
    let mut cs = ConstraintSet::new("cycle");
    for a in ["a", "b", "c"] {
        cs.add_activity(a);
    }
    cs.push(Relation::before(
        StateRef::finish("a"),
        StateRef::start("b"),
        Origin::Data,
    ));
    cs.push(Relation::before(
        StateRef::finish("b"),
        StateRef::start("a"),
        Origin::Data,
    ));
    let exec = ExecConditions::derive(&cs);
    let config = SimConfig::default();
    let base = simulate_rescan_baseline(&cs, &exec, &config);
    let wf = simulate(&cs, &exec, &config);
    assert!(!base.completed());
    assert_eq!(wf.stuck, base.stuck);
    assert_eq!(trace_key(&wf), trace_key(&base));
}

fn before(a: &str, b: &str) -> Relation {
    Relation::before(StateRef::finish(a), StateRef::start(b), Origin::Data)
}

#[test]
fn wavefront_matches_rescan_and_spends_fewer_checks() {
    // A branching process with a deferred finish and an exclusive
    // pair exercises every commit kind; the engines must agree on the
    // trace byte-for-byte while the agenda engine spends fewer checks.
    let mut cs = ConstraintSet::new("equiv");
    for a in ["g", "a", "x", "y", "j", "p", "q"] {
        cs.add_activity(a);
    }
    cs.add_domain("g", vec!["T".into(), "F".into()]);
    cs.push(Relation::before_if(
        StateRef::finish("g"),
        StateRef::start("x"),
        Condition::new("g", "T"),
        Origin::Control,
    ));
    cs.push(Relation::before_if(
        StateRef::finish("g"),
        StateRef::start("y"),
        Condition::new("g", "F"),
        Origin::Control,
    ));
    cs.push(before("a", "x"));
    cs.push(before("x", "j"));
    cs.push(before("y", "j"));
    cs.push(Relation::before(
        StateRef::start("a"),
        StateRef::finish("p"),
        Origin::Cooperation,
    ));
    cs.push(Relation::Exclusive {
        a: StateRef::run("p"),
        b: StateRef::run("q"),
        origin: Origin::Cooperation,
    });
    let exec = ExecConditions::derive(&cs);
    for value in ["T", "F"] {
        let mut cfg = SimConfig::default();
        cfg.oracle.insert("g".into(), value.into());
        cfg.durations.set("a", 7);
        cfg.durations.set("p", 3);
        let base = simulate_rescan_baseline(&cs, &exec, &cfg);
        for threads in [0usize, 1, 2] {
            let mut c = cfg.clone();
            c.threads = threads;
            let wf = simulate(&cs, &exec, &c);
            assert_eq!(
                format!("{:?}", wf.trace),
                format!("{:?}", base.trace),
                "trace diverged (oracle {value}, threads {threads})"
            );
            assert_eq!(wf.stuck, base.stuck);
            assert!(
                wf.constraint_checks <= base.constraint_checks,
                "agenda spent more checks than the rescan: {} vs {}",
                wf.constraint_checks,
                base.constraint_checks
            );
        }
    }
}

#[test]
fn worker_limit_matches_rescan_baseline() {
    let mut cs = ConstraintSet::new("workers");
    for i in 0..8 {
        cs.add_activity(format!("a{i}"));
    }
    cs.push(Relation::before(
        StateRef::finish("a0"),
        StateRef::start("a5"),
        Origin::Data,
    ));
    let exec = ExecConditions::derive(&cs);
    let config = SimConfig {
        workers: Some(3),
        ..Default::default()
    };
    let base = simulate_rescan_baseline(&cs, &exec, &config);
    let wf = simulate(&cs, &exec, &config);
    assert_eq!(format!("{:?}", wf.trace), format!("{:?}", base.trace));
}
