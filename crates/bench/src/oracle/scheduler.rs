//! The rescan discrete-event scheduler: every commit pass linearly
//! rescans all activities. The reference the wavefront engine
//! (`dscweaver_scheduler::simulate`) is pinned trace-for-trace against.
//!
//! The readiness helpers are private copies of the engine's, so the
//! reference shares no private code with the engine it checks.

use dscweaver_core::ExecConditions;
use dscweaver_dscl::{ActivityState, Condition, ConstraintSet, Relation, StateRef};
use dscweaver_scheduler::{EventKind, Schedule, SimConfig, Time, Trace, TraceEvent};
use std::collections::{BinaryHeap, HashMap, HashSet};

/// The original engine: every commit pass linearly rescans all activities.
///
/// The measured baseline for `BENCH_scheduler.json` and the reference the
/// wavefront engine's equivalence tests compare against. Produces the same
/// trace and `stuck` as [`dscweaver_scheduler::simulate`];
/// `constraint_checks` is higher because every pass re-checks activities
/// whose inputs did not change.
pub fn simulate_rescan_baseline(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    config: &SimConfig,
) -> Schedule {
    // Indexing.
    let mut start_prereqs: HashMap<&str, Vec<Prereq>> = HashMap::new();
    let mut finish_prereqs: HashMap<&str, Vec<Prereq>> = HashMap::new();
    for a in &cs.activities {
        start_prereqs.insert(a, Vec::new());
        finish_prereqs.insert(a, Vec::new());
    }
    for r in &cs.relations {
        if let Relation::HappenBefore { from, to, cond, .. } = r {
            let p = Prereq {
                producer: from.clone(),
                cond: cond.clone(),
            };
            let bucket = match to.state {
                ActivityState::Start | ActivityState::Run => &mut start_prereqs,
                ActivityState::Finish => &mut finish_prereqs,
            };
            if let Some(v) = bucket.get_mut(to.activity.as_str()) {
                v.push(p);
            }
        }
    }
    // Exclusive partner sets.
    let mut exclusive: HashMap<&str, Vec<&str>> = HashMap::new();
    for (x, y) in cs.exclusives() {
        exclusive
            .entry(x.activity.as_str())
            .or_default()
            .push(y.activity.as_str());
        exclusive
            .entry(y.activity.as_str())
            .or_default()
            .push(x.activity.as_str());
    }

    // Dynamic state.
    let mut resolved: HashMap<StateRef, (Time, u64)> = HashMap::new();
    let mut outcome: HashMap<&str, GuardOutcome> = HashMap::new();
    let mut started: HashSet<&str> = HashSet::new();
    let mut done: HashSet<&str> = HashSet::new(); // finished or skipped
    let mut running: HashSet<&str> = HashSet::new();
    let mut finish_blocked: HashSet<&str> = HashSet::new();
    let mut trace = Trace::default();
    let mut seq: u64 = 0;
    let mut checks: u64 = 0;
    let mut now: Time = 0;

    // Scheduled natural finishes: Reverse-ordered min-heap.
    let mut finish_queue: BinaryHeap<std::cmp::Reverse<(Time, u64, String)>> = BinaryHeap::new();

    let total = cs.activities.len();
    loop {
        // Commit phase: start, skip, or unblock whatever is ready at `now`.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for a in &cs.activities {
                let a = a.as_str();
                if done.contains(a) || running.contains(a) && !finish_blocked.contains(a) {
                    continue;
                }
                if finish_blocked.contains(a) {
                    // Re-try the deferred finish.
                    let ok = finish_prereqs[a]
                        .iter()
                        .all(|p| prereq_satisfied(p, &resolved, &outcome, &mut checks));
                    if ok {
                        finish_blocked.remove(a);
                        commit_finish(
                            a,
                            now,
                            &mut seq,
                            cs,
                            config,
                            &mut trace,
                            &mut resolved,
                            &mut outcome,
                            &mut running,
                            &mut done,
                            value_of_guard,
                        );
                        progressed = true;
                    }
                    continue;
                }
                if started.contains(a) {
                    continue;
                }
                let starts_ok = start_prereqs[a]
                    .iter()
                    .all(|p| prereq_satisfied(p, &resolved, &outcome, &mut checks));
                if !starts_ok {
                    continue;
                }
                match exec_decided(a, exec, &outcome) {
                    None => continue,
                    Some(true) => {
                        // Exclusive: defer while a partner is running.
                        if exclusive
                            .get(a)
                            .is_some_and(|ps| ps.iter().any(|p| running.contains(p)))
                        {
                            continue;
                        }
                        // Worker limit: zero-duration activities (the
                        // desugaring coordinators) pass through freely.
                        if let Some(k) = config.workers {
                            if config.durations.of(a) > 0 && running.len() >= k {
                                continue;
                            }
                        }
                        started.insert(a);
                        running.insert(a);
                        trace.events.push(TraceEvent {
                            time: now,
                            seq,
                            activity: a.to_string(),
                            kind: EventKind::Start,
                            value: None,
                        });
                        resolved.insert(StateRef::start(a), (now, seq));
                        resolved.insert(StateRef::run(a), (now, seq));
                        seq += 1;
                        finish_queue.push(std::cmp::Reverse((
                            now + config.durations.of(a),
                            seq,
                            a.to_string(),
                        )));
                        progressed = true;
                    }
                    Some(false) => {
                        // Skip also waits for finish-side prerequisites
                        // (skip events are ordered after everything the
                        // activity would have waited for).
                        let fin_ok = finish_prereqs[a]
                            .iter()
                            .all(|p| prereq_satisfied(p, &resolved, &outcome, &mut checks));
                        if !fin_ok {
                            continue;
                        }
                        started.insert(a);
                        done.insert(a);
                        trace.events.push(TraceEvent {
                            time: now,
                            seq,
                            activity: a.to_string(),
                            kind: EventKind::Skip,
                            value: None,
                        });
                        for st in ActivityState::ALL {
                            resolved.insert(
                                StateRef {
                                    activity: a.to_string(),
                                    state: st,
                                },
                                (now, seq),
                            );
                        }
                        outcome.insert(a, GuardOutcome::Skipped);
                        seq += 1;
                        progressed = true;
                    }
                }
            }
        }

        if done.len() == total {
            break;
        }
        // Advance to the next natural finish.
        let Some(std::cmp::Reverse((t, _, a))) = finish_queue.pop() else {
            break; // deadlock: nothing running, nothing ready
        };
        now = now.max(t);
        let a_ref: &str = cs
            .activities
            .get(&a)
            .map(String::as_str)
            .expect("finish of unknown activity");
        // Finish-side prerequisites may defer the completion.
        let ok = finish_prereqs[a_ref]
            .iter()
            .all(|p| prereq_satisfied(p, &resolved, &outcome, &mut checks));
        if ok {
            commit_finish(
                a_ref,
                now,
                &mut seq,
                cs,
                config,
                &mut trace,
                &mut resolved,
                &mut outcome,
                &mut running,
                &mut done,
                value_of_guard,
            );
        } else {
            finish_blocked.insert(a_ref);
        }
    }

    let stuck: Vec<String> = cs
        .activities
        .iter()
        .filter(|a| !done.contains(a.as_str()))
        .cloned()
        .collect();
    Schedule {
        trace,
        constraint_checks: checks,
        stuck,
    }
}

#[derive(Clone, Debug)]
struct Prereq {
    producer: StateRef,
    cond: Option<Condition>,
}

#[derive(Clone, Debug, PartialEq)]
enum GuardOutcome {
    Value(String),
    Skipped,
}

fn value_of_guard(g: &str, config: &SimConfig, cs: &ConstraintSet) -> String {
    config.oracle.get(g).cloned().unwrap_or_else(|| {
        cs.domains
            .get(g)
            .and_then(|d| d.first().cloned())
            .unwrap_or_else(|| "done".to_string())
    })
}

/// Prereq satisfied under the given state? Counts one check per call.
fn prereq_satisfied(
    p: &Prereq,
    resolved: &HashMap<StateRef, (Time, u64)>,
    outcome: &HashMap<&str, GuardOutcome>,
    checks: &mut u64,
) -> bool {
    *checks += 1;
    match &p.cond {
        None => resolved.contains_key(&p.producer),
        Some(c) => match outcome.get(c.on.as_str()) {
            None => false, // guard undecided: must wait
            Some(GuardOutcome::Value(v)) if *v == c.value => resolved.contains_key(&p.producer),
            // Guard mismatched or skipped: the constraint is waived.
            Some(_) => true,
        },
    }
}

/// Exec decision: Some(true/false) once all mentioned guards resolved.
fn exec_decided(
    a: &str,
    exec: &ExecConditions,
    outcome: &HashMap<&str, GuardOutcome>,
) -> Option<bool> {
    let dnf = exec.of(a);
    if dnf.is_always() {
        return Some(true);
    }
    let mut guards: HashSet<&str> = HashSet::new();
    for t in dnf.terms() {
        for c in t {
            guards.insert(&c.on);
        }
    }
    if !guards.iter().all(|g| outcome.contains_key(*g)) {
        return None;
    }
    let value = dnf.terms().iter().any(|term| {
        term.iter().all(
            |c| matches!(outcome.get(c.on.as_str()), Some(GuardOutcome::Value(v)) if *v == c.value),
        )
    });
    Some(value)
}

#[allow(clippy::too_many_arguments)]
fn commit_finish<'a>(
    a: &'a str,
    now: Time,
    seq: &mut u64,
    cs: &ConstraintSet,
    config: &SimConfig,
    trace: &mut Trace,
    resolved: &mut HashMap<StateRef, (Time, u64)>,
    outcome: &mut HashMap<&'a str, GuardOutcome>,
    running: &mut HashSet<&'a str>,
    done: &mut HashSet<&'a str>,
    value_of_guard: impl Fn(&str, &SimConfig, &ConstraintSet) -> String,
) {
    running.remove(a);
    done.insert(a);
    let value = if cs.domains.contains_key(a) {
        Some(value_of_guard(a, config, cs))
    } else {
        None
    };
    trace.events.push(TraceEvent {
        time: now,
        seq: *seq,
        activity: a.to_string(),
        kind: EventKind::Finish,
        value: value.clone(),
    });
    resolved.insert(StateRef::finish(a), (now, *seq));
    *seq += 1;
    outcome.insert(
        a,
        GuardOutcome::Value(value.unwrap_or_else(|| "done".to_string())),
    );
}
