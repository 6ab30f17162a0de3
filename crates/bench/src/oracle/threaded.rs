//! A real concurrent executor: one OS thread per activity, synchronizing
//! through a shared monitor (`std::sync` mutex + condvar) exactly on the
//! HappenBefore constraints. Where the DES (`dscweaver_scheduler::engine`)
//! *simulates* the dataflow schedule in virtual time, this module
//! *executes* it — the integration tests run both and verify their traces
//! against the same constraint sets.

use dscweaver_core::ExecConditions;
use dscweaver_dscl::{ActivityState, ConstraintSet, Relation, StateRef};
use dscweaver_scheduler::{EventKind, Trace, TraceEvent};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

#[derive(Default)]
struct Monitor {
    resolved: HashSet<StateRef>,
    outcomes: HashMap<String, Option<String>>, // guard → Some(value) | None=skipped
    running: HashSet<String>,
    events: Vec<TraceEvent>,
    seq: u64,
    aborted: bool,
}

/// Result of a threaded run.
#[derive(Debug)]
pub struct ThreadedRun {
    /// The logical trace (times are commit sequence numbers).
    pub trace: Trace,
    /// Activities that timed out waiting (deadlock); empty on success.
    pub stuck: Vec<String>,
}

/// Executes the constraint set with one thread per activity. `timeout`
/// bounds each wait, turning an unsound scheme into a reported deadlock
/// instead of a hung test.
pub fn execute_threaded(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    oracle: &BTreeMap<String, String>,
    timeout: Duration,
) -> ThreadedRun {
    // Static per-activity prerequisite tables.
    let mut start_prereqs: HashMap<&str, Vec<&Relation>> = HashMap::new();
    let mut finish_prereqs: HashMap<&str, Vec<&Relation>> = HashMap::new();
    for a in &cs.activities {
        start_prereqs.insert(a, Vec::new());
        finish_prereqs.insert(a, Vec::new());
    }
    for r in &cs.relations {
        if let Relation::HappenBefore { to, .. } = r {
            let bucket = match to.state {
                ActivityState::Start | ActivityState::Run => &mut start_prereqs,
                ActivityState::Finish => &mut finish_prereqs,
            };
            if let Some(v) = bucket.get_mut(to.activity.as_str()) {
                v.push(r);
            }
        }
    }
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

    let monitor = Mutex::new(Monitor::default());
    let condvar = Condvar::new();
    let stuck = Mutex::new(Vec::<String>::new());

    let prereqs_ok = |m: &Monitor, prereqs: &[&Relation]| -> bool {
        prereqs.iter().all(|r| {
            let Relation::HappenBefore { from, cond, .. } = r else {
                return true;
            };
            match cond {
                None => m.resolved.contains(from),
                Some(c) => match m.outcomes.get(&c.on) {
                    None => false,
                    Some(Some(v)) if *v == c.value => m.resolved.contains(from),
                    Some(_) => true, // mismatched or skipped: waived
                },
            }
        })
    };

    let exec_state = |m: &Monitor, a: &str| -> Option<bool> {
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
        if !guards.iter().all(|g| m.outcomes.contains_key(*g)) {
            return None;
        }
        Some(dnf.terms().iter().any(|term| {
            term.iter()
                .all(|c| matches!(m.outcomes.get(&c.on), Some(Some(v)) if *v == c.value))
        }))
    };

    std::thread::scope(|scope| {
        for a in &cs.activities {
            let a = a.as_str();
            let monitor = &monitor;
            let condvar = &condvar;
            let stuck = &stuck;
            let start_prereqs = &start_prereqs;
            let finish_prereqs = &finish_prereqs;
            let exclusive = &exclusive;
            let prereqs_ok = &prereqs_ok;
            let exec_state = &exec_state;
            scope.spawn(move || {
                let mut m = monitor.lock().unwrap();
                // Phase 1: wait until startable (or skippable).
                let decision = loop {
                    if m.aborted {
                        return;
                    }
                    let starts = prereqs_ok(&m, &start_prereqs[a]);
                    match exec_state(&m, a) {
                        Some(true) if starts => {
                            let clear = exclusive
                                .get(a)
                                .map(|ps| !ps.iter().any(|p| m.running.contains(*p)))
                                .unwrap_or(true);
                            if clear {
                                break true;
                            }
                        }
                        Some(false) if starts && prereqs_ok(&m, &finish_prereqs[a]) => {
                            break false;
                        }
                        _ => {}
                    }
                    let (guard, wait) = condvar.wait_timeout(m, timeout).unwrap();
                    m = guard;
                    if wait.timed_out() {
                        m.aborted = true;
                        stuck.lock().unwrap().push(a.to_string());
                        condvar.notify_all();
                        return;
                    }
                };

                if !decision {
                    // Skip: resolve all states at once.
                    let seq = m.seq;
                    m.seq += 1;
                    m.events.push(TraceEvent {
                        time: seq,
                        seq,
                        activity: a.to_string(),
                        kind: EventKind::Skip,
                        value: None,
                    });
                    for st in ActivityState::ALL {
                        m.resolved.insert(StateRef {
                            activity: a.to_string(),
                            state: st,
                        });
                    }
                    m.outcomes.insert(a.to_string(), None);
                    condvar.notify_all();
                    return;
                }

                // Start.
                let seq = m.seq;
                m.seq += 1;
                m.events.push(TraceEvent {
                    time: seq,
                    seq,
                    activity: a.to_string(),
                    kind: EventKind::Start,
                    value: None,
                });
                m.resolved.insert(StateRef::start(a));
                m.resolved.insert(StateRef::run(a));
                m.running.insert(a.to_string());
                condvar.notify_all();
                // "Work" happens here, outside the lock.
                drop(m);
                std::thread::yield_now();
                let mut m = monitor.lock().unwrap();
                // Phase 2: wait for finish-side prerequisites.
                while !prereqs_ok(&m, &finish_prereqs[a]) {
                    if m.aborted {
                        return;
                    }
                    let (guard, wait) = condvar.wait_timeout(m, timeout).unwrap();
                    m = guard;
                    if wait.timed_out() {
                        m.aborted = true;
                        stuck.lock().unwrap().push(a.to_string());
                        condvar.notify_all();
                        return;
                    }
                }
                let value = cs.domains.contains_key(a).then(|| {
                    oracle
                        .get(a)
                        .cloned()
                        .unwrap_or_else(|| cs.domains[a][0].clone())
                });
                let seq = m.seq;
                m.seq += 1;
                m.events.push(TraceEvent {
                    time: seq,
                    seq,
                    activity: a.to_string(),
                    kind: EventKind::Finish,
                    value: value.clone(),
                });
                m.resolved.insert(StateRef::finish(a));
                m.running.remove(a);
                m.outcomes
                    .insert(a.to_string(), Some(value.unwrap_or_else(|| "done".into())));
                condvar.notify_all();
            });
        }
    });

    let m = monitor.into_inner().unwrap();
    ThreadedRun {
        trace: Trace { events: m.events },
        stuck: stuck.into_inner().unwrap(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_dscl::{Condition, Origin};

    fn before(a: &str, b: &str) -> Relation {
        Relation::before(StateRef::finish(a), StateRef::start(b), Origin::Data)
    }

    fn run(cs: &ConstraintSet, oracle: &[(&str, &str)]) -> ThreadedRun {
        let exec = ExecConditions::derive(cs);
        let oracle: BTreeMap<String, String> = oracle
            .iter()
            .map(|(g, v)| (g.to_string(), v.to_string()))
            .collect();
        execute_threaded(cs, &exec, &oracle, Duration::from_secs(5))
    }

    #[test]
    fn chain_order_holds_under_real_threads() {
        let mut cs = ConstraintSet::new("chain");
        for a in ["a", "b", "c", "d", "e"] {
            cs.add_activity(a);
        }
        for w in ["a", "b", "c", "d", "e"].windows(2) {
            cs.push(before(w[0], w[1]));
        }
        let r = run(&cs, &[]);
        assert!(r.stuck.is_empty());
        assert!(r.trace.verify(&cs).is_empty());
    }

    #[test]
    fn branch_skip_propagates() {
        let mut cs = ConstraintSet::new("branch");
        for a in ["g", "x", "x2", "y", "j"] {
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
            StateRef::start("x2"),
            Condition::new("g", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("y"),
            Condition::new("g", "F"),
            Origin::Control,
        ));
        cs.push(before("x", "x2"));
        cs.push(before("x2", "j"));
        cs.push(before("y", "j"));
        let r = run(&cs, &[("g", "F")]);
        assert!(r.stuck.is_empty(), "stuck: {:?}", r.stuck);
        assert!(r.trace.skipped("x") && r.trace.skipped("x2"));
        assert!(r.trace.executed("y") && r.trace.executed("j"));
        assert!(r.trace.verify(&cs).is_empty());
    }

    #[test]
    fn deadlock_times_out_with_names() {
        let mut cs = ConstraintSet::new("dead");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.push(before("a", "b"));
        cs.push(before("b", "a"));
        let exec = ExecConditions::derive(&cs);
        let r = execute_threaded(&cs, &exec, &BTreeMap::new(), Duration::from_millis(100));
        assert!(!r.stuck.is_empty());
    }

    #[test]
    fn exclusive_never_overlaps() {
        let mut cs = ConstraintSet::new("excl");
        for a in ["p", "q", "r"] {
            cs.add_activity(a);
        }
        cs.push(Relation::Exclusive {
            a: StateRef::run("p"),
            b: StateRef::run("q"),
            origin: Origin::Cooperation,
        });
        cs.push(Relation::Exclusive {
            a: StateRef::run("q"),
            b: StateRef::run("r"),
            origin: Origin::Cooperation,
        });
        for _ in 0..20 {
            let r = run(&cs, &[]);
            assert!(r.stuck.is_empty());
            assert!(r.trace.verify_exclusives(&cs).is_empty());
        }
    }

    #[test]
    fn repeated_runs_all_verify() {
        // Nondeterministic interleavings, every trace must satisfy the
        // constraints.
        let mut cs = ConstraintSet::new("diamond");
        for a in ["a", "b", "c", "d"] {
            cs.add_activity(a);
        }
        for (f, t) in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")] {
            cs.push(before(f, t));
        }
        for _ in 0..50 {
            let r = run(&cs, &[]);
            assert!(r.stuck.is_empty());
            assert!(r.trace.verify(&cs).is_empty());
        }
    }
}
