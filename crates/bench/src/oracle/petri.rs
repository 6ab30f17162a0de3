//! The original Petri-net analyses: FIFO reachability exploration, the
//! full-rescan maximal-step simulator, and a validator that runs the
//! simulator once per branch assignment. The references
//! `dscweaver_petri`'s layered BFS, wavefront worklist and
//! prepared/factored validation are pinned against.

use dscweaver_core::ExecConditions;
use dscweaver_dscl::{ConstraintSet, SyncGraph};
use dscweaver_graph::find_cycle;
use dscweaver_petri::{
    assignment_chooser, lower, AssignmentFailure, Marking, Net, Reachability, Run, TransitionId,
    ValidateOptions, ValidationReport,
};
use std::collections::{HashMap, HashSet, VecDeque};

/// Explores the reachability graph breadth-first up to `max_states`
/// distinct markings, one marking at a time off a FIFO queue — the
/// reference `dscweaver_petri::explore_with` is pinned against at every
/// thread count.
pub fn explore(net: &Net, max_states: usize) -> Reachability {
    let mut seen: HashSet<Marking> = HashSet::new();
    let mut queue: VecDeque<Marking> = VecDeque::new();
    let mut terminal = Vec::new();
    let mut fired = HashSet::new();
    let mut truncated = false;
    let mut max_place_tokens = 0;

    seen.insert(net.initial.clone());
    queue.push_back(net.initial.clone());

    while let Some(m) = queue.pop_front() {
        for p in m.marked_places() {
            max_place_tokens = max_place_tokens.max(m.total(p));
        }
        let mut any = false;
        for t in net.transition_ids() {
            for mode in 0..net.transitions[t.0 as usize].modes.len() {
                for binding in net.enabled_bindings(&m, t, mode) {
                    any = true;
                    fired.insert(t);
                    let next = net.fire(&m, t, mode, &binding);
                    if !seen.contains(&next) {
                        if seen.len() >= max_states {
                            truncated = true;
                            continue;
                        }
                        seen.insert(next.clone());
                        queue.push_back(next);
                    }
                }
            }
        }
        if !any {
            terminal.push(m);
        }
    }
    Reachability {
        states: seen.len(),
        truncated,
        terminal,
        fired,
        max_place_tokens,
    }
}

/// Runs the net to quiescence, repeatedly firing any enabled transition,
/// rescanning every transition in id order on each sweep — the reference
/// `dscweaver_petri::run_to_quiescence_wavefront` replays firing for
/// firing.
///
/// `choose_mode` resolves nondeterministic *choices* (a transition with
/// several enabled modes — the lowering's branch environments): it
/// receives the transition and the enabled mode indices and picks one.
/// For the conflict-free nets the DSCL lowering produces, the final
/// marking is independent of firing order once modes are fixed
/// (confluence), which the tests exercise.
pub fn run_to_quiescence(
    net: &Net,
    mut choose_mode: impl FnMut(&Net, TransitionId, &[usize]) -> usize,
    max_steps: usize,
) -> Run {
    let mut m = net.initial.clone();
    let mut trace = Vec::new();
    let mut steps = 0;
    // Remember branch decisions so a transition choosing mode X keeps
    // choosing X if it ever fires again (loop bodies).
    let mut decided: HashMap<TransitionId, usize> = HashMap::new();
    loop {
        if steps >= max_steps {
            return Run {
                final_marking: m,
                trace,
                diverged: true,
            };
        }
        let mut progressed = false;
        for t in net.transition_ids() {
            let enabled: Vec<usize> = (0..net.transitions[t.0 as usize].modes.len())
                .filter(|&mi| !net.enabled_bindings(&m, t, mi).is_empty())
                .collect();
            if enabled.is_empty() {
                continue;
            }
            let mode = match decided.get(&t) {
                Some(&mi) if enabled.contains(&mi) => mi,
                _ => {
                    let mi = if enabled.len() == 1 {
                        enabled[0]
                    } else {
                        choose_mode(net, t, &enabled)
                    };
                    decided.insert(t, mi);
                    mi
                }
            };
            let binding = net.enabled_bindings(&m, t, mode).remove(0);
            m = net.fire(&m, t, mode, &binding);
            trace.push((t, net.transitions[t.0 as usize].modes[mode].label.clone()));
            progressed = true;
            steps += 1;
        }
        if !progressed {
            return Run {
                final_marking: m,
                trace,
                diverged: false,
            };
        }
    }
}

/// Validates a desugared, service-free constraint set the original way:
/// a structural cycle check, then the lowered net simulated once per
/// branch assignment with [`run_to_quiescence`].
///
/// Assignments are enumerated over all guards together (never factored
/// into independent groups), as a little-endian odometer over the guards
/// in `cs.domains` order, stopping after `opts.max_assignments`; each run
/// gets `opts.max_steps`. The enumeration is sequential: `opts.threads`
/// and `opts.factor` are ignored. The report equals
/// `dscweaver_petri::validate` under `FactorPolicy::Off` at any thread
/// count.
pub fn validate_rescan(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    opts: &ValidateOptions,
) -> ValidationReport {
    let sg = SyncGraph::build(cs);
    if let Some(cycle) = find_cycle(&sg.graph) {
        return ValidationReport {
            conflict_cycle: Some(cycle.iter().map(|&n| sg.graph.weight(n).label()).collect()),
            assignments_checked: 0,
            assignments_truncated: false,
            failures: Vec::new(),
            guard_groups: 0,
            factored: false,
            assignment_space: 0,
        };
    }
    let lowered = lower(cs, exec);
    let guards: Vec<(&String, &Vec<String>)> = cs.domains.iter().collect();
    let space: usize = guards
        .iter()
        .map(|(_, d)| d.len().max(1))
        .try_fold(1usize, |a, n| a.checked_mul(n))
        .unwrap_or(usize::MAX);
    let to_check = space.min(opts.max_assignments);
    let mut failures = Vec::new();
    for i in 0..to_check {
        let mut rest = i;
        let idx: Vec<usize> = guards
            .iter()
            .map(|(_, d)| {
                let len = d.len().max(1);
                let k = rest % len;
                rest /= len;
                k
            })
            .collect();
        let assignment: HashMap<String, String> = guards
            .iter()
            .zip(&idx)
            .map(|((g, dom), &k)| (format!("finish({g})"), dom[k].clone()))
            .collect();
        let run = run_to_quiescence(
            &lowered.net,
            assignment_chooser(&assignment),
            opts.max_steps,
        );
        if run.diverged || !lowered.is_final(&run.final_marking) {
            failures.push(AssignmentFailure {
                assignment: guards
                    .iter()
                    .zip(&idx)
                    .map(|((g, dom), &k)| ((*g).clone(), dom[k].clone()))
                    .collect(),
                stuck: lowered
                    .unfinished(&run.final_marking)
                    .into_iter()
                    .map(String::from)
                    .collect(),
                marking: lowered.net.render_marking(&run.final_marking),
                diverged: run.diverged,
            });
        }
    }
    ValidationReport {
        conflict_cycle: None,
        assignments_checked: to_check,
        assignments_truncated: to_check < space,
        failures,
        guard_groups: 1,
        factored: false,
        assignment_space: space,
    }
}
