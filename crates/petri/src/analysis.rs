//! Design-time validation of a synchronization scheme (§4.1: "conflict
//! dependencies like infinite synchronization sequence can be detected
//! during design stage").
//!
//! Validation runs two layers, cheapest first:
//!
//! 1. **Structural conflict check** — a cycle in the constraint graph is
//!    an unsatisfiable ("infinite") synchronization sequence; reported
//!    with the activities on the cycle.
//! 2. **Per-branch-assignment simulation** — for every assignment of
//!    branch values, run the lowered net to quiescence and check the final
//!    marking (every activity done-or-skipped, no stranded tokens). The
//!    lowered nets are conflict-free once branch modes are fixed (each
//!    place has one consumer), so a single maximal-step run per assignment
//!    is complete for deadlock/termination — this is what makes validation
//!    scale past the interleaving explosion.
//!
//! Full interleaving reachability is not a validation layer: callers that
//! want the state space of a lowered net call [`crate::reach::explore`] or
//! [`crate::reach::explore_with`] on it directly.

use crate::lower::{lower, LoweredNet};
use crate::prepared::{guard_groups, PreparedNet, WavefrontTables};
use crate::reach::{assignment_chooser, run_to_quiescence};
use dscweaver_core::ExecConditions;
use dscweaver_dscl::{ConstraintSet, SyncGraph};
use dscweaver_graph::{effective_threads, find_cycle, par_ranges};
use dscweaver_obs as obs;
use std::collections::HashMap;

/// The cacheable compile half of validation: everything derivable from
/// the constraint set alone — conflict check, lowered net, wavefront
/// tables, guard-independence groups, and the domain table the
/// enumeration walks. Owns all of it (no borrowed lifetimes), so a
/// long-running daemon can keep one per cached process and replay
/// [`CompiledValidation::run`] per request; [`validate`] is exactly
/// `compile` + `run`, and the reports are bit-identical.
#[derive(Debug)]
pub struct CompiledValidation {
    conflict_cycle: Option<Vec<String>>,
    /// `None` when a structural conflict stops validation before lowering.
    net: Option<CompiledNet>,
    /// `(guard, domain values)` in `cs.domains` (sorted) order.
    domains: Vec<(String, Vec<String>)>,
}

#[derive(Debug)]
struct CompiledNet {
    lowered: LoweredNet,
    tables: WavefrontTables,
    /// Disjoint-footprint guard groups (computed when there is more than
    /// one guard; otherwise empty and never consulted).
    groups: Vec<Vec<String>>,
}

impl CompiledValidation {
    /// Compiles the validation artifacts for a desugared, service-free
    /// constraint set: structural conflict check, then (if conflict-free)
    /// the lowered net, its wavefront tables, and the guard groups.
    pub fn compile(cs: &ConstraintSet, exec: &ExecConditions) -> Self {
        let sg = SyncGraph::build(cs);
        if let Some(cycle) = find_cycle(&sg.graph) {
            obs::instant("petri.conflict_cycle");
            return CompiledValidation {
                conflict_cycle: Some(
                    cycle
                        .iter()
                        .map(|&n| sg.graph.weight(n).label())
                        .collect(),
                ),
                net: None,
                domains: Vec::new(),
            };
        }
        let lower_span = obs::span("petri.lower");
        let lowered = lower(cs, exec);
        drop(lower_span);
        // Compile the wavefront tables once; every assignment run below
        // reuses them through a per-worker session.
        let prepare_span = obs::span("petri.prepare");
        let tables = WavefrontTables::derive(&lowered.net);
        drop(prepare_span);
        let groups = if cs.domains.len() > 1 {
            guard_groups(&lowered, cs)
        } else {
            Vec::new()
        };
        CompiledValidation {
            conflict_cycle: None,
            net: Some(CompiledNet {
                lowered,
                tables,
                groups,
            }),
            domains: cs
                .domains
                .iter()
                .map(|(g, d)| (g.clone(), d.clone()))
                .collect(),
        }
    }

    /// The structural conflict cycle, if compilation found one.
    pub fn conflict_cycle(&self) -> Option<&[String]> {
        self.conflict_cycle.as_deref()
    }

    /// The lowered net (absent when a conflict stopped compilation).
    pub fn lowered(&self) -> Option<&LoweredNet> {
        self.net.as_ref().map(|c| &c.lowered)
    }

    /// Runs the run half — assignment enumeration — against the compiled
    /// artifacts. Bit-identical to [`validate`] with the same options.
    pub fn run(&self, opts: &ValidateOptions) -> ValidationReport {
        if let Some(cycle) = &self.conflict_cycle {
            return ValidationReport {
                conflict_cycle: Some(cycle.clone()),
                assignments_checked: 0,
                assignments_truncated: false,
                failures: Vec::new(),
                guard_groups: 0,
                factored: false,
                assignment_space: 0,
            };
        }
        let compiled = self.net.as_ref().expect("conflict-free compile has a net");
        run_compiled(compiled, &self.domains, opts)
    }
}

/// Validation options.
#[derive(Clone, Debug)]
pub struct ValidateOptions {
    /// Cap on enumerated branch assignments (beyond it, validation samples
    /// the first `max_assignments` lexicographically and reports
    /// truncation).
    pub max_assignments: usize,
    /// Step budget per simulation run.
    pub max_steps: usize,
    /// Worker threads for the per-assignment fan-out. `0` picks from
    /// available parallelism, `1` forces the sequential path; the report
    /// is bit-identical either way (failures merge in
    /// assignment-lexicographic window order).
    pub threads: usize,
    /// Run each assignment on the legacy full-rescan simulator instead of
    /// the wavefront worklist. Results are identical; the flag exists so
    /// `BENCH_petri.json` and the equivalence tests can measure the old
    /// engine through the same entry point.
    pub rescan_baseline: bool,
    /// When to enumerate independent guard groups separately (see
    /// [`guard_groups`] and [`FactorPolicy`]): each group's assignment
    /// sub-space is checked with the other guards pinned to their first
    /// domain value, turning the multiplicative product of domain sizes
    /// into a sum over groups. The ok/not-ok verdict is unchanged
    /// (disjoint footprints cannot interact), but `assignments_checked`
    /// shrinks and failures report the pinned values for out-of-group
    /// guards. [`ValidationReport::factored`] records whether the split
    /// actually happened.
    pub factor: FactorPolicy,
}

/// Policy for splitting branch-assignment enumeration into independent
/// guard groups ([`ValidateOptions::factor`]).
///
/// Factoring never changes the verdict — groups with disjoint downstream
/// place-footprints cannot influence a common place — so the only reason
/// to disable it is byte-stable comparison against the full
/// multiplicative enumeration (equivalence tests, benchmarks).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FactorPolicy {
    /// Factor whenever [`guard_groups`] finds more than one group — the
    /// default. With a single group the factored plan covers every guard,
    /// which is exactly the unfactored enumeration.
    #[default]
    Auto,
    /// Never factor: always enumerate the full multiplicative assignment
    /// space, keeping reports byte-stable against the classic path.
    Off,
}

impl Default for ValidateOptions {
    fn default() -> Self {
        ValidateOptions {
            max_assignments: 4096,
            max_steps: 1_000_000,
            threads: 0,
            rescan_baseline: false,
            factor: FactorPolicy::Auto,
        }
    }
}

/// One failed branch assignment.
#[derive(Clone, Debug)]
pub struct AssignmentFailure {
    /// guard → chosen value.
    pub assignment: HashMap<String, String>,
    /// Activities that never completed (nor skipped).
    pub stuck: Vec<String>,
    /// Rendered stuck marking.
    pub marking: String,
    /// True if the run exceeded the step budget (livelock) rather than
    /// deadlocking.
    pub diverged: bool,
}

/// The validation verdict.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// A structural conflict cycle, if any (validation stops there).
    pub conflict_cycle: Option<Vec<String>>,
    /// Branch assignments simulated.
    pub assignments_checked: usize,
    /// True if the assignment space was larger than the cap.
    pub assignments_truncated: bool,
    /// Failures found.
    pub failures: Vec<AssignmentFailure>,
    /// Independence groups the enumeration was split into: `1` for the
    /// unfactored path (or no guards), the number of disjoint-footprint
    /// groups when [`ValidateOptions::factor`] allowed factoring, `0`
    /// when validation stopped at a structural conflict.
    pub guard_groups: usize,
    /// Whether the enumeration actually ran factored (more than one
    /// independent group under [`FactorPolicy::Auto`]) — the
    /// recorded auto-enable decision.
    pub factored: bool,
    /// The full multiplicative assignment space (product of domain
    /// sizes, saturating); `assignments_checked` is below this when the
    /// cap truncated the enumeration or factoring shrank it.
    pub assignment_space: usize,
}

impl ValidationReport {
    /// Overall verdict.
    pub fn ok(&self) -> bool {
        self.conflict_cycle.is_none() && self.failures.is_empty()
    }
}

/// Validates a desugared, service-free constraint set.
///
/// Exactly [`CompiledValidation::compile`] followed by
/// [`CompiledValidation::run`] — split out so a daemon can cache the
/// compile half per process and pay only the run half per request.
pub fn validate(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    opts: &ValidateOptions,
) -> ValidationReport {
    let _span = obs::span_with("petri.validate", || {
        format!("activities={} domains={}", cs.activities.len(), cs.domains.len())
    });
    CompiledValidation::compile(cs, exec).run(opts)
}

/// The run half over compiled artifacts: assignment enumeration (layer 2).
fn run_compiled(
    compiled: &CompiledNet,
    domains: &[(String, Vec<String>)],
    opts: &ValidateOptions,
) -> ValidationReport {
    let lowered = &compiled.lowered;
    let prep = PreparedNet::with_tables(&lowered.net, &compiled.tables);

    // Layer 2: per-assignment simulation.
    let guards: Vec<(&String, &Vec<String>)> = domains.iter().map(|(g, d)| (g, d)).collect();
    let space: usize = guards
        .iter()
        .map(|(_, d)| d.len().max(1))
        .try_fold(1usize, |a, n| a.checked_mul(n))
        .unwrap_or(usize::MAX);

    // Enumeration plans: each plan is the set of guard positions that
    // vary, every other guard pinned to its first domain value. The
    // unfactored path is one plan over all guards — decoding a linear
    // index over it is exactly the original mixed-radix little-endian
    // odometer. Unless the policy is `Off`, one plan per
    // disjoint-footprint group: sub-spaces sum instead of multiplying,
    // and the verdict is unchanged because disjoint groups cannot
    // influence a common place.
    let plans: Vec<Vec<usize>> = if opts.factor != FactorPolicy::Off && guards.len() > 1 {
        let pos: HashMap<&str, usize> = guards
            .iter()
            .enumerate()
            .map(|(i, (g, _))| (g.as_str(), i))
            .collect();
        compiled
            .groups
            .iter()
            .map(|group| {
                let mut ix: Vec<usize> = group.iter().map(|g| pos[g.as_str()]).collect();
                ix.sort_unstable();
                ix
            })
            .collect()
    } else {
        vec![(0..guards.len()).collect()]
    };

    // One branch assignment per (plan, linear index), decoded positionally
    // over the plan's guards, so any contiguous window of indices is an
    // independent work unit. Window results concatenate back in
    // assignment-lexicographic order, making the failure list
    // bit-identical for any thread count. The wavefront path runs inside
    // the caller's session (one scratch marking per pool worker); the
    // rescan baseline stays a fresh per-run simulation.
    let run_one = |plan: &[usize],
                   i: usize,
                   session: Option<&mut crate::prepared::NetSession>|
     -> Option<AssignmentFailure> {
        let mut idx = vec![0usize; guards.len()];
        let mut rest = i;
        for &g in plan {
            let len = guards[g].1.len().max(1);
            idx[g] = rest % len;
            rest /= len;
        }
        let assignment: HashMap<String, String> = guards
            .iter()
            .zip(&idx)
            .map(|((g, dom), &i)| (format!("finish({g})"), dom[i].clone()))
            .collect();
        let run = match session {
            Some(s) => s.run(assignment_chooser(&assignment), opts.max_steps),
            None => {
                run_to_quiescence(&lowered.net, assignment_chooser(&assignment), opts.max_steps)
            }
        };
        if run.diverged || !lowered.is_final(&run.final_marking) {
            Some(AssignmentFailure {
                assignment: guards
                    .iter()
                    .zip(&idx)
                    .map(|((g, dom), &i)| ((*g).clone(), dom[i].clone()))
                    .collect(),
                stuck: lowered
                    .unfinished(&run.final_marking)
                    .into_iter()
                    .map(String::from)
                    .collect(),
                marking: lowered.net.render_marking(&run.final_marking),
                diverged: run.diverged,
            })
        } else {
            None
        }
    };
    let threads = effective_threads(opts.threads, 8);
    let assignments_span = obs::span_with("petri.assignments", || {
        format!("plans={} space={space} threads={threads}", plans.len())
    });
    let mut checked = 0usize;
    let mut truncated = false;
    let mut failures: Vec<AssignmentFailure> = Vec::new();
    for plan in &plans {
        let plan_space: usize = plan
            .iter()
            .map(|&g| guards[g].1.len().max(1))
            .try_fold(1usize, |a, n| a.checked_mul(n))
            .unwrap_or(usize::MAX);
        // max_assignments is a total budget across plans.
        let plan_to_check = plan_space.min(opts.max_assignments.saturating_sub(checked));
        if plan_to_check < plan_space {
            truncated = true;
        }
        failures.extend(
            par_ranges(threads, plan_to_check, &|r| {
                if opts.rescan_baseline {
                    r.filter_map(|i| run_one(plan, i, None))
                        .collect::<Vec<AssignmentFailure>>()
                } else {
                    let mut session = prep.session();
                    r.filter_map(|i| run_one(plan, i, Some(&mut session)))
                        .collect()
                }
            })
            .into_iter()
            .flatten(),
        );
        checked += plan_to_check;
    }
    drop(assignments_span);

    let factored = plans.len() > 1;
    obs::counter_add("petri.assignments_checked", checked as u64);
    obs::counter_add("petri.failures", failures.len() as u64);
    if factored {
        obs::counter_add("petri.factored_runs", 1);
    }
    obs::gauge_set("petri.guard_groups", plans.len() as f64);
    obs::gauge_set("petri.assignment_space", space as f64);
    ValidationReport {
        conflict_cycle: None,
        assignments_checked: checked,
        assignments_truncated: truncated,
        failures,
        guard_groups: plans.len(),
        factored,
        assignment_space: space,
    }
}

/// Convenience: lower + validate with defaults.
pub fn validate_default(cs: &ConstraintSet, exec: &ExecConditions) -> ValidationReport {
    validate(cs, exec, &ValidateOptions::default())
}

/// Re-export of the lowered form for callers that want the net itself.
pub fn lower_net(cs: &ConstraintSet, exec: &ExecConditions) -> LoweredNet {
    lower(cs, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_dscl::{Condition, Origin, Relation, StateRef};

    fn exec_of(cs: &ConstraintSet) -> ExecConditions {
        ExecConditions::derive(cs)
    }

    #[test]
    fn sound_branchy_set_validates() {
        let mut cs = ConstraintSet::new("ok");
        for a in ["g", "x", "y", "j"] {
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
        cs.push(Relation::before(
            StateRef::finish("x"),
            StateRef::start("j"),
            Origin::Data,
        ));
        cs.push(Relation::before(
            StateRef::finish("y"),
            StateRef::start("j"),
            Origin::Data,
        ));
        let exec = exec_of(&cs);
        let report = validate_default(&cs, &exec);
        assert!(report.ok(), "{report:#?}");
        assert_eq!(report.assignments_checked, 2);
    }

    #[test]
    fn compiled_validation_replays_identically() {
        // One compile, many runs: every run must equal a fresh validate().
        let mut cs = ConstraintSet::new("replay");
        for a in ["g", "x", "y", "j"] {
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
        cs.push(Relation::before(
            StateRef::finish("x"),
            StateRef::start("j"),
            Origin::Data,
        ));
        let exec = exec_of(&cs);
        let compiled = CompiledValidation::compile(&cs, &exec);
        for opts in [
            ValidateOptions::default(),
            ValidateOptions {
                factor: FactorPolicy::Off,
                ..Default::default()
            },
        ] {
            let fresh = validate(&cs, &exec, &opts);
            for _ in 0..2 {
                let cached = compiled.run(&opts);
                assert_eq!(cached.ok(), fresh.ok());
                assert_eq!(cached.assignments_checked, fresh.assignments_checked);
                assert_eq!(cached.guard_groups, fresh.guard_groups);
                assert_eq!(cached.factored, fresh.factored);
                assert_eq!(cached.assignment_space, fresh.assignment_space);
                assert!(cached.failures.is_empty());
            }
        }
    }

    #[test]
    fn conflict_cycle_detected_structurally() {
        let mut cs = ConstraintSet::new("cyc");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("b"),
            Origin::Data,
        ));
        cs.push(Relation::before(
            StateRef::finish("b"),
            StateRef::start("a"),
            Origin::Cooperation,
        ));
        let exec = exec_of(&cs);
        let report = validate_default(&cs, &exec);
        assert!(!report.ok());
        assert!(report.conflict_cycle.is_some());
    }

    #[test]
    fn missing_execution_knowledge_deadlocks() {
        // x waits for a conditional token but has NO execution condition
        // derivable (the conditional edge is Cooperation, not Control):
        // when g=F the token is F-colored... consumption is Any so ordering
        // holds; but exec(x)=always, so x runs on both branches — fine. A
        // real deadlock: x additionally waits on a constraint from an
        // activity that itself never resolves. Simulate by a constraint
        // from an activity that is control dependent on g=T while x is
        // unconditional AND the producer's skip cannot propagate... with
        // DPE skip propagation this cannot deadlock — which is exactly
        // what this test demonstrates: the DPE lowering is deadlock-free
        // here, while a naive lowering would hang. So instead, produce a
        // REAL failure: a conditional constraint whose guard has a
        // three-value domain but only two handled branches is still fine
        // (skip covers it)... The honest deadlock case is the structural
        // cycle (above) or an exec condition referencing a guard that is
        // never evaluated — which validation must catch:
        let mut cs = ConstraintSet::new("dead");
        cs.add_activity("x");
        // exec(x) says "ghost=T" but ghost is not an activity: the control
        // place never receives a token.
        cs.add_domain("ghost", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("x"),
            StateRef::start("x"),
            Condition::new("ghost", "T"),
            Origin::Control,
        ));
        // ^ also a self-cycle; validation reports the structural conflict
        // first.
        let exec = exec_of(&cs);
        let report = validate_default(&cs, &exec);
        assert!(!report.ok());
    }

    #[test]
    fn stuck_activity_reported_with_names() {
        // b waits on a control token from guard g whose domain is declared
        // but that never broadcasts to b because g is NOT an activity in
        // the set — the exec condition derivation sees the control
        // relation, the lowering creates the ctl place, and nothing feeds
        // it: a genuine deadlock the per-assignment runs catch.
        let mut cs = ConstraintSet::new("stuck");
        cs.add_activity("b");
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        // Control relation from an undeclared guard: validation of the
        // ConstraintSet would flag it, but we force it through to show the
        // net-level diagnosis.
        cs.relations.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("b"),
            Condition::new("g", "T"),
            Origin::Control,
        ));
        let exec = exec_of(&cs);
        let report = validate_default(&cs, &exec);
        assert!(!report.ok());
        assert!(report
            .failures
            .iter()
            .all(|f| f.stuck.contains(&"b".to_string())));
    }

    #[test]
    fn lowered_net_explores_to_one_safe_final_marking() {
        let mut cs = ConstraintSet::new("tiny");
        cs.add_activity("a");
        cs.add_activity("b");
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("b"),
            Origin::Data,
        ));
        let exec = exec_of(&cs);
        assert!(validate_default(&cs, &exec).ok());
        let compiled = CompiledValidation::compile(&cs, &exec);
        let lowered = compiled.lowered().expect("conflict-free");
        let r = crate::reach::explore_with(&lowered.net, 10_000, 0);
        assert!(!r.truncated);
        assert_eq!(r.terminal.len(), 1);
        assert!(lowered.is_final(&r.terminal[0]));
        assert_eq!(r.max_place_tokens, 1, "lowered nets are safe");
    }
}
