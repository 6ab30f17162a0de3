//! Old-vs-new Petri validation comparison: the legacy full-rescan
//! simulator versus the wavefront worklist (sequential and with the
//! assignment fan-out on the worker pool), rendered as the
//! machine-readable `BENCH_petri.json` artifact written by
//! `repro bench-json --suite petri`.
//!
//! Two further sections measure the prepared engine: the amortized
//! per-run constant of replaying assignments through one reused
//! [`PreparedNet`] session versus a fresh wavefront build per run, and
//! the factored enumeration on guard-independent workloads (per-group
//! additive assignment counts versus the full multiplicative product).
//!
//! Reports are canonicalized and asserted identical across all engines
//! and thread counts before any timing is taken.

use crate::harness::{black_box, median, percentiles_ms, phases_json, sample, BenchOpts};
use dscweaver_core::{ExecConditions, Weaver};
use dscweaver_obs as obs;
use dscweaver_dscl::ConstraintSet;
use dscweaver_petri::{
    assignment_chooser, lower, run_to_quiescence_wavefront, validate, AssignmentFailure,
    FactorPolicy, PreparedNet, ValidateOptions, ValidationReport,
};
use dscweaver_workloads::{
    dense_conditional, disjoint_conditional, DenseConditionalParams, DisjointConditionalParams,
};
use std::collections::HashMap;
use std::time::Duration;

/// One comparison input for the validation bench.
pub struct PetriCase {
    /// Stable case name (used in the JSON artifact).
    pub name: String,
    /// Generator parameters.
    pub params: DenseConditionalParams,
}

impl PetriCase {
    /// Materializes the workload and runs the optimizer front half,
    /// returning the minimal constraint set the validator takes.
    pub fn prepare(&self) -> (ConstraintSet, ExecConditions) {
        let ds = dense_conditional(&self.params);
        let out = Weaver::new().run(&ds).expect("acyclic workload");
        (out.minimal, out.exec)
    }
}

/// The comparison suite. `small_only` keeps the sub-second cases for the
/// tier-1 smoke run; the full suite adds the ≥512-assignment
/// dense-conditional core behind the committed `BENCH_petri.json`.
pub fn petri_cases(small_only: bool) -> Vec<PetriCase> {
    let mut cases = vec![
        PetriCase {
            name: "dense_g4_l3".into(),
            params: DenseConditionalParams {
                guards: 4,
                chain_len: 3,
                redundant: 12,
                seed: 11,
            },
        },
        PetriCase {
            name: "dense_g6_l6".into(),
            params: DenseConditionalParams {
                guards: 6,
                chain_len: 6,
                redundant: 32,
                seed: 11,
            },
        },
    ];
    if !small_only {
        // The acceptance case: 2^9 = 512 live branch assignments over
        // deep guarded slow paths.
        cases.push(PetriCase {
            name: "dense_g9_l12".into(),
            params: DenseConditionalParams {
                guards: 9,
                chain_len: 12,
                redundant: 96,
                seed: 11,
            },
        });
    }
    cases
}

/// One guard-independent workload for the factored-enumeration section.
pub struct FactoredCase {
    /// Stable workload name (used in the JSON artifact).
    pub name: String,
    /// Generator parameters.
    pub params: DisjointConditionalParams,
}

/// Guard-independent workloads: islands of guards with provably disjoint
/// downstream place-footprints, so factored validation enumerates each
/// group separately (additive) instead of their cross product
/// (multiplicative).
pub fn factored_cases(small_only: bool) -> Vec<FactoredCase> {
    let mut cases = vec![FactoredCase {
        name: "disjoint_2x3_l2".into(),
        params: DisjointConditionalParams {
            groups: 2,
            guards_per_group: 3,
            chain_len: 2,
            redundant: 6,
            seed: 5,
        },
    }];
    if !small_only {
        // 2^10 = 1024 full assignments vs 2 · 2^5 = 64 factored.
        cases.push(FactoredCase {
            name: "disjoint_2x5_l4".into(),
            params: DisjointConditionalParams {
                groups: 2,
                guards_per_group: 5,
                chain_len: 4,
                redundant: 16,
                seed: 5,
            },
        });
        // 2^9 = 512 full assignments vs 3 · 2^3 = 24 factored.
        cases.push(FactoredCase {
            name: "disjoint_3x3_l4".into(),
            params: DisjointConditionalParams {
                groups: 3,
                guards_per_group: 3,
                chain_len: 4,
                redundant: 12,
                seed: 5,
            },
        });
    }
    cases
}

struct CaseReport {
    name: String,
    n_activities: usize,
    assignments: usize,
    failures: usize,
    baseline_ms: f64,
    new_seq_ms: f64,
    new_par_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    speedup_seq: f64,
    speedup_par: f64,
    prepared_runs: usize,
    fresh_run_ms: f64,
    prepared_run_ms: f64,
    prepared_speedup: f64,
    phases: String,
}

struct FactoredReport {
    name: String,
    guards: usize,
    guard_groups: usize,
    assignment_space: usize,
    full_assignments: usize,
    factored_assignments: usize,
    full_ms: f64,
    factored_ms: f64,
    factored_speedup: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn json_f(v: f64) -> String {
    format!("{v:.3}")
}

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
fn canon(r: &ValidationReport) -> (
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

/// Runs the validation comparison suite and renders `BENCH_petri.json`
/// plus the merged trace of the per-case instrumented runs (one parallel
/// `validate` per case recorded through `dscweaver-obs`; the timed
/// samples stay untraced so the recorder cannot skew them).
///
/// `opts.smoke` restricts to the small cases with one sample each so the
/// tier-1 test suite can exercise the full measurement path in seconds;
/// its timings are not meaningful.
pub fn bench_petri_json(opts: &BenchOpts) -> (String, obs::TraceSnapshot) {
    let (smoke, threads) = (opts.smoke, opts.threads);
    let samples_new = if smoke { 1 } else { 5 };
    let samples_base = if smoke { 1 } else { 3 };
    let mut reports: Vec<CaseReport> = Vec::new();
    let mut suite_trace = obs::TraceSnapshot::default();
    for case in petri_cases(smoke) {
        let (cs, exec) = case.prepare();
        let base_opts = ValidateOptions {
            threads: 1,
            rescan_baseline: true,
            ..Default::default()
        };
        let seq_opts = ValidateOptions {
            threads: 1,
            ..Default::default()
        };
        let par_opts = ValidateOptions {
            threads,
            ..Default::default()
        };

        let r_base = validate(&cs, &exec, &base_opts);
        let r_seq = validate(&cs, &exec, &seq_opts);
        let r_par = validate(&cs, &exec, &par_opts);
        assert_eq!(canon(&r_base), canon(&r_seq), "case {}", case.name);
        assert_eq!(canon(&r_base), canon(&r_par), "case {}", case.name);

        let t_base = median(&sample(samples_base, || {
            black_box(validate(&cs, &exec, &base_opts))
        }));
        let t_seq = median(&sample(samples_new, || {
            black_box(validate(&cs, &exec, &seq_opts))
        }));
        let par_samples = sample(samples_new, || black_box(validate(&cs, &exec, &par_opts)));
        let t_par = median(&par_samples);
        let (p50_ms, p99_ms) = percentiles_ms(&par_samples);

        // One traced run of the parallel validator, outside the timed
        // samples, for the per-phase breakdown and the suite trace.
        let (_, case_trace) = obs::record_with(|| black_box(validate(&cs, &exec, &par_opts)));

        // Amortized prepared-engine constant: the first K assignments
        // replayed through one reused `NetSession` versus a fresh
        // wavefront build (consumer/distinct tables + scratch marking)
        // per run. Results are asserted identical before timing.
        let lowered = lower(&cs, &exec);
        let guards: Vec<(&String, &Vec<String>)> = cs
            .domains
            .iter()
            .filter(|(_, dom)| !dom.is_empty())
            .collect();
        let space = guards
            .iter()
            .fold(1usize, |acc, (_, dom)| acc.saturating_mul(dom.len()));
        let k = space.min(16);
        let assignments: Vec<HashMap<String, String>> = (0..k)
            .map(|i| {
                let mut rest = i;
                guards
                    .iter()
                    .map(|(g, dom)| {
                        let d = rest % dom.len();
                        rest /= dom.len();
                        (format!("finish({g})"), dom[d].clone())
                    })
                    .collect()
            })
            .collect();
        let prep = PreparedNet::new(&lowered.net);
        {
            let mut session = prep.session();
            for a in &assignments {
                let fresh =
                    run_to_quiescence_wavefront(&lowered.net, assignment_chooser(a), 1_000_000);
                let reused = session.run(assignment_chooser(a), 1_000_000);
                assert_eq!(fresh.trace, reused.trace, "case {}", case.name);
                assert_eq!(fresh.final_marking, reused.final_marking, "case {}", case.name);
                assert_eq!(fresh.diverged, reused.diverged, "case {}", case.name);
            }
        }
        let t_fresh = median(&sample(samples_new, || {
            for a in &assignments {
                black_box(run_to_quiescence_wavefront(
                    &lowered.net,
                    assignment_chooser(a),
                    1_000_000,
                ));
            }
        }));
        let t_prep = median(&sample(samples_new, || {
            let prep = PreparedNet::new(&lowered.net);
            let mut session = prep.session();
            for a in &assignments {
                black_box(session.run(assignment_chooser(a), 1_000_000));
            }
        }));

        reports.push(CaseReport {
            name: case.name,
            n_activities: cs.activities.len(),
            assignments: r_base.assignments_checked,
            failures: r_base.failures.len(),
            baseline_ms: ms(t_base),
            new_seq_ms: ms(t_seq),
            new_par_ms: ms(t_par),
            p50_ms,
            p99_ms,
            speedup_seq: t_base.as_secs_f64() / t_seq.as_secs_f64().max(1e-12),
            speedup_par: t_base.as_secs_f64() / t_par.as_secs_f64().max(1e-12),
            prepared_runs: k,
            fresh_run_ms: ms(t_fresh) / k.max(1) as f64,
            prepared_run_ms: ms(t_prep) / k.max(1) as f64,
            prepared_speedup: t_fresh.as_secs_f64() / t_prep.as_secs_f64().max(1e-12),
            phases: phases_json(&case_trace, "      "),
        });
        suite_trace.merge(case_trace);
    }

    let mut factored: Vec<FactoredReport> = Vec::new();
    for case in factored_cases(smoke) {
        let ds = disjoint_conditional(&case.params);
        let out = Weaver::new().run(&ds).expect("acyclic workload");
        let full_opts = ValidateOptions {
            threads,
            factor: FactorPolicy::Off,
            ..Default::default()
        };
        let fact_opts = ValidateOptions {
            threads,
            ..Default::default()
        };
        let r_full = validate(&out.minimal, &out.exec, &full_opts);
        let r_fact = validate(&out.minimal, &out.exec, &fact_opts);
        assert_eq!(r_full.ok(), r_fact.ok(), "case {}: verdicts disagree", case.name);
        assert!(
            r_fact.guard_groups >= 2,
            "case {}: islands did not factor",
            case.name
        );
        assert!(
            r_fact.assignments_checked < r_full.assignments_checked,
            "case {}: factoring did not shrink the enumeration",
            case.name
        );

        let t_full = median(&sample(samples_new, || {
            black_box(validate(&out.minimal, &out.exec, &full_opts))
        }));
        let t_fact = median(&sample(samples_new, || {
            black_box(validate(&out.minimal, &out.exec, &fact_opts))
        }));

        factored.push(FactoredReport {
            name: case.name,
            guards: out.minimal.domains.len(),
            guard_groups: r_fact.guard_groups,
            assignment_space: r_fact.assignment_space,
            full_assignments: r_full.assignments_checked,
            factored_assignments: r_fact.assignments_checked,
            full_ms: ms(t_full),
            factored_ms: ms(t_fact),
            factored_speedup: t_full.as_secs_f64() / t_fact.as_secs_f64().max(1e-12),
        });
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"artifact\": \"BENCH_petri\",\n");
    out.push_str("  \"description\": \"per-assignment validation: legacy full-rescan simulator vs the wavefront worklist (seq and with the assignment fan-out on the worker pool), plus the amortized prepared-session replay constant and the factored enumeration on guard-independent workloads; reports canonicalized and asserted identical before timing\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"cases\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"n_activities\": {},\n", r.n_activities));
        out.push_str(&format!("      \"assignments\": {},\n", r.assignments));
        out.push_str(&format!("      \"failures\": {},\n", r.failures));
        out.push_str(&format!(
            "      \"baseline_ms\": {},\n",
            json_f(r.baseline_ms)
        ));
        out.push_str(&format!("      \"new_seq_ms\": {},\n", json_f(r.new_seq_ms)));
        out.push_str(&format!("      \"new_par_ms\": {},\n", json_f(r.new_par_ms)));
        out.push_str(&format!("      \"p50_ms\": {},\n", json_f(r.p50_ms)));
        out.push_str(&format!("      \"p99_ms\": {},\n", json_f(r.p99_ms)));
        out.push_str(&format!(
            "      \"speedup_seq\": {},\n",
            json_f(r.speedup_seq)
        ));
        out.push_str(&format!(
            "      \"speedup_par\": {},\n",
            json_f(r.speedup_par)
        ));
        out.push_str(&format!(
            "      \"prepared_runs\": {},\n",
            r.prepared_runs
        ));
        out.push_str(&format!(
            "      \"fresh_run_ms\": {},\n",
            json_f(r.fresh_run_ms)
        ));
        out.push_str(&format!(
            "      \"prepared_run_ms\": {},\n",
            json_f(r.prepared_run_ms)
        ));
        out.push_str(&format!(
            "      \"prepared_speedup\": {},\n",
            json_f(r.prepared_speedup)
        ));
        out.push_str(&format!("      \"phases\": {}\n", r.phases));
        out.push_str(if i + 1 == reports.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"factored\": [\n");
    for (i, r) in factored.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"workload\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"guards\": {},\n", r.guards));
        out.push_str(&format!("      \"guard_groups\": {},\n", r.guard_groups));
        out.push_str(&format!(
            "      \"assignment_space\": {},\n",
            r.assignment_space
        ));
        out.push_str(&format!(
            "      \"full_assignments\": {},\n",
            r.full_assignments
        ));
        out.push_str(&format!(
            "      \"factored_assignments\": {},\n",
            r.factored_assignments
        ));
        out.push_str(&format!("      \"full_ms\": {},\n", json_f(r.full_ms)));
        out.push_str(&format!(
            "      \"factored_ms\": {},\n",
            json_f(r.factored_ms)
        ));
        out.push_str(&format!(
            "      \"factored_speedup\": {}\n",
            json_f(r.factored_speedup)
        ));
        out.push_str(if i + 1 == factored.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]\n}\n");
    (out, suite_trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_prepare_deterministically() {
        for case in petri_cases(true) {
            let (a, _) = case.prepare();
            let (b, _) = case.prepare();
            assert_eq!(a, b, "case {} not deterministic", case.name);
        }
    }

    #[test]
    fn full_suite_contains_the_512_assignment_case() {
        let full = petri_cases(false);
        let big = full.iter().find(|c| c.name == "dense_g9_l12").unwrap();
        assert!(1usize << big.params.guards >= 512);
    }

    #[test]
    fn factored_full_suite_spans_a_1024_assignment_space() {
        let full = factored_cases(false);
        let big = full.iter().find(|c| c.name == "disjoint_2x5_l4").unwrap();
        let space = 1usize << (big.params.groups * big.params.guards_per_group);
        assert_eq!(space, 1024);
        let factored = big.params.groups * (1usize << big.params.guards_per_group);
        assert!(factored < space);
    }
}
