//! Structural analysis: place invariants (P-semiflows).
//!
//! A place invariant is a weighting `w` of places such that every
//! transition firing conserves the weighted token sum `w·M`. Invariants
//! are *structural* — computed from the incidence matrix alone, no state
//! exploration — and give cheap global guarantees: for the DSCL lowering,
//! every activity carries the invariant `todo(a) + run(a) + done(a) = 1`,
//! which is exactly "an activity is always in precisely one phase of its
//! life cycle" (§4.1's state model), machine-checked.
//!
//! Colored nets are handled by color abstraction: the incidence matrix
//! counts tokens regardless of color, so a discovered invariant holds for
//! every mode. (Color-sensitive invariants would need unfolding; the
//! token-count ones are what the life-cycle property requires.)

use crate::net::{Net, PlaceId};

/// A place invariant: weights per place (sparse, only non-zero entries)
/// and the conserved sum under the initial marking.
#[derive(Clone, Debug, PartialEq)]
pub struct PlaceInvariant {
    /// `(place, weight)` pairs with non-zero weights.
    pub weights: Vec<(PlaceId, i64)>,
    /// The conserved value `w · M₀`.
    pub initial_sum: i64,
}

impl PlaceInvariant {
    /// Evaluates `w · M` on a marking.
    pub fn eval(&self, m: &crate::net::Marking) -> i64 {
        self.weights
            .iter()
            .map(|&(p, w)| w * m.total(p) as i64)
            .sum()
    }

    /// Renders as `todo(a) + run(a) + done(a) = 1`.
    pub fn render(&self, net: &Net) -> String {
        let lhs: Vec<String> = self
            .weights
            .iter()
            .map(|&(p, w)| {
                if w == 1 {
                    net.place_name(p).to_string()
                } else {
                    format!("{}·{}", w, net.place_name(p))
                }
            })
            .collect();
        format!("{} = {}", lhs.join(" + "), self.initial_sum)
    }
}

/// The token-count incidence matrix: `inc[t][p]` = net token change of
/// place `p` when transition `t` fires (taken as the per-mode change —
/// modes of one transition that disagree are split into separate rows so
/// an invariant must hold for every mode).
fn incidence_rows(net: &Net) -> Vec<Vec<i64>> {
    let np = net.places.len();
    let mut rows = Vec::new();
    for t in &net.transitions {
        for m in &t.modes {
            let mut row = vec![0i64; np];
            for arc in &m.inputs {
                row[arc.place.0 as usize] -= 1;
            }
            for arc in &m.outputs {
                row[arc.place.0 as usize] += 1;
            }
            rows.push(row);
        }
    }
    // Deduplicate identical rows (common: every mode of `start` moves the
    // same token counts).
    rows.sort();
    rows.dedup();
    rows
}

/// Computes a basis of the integer null space of the incidence matrix
/// (fraction-free Gaussian elimination over `i128`). Every returned
/// vector `w` satisfies `C · w = 0`, i.e. is a place invariant. The basis
/// is not guaranteed minimal-support, but spans the invariant space.
pub fn place_invariants(net: &Net) -> Vec<PlaceInvariant> {
    let np = net.places.len();
    if np == 0 {
        return Vec::new();
    }
    let rows = incidence_rows(net);

    // Gaussian elimination over rationals represented as f64-free exact
    // i128 arithmetic: we row-reduce [C] and read the null space of the
    // column space. Work with fractions via scaling: standard fraction-free
    // Bareiss would do; for the small matrices here, use i128 and
    // cross-multiplication elimination.
    let m = rows.len();
    let mut a: Vec<Vec<i128>> = rows
        .iter()
        .map(|r| r.iter().map(|&x| x as i128).collect())
        .collect();

    let mut pivot_col_of_row: Vec<usize> = Vec::new();
    let mut r = 0;
    for c in 0..np {
        // Find a pivot.
        let Some(pr) = (r..m).find(|&i| a[i][c] != 0) else {
            continue;
        };
        a.swap(r, pr);
        // Eliminate below and above with cross-multiplication.
        for i in 0..m {
            if i != r && a[i][c] != 0 {
                let (p, q) = (a[r][c], a[i][c]);
                let pivot_row = a[r].clone();
                for (x, &pv) in a[i].iter_mut().zip(&pivot_row) {
                    *x = *x * p - pv * q;
                }
                // Keep numbers small: divide the row by its gcd.
                let g = a[i].iter().fold(0i128, |acc, &x| gcd(acc, x.abs()));
                if g > 1 {
                    for x in &mut a[i] {
                        *x /= g;
                    }
                }
            }
        }
        pivot_col_of_row.push(c);
        r += 1;
        if r == m {
            break;
        }
    }

    let pivot_cols: std::collections::HashSet<usize> =
        pivot_col_of_row.iter().copied().collect();
    let free_cols: Vec<usize> = (0..np).filter(|c| !pivot_cols.contains(c)).collect();

    // For each free column, build a null-space vector.
    let mut out = Vec::new();
    for &fc in &free_cols {
        // w[fc] = D (common denominator), w[pivot col of row i] solves
        // a[i][pc] * w[pc] + a[i][fc] * D = 0.
        // Use rational back-substitution: w[pc] = -a[i][fc] / a[i][pc] * D.
        // Choose D = lcm of pivots to stay integral.
        let mut denom: i128 = 1;
        for (i, &pc) in pivot_col_of_row.iter().enumerate() {
            if a[i][fc] != 0 {
                denom = lcm(denom, a[i][pc].abs());
            }
        }
        let mut w = vec![0i128; np];
        w[fc] = denom;
        for (i, &pc) in pivot_col_of_row.iter().enumerate() {
            if a[i][fc] != 0 {
                w[pc] = -a[i][fc] * denom / a[i][pc];
            }
        }
        // Normalize: gcd and sign (make the first non-zero positive).
        let g = w.iter().fold(0i128, |acc, &x| gcd(acc, x.abs()));
        if g > 1 {
            for x in &mut w {
                *x /= g;
            }
        }
        if let Some(first) = w.iter().find(|&&x| x != 0) {
            if *first < 0 {
                for x in &mut w {
                    *x = -*x;
                }
            }
        }
        let weights: Vec<(PlaceId, i64)> = w
            .iter()
            .enumerate()
            .filter(|(_, &x)| x != 0)
            .map(|(p, &x)| (PlaceId(p as u32), x as i64))
            .collect();
        if weights.is_empty() {
            continue;
        }
        let inv = PlaceInvariant {
            initial_sum: weights
                .iter()
                .map(|&(p, wt)| wt * net.initial.total(p) as i64)
                .sum(),
            weights,
        };
        out.push(inv);
    }
    out
}

/// Verifies that every invariant holds on a marking (used by tests against
/// reachability exploration).
pub fn check_invariants(invs: &[PlaceInvariant], m: &crate::net::Marking) -> bool {
    invs.iter().all(|inv| inv.eval(m) == inv.initial_sum)
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        0
    } else {
        a / gcd(a, b) * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::net::{ArcIn, ArcOut, Color, ColorFilter, Marking, Mode, Net};
    use crate::reach::explore_with;
    use dscweaver_core::ExecConditions;
    use dscweaver_dscl::{ConstraintSet, Origin, Relation, StateRef};

    /// p1 -t-> p2: invariant p1 + p2 = const.
    #[test]
    fn two_place_chain_invariant() {
        let mut net = Net::default();
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        net.add_transition(
            "t",
            vec![Mode {
                label: "go".into(),
                inputs: vec![ArcIn {
                    place: p1,
                    filter: ColorFilter::Any,
                }],
                outputs: vec![ArcOut {
                    place: p2,
                    color: Color::unit(),
                }],
            }],
        );
        net.initial.add(p1, Color::unit());
        let invs = place_invariants(&net);
        assert_eq!(invs.len(), 1);
        assert_eq!(invs[0].weights, vec![(p1, 1), (p2, 1)]);
        assert_eq!(invs[0].initial_sum, 1);
        assert_eq!(invs[0].render(&net), "p1 + p2 = 1");
    }

    /// A producer t: ∅ → p has no conservation; null space is empty.
    #[test]
    fn unbounded_producer_no_invariant() {
        let mut net = Net::default();
        let p = net.add_place("p");
        net.add_transition(
            "make",
            vec![Mode {
                label: "go".into(),
                inputs: vec![],
                outputs: vec![ArcOut {
                    place: p,
                    color: Color::unit(),
                }],
            }],
        );
        let invs = place_invariants(&net);
        assert!(invs.is_empty());
    }

    /// Weighted invariant: t consumes 2×p1 and produces 1×p2 →
    /// p1 + 2·p2 conserved.
    #[test]
    fn weighted_invariant() {
        let mut net = Net::default();
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        net.add_transition(
            "t",
            vec![Mode {
                label: "go".into(),
                inputs: vec![
                    ArcIn {
                        place: p1,
                        filter: ColorFilter::Any,
                    },
                    ArcIn {
                        place: p1,
                        filter: ColorFilter::Any,
                    },
                ],
                outputs: vec![ArcOut {
                    place: p2,
                    color: Color::unit(),
                }],
            }],
        );
        net.initial.add(p1, Color::unit());
        net.initial.add(p1, Color::unit());
        let invs = place_invariants(&net);
        assert_eq!(invs.len(), 1);
        assert_eq!(invs[0].weights, vec![(p1, 1), (p2, 2)]);
        assert_eq!(invs[0].initial_sum, 2);
    }

    /// The DSCL lowering's signature property: for every activity,
    /// todo + run + done is an invariant with sum 1 — and every invariant
    /// holds on every reachable marking.
    #[test]
    fn lowering_lifecycle_invariants() {
        let mut cs = ConstraintSet::new("inv");
        for a in ["g", "x", "y"] {
            cs.add_activity(a);
        }
        cs.add_domain("g", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("g"),
            StateRef::start("x"),
            dscweaver_dscl::Condition::new("g", "T"),
            Origin::Control,
        ));
        cs.push(Relation::before(
            StateRef::finish("x"),
            StateRef::start("y"),
            Origin::Data,
        ));
        let exec = ExecConditions::derive(&cs);
        let lowered = lower(&cs, &exec);
        let invs = place_invariants(&lowered.net);
        assert!(!invs.is_empty());

        // The per-activity lifecycle combination is in the invariant span:
        // check directly that todo+run+done stays 1 on every reachable
        // marking, and that every computed invariant holds everywhere.
        let reach = explore_with(&lowered.net, 100_000, 1);
        assert!(!reach.truncated);
        let mut all: Vec<Marking> = reach.terminal.clone();
        all.push(lowered.net.initial.clone());
        for m in &all {
            assert!(check_invariants(&invs, m), "invariant broken");
            for nodes in lowered.activities.values() {
                let sum = m.total(nodes.todo) + m.total(nodes.run) + m.total(nodes.done);
                assert_eq!(sum, 1, "life-cycle invariant");
            }
        }
    }

    #[test]
    fn invariants_hold_across_exploration() {
        // Cross-check: every invariant evaluated on every reachable
        // marking equals its initial sum.
        let mut cs = ConstraintSet::new("x");
        for a in ["a", "b", "c"] {
            cs.add_activity(a);
        }
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("b"),
            Origin::Data,
        ));
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("c"),
            Origin::Data,
        ));
        let exec = ExecConditions::derive(&cs);
        let lowered = lower(&cs, &exec);
        let invs = place_invariants(&lowered.net);
        // Walk the full reachability graph manually, checking at each step.
        let mut stack = vec![lowered.net.initial.clone()];
        let mut seen = std::collections::HashSet::new();
        seen.insert(lowered.net.initial.clone());
        while let Some(m) = stack.pop() {
            assert!(check_invariants(&invs, &m));
            for t in lowered.net.transition_ids() {
                for mi in 0..lowered.net.transitions[t.0 as usize].modes.len() {
                    for b in lowered.net.enabled_bindings(&m, t, mi) {
                        let next = lowered.net.fire(&m, t, mi, &b);
                        if seen.insert(next.clone()) {
                            stack.push(next);
                        }
                    }
                }
            }
        }
    }
}
