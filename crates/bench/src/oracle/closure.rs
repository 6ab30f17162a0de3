//! The structural condition-annotated closure (Definition 3): one
//! `BTreeMap` row of [`Dnf`] annotations per node, composed in a single
//! reverse-topological pass (or a per-component least fixpoint on cyclic
//! inputs). The reference the interned, level-parallel
//! [`dscweaver_graph::iclosure`] engine is pinned row-for-row against.

use dscweaver_graph::annotated::{Dnf, GuardFn, GuardSet};
use dscweaver_graph::{condense, topo_sort, CycleError, DiGraph, NodeId};
use std::collections::BTreeMap;

/// One closure row: target node index → annotation DNF.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Row<G> {
    entries: BTreeMap<u32, Dnf<G>>,
}

impl<G: Ord + Clone> Row<G> {
    /// Empty row.
    pub fn new() -> Self {
        Row {
            entries: BTreeMap::new(),
        }
    }

    /// The annotation with which `n` is reached, if reachable.
    pub fn get(&self, n: NodeId) -> Option<&Dnf<G>> {
        self.entries.get(&n.0)
    }

    /// True if `n` is reachable (under any condition).
    pub fn reaches(&self, n: NodeId) -> bool {
        self.entries.contains_key(&n.0)
    }

    /// Number of reachable targets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is reachable.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(target, dnf)` in ascending target order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Dnf<G>)> {
        self.entries.iter().map(|(&i, d)| (NodeId(i), d))
    }

    fn entry(&mut self, n: NodeId) -> &mut Dnf<G> {
        self.entries.entry(n.0).or_insert_with(Dnf::empty)
    }

    /// Adds one guard-set term to the annotation of `n`; returns true if
    /// coverage grew.
    pub fn add_term(&mut self, n: NodeId, term: GuardSet<G>) -> bool {
        self.entry(n).insert(term)
    }

    /// Folds `dnf ⊗ extra` into the annotation of `n`; returns true if
    /// coverage grew.
    pub fn compose_from(&mut self, n: NodeId, dnf: &Dnf<G>, extra: Option<&G>) -> bool {
        dnf.compose_into(extra, self.entry(n))
    }

    /// Definition 4's per-activity test, annotation-exact: every target of
    /// `self` is a target of `other` **with the same minimal DNF**.
    pub fn covered_by(&self, other: &Row<G>) -> bool
    where
        G: PartialEq,
    {
        self.entries
            .iter()
            .all(|(i, d)| other.entries.get(i) == Some(d))
    }
}

/// Composes the row of `n` from its out-edges and the rows of its
/// successors: `row(n) = ⋃_{n →g m} ({m: g} ∪ g ⊗ row(m))`.
///
/// `row_of(m)` must already be the finished row of `m` (reverse topological
/// processing guarantees this on DAGs). Returns the freshly built row.
pub fn compose_row<N, E, G: Ord + Clone>(
    g: &DiGraph<N, E>,
    n: NodeId,
    guard_of: &impl GuardFn<E, G>,
    mut row_of: impl FnMut(NodeId) -> Row<G>,
) -> Row<G> {
    let mut row = Row::new();
    for e in g.out_edges(n) {
        let (_, m) = g.endpoints(e);
        let guard = guard_of.guard(e, g.edge_weight(e));
        // Direct edge n -> m.
        row.entry(m).insert(match &guard {
            Some(gu) => vec![gu.clone()],
            None => Vec::new(),
        });
        // Everything m reaches, with the edge guard appended.
        let mrow = row_of(m);
        for (t, dnf) in mrow.iter() {
            dnf.compose_into(guard.as_ref(), row.entry(t));
        }
    }
    row
}

/// The full condition-annotated transitive closure (all rows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnnotatedClosure<G> {
    rows: Vec<Row<G>>,
}

impl<G: Ord + Clone> AnnotatedClosure<G> {
    /// The row for `n`.
    pub fn row(&self, n: NodeId) -> &Row<G> {
        &self.rows[n.index()]
    }

    /// All rows indexed by node index (tombstone slots hold empty rows).
    pub fn rows(&self) -> &[Row<G>] {
        &self.rows
    }

    /// Consumes the closure, yielding the rows.
    pub fn into_rows(self) -> Vec<Row<G>> {
        self.rows
    }
}

/// Computes the annotated closure of a **DAG** in one reverse-topological
/// pass. Returns the cycle error untouched for cyclic inputs — the callers
/// (optimizer, validator) treat cycles as specification conflicts and
/// report them separately.
pub fn annotated_closure<N, E, G: Ord + Clone>(
    g: &DiGraph<N, E>,
    guard_of: &impl GuardFn<E, G>,
) -> Result<AnnotatedClosure<G>, CycleError> {
    let order = topo_sort(g)?;
    let mut rows: Vec<Row<G>> = vec![Row::new(); g.node_bound()];
    for &n in order.iter().rev() {
        let row = compose_row(g, n, guard_of, |m| rows[m.index()].clone());
        rows[n.index()] = row;
    }
    Ok(AnnotatedClosure { rows })
}

/// [`annotated_closure`] with a cyclic fallback instead of a `CycleError`:
/// the graph is condensed through the shared [`dscweaver_graph::closure::condense`]
/// entry point and each cyclic component is solved by a least fixpoint
/// (iterate [`compose_row`] until no row grows — coverage is monotone over
/// the finite lattice of minimal guard-set antichains, so this
/// terminates). Acyclic inputs take exactly the one-pass DAG path.
///
/// Members of a cyclic component reach themselves, mirroring the strict
/// unconditional closure's self-reachability-on-cycles convention.
pub fn annotated_closure_condensed<N, E, G: Ord + Clone>(
    g: &DiGraph<N, E>,
    guard_of: &impl GuardFn<E, G>,
) -> AnnotatedClosure<G> {
    if let Ok(c) = annotated_closure(g, guard_of) {
        return c;
    }
    let cond = condense(g);
    let mut rows: Vec<Row<G>> = vec![Row::new(); g.node_bound()];
    for (c, members) in cond.comps.iter().enumerate() {
        if !cond.cyclic[c] {
            let n = members[0];
            let row = compose_row(g, n, guard_of, |m| rows[m.index()].clone());
            rows[n.index()] = row;
            continue;
        }
        loop {
            let mut changed = false;
            for &n in members {
                let row = compose_row(g, n, guard_of, |m| rows[m.index()].clone());
                if row != rows[n.index()] {
                    rows[n.index()] = row;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    AnnotatedClosure { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_graph::EdgeId;

    type G = (u32, bool); // (guard node raw id, branch value)

    fn guard_of() -> impl Fn(EdgeId, &Option<G>) -> Option<G> {
        |_, w: &Option<G>| *w
    }

    /// The paper's running example: a1 → a2 →_T a3 → a4.
    #[test]
    fn paper_definition3_example() {
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a1 = g.add_node(());
        let a2 = g.add_node(());
        let a3 = g.add_node(());
        let a4 = g.add_node(());
        g.add_edge(a1, a2, None);
        g.add_edge(a2, a3, Some((a2.0, true)));
        g.add_edge(a3, a4, None);
        let c = annotated_closure(&g, &guard_of()).unwrap();
        let r = c.row(a1);
        // a1+ = {a2, a3(T@a2), a4(T@a2)}
        assert_eq!(r.len(), 3);
        assert!(r.get(a2).unwrap().is_always());
        assert_eq!(r.get(a3).unwrap().terms(), &[vec![(a2.0, true)]]);
        assert_eq!(r.get(a4).unwrap().terms(), &[vec![(a2.0, true)]]);
        // a2+ = {a3(T@a2), a4(T@a2)} — the annotation note applies from the
        // conditional edge onward.
        let r2 = c.row(a2);
        assert_eq!(r2.get(a4).unwrap().terms(), &[vec![(a2.0, true)]]);
    }

    #[test]
    fn unconditional_path_absorbs_conditional() {
        // a → b (direct) and a →_T c → b: b is reachable unconditionally.
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, None);
        g.add_edge(a, c, Some((a.0, true)));
        g.add_edge(c, b, None);
        let cl = annotated_closure(&g, &guard_of()).unwrap();
        assert!(cl.row(a).get(b).unwrap().is_always());
        assert_eq!(cl.row(a).get(c).unwrap().terms(), &[vec![(a.0, true)]]);
    }

    #[test]
    fn alternative_guards_kept_as_separate_terms() {
        // a →_T b and a →_F c →(unconditionally) b ... both guarded paths
        // to d: d carries two minimal one-guard terms.
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, Some((a.0, true)));
        g.add_edge(a, c, Some((a.0, false)));
        g.add_edge(b, d, None);
        g.add_edge(c, d, None);
        let cl = annotated_closure(&g, &guard_of()).unwrap();
        let dnf = cl.row(a).get(d).unwrap();
        assert_eq!(dnf.terms().len(), 2);
        assert_eq!(
            dnf.terms(),
            &[vec![(a.0, false)], vec![(a.0, true)]],
            "canonical order"
        );
    }

    #[test]
    fn nested_guards_accumulate() {
        // a →_T b →_F c: c annotated with both guards.
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, Some((a.0, true)));
        g.add_edge(b, c, Some((b.0, false)));
        let cl = annotated_closure(&g, &guard_of()).unwrap();
        assert_eq!(
            cl.row(a).get(c).unwrap().terms(),
            &[vec![(a.0, true), (b.0, false)]]
        );
    }

    #[test]
    fn row_cover_is_annotation_exact() {
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, Some((a.0, true)));
        g.add_edge(b, c, None);
        let cl = annotated_closure(&g, &guard_of()).unwrap();

        // Same graph but with the guard dropped: rows differ.
        let mut g2: DiGraph<(), Option<G>> = DiGraph::new();
        let a2 = g2.add_node(());
        let b2 = g2.add_node(());
        let c2 = g2.add_node(());
        g2.add_edge(a2, b2, None);
        g2.add_edge(b2, c2, None);
        let cl2 = annotated_closure(&g2, &guard_of()).unwrap();

        assert!(cl.row(a).covered_by(cl.row(a)));
        assert!(
            !cl.row(a).covered_by(cl2.row(a2)),
            "conditional vs unconditional annotations are not the same"
        );
    }

    #[test]
    fn cycle_is_reported() {
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, None);
        g.add_edge(b, a, None);
        assert!(annotated_closure(&g, &guard_of()).is_err());
    }

    #[test]
    fn compose_row_matches_full_closure() {
        let mut g: DiGraph<(), Option<G>> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, Some((a.0, true)));
        g.add_edge(b, c, None);
        g.add_edge(a, c, Some((a.0, false)));
        let cl = annotated_closure(&g, &guard_of()).unwrap();
        let rebuilt = compose_row(&g, a, &guard_of(), |m| cl.row(m).clone());
        assert_eq!(&rebuilt, cl.row(a));
    }
}
