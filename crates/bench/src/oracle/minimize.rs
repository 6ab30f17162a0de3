//! The sequential structural §4.4 greedy minimizer: the reference the
//! optimized `dscweaver_core` engine (interned rows, bitset prefilters,
//! scoped worker threads) is pinned against, and the before-side of the
//! `repro bench-json` minimize suite.

use super::closure::{annotated_closure, Row};
use dscweaver_core::exec::{dnf_and, implies_under};
use dscweaver_core::{
    EdgeOrder, EquivalenceMode, ExecConditions, MinimizeError, MinimizeResult, MinimizeStats,
};
use dscweaver_dscl::sync_graph::{SyncGraph, SyncNode};
use dscweaver_dscl::{Condition, ConstraintSet, Origin, SyncEdge};
use dscweaver_graph::annotated::Dnf;
use dscweaver_graph::{find_cycle, topo_sort, DiGraph, EdgeId, NodeId};
use std::collections::HashSet;

/// The sequential reference implementation of the §4.4 greedy algorithm —
/// structural rows, no interning, no prefilters, no threads.
/// [`dscweaver_core::minimize_generic_with`] must match it edge for edge:
/// same removals, in the same order, with the same candidate count.
pub fn minimize_generic_baseline(
    cs: &ConstraintSet,
    exec: &ExecConditions,
    mode: EquivalenceMode,
    order: &EdgeOrder,
) -> Result<MinimizeResult, MinimizeError> {
    let sg = SyncGraph::build(cs);
    let g = &sg.graph;

    if let Some(cycle) = find_cycle(g) {
        return Err(MinimizeError::Conflict {
            cycle: cycle.iter().map(|&n| g.weight(n).label()).collect(),
        });
    }
    let topo = topo_sort(g).expect("cycle-free graph must sort");
    let mut topo_pos = vec![usize::MAX; g.node_bound()];
    for (i, &n) in topo.iter().enumerate() {
        topo_pos[n.index()] = i;
    }

    // Initial annotated closure.
    let mut rows: Vec<Row<Condition>> = annotated_closure(g, &|_, w: &SyncEdge| w.cond.clone())
        .expect("acyclic")
        .into_rows();

    // Execution condition of a node (service nodes: always).
    let exec_of = |n: NodeId| -> Dnf<Condition> {
        match g.weight(n) {
            SyncNode::State(s) => exec.of(&s.activity),
            SyncNode::Service(_) => Dnf::always(),
        }
    };

    let candidates = order_candidates(g, &sg, order);

    let mut removed_edges: HashSet<EdgeId> = HashSet::new();
    let mut removed_rels: Vec<usize> = Vec::new();
    let mut checked = 0usize;
    // Dense scratch index: `scratch_of[n]` is the position of `n`'s
    // freshly recomputed row in `new_rows`, or `usize::MAX`. Allocated
    // once and reset per candidate (only the touched entries).
    let mut scratch_of: Vec<usize> = vec![usize::MAX; g.node_bound()];

    for (cand, rel_idx) in candidates {
        checked += 1;
        let (u, _) = g.endpoints(cand);

        // Fast path: recompute the row of the edge's tail first. Rows of
        // every other node depend on the graph only *through* u's row, so
        // if it is unchanged the whole closure is unchanged (accept
        // immediately), and if it is not even covered the removal is
        // rejected without touching the ancestors.
        let new_u = compose_without(g, u, cand, &removed_edges, &rows, &[], &scratch_of);
        if new_u == rows[u.index()] {
            // Closure untouched: the constraint was pure redundancy.
            removed_edges.insert(cand);
            removed_rels.push(rel_idx);
            continue;
        }
        if !row_covered(&rows[u.index()], &new_u, mode, &exec_of(u), &exec_of, cs) {
            continue; // load-bearing edge
        }

        // Slow path (rare): u's row weakened but stays covered — every
        // ancestor's row must be rechecked.
        let mut affected: Vec<NodeId> = Vec::new();
        {
            let mut seen = vec![false; g.node_bound()];
            let mut stack = vec![u];
            seen[u.index()] = true;
            while let Some(x) = stack.pop() {
                affected.push(x);
                for e in g.in_edges(x) {
                    if removed_edges.contains(&e) {
                        continue;
                    }
                    let (p, _) = g.endpoints(e);
                    if !seen[p.index()] {
                        seen[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
        }
        // Recompute affected rows in reverse topological order (the
        // original order stays valid: we only ever delete edges).
        affected.sort_by_key(|n| std::cmp::Reverse(topo_pos[n.index()]));
        let mut new_rows: Vec<(NodeId, Row<Condition>)> = Vec::with_capacity(affected.len());
        for &n in &affected {
            let row = compose_without(g, n, cand, &removed_edges, &rows, &new_rows, &scratch_of);
            scratch_of[n.index()] = new_rows.len();
            new_rows.push((n, row));
        }
        for &n in &affected {
            scratch_of[n.index()] = usize::MAX;
        }

        // Definition 4/5 check on every affected row.
        let ok = new_rows.iter().all(|(n, new_row)| {
            row_covered(&rows[n.index()], new_row, mode, &exec_of(*n), &exec_of, cs)
        });

        if ok {
            removed_edges.insert(cand);
            removed_rels.push(rel_idx);
            for (n, row) in new_rows {
                rows[n.index()] = row;
            }
        }
    }

    let removed_set: HashSet<usize> = removed_rels.iter().copied().collect();
    let minimal = SyncGraph::subset(cs, &|i| !removed_set.contains(&i));
    let removed = removed_rels
        .iter()
        .map(|&i| cs.relations[i].clone())
        .collect();
    Ok(MinimizeResult {
        minimal,
        removed,
        candidates_checked: checked,
        stats: MinimizeStats::default(),
    })
}

/// Sorts removal candidates according to `order`.
fn order_candidates(
    g: &DiGraph<SyncNode, SyncEdge>,
    sg: &SyncGraph,
    order: &EdgeOrder,
) -> Vec<(EdgeId, usize)> {
    let mut candidates: Vec<(EdgeId, usize)> = sg.constraint_edges().collect();
    match order {
        EdgeOrder::Given => {}
        EdgeOrder::ReverseGiven => candidates.reverse(),
        EdgeOrder::ByDimension(priority) => {
            let rank = |o: Origin| -> usize {
                priority
                    .iter()
                    .position(|&p| p == o)
                    .unwrap_or(priority.len())
            };
            candidates.sort_by_key(|&(e, i)| (rank(g.edge_weight(e).origin), i));
        }
    }
    candidates
}

/// Recomposes the closure row of `n` with edge `skip` (and every edge in
/// `removed`) excluded. Successor rows come from `scratch` (freshly
/// recomputed rows, located via the dense `scratch_of` index, `usize::MAX`
/// meaning absent) when present, else from the stable `rows` table —
/// successors outside the affected set are untouched by the removal.
fn compose_without(
    g: &DiGraph<SyncNode, SyncEdge>,
    n: NodeId,
    skip: EdgeId,
    removed: &HashSet<EdgeId>,
    rows: &[Row<Condition>],
    scratch: &[(NodeId, Row<Condition>)],
    scratch_of: &[usize],
) -> Row<Condition> {
    let mut row = Row::new();
    for e in g.out_edges(n) {
        if e == skip || removed.contains(&e) {
            continue;
        }
        let (_, m) = g.endpoints(e);
        let guard = g.edge_weight(e).cond.clone();
        row.add_term(m, guard.clone().map(|c| vec![c]).unwrap_or_default());
        let mrow: &Row<Condition> = match scratch_of[m.index()] {
            usize::MAX => &rows[m.index()],
            i => &scratch[i].1,
        };
        for (t, dnf) in mrow.iter() {
            row.compose_from(t, dnf, guard.as_ref());
        }
    }
    row
}

/// Is `old`'s row covered by `new` under `mode`? (`new` ⊆ `old` pointwise
/// holds by construction — removal only loses paths — so this is the whole
/// equivalence check.)
fn row_covered(
    old: &Row<Condition>,
    new: &Row<Condition>,
    mode: EquivalenceMode,
    src_exec: &Dnf<Condition>,
    exec_of: &dyn Fn(NodeId) -> Dnf<Condition>,
    cs: &ConstraintSet,
) -> bool {
    match mode {
        EquivalenceMode::Strict => old == new,
        EquivalenceMode::ExecutionAware => old.iter().all(|(t, old_dnf)| {
            let empty = Dnf::empty();
            let new_dnf = new.get(t).unwrap_or(&empty);
            let ctx = dnf_and(src_exec, &exec_of(t));
            implies_under(&ctx, old_dnf, new_dnf, &cs.domains)
        }),
        EquivalenceMode::Reachability => old.iter().all(|(t, _)| new.reaches(t)),
    }
}
