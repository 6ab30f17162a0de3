//! The annotation algebra of the paper's Definition 3
//! (condition-annotated transitive closure).
//!
//! Given `a1 → a2 →_T a3 → a4`, the paper writes the closure of `a1` as
//! `{a2, a3(T@a2), a4(T@a2)}`: activities reached through a conditional
//! constraint carry the guard annotation, and the annotation propagates to
//! everything downstream of the guard.
//!
//! We generalize this soundly to multiple paths: the annotation of a
//! reachable node is the **set of minimal guard-sets** over all paths from
//! the source (a monotone DNF). A path with no guards contributes the empty
//! guard-set, which absorbs every other term ("reachable unconditionally").
//! Two closures are *the same* (Definition 3's note) iff they reach the same
//! nodes with identical minimal DNFs.
//!
//! This module holds the algebra — [`Dnf`] annotations and the
//! [`GuardFn`] edge view; [`crate::iclosure`] builds the closure itself.
//! The guard type `G` is abstract; the DSCL crate instantiates it with
//! `(guard activity, branch value)` pairs.

use crate::digraph::EdgeId;

/// A conjunction of guards, kept sorted and deduplicated.
pub type GuardSet<G> = Vec<G>;

/// A monotone DNF over guards: the set of *minimal* guard-sets under
/// inclusion. Canonically sorted, so `Eq` is semantic equality (and
/// `Hash` is consistent with it — required by [`crate::intern::DnfPool`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Dnf<G> {
    terms: Vec<GuardSet<G>>,
}

impl<G: Ord + Clone> Dnf<G> {
    /// The DNF with no terms (unreachable / identity for union).
    pub fn empty() -> Self {
        Dnf { terms: Vec::new() }
    }

    /// The DNF containing only the unconditional term `{}` ("always").
    pub fn always() -> Self {
        Dnf {
            terms: vec![Vec::new()],
        }
    }

    /// A DNF with a single conjunction term.
    pub fn term(mut gs: GuardSet<G>) -> Self {
        gs.sort();
        gs.dedup();
        Dnf { terms: vec![gs] }
    }

    /// True if no term exists.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// True if the unconditional term `{}` is present (and, by minimality,
    /// is the only term).
    pub fn is_always(&self) -> bool {
        self.terms.first().is_some_and(Vec::is_empty)
    }

    /// The minimal terms, each sorted, in canonical order.
    pub fn terms(&self) -> &[GuardSet<G>] {
        &self.terms
    }

    /// Adds a term; returns true if coverage grew. Maintains minimality:
    /// a term subsumed by an existing subset is dropped, and existing
    /// supersets of the new term are removed.
    pub fn insert(&mut self, mut gs: GuardSet<G>) -> bool {
        gs.sort();
        gs.dedup();
        if self.terms.iter().any(|t| is_subset(t, &gs)) {
            return false;
        }
        self.terms.retain(|t| !is_subset(&gs, t));
        let pos = self.terms.binary_search(&gs).unwrap_err();
        self.terms.insert(pos, gs);
        true
    }

    /// Union with another DNF; returns true if coverage grew.
    pub fn union_with(&mut self, other: &Dnf<G>) -> bool {
        let mut changed = false;
        for t in &other.terms {
            changed |= self.insert(t.clone());
        }
        changed
    }

    /// Every term of `self`, each extended with `extra`, inserted into
    /// `target`; returns true if `target`'s coverage grew. This is the
    /// "walk one more (possibly guarded) edge" composition step.
    pub fn compose_into(&self, extra: Option<&G>, target: &mut Dnf<G>) -> bool {
        let mut changed = false;
        for t in &self.terms {
            let mut gs = t.clone();
            if let Some(g) = extra {
                gs.push(g.clone());
            }
            changed |= target.insert(gs);
        }
        changed
    }
}

/// Sorted-slice subset test.
fn is_subset<G: Ord>(small: &[G], big: &[G]) -> bool {
    let mut i = 0;
    for b in big {
        if i == small.len() {
            return true;
        }
        match small[i].cmp(b) {
            std::cmp::Ordering::Equal => i += 1,
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Greater => {}
        }
    }
    i == small.len()
}

/// Extracts the closure-relevant view of an edge: `(target, guard)` where
/// `guard` is `None` for unconditional constraints.
pub trait GuardFn<E, G> {
    /// The guard carried by edge `e` with weight `w`, if conditional.
    fn guard(&self, e: EdgeId, w: &E) -> Option<G>;
}

impl<E, G, F: Fn(EdgeId, &E) -> Option<G>> GuardFn<E, G> for F {
    fn guard(&self, e: EdgeId, w: &E) -> Option<G> {
        self(e, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dnf_minimality() {
        let mut d: Dnf<u32> = Dnf::empty();
        assert!(d.insert(vec![1, 2]));
        assert!(d.insert(vec![3]));
        assert!(!d.insert(vec![1, 2, 3]), "superset of an existing term is subsumed");
        assert!(d.insert(vec![1]), "subset replaces wider term");
        assert_eq!(d.terms(), &[vec![1], vec![3]]);
        assert!(!d.insert(vec![1]));
        assert!(d.insert(vec![]), "always absorbs everything");
        assert!(d.is_always());
        assert_eq!(d.terms().len(), 1);
    }

    #[test]
    fn dnf_union() {
        let mut a: Dnf<u32> = Dnf::term(vec![1]);
        let b: Dnf<u32> = Dnf::term(vec![2]);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.terms().len(), 2);
    }
}
