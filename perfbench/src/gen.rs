//! Seeded input generators for the serve workloads. The daemon sees only
//! what these produce; the same seed always produces the same requests.
//!
//! Processes come from the `perf_serve::proc_text` family: structurally
//! distinct after canonicalization for every index below
//! [`INDEX_SPACE`], so each index is its own compiled artifact, and
//! `variant_text` renames one without changing its canonical form.

use dscweaver::serve::canon::canonicalize;
use dscweaver_bench::perf_serve::{proc_text, variant_text};
use dscweaver_prng::Rng;
use std::collections::VecDeque;

/// Indices the process family keeps structurally distinct.
pub const INDEX_SPACE: usize = 1 << 14;

/// Tail activities per process (`b0`..`b13`), the edit sites of a
/// one-edit revision.
pub const TAIL_BITS: usize = 14;

/// `count` distinct process indices, a seeded sample of the index space.
pub fn pick_indices(seed: u64, count: usize) -> Vec<usize> {
    assert!(count <= INDEX_SPACE, "population exceeds the index space");
    let mut all: Vec<usize> = (0..INDEX_SPACE).collect();
    Rng::seed_from_u64(seed ^ 0x5eed_1dce_u64).shuffle(&mut all);
    all.truncate(count);
    all
}

/// Per-client generator seed: distinct streams per client, stable per
/// run seed.
pub fn client_seed(seed: u64, client: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(client as u64 + 1)
}

/// A `serve_hot` request kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HotOp {
    /// `POST /v1/weave`.
    Weave,
    /// `POST /v1/validate`.
    Validate,
    /// `POST /v1/simulate?branch=g<i>:T|F`.
    Simulate {
        /// Oracle pick for the process's one guard.
        branch_t: bool,
    },
}

impl HotOp {
    /// Every kind, in reference-table order.
    pub const ALL: [HotOp; 4] = [
        HotOp::Weave,
        HotOp::Validate,
        HotOp::Simulate { branch_t: true },
        HotOp::Simulate { branch_t: false },
    ];

    /// Position in [`HotOp::ALL`].
    pub fn slot(self) -> usize {
        match self {
            HotOp::Weave => 0,
            HotOp::Validate => 1,
            HotOp::Simulate { branch_t: true } => 2,
            HotOp::Simulate { branch_t: false } => 3,
        }
    }

    /// Request target for process index `i`.
    pub fn target(self, i: usize) -> String {
        match self {
            HotOp::Weave => "/v1/weave".into(),
            HotOp::Validate => "/v1/validate".into(),
            HotOp::Simulate { branch_t } => {
                format!(
                    "/v1/simulate?branch=g{i}:{}",
                    if branch_t { "T" } else { "F" }
                )
            }
        }
    }
}

/// The `serve_hot` mix: uniform picks from the working set; ~80% weave,
/// ~10% validate, ~10% simulate (branch T or F at even odds).
pub struct HotMix {
    rng: Rng,
    working_set: usize,
}

impl HotMix {
    /// A client's stream over a working set of `working_set` processes.
    pub fn new(seed: u64, client: usize, working_set: usize) -> HotMix {
        HotMix {
            rng: Rng::seed_from_u64(client_seed(seed, client)),
            working_set,
        }
    }

    /// The next request: (working-set slot, kind).
    pub fn next_request(&mut self) -> (usize, HotOp) {
        let slot = self.rng.random_range(self.working_set);
        let roll = self.rng.random_range(100);
        let op = if roll < 80 {
            HotOp::Weave
        } else if roll < 90 {
            HotOp::Validate
        } else {
            HotOp::Simulate {
                branch_t: self.rng.random_bool(0.5),
            }
        };
        (slot, op)
    }
}

/// A `serve_churn` request class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChurnClass {
    /// A process this client has not sent recently: a compile.
    New,
    /// A fresh textual variant of a recent process: a canonical hit.
    Variant,
    /// A byte-identical re-submission of a recent request: a raw hit.
    Resubmit,
    /// `/v1/reweave?base=` with a one-edit revision of a recent base.
    Reweave,
}

/// One generated `serve_churn` request.
#[derive(Clone, Debug)]
pub struct ChurnRequest {
    /// Request class.
    pub class: ChurnClass,
    /// Request target (path and query).
    pub target: String,
    /// Body: process text.
    pub text: String,
    /// The base process text (re-weave only), for the reference.
    pub base_text: Option<String>,
}

struct Recent {
    index: usize,
    texts: Vec<String>,
    reweaved: bool,
}

/// How many of its latest processes a churn client revisits. Each
/// request inserts at most one cache entry, so with two clients a
/// revisited process was inserted at most a few dozen entries ago —
/// far inside a 256-entry cache.
pub const RECENT: usize = 16;

/// The `serve_churn` mix: ~60% new processes, ~25% variants of a recent
/// one, ~10% exact re-submissions, ~5% one-edit re-weaves of a recent
/// base (each base re-woven at most once, so every re-weave starts from
/// a session holding only the initial weave).
pub struct ChurnMix {
    rng: Rng,
    fresh: Vec<usize>,
    next_fresh: usize,
    recent: VecDeque<Recent>,
}

impl ChurnMix {
    /// A client's stream over its own slice of the population (clients
    /// get disjoint slices, so no two clients share a base).
    pub fn new(seed: u64, client: usize, fresh: Vec<usize>) -> ChurnMix {
        assert!(!fresh.is_empty(), "a churn client needs processes");
        ChurnMix {
            rng: Rng::seed_from_u64(client_seed(seed, client)),
            fresh,
            next_fresh: 0,
            recent: VecDeque::new(),
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> ChurnRequest {
        let roll = self.rng.random_range(100);
        let class = match roll {
            0..=59 => ChurnClass::New,
            60..=84 => ChurnClass::Variant,
            85..=94 => ChurnClass::Resubmit,
            _ => ChurnClass::Reweave,
        };
        match class {
            ChurnClass::Variant if !self.recent.is_empty() => {
                let k = self.rng.random_range(self.recent.len());
                let tenant = 1 + self.rng.random_range(1 << 20);
                let entry = &mut self.recent[k];
                let text = variant_text(entry.index, tenant);
                entry.texts.push(text.clone());
                weave(ChurnClass::Variant, text)
            }
            ChurnClass::Resubmit if !self.recent.is_empty() => {
                let k = self.rng.random_range(self.recent.len());
                let entry = &self.recent[k];
                let text = entry.texts[self.rng.random_range(entry.texts.len())].clone();
                weave(ChurnClass::Resubmit, text)
            }
            ChurnClass::Reweave if self.recent.iter().any(|r| !r.reweaved) => {
                let open: Vec<usize> = (0..self.recent.len())
                    .filter(|&k| !self.recent[k].reweaved)
                    .collect();
                let k = open[self.rng.random_range(open.len())];
                let bit = self.rng.random_range(TAIL_BITS);
                let entry = &mut self.recent[k];
                entry.reweaved = true;
                let base_text = proc_text(entry.index);
                let base = canonicalize(&base_text)
                    .expect("the process family canonicalizes")
                    .hash;
                ChurnRequest {
                    class: ChurnClass::Reweave,
                    target: format!("/v1/reweave?base={base:016x}"),
                    text: one_edit(&base_text, entry.index, bit),
                    base_text: Some(base_text),
                }
            }
            _ => {
                let index = self.fresh[self.next_fresh % self.fresh.len()];
                self.next_fresh += 1;
                let text = proc_text(index);
                self.recent.push_front(Recent {
                    index,
                    texts: vec![text.clone()],
                    reweaved: false,
                });
                self.recent.truncate(RECENT);
                weave(ChurnClass::New, text)
            }
        }
    }
}

fn weave(class: ChurnClass, text: String) -> ChurnRequest {
    ChurnRequest {
        class,
        target: "/v1/weave".into(),
        text,
        base_text: None,
    }
}

/// Flips tail activity `bit` of `proc_text(index)` between reading and
/// writing the joined variable: one edit, one changed dependency.
pub fn one_edit(text: &str, index: usize, bit: usize) -> String {
    let reads = format!("assign b{bit} reads v{index};");
    let writes = format!("assign b{bit} writes v{index};");
    if text.contains(&reads) {
        text.replacen(&reads, &writes, 1)
    } else {
        text.replacen(&writes, &reads, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(pick_indices(7, 50), pick_indices(7, 50));
        assert_ne!(pick_indices(7, 50), pick_indices(8, 50));
        let draw = |seed| {
            let mut m = HotMix::new(seed, 0, 2000);
            (0..200).map(|_| m.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let churn = |seed| {
            let mut m = ChurnMix::new(seed, 1, pick_indices(seed, 100));
            (0..200)
                .map(|_| {
                    let r = m.next_request();
                    (r.class, r.target, r.text)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(churn(5), churn(5));
        assert_ne!(churn(5), churn(6));
        // Clients of one run draw different streams.
        let mut a = HotMix::new(3, 0, 2000);
        let mut b = HotMix::new(3, 1, 2000);
        let sa: Vec<_> = (0..50).map(|_| a.next_request()).collect();
        let sb: Vec<_> = (0..50).map(|_| b.next_request()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn picked_indices_are_distinct_and_in_range() {
        let mut v = pick_indices(1, 10_000);
        assert!(v.iter().all(|&i| i < INDEX_SPACE));
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 10_000);
    }

    fn share(count: usize, total: usize) -> f64 {
        count as f64 / total as f64
    }

    #[test]
    fn hot_mix_lands_on_its_shares() {
        let n = 100_000;
        let mut m = HotMix::new(11, 0, 2000);
        let mut kinds = [0usize; 4];
        let mut slots = vec![0usize; 2000];
        for _ in 0..n {
            let (slot, op) = m.next_request();
            kinds[op.slot()] += 1;
            slots[slot] += 1;
        }
        assert!((share(kinds[0], n) - 0.80).abs() < 0.01, "{kinds:?}");
        assert!((share(kinds[1], n) - 0.10).abs() < 0.01, "{kinds:?}");
        assert!(
            (share(kinds[2] + kinds[3], n) - 0.10).abs() < 0.01,
            "{kinds:?}"
        );
        assert!((share(kinds[2], kinds[2] + kinds[3]) - 0.5).abs() < 0.03);
        // Uniform over the working set: every process is picked.
        assert!(slots.iter().all(|&c| c > 0));
    }

    #[test]
    fn churn_mix_lands_on_its_shares() {
        let n = 20_000;
        let mut m = ChurnMix::new(13, 0, pick_indices(13, 5000));
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(m.next_request().class).or_insert(0usize) += 1;
        }
        let got = |c| share(counts.get(&c).copied().unwrap_or(0), n);
        assert!((got(ChurnClass::New) - 0.60).abs() < 0.02, "{counts:?}");
        assert!((got(ChurnClass::Variant) - 0.25).abs() < 0.02, "{counts:?}");
        assert!(
            (got(ChurnClass::Resubmit) - 0.10).abs() < 0.02,
            "{counts:?}"
        );
        assert!((got(ChurnClass::Reweave) - 0.05).abs() < 0.01, "{counts:?}");
    }

    #[test]
    fn churn_requests_have_the_cache_relation_they_claim() {
        let mut m = ChurnMix::new(17, 0, pick_indices(17, 500));
        let mut seen_texts = std::collections::HashSet::new();
        let mut seen_canonical = std::collections::HashSet::new();
        let mut reweaved_bases = std::collections::HashSet::new();
        for _ in 0..600 {
            let r = m.next_request();
            match r.class {
                ChurnClass::Reweave => {
                    assert!(reweaved_bases.insert(r.target.clone()), "base reused");
                    let base = r.base_text.as_deref().unwrap();
                    assert_ne!(base, r.text, "a revision differs from its base");
                    let hash = canonicalize(base).unwrap().hash;
                    assert!(seen_canonical.contains(&hash), "base was woven before");
                    assert!(r.target.ends_with(&format!("{hash:016x}")));
                    continue;
                }
                ChurnClass::Resubmit => assert!(seen_texts.contains(&r.text)),
                ChurnClass::Variant => {
                    let hash = canonicalize(&r.text).unwrap().hash;
                    assert!(seen_canonical.contains(&hash));
                }
                ChurnClass::New => {}
            }
            seen_texts.insert(r.text.clone());
            seen_canonical.insert(canonicalize(&r.text).unwrap().hash);
        }
    }

    #[test]
    fn one_edit_changes_one_tail_activity() {
        let base = proc_text(5);
        for bit in 0..TAIL_BITS {
            let edited = one_edit(&base, 5, bit);
            let diff: Vec<_> = base
                .lines()
                .zip(edited.lines())
                .filter(|(a, b)| a != b)
                .collect();
            assert_eq!(diff.len(), 1, "bit {bit}");
            assert_eq!(one_edit(&edited, 5, bit), base);
        }
    }
}
