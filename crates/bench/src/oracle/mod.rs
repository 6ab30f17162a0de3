//! Reference engines: the original, straightforward implementation of
//! each pipeline stage whose production crate now ships one optimized
//! engine only.
//!
//! Each reference is an independent re-implementation — it shares no
//! private code with the engine it checks — and is used in two places:
//! the equivalence suites pin the production engine to it (same seeds,
//! cases and thread counts), and `repro bench-json` times it as the
//! `baseline_ms` side of each comparison after asserting both engines
//! agree.
//!
//! | reference | production engine it checks |
//! |---|---|
//! | [`closure::annotated_closure`], [`closure::annotated_closure_condensed`] | `dscweaver_graph::interned_closure{,_condensed}` |
//! | [`minimize_generic_baseline`] | `dscweaver_core::minimize_generic_with` |
//! | [`simulate_rescan_baseline`] | `dscweaver_scheduler::simulate` |
//! | [`execute_threaded`] | `dscweaver_scheduler::simulate` (traces verified against the same constraints) |
//! | [`explore`], [`run_to_quiescence`] | `dscweaver_petri::{explore_with, run_to_quiescence_wavefront}` |
//! | [`validate_rescan`] | `dscweaver_petri::validate` |

pub mod closure;
mod minimize;
mod petri;
mod scheduler;
mod threaded;

pub use minimize::minimize_generic_baseline;
pub use petri::{explore, run_to_quiescence, validate_rescan};
pub use scheduler::simulate_rescan_baseline;
pub use threaded::{execute_threaded, ThreadedRun};
