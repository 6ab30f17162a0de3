//! # dscweaver-petri
//!
//! Colored Petri nets and the DSCL → net lowering the paper uses for
//! design-time validation (§4.1, refs \[13\] Murata, \[10\] Jensen's colored
//! nets for multi-valued branch outcomes). Includes bounded reachability,
//! a deterministic maximal-step simulator, dead-path-elimination lowering
//! and the layered validation pipeline (structural conflicts →
//! per-assignment simulation).
//!
//! Two engines run the per-assignment simulations: the legacy full-rescan
//! loop ([`run_to_quiescence`]) and the wavefront worklist
//! ([`run_to_quiescence_wavefront`]), pinned bit-identical by property
//! tests. For replaying one net many times, [`PreparedNet`] compiles the
//! wavefront's derived tables once and [`NetSession`] reuses scratch
//! state across runs; [`guard_groups`] factors independent guards so
//! [`validate`] can enumerate additive sub-spaces instead of the full
//! multiplicative product (see [`ValidateOptions::factor`]).
//!
//! ```
//! use dscweaver_core::ExecConditions;
//! use dscweaver_dscl::{Condition, ConstraintSet, Origin, Relation, StateRef};
//! use dscweaver_petri::{validate, ValidateOptions};
//!
//! // A guarded diamond: g chooses x (g=T) or y (g=F); both join at j.
//! let mut cs = ConstraintSet::new("diamond");
//! for a in ["g", "x", "y", "j"] {
//!     cs.add_activity(a);
//! }
//! cs.add_domain("g", vec!["T".into(), "F".into()]);
//! cs.push(Relation::before_if(
//!     StateRef::finish("g"), StateRef::start("x"),
//!     Condition::new("g", "T"), Origin::Control,
//! ));
//! cs.push(Relation::before_if(
//!     StateRef::finish("g"), StateRef::start("y"),
//!     Condition::new("g", "F"), Origin::Control,
//! ));
//! cs.push(Relation::before(StateRef::finish("x"), StateRef::start("j"), Origin::Data));
//! cs.push(Relation::before(StateRef::finish("y"), StateRef::start("j"), Origin::Data));
//!
//! let exec = ExecConditions::derive(&cs);
//! let report = validate(&cs, &exec, &ValidateOptions::default());
//! assert!(report.ok());
//! assert_eq!(report.assignments_checked, 2); // both branches simulated
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod invariants;
pub mod lower;
pub mod net;
pub mod prepared;
pub mod reach;

pub use analysis::{
    validate, validate_default, AssignmentFailure, CompiledValidation, FactorPolicy,
    ValidateOptions, ValidationReport,
};
pub use invariants::{check_invariants, place_invariants, PlaceInvariant};
pub use lower::{lower, ActivityNodes, LoweredNet, SKIP};
pub use net::{ArcIn, ArcOut, Color, ColorFilter, Marking, Mode, Net, PlaceId, TransitionId};
pub use prepared::{guard_groups, NetSession, PreparedNet, WavefrontTables};
pub use reach::{
    assignment_chooser, explore, explore_with, run_to_quiescence, run_to_quiescence_wavefront,
    Reachability, Run,
};
