//! # dscweaver-scheduler
//!
//! The dataflow scheduling engine (§1: "dependencies are explicitly
//! modeled to guide activity scheduling") and the sequencing-construct
//! baseline it is compared with:
//!
//! * [`engine`] — a discrete-event simulator executing constraint sets in
//!   virtual time, with dead-path elimination, Exclusive runtime checking
//!   (§4.2) and a constraint-check counter (the "maintenance cost" the
//!   optimization reduces); [`PreparedSchedule`] compiles one constraint
//!   set's indexes for repeated simulation under different branch oracles
//!   (monitoring replay);
//! * [`constructs`] — the sequencing-construct baseline: Figure-2-style
//!   process structure converted to (over-specified) constraints, run on
//!   the same engine;
//! * [`trace`] — traces, metrics and post-hoc verification of *any*
//!   constraint set against a trace (the optimizer's correctness oracle).
//!
//! ```
//! use dscweaver_core::ExecConditions;
//! use dscweaver_dscl::{ConstraintSet, Origin, Relation, StateRef};
//! use dscweaver_scheduler::{engine::PreparedSchedule, simulate, SimConfig};
//!
//! // a → b → c in series, unit durations.
//! let mut cs = ConstraintSet::new("chain");
//! for a in ["a", "b", "c"] {
//!     cs.add_activity(a);
//! }
//! cs.push(Relation::before(StateRef::finish("a"), StateRef::start("b"), Origin::Data));
//! cs.push(Relation::before(StateRef::finish("b"), StateRef::start("c"), Origin::Data));
//!
//! let exec = ExecConditions::derive(&cs);
//! let config = SimConfig::default();
//! // One-shot entry point and the prepared session agree bit for bit.
//! let fresh = simulate(&cs, &exec, &config);
//! let session = PreparedSchedule::new(&cs, &exec);
//! let replay = session.run(&config);
//! assert!(fresh.completed());
//! assert_eq!(format!("{:?}", replay.trace), format!("{:?}", fresh.trace));
//! assert_eq!(fresh.trace.makespan(), 3);
//! ```

#![warn(missing_docs)]

pub mod conformance;
pub mod constructs;
pub mod engine;
pub mod monitor;
pub mod trace;

pub use conformance::{check_all_conformance, check_conformance, occurrence_point};
pub use monitor::{
    oracle_verdicts, InstanceId, MonitorConfig, MonitorError, MonitorEvent, MonitorPhase,
    MonitorProgram, MonitorState, MonitorStats, Verdict, VerdictKind,
};
pub use constructs::{structural_constraints, StructuralError};
pub use engine::{simulate, DurationModel, PreparedSchedule, Schedule, ScheduleTables, SimConfig};
pub use trace::{EventKind, Time, Trace, TraceEvent, Violation};
