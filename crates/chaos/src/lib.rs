//! # sle-chaos — deterministic fault injection and invariant checking
//!
//! The DSN 2008 paper's whole claim is *stability under dynamism*:
//! workstations crash and recover, links lose and delay messages, and the
//! service keeps an agreed leader standing. The harness replays the paper's
//! fixed scenarios; this crate *searches* for schedules that break the
//! service instead. Three pieces:
//!
//! * [`plan`] — a fault-plan DSL: timed, seed-driven injections of network
//!   partitions and healing, workstation churn (crash/recover, mid-run
//!   join/leave, killing the current leader), message duplication /
//!   reordering / burst-loss overlays, and delay steps — compiled onto the
//!   simulation timeline by the engine.
//! * [`invariants`] — a checker replaying the run's event trace against
//!   machine-checked statements of the paper's properties: eventual
//!   agreement, leader stability, the mistake-recurrence QoS bound, and
//!   "no two simultaneous stable leaders in one partition component".
//! * [`sweep`] — a multi-seed sweep runner executing N seeds × M fault
//!   plans across S1/S2/S3, shrinking ([`shrink`]) every failing seed to a
//!   1-minimal plan and rendering it as a ready-to-paste `#[test]`.
//!
//! See `docs/CHAOS.md` for the DSL reference, the precise invariant
//! definitions (with paper-section references), and the workflow for
//! turning a sweep failure into a regression test. The `chaos_sweep`
//! binary in `sle-bench` drives this crate from the command line and CI.
//!
//! ## Example: a partition experiment in four lines
//!
//! ```
//! use sle_chaos::{run_plan, ChaosConfig, FaultAction, FaultPlan};
//! use sle_election::ElectorKind;
//! use sle_sim::actor::NodeId;
//! use sle_sim::time::SimDuration;
//!
//! let plan = FaultPlan::new("split-then-heal")
//!     .at(12.0, FaultAction::Partition(vec![
//!         vec![NodeId(0)],
//!         vec![NodeId(1), NodeId(2), NodeId(3)],
//!     ]))
//!     .at(20.0, FaultAction::Heal);
//! let config = ChaosConfig::new(ElectorKind::OmegaL, 4)
//!     .with_duration(SimDuration::from_secs(30));
//! let report = run_plan(&config, &plan, 1);
//! assert!(report.ok(), "invariant violations: {:#?}", report.violations);
//! assert!(report.network.partitioned > 0, "the partition did bite");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod convert;
pub mod engine;
pub mod invariants;
pub mod plan;
pub mod shrink;
pub mod sweep;
pub mod trace;

pub use convert::{convert_record, convert_trace};
pub use engine::{run_plan, ChaosConfig, ChaosReport, CHAOS_GROUP};
pub use invariants::{check_trace, InvariantSpec, Violation, ViolationKind};
pub use plan::{link_to_code, FaultAction, FaultPlan, PlanKind, TimedAction};
pub use shrink::{shrink_plan, Shrunk};
pub use sweep::{
    render_regression_test, run_sweep, CellSummary, SweepConfig, SweepFailure, SweepSummary,
};
pub use trace::{TraceEvent, TraceEventKind, TraceRecorder};
