//! # cloudprov-chaos — deterministic crash/chaos schedule exploration
//!
//! The paper's core claim is that its protocols keep provenance coherent
//! *under failure*: coupling violations are detectable, causal ordering
//! never dangles, and a fully-logged P3 WAL transaction is recoverable by
//! any machine. This crate turns that claim into a machine-checked,
//! reproducible property, FoundationDB-style:
//!
//! 1. A [`ChaosPlan`] is derived purely from a seed — service-fault dials
//!    (transient failures, SQS duplicate delivery, staleness
//!    amplification), the client's flush mode, the workload script, and
//!    the crash-point crossing at which the client is killed.
//! 2. A [`CrashSchedule`] installs a
//!    [`StepHook`](cloudprov_core::StepHook) counting the crash points
//!    threaded through `cloudprov-core` (protocol flush steps, P3's
//!    commit-daemon and cleaner steps, the facade's background flusher)
//!    and kills the client — permanently — at the planned crossing.
//! 3. [`explore_seed`] replays the seeded workload through a real
//!    [`PaS3fs`](cloudprov_fs::PaS3fs) mount on the virtual-time kernel,
//!    lets the client die, performs §4.3.3 recovery (WAL handoff to a
//!    fresh client, retention expiry, cleaner sweep), and runs the §3
//!    property checkers as hard invariants.
//! 4. An [`Explorer`] sweeps seed ranges per protocol and records the
//!    **minimal failing seed** — which replays the *identical* schedule
//!    and verdict, because everything is a function of the seed.
//!
//! ```
//! use cloudprov_chaos::{explore_seed, ChaosPlan};
//! use cloudprov_core::Protocol;
//!
//! // A seed is a complete, replayable failure schedule.
//! let plan = ChaosPlan::derive(7);
//! assert_eq!(plan, ChaosPlan::derive(7));
//! let outcome = explore_seed(Protocol::P3, 7);
//! assert_eq!(outcome, explore_seed(Protocol::P3, 7), "bit-identical replay");
//! assert!(outcome.violations().is_empty(), "P3's guarantees hold under chaos");
//! ```

#![warn(missing_docs)]

mod explorer;
mod plan;
mod targeted;

pub use explorer::{
    explore_seed, CouplingTally, ExplorationReport, Explorer, ProtocolSummary, SeedOutcome,
};
pub use plan::{ChaosPlan, CrashSchedule, FiredCrash};
pub use targeted::{
    cas_crash_schedules, group_crash_points, group_crash_schedules, notify_crash_schedules,
    run_cas_crash, run_group_crash, run_notify_crash, CasCrashOutcome, GroupCrashOutcome,
    NotifyCrashOutcome, CAS_CRASH_POINTS, NOTIFY_CRASH_POINTS,
};
