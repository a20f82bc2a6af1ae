//! # cloudprov-bench — the benchmark harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) on
//! the simulated substrate:
//!
//! | Experiment | Module |
//! |---|---|
//! | Table 1 (properties) | [`experiments::props`] |
//! | Table 2 (service throughput) | [`experiments::services`] |
//! | Figure 3 + Table 3 (microbenchmark) | [`experiments::micro`] |
//! | Figure 4 + Table 4 (workloads, cost) | [`experiments::workload_runs`] |
//! | Table 5 (queries) | [`experiments::queries`] |
//! | §5.2 UML impact | [`experiments::umlcheck`] |
//! | Design ablations | [`experiments::ablations`] |
//!
//! The `repro` binary prints each experiment next to the paper's reported
//! numbers; the Criterion benches track scaled-down variants for
//! regressions.

#![warn(missing_docs)]

pub mod common;
pub mod experiments;
pub mod uploader;

pub use common::{overhead_pct, Rig, Which};
