//! # cloudprov-query — provenance queries over cloud stores (§5.3)
//!
//! Implements the paper's four evaluation queries (Q.1–Q.4) with a
//! layered read path:
//!
//! * [`source`] — pluggable [`GraphSource`] backends: P1's S3 scan,
//!   P2/P3's SimpleDB SELECTs, and the commit-time ancestry index P3's
//!   commit daemon maintains ([`cloudprov_core::index`]). All cloud
//!   record-fetch code lives here.
//! * [`planner`] — the cost-based planner choosing scan vs. select vs.
//!   index per query from store layout, domain statistics and meter
//!   history.
//! * [`QueryEngine`] — plans, executes, and reports per-query cost
//!   metrics (elapsed virtual time, operations, bytes) plus the chosen
//!   plan: the Table 5 columns and the new "indexed" column.

#![warn(missing_docs)]

pub mod cache;
mod client;
mod engine;
pub mod planner;
pub mod source;

pub use cache::{AncestryCache, CacheConfig, CacheStats};
pub use client::ProvenanceQueries;
pub use engine::{QueryEngine, QueryMetrics, QueryOutput};
pub use planner::{CacheOutcome, CacheState, DomainStats, Plan, PlanReport, QueryKind};
pub use source::{GraphSource, IndexSource, Mode, OutputSet, S3ScanSource, SdbSelectSource};
