//! # cloudprov-core — the paper's contribution: provenance storage
//! protocols for the cloud
//!
//! Implements the three protocols of *Provenance for the Cloud* (FAST
//! 2010, §4) over the simulated AWS suite:
//!
//! | Protocol | Services | Coupling | Causal ordering | Efficient query |
//! |----------|----------|----------|-----------------|-----------------|
//! | [`P1`]   | S3                  | ✗ (detectable) | eventual | ✗ |
//! | [`P2`]   | S3 + SimpleDB       | ✗ (detectable) | eventual | ✓ |
//! | [`P3`]   | S3 + SimpleDB + SQS | ✓ (eventual)   | eventual | ✓ |
//!
//! plus the provenance-free [`S3fsBaseline`] the paper measures overheads
//! against, the asynchronous [`CommitDaemon`] and [`CleanerDaemon`] that
//! complete P3's write-ahead-log design, and executable checkers
//! ([`properties`]) for the §3 properties.
//!
//! The public entry point is the [`ProvenanceClient`] session facade:
//! callers pick a [`Protocol`], hand its tuning — one
//! [`ProtocolConfig`], the only knob surface — to the [`ClientBuilder`],
//! and get one handle bundling the protocol, P3's commit daemon and the
//! optional non-blocking pipelined flush path.
//! The concrete protocol types remain exported for harnesses that need
//! to reach under the facade, but every consumer crate (workloads,
//! benches, examples, integration tests) constructs protocols through
//! the builder only.
//!
//! # Examples
//!
//! ```
//! use cloudprov_cloud::{AwsProfile, Blob, CloudEnv};
//! use cloudprov_core::{FlushBatch, FlushObject, Protocol, ProvenanceClient, StorageProtocol};
//! use cloudprov_pass::{Observer, Pid, ProcessInfo};
//! use cloudprov_sim::Sim;
//!
//! let sim = Sim::new();
//! let env = CloudEnv::new(&sim, AwsProfile::instant());
//! let client = ProvenanceClient::builder(Protocol::P3)
//!     .queue("wal-demo")
//!     .build(&env);
//!
//! // Collect provenance with PASS, then flush data + closure.
//! let mut obs = Observer::new(1);
//! obs.exec(Pid(1), ProcessInfo { name: "gen".into(), ..Default::default() });
//! let data = Blob::from("output bytes");
//! obs.write(Pid(1), "/out", data.content_fingerprint());
//! let closure = obs.flush_closure("/out");
//! let objects = closure
//!     .into_iter()
//!     .map(|node| {
//!         if node.kind.is_persistent() {
//!             FlushObject::file(node, "out", data.clone())
//!         } else {
//!             FlushObject::provenance_only(node)
//!         }
//!     })
//!     .collect();
//! client.flush(FlushBatch { objects })?;
//!
//! // `drain` runs the commit daemon to quiescence.
//! client.drain()?;
//! assert!(client.read("out")?.coupling.is_coupled());
//! # Ok::<(), cloudprov_core::ClientError>(())
//! ```

#![warn(missing_docs)]

pub mod cas;
mod cleaner;
mod client;
mod error;
pub mod feed;
pub mod index;
mod layout;
mod p1;
mod p2;
mod p3;
mod plane;
pub mod properties;
mod protocol;
mod wal;

pub use cas::{
    cas_crash_points, cas_domain, cas_object_key, sha256_hex, CasFlushItem, CasRef, CasStore,
    CAS_OBJECT_PREFIX,
};
pub use cleaner::CleanerDaemon;
pub use client::{
    AdmissionGate, ClientBuilder, FlushSample, PipelineStats, Protocol, ProvenanceClient,
};
pub use error::{ClientError, ClientResult, ProtocolError, Result};
pub use feed::{
    audit_feed, notify_crash_points, CommitEvent, CommitEventSink, FeedAudit, FeedWriter,
    StagedTouches,
};
pub use layout::{object_metadata, parse_object_metadata, Layout, META_UUID, META_VERSION};
pub use p1::P1;
pub use p2::P2;
pub use p3::{
    commit_crash_points, pack_group_writes, CommitDaemon, CommitListener, DaemonHandle,
    GroupWritePlan, PollOutcome, P3,
};
pub use protocol::{
    item_to_records, kill_at_occurrence, CouplingCheck, FlushBatch, FlushObject, ProtocolConfig,
    ProvenanceStore, ReadResult, S3fsBaseline, StepHook, StorageProtocol,
};
