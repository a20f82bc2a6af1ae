//! # cloudprov-pass — the PASS provenance-collection substrate
//!
//! A reimplementation of the collection side of the Provenance-Aware
//! Storage System (PASS) that the paper uses as its substrate (§2.1): an
//! [`Observer`] consumes system-call events (`exec`, `fork`, `read`,
//! `write`, pipes, `rename`, `unlink`) and produces a stream of
//! [`ProvenanceRecord`]s forming a DAG, with **causality-based versioning**
//! keeping the graph acyclic for arbitrary event interleavings.
//!
//! The crate also provides the in-memory [`ProvGraph`] (ground truth for
//! tests and queries), the [`wire`] encoding used by the storage protocols,
//! and the id scheme (`uuid_version`) that the paper's P2/P3 use as
//! SimpleDB item names.
//!
//! # Examples
//!
//! ```
//! use cloudprov_pass::{Observer, Pid, ProcessInfo};
//!
//! let mut obs = Observer::new(7);
//! obs.exec(Pid(1), ProcessInfo { name: "sort".into(), ..Default::default() });
//! obs.read(Pid(1), "/data/raw");
//! obs.write(Pid(1), "/data/sorted", 0xbeef);
//!
//! // The output transitively depends on the input:
//! let out = obs.file_node("/data/sorted").unwrap();
//! let raw = obs.file_node("/data/raw").unwrap();
//! assert!(obs.graph().reaches(out, raw));
//!
//! // Flushing yields the unflushed ancestor closure, ancestors first —
//! // exactly what a storage protocol needs for causal ordering.
//! let closure = obs.flush_closure("/data/sorted");
//! assert_eq!(closure.last().unwrap().id, out);
//! ```

#![warn(missing_docs)]

pub mod dilute;
mod graph;
mod id;
mod model;
mod observer;
pub mod wire;

pub use graph::{NodeData, ProvGraph, Visit};
pub use id::{PNodeId, ParseIdError, Uuid};
pub use model::{Attr, AttrValue, NodeKind, ProvenanceRecord};
pub use observer::{FlushNode, Observer, Pid, PipeId, ProcessInfo};
