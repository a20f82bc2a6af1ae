//! # cloudprov — Provenance for the Cloud, reproduced in Rust
//!
//! Facade crate re-exporting the public API of the `cloudprov` workspace.
//! See `README.md` for an overview and `DESIGN.md` for the system
//! inventory.
//!
//! The front door is the [`ProvenanceClient`] session facade: pick a
//! [`Protocol`], hand its tuning (one `ProtocolConfig`) to the
//! [`ClientBuilder`], and drive workloads, queries and crash experiments
//! through one handle.
//!
//! ```
//! use std::sync::Arc;
//! use cloudprov::cloud::{AwsProfile, CloudEnv};
//! use cloudprov::fs::{LocalIoParams, PaS3fs};
//! use cloudprov::pass::{Pid, ProcessInfo};
//! use cloudprov::{Protocol, ProvenanceClient, ProvenanceQueries};
//! use cloudprov::sim::Sim;
//!
//! let sim = Sim::new();
//! let env = CloudEnv::new(&sim, AwsProfile::instant());
//! let client = Arc::new(ProvenanceClient::builder(Protocol::P3).pipelined().build(&env));
//! let fs = PaS3fs::attach(client.clone(), LocalIoParams::instant(), 42);
//!
//! fs.exec(Pid(1), ProcessInfo { name: "gen".into(), ..Default::default() });
//! fs.write(Pid(1), "/out", 4096);
//! fs.close(Pid(1), "/out")?;       // non-blocking: enqueues the upload
//! client.drain()?;                 // durability + commit barrier
//! assert!(fs.read_back("/out")?.coupling.is_coupled());
//! let lineage = client.query()?.q3_outputs_of("gen", cloudprov::query::Mode::Sequential);
//! assert_eq!(lineage.unwrap().nodes.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use cloudprov_chaos as chaos;
pub use cloudprov_cloud as cloud;
pub use cloudprov_core as protocols;
pub use cloudprov_feed as feed;
pub use cloudprov_fleet as fleet;
pub use cloudprov_fs as fs;
pub use cloudprov_pass as pass;
pub use cloudprov_query as query;
pub use cloudprov_sim as sim;
pub use cloudprov_trace as trace;
pub use cloudprov_workloads as workloads;

pub use cloudprov_core::{
    ClientBuilder, ClientError, ClientResult, PipelineStats, Protocol, ProvenanceClient,
};
pub use cloudprov_query::ProvenanceQueries;
