//! # cloudprov-cloud — the simulated 2009-era AWS service suite
//!
//! Everything the paper's protocols run against: an S3-like
//! [`ObjectStore`], a SimpleDB-like [`Database`] and an SQS-like
//! [`QueueService`], faithful to the API semantics and *eventual
//! consistency* model described in §2.3 of "Provenance for the Cloud"
//! (FAST 2010), plus the latency/capacity model ([`AwsProfile`]), usage
//! metering ([`Meter`]) and the 2009 price book ([`PriceBook`]) that let
//! the benchmark harness regenerate the paper's overhead and cost tables.
//!
//! All time is virtual (see [`cloudprov_sim`]): a service call charges its
//! modelled latency on the simulation clock and returns immediately in wall
//! time.
//!
//! # Examples
//!
//! ```
//! use cloudprov_cloud::{AwsProfile, Blob, CloudEnv, Metadata};
//! use cloudprov_sim::Sim;
//!
//! let sim = Sim::new();
//! let env = CloudEnv::new(&sim, AwsProfile::instant());
//!
//! // S3: atomic data+metadata PUT.
//! let mut meta = Metadata::new();
//! meta.insert("version".into(), "1".into());
//! env.s3().put("data", "foo", Blob::from("contents"), meta)?;
//!
//! // SimpleDB: multi-valued attributes + SELECT.
//! env.sdb().create_domain("prov");
//! env.sdb().put_attributes("prov", cloudprov_cloud::PutItem {
//!     name: "uuid1_2".into(),
//!     attrs: vec![("input".into(), "bar_2".into())],
//!     replace: false,
//! })?;
//! let hits = env.sdb().select_all("select * from prov where input = 'bar_2'")?;
//! assert_eq!(hits.len(), 1);
//! # Ok::<(), cloudprov_cloud::CloudError>(())
//! ```

#![warn(missing_docs)]

mod blob;
mod env;
mod error;
mod fault;
mod hash;
mod meter;
mod pricing;
mod profile;
mod s3;
mod sdb;
mod service;
mod sqs;

pub use blob::Blob;
pub use env::CloudEnv;
pub use error::{CloudError, Result};
pub use fault::{FaultHandle, FaultPlan};
pub use hash::{fnv1a64, fnv1a64_mixed, Fnv1a64};
pub use meter::{Actor, Meter, Op, OpStats, Service, TenantId, UsageReport};
pub use pricing::{CostBreakdown, PriceBook};
pub use profile::{
    AwsProfile, ClientLocation, ConsistencyParams, Era, Machine, RunContext, ServiceParams,
};
pub use s3::{
    HeadData, ListPage, ListedKey, Metadata, MetadataDirective, ObjectData, ObjectStore,
    LIST_MAX_KEYS,
};
pub use sdb::{
    quote_like_prefix, quote_literal, Attributes, Database, PutItem, SelectPage, SelectedItem,
    ATTRIBUTE_LIMIT, BATCH_LIMIT, ITEM_ATTR_LIMIT, SELECT_PAGE_BYTES, SELECT_PAGE_ITEMS,
};
pub use sqs::{
    QueueService, ReceivedMessage, BATCH_ENTRY_LIMIT, DEFAULT_VISIBILITY_TIMEOUT, MESSAGE_LIMIT,
    RECEIVE_MAX, RETENTION,
};

/// Re-export of the SELECT parser for query-engine consumers.
pub mod select {
    pub use crate::sdb::select::{parse, CmpOp, Expr, Operand, Output, Select};
}
