//! The object-store data plane all four storage configurations share.
//!
//! §4.3.1–4.3.3 differ only in *where provenance goes*. What happens to
//! the data object itself is the same every time: PUT it (with or
//! without the uuid+version link in its metadata), GET it back together
//! with that link, DELETE it (provenance is retained — data-independent
//! persistence, §3) and HEAD it for s3fs's `getattr`. Those four live
//! here once, so `S3fsBaseline`, `P1`, `P2` and `P3` keep only what the
//! paper says differs between them; P3's commit and cleaner daemons use
//! the same plane under their own billing [`Actor`].

use cloudprov_cloud::{Actor, Blob, CloudEnv, CloudError, ObjectStore};
use cloudprov_pass::{PNodeId, ProvenanceRecord};
use cloudprov_sim::Sim;

use crate::error::Result;
use crate::layout::{object_metadata, parse_object_metadata};
use crate::protocol::{detect_coupling, retry, ProtocolConfig, ReadResult};

/// One unit of upload work, boxed so a protocol can mix data PUTs with
/// its own provenance work in a single connection pool.
pub(crate) type Task = Box<dyn FnOnce() -> Result<()> + Send>;

/// Runs `tasks` to completion and returns their results in task order:
/// over `width` simulated connections (the paper's evaluated, parallel
/// uploader), or — `None` — strictly in order on the calling thread,
/// stopping at the first failure (the protocols *as specified*).
pub(crate) fn run_tasks<T, F>(sim: &Sim, width: Option<usize>, tasks: Vec<F>) -> Result<Vec<T>>
where
    T: Send + 'static,
    F: FnOnce() -> Result<T> + Send + 'static,
{
    match width {
        Some(width) => sim.run_parallel(width, tasks).into_iter().collect(),
        None => tasks.into_iter().map(|task| task()).collect(),
    }
}

/// Data-object operations against one layout's data bucket, billed to
/// one actor.
#[derive(Clone, Debug)]
pub(crate) struct DataPlane {
    pub(crate) env: CloudEnv,
    pub(crate) config: ProtocolConfig,
    /// The object-store handle this plane's calls are billed through.
    pub(crate) s3: ObjectStore,
}

impl DataPlane {
    /// A plane whose calls are billed to `actor`: [`Actor::Client`] for
    /// the protocols, the daemons' own actors for theirs.
    pub(crate) fn new(env: &CloudEnv, config: ProtocolConfig, actor: Actor) -> DataPlane {
        DataPlane {
            env: env.clone(),
            config,
            s3: env.s3().with_actor(actor),
        }
    }

    /// GETs a data object together with the version link its metadata
    /// carries (`None` for an object no provenance-aware client wrote).
    pub(crate) fn get(&self, key: &str) -> Result<(Blob, Option<PNodeId>)> {
        let obj = retry(self.env.sim(), self.config.retries, || {
            self.s3.get(&self.config.layout.data_bucket, key)
        })?;
        Ok((obj.blob, parse_object_metadata(&obj.meta)))
    }

    /// A provenance-aware read: the linked GET plus coupling detection
    /// against the records `version_records` finds for the linked
    /// version — the one step that depends on where a protocol keeps
    /// provenance. No records means the provenance is missing.
    pub(crate) fn read(
        &self,
        key: &str,
        version_records: impl FnOnce(PNodeId) -> Result<Vec<ProvenanceRecord>>,
    ) -> Result<ReadResult> {
        let (data, id) = self.get(key)?;
        let records = id.map(version_records).transpose()?.unwrap_or_default();
        Ok(ReadResult {
            coupling: detect_coupling(&data, id, &records),
            data,
            id,
        })
    }

    /// DELETEs a data object — only the data: provenance persists, which
    /// is exactly why it is never stored as object metadata (§4.3.1).
    pub(crate) fn delete(&self, key: &str) -> Result<()> {
        retry(self.env.sim(), self.config.retries, || {
            self.s3.delete(&self.config.layout.data_bucket, key)
        })?;
        Ok(())
    }

    /// HEADs a data object: `Some(len)` if visible, `None` otherwise.
    pub(crate) fn stat(&self, key: &str) -> Result<Option<u64>> {
        match retry(self.env.sim(), self.config.retries, || {
            self.s3.head(&self.config.layout.data_bucket, key)
        }) {
            Ok(h) => Ok(Some(h.len)),
            Err(CloudError::NoSuchKey { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// One data PUT as a [`Task`]: crosses the crash point
    /// `{crash_prefix}{key}`, then uploads `data` under `key`, stamping
    /// the uuid+version `link` into the object's metadata when given.
    pub(crate) fn put_task(
        &self,
        crash_prefix: &'static str,
        key: String,
        data: Blob,
        link: Option<PNodeId>,
    ) -> Task {
        let this = self.clone();
        Box::new(move || {
            this.config.step(&format!("{crash_prefix}{key}"))?;
            let meta = link.map(object_metadata).unwrap_or_default();
            retry(this.env.sim(), this.config.retries, || {
                this.s3.put(
                    &this.config.layout.data_bucket,
                    &key,
                    data.clone(),
                    meta.clone(),
                )
            })?;
            Ok(())
        })
    }

    /// Runs upload `tasks` over the client's `upload_concurrency`
    /// connections, or strictly in order when `strict`.
    pub(crate) fn upload(&self, strict: bool, tasks: Vec<Task>) -> Result<()> {
        let width = (!strict).then_some(self.config.upload_concurrency);
        run_tasks(self.env.sim(), width, tasks).map(drop)
    }
}
