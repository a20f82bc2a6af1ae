//! The [`StorageProtocol`] abstraction and shared plumbing: flush batches,
//! coupling checks, crash hooks, retries, and record→item conversion with
//! the 1 KB spill rule.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cloudprov_cloud::{Actor, Attributes, Blob, CloudEnv, CloudError, Metadata, PutItem};
use cloudprov_pass::{Attr, AttrValue, FlushNode, PNodeId, ProvenanceRecord};
use cloudprov_sim::Sim;

use crate::error::{ProtocolError, Result};
use crate::layout::Layout;
use crate::plane::DataPlane;

/// One object of a flush: the provenance node plus (for files) its data.
#[derive(Clone, Debug)]
pub struct FlushObject {
    /// Provenance node extracted by the PASS observer.
    pub node: FlushNode,
    /// Data payload for persistent objects (files).
    pub data: Option<Blob>,
    /// Object-store key for persistent objects.
    pub key: Option<String>,
}

impl FlushObject {
    /// A provenance-only flush object (process, pipe).
    pub fn provenance_only(node: FlushNode) -> FlushObject {
        FlushObject {
            node,
            data: None,
            key: None,
        }
    }

    /// A file flush object carrying data.
    pub fn file(node: FlushNode, key: impl Into<String>, data: Blob) -> FlushObject {
        FlushObject {
            node,
            data: Some(data),
            key: Some(key.into()),
        }
    }
}

/// A batch handed to a protocol on `close`/`flush`: the unflushed ancestor
/// closure **in ancestors-first order**, the flushed object last.
///
/// §4.3: "Before sending the provenance and data of an object, we need to
/// identify the ancestors of the object and send any unrecorded ancestors
/// and their provenance to ensure multi-object causal ordering."
#[derive(Clone, Debug, Default)]
pub struct FlushBatch {
    /// Ancestors-first closure.
    pub objects: Vec<FlushObject>,
}

impl FlushBatch {
    /// Total provenance records in the batch.
    pub fn record_count(&self) -> usize {
        self.objects.iter().map(|o| o.node.records.len()).sum()
    }

    /// Total data bytes in the batch.
    pub fn data_bytes(&self) -> u64 {
        self.objects
            .iter()
            .filter_map(|o| o.data.as_ref())
            .map(Blob::len)
            .sum()
    }
}

/// Outcome of a provenance-aware read, including the data-coupling
/// *detection* verdict (§3: systems without write-time coupling must detect
/// violations on access).
#[derive(Clone, Debug)]
pub struct ReadResult {
    /// The object data.
    pub data: Blob,
    /// The object's version link recorded in its metadata.
    pub id: Option<PNodeId>,
    /// Coupling verdict for this read.
    pub coupling: CouplingCheck,
}

/// Data/provenance coupling verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CouplingCheck {
    /// Provenance for exactly this data version was found and the data
    /// hash recorded in it matches the data read.
    Coupled,
    /// Provenance for this version was not (yet) visible — either an
    /// eventual-consistency window or a real violation.
    ProvenanceMissing,
    /// Provenance exists but describes different data (hash mismatch):
    /// using it would mislead, exactly the hazard §3 describes.
    HashMismatch,
    /// The data object itself carries no provenance link.
    Unlinked,
}

impl CouplingCheck {
    /// True when the data can safely be interpreted through its
    /// provenance.
    pub fn is_coupled(&self) -> bool {
        *self == CouplingCheck::Coupled
    }
}

/// Where a protocol keeps its queryable provenance — consumed by the query
/// engine to pick an execution strategy (Table 5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProvenanceStore {
    /// P1: provenance objects in S3; queries must list + GET + filter
    /// client-side.
    S3Objects {
        /// Bucket of provenance objects.
        bucket: String,
        /// Key prefix of provenance objects.
        prefix: String,
    },
    /// P2/P3: provenance items in SimpleDB; queries use indexed SELECTs.
    Database {
        /// SimpleDB domain.
        domain: String,
        /// Bucket holding spilled >1 KB values.
        spill_bucket: String,
        /// Sibling domain holding the commit-time ancestry index
        /// (reverse edges + program seeds), when one is maintained.
        /// `Some` for P3 (its commit daemon writes the index in the
        /// commit step); `None` for P2, whose client-side writes bypass
        /// the daemon. The query planner only considers the indexed
        /// path when this is present.
        index_domain: Option<String>,
    },
}

/// Hook invoked at protocol step boundaries; returning `false` kills the
/// client at that step (crash injection for the Table 1 experiments).
pub type StepHook = Arc<dyn Fn(&str) -> bool + Send + Sync>;

/// Builds a crash hook that kills the process at the `occurrence`-th
/// crossing of exactly `step` — and keeps it dead afterwards, like a
/// real process kill. Returns the hook plus a flag reporting whether it
/// ever fired: aimed chaos schedules check the flag so a renamed crash
/// point surfaces as a vacuous schedule instead of a silent pass.
pub fn kill_at_occurrence(step: impl Into<String>, occurrence: u64) -> (StepHook, Arc<AtomicBool>) {
    let target: String = step.into();
    let hits = Arc::new(AtomicU64::new(0));
    let dead = Arc::new(AtomicBool::new(false));
    let fired = dead.clone();
    let hook: StepHook = Arc::new(move |step: &str| {
        if dead.load(Ordering::Relaxed) {
            return false;
        }
        if step == target && hits.fetch_add(1, Ordering::Relaxed) + 1 == occurrence {
            dead.store(true, Ordering::Relaxed);
            return false;
        }
        true
    });
    (hook, fired)
}

/// Tuning and fault knobs shared by the protocols.
#[derive(Clone)]
pub struct ProtocolConfig {
    /// Cloud naming layout.
    pub layout: Layout,
    /// Client-side parallel connections for uploads (the paper's tool
    /// uploads objects, provenance and ancestors in parallel).
    pub upload_concurrency: usize,
    /// When true, ancestors are strictly persisted before descendants —
    /// the protocol as *specified*. When false, the batch uploads in
    /// parallel, matching the paper's evaluated implementation, which
    /// "violates multi-object causal ordering for P1 and P2" (§5).
    pub strict_causal_order: bool,
    /// Retries per cloud call before giving up.
    pub retries: usize,
    /// Crash-injection hook.
    pub step_hook: Option<StepHook>,
    /// P3 WAL message payload budget in bytes (≤ the 8 KB service limit).
    /// Exposed for the message-size ablation.
    pub wal_message_limit: usize,
    /// Items per SimpleDB batch write (≤ the 25-item service limit).
    /// Exposed for the batching ablation.
    pub db_batch: usize,
    /// Parallel connections for SimpleDB batch calls. Database client
    /// pools were far smaller than object-store pools in 2009 tooling —
    /// this is what leaves P2 the slowest protocol in the microbenchmark,
    /// as the paper observes.
    pub db_concurrency: usize,
    /// Whether P3's commit daemon maintains the commit-time ancestry
    /// index (`crate::index`) alongside the provenance items. Daemon-side
    /// work only — client-perceived latency and client op counts are
    /// unchanged.
    pub index: bool,
    /// Whether P3's log phase packs WAL messages into `SendMessageBatch`
    /// calls (≤10 bodies per request) instead of one send per message.
    /// On by default — one queue round trip and one billed request per
    /// batch. Turn off to reproduce the paper's 2009 client exactly:
    /// `SendMessageBatch` did not exist then, and Table 2/3 op counts
    /// assume one request per packet.
    pub wal_batch_send: bool,
    /// Parallel connections the P3 commit daemon opens inside one group
    /// commit: the per-file S3 COPY fan-out, the temp-object GC delete
    /// fan-out and the batched WAL-acknowledgement fan-out are all
    /// bounded by this (SimpleDB chunk writes use `db_concurrency`,
    /// matching the far smaller 2009 database pools). Daemon-side only —
    /// client op counts and latencies are unchanged.
    pub commit_parallelism: usize,
    /// Whether P3's commit daemon maintains the live change feed
    /// (`crate::feed`): staging a [`CommitEvent`](crate::feed::CommitEvent)
    /// per committed transaction before the WAL ack and publishing it to
    /// the installed sink afterwards. Off by default — the paper's
    /// tables assume no feed traffic; the fleet driver and the chaos
    /// explorer turn it on.
    pub feed: bool,
    /// Whether the pipelined P3 flush path routes eligible objects
    /// through the fleet-wide content-addressed ancestor store
    /// ([`crate::cas`]): content is published speculatively in the
    /// background and the WAL carries hash references, so a
    /// [`FlushTicket`](crate::FlushTicket) resolves on the delta alone.
    /// On by default; inert for P1/P2, blocking clients and the
    /// protocols as measured by the paper's tables.
    pub cas: bool,
    /// Capacity of the pipelined flusher's cross-batch dedupe set
    /// (persisted node digests). Evictions beyond the cap are counted in
    /// [`PipelineStats`](crate::PipelineStats) — an evicted ancestor is
    /// re-uploaded, never reordered.
    pub dedupe_cap: usize,
}

impl std::fmt::Debug for ProtocolConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Manual only because `StepHook` is an opaque closure; every
        // other field prints in full.
        f.debug_struct("ProtocolConfig")
            .field("layout", &self.layout)
            .field("upload_concurrency", &self.upload_concurrency)
            .field("strict_causal_order", &self.strict_causal_order)
            .field("retries", &self.retries)
            .field(
                "step_hook",
                &self.step_hook.as_ref().map(|_| "<crash hook>"),
            )
            .field("wal_message_limit", &self.wal_message_limit)
            .field("db_batch", &self.db_batch)
            .field("db_concurrency", &self.db_concurrency)
            .field("index", &self.index)
            .field("wal_batch_send", &self.wal_batch_send)
            .field("commit_parallelism", &self.commit_parallelism)
            .field("feed", &self.feed)
            .field("cas", &self.cas)
            .field("dedupe_cap", &self.dedupe_cap)
            .finish()
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            layout: Layout::default(),
            upload_concurrency: 26,
            strict_causal_order: false,
            retries: 4,
            step_hook: None,
            wal_message_limit: cloudprov_cloud::MESSAGE_LIMIT,
            db_batch: cloudprov_cloud::BATCH_LIMIT,
            db_concurrency: 4,
            index: true,
            wal_batch_send: true,
            commit_parallelism: 16,
            feed: false,
            cas: true,
            dedupe_cap: 32_768,
        }
    }
}

impl ProtocolConfig {
    /// Checks the crash hook at a step boundary.
    pub(crate) fn step(&self, step: &str) -> Result<()> {
        match &self.step_hook {
            Some(h) if !h(step) => Err(ProtocolError::Crashed { step: step.into() }),
            _ => Ok(()),
        }
    }
}

/// The interface all three protocols implement: persist a flush batch,
/// read data back with coupling detection, and delete data (provenance
/// must survive: data-independent persistence, §3).
pub trait StorageProtocol: Send + Sync {
    /// Protocol name for reports ("S3fs", "P1", "P2", "P3").
    fn name(&self) -> &'static str;

    /// Persists a flush batch (data + provenance + unflushed ancestors).
    ///
    /// # Errors
    ///
    /// Propagates cloud errors after retries; [`ProtocolError::Crashed`]
    /// when the crash hook fires.
    fn flush(&self, batch: FlushBatch) -> Result<()>;

    /// Reads a data object and runs coupling detection against its stored
    /// provenance.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchKey`] (wrapped) if the data is not visible.
    fn read(&self, key: &str) -> Result<ReadResult>;

    /// Deletes a data object. Provenance is intentionally retained.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors after retries.
    fn delete(&self, key: &str) -> Result<()>;

    /// `HEAD`s a data object: `Some(len)` if visible, `None` otherwise.
    /// This is s3fs's `getattr` — the chatty lookup traffic that
    /// dominates the paper's operation counts.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors after retries (a missing key is `None`,
    /// not an error).
    fn stat(&self, key: &str) -> Result<Option<u64>>;

    /// Where queryable provenance lives, if the protocol stores any.
    fn provenance_store(&self) -> Option<ProvenanceStore>;

    /// Whether provenance queries are indexed (Table 1 "Efficient Query").
    fn supports_efficient_query(&self) -> bool {
        matches!(
            self.provenance_store(),
            Some(ProvenanceStore::Database { .. })
        )
    }
}

/// Retries a cloud call with exponential backoff (in virtual time) on
/// transient `ServiceUnavailable` failures; other errors pass through
/// immediately. The retry discipline every protocol path uses — public
/// so out-of-crate daemons (the fleet's sharded cleaners) reuse the
/// same policy.
pub fn retry_cloud<T>(
    sim: &Sim,
    attempts: usize,
    mut f: impl FnMut() -> std::result::Result<T, CloudError>,
) -> std::result::Result<T, CloudError> {
    let mut delay = Duration::from_millis(100);
    let mut last = None;
    for _ in 0..attempts.max(1) {
        match f() {
            Ok(v) => return Ok(v),
            Err(CloudError::ServiceUnavailable { service }) => {
                last = Some(CloudError::ServiceUnavailable { service });
                sim.sleep(delay);
                delay *= 2;
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("retry loop ran at least once"))
}

/// Crate-internal alias: protocol code predates the public name.
pub(crate) use retry_cloud as retry;

/// Converts one node's records into a SimpleDB item, spilling values above
/// the 1 KB attribute limit into S3 (shared by P2's client path and P3's
/// commit daemon; the plane's actor pays for the spill PUTs).
pub(crate) fn records_to_item(
    plane: &DataPlane,
    id: PNodeId,
    records: &[ProvenanceRecord],
) -> Result<PutItem> {
    let (sim, s3, layout) = (plane.env.sim(), &plane.s3, &plane.config.layout);
    let retries = plane.config.retries;
    let mut attrs: Attributes = Vec::with_capacity(records.len());
    for (i, r) in records.iter().enumerate() {
        let name = r.attr.as_str().to_string();
        let text = r.value.to_text();
        let value = if text.len() > cloudprov_cloud::ATTRIBUTE_LIMIT {
            let key = layout.spill_key(id, &name, i);
            retry(sim, retries, || {
                s3.put(
                    &layout.prov_bucket,
                    &key,
                    Blob::from(text.as_str()),
                    Metadata::new(),
                )
            })?;
            layout.spill_pointer(&key)
        } else {
            text
        };
        attrs.push((name, value));
    }
    Ok(PutItem {
        name: id.to_string(),
        attrs,
        replace: false,
    })
}

/// Reverse of the record-to-item conversion minus the spill resolution:
/// parses item
/// attributes back into records (spill pointers stay as opaque text; the
/// query engine resolves them on demand).
pub fn item_to_records(name: &str, attrs: &Attributes) -> Vec<ProvenanceRecord> {
    let Ok(subject) = name.parse::<PNodeId>() else {
        return Vec::new();
    };
    attrs
        .iter()
        .map(|(attr_name, value)| {
            let attr = Attr::from_name(attr_name);
            let val = if attr.is_xref() {
                value
                    .parse::<PNodeId>()
                    .map(AttrValue::Xref)
                    .unwrap_or_else(|_| AttrValue::Text(value.clone()))
            } else {
                AttrValue::Text(value.clone())
            };
            ProvenanceRecord {
                subject,
                attr,
                value: val,
            }
        })
        .collect()
}

/// Runs coupling detection given a data blob + its metadata link and the
/// provenance records found for it.
pub(crate) fn detect_coupling(
    data: &Blob,
    id: Option<PNodeId>,
    version_records: &[ProvenanceRecord],
) -> CouplingCheck {
    let Some(_id) = id else {
        return CouplingCheck::Unlinked;
    };
    if version_records.is_empty() {
        return CouplingCheck::ProvenanceMissing;
    }
    // A version can legitimately record several DataHash values: under
    // causality-based versioning one node version spans successive writes
    // by the same process, and each flush of the evolving content appends
    // another hash to the (unordered, multi-valued) attribute set. The
    // data is coupled when it matches ANY recorded state of this version;
    // it is a mismatch only when provenance exists yet describes none of
    // them.
    let mut saw_hash = false;
    let actual = format!("{:016x}", data.content_fingerprint());
    for r in version_records {
        if r.attr == Attr::DataHash {
            saw_hash = true;
            if r.value.to_text() == actual {
                return CouplingCheck::Coupled;
            }
        }
    }
    if saw_hash {
        CouplingCheck::HashMismatch
    } else {
        // No hash recorded (e.g. never-written pre-existing input): having
        // version records at all is the best evidence available.
        CouplingCheck::Coupled
    }
}

/// Fetches the provenance records of one exact version from the
/// SimpleDB domain P2 and P3 share. §4.3.2: one item per version means a
/// reader can "request the specific version of the provenance we need
/// from SimpleDB"; a domain nothing has provisioned yet simply holds no
/// provenance.
pub(crate) fn db_version_records(plane: &DataPlane, id: PNodeId) -> Result<Vec<ProvenanceRecord>> {
    let name = id.to_string();
    match retry(plane.env.sim(), plane.config.retries, || {
        plane
            .env
            .sdb()
            .get_attributes(&plane.config.layout.domain, &name)
    }) {
        Ok(attrs) => Ok(item_to_records(&name, &attrs)),
        Err(CloudError::NoSuchDomain(_)) => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// The provenance-free baseline: plain S3fs. Uploads data objects only —
/// the control every overhead in the paper is measured against.
#[derive(Debug, Clone)]
pub struct S3fsBaseline {
    plane: DataPlane,
}

impl S3fsBaseline {
    /// Creates the baseline over a cloud environment.
    pub fn new(env: &CloudEnv, config: ProtocolConfig) -> S3fsBaseline {
        S3fsBaseline {
            plane: DataPlane::new(env, config, Actor::Client),
        }
    }
}

impl StorageProtocol for S3fsBaseline {
    fn name(&self) -> &'static str {
        "S3fs"
    }

    fn flush(&self, batch: FlushBatch) -> Result<()> {
        let tasks = batch
            .objects
            .into_iter()
            .filter_map(|o| o.key.zip(o.data))
            .map(|(key, data)| self.plane.put_task("s3fs:data:", key, data, None))
            .collect();
        self.plane.upload(false, tasks)
    }

    fn read(&self, key: &str) -> Result<ReadResult> {
        // The baseline knows no provenance: whatever link the object
        // carries, the read is unlinked.
        let (data, _) = self.plane.get(key)?;
        Ok(ReadResult {
            data,
            id: None,
            coupling: CouplingCheck::Unlinked,
        })
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.plane.delete(key)
    }

    fn stat(&self, key: &str) -> Result<Option<u64>> {
        self.plane.stat(key)
    }

    fn provenance_store(&self) -> Option<ProvenanceStore> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::AwsProfile;
    use cloudprov_pass::{NodeKind, Uuid};

    fn node(id: PNodeId) -> FlushNode {
        FlushNode {
            id,
            kind: NodeKind::File,
            name: Some("/f".into()),
            records: vec![ProvenanceRecord::new(id, Attr::Name, "/f")],
            data_hash: None,
        }
    }

    #[test]
    fn batch_accounting() {
        let id = PNodeId::initial(Uuid(1));
        let batch = FlushBatch {
            objects: vec![FlushObject::file(node(id), "f", Blob::synthetic(100, 1))],
        };
        assert_eq!(batch.record_count(), 1);
        assert_eq!(batch.data_bytes(), 100);
    }

    #[test]
    fn s3fs_baseline_stores_data_without_provenance() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let fs = S3fsBaseline::new(&env, ProtocolConfig::default());
        let id = PNodeId::initial(Uuid(2));
        fs.flush(FlushBatch {
            objects: vec![FlushObject::file(node(id), "f", Blob::from("hello"))],
        })
        .unwrap();
        let r = fs.read("f").unwrap();
        assert_eq!(r.data, Blob::from("hello"));
        assert_eq!(r.coupling, CouplingCheck::Unlinked);
        assert!(fs.provenance_store().is_none());
        assert!(!fs.supports_efficient_query());
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let sim = Sim::new();
        let mut calls = 0;
        let r = retry(&sim, 5, || {
            calls += 1;
            if calls < 3 {
                Err(CloudError::ServiceUnavailable { service: "S3" })
            } else {
                Ok(42)
            }
        });
        assert_eq!(r.unwrap(), 42);
        assert!(sim.now().as_micros() > 0, "backoff consumed virtual time");
    }

    #[test]
    fn retry_gives_up_after_budget() {
        let sim = Sim::new();
        let r: std::result::Result<(), _> = retry(&sim, 3, || {
            Err(CloudError::ServiceUnavailable { service: "S3" })
        });
        assert!(r.is_err());
    }

    #[test]
    fn retry_passes_through_hard_errors() {
        let sim = Sim::new();
        let mut calls = 0;
        let r: std::result::Result<(), _> = retry(&sim, 5, || {
            calls += 1;
            Err(CloudError::NoSuchDomain("d".into()))
        });
        assert!(r.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn coupling_detection_verdicts() {
        let id = PNodeId::initial(Uuid(3));
        let data = Blob::from("x");
        let good_hash = format!("{:016x}", data.content_fingerprint());
        let recs = vec![ProvenanceRecord::new(id, Attr::DataHash, good_hash)];
        assert_eq!(
            detect_coupling(&data, Some(id), &recs),
            CouplingCheck::Coupled
        );

        let bad = vec![ProvenanceRecord::new(
            id,
            Attr::DataHash,
            "0000000000000000",
        )];
        assert_eq!(
            detect_coupling(&data, Some(id), &bad),
            CouplingCheck::HashMismatch
        );
        assert_eq!(
            detect_coupling(&data, Some(id), &[]),
            CouplingCheck::ProvenanceMissing
        );
        assert_eq!(detect_coupling(&data, None, &recs), CouplingCheck::Unlinked);
    }

    #[test]
    fn item_conversion_roundtrip() {
        let id = PNodeId::initial(Uuid(4));
        let other = PNodeId::initial(Uuid(5));
        let records = vec![
            ProvenanceRecord::new(id, Attr::Name, "foo"),
            ProvenanceRecord::new(id, Attr::Input, other),
        ];
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let plane = DataPlane::new(&env, ProtocolConfig::default(), Actor::Client);
        let item = records_to_item(&plane, id, &records).unwrap();
        assert_eq!(item.name, id.to_string());
        let back = item_to_records(&item.name, &item.attrs);
        assert_eq!(back, records);
    }

    #[test]
    fn oversized_values_spill_to_s3() {
        let id = PNodeId::initial(Uuid(6));
        let big_env = "V".repeat(3000);
        let records = vec![ProvenanceRecord::new(id, Attr::Env, big_env.clone())];
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let plane = DataPlane::new(&env, ProtocolConfig::default(), Actor::Client);
        let item = records_to_item(&plane, id, &records).unwrap();
        let (attr, value) = &item.attrs[0];
        assert_eq!(attr, "env");
        assert!(value.starts_with("@s3:"), "value must be a spill pointer");
        let (bucket, key) = Layout::parse_spill_pointer(value).unwrap();
        let spilled = env.s3().get(bucket, key).unwrap();
        assert_eq!(
            spilled.blob.as_inline().unwrap().as_ref(),
            big_env.as_bytes()
        );
    }

    #[test]
    fn config_debug_prints_every_field() {
        let cfg = ProtocolConfig {
            step_hook: Some(Arc::new(|_| true)),
            ..ProtocolConfig::default()
        };
        let dbg = format!("{cfg:?}");
        for field in [
            "layout",
            "upload_concurrency",
            "strict_causal_order",
            "retries",
            "step_hook",
            "wal_message_limit",
            "db_batch",
            "db_concurrency",
            "index",
            "wal_batch_send",
            "commit_parallelism",
            "feed",
            "cas",
            "dedupe_cap",
        ] {
            assert!(dbg.contains(field), "Debug output drops '{field}': {dbg}");
        }
    }

    #[test]
    fn crash_hook_aborts_at_step() {
        let cfg = ProtocolConfig {
            step_hook: Some(Arc::new(|step: &str| step != "die-here")),
            ..ProtocolConfig::default()
        };
        assert!(cfg.step("fine").is_ok());
        assert!(matches!(
            cfg.step("die-here"),
            Err(ProtocolError::Crashed { .. })
        ));
    }
}
