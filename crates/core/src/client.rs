//! The [`ProvenanceClient`] session facade: one front door to the four
//! storage configurations.
//!
//! A session is built by the [`ClientBuilder`]: pick a [`Protocol`],
//! hand over its tuning as one [`ProtocolConfig`] (the only knob
//! surface), and get a handle bundling
//!
//! * the protocol, behind [`StorageProtocol`] — so the client drops into
//!   every consumer (`PaS3fs`, the trace driver, the query engine);
//! * P3's commit daemon — [`ProvenanceClient::drain`] runs it to
//!   quiescence;
//! * optionally the **non-blocking pipelined flush path**:
//!   [`ProvenanceClient::flush_async`] enqueues the batch and returns a
//!   [`FlushTicket`] immediately; a background flusher thread on the
//!   [`Sim`] coalesces queued batches, drops ancestors already persisted
//!   in an earlier batch, and uploads each merged batch through the
//!   protocol's parallel upload path. In this mode `flush` becomes an
//!   enqueue, and [`ProvenanceClient::sync`] / `drain` are the barriers
//!   the crash experiments need;
//! * one error type ([`ClientError`](crate::ClientError)) at the facade
//!   boundary.
//!
//! # Examples
//!
//! ```
//! use cloudprov_cloud::{AwsProfile, CloudEnv};
//! use cloudprov_core::{
//!     FlushBatch, Protocol, ProtocolConfig, ProvenanceClient, StorageProtocol,
//! };
//! use cloudprov_sim::Sim;
//!
//! let sim = Sim::new();
//! let env = CloudEnv::new(&sim, AwsProfile::instant());
//! let client = ProvenanceClient::builder(Protocol::P2)
//!     .config(ProtocolConfig {
//!         upload_concurrency: 8,
//!         ..ProtocolConfig::default()
//!     })
//!     .build(&env);
//! client.flush(FlushBatch::default())?;
//! client.drain()?;
//! # Ok::<(), cloudprov_core::ClientError>(())
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::CloudEnv;
use cloudprov_pass::PNodeId;
use cloudprov_sim::{Sim, SimSemaphore, SimTime};

use crate::cas::{CasFlushItem, CasRef, CasStore};
use crate::error::{ClientError, ClientResult, ProtocolError, Result};
use crate::p3::{CleanerDaemon, CommitDaemon, P3};
use crate::protocol::{
    FlushBatch, ProtocolConfig, ProvenanceStore, ReadResult, S3fsBaseline, StepHook,
    StorageProtocol,
};
use crate::{P1, P2};

/// The four storage configurations of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protocol {
    /// The provenance-free S3fs baseline.
    S3fs,
    /// P1: data and provenance both as S3 objects.
    P1,
    /// P2: data in S3, provenance in SimpleDB.
    P2,
    /// P3: S3 + SimpleDB + SQS write-ahead log.
    P3,
}

impl Protocol {
    /// All four configurations, baseline first (the order of every table
    /// in the paper).
    pub const ALL: [Protocol; 4] = [Protocol::S3fs, Protocol::P1, Protocol::P2, Protocol::P3];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::S3fs => "S3fs",
            Protocol::P1 => "P1",
            Protocol::P2 => "P2",
            Protocol::P3 => "P3",
        }
    }

    /// Whether this configuration records provenance at all.
    pub fn records_provenance(self) -> bool {
        self != Protocol::S3fs
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Protocol {
    type Err = String;
    fn from_str(s: &str) -> std::result::Result<Protocol, String> {
        match s {
            "S3fs" | "s3fs" => Ok(Protocol::S3fs),
            "P1" | "p1" => Ok(Protocol::P1),
            "P2" | "p2" => Ok(Protocol::P2),
            "P3" | "p3" => Ok(Protocol::P3),
            other => Err(format!("unknown protocol '{other}'")),
        }
    }
}

/// Admission gate for client-side backpressure: `flush` / `flush_async`
/// block (in virtual time) while the gate returns `false`. The fleet
/// wires this to a bounded per-shard WAL depth, so clients sharing an
/// overloaded shard throttle instead of growing the queue without bound.
pub type AdmissionGate = Arc<dyn Fn() -> bool + Send + Sync>;

/// Client-side backpressure installed by [`ClientBuilder::admission`].
#[derive(Clone)]
struct Admission {
    gate: AdmissionGate,
    /// Re-check interval while the gate is closed (the lost-wakeup
    /// fallback when a bell is installed).
    poll: Duration,
    bell: Option<SimSemaphore>,
}

/// Typed builder for [`ProvenanceClient`] — the only supported way to
/// construct a storage protocol outside `cloudprov-core`. Protocol
/// tuning lives in one place, [`ProtocolConfig`], handed over whole with
/// [`ClientBuilder::config`]; the builder's own methods cover only what
/// is a property of the *session* rather than of the protocol.
#[derive(Clone)]
pub struct ClientBuilder {
    protocol: Protocol,
    config: ProtocolConfig,
    queue: String,
    identity: Option<String>,
    pipelined: bool,
    admission: Option<Admission>,
}

impl fmt::Debug for ClientBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientBuilder")
            .field("protocol", &self.protocol)
            .field("config", &self.config)
            .field("queue", &self.queue)
            .field("identity", &self.identity)
            .field("pipelined", &self.pipelined)
            .field("admission", &self.admission.as_ref().map(|a| a.poll))
            .finish()
    }
}

impl ClientBuilder {
    /// Starts a builder for `protocol` with the paper's default tuning.
    pub fn new(protocol: Protocol) -> ClientBuilder {
        ClientBuilder {
            protocol,
            config: ProtocolConfig::default(),
            queue: "wal".to_string(),
            identity: None,
            pipelined: false,
            admission: None,
        }
    }

    /// The protocol tuning config (defaults to
    /// [`ProtocolConfig::default`], the paper's tuning).
    pub fn config(mut self, config: ProtocolConfig) -> Self {
        self.config = config;
        self
    }

    /// Crash-injection hook checked at protocol step boundaries
    /// (shorthand for setting [`ProtocolConfig::step_hook`]).
    pub fn step_hook(mut self, hook: StepHook) -> Self {
        self.config.step_hook = Some(hook);
        self
    }

    /// Name of the client's P3 WAL queue (each client has its own,
    /// §4.3.3). Ignored by the other protocols.
    pub fn queue(mut self, name: impl Into<String>) -> Self {
        self.queue = name.into();
        self
    }

    /// Client identity seeding P3's transaction-id stream. Defaults to
    /// the queue name (the paper's one-client-per-queue layout); a fleet
    /// routing many clients onto one *shard* queue must give each client
    /// a distinct identity so transaction ids cannot collide.
    pub fn wal_identity(mut self, identity: impl Into<String>) -> Self {
        self.identity = Some(identity.into());
        self
    }

    /// Installs client-side backpressure: `flush`/`flush_async` proceed
    /// only once `gate` admits, re-checking it on the *submitting*
    /// thread before the batch enters the pipeline. With a `bell` the
    /// throttled client parks on it and re-checks whenever it rings —
    /// the fleet rings it when the commit daemon acknowledges WAL
    /// messages on the client's shard — and `poll` is only the lost-
    /// wakeup fallback (a lost ring degrades to polling, never a stuck
    /// client); without one, `poll` is the re-check cadence.
    pub fn admission(
        mut self,
        gate: AdmissionGate,
        poll: Duration,
        bell: Option<SimSemaphore>,
    ) -> Self {
        self.admission = Some(Admission {
            gate,
            poll: poll.max(Duration::from_millis(1)),
            bell,
        });
        self
    }

    /// Selects the non-blocking pipelined flush path: `flush` enqueues to
    /// the background flusher and returns immediately, and
    /// [`ProvenanceClient::sync`]/[`ProvenanceClient::drain`] are the
    /// durability barriers. The default blocks until the batch is
    /// durable (the paper's client).
    pub fn pipelined(mut self) -> Self {
        self.pipelined = true;
        self
    }

    /// Builds the client over a cloud environment.
    pub fn build(self, env: &CloudEnv) -> ProvenanceClient {
        let ClientBuilder {
            protocol,
            config,
            queue,
            identity,
            pipelined,
            admission,
        } = self;
        let mut p3_handle = None;
        let inner: Arc<dyn StorageProtocol> = match protocol {
            Protocol::S3fs => Arc::new(S3fsBaseline::new(env, config.clone())),
            Protocol::P1 => Arc::new(P1::new(env, config.clone())),
            Protocol::P2 => Arc::new(P2::new(env, config.clone())),
            Protocol::P3 => {
                let identity = identity.as_deref().unwrap_or(&queue);
                let p3 = P3::with_identity(env, config.clone(), &queue, identity);
                p3_handle = Some(p3.clone());
                Arc::new(p3)
            }
        };
        let daemon = p3_handle.as_ref().map(|p3| Arc::new(p3.commit_daemon()));
        let pipeline = pipelined
            .then(|| Pipeline::start(env, inner.clone(), p3_handle.clone(), config.clone()));
        ProvenanceClient {
            env: env.clone(),
            protocol,
            config,
            inner,
            daemon,
            p3: p3_handle,
            pipeline,
            admission,
        }
    }
}

/// A provenance storage session: protocol, daemons and flush pipeline
/// behind one handle. Construct with [`ProvenanceClient::builder`].
pub struct ProvenanceClient {
    env: CloudEnv,
    protocol: Protocol,
    config: ProtocolConfig,
    inner: Arc<dyn StorageProtocol>,
    daemon: Option<Arc<CommitDaemon>>,
    /// Concrete P3 handle (shares state with `inner`), for P3-only
    /// instrumentation like the logged-transaction timestamps.
    p3: Option<P3>,
    pipeline: Option<Pipeline>,
    admission: Option<Admission>,
}

impl fmt::Debug for ProvenanceClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProvenanceClient")
            .field("protocol", &self.protocol)
            .field("pipelined", &self.pipeline.is_some())
            .field("config", &self.config)
            .finish()
    }
}

impl ProvenanceClient {
    /// Starts a typed builder for `protocol`.
    pub fn builder(protocol: Protocol) -> ClientBuilder {
        ClientBuilder::new(protocol)
    }

    /// Which storage configuration this session uses.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The cloud environment the session runs against.
    pub fn env(&self) -> &CloudEnv {
        &self.env
    }

    /// The tuning config in force.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Bucket where primary data objects live.
    pub fn data_bucket(&self) -> &str {
        &self.config.layout.data_bucket
    }

    /// The underlying protocol as a trait object (for consumers that
    /// take `Arc<dyn StorageProtocol>` and want to bypass the pipeline,
    /// e.g. crash harnesses measuring the raw blocking path).
    pub fn storage(&self) -> &Arc<dyn StorageProtocol> {
        &self.inner
    }

    /// P3's commit daemon (None for other protocols). Drive it manually
    /// with [`CommitDaemon::poll_once`]/[`CommitDaemon::run_until_idle`]
    /// or spawn it in the background; [`ProvenanceClient::drain`] runs
    /// it to quiescence either way.
    pub fn commit_daemon(&self) -> Option<&Arc<CommitDaemon>> {
        self.daemon.as_ref()
    }

    /// Builds a P3 cleaner daemon reaping orphaned temp objects (None
    /// for other protocols).
    pub fn cleaner_daemon(&self) -> Option<CleanerDaemon> {
        (self.protocol == Protocol::P3).then(|| CleanerDaemon::new(&self.env, self.config.clone()))
    }

    /// URL of this session's P3 WAL queue (None for other protocols) —
    /// what a recovery machine needs to commit on this client's behalf.
    pub fn wal_url(&self) -> Option<&str> {
        self.p3.as_ref().map(P3::wal_url)
    }

    /// (transaction id, WAL-durable instant) for every transaction this
    /// session has logged (empty for non-P3 sessions). The fleet
    /// benchmark joins these with the daemon pool's commit timestamps
    /// into the per-transaction commit-latency distribution.
    pub fn wal_logged_transactions(&self) -> Vec<(cloudprov_pass::Uuid, SimTime)> {
        self.p3
            .as_ref()
            .map(|p| p.logged_transactions())
            .unwrap_or_default()
    }

    /// Blocks (in virtual time) until the admission gate, if any, admits
    /// a new batch — the fleet's per-shard backpressure point. With a
    /// doorbell installed the wait parks on it (waking as soon as the
    /// daemon drains the shard) and the poll interval is only the lost-
    /// wakeup fallback. Returns how long admission blocked.
    fn admit(&self) -> Duration {
        let Some(Admission { gate, poll, bell }) = &self.admission else {
            return Duration::ZERO;
        };
        let start = self.env.sim().now();
        while !gate() {
            match bell {
                Some(bell) => {
                    if let Some(permit) = bell.acquire_timeout(*poll) {
                        permit.forget();
                    }
                }
                None => self.env.sim().sleep(*poll),
            }
        }
        self.env.sim().now().saturating_duration_since(start)
    }

    /// Enqueues a batch on the background flusher and returns a ticket
    /// that resolves when the batch's **delta** is durable: objects the
    /// content-addressed store covers ride speculative background
    /// publishes the ticket does not wait for (an all-eligible batch
    /// resolves at submit), and [`ProvenanceClient::sync`] is the full
    /// durability barrier. On a blocking-mode client this degenerates to
    /// an inline flush returning a resolved ticket, so call sites can be
    /// mode-agnostic.
    ///
    /// With a [`ClientBuilder::admission`] gate installed, the call
    /// blocks until the gate admits — after CAS staging, so ancestor
    /// publishes overlap the throttle wait.
    pub fn flush_async(&self, batch: FlushBatch) -> FlushTicket {
        match &self.pipeline {
            Some(p) => {
                let refs = p.stage(&batch);
                let admission = self.admit();
                p.submit(batch, refs, admission)
            }
            None => {
                self.admit();
                FlushTicket::resolved(&self.env, self.inner.flush(batch))
            }
        }
    }

    /// One [`FlushSample`] per batch whose merged upload succeeded so far
    /// (capped; empty on a blocking-mode client), in the order the
    /// flusher made them durable: enqueue → WAL-durable, split into
    /// flusher-queue dwell and upload, with the admission wait beside
    /// it — so a tail's composition is measurable rather than guessed.
    pub fn flush_breakdown(&self) -> Vec<FlushSample> {
        self.pipeline
            .as_ref()
            .map(|p| p.shared.lock().samples.clone())
            .unwrap_or_default()
    }

    /// Barrier: blocks (in virtual time) until every batch enqueued so
    /// far is durable, then reports the first pipeline error since the
    /// last barrier, if any.
    ///
    /// # Errors
    ///
    /// The first [`ClientError`] produced by a background flush since
    /// the previous barrier.
    pub fn sync(&self) -> ClientResult<()> {
        match &self.pipeline {
            Some(p) => p.sync(),
            None => Ok(()),
        }
    }

    /// Full quiescence barrier: [`ProvenanceClient::sync`], then (for
    /// P3) runs the commit daemon until the WAL is empty. After `drain`
    /// the cloud state is what the blocking path would have produced.
    ///
    /// # Errors
    ///
    /// Pipeline errors first, then commit-daemon errors.
    pub fn drain(&self) -> ClientResult<()> {
        self.sync()?;
        if let Some(d) = &self.daemon {
            d.run_until_idle().map_err(ClientError::from)?;
        }
        Ok(())
    }

    /// Pipeline counters (None on a blocking-mode client).
    pub fn pipeline_stats(&self) -> Option<PipelineStats> {
        self.pipeline.as_ref().map(Pipeline::stats)
    }
}

impl StorageProtocol for ProvenanceClient {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// Blocking mode: delegates to the protocol and returns when the
    /// batch is durable. Pipelined mode: enqueues and returns
    /// immediately — errors surface at the next barrier or ticket wait.
    /// Either way an installed admission gate is waited out first.
    fn flush(&self, batch: FlushBatch) -> Result<()> {
        if self.pipeline.is_some() {
            self.flush_async(batch);
            return Ok(());
        }
        self.admit();
        self.inner.flush(batch)
    }

    fn read(&self, key: &str) -> Result<ReadResult> {
        self.inner.read(key)
    }

    fn delete(&self, key: &str) -> Result<()> {
        if let Some(p) = &self.pipeline {
            // A mutation is a synchronization point: wait out queued
            // flushes first, or a pending upload of this key would land
            // *after* the delete and resurrect the object (the blocking
            // path deletes strictly after prior flushes completed).
            p.sync_raw()?;
            // And forget anything persisted under this key: re-flushing
            // identical content after a delete has to reach the cloud
            // again.
            p.invalidate_key(key);
        }
        self.inner.delete(key)
    }

    fn stat(&self, key: &str) -> Result<Option<u64>> {
        self.inner.stat(key)
    }

    fn provenance_store(&self) -> Option<ProvenanceStore> {
        self.inner.provenance_store()
    }
}

impl Drop for ProvenanceClient {
    fn drop(&mut self) {
        if let Some(p) = &self.pipeline {
            p.shutdown();
        }
    }
}

/// Counters exposed by [`ProvenanceClient::pipeline_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Batches enqueued via `flush_async`/`flush`.
    pub submitted: u64,
    /// Batches durably persisted (or failed).
    pub completed: u64,
    /// Uploads the flusher issued (merged batches), ≤ `completed`.
    pub uploads: u64,
    /// Objects dropped because an earlier batch already persisted them.
    pub deduped_objects: u64,
    /// Dedupe-set entries evicted oldest-first once past
    /// `ProtocolConfig::dedupe_cap` — a nonzero count means later
    /// identical flushes may re-upload (idempotently), never that
    /// correctness was at risk.
    pub dedupe_evictions: u64,
    /// Content-addressed-store registry probes this client issued.
    pub cas_probes: u64,
    /// Probes that found the ancestor already published fleet-wide (the
    /// cross-client dedupe the CAS exists for).
    pub cas_hits: u64,
    /// Ancestors this client published into the CAS.
    pub cas_publishes: u64,
}

/// One flush's latency split, reported by
/// [`ProvenanceClient::flush_breakdown`] and sampled once per batch, by
/// the flusher, when the merged upload the batch rode in is durable —
/// whatever moment the batch's [`FlushTicket`] resolved. `total` =
/// `queued` + `upload`; `admission` is the backpressure wait *before*
/// enqueue and is deliberately not part of `total` (the fleet reports it
/// as its own column).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushSample {
    /// Enqueue → the batch's merged upload durable (for P3: its WAL
    /// transaction logged, every content-addressed publish it references
    /// fenced first).
    pub total: Duration,
    /// Admission-gate wait before enqueue.
    pub admission: Duration,
    /// Enqueue → flusher pickup (queue dwell).
    pub queued: Duration,
    /// Flusher pickup → merged upload durable.
    pub upload: Duration,
}

/// Handle to one asynchronous flush. A ticket for a batch carrying
/// inline objects resolves when the merged upload it rode in is durable
/// (or failed). A ticket for a fully CAS-routed batch resolves `Ok` at
/// submit and promises **nothing** about durability: the content
/// publishes and the WAL delta are still in flight, and their failure
/// surfaces only at [`ProvenanceClient::sync`] / `drain`, which stay the
/// durability barrier.
#[derive(Debug)]
pub struct FlushTicket {
    state: Arc<TicketState>,
}

impl FlushTicket {
    fn resolved(env: &CloudEnv, result: Result<()>) -> FlushTicket {
        FlushTicket {
            state: Arc::new(TicketState {
                sim: env.sim().clone(),
                sem: Mutex::new(None),
                result: Mutex::new(Some(result)),
            }),
        }
    }

    /// True once the ticket has resolved: the batch is durable or failed
    /// — or it was fully CAS-routed and settled at submit (see the type
    /// docs: durable only after `sync`).
    pub fn is_done(&self) -> bool {
        self.state.result.lock().is_some()
    }

    /// Blocks (in virtual time) until the ticket resolves.
    ///
    /// # Errors
    ///
    /// The error of the merged upload this batch rode in, if it failed.
    pub fn wait(&self) -> ClientResult<()> {
        if let Some(done) = self.state.result.lock().clone() {
            return done.map_err(ClientError::from);
        }
        // Unresolved: park on the ticket's (lazily created — most
        // tickets are never waited on) semaphore. The permit is
        // returned on drop, so repeated and concurrent waits all pass
        // once the ticket resolves.
        let sem = self
            .state
            .sem
            .lock()
            .get_or_insert_with(|| SimSemaphore::new(&self.state.sim, 0))
            .clone();
        let _permit = sem.acquire();
        self.state
            .result
            .lock()
            .clone()
            .expect("ticket resolved without a result")
            .map_err(ClientError::from)
    }
}

#[derive(Debug)]
struct TicketState {
    sim: Sim,
    /// Created on the first `wait`; absent for fire-and-forget tickets.
    sem: Mutex<Option<SimSemaphore>>,
    result: Mutex<Option<Result<()>>>,
}

impl TicketState {
    /// First resolution wins: a ticket settled at submit (fully
    /// CAS-routed batch) keeps its `Ok` when the flusher later resolves
    /// the whole merge — flusher errors for such batches surface at the
    /// `sync`/`drain` barrier instead.
    fn resolve(&self, result: Result<()>) {
        {
            let mut slot = self.result.lock();
            if slot.is_some() {
                return;
            }
            *slot = Some(result);
        }
        if let Some(sem) = self.sem.lock().as_ref() {
            sem.release();
        }
    }
}

struct Job {
    batch: FlushBatch,
    /// Per-object CAS routing decided at submit, aligned with
    /// `batch.objects`: `Some` rides the content-addressed store, `None`
    /// takes the legacy inline-upload path.
    refs: Vec<Option<CasRef>>,
    ticket: Arc<TicketState>,
    /// Virtual instant the batch was enqueued, for flush→durable latency.
    submitted_at: SimTime,
    /// How long the admission gate blocked before enqueue.
    admission: Duration,
}

/// Content digest of one flush object: node id, pending records, data.
/// Two objects with equal digests persist identical state, so the
/// second is safe to drop; a node re-flushed with *new* pending records
/// digests differently and is kept.
fn object_digest(obj: &crate::FlushObject) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in &obj.node.records {
        eat(cloudprov_pass::wire::encode_record(r).as_bytes());
    }
    if let Some(key) = &obj.key {
        eat(key.as_bytes());
    }
    if let Some(data) = &obj.data {
        eat(&data.content_fingerprint().to_le_bytes());
        eat(&data.len().to_le_bytes());
    }
    h
}

/// Cap on the barrier error buffer: a client driven purely through
/// `FlushTicket::wait` (never `sync`/`drain`) must not accumulate one
/// error per failed merge forever.
const ERROR_CAP: usize = 256;

/// Cap on the per-client flush→durable latency samples kept for the
/// fleet benchmark's percentile columns.
const LATENCY_CAP: usize = 1 << 16;

#[derive(Default)]
struct PipelineState {
    queue: VecDeque<Job>,
    shutdown: bool,
    /// Digest (and object-store key) of the last state durably
    /// persisted per node version — the cross-batch ancestor dedupe
    /// set. A node whose pending records changed since digests
    /// differently and is re-uploaded. Bounded to
    /// `ProtocolConfig::dedupe_cap` entries via `persisted_order`.
    persisted: BTreeMap<PNodeId, (u64, Option<String>)>,
    /// Insertion order of `persisted` keys, for oldest-first eviction.
    persisted_order: VecDeque<PNodeId>,
    /// Object-store key → node versions persisted under it, so
    /// `delete(key)` can invalidate their dedupe entries (a deleted
    /// object re-flushed with identical content must re-upload).
    key_index: BTreeMap<String, Vec<PNodeId>>,
    submitted: u64,
    completed: u64,
    uploads: u64,
    deduped: u64,
    /// Failures of merged uploads, tagged with the job-counter range
    /// the merge covered (jobs `start+1 ..= end`). A barrier with
    /// target `T` *reports* an error iff `start < T` and *retires* it
    /// iff `end <= T`, so every overlapping barrier observes the
    /// failure (merges can span work from several threads). Bounded to
    /// [`ERROR_CAP`] entries (tickets carry per-batch errors anyway;
    /// this buffer only feeds barriers).
    errors: VecDeque<(u64, u64, ProtocolError)>,
    /// Barrier waiters: woken when `completed` reaches their target.
    waiters: Vec<(u64, SimSemaphore)>,
    /// Per-flush latency samples (see [`FlushSample`]), capped at
    /// [`LATENCY_CAP`].
    samples: Vec<FlushSample>,
    /// Dedupe-set entries evicted past the cap (surfaced in
    /// [`PipelineStats::dedupe_evictions`]).
    evictions: u64,
}

impl PipelineState {
    /// Records the digests of a durably persisted merge, evicting the
    /// oldest entries beyond `cap` (`ProtocolConfig::dedupe_cap`).
    fn record_persisted(
        &mut self,
        merged_ids: BTreeMap<PNodeId, (u64, Option<String>)>,
        cap: usize,
    ) {
        for (id, (digest, key)) in merged_ids {
            if let Some(k) = &key {
                self.key_index.entry(k.clone()).or_default().push(id);
            }
            if self.persisted.insert(id, (digest, key)).is_none() {
                self.persisted_order.push_back(id);
            }
        }
        while self.persisted.len() > cap {
            // Skip order entries already invalidated by `delete`.
            let Some(oldest) = self.persisted_order.pop_front() else {
                break;
            };
            if let Some((_, key)) = self.persisted.remove(&oldest) {
                self.evictions += 1;
                self.unindex(oldest, key.as_deref());
            }
        }
    }

    /// Forgets every dedupe entry persisted under `key`: after a
    /// delete, an identical re-flush must reach the cloud again.
    fn invalidate_key(&mut self, key: &str) {
        let Some(ids) = self.key_index.remove(key) else {
            return;
        };
        for id in ids {
            self.persisted.remove(&id);
            // The stale `persisted_order` entry is skipped at eviction.
        }
    }

    fn unindex(&mut self, id: PNodeId, key: Option<&str>) {
        if let Some(k) = key {
            if let Some(ids) = self.key_index.get_mut(k) {
                ids.retain(|i| *i != id);
                if ids.is_empty() {
                    self.key_index.remove(k);
                }
            }
        }
    }
}

/// The background flusher: one simulated thread draining a batch queue
/// through the protocol's (already parallel, `upload_concurrency`-wide)
/// upload path. Batches that queue up while an upload is in flight are
/// coalesced into one merged batch, preserving enqueue order (ancestors
/// stay ahead of their descendants because `flush_closure` emits them
/// first and earlier closes enqueue first).
///
/// On a P3 client with the content-addressed store enabled, `stage`
/// fingerprints each object at submit and kicks off speculative
/// background publishes; the flusher then ships CAS *references* for
/// covered objects (waiting out their publishes first, so the WAL never
/// names a hash that is not durable) and inline uploads only for the
/// rest.
#[derive(Clone)]
struct Pipeline {
    sim: Sim,
    shared: Arc<Mutex<PipelineState>>,
    /// Producer/consumer signal: one release per submitted job plus one
    /// per shutdown request.
    work: SimSemaphore,
    inner: Arc<dyn StorageProtocol>,
    /// The P3 handle CAS-routed merges log through, and the fleet-wide
    /// content-addressed ancestor store they reference. CAS routing
    /// needs the WAL's `CAS`-line vocabulary, so both are `Some` only on
    /// P3 with `ProtocolConfig::cas`; everything else uploads inline
    /// with refs all `None`.
    p3cas: Option<P3>,
    cas: Option<CasStore>,
    config: ProtocolConfig,
}

impl Pipeline {
    fn start(
        env: &CloudEnv,
        inner: Arc<dyn StorageProtocol>,
        p3: Option<P3>,
        config: ProtocolConfig,
    ) -> Pipeline {
        let p3cas = p3.filter(|_| config.cas);
        let pipeline = Pipeline {
            cas: p3cas.as_ref().map(|_| CasStore::new(env, config.clone())),
            sim: env.sim().clone(),
            shared: Arc::new(Mutex::new(PipelineState::default())),
            work: SimSemaphore::new(env.sim(), 0),
            inner,
            p3cas,
            config,
        };
        // The handle is deliberately dropped: the flusher exits on
        // shutdown (or idles, parked on `work`, costing no virtual time)
        // and is never joined.
        let flusher = pipeline.clone();
        let _flusher = pipeline.sim.spawn(move || flusher.run());
        pipeline
    }

    fn run(self) {
        loop {
            // One signal per job; extra wakeups (for jobs a previous
            // iteration already coalesced) find the queue empty.
            self.work.acquire().forget();
            let (jobs, entries, wait_shas, merged_ids) = {
                let mut st = self.shared.lock();
                if st.queue.is_empty() {
                    if st.shutdown {
                        break;
                    }
                    continue;
                }
                let mut pending: VecDeque<Job> = st.queue.drain(..).collect();
                let mut jobs: Vec<Job> = Vec::new();
                let mut seen: BTreeMap<PNodeId, (u64, Option<String>)> = BTreeMap::new();
                let mut merged_keys: BTreeMap<String, PNodeId> = BTreeMap::new();
                let mut entries: Vec<CasFlushItem> = Vec::new();
                let mut wait_shas: Vec<String> = Vec::new();
                while let Some(job) = pending.pop_front() {
                    // Never merge two *versions* of one key: the merged
                    // batch uploads in parallel, so the older version's
                    // put could land last. A conflicting job starts the
                    // next merge instead (the blocking path serializes
                    // exactly the same way).
                    let conflicts = job.batch.objects.iter().any(|o| {
                        o.key
                            .as_ref()
                            .is_some_and(|k| merged_keys.get(k).is_some_and(|id| *id != o.node.id))
                    });
                    if conflicts {
                        pending.push_front(job);
                        break;
                    }
                    for (obj, cref) in job.batch.objects.iter().zip(&job.refs) {
                        if let Some(k) = &obj.key {
                            merged_keys.insert(k.clone(), obj.node.id);
                        }
                        // Drop objects whose exact state an earlier
                        // batch (or an earlier object in this merge)
                        // already persisted; first occurrence keeps the
                        // ancestors-first position.
                        let digest = object_digest(obj);
                        let dup = st.persisted.get(&obj.node.id).map(|(d, _)| d) == Some(&digest)
                            || seen.get(&obj.node.id).map(|(d, _)| d) == Some(&digest);
                        if dup {
                            st.deduped += 1;
                            continue;
                        }
                        seen.insert(obj.node.id, (digest, obj.key.clone()));
                        // CAS-covered objects ship as references (their
                        // content rides the speculative publish); the
                        // rest ship inline, in the same interleaved
                        // order so last-for-key election at the daemon
                        // still sees the newest version last.
                        match cref {
                            Some(r) => {
                                wait_shas.push(r.sha.clone());
                                entries.push(CasFlushItem::Ref(r.clone()));
                            }
                            None => entries.push(CasFlushItem::Object(obj.clone())),
                        }
                    }
                    jobs.push(job);
                }
                if !pending.is_empty() {
                    // Requeue the conflicting tail for the next merge
                    // and guarantee a wakeup for it (its original
                    // signals may already have been burned by empty
                    // iterations).
                    while let Some(job) = pending.pop_back() {
                        st.queue.push_front(job);
                    }
                    self.work.release();
                }
                if !entries.is_empty() {
                    st.uploads += 1;
                }
                (jobs, entries, wait_shas, seen)
            };
            let pickup_at = self.sim.now();
            // Dedupe can empty the merge entirely; skip the protocol
            // call then (P3 would otherwise log a phantom empty WAL
            // transaction and every protocol would bill a wasted op).
            // The crash point models the background flusher dying with
            // batches still queued: the merge is lost, the error
            // surfaces at the next barrier or ticket wait.
            let result = if entries.is_empty() {
                Ok(())
            } else {
                self.config.step("client:flusher:flush").and_then(|()| {
                    // The WAL must never reference a hash whose publish
                    // is not durable yet: wait out (or fail on) every
                    // referenced publish before logging the delta.
                    if let Some(cas) = &self.cas {
                        for sha in &wait_shas {
                            cas.wait(sha)?;
                        }
                    }
                    match &self.p3cas {
                        Some(p3) => p3.flush_with_cas(entries),
                        None => self.inner.flush(FlushBatch {
                            objects: entries
                                .into_iter()
                                .map(|item| match item {
                                    CasFlushItem::Object(o) => o,
                                    CasFlushItem::Ref(_) => {
                                        unreachable!("CAS ref staged without a CAS store")
                                    }
                                })
                                .collect(),
                        }),
                    }
                })
            };
            let durable_at = self.sim.now();
            let mut st = self.shared.lock();
            match &result {
                Ok(()) => {
                    // Latency samples are enqueue→durable: a failed merge
                    // made nothing durable, so it contributes no sample
                    // (it surfaces as an error at the barrier instead).
                    for job in &jobs {
                        if st.samples.len() < LATENCY_CAP {
                            st.samples.push(FlushSample {
                                total: durable_at.saturating_duration_since(job.submitted_at),
                                admission: job.admission,
                                queued: pickup_at.saturating_duration_since(job.submitted_at),
                                upload: durable_at.saturating_duration_since(pickup_at),
                            });
                        }
                    }
                    let cap = self.config.dedupe_cap;
                    st.record_persisted(merged_ids, cap)
                }
                Err(e) => {
                    let start = st.completed;
                    let end = start + jobs.len() as u64;
                    st.errors.push_back((start, end, e.clone()));
                    if st.errors.len() > ERROR_CAP {
                        st.errors.pop_front();
                    }
                }
            }
            st.completed += jobs.len() as u64;
            let completed = st.completed;
            st.waiters.retain(|(target, sem)| {
                let reached = *target <= completed;
                if reached {
                    sem.release();
                }
                !reached
            });
            drop(st);
            for job in jobs {
                // Idempotent: a ticket settled at submit keeps its Ok.
                job.ticket.resolve(result.clone());
            }
        }
    }

    /// Routes each object of `batch` through the content-addressed
    /// store: returns one `Option<CasRef>` per object (in order) and
    /// kicks off speculative background publishes for first-seen
    /// content. Runs on the submitting thread *before* admission, so
    /// publishes overlap the backpressure wait; costs no virtual time
    /// itself.
    fn stage(&self, batch: &FlushBatch) -> Vec<Option<CasRef>> {
        let Some(cas) = &self.cas else {
            return vec![None; batch.objects.len()];
        };
        let mut refs = Vec::with_capacity(batch.objects.len());
        let mut publishes = Vec::new();
        for obj in &batch.objects {
            match cas.stage(obj) {
                Some((r, publish)) => {
                    refs.push(Some(r));
                    publishes.extend(publish);
                }
                None => refs.push(None),
            }
        }
        if !publishes.is_empty() {
            let cas = cas.clone();
            let sim = self.sim.clone();
            let concurrency = self.config.upload_concurrency;
            // Fire-and-forget: waiters rendezvous through CasStore
            // state, and the flusher's `wait` is the durability fence.
            let _publisher = self.sim.spawn(move || {
                let tasks: Vec<_> = publishes
                    .into_iter()
                    .map(|unit| {
                        let cas = cas.clone();
                        move || cas.publish(unit)
                    })
                    .collect();
                sim.run_parallel(concurrency, tasks);
            });
        }
        refs
    }

    fn submit(
        &self,
        batch: FlushBatch,
        refs: Vec<Option<CasRef>>,
        admission: Duration,
    ) -> FlushTicket {
        // A fully CAS-routed batch is already content-durable or riding
        // in-flight publishes the flusher will fence on: its ticket
        // settles now (the delta it would wait for is empty) and `sync`
        // remains the barrier that surfaces any publish failure.
        let early = refs.iter().all(Option::is_some);
        let ticket = Arc::new(TicketState {
            sim: self.sim.clone(),
            sem: Mutex::new(None),
            result: Mutex::new(None),
        });
        {
            let mut st = self.shared.lock();
            st.submitted += 1;
            st.queue.push_back(Job {
                batch,
                refs,
                ticket: ticket.clone(),
                submitted_at: self.sim.now(),
                admission,
            });
        }
        self.work.release();
        if early {
            ticket.resolve(Ok(()));
        }
        FlushTicket { state: ticket }
    }

    fn sync(&self) -> ClientResult<()> {
        self.sync_raw().map_err(ClientError::from)
    }

    fn sync_raw(&self) -> std::result::Result<(), ProtocolError> {
        let (target, barrier) = {
            let mut st = self.shared.lock();
            let target = st.submitted;
            if st.completed >= target {
                (target, None)
            } else {
                let sem = SimSemaphore::new(&self.sim, 0);
                st.waiters.push((target, sem.clone()));
                (target, Some(sem))
            }
        };
        if let Some(sem) = barrier {
            sem.acquire().forget();
        }
        // Report every error whose merge overlapped this barrier's jobs
        // (`start < target`), but retire an error only once a barrier
        // fully covers its merge (`end <= target`): a failed merge that
        // mixed pre-barrier jobs with another thread's later work is
        // reported to *both* threads' barriers, never lost to one.
        let mut first = None;
        {
            let mut st = self.shared.lock();
            st.errors.retain(|(start, end, e)| {
                if *start < target && first.is_none() {
                    first = Some(e.clone());
                }
                *end > target
            });
        }
        match first {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn invalidate_key(&self, key: &str) {
        self.shared.lock().invalidate_key(key);
    }

    fn stats(&self) -> PipelineStats {
        let (cas_probes, cas_hits, cas_publishes) = self
            .cas
            .as_ref()
            .map(CasStore::counters)
            .unwrap_or_default();
        let st = self.shared.lock();
        PipelineStats {
            submitted: st.submitted,
            completed: st.completed,
            uploads: st.uploads,
            deduped_objects: st.deduped,
            dedupe_evictions: st.evictions,
            cas_probes,
            cas_hits,
            cas_publishes,
        }
    }

    fn shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.work.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CouplingCheck, FlushObject};
    use cloudprov_cloud::{AwsProfile, Blob};
    use cloudprov_pass::{Attr, FlushNode, NodeKind, ProvenanceRecord, Uuid};
    use std::time::Duration;

    fn setup(protocol: Protocol) -> (Sim, CloudEnv, ProvenanceClient) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let client = ProvenanceClient::builder(protocol).build(&env);
        (sim, env, client)
    }

    fn file_obj(uuid: u128, version: u32, key: &str, data: &str) -> FlushObject {
        let id = PNodeId {
            uuid: Uuid(uuid),
            version,
        };
        let blob = Blob::from(data);
        FlushObject::file(
            FlushNode {
                id,
                kind: NodeKind::File,
                name: Some(format!("/{key}")),
                records: vec![
                    ProvenanceRecord::new(id, Attr::Type, "file"),
                    ProvenanceRecord::new(id, Attr::Name, key),
                    ProvenanceRecord::new(
                        id,
                        Attr::DataHash,
                        format!("{:016x}", blob.content_fingerprint()),
                    ),
                ],
                data_hash: Some(blob.content_fingerprint()),
            },
            key,
            blob,
        )
    }

    #[test]
    fn builder_constructs_every_protocol() {
        for protocol in Protocol::ALL {
            let (_sim, _env, client) = setup(protocol);
            assert_eq!(client.name(), protocol.name());
            assert_eq!(client.protocol(), protocol);
            assert_eq!(
                client.provenance_store().is_some(),
                protocol.records_provenance()
            );
            assert_eq!(client.commit_daemon().is_some(), protocol == Protocol::P3);
            assert_eq!(client.wal_url().is_some(), protocol == Protocol::P3);
            assert_eq!(client.cleaner_daemon().is_some(), protocol == Protocol::P3);
            assert!(client.pipeline_stats().is_none(), "blocking by default");
        }
    }

    #[test]
    fn ancestry_index_setter_gates_the_index_domain() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let indexed = ProvenanceClient::builder(Protocol::P3)
            .queue("wal-idx-on")
            .build(&env);
        assert!(matches!(
            indexed.provenance_store(),
            Some(ProvenanceStore::Database {
                index_domain: Some(_),
                ..
            })
        ));
        let plain = ProvenanceClient::builder(Protocol::P3)
            .queue("wal-idx-off")
            .config(ProtocolConfig {
                index: false,
                ..ProtocolConfig::default()
            })
            .build(&env);
        assert!(matches!(
            plain.provenance_store(),
            Some(ProvenanceStore::Database {
                index_domain: None,
                ..
            })
        ));
        // An index-less client's commits write no index items.
        plain
            .flush(FlushBatch {
                objects: vec![file_obj(77, 1, "noidx", "x")],
            })
            .unwrap();
        plain.drain().unwrap();
        assert_eq!(
            env.sdb()
                .peek_item_count(&crate::index::index_domain("provenance")),
            0
        );
    }

    #[test]
    fn protocol_parses_and_displays() {
        for p in Protocol::ALL {
            assert_eq!(p.name().parse::<Protocol>().unwrap(), p);
            assert_eq!(p.to_string(), p.name());
        }
        assert!("P9".parse::<Protocol>().is_err());
    }

    #[test]
    fn blocking_flush_then_read_roundtrips() {
        for protocol in [Protocol::P1, Protocol::P2, Protocol::P3] {
            let (_sim, _env, client) = setup(protocol);
            client
                .flush(FlushBatch {
                    objects: vec![file_obj(1, 1, "out", "payload")],
                })
                .unwrap();
            client.drain().unwrap();
            let r = client.read("out").unwrap();
            assert_eq!(r.data, Blob::from("payload"), "{protocol}");
            assert_eq!(r.coupling, CouplingCheck::Coupled, "{protocol}");
        }
    }

    #[test]
    fn flush_async_ticket_resolves_on_blocking_client() {
        let (_sim, _env, client) = setup(Protocol::P2);
        let ticket = client.flush_async(FlushBatch {
            objects: vec![file_obj(2, 1, "f", "x")],
        });
        assert!(ticket.is_done());
        ticket.wait().unwrap();
    }

    #[test]
    fn pipelined_flush_returns_before_durability() {
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        // Real latencies so the pipeline has something to hide.
        profile.s3.write_base = Duration::from_millis(100);
        let env = CloudEnv::new(&sim, profile);
        let client = ProvenanceClient::builder(Protocol::P1)
            .pipelined()
            .build(&env);
        let t0 = sim.now();
        let ticket = client.flush_async(FlushBatch {
            objects: vec![file_obj(3, 1, "f", "x")],
        });
        assert_eq!(sim.now(), t0, "enqueue must cost no virtual time");
        ticket.wait().unwrap();
        assert!(sim.now() > t0, "the upload itself does take time");
        assert!(env.s3().peek_committed("data", "f").is_some());
    }

    #[test]
    fn pipelined_batches_coalesce_and_dedupe_ancestors() {
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        profile.s3.write_base = Duration::from_millis(50);
        let env = CloudEnv::new(&sim, profile);
        let client = ProvenanceClient::builder(Protocol::P2)
            .pipelined()
            .build(&env);
        // A shared ancestor rides in every hand-built batch; the flusher
        // must upload it exactly once.
        let ancestor = file_obj(10, 1, "shared", "anc");
        for i in 0..8u128 {
            client
                .flush(FlushBatch {
                    objects: vec![ancestor.clone(), file_obj(20 + i, 1, &format!("f{i}"), "d")],
                })
                .unwrap();
        }
        client.drain().unwrap();
        let stats = client.pipeline_stats().unwrap();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
        assert!(
            stats.uploads < 8,
            "queued batches must coalesce, got {} uploads",
            stats.uploads
        );
        assert!(
            stats.deduped_objects >= 6,
            "repeated ancestor must dedupe, got {}",
            stats.deduped_objects
        );
        for i in 0..8 {
            assert!(env.s3().peek_committed("data", &format!("f{i}")).is_some());
        }
        assert!(env.s3().peek_committed("data", "shared").is_some());
    }

    #[test]
    fn cas_covered_flush_settles_at_submit() {
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        // Real cloud latencies: without the content-addressed store the
        // ticket could not possibly resolve in zero virtual time.
        profile.s3.write_base = Duration::from_millis(200);
        profile.sdb.write_base = Duration::from_millis(200);
        profile.sqs.write_base = Duration::from_millis(150);
        let env = CloudEnv::new(&sim, profile);
        let client = ProvenanceClient::builder(Protocol::P3)
            .queue("wal-cas")
            .pipelined()
            .build(&env);
        let t0 = sim.now();
        let ticket = client.flush_async(FlushBatch {
            objects: vec![file_obj(40, 1, "fast", "payload")],
        });
        assert!(ticket.is_done(), "fully CAS-routed batch settles at submit");
        assert_eq!(sim.now(), t0, "submit costs no virtual time");
        ticket.wait().unwrap();
        // `sync` is the real durability barrier: it waits out the
        // speculative publish and the WAL delta.
        client.sync().unwrap();
        let durable = sim.now().saturating_duration_since(t0);
        assert!(
            durable > Duration::ZERO,
            "durability still takes cloud time"
        );
        let stats = client.pipeline_stats().unwrap();
        assert_eq!(stats.cas_publishes, 1);
        // The sample measures enqueue -> WAL-durable, not the ticket.
        let breakdown = client.flush_breakdown();
        assert_eq!(breakdown.len(), 1);
        assert_eq!(breakdown[0].total, durable);
        assert!(breakdown[0].upload > Duration::ZERO);
        client.drain().unwrap();
        assert!(env.s3().peek_committed("data", "fast").is_some());
    }

    #[test]
    fn evicted_ancestor_reuploads_ahead_of_its_descendant() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let client = ProvenanceClient::builder(Protocol::P3)
            .queue("wal-evict")
            .pipelined()
            .config(ProtocolConfig {
                dedupe_cap: 1,
                ..ProtocolConfig::default()
            })
            .build(&env);
        let ancestor = file_obj(50, 1, "anc", "ancestor-bytes");
        client
            .flush(FlushBatch {
                objects: vec![ancestor.clone(), file_obj(51, 1, "desc", "v1")],
            })
            .unwrap();
        client.drain().unwrap();
        let s1 = client.pipeline_stats().unwrap();
        assert!(
            s1.dedupe_evictions >= 1,
            "cap 1 must evict, got {}",
            s1.dedupe_evictions
        );
        // Delete the ancestor's object, then re-flush the *identical*
        // ancestor (its dedupe entry is long evicted) together with a
        // new descendant version in one batch. The merge must carry
        // both — an evicted entry may cost a redundant upload, never a
        // skipped one — with the ancestor at its ancestors-first
        // position, so the descendant cannot ship ahead of it.
        client.delete("anc").unwrap();
        assert!(env.s3().peek_committed("data", "anc").is_none());
        client
            .flush(FlushBatch {
                objects: vec![ancestor.clone(), file_obj(51, 2, "desc", "v2")],
            })
            .unwrap();
        client.drain().unwrap();
        let s2 = client.pipeline_stats().unwrap();
        assert_eq!(
            s2.uploads,
            s1.uploads + 1,
            "ancestor and descendant ride one merged upload"
        );
        assert_eq!(
            s2.deduped_objects, s1.deduped_objects,
            "nothing may dedupe away after the eviction"
        );
        // The deleted ancestor is restored from the content-addressed
        // store — the daemon re-copies `cas/<sha>` to the final key even
        // though it had materialized that sha before — and the
        // descendant moved to v2.
        assert_eq!(
            env.s3().peek_committed("data", "anc").unwrap().blob,
            Blob::from("ancestor-bytes")
        );
        assert_eq!(
            env.s3().peek_committed("data", "desc").unwrap().blob,
            Blob::from("v2")
        );
        // Fleet-wide dedupe still held: the re-flushed ancestor's
        // content was already published, so only three publishes ever
        // happened (anc, desc v1, desc v2).
        assert_eq!(s2.cas_publishes, 3);
    }

    #[test]
    fn sync_surfaces_background_errors() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let client = ProvenanceClient::builder(Protocol::P1)
            .step_hook(Arc::new(|step: &str| !step.starts_with("p1:data:")))
            .pipelined()
            .build(&env);
        client
            .flush(FlushBatch {
                objects: vec![file_obj(4, 1, "f", "x")],
            })
            .unwrap();
        let err = client.sync().unwrap_err();
        assert!(matches!(
            err,
            ClientError::Protocol(ProtocolError::Crashed { .. })
        ));
        // The error is consumed: a later barrier with no new failures is
        // clean.
        client.sync().unwrap();
    }

    #[test]
    fn sync_takes_all_accumulated_errors() {
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        profile.s3.write_base = Duration::from_millis(50);
        let env = CloudEnv::new(&sim, profile);
        let client = ProvenanceClient::builder(Protocol::P1)
            .step_hook(Arc::new(|step: &str| !step.starts_with("p1:data:")))
            .pipelined()
            .build(&env);
        // Two failing batches, separated so each gets its own upload
        // (and therefore its own error) before the first barrier.
        for i in 0..2u128 {
            client
                .flush(FlushBatch {
                    objects: vec![file_obj(60 + i, 1, &format!("e{i}"), "x")],
                })
                .unwrap();
            sim.sleep(Duration::from_millis(200));
        }
        assert_eq!(client.pipeline_stats().unwrap().uploads, 2);
        client.sync().unwrap_err();
        // Both failures were consumed by that barrier: the next one must
        // not re-report a stale pre-barrier error.
        client.sync().unwrap();
    }

    #[test]
    fn rewrites_of_one_key_never_merge_into_one_upload() {
        // Two queued versions of the same key must flush in separate,
        // ordered uploads — a merged parallel upload could land the
        // older bytes last.
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        profile.s3.write_base = Duration::from_millis(100);
        profile.s3.jitter_frac = 0.3;
        let env = CloudEnv::new(&sim, profile);
        let client = ProvenanceClient::builder(Protocol::P1)
            .pipelined()
            .build(&env);
        // Keep the flusher busy so both rewrites queue up together.
        client
            .flush(FlushBatch {
                objects: vec![file_obj(95, 1, "filler", "f")],
            })
            .unwrap();
        sim.sleep(Duration::from_millis(10));
        client
            .flush(FlushBatch {
                objects: vec![file_obj(96, 1, "rw", "version-one")],
            })
            .unwrap();
        client
            .flush(FlushBatch {
                objects: vec![file_obj(96, 2, "rw", "version-two")],
            })
            .unwrap();
        client.drain().unwrap();
        assert_eq!(
            env.s3().peek_committed("data", "rw").unwrap().blob,
            Blob::from("version-two"),
            "the newest version must win"
        );
        assert_eq!(
            client.pipeline_stats().unwrap().uploads,
            3,
            "filler, v1 and v2 must be three separate uploads"
        );
    }

    #[test]
    fn delete_waits_out_queued_flushes_of_the_key() {
        // unlink after a pipelined close must not be overtaken by the
        // still-queued upload (which would resurrect the object).
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        profile.s3.write_base = Duration::from_millis(100);
        let env = CloudEnv::new(&sim, profile);
        let client = ProvenanceClient::builder(Protocol::P2)
            .pipelined()
            .build(&env);
        client
            .flush(FlushBatch {
                objects: vec![file_obj(97, 1, "doomed", "x")],
            })
            .unwrap();
        client.delete("doomed").unwrap();
        client.drain().unwrap();
        sim.sleep(Duration::from_secs(1));
        assert!(
            env.s3().peek_committed("data", "doomed").is_none(),
            "queued upload must not resurrect a deleted object"
        );
    }

    #[test]
    fn delete_invalidates_the_dedupe_entry() {
        // Re-flushing identical content after a delete must reach the
        // cloud again, exactly as the blocking path would.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let client = ProvenanceClient::builder(Protocol::P2)
            .pipelined()
            .build(&env);
        let batch = FlushBatch {
            objects: vec![file_obj(90, 1, "reborn", "x")],
        };
        client.flush(batch.clone()).unwrap();
        client.drain().unwrap();
        assert!(env.s3().peek_committed("data", "reborn").is_some());
        client.delete("reborn").unwrap();
        assert!(env.s3().peek_committed("data", "reborn").is_none());
        client.flush(batch).unwrap();
        client.drain().unwrap();
        assert!(
            env.s3().peek_committed("data", "reborn").is_some(),
            "identical re-flush after delete must re-upload"
        );
        assert_eq!(client.pipeline_stats().unwrap().deduped_objects, 0);
    }

    #[test]
    fn overlapping_merge_failure_reaches_every_barrier() {
        // A failed merge can mix jobs from two threads; BOTH threads'
        // barriers must observe the failure (reported to each, retired
        // only by the barrier that fully covers the merge).
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        profile.s3.write_base = Duration::from_millis(100);
        let env = CloudEnv::new(&sim, profile);
        let client = Arc::new(
            ProvenanceClient::builder(Protocol::P1)
                .step_hook(Arc::new(|step: &str| !step.contains(":data:bad")))
                .pipelined()
                .build(&env),
        );
        // Filler job the flusher picks up alone, keeping it busy while
        // A's and B's failing jobs queue up into one merge.
        client
            .flush(FlushBatch {
                objects: vec![file_obj(80, 1, "filler", "ok")],
            })
            .unwrap();
        let thread_a = {
            let client = client.clone();
            let sim2 = sim.clone();
            sim.spawn(move || {
                sim2.sleep(Duration::from_millis(10));
                client
                    .flush(FlushBatch {
                        objects: vec![file_obj(81, 1, "bad-a", "x")],
                    })
                    .unwrap();
                client.sync()
            })
        };
        let thread_b = {
            let client = client.clone();
            let sim2 = sim.clone();
            sim.spawn(move || {
                sim2.sleep(Duration::from_millis(20));
                client
                    .flush(FlushBatch {
                        objects: vec![file_obj(82, 1, "bad-b", "x")],
                    })
                    .unwrap();
                sim2.sleep(Duration::from_millis(400));
                client.sync()
            })
        };
        assert!(thread_a.join().is_err(), "A's barrier sees the failure");
        assert!(thread_b.join().is_err(), "B's barrier also sees it");
        client.sync().unwrap();
    }

    #[test]
    fn fully_deduped_merge_skips_the_protocol_call() {
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        profile.sqs.write_base = Duration::from_millis(50);
        profile.s3.write_base = Duration::from_millis(50);
        let env = CloudEnv::new(&sim, profile);
        let client = ProvenanceClient::builder(Protocol::P3)
            .queue("wal-dedup")
            .pipelined()
            .build(&env);
        let batch = FlushBatch {
            objects: vec![file_obj(70, 1, "same", "x")],
        };
        // The duplicate queues while the first upload is in flight and
        // dedupes to an empty merge — no upload, and crucially no
        // phantom empty P3 WAL transaction.
        client.flush(batch.clone()).unwrap();
        client.flush(batch).unwrap();
        client.drain().unwrap();
        let stats = client.pipeline_stats().unwrap();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.uploads, 1, "empty merge must skip the upload");
        assert_eq!(
            client.commit_daemon().unwrap().committed_transactions(),
            1,
            "no phantom empty WAL transaction"
        );
    }

    #[test]
    fn drain_commits_p3_wal() {
        let (_sim, env, client) = setup(Protocol::P3);
        client
            .flush(FlushBatch {
                objects: vec![file_obj(5, 1, "out", "wal")],
            })
            .unwrap();
        assert!(env.s3().peek_committed("data", "out").is_none());
        client.drain().unwrap();
        assert!(env.s3().peek_committed("data", "out").is_some());
        assert_eq!(env.sqs().peek_depth(client.wal_url().unwrap()), 0);
    }

    #[test]
    fn pipelined_p3_drain_waits_for_log_phase_first() {
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        profile.sqs.write_base = Duration::from_millis(20);
        let env = CloudEnv::new(&sim, profile);
        let client = ProvenanceClient::builder(Protocol::P3)
            .queue("wal-pipe")
            .pipelined()
            .build(&env);
        for i in 0..4u128 {
            client
                .flush(FlushBatch {
                    objects: vec![file_obj(30 + i, 1, &format!("g{i}"), "d")],
                })
                .unwrap();
        }
        client.drain().unwrap();
        for i in 0..4 {
            assert!(
                env.s3().peek_committed("data", &format!("g{i}")).is_some(),
                "g{i} must be committed after drain"
            );
        }
        assert_eq!(env.s3().peek_count("data", "tmp/"), 0, "temps cleaned");
    }

    #[test]
    fn tickets_resolve_even_when_coalesced() {
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        profile.s3.write_base = Duration::from_millis(50);
        let env = CloudEnv::new(&sim, profile);
        let client = ProvenanceClient::builder(Protocol::P1)
            .pipelined()
            .build(&env);
        let tickets: Vec<_> = (0..5u128)
            .map(|i| {
                client.flush_async(FlushBatch {
                    objects: vec![file_obj(40 + i, 1, &format!("t{i}"), "d")],
                })
            })
            .collect();
        for t in &tickets {
            t.wait().unwrap();
            assert!(t.is_done());
        }
        // Waiting twice is fine.
        tickets[0].wait().unwrap();
    }

    #[test]
    fn storage_accessor_bypasses_the_pipeline() {
        let (_sim, env, client) = setup(Protocol::P2);
        client
            .storage()
            .flush(FlushBatch {
                objects: vec![file_obj(6, 1, "direct", "x")],
            })
            .unwrap();
        assert!(env.s3().peek_committed("data", "direct").is_some());
    }
}
