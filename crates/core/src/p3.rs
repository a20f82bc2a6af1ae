//! Protocol P3: cloud store + cloud database + messaging service (§4.3.3).
//!
//! P3 is the paper's most robust protocol — the only one providing
//! (eventual) **provenance data-coupling**. The trick is a write-ahead log
//! kept *in the cloud*: an SQS queue. A crashed client's partially-logged
//! transaction is simply ignored; a completely-logged transaction can be
//! committed by *any* machine, so a crash between logging and committing
//! loses nothing (using a local log instead would).
//!
//! **Log phase** (client, on close/flush): store each file's data under a
//! temporary S3 name; chunk the provenance of the object *and all its
//! not-yet-written ancestors* into ≤8 KB WAL messages tagged with a
//! transaction id, sequence number and total ([`crate::wal`]); send them
//! (parallel sends are safe — ordering is reconstructed from sequence
//! numbers, which is how P3 keeps causal ordering without careful upload
//! ordering).
//!
//! **Commit phase** (commit daemon, asynchronous): assemble complete
//! transactions and commit them as a **group**. One poll round drains the
//! WAL (bounded receive rounds), and every transaction that became
//! complete commits together by running the [`STAGES`] table top to
//! bottom — copy ≺ db ≺ index ≺ gc ≺ ack, the order that carries the §3
//! invariants across the grouping. A member whose data never arrived is
//! evicted without blocking its peers.
//!
//! **Garbage collection**: SQS deletes messages after 4 days on its own;
//! a cleaner daemon reaps temporary objects older than 4 days that belong
//! to transactions that never completed.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cloudprov_cloud::{
    Actor, CloudEnv, CloudError, MetadataDirective, PutItem, TenantId, BATCH_ENTRY_LIMIT,
    BATCH_LIMIT, RECEIVE_MAX, SELECT_IN_LIMIT,
};
use cloudprov_pass::wire;
use cloudprov_pass::{PNodeId, ProvenanceRecord, Uuid};
use cloudprov_sim::{SimHandle, SimTime};
use cloudprov_trace::{SpanContext, Tracer, SCOPE_CLIENT, SCOPE_COMMIT_DAEMON};

use crate::cas::{self, CasFlushItem};
use crate::cleaner::CleanerDaemon;
use crate::error::{ProtocolError, Result};
use crate::feed::{extract_touches, CommitEventSink, FeedWriter, StagedTouches};
use crate::layout::{object_metadata, parse_object_metadata};
use crate::plane::{DataPlane, Task};
use crate::protocol::{
    db_version_records, records_to_item, retry, FlushBatch, ProtocolConfig, ProvenanceStore,
    ReadResult, StorageProtocol, RETRIES,
};
use crate::wal::{self, Header, Line};

/// Receive rounds one commit-daemon poll performs before committing what
/// assembled — the group-commit window. Bounded (rather than
/// drain-until-empty) so duplicate-delivery faults, which leave a
/// received message visible, cannot spin a poll forever; four rounds of
/// ten messages cover the deepest shard backlogs the fleet benchmark
/// produces while keeping one group's commit comfortably inside a
/// commit-lease TTL.
const GROUP_RECEIVE_ROUNDS: usize = 4;

/// Parallel connections the commit daemon opens inside one group commit:
/// the per-file S3 COPY fan-out, the temp-object GC delete fan-out and
/// the batched WAL-acknowledgement fan-out are all bounded by this
/// (SimpleDB chunk writes use `ProtocolConfig::db_concurrency`, matching
/// the far smaller 2009 database pools).
const COMMIT_PARALLELISM: usize = 16;

/// Cap on the per-client (txn, logged-at) samples kept for commit-
/// latency measurement.
const TXN_LOG_CAP: usize = 1 << 16;

/// Protocol P3: S3 + SimpleDB + SQS write-ahead log.
#[derive(Clone)]
pub struct P3 {
    plane: DataPlane,
    wal_url: String,
    rng: Arc<Mutex<SmallRng>>,
    /// (transaction id, WAL-durable instant) per completed log phase —
    /// the client-side half of the commit-latency measurement (capped
    /// at [`TXN_LOG_CAP`]). Shared across clones.
    logged: Arc<Mutex<Vec<(Uuid, SimTime)>>>,
}

impl std::fmt::Debug for P3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("P3").field("wal", &self.wal_url).finish()
    }
}

impl P3 {
    /// Creates the protocol; `queue_name` names this client's WAL queue
    /// (each client has its own, §4.3.3).
    pub fn new(env: &CloudEnv, config: ProtocolConfig, queue_name: &str) -> P3 {
        Self::with_identity(env, config, queue_name, queue_name)
    }

    /// Creates the protocol with an explicit client identity seeding the
    /// transaction-id generator. In the paper each client owns its queue,
    /// so the queue name doubles as the identity; a *sharded* fleet has
    /// many clients logging to one shard queue, and their id streams must
    /// not collide — interleaved WAL messages from two clients under one
    /// transaction id would reassemble into garbage.
    pub fn with_identity(
        env: &CloudEnv,
        config: ProtocolConfig,
        queue_name: &str,
        identity: &str,
    ) -> P3 {
        env.sdb().create_domain(&config.layout.domain);
        env.sdb()
            .create_domain(&crate::index::index_domain(&config.layout.domain));
        let wal_url = env.sqs().create_queue(queue_name);
        let seed = cloudprov_cloud::fnv1a64(identity.as_bytes());
        P3 {
            plane: DataPlane::new(env, config, Actor::Client),
            wal_url,
            rng: Arc::new(Mutex::new(SmallRng::seed_from_u64(seed))),
            logged: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Transactions this client has durably logged, with the virtual
    /// instant each log phase completed. Paired with a commit-side
    /// timestamp (see the fleet pool) this measures per-transaction
    /// commit latency: WAL-durable -> committed.
    pub fn logged_transactions(&self) -> Vec<(Uuid, SimTime)> {
        self.logged.lock().clone()
    }

    /// URL of this client's WAL queue.
    pub fn wal_url(&self) -> &str {
        &self.wal_url
    }

    /// Builds the commit daemon for this WAL (run it with
    /// [`CommitDaemon::spawn`] or drive it manually in tests).
    pub fn commit_daemon(&self) -> CommitDaemon {
        CommitDaemon::new(&self.plane.env, self.plane.config.clone(), &self.wal_url)
    }

    /// Builds the cleaner daemon reaping orphaned temp objects.
    pub fn cleaner_daemon(&self) -> CleanerDaemon {
        CleanerDaemon::new(&self.plane.env, self.plane.config.clone(), 1)
    }

    fn fresh_txn(&self) -> Uuid {
        Uuid(self.rng.lock().gen())
    }

    /// The **log phase** for a mixed batch of delta objects and
    /// content-addressed references ([`CasFlushItem`]) — the CAS-aware
    /// generalization `flush` delegates to with all-`Object` items.
    ///
    /// Delta objects upload payloads to temp keys and travel as `OBJ`
    /// lines; references travel as `CAS` lines carrying only a hash —
    /// their content was published to the shared store before this call
    /// (the flusher's [`CasStore::wait`](crate::CasStore::wait) barrier),
    /// so the WAL never references content that does not exist. Object
    /// lines are emitted in item order, preserving the closure's
    /// ancestors-first, newest-version-last discipline across both kinds
    /// for the daemon's last-for-key copy election.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors after retries; [`ProtocolError::Crashed`]
    /// when the crash hook fires.
    pub fn flush_with_cas(&self, items: Vec<CasFlushItem>) -> Result<()> {
        let DataPlane { env, config, .. } = &self.plane;
        let sim = env.sim();
        let txn = self.fresh_txn();

        // Trace: open this transaction's lifecycle root (trace id = txn
        // id) and a `flush` child covering the log phase. The guard's
        // scope makes every metered client op inside the fan-out a leaf
        // span, and the root context rides the WAL header to the daemon.
        let tracer = env.tracer();
        let tenant_tag = env.tenant().map(|t| t.0);
        let root = tracer.open_txn(txn.0, tenant_tag);
        let flush_guard = root.and_then(|r| {
            tracer.phase(
                txn.0,
                r.span,
                "flush",
                tenant_tag,
                Some((SCOPE_CLIENT, tenant_tag)),
                sim.now(),
            )
        });

        // Temp PUTs and WAL sends run in ONE task pool: temp keys are
        // known before the PUTs complete, and the paper's implementation
        // sends packets in parallel — safe because ordering is
        // reconstructed from sequence numbers and the commit daemon
        // retries until temp objects become visible.
        let mut tasks: Vec<Task> = Vec::new();
        let mut lines: Vec<String> = Vec::new();
        let mut records: Vec<ProvenanceRecord> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match item {
                CasFlushItem::Object(o) => {
                    if let (Some(key), Some(data)) = (&o.key, &o.data) {
                        let temp = config.layout.temp_key(txn, i);
                        let id = o.node.id;
                        lines.push(
                            Line::Obj {
                                temp: &temp,
                                key,
                                id,
                            }
                            .encode(),
                        );
                        tasks.push(self.plane.put_task("p3:temp:", temp, data.clone(), None));
                    }
                    records.extend(o.node.records.iter().cloned());
                }
                CasFlushItem::Ref(r) => lines.push(
                    Line::Cas {
                        sha: &r.sha,
                        key: r.key.as_deref(),
                        id: r.id,
                        has_data: r.has_data,
                    }
                    .encode(),
                ),
            }
        }
        let messages = wal::build_messages(
            txn,
            env.tenant(),
            root,
            lines,
            &records,
            config.wal_message_limit,
        );
        // WAL messages ride in SendMessageBatch calls of up to ten
        // bodies: one queue round trip (and one billed request) per
        // batch instead of one per message, with per-entry verdicts
        // keeping failures precise. The paper's 2009 tool predates
        // SendMessageBatch; the benchmark rigs reproducing its op counts
        // turn `wal_batch_send` off and get one send per message.
        let batched = config.wal_batch_send;
        let per_call = if batched { BATCH_ENTRY_LIMIT } else { 1 };
        for (i, chunk) in messages.chunks(per_call).enumerate() {
            let bodies: Vec<Bytes> = chunk.iter().map(|b| Bytes::from(b.clone())).collect();
            let this = self.clone();
            tasks.push(Box::new(move || {
                let DataPlane { env, config, .. } = &this.plane;
                config.step(&format!("p3:wal:{i}"))?;
                if batched {
                    for verdict in retry(env.sim(), || {
                        env.sqs().send_batch(&this.wal_url, bodies.clone())
                    })? {
                        verdict?;
                    }
                } else {
                    retry(env.sim(), || {
                        env.sqs().send(&this.wal_url, bodies[0].clone())
                    })?;
                }
                Ok(())
            }));
        }
        self.plane.upload(false, tasks)?;
        let now = sim.now();
        // WAL-durable: the root span's start instant. (On the error
        // path above the guard's drop still emitted the flush span, so
        // even a crashed log phase leaves a connected tree.)
        tracer.mark_logged(txn.0, now);
        if let Some(g) = flush_guard {
            g.finish(now);
        }
        let mut logged = self.logged.lock();
        if logged.len() < TXN_LOG_CAP {
            logged.push((txn, now));
        }
        Ok(())
    }
}

impl StorageProtocol for P3 {
    fn name(&self) -> &'static str {
        "P3"
    }

    /// The **log phase**. Returns once everything is durably in the WAL —
    /// the commit daemon finishes asynchronously, which is why P3's
    /// client-side elapsed times exclude it (§5).
    fn flush(&self, batch: FlushBatch) -> Result<()> {
        self.flush_with_cas(
            batch
                .objects
                .into_iter()
                .map(CasFlushItem::Object)
                .collect(),
        )
    }

    fn read(&self, key: &str) -> Result<ReadResult> {
        self.plane
            .read(key, |id| db_version_records(&self.plane, id))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.plane.delete(key)
    }

    fn stat(&self, key: &str) -> Result<Option<u64>> {
        self.plane.stat(key)
    }

    fn provenance_store(&self) -> Option<ProvenanceStore> {
        let config = &self.plane.config;
        Some(ProvenanceStore::Database {
            domain: config.layout.domain.clone(),
            spill_bucket: config.layout.prov_bucket.clone(),
            index_domain: Some(crate::index::index_domain(&config.layout.domain)),
        })
    }
}

/// The messages of one transaction received so far.
#[derive(Default)]
struct TxnBuf {
    total: usize,
    tenant: Option<TenantId>,
    ctx: Option<SpanContext>,
    parts: BTreeMap<usize, String>,
    receipts: Vec<String>,
}

/// One object a member moves into place: `from` (a temp key or a
/// published `cas/{sha}` object) is copied to the final key `to`,
/// stamped as version `id`.
#[derive(Clone)]
struct FileMove {
    from: String,
    to: String,
    id: PNodeId,
}

/// One reassembled, parsed member of a commit group.
struct Member {
    txn: Uuid,
    tenant: Option<TenantId>,
    /// The member's root span: the context its WAL header carried, or
    /// the shared tracer's record when the client ran in-process.
    root: Option<SpanContext>,
    files: Vec<FileMove>,
    records: Vec<ProvenanceRecord>,
    /// CAS hashes whose registry records this member still needs
    /// (referenced by a `CAS` line and not in this daemon's materialized
    /// cache).
    cas_shas: Vec<String>,
    receipts: Vec<String>,
    /// Evicted from the group (see [`PollOutcome::stalled`]): none of
    /// its state is written from here on.
    stalled: bool,
}

/// The state one group commit threads through the [`STAGES`].
struct Group {
    members: Vec<Member>,
    /// Members dropped at assembly because their record text failed to
    /// decode (counted as stalled in the outcome).
    poisoned: usize,
    /// The root that parents the phase spans; every other traced member
    /// gets the same spans mirrored under its own root, so every
    /// member's root-to-leaf walk is complete.
    lead: Option<SpanContext>,
    /// The db phase's packing of every survivor's items; the base and
    /// index stages each take their half.
    plan: GroupWritePlan,
    /// What the group's change-feed events will say (feed-enabled
    /// daemons only).
    touches: Vec<StagedTouches>,
}

impl Group {
    /// Reassembles each member in sequence order and parses it. A member
    /// whose record text fails to decode (corrupt or truncated body from
    /// a buggy client) is dropped like a stalled member, not an error:
    /// propagating would abort the whole group before any peer
    /// committed, and since the poison messages redeliver the shard
    /// would relive the same failure every poll until the 4-day
    /// retention.
    fn assemble(daemon: &CommitDaemon, group: Vec<(Uuid, TxnBuf)>, now: SimTime) -> Group {
        let tracer = daemon.conn.plane.env.tracer();
        let mut poisoned = 0;
        let mut members = Vec::with_capacity(group.len());
        for (txn, entry) in group {
            let mut files = Vec::new();
            let mut cas_shas = Vec::new();
            let mut record_text = String::new();
            let lines = entry.parts.values().flat_map(|body| body.lines());
            for line in lines.filter_map(Line::parse) {
                match line {
                    Line::Obj { temp, key, id } => files.push(FileMove {
                        from: temp.to_string(),
                        to: key.to_string(),
                        id,
                    }),
                    // The published `cas/{sha}` object joins the copy
                    // fan-out like a temp object (at its position in
                    // line order, preserving last-for-key election), and
                    // the hash's registry records join the member in the
                    // copy phase's first stage.
                    Line::Cas {
                        sha,
                        key,
                        id,
                        has_data,
                    } => {
                        if let Some(key) = key.filter(|_| has_data) {
                            files.push(FileMove {
                                from: cas::cas_object_key(sha),
                                to: key.to_string(),
                                id,
                            });
                        }
                        if !daemon.materialized.lock().contains(sha) {
                            cas_shas.push(sha.to_string());
                        }
                    }
                    Line::Record(r) => {
                        record_text.push_str(r);
                        record_text.push('\n');
                    }
                }
            }
            let Ok(records) = wire::decode(record_text.as_bytes()) else {
                poisoned += 1;
                continue;
            };
            let root = entry.ctx.or_else(|| tracer.root_ctx(txn.0));
            if let Some(c) = root {
                tracer.register_root(c, entry.tenant.map(|t| t.0));
                tracer.mark_group_start(c.trace, now);
            }
            members.push(Member {
                txn,
                tenant: entry.tenant,
                root,
                files,
                records,
                cas_shas,
                receipts: entry.receipts,
                stalled: false,
            });
        }
        Group {
            lead: members.iter().find_map(|m| m.root),
            members,
            poisoned,
            plan: GroupWritePlan::default(),
            touches: Vec::new(),
        }
    }

    /// The members still committing.
    fn survivors(&self) -> impl Iterator<Item = &Member> {
        self.members.iter().filter(|m| !m.stalled)
    }

    /// Mirrors one finished phase span onto every traced non-lead
    /// member's root (the lead's copy is emitted by its
    /// [`cloudprov_trace::PhaseGuard`]).
    fn mirror_phase(&self, tracer: &Tracer, kind: &'static str, start: SimTime, end: SimTime) {
        if !tracer.enabled() {
            return;
        }
        for m in &self.members {
            let Some(root) = m.root.filter(|r| Some(*r) != self.lead) else {
                continue;
            };
            let tenant = m.tenant.map(|t| t.0);
            tracer.span(
                root.trace,
                Some(root.span),
                kind,
                kind,
                tenant,
                start,
                end,
                0.0,
            );
        }
    }
}

/// What a fan-out task needs from its daemon.
struct Conn {
    /// The data plane, billed to [`Actor::CommitDaemon`].
    plane: DataPlane,
    wal_url: String,
}

/// Which of the daemon's connection pools bounds a stage's fan-out.
#[derive(Clone, Copy)]
enum Pool {
    /// [`COMMIT_PARALLELISM`]: S3 and SQS connections.
    Commit,
    /// `db_concurrency`: the far smaller 2009 database pools.
    Db,
}

/// What a stage does with the group: turn its state into units, hand
/// them to [`CommitDaemon::fan_out`], fold the results back.
type StageFn = fn(&CommitDaemon, &Stage, &mut Group) -> Result<()>;

/// One fan-out of the commit engine — a row of [`STAGES`].
/// [`CommitDaemon::fan_out`] owns its crash-point check, its pool bound
/// and its barrier.
struct Stage {
    /// The phase span this stage's time is billed to.
    span: &'static str,
    /// Crossed once per unit before its work starts; a name ending in
    /// `:` is completed by the unit's key. Empty: no step a daemon death
    /// is aimed at.
    crash_point: &'static str,
    pool: Pool,
    run: StageFn,
}

impl Stage {
    const fn new(span: &'static str, crash_point: &'static str, pool: Pool, run: StageFn) -> Stage {
        Stage {
            span,
            crash_point,
            pool,
            run,
        }
    }
}

/// The group-commit engine, as data. [`CommitDaemon::commit_group`] runs
/// the rows top to bottom, every stage behind the previous one's
/// barrier; consecutive rows of one span form a phase — a span on the
/// lead root, mirrored onto every traced member. Reordering or
/// pipelining the commit path is an edit of this table. The order
/// carries the §3 invariants across the grouping:
///
/// 1. **copy** — data commits strictly before provenance. A transaction
///    whose temp object never arrived (the client died after logging
///    the WAL but before its parallel temp PUT landed) is evicted HERE,
///    before any of its provenance exists anywhere — so a dead client
///    can never leave provenance describing data that does not exist
///    (§3's "old data based on new provenance" hazard). The short window
///    where data is visible without provenance is ordinary eventual
///    coupling and closes when the db phase lands (or on recommit). A
///    daemon that dies in that window AND whose WAL then expires
///    unrecovered leaves the data permanently ProvenanceMissing — the
///    *detectable* side of the tradeoff; the reverse order risked the
///    misleading side, permanent phantom provenance.
/// 2. **db** — every survivor's base provenance items.
/// 3. **index** — strictly after *every* base chunk: the ancestry index
///    never describes provenance that is not stored, for any member.
/// 4. **ack** — temp GC and change-feed staging, and only then the WAL
///    receipts: none is acknowledged before every chunk carrying one of
///    its transaction's items is durable.
///
/// A daemon crash anywhere in the group therefore leaves every member's
/// WAL unacknowledged, or some members fully acked and the rest
/// recommittable; every write before the ack is idempotent, so the
/// recommit converges.
const STAGES: &[Stage] = &[
    Stage::new("copy", "", Pool::Commit, materialize_cas),
    Stage::new("copy", "p3:commit:copy:", Pool::Commit, copy_into_place),
    Stage::new("db", "p3:commit:group:db", Pool::Db, write_base),
    Stage::new("index", "p3:commit:group:index", Pool::Db, write_index),
    Stage::new("ack", "p3:commit:group:gc", Pool::Commit, drop_temps),
    Stage::new("ack", "p3:commit:group:ack", Pool::Commit, feed_and_ack),
];

/// The crash points of the group-commit engine, in execution order —
/// what aimed chaos schedules take as input. A name ending in `:` is
/// keyed: the step a daemon crosses is the name plus the final key of
/// the object being copied.
pub fn commit_crash_points() -> Vec<&'static str> {
    let points = STAGES.iter().map(|s| s.crash_point);
    points.filter(|p| !p.is_empty()).collect()
}

/// The crash-point key of a unit that has none.
fn unkeyed<U>(_: &U) -> &str {
    ""
}

/// Copy phase, first stage: fetch every CAS hash the group references
/// from the shared registry — one `itemName() in (…)` SELECT per
/// [`SELECT_IN_LIMIT`] hashes, fanned out on the commit pool — and fold
/// each hash's records into the members that reference it. The registry
/// is eventually consistent and a publish lands strictly before its WAL
/// reference, so a short wait closes the common race: up to
/// `RETRIES + 8` rounds, one second apart, each selecting only the
/// hashes no earlier round saw. A hash never visible within the budget,
/// or whose item is malformed, stalls the members that reference it,
/// like a stalled copy.
fn materialize_cas(daemon: &CommitDaemon, stage: &Stage, g: &mut Group) -> Result<()> {
    let mut missing: BTreeSet<String> = g
        .members
        .iter()
        .flat_map(|m| m.cas_shas.iter().cloned())
        .collect();
    // Per hash: its records, or `None` for a malformed item.
    let mut fetched: BTreeMap<String, Option<Vec<ProvenanceRecord>>> = BTreeMap::new();
    for round in 0..RETRIES + 8 {
        if missing.is_empty() {
            break;
        }
        if round > 0 {
            daemon.conn.plane.env.sim().sleep(Duration::from_secs(1));
        }
        let shas: Vec<String> = missing.iter().cloned().collect();
        let units = shas.chunks(SELECT_IN_LIMIT).map(<[String]>::to_vec);
        for items in daemon.fan_out(stage, units.collect(), unkeyed, fetch_cas_records) {
            for (sha, records) in items? {
                missing.remove(&sha);
                fetched.insert(sha, records);
            }
        }
    }
    for m in &mut g.members {
        for sha in &m.cas_shas {
            match fetched.get(sha).and_then(Option::as_ref) {
                Some(records) => m.records.extend(records.iter().cloned()),
                None => m.stalled = true,
            }
        }
    }
    Ok(())
}

/// One registry SELECT of the hashes in `shas` (at most
/// [`SELECT_IN_LIMIT`]): each item found, with its decoded records, or
/// `None` for a malformed item. A hash not yet visible is simply absent.
fn fetch_cas_records(
    conn: &Conn,
    shas: Vec<String>,
) -> Result<Vec<(String, Option<Vec<ProvenanceRecord>>)>> {
    let DataPlane { env, config, .. } = &conn.plane;
    let sdb = env.sdb().with_actor(Actor::CommitDaemon);
    let registry = cas::cas_domain(&config.layout.domain);
    let query = cas::registry_select(&registry, "*", shas.iter().map(String::as_str));
    let items = retry(env.sim(), || sdb.select_all(&query))?;
    Ok(items
        .into_iter()
        .map(|item| {
            let records = cas::decode_registry_item(&item.attrs).map(|(_, _, _, r)| r);
            (item.name, records)
        })
        .collect())
}

/// Copy phase, second stage. Across group members, copies of one final
/// key are unordered — exactly as cross-transaction commit order always
/// was (SQS receives sample uniformly). Every interleaving is safe
/// because a copy moves data and version metadata atomically, so any
/// winner leaves a self-consistent, coupled object whose provenance the
/// later phases write.
///
/// A transaction's file list can name one final key twice: the closure
/// may carry a historic version of a file alongside the version being
/// closed, ancestors first. Copied in list order the LAST entry (the
/// newest version) would define the final (data, metadata) pair; with
/// copies fanned out in parallel that ordering would be lost — so only
/// each key's last entry is copied at all, which also saves the
/// transient COPY requests. The skipped entries' temp objects still
/// reach the GC stage.
fn copy_into_place(daemon: &CommitDaemon, stage: &Stage, g: &mut Group) -> Result<()> {
    let mut owners: Vec<usize> = Vec::new();
    let mut units: Vec<(Uuid, FileMove)> = Vec::new();
    for (mi, m) in g.members.iter().enumerate().filter(|(_, m)| !m.stalled) {
        let files = m.files.iter().enumerate();
        let last_for_key: BTreeMap<&str, usize> =
            files.clone().map(|(fi, f)| (f.to.as_str(), fi)).collect();
        for (_, f) in files.filter(|(fi, f)| last_for_key[f.to.as_str()] == *fi) {
            owners.push(mi);
            units.push((m.txn, f.clone()));
        }
    }
    let results = daemon.fan_out(stage, units, |(_, f)| f.to.as_str(), copy_file);
    for (mi, copied) in owners.into_iter().zip(results) {
        match copied {
            Ok(()) => {}
            // A stalled member must not block its group peers: evict
            // it and let redelivery/retention handle it.
            Err(ProtocolError::CommitStalled(_)) => g.members[mi].stalled = true,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// COPYs one object to its permanent name, stamping uuid+version
/// metadata (S3 has no rename, and §4.3.3 notes copies cost $0.01 per
/// thousand), with the stall-detection retry loop: a source that never
/// becomes copyable (and whose final key does not already carry this
/// version — another daemon may have committed it) makes the owning
/// transaction [`ProtocolError::CommitStalled`].
fn copy_file(conn: &Conn, (txn, file): (Uuid, FileMove)) -> Result<()> {
    let DataPlane { env, config, s3 } = &conn.plane;
    let sim = env.sim();
    let bucket = &config.layout.data_bucket;
    let FileMove { from, to, id } = &file;
    for _ in 0..RETRIES + 8 {
        match retry(sim, || {
            let meta = MetadataDirective::Replace(object_metadata(*id));
            s3.copy(bucket, from, bucket, to, meta)
        }) {
            Ok(()) => return Ok(()),
            Err(CloudError::NoSuchKey { .. }) => {
                // Either the temp PUT is not yet visible, or another
                // daemon already committed and deleted it.
                if let Ok(head) = s3.head(bucket, to) {
                    if parse_object_metadata(&head.meta) == Some(*id) {
                        return Ok(());
                    }
                }
                sim.sleep(Duration::from_secs(1));
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(ProtocolError::CommitStalled(format!(
        "temp object {from} for txn {txn} never became copyable"
    )))
}

/// Db phase: spill oversized values, pack every survivor's base items —
/// and the cross-transaction-merged index items — into full
/// `BatchPutAttributes` chunks ([`pack_group_writes`]), and write the
/// base half.
fn write_base(daemon: &CommitDaemon, stage: &Stage, g: &mut Group) -> Result<()> {
    let config = &daemon.conn.plane.config;
    let mut base_items: Vec<PutItem> = Vec::new();
    let mut index_items: Vec<PutItem> = Vec::new();
    for m in g.members.iter_mut().filter(|m| !m.stalled) {
        // The records are not needed after this phase: move them out
        // instead of cloning hundreds of strings per member.
        let records = std::mem::take(&mut m.records);
        if daemon.feed.is_some() {
            let (uuids, programs) = extract_touches(&records);
            g.touches.push(StagedTouches {
                txn: m.txn,
                tenant: m.tenant,
                uuids,
                programs,
            });
        }
        index_items.extend(crate::index::index_updates(&records));
        let mut by_subject: BTreeMap<PNodeId, Vec<ProvenanceRecord>> = BTreeMap::new();
        for r in records {
            by_subject.entry(r.subject).or_default().push(r);
        }
        for (id, recs) in &by_subject {
            base_items.push(records_to_item(&daemon.conn.plane, *id, recs)?);
        }
    }
    g.plan = pack_group_writes(
        base_items,
        crate::index::merge_index_items(index_items),
        config.db_batch.clamp(1, BATCH_LIMIT),
        config.db_concurrency.max(1),
    );
    let chunks = std::mem::take(&mut g.plan.base_chunks);
    daemon.write_chunks(stage, &config.layout.domain, chunks)
}

/// Index phase: the index half of the db phase's plan.
fn write_index(daemon: &CommitDaemon, stage: &Stage, g: &mut Group) -> Result<()> {
    let domain = crate::index::index_domain(&daemon.conn.plane.config.layout.domain);
    let chunks = std::mem::take(&mut g.plan.index_chunks);
    daemon.write_chunks(stage, &domain, chunks)
}

/// Writes one `BatchPutAttributes` chunk.
fn put_chunk(conn: &Conn, (domain, chunk): (String, Vec<PutItem>)) -> Result<()> {
    let DataPlane { env, .. } = &conn.plane;
    let sdb = env.sdb().with_actor(Actor::CommitDaemon);
    retry(env.sim(), || {
        sdb.batch_put_attributes(&domain, chunk.clone())
    })?;
    Ok(())
}

/// Ack phase, first stage: delete the survivors' temp objects (S3 has
/// no batch delete in 2009, so the amortization is the parallel
/// fan-out). A `cas/…` source is shared, fleet-wide published content —
/// other transactions (on other shards, later) reference the same hash
/// — and is never GC'd here.
fn drop_temps(daemon: &CommitDaemon, stage: &Stage, g: &mut Group) -> Result<()> {
    let temp_prefix = &daemon.conn.plane.config.layout.temp_prefix;
    let files = g.survivors().flat_map(|m| &m.files);
    let temps = files.filter(|f| f.from.starts_with(temp_prefix));
    let units: Vec<String> = temps.map(|f| f.from.clone()).collect();
    let drop_temp = |conn: &Conn, temp: String| conn.plane.delete(&temp);
    let results = daemon.fan_out(stage, units, unkeyed, drop_temp);
    results.into_iter().collect()
}

/// Ack phase, second stage: durably stage the group's change-feed
/// events — strictly BEFORE any receipt acknowledges (crash point
/// `p3:notify:stage`): a crash there leaves the WAL unacked, the group
/// recommits and restages under fresh sequence numbers, so a consumer
/// can see a transaction's event twice but never miss it — then
/// acknowledge the survivors' WAL receipts in `DeleteMessageBatch`
/// calls. Lenient: a failed acknowledgement redelivers and is dropped
/// as an already-committed transaction on a later poll.
fn feed_and_ack(daemon: &CommitDaemon, stage: &Stage, g: &mut Group) -> Result<()> {
    if let Some(w) = &daemon.feed {
        w.stage(&g.touches)?;
    }
    let receipts: Vec<String> = g
        .survivors()
        .flat_map(|m| m.receipts.iter().cloned())
        .collect();
    let units: Vec<Vec<String>> = receipts
        .chunks(BATCH_ENTRY_LIMIT)
        .map(<[String]>::to_vec)
        .collect();
    let ack = |conn: &Conn, receipts: Vec<String>| {
        let DataPlane { env, .. } = &conn.plane;
        let sqs = env.sqs().with_actor(Actor::CommitDaemon);
        let _ = retry(env.sim(), || sqs.delete_batch(&conn.wal_url, &receipts));
        Ok(())
    };
    let results = daemon.fan_out(stage, units, unkeyed, ack);
    results.into_iter().collect()
}

/// The two write phases of one group commit, in execution order: every
/// `base` chunk lands (with a barrier) before any `index` chunk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupWritePlan {
    /// Chunks of base provenance items, each within the service's batch
    /// limit.
    pub base_chunks: Vec<Vec<PutItem>>,
    /// Chunks of ancestry-index items, written strictly after every base
    /// chunk.
    pub index_chunks: Vec<Vec<PutItem>>,
}

impl GroupWritePlan {
    /// Total items across both phases.
    pub fn items(&self) -> usize {
        self.base_chunks.iter().map(Vec::len).sum::<usize>()
            + self.index_chunks.iter().map(Vec::len).sum::<usize>()
    }
}

/// Packs a commit group's writes into `BatchPutAttributes` chunks.
///
/// Pure function — the packing invariants the property tests pin down:
///
/// * no chunk exceeds `batch_limit` (the service's 25-item cap);
/// * item order is preserved within each phase, and **every** base chunk
///   precedes **every** index chunk in the plan, so no transaction's
///   index items can ever write ahead of its base items no matter how
///   transactions were mixed;
/// * no item is dropped or duplicated.
///
/// Under load the chunks are full (the minimum count the limit allows);
/// a light group instead splits evenly across up to `parallelism`
/// non-empty chunks, so the per-item-dominated database time shrinks by
/// the connection fan-out rather than serializing behind one call.
pub fn pack_group_writes(
    base: Vec<PutItem>,
    index: Vec<PutItem>,
    batch_limit: usize,
    parallelism: usize,
) -> GroupWritePlan {
    GroupWritePlan {
        base_chunks: pack_items(base, batch_limit, parallelism),
        index_chunks: pack_items(index, batch_limit, parallelism),
    }
}

fn pack_items(items: Vec<PutItem>, batch_limit: usize, parallelism: usize) -> Vec<Vec<PutItem>> {
    let limit = batch_limit.max(1);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let chunks = n.div_ceil(limit).max(parallelism.max(1).min(n));
    let per = n.div_ceil(chunks);
    let mut out = Vec::with_capacity(chunks);
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<PutItem> = it.by_ref().take(per).collect();
        if chunk.is_empty() {
            break;
        }
        out.push(chunk);
    }
    out
}

/// Outcome of one commit-daemon poll.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PollOutcome {
    /// WAL messages received this poll (all receive rounds).
    pub messages: usize,
    /// Transactions committed this poll (as one group).
    pub committed: usize,
    /// Transactions evicted from the group instead of committed: a
    /// referenced temp object never became copyable (e.g. the client
    /// died after logging the WAL but before its temp PUT landed), or
    /// the assembled record text failed to decode (a poisoned body).
    /// Never fatal — the evicted members' messages redeliver after the
    /// visibility timeout and ultimately expire with SQS retention,
    /// which is the paper's garbage-collection story for dead clients.
    pub stalled: usize,
    /// Messages this poll discarded through the batched delete path:
    /// garbage bodies and late redeliveries of already-committed
    /// transactions. Surfaced (rather than silently dropped) so
    /// operators can see redelivery churn; an entry that fails to delete
    /// is *not* counted and simply redelivers.
    pub dropped: usize,
}

/// Callback invoked (with the transaction id) each time a daemon commits
/// a transaction. The fleet's daemon pool uses it as a cross-daemon
/// double-commit detector.
pub type CommitListener = Arc<dyn Fn(Uuid) + Send + Sync>;

/// The asynchronous commit daemon (§4.3.3 commit phase).
pub struct CommitDaemon {
    conn: Arc<Conn>,
    buf: Mutex<BTreeMap<Uuid, TxnBuf>>,
    committed: Mutex<BTreeSet<Uuid>>,
    /// When each transaction's first WAL message reached this daemon —
    /// the pickup instant. `committed_at - pickup` is service time; the
    /// client-side `pickup - logged_at` dwell is the component push
    /// delivery exists to eliminate, and the fleet bench gates it.
    first_seen: Mutex<BTreeMap<Uuid, SimTime>>,
    committed_count: AtomicU64,
    listener: Mutex<Option<CommitListener>>,
    /// CAS hashes whose registry records this daemon has already written
    /// through a committed group — their refetch is skipped (the records
    /// are durable in the provenance domain; SimpleDB deduplicates the
    /// identical re-put a cache-cold daemon performs). Data copies are
    /// NEVER skipped on cache grounds: a client may delete a final key
    /// and re-flush identical content, and the re-copy is what restores
    /// the object.
    materialized: Mutex<BTreeSet<String>>,
    /// Change-feed staging for this WAL stream; `Some` iff `config.feed`.
    feed: Option<FeedWriter>,
    /// Where published [`CommitEvent`]s go. Installing none is fine —
    /// events still stage and the watermark still advances, so a sink
    /// attached later (or on a takeover daemon) starts from a clean edge.
    sink: Mutex<Option<CommitEventSink>>,
}

impl std::fmt::Debug for CommitDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitDaemon")
            .field("wal", &self.conn.wal_url)
            .field("committed", &self.committed_count.load(Ordering::Relaxed))
            .finish()
    }
}

impl CommitDaemon {
    /// Creates a daemon reading `wal_url`. Any machine can run one — that
    /// is the crash-tolerance argument for putting the WAL in SQS rather
    /// than on the client's disk.
    pub fn new(env: &CloudEnv, config: ProtocolConfig, wal_url: &str) -> CommitDaemon {
        // A daemon can run on a machine that never constructed a `P3`
        // (the WAL-in-the-cloud recovery story), so it provisions the
        // index domain itself. Idempotent, unmetered administrative call.
        env.sdb()
            .create_domain(&crate::index::index_domain(&config.layout.domain));
        // The feed stream is named by the WAL queue: one ordered event
        // stream per shard, surviving daemon identity changes.
        let stream = wal_url.rsplit('/').next().unwrap_or(wal_url).to_string();
        let feed = config
            .feed
            .then(|| FeedWriter::new(env, config.clone(), &stream));
        CommitDaemon {
            conn: Arc::new(Conn {
                plane: DataPlane::new(env, config, Actor::CommitDaemon),
                wal_url: wal_url.to_string(),
            }),
            buf: Mutex::new(BTreeMap::new()),
            committed: Mutex::new(BTreeSet::new()),
            materialized: Mutex::new(BTreeSet::new()),
            first_seen: Mutex::new(BTreeMap::new()),
            committed_count: AtomicU64::new(0),
            listener: Mutex::new(None),
            feed,
            sink: Mutex::new(None),
        }
    }

    /// Installs a callback fired on every committed transaction.
    pub fn set_commit_listener(&self, listener: CommitListener) {
        *self.listener.lock() = Some(listener);
    }

    /// Installs the change-feed sink receiving every published
    /// [`CommitEvent`](crate::CommitEvent). No-op unless the config
    /// enables the feed.
    pub fn set_event_sink(&self, sink: CommitEventSink) {
        *self.sink.lock() = Some(sink);
    }

    /// Publishes any staged-but-unpublished feed events (this daemon's or
    /// a crashed predecessor's) to the installed sink. Called from every
    /// poll so a takeover daemon drains its predecessor's backlog even
    /// when no new traffic arrives. Returns how many events published.
    pub fn flush_feed(&self) -> Result<usize> {
        match &self.feed {
            Some(w) => w.flush(self.sink.lock().clone().as_ref()),
            None => Ok(0),
        }
    }

    /// Transactions committed over this daemon's lifetime.
    pub fn committed_transactions(&self) -> u64 {
        self.committed_count.load(Ordering::Relaxed)
    }

    /// When `txn`'s first WAL message reached this daemon, if one has.
    pub fn pickup_time(&self, txn: Uuid) -> Option<SimTime> {
        self.first_seen.lock().get(&txn).copied()
    }

    /// When each transaction's first WAL message reached this daemon
    /// (assembly may still be in flight). Joined against client logged-at
    /// instants, this is the WAL-durable -> pickup dwell — the waiting
    /// component of commit latency, as opposed to the commit's own
    /// service time.
    pub fn pickup_times(&self) -> Vec<(Uuid, SimTime)> {
        self.first_seen
            .lock()
            .iter()
            .map(|(txn, at)| (*txn, *at))
            .collect()
    }

    /// One **group-commit round**: drains up to four receives
    /// (`GROUP_RECEIVE_ROUNDS`) from the WAL, discards garbage and late
    /// redeliveries through the batched delete path, and commits every
    /// transaction that became complete as one group (`commit_group`).
    ///
    /// # Errors
    ///
    /// Propagates cloud errors that survive retries. Incomplete
    /// transactions are never an error — they are ignored until their
    /// messages expire (crashed clients, §4.3.3).
    pub fn poll_once(&self) -> Result<PollOutcome> {
        let DataPlane { env, config, .. } = &self.conn.plane;
        config.step("p3:commit:poll")?;
        let sqs = env.sqs().with_actor(Actor::CommitDaemon);
        let mut outcome = PollOutcome::default();
        let mut ready: Vec<Uuid> = Vec::new();
        let mut drops: Vec<String> = Vec::new();
        for _ in 0..GROUP_RECEIVE_ROUNDS {
            let msgs = retry(env.sim(), || sqs.receive(&self.conn.wal_url, RECEIVE_MAX))?;
            if msgs.is_empty() {
                break;
            }
            outcome.messages += msgs.len();
            let mut buf = self.buf.lock();
            for m in msgs {
                let body = String::from_utf8_lossy(&m.body);
                let Some((header, rest)) = Header::parse(&body) else {
                    // Garbage message: queue it for the batched drop.
                    drops.push(m.receipt);
                    continue;
                };
                let txn = header.txn;
                if self.committed.lock().contains(&txn) {
                    // Late redelivery of an already-committed transaction.
                    drops.push(m.receipt);
                    continue;
                }
                let entry = buf.entry(txn).or_insert_with(|| {
                    let now = env.sim().now();
                    self.first_seen.lock().entry(txn).or_insert(now);
                    // Trace: pickup instant (first mark wins across
                    // daemons).
                    env.tracer().mark_pickup(txn.0, now);
                    TxnBuf::default()
                });
                entry.total = header.total;
                entry.tenant = entry.tenant.or(header.tenant);
                entry.ctx = entry.ctx.or(header.ctx);
                entry.parts.insert(header.seq, rest.to_string());
                entry.receipts.push(m.receipt);
                if entry.parts.len() == entry.total && !ready.contains(&txn) {
                    ready.push(txn);
                }
            }
        }
        // Cleanup is metered and error-checked like any other daemon
        // traffic: whole-call failures (after retries) surface instead of
        // being discarded, per-entry failures just redeliver.
        for chunk in drops.chunks(BATCH_ENTRY_LIMIT) {
            let results = retry(env.sim(), || sqs.delete_batch(&self.conn.wal_url, chunk))?;
            outcome.dropped += results.iter().filter(|r| r.is_ok()).count();
        }
        let group: Vec<(Uuid, TxnBuf)> = {
            let mut buf = self.buf.lock();
            ready
                .into_iter()
                .filter_map(|txn| buf.remove(&txn).map(|entry| (txn, entry)))
                .collect()
        };
        (outcome.committed, outcome.stalled) = self.commit_group(group)?;
        // Drain any feed backlog a crashed predecessor staged but never
        // published — even on idle polls, so failover delivery does not
        // wait for new traffic.
        self.flush_feed()?;
        Ok(outcome)
    }

    /// Commits a group of fully-assembled transactions by running the
    /// [`STAGES`] table: per phase, a span on the lead root opens, the
    /// phase's stages run in order (each a barrier), the span closes and
    /// is mirrored onto every other traced member. An error — a cloud
    /// failure or a crash point firing — aborts the group where it
    /// stands, with no receipt of an unfinished member acknowledged.
    /// Returns how many members (committed, were evicted).
    fn commit_group(&self, group: Vec<(Uuid, TxnBuf)>) -> Result<(usize, usize)> {
        if group.is_empty() {
            return Ok((0, 0));
        }
        let sim = self.conn.plane.env.sim();
        let tracer = self.conn.plane.env.tracer();
        let mut at = sim.now();
        let mut g = Group::assemble(self, group, at);
        for phase in STAGES.chunk_by(|a, b| a.span == b.span) {
            let span = phase[0].span;
            // The span's scope parents the daemon's metered ops. Dropped
            // unfinished on an error path, it still closes the tree.
            let guard = g.lead.and_then(|l| {
                let scope = Some((SCOPE_COMMIT_DAEMON, None));
                tracer.phase(l.trace, l.span, span, None, scope, at)
            });
            let evicted_before: Vec<bool> = g.members.iter().map(|m| m.stalled).collect();
            for stage in phase {
                (stage.run)(self, stage, &mut g)?;
            }
            let end = sim.now();
            if let Some(guard) = guard {
                guard.finish(end);
            }
            g.mirror_phase(tracer, span, at, end);
            for (m, was) in g.members.iter().zip(evicted_before) {
                if let Some(root) = m.root.filter(|_| m.stalled && !was) {
                    // Evicted members' roots never close; annotate so the
                    // open trace explains itself.
                    tracer.event(root, "evicted", end);
                }
            }
            at = end;
        }
        // Committed instant. Nothing below advances the virtual clock
        // before the commit listener observes the group, so closing each
        // survivor's root HERE makes root duration exactly equal the
        // measured WAL-durable -> committed latency.
        for root in g.survivors().filter_map(|m| m.root) {
            tracer.close_txn(root.trace, at);
        }
        self.committed.lock().extend(g.survivors().map(|m| m.txn));
        // Survivors' CAS records are durable in the provenance domain
        // now — this daemon need not refetch those hashes.
        self.materialized
            .lock()
            .extend(g.survivors().flat_map(|m| m.cas_shas.iter().cloned()));
        let committed = g.survivors().count();
        self.committed_count
            .fetch_add(committed as u64, Ordering::Relaxed);
        if let Some(l) = self.listener.lock().clone() {
            g.survivors().for_each(|m| l(m.txn));
        }
        // Publish the staged events to the sink and advance the
        // watermark — strictly AFTER the group ack (`p3:notify:publish`,
        // `p3:notify:wm`). A crash in here republishes on the next poll.
        self.flush_feed()?;
        Ok((committed, g.members.len() - committed + g.poisoned))
    }

    /// The runner's fan-out: one task per unit over the stage's
    /// connection pool, each crossing the stage's crash point (completed
    /// by the unit's `key`) before its `work`. Returns — results in unit
    /// order — only when every task has finished: the barrier between
    /// stages.
    fn fan_out<U: Send + 'static, T: Send + 'static>(
        &self,
        stage: &Stage,
        units: Vec<U>,
        key: fn(&U) -> &str,
        work: fn(&Conn, U) -> Result<T>,
    ) -> Vec<Result<T>> {
        let conn = self.conn.clone();
        let crash_point = stage.crash_point;
        let tasks: Vec<_> = units
            .into_iter()
            .map(|unit| {
                let conn = conn.clone();
                move || {
                    if !crash_point.is_empty() {
                        let step = match key(&unit) {
                            "" => Cow::Borrowed(crash_point),
                            key => Cow::Owned([crash_point, key].concat()),
                        };
                        conn.plane.config.step(&step)?;
                    }
                    work(&conn, unit)
                }
            })
            .collect();
        let width = match stage.pool {
            Pool::Commit => COMMIT_PARALLELISM,
            Pool::Db => self.conn.plane.config.db_concurrency.max(1),
        };
        self.conn.plane.env.sim().run_parallel(width, tasks)
    }

    /// Writes one stage's chunks to `domain`; no chunks, no round.
    fn write_chunks(&self, stage: &Stage, domain: &str, chunks: Vec<Vec<PutItem>>) -> Result<()> {
        if chunks.is_empty() {
            return Ok(());
        }
        let units = chunks.into_iter().map(|c| (domain.to_string(), c));
        let results = self.fan_out(stage, units.collect(), unkeyed, put_chunk);
        results.into_iter().collect()
    }

    /// Polls until a round yields no messages. Useful for deterministic
    /// tests and for benchmarks that want the daemon cost measured.
    pub fn run_until_idle(&self) -> Result<u64> {
        let mut committed = 0;
        loop {
            let o = self.poll_once()?;
            committed += o.committed as u64;
            if o.messages == 0 {
                return Ok(committed);
            }
        }
    }

    /// Runs the daemon on a background simulated thread until stopped.
    pub fn spawn(self: Arc<Self>, poll_interval: Duration) -> DaemonHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let sim = self.conn.plane.env.sim().clone();
        let handle = sim.clone().spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match self.poll_once() {
                    Ok(o) if o.messages == 0 => sim.sleep(poll_interval),
                    Ok(_) => {}
                    Err(_) => sim.sleep(poll_interval),
                }
            }
        });
        DaemonHandle { stop, handle }
    }
}

/// Handle to a running background daemon.
#[derive(Debug)]
pub struct DaemonHandle {
    stop: Arc<AtomicBool>,
    handle: SimHandle<()>,
}

impl DaemonHandle {
    /// Signals the daemon and waits (in virtual time) for it to exit.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::{AwsProfile, Blob, Op, Service, MESSAGE_LIMIT};
    use cloudprov_pass::{Attr, FlushNode, NodeKind};
    use cloudprov_sim::Sim;

    use crate::protocol::{CouplingCheck, FlushObject};

    fn setup() -> (Sim, CloudEnv, P3) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p3 = P3::new(&env, ProtocolConfig::default(), "wal-client1");
        (sim, env, p3)
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
                name: Some(key.to_string()),
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
    fn log_phase_leaves_data_in_temp_until_commit() {
        let (_sim, env, p3) = setup();
        p3.flush(FlushBatch {
            objects: vec![file_obj(1, 1, "out", "payload")],
        })
        .unwrap();
        // Before the daemon runs: temp object exists, final does not.
        assert!(env.s3().peek_count("data", "tmp/") > 0);
        assert!(env.s3().peek_committed("data", "out").is_none());
        assert!(env.sqs().peek_depth(p3.wal_url()) > 0);

        let daemon = p3.commit_daemon();
        let committed = daemon.run_until_idle().unwrap();
        assert_eq!(committed, 1);
        // After commit: final object exists with metadata, temp gone, WAL empty.
        let final_obj = env.s3().peek_committed("data", "out").unwrap();
        assert_eq!(final_obj.blob, Blob::from("payload"));
        assert_eq!(env.s3().peek_count("data", "tmp/"), 0);
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
        // And provenance is in SimpleDB.
        assert!(env
            .sdb()
            .peek_item(
                "provenance",
                &PNodeId {
                    uuid: Uuid(1),
                    version: 1
                }
                .to_string()
            )
            .is_some());
    }

    #[test]
    fn read_after_commit_is_coupled() {
        let (_sim, _env, p3) = setup();
        p3.flush(FlushBatch {
            objects: vec![file_obj(2, 1, "out", "data!")],
        })
        .unwrap();
        p3.commit_daemon().run_until_idle().unwrap();
        let r = p3.read("out").unwrap();
        assert_eq!(r.coupling, CouplingCheck::Coupled);
        assert_eq!(r.data, Blob::from("data!"));
    }

    #[test]
    fn incomplete_transaction_is_ignored() {
        // Client crashes after sending only some WAL packets: the daemon
        // must never commit the partial transaction (§4.3.3).
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        // Enough records that the WAL needs >1 *batch* of messages
        // (batches carry up to ten 8 KB messages); crash on batch 1.
        let cfg = ProtocolConfig {
            step_hook: Some(Arc::new(|step: &str| step != "p3:wal:1")),
            ..ProtocolConfig::default()
        };
        let p3 = P3::new(&env, cfg, "wal");
        let id = PNodeId::initial(Uuid(3));
        let records: Vec<_> = (0..2500)
            .map(|i| ProvenanceRecord::new(id, Attr::Custom(format!("a{i}")), "v".repeat(40)))
            .collect();
        let obj = FlushObject::file(
            FlushNode {
                id,
                kind: NodeKind::File,
                name: Some("big".into()),
                records,
                data_hash: Some(1),
            },
            "big",
            Blob::from("x"),
        );
        let err = p3.flush(FlushBatch { objects: vec![obj] }).unwrap_err();
        assert!(matches!(err, ProtocolError::Crashed { .. }));

        let daemon = p3.commit_daemon();
        daemon.run_until_idle().unwrap();
        assert_eq!(daemon.committed_transactions(), 0);
        assert!(env.s3().peek_committed("data", "big").is_none());
        assert_eq!(env.sdb().peek_item_count("provenance"), 0);
    }

    #[test]
    fn another_machine_can_commit_after_client_logged_everything() {
        // The WAL-in-the-cloud argument: client finishes the log phase and
        // dies; a daemon on a DIFFERENT machine commits the transaction.
        let (_sim, env, p3) = setup();
        p3.flush(FlushBatch {
            objects: vec![file_obj(4, 1, "out", "survives")],
        })
        .unwrap();
        drop(p3); // client is gone
        let other_machine = CommitDaemon::new(&env, ProtocolConfig::default(), "sqs://wal-client1");
        let committed = other_machine.run_until_idle().unwrap();
        assert_eq!(committed, 1);
        assert_eq!(
            env.s3().peek_committed("data", "out").unwrap().blob,
            Blob::from("survives")
        );
    }

    #[test]
    fn multi_message_transactions_reassemble() {
        let (_sim, env, p3) = setup();
        let id = PNodeId::initial(Uuid(5));
        // 240 records of ~140 bytes: several 8 KB messages, but within
        // SimpleDB's 256-attributes-per-item limit.
        let records: Vec<_> = (0..240)
            .map(|i| ProvenanceRecord::new(id, Attr::Custom(format!("k{i}")), "v".repeat(100)))
            .collect();
        let n_records = records.len();
        let obj = FlushObject::file(
            FlushNode {
                id,
                kind: NodeKind::File,
                name: Some("big".into()),
                records,
                data_hash: Some(2),
            },
            "big",
            Blob::from("content"),
        );
        p3.flush(FlushBatch { objects: vec![obj] }).unwrap();
        assert!(
            env.sqs().peek_depth(p3.wal_url()) > 3,
            "expected several 8KB chunks"
        );
        p3.commit_daemon().run_until_idle().unwrap();
        let item = env.sdb().peek_item("provenance", &id.to_string()).unwrap();
        assert_eq!(item.len(), n_records);
    }

    #[test]
    fn ancestors_ride_in_the_same_transaction() {
        // "We include all not-yet-written ancestors of an object in the
        // object's transaction" — so causal ordering holds even with
        // parallel sends.
        let (_sim, env, p3) = setup();
        let proc_id = PNodeId::initial(Uuid(6));
        let proc = FlushObject::provenance_only(FlushNode {
            id: proc_id,
            kind: NodeKind::Process,
            name: Some("gen".into()),
            records: vec![
                ProvenanceRecord::new(proc_id, Attr::Type, "process"),
                ProvenanceRecord::new(proc_id, Attr::Name, "gen"),
            ],
            data_hash: None,
        });
        let mut file = file_obj(7, 1, "out", "x");
        file.node
            .records
            .push(ProvenanceRecord::new(file.node.id, Attr::Input, proc_id));
        p3.flush(FlushBatch {
            objects: vec![proc, file],
        })
        .unwrap();
        p3.commit_daemon().run_until_idle().unwrap();
        // Both the process and the file item exist; no dangling input.
        assert!(env
            .sdb()
            .peek_item("provenance", &proc_id.to_string())
            .is_some());
        let file_item = env
            .sdb()
            .peek_item("provenance", &format!("{}_1", Uuid(7)))
            .unwrap();
        assert!(file_item
            .iter()
            .any(|(k, v)| k == "input" && *v == proc_id.to_string()));
    }

    #[test]
    fn duplicate_deliveries_commit_once() {
        let (_sim, env, p3) = setup();
        env.faults().set(cloudprov_cloud::FaultPlan {
            sqs_duplicate_probability: 0.5,
            ..cloudprov_cloud::FaultPlan::none()
        });
        p3.flush(FlushBatch {
            objects: vec![file_obj(8, 1, "out", "once")],
        })
        .unwrap();
        let daemon = p3.commit_daemon();
        // Poll repeatedly; duplicates must not double-commit.
        for _ in 0..20 {
            daemon.poll_once().unwrap();
        }
        env.faults().clear();
        daemon.run_until_idle().unwrap();
        assert_eq!(daemon.committed_transactions(), 1);
        assert_eq!(
            env.s3().peek_committed("data", "out").unwrap().blob,
            Blob::from("once")
        );
    }

    #[test]
    fn commit_maintains_the_ancestry_index() {
        let (_sim, env, p3) = setup();
        let proc_id = PNodeId::initial(Uuid(30));
        let proc = FlushObject::provenance_only(FlushNode {
            id: proc_id,
            kind: NodeKind::Process,
            name: Some("gen".into()),
            records: vec![
                ProvenanceRecord::new(proc_id, Attr::Type, "process"),
                ProvenanceRecord::new(proc_id, Attr::Name, "gen"),
            ],
            data_hash: None,
        });
        let mut file = file_obj(31, 1, "out", "x");
        file.node
            .records
            .push(ProvenanceRecord::new(file.node.id, Attr::Input, proc_id));
        p3.flush(FlushBatch {
            objects: vec![proc, file],
        })
        .unwrap();
        p3.commit_daemon().run_until_idle().unwrap();
        let audit = crate::index::audit_index(&env, &crate::Layout::default());
        assert!(audit.consistent(), "{audit:?}");
        assert!(audit.entries >= 2, "rev edge + program seed expected");
    }

    #[test]
    fn crash_between_base_and_index_write_heals_on_recommit() {
        // The p3:commit:group:index crash point: base records land, the
        // index write dies, the WAL stays unacknowledged. A fresh
        // daemon's recommit must leave base and index consistent (both
        // writes are idempotent).
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let cfg = ProtocolConfig {
            step_hook: Some(Arc::new(|step: &str| step != "p3:commit:group:index")),
            ..ProtocolConfig::default()
        };
        let p3 = P3::new(&env, cfg, "wal-idx");
        let proc_id = PNodeId::initial(Uuid(40));
        let proc = FlushObject::provenance_only(FlushNode {
            id: proc_id,
            kind: NodeKind::Process,
            name: Some("gen".into()),
            records: vec![
                ProvenanceRecord::new(proc_id, Attr::Type, "process"),
                ProvenanceRecord::new(proc_id, Attr::Name, "gen"),
            ],
            data_hash: None,
        });
        let mut file = file_obj(41, 1, "out", "x");
        file.node
            .records
            .push(ProvenanceRecord::new(file.node.id, Attr::Input, proc_id));
        p3.flush(FlushBatch {
            objects: vec![proc, file],
        })
        .unwrap();
        let dying = p3.commit_daemon();
        let err = dying.run_until_idle().unwrap_err();
        assert!(matches!(err, ProtocolError::Crashed { .. }));
        // Base records committed, index did not: temporarily divergent.
        assert!(env.sdb().peek_item_count("provenance") > 0);
        let mid = crate::index::audit_index(&env, &crate::Layout::default());
        assert!(!mid.consistent(), "crash must leave the gap this models");
        // WAL unacknowledged: a recovery daemon redelivers and recommits.
        sim.sleep(cloudprov_cloud::DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));
        let recovery = CommitDaemon::new(&env, ProtocolConfig::default(), "sqs://wal-idx");
        recovery.run_until_idle().unwrap();
        let audit = crate::index::audit_index(&env, &crate::Layout::default());
        assert!(audit.consistent(), "{audit:?}");
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
    }

    #[test]
    fn cleaner_reaps_only_expired_orphans() {
        let (sim, env, p3) = setup();
        // Orphan a temp object by crashing before any WAL send.
        let cfg = ProtocolConfig {
            step_hook: Some(Arc::new(|step: &str| !step.starts_with("p3:wal:"))),
            ..ProtocolConfig::default()
        };
        let crasher = P3::new(&env, cfg, "wal-crasher");
        let _ = crasher.flush(FlushBatch {
            objects: vec![file_obj(9, 1, "orphaned", "lost")],
        });
        assert_eq!(env.s3().peek_count("data", "tmp/"), 1);

        let cleaner = p3.cleaner_daemon();
        // Too young: nothing reclaimed.
        assert_eq!(cleaner.sweep_once().unwrap(), 0);
        // After 4 days it goes.
        sim.sleep(Duration::from_secs(4 * 24 * 3600 + 60));
        assert_eq!(cleaner.sweep_once().unwrap(), 1);
        assert_eq!(env.s3().peek_count("data", "tmp/"), 0);
    }

    #[test]
    fn background_daemon_commits_while_client_works() {
        let (sim, env, p3) = setup();
        let daemon = Arc::new(p3.commit_daemon());
        let handle = daemon.clone().spawn(Duration::from_secs(5));
        for i in 0..5u128 {
            p3.flush(FlushBatch {
                objects: vec![file_obj(20 + i, 1, &format!("f{i}"), "d")],
            })
            .unwrap();
        }
        // Give the daemon virtual time to drain.
        sim.sleep(Duration::from_secs(120));
        handle.stop();
        assert_eq!(daemon.committed_transactions(), 5);
        for i in 0..5 {
            assert!(env.s3().peek_committed("data", &format!("f{i}")).is_some());
        }
    }

    #[test]
    fn wal_messages_respect_sqs_limit() {
        let id = PNodeId::initial(Uuid(11));
        let records: Vec<_> = (0..2000)
            .map(|i| ProvenanceRecord::new(id, Attr::Custom(format!("a{i}")), "z".repeat(50)))
            .collect();
        let msgs = wal::build_messages(Uuid(1), None, None, Vec::new(), &records, MESSAGE_LIMIT);
        assert!(msgs.len() > 10);
        for m in &msgs {
            assert!(m.len() <= MESSAGE_LIMIT, "message of {} bytes", m.len());
        }
    }

    /// Step hook that kills the process at the `occurrence`-th crossing
    /// of exactly `target` — and keeps it dead, like a real kill.
    fn kill_at_occurrence(target: &'static str, occurrence: u64) -> crate::StepHook {
        crate::protocol::kill_at_occurrence(target, occurrence).0
    }

    #[test]
    fn one_poll_commits_a_cross_transaction_group() {
        let (_sim, env, p3) = setup();
        for i in 0..6u128 {
            p3.flush(FlushBatch {
                objects: vec![file_obj(100 + i, 1, &format!("g{i}"), "d")],
            })
            .unwrap();
        }
        let daemon = p3.commit_daemon();
        let o = daemon.poll_once().unwrap();
        assert_eq!(o.committed, 6, "one poll round commits the whole group");
        assert_eq!(o.stalled, 0);
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
        for i in 0..6 {
            assert!(env.s3().peek_committed("data", &format!("g{i}")).is_some());
        }
        // The group's WAL acknowledgements drained through ONE batched
        // delete call, not one round trip per transaction.
        let usage = env.usage();
        let acks = usage.get(
            cloudprov_cloud::Actor::CommitDaemon,
            cloudprov_cloud::Service::Queue,
            cloudprov_cloud::Op::Delete,
        );
        assert_eq!(acks.count, 1, "six receipts must ack as one batch");
    }

    #[test]
    fn a_group_fetches_its_cas_hashes_twenty_per_select() {
        let (sim, env, p3) = setup();
        let registry = cas::cas_domain("provenance");
        env.sdb().create_domain(&registry);
        // Nine members, five hashes each: 45 provenance-only objects.
        let node = |j: u128| PNodeId::initial(Uuid(0x5000 + j));
        let records = |j: u128| {
            let id = node(j);
            vec![
                ProvenanceRecord::new(id, Attr::Type, "process"),
                ProvenanceRecord::new(id, Attr::Name, format!("p{j}")),
            ]
        };
        let sha = |j: u128| format!("{j:064x}");
        let row = |j: u128| {
            let mut attrs = vec![
                ("node".to_string(), node(j).to_string()),
                ("key".to_string(), "-".to_string()),
                ("data".to_string(), "0".to_string()),
            ];
            for (i, r) in records(j).iter().enumerate() {
                attrs.push((format!("r{i:03}"), wire::encode_record(r).trim_end().into()));
            }
            PutItem {
                name: sha(j),
                attrs,
                replace: false,
            }
        };
        // Five hashes land 1.5 s into the commit, one (the last
        // member's last) never does; the rest are registered up front.
        let late: Vec<u128> = vec![3, 11, 19, 27, 35];
        let never = 44;
        let now: Vec<PutItem> = (0..45)
            .filter(|j| !late.contains(j) && *j != never)
            .map(row)
            .collect();
        for chunk in now.chunks(BATCH_LIMIT) {
            env.sdb()
                .batch_put_attributes(&registry, chunk.to_vec())
                .unwrap();
        }
        let later: Vec<PutItem> = late.iter().map(|&j| row(j)).collect();
        let (sdb, sleeper) = (env.sdb().clone(), sim.clone());
        let _late = sim.spawn(move || {
            sleeper.sleep(Duration::from_millis(1500));
            sdb.batch_put_attributes(&cas::cas_domain("provenance"), later)
                .unwrap();
        });
        for m in 0..9u128 {
            let refs = (5 * m..5 * m + 5).map(|j| {
                CasFlushItem::Ref(cas::CasRef {
                    sha: sha(j),
                    id: node(j),
                    key: None,
                    has_data: false,
                })
            });
            p3.flush_with_cas(refs.collect()).unwrap();
        }
        let selects = || {
            env.usage()
                .get(Actor::CommitDaemon, Service::Database, Op::DbSelect)
        };
        let before = selects();
        let o = p3.commit_daemon().poll_once().unwrap();
        assert_eq!((o.committed, o.stalled), (8, 1), "{o:?}");
        // Round 1 selects 20 + 20 + 5 hashes; rounds 2 and 3 the six
        // still missing (the late five appear in round 3); every later
        // round of the `RETRIES + 8` budget only the one that never does.
        let query_len = |n: u128| {
            let shas: Vec<String> = (0..n).map(sha).collect();
            cas::registry_select(&registry, "*", shas.iter().map(String::as_str)).len() as u64
        };
        let rounds = RETRIES as u128 + 8;
        let sizes: Vec<u128> = [20, 20, 5, 6, 6]
            .into_iter()
            .chain(std::iter::repeat_n(1, rounds as usize - 3))
            .collect();
        let after = selects();
        assert_eq!(after.count - before.count, sizes.len() as u64);
        assert_eq!(
            after.bytes_in - before.bytes_in,
            sizes.iter().map(|&n| query_len(n)).sum::<u64>()
        );
        // Every committed member's objects carry their hashes' records;
        // the stalled member's never reached the base domain.
        let stored: Vec<ProvenanceRecord> = env
            .sdb()
            .peek_items("provenance")
            .iter()
            .flat_map(|(name, attrs)| crate::protocol::item_to_records(name, attrs))
            .collect();
        for j in 0..45 {
            let member = j / 5;
            for r in records(j) {
                assert_eq!(stored.contains(&r), member != 8, "hash {j}: {r:?}");
            }
        }
    }

    #[test]
    fn garbage_messages_drop_through_the_batched_path() {
        let (_sim, env, p3) = setup();
        for i in 0..3 {
            env.sqs()
                .send(p3.wal_url(), Bytes::from(format!("not-a-txn-{i}")))
                .unwrap();
        }
        let daemon = p3.commit_daemon();
        let o = daemon.poll_once().unwrap();
        assert_eq!(o.messages, 3);
        assert_eq!(o.dropped, 3, "garbage is counted, not silently eaten");
        assert_eq!(o.committed, 0);
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
    }

    #[test]
    fn redelivery_of_a_committed_transaction_counts_as_dropped() {
        let (_sim, env, p3) = setup();
        p3.flush(FlushBatch {
            objects: vec![file_obj(110, 1, "dup", "x")],
        })
        .unwrap();
        // Capture the WAL body (peek-receive and release), as an
        // at-least-once duplicate a lagging SQS host could still hold.
        let held = env.sqs().receive(p3.wal_url(), 10).unwrap();
        assert_eq!(held.len(), 1);
        let body = held[0].body.clone();
        env.sqs()
            .change_visibility(p3.wal_url(), &held[0].receipt, Duration::ZERO)
            .unwrap();
        let daemon = p3.commit_daemon();
        let first = daemon.poll_once().unwrap();
        assert_eq!(first.committed, 1);
        // The duplicate arrives AFTER the commit: the daemon must drop
        // it through the batched path and count it.
        env.sqs().send(p3.wal_url(), body).unwrap();
        let o = daemon.poll_once().unwrap();
        assert_eq!(o.messages, 1);
        assert_eq!(o.dropped, 1, "late redelivery is counted, not re-buffered");
        assert_eq!(o.committed, 0);
        assert_eq!(daemon.committed_transactions(), 1);
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
    }

    #[test]
    fn crash_between_group_db_chunks_heals_on_recommit() {
        // Kill the daemon after the first cross-transaction DB chunk
        // landed but before the rest: some members' items are durable,
        // none are acknowledged. The recovery daemon's recommit must
        // converge — every transaction exactly once, index audit clean.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p3 = P3::new(&env, ProtocolConfig::default(), "wal-grp-db");
        for i in 0..6u128 {
            let proc_id = PNodeId::initial(Uuid(200 + i));
            let proc = FlushObject::provenance_only(FlushNode {
                id: proc_id,
                kind: NodeKind::Process,
                name: Some(format!("gen{i}")),
                records: vec![
                    ProvenanceRecord::new(proc_id, Attr::Type, "process"),
                    ProvenanceRecord::new(proc_id, Attr::Name, format!("gen{i}")),
                ],
                data_hash: None,
            });
            let mut file = file_obj(300 + i, 1, &format!("o{i}"), "x");
            file.node
                .records
                .push(ProvenanceRecord::new(file.node.id, Attr::Input, proc_id));
            p3.flush(FlushBatch {
                objects: vec![proc, file],
            })
            .unwrap();
        }
        let dying_cfg = ProtocolConfig {
            step_hook: Some(kill_at_occurrence("p3:commit:group:db", 2)),
            ..ProtocolConfig::default()
        };
        let dying = CommitDaemon::new(&env, dying_cfg, "sqs://wal-grp-db");
        let err = dying.run_until_idle().unwrap_err();
        assert!(matches!(err, ProtocolError::Crashed { .. }));
        assert_eq!(dying.committed_transactions(), 0, "no member acked yet");
        // Unacknowledged WAL: a fresh daemon recommits everything.
        sim.sleep(cloudprov_cloud::DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));
        let recovery = CommitDaemon::new(&env, ProtocolConfig::default(), "sqs://wal-grp-db");
        recovery.run_until_idle().unwrap();
        assert_eq!(recovery.committed_transactions(), 6);
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
        assert_eq!(env.s3().peek_count("data", "tmp/"), 0);
        for i in 0..6 {
            let r = p3.read(&format!("o{i}")).unwrap();
            assert_eq!(r.coupling, CouplingCheck::Coupled, "o{i}");
        }
        let audit = crate::index::audit_index(&env, &crate::Layout::default());
        assert!(audit.consistent(), "{audit:?}");
    }

    #[test]
    fn crash_between_gc_and_ack_heals_without_double_commit() {
        // Kill the daemon after the group's temps were deleted but
        // before any WAL receipt was acknowledged: everything is durable
        // yet the whole group redelivers. The recommit must verify the
        // copies via the final keys (the temps are gone), rewrite the
        // idempotent items, and leave no duplicate effects.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p3 = P3::new(&env, ProtocolConfig::default(), "wal-grp-ack");
        for i in 0..4u128 {
            p3.flush(FlushBatch {
                objects: vec![file_obj(400 + i, 1, &format!("a{i}"), "payload")],
            })
            .unwrap();
        }
        let dying_cfg = ProtocolConfig {
            step_hook: Some(kill_at_occurrence("p3:commit:group:ack", 1)),
            ..ProtocolConfig::default()
        };
        let dying = CommitDaemon::new(&env, dying_cfg, "sqs://wal-grp-ack");
        let err = dying.run_until_idle().unwrap_err();
        assert!(matches!(err, ProtocolError::Crashed { .. }));
        assert!(
            env.sqs().peek_depth(p3.wal_url()) > 0,
            "nothing was acknowledged"
        );
        sim.sleep(cloudprov_cloud::DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));
        let recovery = CommitDaemon::new(&env, ProtocolConfig::default(), "sqs://wal-grp-ack");
        let committed_ids = Arc::new(Mutex::new(Vec::<Uuid>::new()));
        recovery.set_commit_listener({
            let ids = committed_ids.clone();
            Arc::new(move |txn| ids.lock().push(txn))
        });
        recovery.run_until_idle().unwrap();
        let ids = committed_ids.lock().clone();
        let distinct: BTreeSet<Uuid> = ids.iter().copied().collect();
        assert_eq!(ids.len(), 4, "every member recommits exactly once");
        assert_eq!(distinct.len(), 4, "no double commit");
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
        assert_eq!(env.s3().peek_count("data", "tmp/"), 0);
        for i in 0..4 {
            let r = p3.read(&format!("a{i}")).unwrap();
            assert_eq!(r.coupling, CouplingCheck::Coupled, "a{i}");
        }
        let audit = crate::index::audit_index(&env, &crate::Layout::default());
        assert!(audit.consistent(), "{audit:?}");
    }

    #[test]
    fn stalled_member_is_evicted_without_blocking_the_group() {
        // One client's temp PUT dies after its WAL was fully logged; its
        // group peers must still commit in the same poll, and the
        // stalled member is reported, not fatal.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let good = P3::new(&env, ProtocolConfig::default(), "wal-stall");
        let crasher_cfg = ProtocolConfig {
            step_hook: Some(Arc::new(|step: &str| !step.starts_with("p3:temp:"))),
            ..ProtocolConfig::default()
        };
        let crasher = P3::with_identity(&env, crasher_cfg, "wal-stall", "crasher");
        let _ = crasher.flush(FlushBatch {
            objects: vec![file_obj(500, 1, "lost", "never-arrives")],
        });
        for i in 0..3u128 {
            good.flush(FlushBatch {
                objects: vec![file_obj(510 + i, 1, &format!("ok{i}"), "d")],
            })
            .unwrap();
        }
        let daemon = good.commit_daemon();
        let o = daemon.poll_once().unwrap();
        assert_eq!(o.stalled, 1, "the temp-less member stalls");
        assert_eq!(o.committed, 3, "its peers commit in the same group");
        for i in 0..3 {
            assert!(env.s3().peek_committed("data", &format!("ok{i}")).is_some());
        }
        assert!(env.s3().peek_committed("data", "lost").is_none());
    }

    #[test]
    fn poisoned_member_is_evicted_without_blocking_the_group() {
        // A fully-assembled transaction whose record text does not
        // decode must not abort the group: its healthy peers commit in
        // the same poll, and the poison member is reported as stalled
        // (its messages redeliver and ultimately expire with
        // retention).
        let (_sim, env, p3) = setup();
        for i in 0..3u128 {
            p3.flush(FlushBatch {
                objects: vec![file_obj(700 + i, 1, &format!("h{i}"), "d")],
            })
            .unwrap();
        }
        // Valid TXN header, garbage record body (fails wire::decode).
        let header = Header {
            txn: Uuid(0x63),
            seq: 0,
            total: 1,
            tenant: None,
            ctx: None,
        };
        env.sqs()
            .send(
                p3.wal_url(),
                Bytes::from(header.encode() + "not-a-wire-record"),
            )
            .unwrap();
        let daemon = p3.commit_daemon();
        let o = daemon.poll_once().unwrap();
        assert_eq!(o.committed, 3, "healthy peers commit");
        assert_eq!(o.stalled, 1, "the poison member is evicted, not fatal");
        for i in 0..3 {
            assert!(env.s3().peek_committed("data", &format!("h{i}")).is_some());
        }
        assert_eq!(
            env.sqs().peek_depth(p3.wal_url()),
            1,
            "the poison message stays for redelivery/retention"
        );
    }

    #[test]
    fn newest_version_of_a_key_wins_within_one_transaction() {
        // A closure can carry a historic version of the closing file
        // alongside the version being closed (both under one key, both
        // paired with today's bytes). The serial commit path copied them
        // in closure order so the newest version defined the final
        // state; the parallel copy fan-out must preserve exactly that —
        // a read after commit sees the newest version's metadata, never
        // the historic version stamped over the newest bytes.
        let (_sim, env, p3) = setup();
        let blob = Blob::from("current-bytes");
        let old_id = PNodeId {
            uuid: Uuid(600),
            version: 1,
        };
        // Historic node: records describe OLD content, data is today's
        // bytes (what the fs cache still holds).
        let historic = FlushObject::file(
            FlushNode {
                id: old_id,
                kind: NodeKind::File,
                name: Some("/evolved".into()),
                records: vec![
                    ProvenanceRecord::new(old_id, Attr::Type, "file"),
                    ProvenanceRecord::new(old_id, Attr::DataHash, "00000000deadbeef"),
                ],
                data_hash: Some(0xdead_beef),
            },
            "evolved",
            blob.clone(),
        );
        let current = file_obj(600, 2, "evolved", "current-bytes");
        p3.flush(FlushBatch {
            objects: vec![historic, current],
        })
        .unwrap();
        assert_eq!(p3.commit_daemon().run_until_idle().unwrap(), 1);
        let r = p3.read("evolved").unwrap();
        assert_eq!(
            r.id,
            Some(PNodeId {
                uuid: Uuid(600),
                version: 2
            }),
            "the newest version's copy must define the final metadata"
        );
        assert_eq!(r.coupling, CouplingCheck::Coupled);
        assert_eq!(env.s3().peek_count("data", "tmp/"), 0, "both temps GCed");
    }

    #[test]
    fn group_packing_respects_limit_order_and_phases() {
        let item = |n: usize| PutItem {
            name: format!("i{n}"),
            attrs: vec![("a".into(), "v".into())],
            replace: false,
        };
        let base: Vec<PutItem> = (0..103).map(item).collect();
        let index: Vec<PutItem> = (1000..1007).map(item).collect();
        let plan = pack_group_writes(base.clone(), index.clone(), 25, 4);
        for chunk in plan.base_chunks.iter().chain(&plan.index_chunks) {
            assert!(chunk.len() <= 25 && !chunk.is_empty());
        }
        let flat_base: Vec<PutItem> = plan.base_chunks.concat();
        let flat_index: Vec<PutItem> = plan.index_chunks.concat();
        assert_eq!(flat_base, base, "base order preserved, nothing lost");
        assert_eq!(flat_index, index, "index order preserved");
        // 103 items over the 25 cap: minimum 5 chunks, i.e. full batches.
        assert_eq!(plan.base_chunks.len(), 5);
        assert_eq!(plan.items(), 110);
    }

    #[test]
    fn group_packing_splits_light_groups_for_parallelism() {
        let item = |n: usize| PutItem {
            name: format!("i{n}"),
            attrs: vec![("a".into(), "v".into())],
            replace: false,
        };
        // 8 items fit one batch, but 4 connections are available: split
        // evenly so the per-item database time shrinks by the fan-out.
        let plan = pack_group_writes((0..8).map(item).collect(), Vec::new(), 25, 4);
        assert_eq!(plan.base_chunks.len(), 4);
        assert!(plan.base_chunks.iter().all(|c| c.len() == 2));
        // Never more chunks than items.
        let tiny = pack_group_writes((0..2).map(item).collect(), Vec::new(), 25, 8);
        assert_eq!(tiny.base_chunks.len(), 2);
        assert!(pack_group_writes(Vec::new(), Vec::new(), 25, 4)
            .base_chunks
            .is_empty());
    }

    #[test]
    fn empty_flush_sends_header_only_transaction() {
        let (_sim, _env, p3) = setup();
        p3.flush(FlushBatch::default()).unwrap();
        let daemon = p3.commit_daemon();
        assert_eq!(daemon.run_until_idle().unwrap(), 1);
    }

    // ---- change feed -----------------------------------------------

    use crate::feed::CommitEvent;
    use cloudprov_cloud::{TenantId, DEFAULT_VISIBILITY_TIMEOUT};

    fn feed_cfg() -> ProtocolConfig {
        ProtocolConfig {
            feed: true,
            ..ProtocolConfig::default()
        }
    }

    fn collecting_sink() -> (crate::feed::CommitEventSink, Arc<Mutex<Vec<CommitEvent>>>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        let e2 = events.clone();
        (Arc::new(move |e: CommitEvent| e2.lock().push(e)), events)
    }

    #[test]
    fn feed_publishes_one_event_per_commit_strictly_after_ack() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let tenant_env = env.for_tenant(TenantId(3));
        let p3 = P3::new(&tenant_env, feed_cfg(), "wal-feed");
        let proc_id = PNodeId::initial(Uuid(60));
        let proc = FlushObject::provenance_only(FlushNode {
            id: proc_id,
            kind: NodeKind::Process,
            name: Some("gen".into()),
            records: vec![
                ProvenanceRecord::new(proc_id, Attr::Type, "process"),
                ProvenanceRecord::new(proc_id, Attr::Name, "gen"),
            ],
            data_hash: None,
        });
        let mut file = file_obj(61, 1, "out", "x");
        file.node
            .records
            .push(ProvenanceRecord::new(file.node.id, Attr::Input, proc_id));
        p3.flush(FlushBatch {
            objects: vec![proc, file],
        })
        .unwrap();

        let daemon = p3.commit_daemon();
        let events = Arc::new(Mutex::new(Vec::new()));
        let e2 = events.clone();
        let wal = p3.wal_url().to_string();
        let env2 = env.clone();
        daemon.set_event_sink(Arc::new(move |e: CommitEvent| {
            // Publish runs strictly after the group ack: by the time the
            // sink sees the event its WAL messages are gone.
            assert_eq!(env2.sqs().peek_depth(&wal), 0, "event before ack");
            e2.lock().push(e);
        }));
        daemon.run_until_idle().unwrap();

        let evs = events.lock();
        assert_eq!(evs.len(), 1, "one event per committed transaction");
        assert_eq!(evs[0].seq, 1);
        assert_eq!(evs[0].stream, "wal-feed");
        assert_eq!(evs[0].tenant, Some(TenantId(3)));
        assert!(evs[0].uuids.contains(&Uuid(60)));
        assert!(evs[0].uuids.contains(&Uuid(61)));
        assert_eq!(evs[0].programs, vec!["gen".to_string()]);
    }

    #[test]
    fn feed_crash_at_stage_redelivers_without_gap() {
        // The p3:notify:stage crash point: the daemon dies before the
        // event stages, so its WAL stays unacknowledged. A takeover
        // daemon recommits and the event arrives exactly once here
        // (nothing was staged), with a contiguous sequence.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p3 = P3::new(&env, feed_cfg(), "wal-cr");
        p3.flush(FlushBatch {
            objects: vec![file_obj(70, 1, "out", "x")],
        })
        .unwrap();

        let crash_cfg = ProtocolConfig {
            step_hook: Some(kill_at_occurrence("p3:notify:stage", 1)),
            ..feed_cfg()
        };
        let a = CommitDaemon::new(&env, crash_cfg, p3.wal_url());
        assert!(a.poll_once().is_err(), "daemon A dies at the stage point");
        drop(a);

        sim.sleep(DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(10));
        let b = CommitDaemon::new(&env, feed_cfg(), p3.wal_url());
        let (sink, events) = collecting_sink();
        b.set_event_sink(sink);
        b.run_until_idle().unwrap();
        assert_eq!(b.committed_transactions(), 1);
        let evs = events.lock();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].seq, 1, "sequence starts clean — no gap");
        assert!(env.s3().peek_committed("data", "out").is_some());
    }

    #[test]
    fn feed_crash_between_ack_and_publish_survives_failover() {
        // The p3:notify:publish crash point: the group is fully acked
        // and its events staged, but nothing was published. The staged
        // backlog must reach the takeover daemon's sink even though the
        // WAL is empty (at-least-once across failover).
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p3 = P3::new(&env, feed_cfg(), "wal-fo");
        p3.flush(FlushBatch {
            objects: vec![file_obj(80, 1, "out", "x")],
        })
        .unwrap();

        let crash_cfg = ProtocolConfig {
            step_hook: Some(kill_at_occurrence("p3:notify:publish", 1)),
            ..feed_cfg()
        };
        let a = CommitDaemon::new(&env, crash_cfg, p3.wal_url());
        assert!(a.poll_once().is_err(), "daemon A dies before publishing");
        assert_eq!(
            env.sqs().peek_depth(p3.wal_url()),
            0,
            "the group was acked before the crash"
        );
        drop(a);

        let b = CommitDaemon::new(&env, feed_cfg(), p3.wal_url());
        let (sink, events) = collecting_sink();
        b.set_event_sink(sink);
        // B commits nothing — the WAL is empty — yet its idle poll
        // drains the predecessor's staged backlog.
        let o = b.poll_once().unwrap();
        assert_eq!(o.committed, 0);
        let evs = events.lock();
        assert_eq!(evs.len(), 1, "staged event survives the failover");
        assert_eq!(evs[0].seq, 1);
        assert!(evs[0].uuids.contains(&Uuid(80)));
    }

    #[test]
    fn feed_crash_before_watermark_duplicates_but_never_gaps() {
        // The p3:notify:wm crash point: the event published but the
        // watermark never advanced. The takeover daemon republishes —
        // consumers see the same sequence twice (allowed), never a hole.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p3 = P3::new(&env, feed_cfg(), "wal-wm");
        p3.flush(FlushBatch {
            objects: vec![file_obj(90, 1, "out", "x")],
        })
        .unwrap();

        let (sink, events) = collecting_sink();
        let crash_cfg = ProtocolConfig {
            step_hook: Some(kill_at_occurrence("p3:notify:wm", 1)),
            ..feed_cfg()
        };
        let a = CommitDaemon::new(&env, crash_cfg, p3.wal_url());
        a.set_event_sink(sink.clone());
        assert!(a.poll_once().is_err(), "daemon A dies before the watermark");
        drop(a);

        let b = CommitDaemon::new(&env, feed_cfg(), p3.wal_url());
        b.set_event_sink(sink);
        b.poll_once().unwrap();
        let evs = events.lock();
        assert_eq!(evs.len(), 2, "republished after the lost watermark");
        assert_eq!(evs[0].seq, evs[1].seq, "a duplicate, not a gap");
        assert_eq!(evs[0].txn, evs[1].txn);
    }

    #[test]
    fn wal_headers_parse_with_and_without_trailing_fields() {
        // The trailing header fields are self-describing, so pre-tenant
        // and pre-trace WAL messages (and any mix) all still parse.
        let span = SpanContext {
            trace: 0xabc,
            span: 5,
        };
        for tenant in [None, Some(TenantId(7))] {
            for ctx in [None, Some(span)] {
                let header = Header {
                    txn: Uuid(0xabc),
                    seq: 1,
                    total: 2,
                    tenant,
                    ctx,
                };
                let message = header.encode() + "body";
                assert_eq!(Header::parse(&message), Some((header, "body")));
            }
        }
        assert_eq!(Header::parse("not a WAL message"), None);

        // And the writer round-trips through the parser.
        let records = vec![ProvenanceRecord::new(
            PNodeId::initial(Uuid(0xabc)),
            Attr::Type,
            "file",
        )];
        let msgs = wal::build_messages(
            Uuid(0xabc),
            Some(TenantId(3)),
            Some(span),
            Vec::new(),
            &records,
            8192,
        );
        let (header, body) = Header::parse(&msgs[0]).unwrap();
        assert_eq!((header.txn, header.seq, header.total), (Uuid(0xabc), 0, 1));
        assert_eq!(header.tenant, Some(TenantId(3)));
        assert_eq!(header.ctx, Some(span));
        assert_eq!(wire::decode(body.as_bytes()).unwrap(), records);
    }

    #[test]
    fn trace_survives_a_mid_commit_steal() {
        // Daemon A picks the traced txn up and dies mid-commit (db
        // phase); after the visibility timeout a second daemon receives
        // the same WAL messages and recommits. The span context rides
        // the redelivered message, so the takeover still lands under
        // the original root: one connected tree, zero orphans, and the
        // root span's duration is the txn's true (steal-inflated)
        // commit latency.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        env.tracer().enable(7);
        let p3 = P3::new(&env, ProtocolConfig::default(), "wal-steal-trace");
        p3.flush(FlushBatch {
            objects: vec![file_obj(600, 1, "stolen", "payload")],
        })
        .unwrap();

        let dying_cfg = ProtocolConfig {
            step_hook: Some(kill_at_occurrence("p3:commit:group:db", 1)),
            ..ProtocolConfig::default()
        };
        let dying = CommitDaemon::new(&env, dying_cfg, "sqs://wal-steal-trace");
        assert!(dying.run_until_idle().is_err(), "daemon A dies mid-commit");
        sim.sleep(cloudprov_cloud::DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));

        let recovery = CommitDaemon::new(&env, ProtocolConfig::default(), "sqs://wal-steal-trace");
        let committed_ids = Arc::new(Mutex::new(Vec::<Uuid>::new()));
        recovery.set_commit_listener({
            let ids = committed_ids.clone();
            Arc::new(move |txn| ids.lock().push(txn))
        });
        recovery.run_until_idle().unwrap();
        let ids = committed_ids.lock().clone();
        assert_eq!(ids.len(), 1, "the stolen txn commits exactly once");
        let txn = ids[0];

        let tracer = env.tracer();
        let st = tracer.stats();
        assert_eq!(st.orphans, 0, "the steal must not sever the tree: {st:?}");
        assert_eq!(st.open_roots, 0, "the stolen txn's root closed");
        let (logged, committed) = tracer.root_interval(txn.0).expect("root recorded");
        assert!(committed > logged);
        // Both attempts left phase spans on the SAME trace: daemon A's
        // aborted db phase plus daemon B's completed one.
        let db_spans = tracer
            .spans()
            .iter()
            .filter(|s| s.trace == txn.0 && s.kind == "db")
            .count();
        assert!(
            db_spans >= 2,
            "both daemons' db phases on one trace, got {db_spans}"
        );
        // The critical path still telescopes to the root window, with
        // the visibility-timeout wait showing up inside the breakdown
        // rather than leaking out of it.
        let b = tracer.critical_path(txn.0).expect("committed txn");
        assert_eq!(
            b.commit_sum(),
            committed.saturating_duration_since(logged),
            "breakdown must reconcile with the root window: {b:?}"
        );
        assert!(
            b.commit_sum() >= cloudprov_cloud::DEFAULT_VISIBILITY_TIMEOUT,
            "the steal's redelivery wait is part of the txn's latency"
        );
    }

    #[test]
    fn feed_disabled_stages_nothing() {
        let (_sim, env, p3) = setup();
        p3.flush(FlushBatch {
            objects: vec![file_obj(95, 1, "out", "x")],
        })
        .unwrap();
        let daemon = p3.commit_daemon();
        let (sink, events) = collecting_sink();
        daemon.set_event_sink(sink);
        daemon.run_until_idle().unwrap();
        assert!(events.lock().is_empty(), "no feed traffic unless enabled");
        assert_eq!(
            env.sdb()
                .peek_item_count(&crate::feed::feed_domain("provenance")),
            0
        );
    }
}
