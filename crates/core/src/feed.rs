//! The commit-side half of the **live provenance change feed**: compact
//! commit events, durably staged next to the provenance they describe and
//! published strictly after the WAL acknowledgement.
//!
//! The paper's P3 commits asynchronously — a client learns its data is
//! provenance-coupled only by polling a read. The feed closes that gap:
//! every committed transaction produces one [`CommitEvent`] naming the
//! uuids and program names it touched, and downstream consumers (the
//! subscription registry in `cloudprov-feed`, the query engine's
//! invalidation hook) receive the events **at least once**, in
//! per-stream sequence order, with duplicates allowed and gaps forbidden
//! — across daemon crashes and lease failover.
//!
//! The delivery guarantee rests on SimpleDB staging ordered against the
//! WAL ack:
//!
//! 1. **Stage** (`p3:notify:stage`) — before any WAL receipt of the group
//!    is acknowledged, the group's events are written to the feed domain
//!    under monotonically increasing per-stream sequence numbers. A crash
//!    here leaves the WAL unacknowledged: the transactions redeliver and
//!    restage under fresh sequence numbers (a duplicate event per
//!    transaction, never a gap).
//! 2. **Ack** — the group's WAL receipts acknowledge (existing phase 5).
//! 3. **Publish** (`p3:notify:publish`) — every staged-but-unpublished
//!    event (anything above the stream's watermark, including events a
//!    crashed predecessor staged) flows to the installed sink in sequence
//!    order.
//! 4. **Watermark** (`p3:notify:wm`) — the stream's watermark item
//!    advances. A crash between publish and watermark republishes on the
//!    next flush: duplicates, not losses.
//!
//! A daemon taking over a stream (fleet lease steal, chaos kill) recovers
//! the next sequence number and the pending backlog from the feed domain
//! on first use, so at-least-once delivery survives failover.

use std::sync::Arc;

use parking_lot::Mutex;

use cloudprov_cloud::{
    quote_like_prefix, Actor, CloudEnv, Database, PutItem, TenantId, BATCH_LIMIT,
};
use cloudprov_pass::{Attr, NodeKind, ProvenanceRecord, Uuid};

use crate::error::Result;
use crate::protocol::{retry, ProtocolConfig};

/// Crash point before a group's events stage.
const STAGE_POINT: &str = "p3:notify:stage";
/// Crash point between the group ack and the publish.
const PUBLISH_POINT: &str = "p3:notify:publish";
/// Crash point between the publish and the watermark write.
const WM_POINT: &str = "p3:notify:wm";

/// The change feed's crash points, in execution order (stage, publish,
/// watermark) — what aimed chaos schedules take as input.
pub fn notify_crash_points() -> [&'static str; 3] {
    [STAGE_POINT, PUBLISH_POINT, WM_POINT]
}

/// One committed transaction, as seen by feed consumers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitEvent {
    /// The WAL stream (shard queue name) the transaction committed from.
    pub stream: String,
    /// Per-stream sequence number. Consumers may see the same sequence
    /// twice (crash-replay duplicates) but never a hole.
    pub seq: u64,
    /// The committed transaction.
    pub txn: Uuid,
    /// Tenant that logged the transaction, when the client ran under a
    /// tenant-attributed environment.
    pub tenant: Option<TenantId>,
    /// Distinct object uuids whose provenance the transaction touched.
    pub uuids: Vec<Uuid>,
    /// Program names of process nodes the transaction recorded.
    pub programs: Vec<String>,
}

/// Callback receiving every published [`CommitEvent`]. Installed on a
/// commit daemon via `CommitDaemon::set_event_sink`; the subscription
/// registry and the fleet pool provide implementations.
pub type CommitEventSink = Arc<dyn Fn(CommitEvent) + Send + Sync>;

/// Name of the feed-staging domain for a provenance domain.
pub fn feed_domain(domain: &str) -> String {
    format!("feed_{domain}")
}

/// Item-name prefix of staged events.
const EVT_PREFIX: &str = "evt_";
/// Item-name prefix of per-stream watermark items.
const WM_PREFIX: &str = "wm_";

/// Item name of the staged event `seq` of `stream`. The zero-padded
/// sequence keeps lexicographic item order equal to numeric order, and
/// the transaction id suffix keeps restaged duplicates (same transaction,
/// fresh sequence after a crash) from colliding.
fn event_item_name(stream: &str, seq: u64, txn: Uuid) -> String {
    format!("{EVT_PREFIX}{stream}~{seq:012}~{txn}")
}

/// `(seq, txn)` of an item [`event_item_name`] named for `stream`;
/// `None` for any other item (another stream's, a watermark, garbage).
fn parse_event_item(stream: &str, name: &str) -> Option<(u64, Uuid)> {
    let rest = name
        .strip_prefix(EVT_PREFIX)?
        .strip_prefix(stream)?
        .strip_prefix('~')?;
    let (seq, txn) = rest.split_once('~')?;
    Some((seq.parse().ok()?, txn.parse().ok()?))
}

/// Item name of `stream`'s watermark.
fn watermark_item_name(stream: &str) -> String {
    format!("{WM_PREFIX}{stream}")
}

/// The sequence a watermark item's attributes carry (0 when absent).
fn watermark_seq(attrs: &[(String, String)]) -> u64 {
    attrs
        .iter()
        .find(|(k, _)| k == "seq")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// Extracts the uuids and program names a record set touches — the same
/// name rules as the ancestry index's program seeds (plain text, within
/// the attribute limit, not a spill pointer).
///
/// Touched uuids cover both record subjects and `Input` cross-reference
/// targets: the ancestry index keys its reverse-edge items by the
/// *ancestor* (the xref target), so a commit changes `rev_` pages for
/// nodes that never appear as a subject in the transaction. Consumers
/// that invalidate by uuid (the read-tier ancestry cache) rely on the
/// event naming every node whose index pages the commit may have grown.
pub fn extract_touches(records: &[ProvenanceRecord]) -> (Vec<Uuid>, Vec<String>) {
    let mut uuids: Vec<Uuid> = Vec::new();
    let mut programs: Vec<String> = Vec::new();
    let mut kinds: std::collections::BTreeMap<Uuid, NodeKind> = std::collections::BTreeMap::new();
    for r in records {
        if !uuids.contains(&r.subject.uuid) {
            uuids.push(r.subject.uuid);
        }
        if r.attr == Attr::Input {
            if let Some(target) = r.value.as_xref() {
                if !uuids.contains(&target.uuid) {
                    uuids.push(target.uuid);
                }
            }
        }
        if r.attr == Attr::Type {
            let k = match r.value.to_text().as_str() {
                "process" => NodeKind::Process,
                "pipe" => NodeKind::Pipe,
                _ => NodeKind::File,
            };
            kinds.insert(r.subject.uuid, k);
        }
    }
    for r in records {
        if r.attr != Attr::Name || kinds.get(&r.subject.uuid) != Some(&NodeKind::Process) {
            continue;
        }
        let n = r.value.to_text();
        if n.len() <= cloudprov_cloud::ATTRIBUTE_LIMIT
            && !n.starts_with("@s3:")
            && !programs.contains(&n)
        {
            programs.push(n);
        }
    }
    (uuids, programs)
}

/// What the daemon stages for one committed group member.
#[derive(Clone, Debug)]
pub struct StagedTouches {
    /// The committed transaction.
    pub txn: Uuid,
    /// Tenant from the WAL header, if any.
    pub tenant: Option<TenantId>,
    /// Touched object uuids.
    pub uuids: Vec<Uuid>,
    /// Touched program names.
    pub programs: Vec<String>,
}

struct WriterState {
    /// Next sequence number to allocate.
    next_seq: u64,
    /// Highest published sequence (the durable watermark at recovery,
    /// advanced in memory as this daemon publishes).
    watermark: u64,
    /// Events a crashed predecessor staged but never published, in
    /// sequence order. Drained into the sink on the next flush.
    pending: Vec<CommitEvent>,
}

/// Stages and publishes [`CommitEvent`]s for one WAL stream.
///
/// Owned by a `CommitDaemon`; every SimpleDB call runs as the
/// [`Actor::CommitDaemon`] so feed upkeep is priced as daemon traffic.
pub struct FeedWriter {
    env: CloudEnv,
    config: ProtocolConfig,
    stream: String,
    state: Mutex<Option<WriterState>>,
}

impl std::fmt::Debug for FeedWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedWriter")
            .field("stream", &self.stream)
            .finish()
    }
}

impl FeedWriter {
    /// Creates the writer for `stream` (the shard queue name) and
    /// provisions the feed domain (idempotent, unmetered).
    pub fn new(env: &CloudEnv, config: ProtocolConfig, stream: &str) -> FeedWriter {
        env.sdb().create_domain(&feed_domain(&config.layout.domain));
        FeedWriter {
            env: env.clone(),
            config,
            stream: stream.to_string(),
            state: Mutex::new(None),
        }
    }

    /// The stream this writer stages for.
    pub fn stream(&self) -> &str {
        &self.stream
    }

    fn sdb(&self) -> Database {
        self.env.sdb().with_actor(Actor::CommitDaemon)
    }

    /// Recovers `(next_seq, watermark, pending)` from the feed domain:
    /// one scan of the stream's staged events plus the watermark item.
    /// Runs once per writer; a takeover daemon pays this on its first
    /// group (or idle flush) and inherits the predecessor's backlog.
    fn recover(&self) -> Result<WriterState> {
        let sdb = self.sdb();
        let domain = feed_domain(&self.config.layout.domain);
        let wm_item = watermark_item_name(&self.stream);
        let watermark = watermark_seq(&retry(self.env.sim(), || {
            sdb.get_attributes(&domain, &wm_item)
        })?);
        let prefix = format!("{EVT_PREFIX}{}~", self.stream);
        let expr = format!(
            "select * from {domain} where itemName() like {}",
            quote_like_prefix(&prefix, "%")
        );
        let staged = retry(self.env.sim(), || sdb.select_all(&expr))?;
        let mut max_seq = watermark;
        let mut pending: Vec<CommitEvent> = Vec::new();
        for item in staged {
            let Some((seq, txn)) = parse_event_item(&self.stream, &item.name) else {
                continue;
            };
            max_seq = max_seq.max(seq);
            if seq <= watermark {
                continue;
            }
            let mut ev = CommitEvent {
                stream: self.stream.clone(),
                seq,
                txn,
                tenant: None,
                uuids: Vec::new(),
                programs: Vec::new(),
            };
            for (k, v) in item.attrs.iter() {
                match k.as_str() {
                    "tenant" => ev.tenant = v.parse().ok().map(TenantId),
                    "uuid" => {
                        if let Ok(u) = v.parse() {
                            ev.uuids.push(u);
                        }
                    }
                    "prog" => ev.programs.push(v.clone()),
                    _ => {}
                }
            }
            pending.push(ev);
        }
        pending.sort_by_key(|e| e.seq);
        Ok(WriterState {
            next_seq: max_seq + 1,
            watermark,
            pending,
        })
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut WriterState) -> Result<R>) -> Result<R> {
        let mut guard = self.state.lock();
        if guard.is_none() {
            *guard = Some(self.recover()?);
        }
        f(guard.as_mut().expect("state recovered above"))
    }

    /// Durably stages one group's events under fresh sequence numbers.
    /// Must run **before** the group's WAL acknowledgement (crash point
    /// `p3:notify:stage`): a crash after staging redelivers and restages
    /// the transactions as duplicates, never losing them.
    pub fn stage(&self, touches: &[StagedTouches]) -> Result<Vec<CommitEvent>> {
        if touches.is_empty() {
            return Ok(Vec::new());
        }
        self.with_state(|st| {
            let domain = feed_domain(&self.config.layout.domain);
            let mut events = Vec::with_capacity(touches.len());
            let mut items = Vec::with_capacity(touches.len());
            for t in touches {
                let seq = st.next_seq;
                st.next_seq += 1;
                let mut attrs: Vec<(String, String)> = vec![("txn".into(), t.txn.to_string())];
                if let Some(tenant) = t.tenant {
                    attrs.push(("tenant".into(), tenant.0.to_string()));
                }
                for u in &t.uuids {
                    attrs.push(("uuid".into(), u.to_string()));
                }
                for p in &t.programs {
                    attrs.push(("prog".into(), p.clone()));
                }
                items.push(PutItem {
                    name: event_item_name(&self.stream, seq, t.txn),
                    attrs,
                    replace: false,
                });
                events.push(CommitEvent {
                    stream: self.stream.clone(),
                    seq,
                    txn: t.txn,
                    tenant: t.tenant,
                    uuids: t.uuids.clone(),
                    programs: t.programs.clone(),
                });
            }
            let sdb = self.sdb();
            for chunk in items.chunks(BATCH_LIMIT) {
                self.config.step(STAGE_POINT)?;
                retry(self.env.sim(), || {
                    sdb.batch_put_attributes(&domain, chunk.to_vec())
                })?;
            }
            st.pending.extend(events.iter().cloned());
            Ok(events)
        })
    }

    /// Publishes every staged-but-unpublished event to `sink` in
    /// sequence order, then advances the durable watermark. Must run
    /// **after** the group's WAL acknowledgement. Crash points:
    /// `p3:notify:publish` before the sink sees anything,
    /// `p3:notify:wm` between publish and the watermark write (a crash
    /// there republishes — duplicates, never gaps).
    pub fn flush(&self, sink: Option<&CommitEventSink>) -> Result<usize> {
        self.with_state(|st| {
            if st.pending.is_empty() {
                return Ok(0);
            }
            // Trace: the publish pass becomes one `feed` span per
            // published transaction (outside its root's commit window —
            // the feed is post-commit by construction).
            let tracer = self.env.tracer();
            let t_publish = self.env.sim().now();
            let publish_txns: Vec<Uuid> = if tracer.enabled() {
                let mut seen = std::collections::BTreeSet::new();
                st.pending
                    .iter()
                    .map(|e| e.txn)
                    .filter(|t| seen.insert(*t))
                    .collect()
            } else {
                Vec::new()
            };
            self.config.step(PUBLISH_POINT)?;
            let high = st.pending.last().map(|e| e.seq).unwrap_or(st.watermark);
            if let Some(sink) = sink {
                for ev in st.pending.drain(..) {
                    sink(ev);
                }
            } else {
                st.pending.clear();
            }
            self.config.step(WM_POINT)?;
            let sdb = self.sdb();
            let domain = feed_domain(&self.config.layout.domain);
            let published = (high - st.watermark) as usize;
            retry(self.env.sim(), || {
                sdb.put_attributes(
                    &domain,
                    PutItem {
                        name: watermark_item_name(&self.stream),
                        attrs: vec![("seq".into(), high.to_string())],
                        replace: true,
                    },
                )
            })?;
            st.watermark = high;
            let t_done = self.env.sim().now();
            for txn in publish_txns {
                if let Some(root) = tracer.root_ctx(txn.0) {
                    tracer.span(
                        txn.0,
                        Some(root.span),
                        "feed",
                        "feed",
                        None,
                        t_publish,
                        t_done,
                        0.0,
                    );
                }
            }
            Ok(published)
        })
    }
}

/// What [`audit_feed`] found in one stream's durable staging state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FeedAudit {
    /// Staged event items for the stream.
    pub events: usize,
    /// Distinct transactions among them (crash restaging duplicates a
    /// transaction under a fresh sequence — allowed).
    pub distinct_txns: usize,
    /// Highest staged sequence number.
    pub max_seq: u64,
    /// The stream's durable watermark (0 when never flushed).
    pub watermark: u64,
    /// Sequence numbers in `1..=max_seq` with no staged item — must be
    /// 0: staging allocates contiguously and never deletes.
    pub seq_gaps: u64,
    /// Sequence numbers staged more than once — must be 0: a sequence
    /// is allocated to exactly one event item.
    pub duplicate_seqs: u64,
    /// Distinct transactions among the staged events.
    pub txns: std::collections::BTreeSet<Uuid>,
}

impl FeedAudit {
    /// Staged-but-unpublished events (above the watermark). Non-zero
    /// after a crash between stage and watermark; must drain to 0 once
    /// a recovery daemon flushes.
    pub fn unpublished(&self) -> u64 {
        self.max_seq.saturating_sub(self.watermark)
    }
}

/// Audits one stream's slice of the feed domain against the storage-
/// level invariants (contiguous sequences, watermark ≤ max). Peeks
/// bypass metering and consistency: this is the invariant checker the
/// chaos explorer and the fleet harness call, not a consumer path.
pub fn audit_feed(env: &CloudEnv, domain: &str, stream: &str) -> FeedAudit {
    let wm_item = watermark_item_name(stream);
    let mut audit = FeedAudit::default();
    let mut seqs: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for (name, attrs) in env.sdb().peek_items(&feed_domain(domain)) {
        if name == wm_item {
            audit.watermark = watermark_seq(&attrs);
            continue;
        }
        let Some((seq, txn)) = parse_event_item(stream, &name) else {
            continue;
        };
        audit.events += 1;
        if !seqs.insert(seq) {
            audit.duplicate_seqs += 1;
        }
        audit.max_seq = audit.max_seq.max(seq);
        audit.txns.insert(txn);
    }
    audit.distinct_txns = audit.txns.len();
    audit.seq_gaps = audit.max_seq - seqs.len() as u64;
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::AwsProfile;
    use cloudprov_pass::PNodeId;
    use cloudprov_sim::Sim;

    fn setup() -> (Sim, CloudEnv) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        (sim, env)
    }

    fn touches(txn: u128, uuid: u128) -> StagedTouches {
        StagedTouches {
            txn: Uuid(txn),
            tenant: Some(TenantId(7)),
            uuids: vec![Uuid(uuid)],
            programs: vec!["prog".into()],
        }
    }

    #[test]
    fn stage_then_flush_publishes_in_order() {
        let (_sim, env) = setup();
        let w = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let sink: CommitEventSink = Arc::new(move |e: CommitEvent| seen2.lock().push(e));
        w.stage(&[touches(1, 10), touches(2, 20)]).unwrap();
        assert_eq!(w.flush(Some(&sink)).unwrap(), 2);
        let got = seen.lock().clone();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[1].seq, 2);
        assert_eq!(got[0].txn, Uuid(1));
        assert_eq!(got[0].tenant, Some(TenantId(7)));
        assert_eq!(got[0].uuids, vec![Uuid(10)]);
        assert_eq!(got[0].programs, vec!["prog".to_string()]);
        // Nothing pending after a flush.
        assert_eq!(w.flush(Some(&sink)).unwrap(), 0);
    }

    #[test]
    fn takeover_writer_republishes_unwatermarked_events() {
        // Writer A stages two events, publishes neither (crash before
        // publish). Writer B on the same stream recovers the backlog,
        // republishes it and continues the sequence without a gap.
        let (_sim, env) = setup();
        let a = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        a.stage(&[touches(1, 10), touches(2, 20)]).unwrap();
        drop(a);

        let b = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let sink: CommitEventSink = Arc::new(move |e: CommitEvent| seen2.lock().push(e));
        let staged = b.stage(&[touches(3, 30)]).unwrap();
        assert_eq!(staged[0].seq, 3, "sequence continues past the backlog");
        assert_eq!(b.flush(Some(&sink)).unwrap(), 3);
        let seqs: Vec<u64> = seen.lock().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "backlog first, in order, no gap");
    }

    #[test]
    fn watermark_survives_takeover_and_suppresses_republish() {
        let (_sim, env) = setup();
        let a = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        let sink: CommitEventSink = Arc::new(|_| {});
        a.stage(&[touches(1, 10)]).unwrap();
        a.flush(Some(&sink)).unwrap();
        drop(a);

        let b = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let sink: CommitEventSink = Arc::new(move |e: CommitEvent| seen2.lock().push(e));
        b.stage(&[touches(2, 20)]).unwrap();
        b.flush(Some(&sink)).unwrap();
        let seqs: Vec<u64> = seen.lock().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2], "published event is not replayed");
    }

    #[test]
    fn streams_are_independent() {
        let (_sim, env) = setup();
        let a = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        let b = FeedWriter::new(&env, ProtocolConfig::default(), "wal-b");
        let ea = a.stage(&[touches(1, 10)]).unwrap();
        let eb = b.stage(&[touches(2, 20)]).unwrap();
        assert_eq!(ea[0].seq, 1);
        assert_eq!(eb[0].seq, 1, "each stream numbers from 1");
    }

    #[test]
    fn audit_sees_contiguous_sequences_and_the_watermark() {
        let (_sim, env) = setup();
        let config = ProtocolConfig::default();
        let w = FeedWriter::new(&env, config.clone(), "wal-a");
        let sink: CommitEventSink = Arc::new(|_| {});
        w.stage(&[touches(1, 10), touches(2, 20)]).unwrap();
        let mid = audit_feed(&env, &config.layout.domain, "wal-a");
        assert_eq!(mid.events, 2);
        assert_eq!(mid.max_seq, 2);
        assert_eq!(mid.watermark, 0);
        assert_eq!(mid.unpublished(), 2, "staged but not yet published");
        w.flush(Some(&sink)).unwrap();
        w.stage(&[touches(3, 30)]).unwrap();
        w.flush(Some(&sink)).unwrap();
        let a = audit_feed(&env, &config.layout.domain, "wal-a");
        assert_eq!(a.events, 3);
        assert_eq!(a.distinct_txns, 3);
        assert_eq!(a.max_seq, 3);
        assert_eq!(a.watermark, 3);
        assert_eq!(a.unpublished(), 0);
        assert_eq!(a.seq_gaps, 0);
        assert_eq!(a.duplicate_seqs, 0);
        assert!(a.txns.contains(&Uuid(2)));
        // Another stream's slice is empty.
        let b = audit_feed(&env, &config.layout.domain, "wal-b");
        assert_eq!(b, FeedAudit::default());
    }

    #[test]
    fn event_item_names_round_trip() {
        let name = event_item_name("wal-1", 42, Uuid(9));
        assert_eq!(parse_event_item("wal-1", &name), Some((42, Uuid(9))));
        // A stream whose name extends this one's, the watermark item and
        // a truncated name are not this stream's events.
        assert_eq!(
            parse_event_item("wal-1", &event_item_name("wal-10", 1, Uuid(9))),
            None
        );
        assert_eq!(
            parse_event_item("wal-1", &watermark_item_name("wal-1")),
            None
        );
        assert_eq!(parse_event_item("wal-1", "evt_wal-1~000000000042"), None);
        let attrs = vec![("seq".to_string(), "17".to_string())];
        assert_eq!(watermark_seq(&attrs), 17);
        assert_eq!(watermark_seq(&[]), 0);
    }

    #[test]
    fn extract_touches_finds_uuids_and_programs() {
        let p = PNodeId::initial(Uuid(1));
        let f = PNodeId::initial(Uuid(2));
        // An ancestor referenced by xref only — never a subject in this
        // transaction. Its rev_ index pages still change, so the event
        // must name it.
        let elder = PNodeId::initial(Uuid(7));
        let records = vec![
            ProvenanceRecord::new(p, Attr::Type, "process"),
            ProvenanceRecord::new(p, Attr::Name, "sort"),
            ProvenanceRecord::new(f, Attr::Type, "file"),
            ProvenanceRecord::new(f, Attr::Name, "/out"),
            ProvenanceRecord::new(f, Attr::Input, p),
            ProvenanceRecord::new(p, Attr::Input, elder),
        ];
        let (uuids, programs) = extract_touches(&records);
        assert_eq!(uuids, vec![Uuid(1), Uuid(2), Uuid(7)]);
        assert_eq!(
            programs,
            vec!["sort".to_string()],
            "file names are not programs"
        );
    }
}
