//! Targeted group-commit crash schedules.
//!
//! The seeded explorer kills clients (and their daemons) at *counted*
//! crash-point crossings, so which step dies depends on the seed. The
//! group-commit engine's crash points — one per fan-out of its phase
//! table, [`commit_crash_points`] — guard cross-transaction invariants
//! that deserve aimed shots, not just coverage by luck: this module
//! takes that table as input, builds a multi-client
//! WAL backlog whose poll commits as one group, kills the daemon at a
//! *named* step occurrence (first chunk, second chunk, between GC and
//! ack…), recovers on a fresh daemon after the visibility window, and
//! machine-checks that the recommit converged — every transaction
//! committed exactly once, every object readable and coupled, no
//! phantom provenance in base or index, no WAL or temp debris.
//!
//! Everything is deterministic (instant profile, fixed identities), so
//! these schedules are CI-stable companions to the seeded sweep, which
//! `repro -- chaos` runs right after the seed table.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::{AwsProfile, Blob, CloudEnv, DEFAULT_VISIBILITY_TIMEOUT};
use cloudprov_core::cas::canonical_encoding;
use cloudprov_core::index::audit_index;
use cloudprov_core::properties::{causal_report, load_all_records};
use cloudprov_core::{
    audit_feed, cas_domain, commit_crash_points, kill_at_occurrence, sha256_hex, CommitDaemon,
    CouplingCheck, FlushBatch, FlushObject, Layout, Protocol, ProtocolConfig, ProtocolError,
    ProvenanceClient, StorageProtocol, CAS_OBJECT_PREFIX, P3,
};
use cloudprov_feed::{Predicate, Subscriptions};
use cloudprov_pass::{Attr, FlushNode, NodeKind, PNodeId, ProvenanceRecord, Uuid};
use cloudprov_sim::Sim;

/// The aimed group-commit schedules, derived from the engine's phase
/// table: the first crossing of every crash point it exports models a
/// death at that fan-out's barrier (a keyed point — the per-object copy
/// — is aimed at the schedule's first file), plus the *second* DB chunk,
/// a death between two cross-transaction chunks.
pub fn group_crash_points() -> Vec<(String, u64)> {
    let mut aimed = Vec::new();
    for point in commit_crash_points() {
        let mut step = point.to_string();
        if point.ends_with(':') {
            step += &file_key(0);
        }
        aimed.push((step.clone(), 1));
        if point == "p3:commit:group:db" {
            aimed.push((step, 2));
        }
    }
    aimed
}

/// Transactions each schedule logs before the dying daemon polls.
const TXNS: u128 = 6;

/// Verdict of one targeted schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupCrashOutcome {
    /// The step the schedule aimed at.
    pub step: String,
    /// Which occurrence of the step was killed.
    pub occurrence: u64,
    /// Whether the aimed step was actually reached (the schedule is
    /// vacuous otherwise — surfaced so CI notices a renamed step).
    pub fired: bool,
    /// Transactions the dying daemon acknowledged before the kill.
    pub committed_before: u64,
    /// Distinct transactions committed across both daemons.
    pub unique_committed: u64,
    /// Transactions committed more than once (must be 0).
    pub double_commits: u64,
    /// Objects that read back uncoupled after recovery (must be 0).
    pub uncoupled: usize,
    /// WAL messages surviving recovery (must be 0).
    pub wal_leftover: usize,
    /// Temp objects surviving recovery (must be 0).
    pub temp_leftover: usize,
    /// Ancestry-index ↔ base-record disagreements (must be 0).
    pub index_inconsistencies: usize,
}

impl GroupCrashOutcome {
    /// Hard violations; empty means the schedule converged.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.fired {
            v.push(format!(
                "crash point {}#{} never fired — schedule is vacuous",
                self.step, self.occurrence
            ));
        }
        if self.double_commits > 0 {
            v.push(format!("{} double commits", self.double_commits));
        }
        if self.unique_committed != TXNS as u64 {
            v.push(format!(
                "only {} of {TXNS} transactions recommitted",
                self.unique_committed
            ));
        }
        if self.uncoupled > 0 {
            v.push(format!(
                "{} objects uncoupled after recovery",
                self.uncoupled
            ));
        }
        if self.wal_leftover > 0 {
            v.push(format!("{} WAL messages left", self.wal_leftover));
        }
        if self.temp_leftover > 0 {
            v.push(format!("{} temp objects left", self.temp_leftover));
        }
        if self.index_inconsistencies > 0 {
            v.push(format!("{} index divergences", self.index_inconsistencies));
        }
        v
    }
}

/// Final key of schedule file `i`.
fn file_key(i: u128) -> String {
    format!("grp/f{i}")
}

fn file_with_ancestor(i: u128) -> Vec<FlushObject> {
    let proc_id = PNodeId::initial(Uuid(0x7a00 + i));
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
    let id = PNodeId::initial(Uuid(0x7b00 + i));
    let payload = format!("payload-{i}");
    let blob = Blob::from(payload.as_str());
    let key = file_key(i);
    let file = FlushObject::file(
        FlushNode {
            id,
            kind: NodeKind::File,
            name: Some(format!("/{key}")),
            records: vec![
                ProvenanceRecord::new(id, Attr::Type, "file"),
                ProvenanceRecord::new(id, Attr::Name, key.clone()),
                ProvenanceRecord::new(
                    id,
                    Attr::DataHash,
                    format!("{:016x}", blob.content_fingerprint()),
                ),
                ProvenanceRecord::new(id, Attr::Input, proc_id),
            ],
            data_hash: Some(blob.content_fingerprint()),
        },
        key,
        blob,
    );
    vec![proc, file]
}

/// Runs one aimed schedule: log six (`TXNS`) transactions from distinct
/// client identities onto one shared queue, kill a daemon at the aimed
/// group-commit step, wait out the visibility window, recover with a
/// fresh daemon, and check convergence.
pub fn run_group_crash(step: &str, occurrence: u64) -> GroupCrashOutcome {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    let queue = "wal-group-targeted";
    for i in 0..TXNS {
        let client = P3::with_identity(
            &env,
            ProtocolConfig::default(),
            queue,
            &format!("client-{i}"),
        );
        client
            .flush(FlushBatch {
                objects: file_with_ancestor(i),
            })
            .expect("log phase");
    }
    let committed_ids = Arc::new(Mutex::new(Vec::<Uuid>::new()));
    let register = |daemon: &CommitDaemon| {
        let ids = committed_ids.clone();
        daemon.set_commit_listener(Arc::new(move |txn| ids.lock().push(txn)));
    };
    let (hook, fired) = kill_at_occurrence(step, occurrence);
    let dying_cfg = ProtocolConfig {
        step_hook: Some(hook),
        ..ProtocolConfig::default()
    };
    let url = format!("sqs://{queue}");
    let dying = CommitDaemon::new(&env, dying_cfg, &url);
    register(&dying);
    // The kill surfaces as a Crashed error; a miss (schedule vacuous)
    // drains cleanly instead and is reported via `fired`.
    let crashed = matches!(dying.run_until_idle(), Err(ProtocolError::Crashed { .. }));
    let committed_before = dying.committed_transactions();
    sim.sleep(DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));
    let recovery = CommitDaemon::new(&env, ProtocolConfig::default(), &url);
    register(&recovery);
    recovery.run_until_idle().expect("recovery drain");

    let ids = committed_ids.lock().clone();
    let distinct: BTreeSet<Uuid> = ids.iter().copied().collect();
    let layout = Layout::default();
    let reader = P3::with_identity(&env, ProtocolConfig::default(), queue, "reader");
    let mut uncoupled = 0;
    for i in 0..TXNS {
        match reader.read(&file_key(i)) {
            Ok(r) if r.coupling == CouplingCheck::Coupled => {}
            _ => uncoupled += 1,
        }
    }
    let audit = audit_index(&env, &layout);
    GroupCrashOutcome {
        step: step.to_string(),
        occurrence,
        fired: crashed && fired.load(Ordering::Relaxed),
        committed_before,
        unique_committed: distinct.len() as u64,
        double_commits: (ids.len() - distinct.len()) as u64,
        uncoupled,
        wal_leftover: env.sqs().peek_depth(&url),
        temp_leftover: env
            .s3()
            .peek_count(&layout.data_bucket, &layout.temp_prefix),
        index_inconsistencies: audit.inconsistencies(),
    }
}

/// Runs every aimed schedule of [`group_crash_points`].
pub fn group_crash_schedules() -> Vec<GroupCrashOutcome> {
    group_crash_points()
        .iter()
        .map(|(step, occ)| run_group_crash(step, *occ))
        .collect()
}

/// The change-feed crash points, one aimed shot each: death before the
/// group's events stage (the WAL stays unacked, the group restages on
/// recommit), death between the group ack and the publish (the backlog
/// drains on the takeover daemon's first flush), and death between the
/// publish and the watermark write (the takeover republishes —
/// duplicates, never gaps).
pub const NOTIFY_CRASH_POINTS: &[(&str, u64)] = &[
    ("p3:notify:stage", 1),
    ("p3:notify:publish", 1),
    ("p3:notify:wm", 1),
];

/// Verdict of one aimed change-feed schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotifyCrashOutcome {
    /// The step the schedule aimed at.
    pub step: &'static str,
    /// Which occurrence of the step was killed.
    pub occurrence: u64,
    /// Whether the aimed step was actually reached (vacuous otherwise).
    pub fired: bool,
    /// Distinct transactions committed across both daemons.
    pub unique_committed: u64,
    /// Transactions committed more than once (must be 0).
    pub double_commits: u64,
    /// Committed transactions the live subscription never saw — the
    /// at-least-once guarantee (must be 0).
    pub feed_missing: u64,
    /// Duplicate deliveries the subscription saw (allowed — crash
    /// replay produces them; reported for the table).
    pub feed_duplicates: u64,
    /// Bus-level sequence gaps plus out-of-order deliveries (must be 0).
    pub feed_gaps: u64,
    /// Staged events above the durable watermark after recovery (must
    /// be 0: the takeover daemon's flush drains the backlog).
    pub feed_unpublished: u64,
    /// WAL messages surviving recovery (must be 0).
    pub wal_leftover: usize,
    /// Temp objects surviving recovery (must be 0).
    pub temp_leftover: usize,
    /// Ancestry-index ↔ base-record disagreements (must be 0).
    pub index_inconsistencies: usize,
}

impl NotifyCrashOutcome {
    /// Hard violations; empty means the schedule converged.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.fired {
            v.push(format!(
                "crash point {}#{} never fired — schedule is vacuous",
                self.step, self.occurrence
            ));
        }
        if self.double_commits > 0 {
            v.push(format!("{} double commits", self.double_commits));
        }
        if self.unique_committed != TXNS as u64 {
            v.push(format!(
                "only {} of {TXNS} transactions recommitted",
                self.unique_committed
            ));
        }
        if self.feed_missing > 0 {
            v.push(format!(
                "{} committed transactions never reached the feed",
                self.feed_missing
            ));
        }
        if self.feed_gaps > 0 {
            v.push(format!("{} feed sequence gaps", self.feed_gaps));
        }
        if self.feed_unpublished > 0 {
            v.push(format!(
                "{} staged feed events never published",
                self.feed_unpublished
            ));
        }
        if self.wal_leftover > 0 {
            v.push(format!("{} WAL messages left", self.wal_leftover));
        }
        if self.temp_leftover > 0 {
            v.push(format!("{} temp objects left", self.temp_leftover));
        }
        if self.index_inconsistencies > 0 {
            v.push(format!("{} index divergences", self.index_inconsistencies));
        }
        v
    }
}

/// Runs one aimed change-feed schedule: log six (`TXNS`) transactions,
/// run a feed-enabled daemon wired to a live [`Subscriptions`] bus, kill it at
/// the aimed `p3:notify:*` occurrence, recover with a fresh feed-enabled
/// daemon on the same bus, and check the delivery contract end to end —
/// every committed transaction seen at least once, in sequence order,
/// duplicates allowed, gaps and losses not.
pub fn run_notify_crash(step: &'static str, occurrence: u64) -> NotifyCrashOutcome {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    let queue = "wal-notify-targeted";
    for i in 0..TXNS {
        let client = P3::with_identity(
            &env,
            ProtocolConfig::default(),
            queue,
            &format!("client-{i}"),
        );
        client
            .flush(FlushBatch {
                objects: file_with_ancestor(i),
            })
            .expect("log phase");
    }
    let subs = Subscriptions::new(&sim);
    let sub = subs
        .subscribe(None, Predicate::All)
        .expect("fresh registry cannot be over quota");
    let committed_ids = Arc::new(Mutex::new(Vec::<Uuid>::new()));
    let register = |daemon: &CommitDaemon| {
        let ids = committed_ids.clone();
        daemon.set_commit_listener(Arc::new(move |txn| ids.lock().push(txn)));
        daemon.set_event_sink(subs.sink());
    };
    let feed_cfg = ProtocolConfig {
        feed: true,
        ..ProtocolConfig::default()
    };
    let (hook, fired) = kill_at_occurrence(step, occurrence);
    let dying_cfg = ProtocolConfig {
        step_hook: Some(hook),
        ..feed_cfg.clone()
    };
    let url = format!("sqs://{queue}");
    let dying = CommitDaemon::new(&env, dying_cfg, &url);
    register(&dying);
    let crashed = matches!(dying.run_until_idle(), Err(ProtocolError::Crashed { .. }));
    sim.sleep(DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));
    let recovery = CommitDaemon::new(&env, feed_cfg, &url);
    register(&recovery);
    recovery.run_until_idle().expect("recovery drain");

    let ids = committed_ids.lock().clone();
    let distinct: BTreeSet<Uuid> = ids.iter().copied().collect();
    let mut seen: BTreeSet<Uuid> = BTreeSet::new();
    while let Some(ev) = sub.try_next() {
        seen.insert(ev.txn);
    }
    let stats = subs.stats();
    let layout = Layout::default();
    let feed = audit_feed(&env, &layout.domain, queue);
    NotifyCrashOutcome {
        step,
        occurrence,
        fired: crashed && fired.load(Ordering::Relaxed),
        unique_committed: distinct.len() as u64,
        double_commits: (ids.len() - distinct.len()) as u64,
        feed_missing: distinct.iter().filter(|t| !seen.contains(t)).count() as u64,
        feed_duplicates: stats.duplicates,
        feed_gaps: stats.gaps + sub.out_of_order() + feed.seq_gaps + feed.duplicate_seqs,
        feed_unpublished: feed.unpublished(),
        wal_leftover: env.sqs().peek_depth(&url),
        temp_leftover: env
            .s3()
            .peek_count(&layout.data_bucket, &layout.temp_prefix),
        index_inconsistencies: audit_index(&env, &layout).inconsistencies(),
    }
}

/// Runs every aimed schedule in [`NOTIFY_CRASH_POINTS`].
pub fn notify_crash_schedules() -> Vec<NotifyCrashOutcome> {
    NOTIFY_CRASH_POINTS
        .iter()
        .map(|(step, occ)| run_notify_crash(step, *occ))
        .collect()
}

/// The client-side content-addressed-store crash points, aimed at the
/// fourth of six flushes so survivors bracket the death. Each flush
/// stages two publish units (an ancestor process, then a data-carrying
/// file), so the occurrences land: death before the batch's first
/// registry probe; death between the file's probe and its data upload;
/// death at the batch's first registry put (the publish commit point);
/// and death at the *second* registry put — after one unit fully
/// published, the guaranteed stranded-garbage shot.
pub const CAS_CRASH_POINTS: &[(&str, u64)] = &[
    ("client:cas:probe", 7),
    ("client:cas:publish", 4),
    ("client:cas:register", 7),
    ("client:cas:register", 8),
];

/// Verdict of one aimed CAS-publish crash schedule. The tentpole
/// invariant: a client killed anywhere inside the speculative publish
/// may strand *unreferenced* CAS garbage (re-publishable, harmless) but
/// must never log a WAL transaction referencing content that is not
/// durably published — acknowledged flushes all recommit, dead flushes
/// contribute nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CasCrashOutcome {
    /// The step the schedule aimed at.
    pub step: &'static str,
    /// Which occurrence of the step was killed.
    pub occurrence: u64,
    /// Whether the aimed step was actually reached (vacuous otherwise).
    pub fired: bool,
    /// Flushes whose `sync` barrier returned Ok before the death — the
    /// client's durability promises.
    pub acked_flushes: u64,
    /// Flushes whose `sync` barrier surfaced the crash.
    pub failed_flushes: u64,
    /// WAL messages found when recovery started (must equal
    /// `acked_flushes`: no dead flush may half-log a transaction).
    pub wal_backlog: usize,
    /// Distinct transactions the recovery daemon committed (must equal
    /// `acked_flushes`).
    pub unique_committed: u64,
    /// Transactions committed more than once (must be 0).
    pub double_commits: u64,
    /// Acked files that read back missing or uncoupled (must be 0).
    pub unreadable_acked: usize,
    /// Ancestor references in the committed provenance with no matching
    /// record — the §3 causal-ordering check (must be 0).
    pub dangling_ancestors: usize,
    /// CAS registry entries no acknowledged flush references (allowed —
    /// stranded garbage, re-publishable; reported for the table).
    pub stranded_registry: usize,
    /// CAS data objects no acknowledged flush references (allowed).
    pub stranded_data: usize,
    /// WAL messages surviving recovery (must be 0).
    pub wal_leftover: usize,
    /// Temp objects surviving recovery (must be 0).
    pub temp_leftover: usize,
    /// Ancestry-index ↔ base-record disagreements (must be 0).
    pub index_inconsistencies: usize,
}

impl CasCrashOutcome {
    /// Hard violations; empty means the schedule converged. Stranded
    /// CAS garbage is deliberately *not* a violation — the design trades
    /// re-publishable garbage for never dangling a WAL reference.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.fired {
            v.push(format!(
                "crash point {}#{} never fired — schedule is vacuous",
                self.step, self.occurrence
            ));
        }
        if self.wal_backlog as u64 != self.acked_flushes {
            v.push(format!(
                "{} WAL transactions for {} acked flushes — a dead flush half-logged",
                self.wal_backlog, self.acked_flushes
            ));
        }
        if self.unique_committed != self.acked_flushes {
            v.push(format!(
                "{} of {} acked flushes recommitted",
                self.unique_committed, self.acked_flushes
            ));
        }
        if self.double_commits > 0 {
            v.push(format!("{} double commits", self.double_commits));
        }
        if self.unreadable_acked > 0 {
            v.push(format!(
                "{} acked objects unreadable after recovery",
                self.unreadable_acked
            ));
        }
        if self.dangling_ancestors > 0 {
            v.push(format!(
                "{} dangling ancestor references",
                self.dangling_ancestors
            ));
        }
        if self.wal_leftover > 0 {
            v.push(format!("{} WAL messages left", self.wal_leftover));
        }
        if self.temp_leftover > 0 {
            v.push(format!("{} temp objects left", self.temp_leftover));
        }
        if self.index_inconsistencies > 0 {
            v.push(format!("{} index divergences", self.index_inconsistencies));
        }
        v
    }
}

/// Runs one aimed CAS crash schedule: a pipelined CAS-enabled client
/// flushes six (`TXNS`) batches (one `sync` barrier each, so
/// acknowledgement is per-batch), dies at the aimed `client:cas:*` occurrence, and is
/// abandoned mid-run; after the visibility window a fresh daemon drains
/// whatever the dead client logged, and the outcome checks the publish
/// ordering contract — every acknowledged flush recommits, nothing a
/// dead flush touched reached the WAL, and any stranded CAS content is
/// unreferenced garbage rather than a broken reference.
pub fn run_cas_crash(step: &'static str, occurrence: u64) -> CasCrashOutcome {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    let queue = "wal-cas-targeted";
    let (hook, fired) = kill_at_occurrence(step, occurrence);
    let dying = ProvenanceClient::builder(Protocol::P3)
        .pipelined()
        .queue(queue)
        .step_hook(hook)
        .build(&env);
    let mut acked = 0u64;
    let mut failed = 0u64;
    for i in 0..TXNS {
        dying.flush_async(FlushBatch {
            objects: file_with_ancestor(i),
        });
        match dying.sync() {
            Ok(()) => acked += 1,
            Err(_) => failed += 1,
        }
    }
    let url = format!("sqs://{queue}");
    sim.sleep(DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));
    let wal_backlog = env.sqs().peek_depth(&url);
    let committed_ids = Arc::new(Mutex::new(Vec::<Uuid>::new()));
    let recovery = CommitDaemon::new(&env, ProtocolConfig::default(), &url);
    {
        let ids = committed_ids.clone();
        recovery.set_commit_listener(Arc::new(move |txn| ids.lock().push(txn)));
    }
    recovery.run_until_idle().expect("recovery drain");

    let ids = committed_ids.lock().clone();
    let distinct: BTreeSet<Uuid> = ids.iter().copied().collect();
    let layout = Layout::default();
    let reader = P3::with_identity(&env, ProtocolConfig::default(), queue, "reader");
    let mut unreadable_acked = 0;
    for i in 0..acked as u128 {
        match reader.read(&file_key(i)) {
            Ok(r) if r.coupling == CouplingCheck::Coupled => {}
            _ => unreadable_acked += 1,
        }
    }
    // The committed provenance must satisfy §3 causal ordering: no
    // record may cite an ancestor the store does not hold.
    let store = reader.provenance_store().expect("P3 stores provenance");
    let records = load_all_records(&env, &store).expect("scan provenance");
    let dangling_ancestors = causal_report(&records).dangling.len();
    // Hashes the acknowledged flushes reference — recomputed from the
    // same canonical encoding the client used. Anything else in the
    // registry or under `cas/` is stranded garbage the crash left.
    let published: BTreeSet<String> = (0..acked as u128)
        .flat_map(|i| {
            file_with_ancestor(i).into_iter().map(|obj| {
                let enc = canonical_encoding(&obj).expect("schedule objects are CAS-eligible");
                sha256_hex(enc.as_bytes())
            })
        })
        .collect();
    let stranded_registry = env
        .sdb()
        .peek_items(&cas_domain(&layout.domain))
        .into_iter()
        .filter(|(sha, _)| !published.contains(sha))
        .count();
    let stranded_data = env
        .s3()
        .list_all(&layout.data_bucket, CAS_OBJECT_PREFIX)
        .expect("list cas prefix")
        .into_iter()
        .filter(|k| !published.contains(k.key.strip_prefix(CAS_OBJECT_PREFIX).unwrap_or(&k.key)))
        .count();
    CasCrashOutcome {
        step,
        occurrence,
        fired: failed > 0 && fired.load(Ordering::Relaxed),
        acked_flushes: acked,
        failed_flushes: failed,
        wal_backlog,
        unique_committed: distinct.len() as u64,
        double_commits: (ids.len() - distinct.len()) as u64,
        unreadable_acked,
        dangling_ancestors,
        stranded_registry,
        stranded_data,
        wal_leftover: env.sqs().peek_depth(&url),
        temp_leftover: env
            .s3()
            .peek_count(&layout.data_bucket, &layout.temp_prefix),
        index_inconsistencies: audit_index(&env, &layout).inconsistencies(),
    }
}

/// Runs every aimed schedule in [`CAS_CRASH_POINTS`].
pub fn cas_crash_schedules() -> Vec<CasCrashOutcome> {
    CAS_CRASH_POINTS
        .iter()
        .map(|(step, occ)| run_cas_crash(step, *occ))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_aimed_schedule_fires_and_converges() {
        let outcomes = group_crash_schedules();
        for o in &outcomes {
            assert!(
                o.violations().is_empty(),
                "{}#{}: {:?}\n{o:#?}",
                o.step,
                o.occurrence,
                o.violations()
            );
        }
        // Every crash point the phase table exports is aimed at — a new
        // phase cannot land without its kill schedule.
        for point in commit_crash_points() {
            assert!(
                outcomes.iter().any(|o| o.step.starts_with(point)),
                "no schedule aims at {point}"
            );
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let (step, occ) = &group_crash_points()[1];
        assert_eq!(run_group_crash(step, *occ), run_group_crash(step, *occ));
    }

    #[test]
    fn a_vacuous_schedule_is_reported_not_hidden() {
        let o = run_group_crash("p3:commit:group:db", 999);
        assert!(!o.fired);
        assert!(
            o.violations().iter().any(|v| v.contains("never fired")),
            "{o:?}"
        );
    }

    #[test]
    fn every_notify_schedule_fires_and_converges() {
        for o in notify_crash_schedules() {
            assert!(
                o.violations().is_empty(),
                "{}#{}: {:?}\n{o:#?}",
                o.step,
                o.occurrence,
                o.violations()
            );
        }
    }

    #[test]
    fn a_watermark_crash_produces_duplicates_never_gaps() {
        // Death between publish and the watermark write is the aimed
        // duplicate generator: the takeover daemon republishes the whole
        // backlog. The contract allows exactly that — and nothing worse.
        let o = run_notify_crash("p3:notify:wm", 1);
        assert!(o.violations().is_empty(), "{o:#?}");
        assert!(
            o.feed_duplicates >= TXNS as u64,
            "republish after a watermark crash must duplicate the group: {o:#?}"
        );
        assert_eq!(o.feed_gaps, 0);
        assert_eq!(o.feed_missing, 0);
    }

    #[test]
    fn notify_schedules_are_deterministic() {
        let (step, occ) = NOTIFY_CRASH_POINTS[0];
        assert_eq!(run_notify_crash(step, occ), run_notify_crash(step, occ));
    }

    #[test]
    fn every_cas_schedule_fires_and_converges() {
        for o in cas_crash_schedules() {
            assert!(
                o.violations().is_empty(),
                "{}#{}: {:?}\n{o:#?}",
                o.step,
                o.occurrence,
                o.violations()
            );
            assert!(
                o.acked_flushes >= 1 && o.failed_flushes >= 1,
                "the death must land mid-run, with flushes on both sides: {o:#?}"
            );
        }
    }

    #[test]
    fn a_death_after_a_completed_publish_strands_garbage_never_a_reference() {
        // The second register crossing of the dying batch fires only
        // after the first succeeded, so at least one publish unit of a
        // never-acknowledged flush is fully durable in the registry.
        // The design's trade must be visible: that content is stranded
        // (unreferenced, re-publishable garbage) — and nothing dangles.
        let o = run_cas_crash("client:cas:register", 8);
        assert!(o.violations().is_empty(), "{o:#?}");
        assert!(
            o.stranded_registry + o.stranded_data >= 1,
            "a completed publish of a dead flush must strand content: {o:#?}"
        );
        assert_eq!(o.dangling_ancestors, 0);
        assert_eq!(o.unique_committed, o.acked_flushes);
    }

    #[test]
    fn cas_schedules_are_deterministic() {
        let (step, occ) = CAS_CRASH_POINTS[1];
        assert_eq!(run_cas_crash(step, occ), run_cas_crash(step, occ));
    }
}
