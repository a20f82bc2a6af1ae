//! Aimed crash schedules: one runner, three crash-point families.
//!
//! The seeded explorer kills clients (and their daemons) at *counted*
//! crash-point crossings, so which step dies depends on the seed. The
//! crash points that guard cross-transaction invariants deserve aimed
//! shots, not just coverage by luck. Each family's points are exported
//! by the core module that crosses them, and [`aimed_schedules`] builds
//! one [`Aimed`] row per shot from those exports:
//!
//! * [`Family::Group`] — the group-commit engine's phase table
//!   ([`commit_crash_points`]): a daemon dies mid-group over a
//!   six-transaction WAL backlog.
//! * [`Family::Notify`] — the change feed's stage/publish/watermark
//!   points ([`notify_crash_points`]): a feed-enabled daemon dies with a
//!   live subscription riding both it and its successor.
//! * [`Family::Cas`] — the speculative ancestor publish
//!   ([`cas_crash_points`]): a pipelined CAS client dies mid-run.
//!
//! [`run_aimed`] kills at the named step occurrence, waits out the
//! visibility window, drains the WAL on a fresh daemon, and collects the
//! same [`Audit`] the explorer does. Everything is deterministic (instant
//! profile, fixed identities), so these schedules are CI-stable
//! companions to the seeded sweep, which `repro -- chaos` runs right
//! after the seed table.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::{AwsProfile, Blob, CloudEnv, DEFAULT_VISIBILITY_TIMEOUT};
use cloudprov_core::cas::canonical_encoding;
use cloudprov_core::{
    cas_crash_points, cas_domain, commit_crash_points, kill_at_occurrence, notify_crash_points,
    sha256_hex, CommitDaemon, FlushBatch, FlushObject, Layout, Protocol, ProtocolConfig,
    ProtocolError, ProvenanceClient, StepHook, StorageProtocol, CAS_OBJECT_PREFIX, P3,
};
use cloudprov_feed::{Predicate, Subscriptions};
use cloudprov_pass::{Attr, FlushNode, NodeKind, PNodeId, ProvenanceRecord, Uuid};
use cloudprov_sim::Sim;

use crate::audit::{Audit, Recovered};

/// Transactions each schedule logs.
const TXNS: u128 = 6;

/// Which crash-point family an aimed schedule shoots at — and so what
/// dies: the commit daemon (`Group`, `Notify`) or the client (`Cas`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `p3:commit:*`: a daemon killed mid-group.
    Group,
    /// `p3:notify:*`: a feed-enabled daemon killed around the publish.
    Notify,
    /// `client:cas:*`: a pipelined client killed inside the publish.
    Cas,
}

/// One aimed shot: kill at the `occurrence`-th crossing of `step`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Aimed {
    /// The crash-point family `step` belongs to.
    pub family: Family,
    /// The crash point.
    pub step: String,
    /// Which crossing of the step kills.
    pub occurrence: u64,
}

/// Every aimed schedule, group-commit first, in the order `repro --
/// chaos` prints them.
pub fn aimed_schedules() -> Vec<Aimed> {
    let aim = |family, step: &str, occurrence| Aimed {
        family,
        step: step.to_string(),
        occurrence,
    };
    let mut aims = Vec::new();
    // The first crossing of every group-commit point models a death at
    // that fan-out's barrier (a keyed point — the per-object copy — is
    // aimed at the schedule's first file), plus the *second* DB chunk, a
    // death between two cross-transaction chunks.
    for point in commit_crash_points() {
        let step = if point.ends_with(':') {
            format!("{point}{}", file_key(0))
        } else {
            point.to_string()
        };
        aims.push(aim(Family::Group, &step, 1));
        if point.ends_with(":db") {
            aims.push(aim(Family::Group, &step, 2));
        }
    }
    // Death before the group's events stage (the WAL stays unacked, the
    // group restages on recommit), between the group ack and the publish
    // (the backlog drains on the takeover daemon's first flush), and
    // between the publish and the watermark write (the takeover
    // republishes — duplicates, never gaps).
    for point in notify_crash_points() {
        aims.push(aim(Family::Notify, point, 1));
    }
    // Aimed at the fourth of six flushes so survivors bracket the death.
    // Each flush stages two publish units (an ancestor process, then a
    // data-carrying file), so the occurrences land: death before the
    // batch's first registry probe; death between the file's probe and
    // its data upload; death at the batch's first registry put (the
    // publish commit point); and death at the *second* registry put —
    // after one unit fully published, the guaranteed stranded-garbage
    // shot.
    let [probe, publish, register] = cas_crash_points();
    for (point, occurrence) in [(probe, 7), (publish, 4), (register, 7), (register, 8)] {
        aims.push(aim(Family::Cas, point, occurrence));
    }
    aims
}

/// Verdict of one aimed schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct AimedOutcome {
    /// The shot.
    pub aim: Aimed,
    /// Whether the aimed step was reached and the kill surfaced (the
    /// schedule is vacuous otherwise — surfaced so CI notices a renamed
    /// step).
    pub fired: bool,
    /// Flushes acknowledged before the death — the durability promises.
    pub acked: u64,
    /// Flushes whose `sync` barrier surfaced the crash.
    pub failed: u64,
    /// WAL messages found when the first daemon started (must equal
    /// `acked`: no dead flush may half-log a transaction).
    pub wal_backlog: usize,
    /// CAS registry entries no acknowledged flush references (allowed —
    /// stranded garbage, re-publishable).
    pub stranded_registry: usize,
    /// CAS data objects no acknowledged flush references (allowed).
    pub stranded_data: usize,
    /// What recovery left behind.
    pub audit: Audit,
}

impl AimedOutcome {
    /// Hard violations; empty means the schedule converged. Stranded
    /// CAS garbage is deliberately *not* a violation — the design trades
    /// re-publishable garbage for never dangling a WAL reference.
    pub fn violations(&self) -> Vec<String> {
        let Aimed {
            step, occurrence, ..
        } = &self.aim;
        let mut v = Vec::new();
        if !self.fired {
            v.push(format!(
                "crash point {step}#{occurrence} never fired — schedule is vacuous"
            ));
        }
        if self.wal_backlog as u64 != self.acked {
            v.push(format!(
                "{} WAL transactions for {} acked flushes — a dead flush half-logged",
                self.wal_backlog, self.acked
            ));
        }
        if self.audit.unique_commits != self.acked {
            v.push(format!(
                "{} of {} acked flushes recommitted",
                self.audit.unique_commits, self.acked
            ));
        }
        v.extend(self.audit.violations());
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

/// Runs one aimed schedule. `Group` and `Notify` log six (`TXNS`)
/// transactions from distinct client identities onto one shared queue
/// and kill the daemon that drains them; `Cas` has a pipelined client
/// flush them (one `sync` barrier each) and kills the client. After the
/// visibility window a fresh daemon drains whatever is left, and the
/// audit checks the recovery converged: every acknowledged flush
/// committed exactly once and reads back coupled, nothing a dead flush
/// touched reached the WAL, and no WAL, temp or index debris is left.
pub fn run_aimed(aim: &Aimed) -> AimedOutcome {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    let queue = match aim.family {
        Family::Group => "wal-group-targeted",
        Family::Notify => "wal-notify-targeted",
        Family::Cas => "wal-cas-targeted",
    };
    let url = format!("sqs://{queue}");
    let feed = aim.family == Family::Notify;
    let (hook, hit) = kill_at_occurrence(aim.step.as_str(), aim.occurrence);
    let window = DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1);
    let mut acked = 0u64;
    let mut failed = 0u64;
    if aim.family == Family::Cas {
        let dying = ProvenanceClient::builder(Protocol::P3)
            .pipelined()
            .queue(queue)
            .step_hook(hook.clone())
            .build(&env);
        for i in 0..TXNS {
            dying.flush_async(FlushBatch {
                objects: file_with_ancestor(i),
            });
            match dying.sync() {
                Ok(()) => acked += 1,
                Err(_) => failed += 1,
            }
        }
        sim.sleep(window);
    } else {
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
            acked += 1;
        }
    }
    let wal_backlog = env.sqs().peek_depth(&url);
    let live = feed.then(|| {
        let subs = Subscriptions::new(&sim);
        let sub = subs
            .subscribe(None, Predicate::All)
            .expect("fresh registry cannot be over quota");
        (subs, sub)
    });
    let committed = Arc::new(Mutex::new(Vec::<Uuid>::new()));
    let daemon = |step_hook: Option<StepHook>| {
        let config = ProtocolConfig {
            feed,
            step_hook,
            ..ProtocolConfig::default()
        };
        let daemon = CommitDaemon::new(&env, config, &url);
        let ids = committed.clone();
        daemon.set_commit_listener(Arc::new(move |txn| ids.lock().push(txn)));
        if let Some((subs, _)) = &live {
            daemon.set_event_sink(subs.sink());
        }
        daemon
    };
    // The dying party must surface the kill: a miss (schedule vacuous)
    // drains cleanly instead and is reported via `fired`.
    let surfaced = if aim.family == Family::Cas {
        failed > 0
    } else {
        let dying = daemon(Some(hook));
        let crashed = matches!(dying.run_until_idle(), Err(ProtocolError::Crashed { .. }));
        sim.sleep(window);
        crashed
    };
    daemon(None).run_until_idle().expect("recovery drain");

    let layout = Layout::default();
    let reader = P3::with_identity(&env, ProtocolConfig::default(), queue, "reader");
    let keys: Vec<String> = (0..TXNS).map(file_key).collect();
    let promised: BTreeSet<String> = keys[..acked as usize].iter().cloned().collect();
    let committed = committed.lock().clone();
    // Hashes the acknowledged flushes reference — recomputed from the
    // same canonical encoding the client used. Anything else in the
    // registry or under `cas/` is stranded garbage the crash left.
    let published: BTreeSet<String> = (0..acked as u128)
        .flat_map(file_with_ancestor)
        .map(|obj| {
            let enc = canonical_encoding(&obj).expect("schedule objects are CAS-eligible");
            sha256_hex(enc.as_bytes())
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
    let audit = Audit::collect(&Recovered {
        env: &env,
        reader: &reader,
        layout: &layout,
        keys: &keys,
        promised: &promised,
        wal: Some((queue, &url)),
        committed: &committed,
        feed,
        live: live.as_ref().map(|(subs, sub)| (subs, sub)),
    });
    AimedOutcome {
        aim: aim.clone(),
        fired: surfaced && hit.load(Ordering::Relaxed),
        acked,
        failed,
        wal_backlog,
        stranded_registry,
        stranded_data,
        audit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family(f: Family) -> Vec<AimedOutcome> {
        aimed_schedules()
            .iter()
            .filter(|a| a.family == f)
            .map(run_aimed)
            .collect()
    }

    fn assert_converged(outcomes: &[AimedOutcome]) {
        for o in outcomes {
            assert!(
                o.violations().is_empty(),
                "{}#{}: {:?}\n{o:#?}",
                o.aim.step,
                o.aim.occurrence,
                o.violations()
            );
        }
    }

    fn nth(f: Family, i: usize) -> Aimed {
        aimed_schedules()
            .into_iter()
            .filter(|a| a.family == f)
            .nth(i)
            .expect("family has the row")
    }

    #[test]
    fn every_aimed_schedule_fires_and_converges() {
        let aims = aimed_schedules();
        assert_converged(&family(Family::Group));
        // Every crash point core exports is aimed at — a new phase,
        // notify step or publish step cannot land without its kill
        // schedule.
        let points = commit_crash_points()
            .into_iter()
            .chain(notify_crash_points())
            .chain(cas_crash_points());
        for point in points {
            assert!(
                aims.iter().any(|a| a.step.starts_with(point)),
                "no schedule aims at {point}"
            );
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let aim = nth(Family::Group, 1);
        assert_eq!(run_aimed(&aim), run_aimed(&aim));
    }

    #[test]
    fn a_vacuous_schedule_is_reported_not_hidden() {
        let aim = Aimed {
            occurrence: 999,
            ..nth(Family::Group, 1)
        };
        let o = run_aimed(&aim);
        assert!(!o.fired);
        assert!(
            o.violations().iter().any(|v| v.contains("never fired")),
            "{o:?}"
        );
    }

    #[test]
    fn every_notify_schedule_fires_and_converges() {
        assert_converged(&family(Family::Notify));
    }

    #[test]
    fn a_watermark_crash_produces_duplicates_never_gaps() {
        // Death between publish and the watermark write is the aimed
        // duplicate generator: the takeover daemon republishes the whole
        // backlog. The contract allows exactly that — and nothing worse.
        let o = run_aimed(&nth(Family::Notify, 2));
        assert!(o.aim.step.ends_with(":wm"), "{o:?}");
        assert!(o.violations().is_empty(), "{o:#?}");
        assert!(
            o.audit.feed_duplicates >= TXNS as u64,
            "republish after a watermark crash must duplicate the group: {o:#?}"
        );
        assert_eq!(o.audit.feed_gaps + o.audit.feed_seq_gaps, 0);
        assert_eq!(o.audit.feed_missing, 0);
    }

    #[test]
    fn notify_schedules_are_deterministic() {
        let aim = nth(Family::Notify, 0);
        assert_eq!(run_aimed(&aim), run_aimed(&aim));
    }

    #[test]
    fn every_cas_schedule_fires_and_converges() {
        let outcomes = family(Family::Cas);
        assert_converged(&outcomes);
        for o in &outcomes {
            assert!(
                o.acked >= 1 && o.failed >= 1,
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
        let o = run_aimed(&nth(Family::Cas, 3));
        assert_eq!(o.aim.occurrence, 8, "{o:?}");
        assert!(o.violations().is_empty(), "{o:#?}");
        assert!(
            o.stranded_registry + o.stranded_data >= 1,
            "a completed publish of a dead flush must strand content: {o:#?}"
        );
        assert_eq!(o.audit.dangling_edges, 0);
        assert_eq!(o.audit.unique_commits, o.acked);
    }

    #[test]
    fn cas_schedules_are_deterministic() {
        let aim = nth(Family::Cas, 1);
        assert_eq!(run_aimed(&aim), run_aimed(&aim));
    }
}
