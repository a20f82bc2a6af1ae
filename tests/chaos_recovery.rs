//! Crash/recovery integration tests at the facade level: the coupling
//! race §3 warns about, the §4.3.3 restart-after-mid-commit-crash story,
//! and the chaos explorer's replay guarantee.

use std::sync::Arc;
use std::time::Duration;

use cloudprov::chaos::{explore_seed, ChaosPlan};
use cloudprov::cloud::{AwsProfile, CloudEnv, FaultPlan, DEFAULT_VISIBILITY_TIMEOUT};
use cloudprov::pass::{Attr, FlushNode, NodeKind, PNodeId, ProvenanceRecord, Uuid};
use cloudprov::protocols::{
    CouplingCheck, FlushBatch, FlushObject, Protocol, ProvenanceClient, StorageProtocol,
};
use cloudprov::sim::Sim;

fn file_obj(uuid: u128, version: u32, key: &str, data: &str) -> FlushObject {
    let id = PNodeId {
        uuid: Uuid(uuid),
        version,
    };
    let blob = cloudprov::cloud::Blob::from(data);
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

/// A read racing an in-flight P2 flush under amplified staleness must
/// return a coupling-violation verdict (`ProvenanceMissing`) — never a
/// silently "coupled" answer built from provenance the reader cannot see
/// yet. This is §3's detection obligation for protocols without
/// write-time coupling.
#[test]
fn p2_read_racing_inflight_flush_detects_decoupling() {
    let sim = Sim::new();
    let mut profile = AwsProfile::instant();
    // Provenance (SimpleDB) lands two virtual seconds after the data.
    profile.sdb.write_base = Duration::from_secs(2);
    let env = CloudEnv::new(&sim, profile);
    // Staleness amplification: every read is served one second behind.
    env.faults().set(FaultPlan {
        extra_staleness: Duration::from_secs(1),
        ..FaultPlan::none()
    });
    let client = ProvenanceClient::builder(Protocol::P2)
        .pipelined()
        .build(&env);

    client
        .flush(FlushBatch {
            objects: vec![file_obj(1, 1, "hot", "payload")],
        })
        .unwrap();
    // The data PUT has landed, the SimpleDB write is still in flight (and
    // even once it lands, the amplified staleness window hides it).
    sim.sleep(Duration::from_millis(1500));
    let racing = client.read("hot").unwrap();
    assert_eq!(
        racing.coupling,
        CouplingCheck::ProvenanceMissing,
        "a read racing the flush must DETECT the decoupling"
    );
    assert_eq!(racing.id.unwrap().version, 1, "the data side is already v1");

    // After the barrier plus the staleness window, the same read couples.
    client.drain().unwrap();
    sim.sleep(Duration::from_secs(2));
    let settled = client.read("hot").unwrap();
    assert_eq!(settled.coupling, CouplingCheck::Coupled);
}

/// §4.3.3 restart story: a client whose commit daemon dies mid-commit
/// (WAL received, nothing committed) plus a client that died mid-log
/// (orphaned temp object) must leave NOTHING behind once a restarted
/// client drains the WAL and the cleaner daemon sweeps: zero WAL
/// messages, zero temp objects, and the fully-logged transaction
/// committed.
#[test]
fn restarted_client_drain_leaves_no_wal_messages_or_temps() {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::instant());

    // Client A logs a transaction, then its commit daemon dies at the
    // first COPY — after receiving the WAL messages.
    let client_a = ProvenanceClient::builder(Protocol::P3)
        .queue("wal-restart")
        .step_hook(Arc::new(|step: &str| !step.starts_with("p3:commit:copy:")))
        .build(&env);
    client_a
        .flush(FlushBatch {
            objects: vec![file_obj(1, 1, "logged", "survives the crash")],
        })
        .unwrap();
    let err = client_a.drain().unwrap_err();
    assert!(err.to_string().contains("p3:commit:copy:"), "{err}");
    let wal_a = client_a.wal_url().unwrap().to_string();
    assert!(env.s3().peek_count("data", "tmp/") > 0, "temp staged");
    assert!(
        env.s3().peek_committed("data", "logged").is_none(),
        "nothing committed before the crash"
    );
    drop(client_a);

    // Client B dies mid-log (temp PUT landed, WAL never sent): an orphan.
    let client_b = ProvenanceClient::builder(Protocol::P3)
        .queue("wal-orphan")
        .step_hook(Arc::new(|step: &str| !step.starts_with("p3:wal:")))
        .build(&env);
    client_b
        .flush(FlushBatch {
            objects: vec![file_obj(2, 1, "half", "never fully logged")],
        })
        .unwrap_err();
    drop(client_b);
    assert_eq!(env.s3().peek_count("data", "tmp/"), 2);

    // The crashed daemon's receives left A's messages invisible; wait
    // out the visibility window, then restart on the same queue.
    sim.sleep(DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));
    let restarted = ProvenanceClient::builder(Protocol::P3)
        .queue("wal-restart")
        .build(&env);
    restarted.drain().unwrap();
    assert_eq!(
        env.s3().peek_committed("data", "logged").unwrap().blob,
        cloudprov::cloud::Blob::from("survives the crash"),
        "the fully-logged transaction commits on restart"
    );
    assert_eq!(
        restarted.read("logged").unwrap().coupling,
        CouplingCheck::Coupled
    );
    assert_eq!(env.sqs().peek_depth(&wal_a), 0, "A's WAL fully consumed");

    // B's orphan outlives the drain but not the cleaner's 4-day window.
    assert_eq!(env.s3().peek_count("data", "tmp/"), 1);
    let cleaner = restarted.cleaner_daemon().unwrap();
    assert_eq!(cleaner.sweep_once().unwrap(), 0, "too young to reap");
    sim.sleep(Duration::from_secs(4 * 24 * 3600 + 60));
    assert_eq!(cleaner.sweep_once().unwrap(), 1);
    assert_eq!(env.s3().peek_count("data", "tmp/"), 0, "zero temps left");
    assert_eq!(env.sqs().peek_depth(&wal_a), 0, "zero WAL messages left");
}

/// The chaos explorer's replay contract at the facade level: a seed is a
/// complete failure schedule, and re-running it reproduces the identical
/// schedule and verdict.
#[test]
fn chaos_seed_replays_identically_through_the_facade() {
    for protocol in [Protocol::P2, Protocol::P3] {
        let first = explore_seed(protocol, 5);
        let second = explore_seed(protocol, 5);
        assert_eq!(first.plan, ChaosPlan::derive(5));
        assert_eq!(
            first, second,
            "{protocol}: schedule and verdict must replay"
        );
    }
}
