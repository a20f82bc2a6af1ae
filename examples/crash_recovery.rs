//! P3's crash-tolerance story (§4.3.3): the write-ahead log lives in SQS,
//! not on the client's disk — so when the client dies after logging a
//! transaction but before committing it, *any other machine* can finish
//! the job. Incompletely-logged transactions are ignored and their
//! temporary objects reaped by the cleaner daemon.
//!
//! Everything goes through the `ProvenanceClient` facade: crash injection
//! is a builder knob (`step_hook`), and the recovery machine only needs
//! the dead client's WAL URL.
//!
//! Run with: `cargo run --example crash_recovery`

use std::sync::Arc;
use std::time::Duration;

use cloudprov::cloud::{AwsProfile, Blob, CloudEnv, RunContext};
use cloudprov::pass::{Attr, FlushNode, NodeKind, PNodeId, ProvenanceRecord, Uuid};
use cloudprov::protocols::{
    CommitDaemon, FlushBatch, FlushObject, ProtocolConfig, ProtocolError, StorageProtocol,
};
use cloudprov::sim::Sim;
use cloudprov::{Protocol, ProvenanceClient};

fn file_object(uuid: u128, key: &str, payload: &str) -> FlushObject {
    let id = PNodeId::initial(Uuid(uuid));
    let blob = Blob::from(payload);
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::calibrated(RunContext::default()));

    // --- Client A: completes its log phase, then "crashes" before any
    //     commit daemon runs (we simply never start its daemon). ---
    let client_a = ProvenanceClient::builder(Protocol::P3)
        .queue("wal-client-a")
        .build(&env);
    client_a.flush(FlushBatch {
        objects: vec![file_object(1, "results/complete.dat", "fully logged")],
    })?;
    let wal_a = client_a.wal_url().expect("P3 session").to_string();
    println!("client A logged its transaction, then died");
    drop(client_a);

    // --- Client B: crashes MID-log (after the temp PUT, before the WAL
    //     messages), leaving an orphaned temporary object. ---
    let client_b = ProvenanceClient::builder(Protocol::P3)
        .queue("wal-client-b")
        .step_hook(Arc::new(|step: &str| !step.starts_with("p3:wal:")))
        .build(&env);
    let err = client_b
        .flush(FlushBatch {
            objects: vec![file_object(2, "results/partial.dat", "never fully logged")],
        })
        .unwrap_err();
    assert!(matches!(err, ProtocolError::Crashed { .. }));
    println!("client B crashed mid-log: {err}");
    println!(
        "orphaned temp objects in the store: {}",
        env.s3().peek_count("data", "tmp/")
    );

    // --- A recovery machine drains client A's WAL and commits. ---
    let recovery = CommitDaemon::new(&env, ProtocolConfig::default(), &wal_a);
    let committed = recovery.run_until_idle()?;
    println!("recovery machine committed {committed} transaction(s) from A's WAL");
    assert_eq!(committed, 1);
    assert!(env
        .s3()
        .peek_committed("data", "results/complete.dat")
        .is_some());
    // Client B's partial transaction was never committed.
    assert!(env
        .s3()
        .peek_committed("data", "results/partial.dat")
        .is_none());

    // --- The cleaner daemon reaps B's orphan after the 4-day window. ---
    let cleaner = ProvenanceClient::builder(Protocol::P3)
        .queue("wal-cleaner")
        .build(&env)
        .cleaner_daemon()
        .expect("P3 session");
    assert_eq!(cleaner.sweep_once()?, 0, "too young to reap");
    sim.sleep(Duration::from_secs(4 * 24 * 3600 + 60));
    let reaped = cleaner.sweep_once()?;
    println!("cleaner reaped {reaped} orphaned temp object(s) after 4 days");
    assert!(env.s3().peek_count("data", "tmp/") == 0);

    println!("\n=> complete WAL transactions survive client death; partial ones vanish");
    Ok(())
}
