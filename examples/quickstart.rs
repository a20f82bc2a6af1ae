//! Quickstart: store files with provenance on the (simulated) cloud using
//! P3 through the `ProvenanceClient` facade, read them back with coupling
//! detection, and query their lineage.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;
use std::time::Duration;

use cloudprov::cloud::{AwsProfile, CloudEnv, RunContext};
use cloudprov::fs::{LocalIoParams, PaS3fs};
use cloudprov::pass::{Pid, ProcessInfo};
use cloudprov::query::Mode;
use cloudprov::sim::Sim;
use cloudprov::{Protocol, ProvenanceClient, ProvenanceQueries};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A simulation and a cloud account (S3 + SimpleDB + SQS).
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::calibrated(RunContext::default()));

    // 2. One session handle: protocol P3 (data + provenance through an
    //    SQS write-ahead log) behind the pipelined flush path — `close`
    //    enqueues the upload and returns immediately.
    let client = Arc::new(
        ProvenanceClient::builder(Protocol::P3)
            .queue("wal-quickstart")
            .pipelined()
            .build(&env),
    );

    // 3. A provenance-aware file system over the session.
    let fs = PaS3fs::attach(client.clone(), LocalIoParams::default(), 42);

    // 4. Run a tiny pipeline: `transform` reads an input and writes a
    //    result; PASS records the lineage automatically.
    fs.exec(
        Pid(100),
        ProcessInfo {
            name: "transform".into(),
            argv: vec![
                "transform".into(),
                "--normalize".into(),
                "/data/raw.csv".into(),
            ],
            env: "LANG=C".into(),
            exe_path: Some("/usr/bin/transform".into()),
            ..Default::default()
        },
    );
    fs.read(Pid(100), "/data/raw.csv", 4 << 20);
    fs.write(Pid(100), "/data/clean.csv", 3 << 20);
    let before_close = sim.now();
    fs.close(Pid(100), "/data/clean.csv")?;
    println!(
        "close returned in {:?} of virtual time (upload pipelined in the background)",
        sim.now() - before_close
    );

    // 5. Run the client's commit daemon in the background while other
    //    (virtual) work could proceed, then drain everything: pipeline
    //    barrier + WAL quiescence in one call.
    let daemon = client.commit_daemon().expect("P3 session").clone();
    let daemon_handle = daemon.clone().spawn(Duration::from_secs(2));
    sim.sleep(Duration::from_secs(30));
    client.drain()?;
    daemon_handle.stop();
    println!(
        "commit daemon committed {} transaction(s)",
        daemon.committed_transactions()
    );

    // 6. Read back with data-coupling detection.
    let read = fs.read_back("/data/clean.csv")?;
    println!(
        "read {} bytes, coupling = {:?}",
        read.data.len(),
        read.coupling
    );
    assert!(read.coupling.is_coupled());

    // 7. Query the provenance store — no store plumbing, just
    //    `client.query()`: everything `transform` produced.
    let out = client
        .query()?
        .q3_outputs_of("transform", Mode::Sequential)?;
    println!(
        "files output by 'transform': {} node(s), {} cloud ops, {:?}",
        out.nodes.len(),
        out.metrics.ops,
        out.metrics.elapsed
    );

    // 8. The bill, at 2009 AWS prices.
    println!("total cost: {}", env.cost());
    Ok(())
}
