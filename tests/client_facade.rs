//! API-level integration tests for the `ProvenanceClient` facade: the
//! same workload runs through every protocol, and the pipelined
//! `flush` + `drain()` path must be *equivalent* to the old
//! blocking `flush` — same cloud state, no dangling ancestors — while
//! beating it on client-perceived virtual time.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use cloudprov::cloud::{AwsProfile, CloudEnv, RunContext};
use cloudprov::fs::{LocalIoParams, PaS3fs};
use cloudprov::pass::ProvenanceRecord;
use cloudprov::protocols::properties::{causal_report, load_all_records};
use cloudprov::protocols::{ClientError, Protocol, ProvenanceClient, StorageProtocol};
use cloudprov::query::{Mode, ProvenanceQueries};
use cloudprov::sim::Sim;
use cloudprov::workloads::{blast, nightly, replay, BlastParams, NightlyParams, Trace};

/// One full workload run through the facade; returns the world for
/// state inspection plus the client-perceived replay time.
struct Run {
    env: CloudEnv,
    client: Arc<ProvenanceClient>,
    client_elapsed: Duration,
}

fn run(protocol: Protocol, pipelined: bool, profile: AwsProfile, trace: &Trace) -> Run {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, profile);
    let mut builder = ProvenanceClient::builder(protocol).queue("wal-facade");
    if pipelined {
        builder = builder.pipelined();
    }
    let client = Arc::new(builder.build(&env));
    let fs = PaS3fs::attach(client.clone(), LocalIoParams::instant(), 0xFACADE);
    let t0 = sim.now();
    replay(&sim, &fs, trace).expect("replay");
    let client_elapsed = sim.now() - t0;
    client.drain().expect("drain");
    sim.sleep(Duration::from_secs(1));
    Run {
        env,
        client,
        client_elapsed,
    }
}

/// Canonical view of the data bucket: sorted `(key, fingerprint, len)`.
/// Content-addressed store objects (`cas/<sha>`) are infrastructure the
/// pipelined P3 path shares fleet-wide, not user-visible data; the
/// equivalence claim is about the objects a reader can name.
fn data_state(env: &CloudEnv) -> BTreeSet<(String, u64, u64)> {
    env.s3()
        .list_all("data", "")
        .expect("list data bucket")
        .into_iter()
        .filter(|k| !k.key.starts_with(cloudprov::protocols::CAS_OBJECT_PREFIX))
        .map(|k| {
            let obj = env.s3().get("data", &k.key).expect("get data object");
            (k.key, obj.blob.content_fingerprint(), obj.blob.len())
        })
        .collect()
}

/// Canonical view of the provenance store: sorted record triples.
fn prov_state(env: &CloudEnv, client: &ProvenanceClient) -> BTreeSet<(String, String, String)> {
    let Some(store) = client.provenance_store() else {
        return BTreeSet::new();
    };
    load_all_records(env, &store)
        .expect("scan provenance")
        .iter()
        // `exectime` stamps the virtual instant a process started;
        // blocking and pipelined timelines legitimately differ there.
        // Everything else — lineage, names, hashes — must be identical.
        .filter(|r| r.attr.as_str() != "exectime")
        .map(record_key)
        .collect()
}

fn record_key(r: &ProvenanceRecord) -> (String, String, String) {
    (
        r.subject.to_string(),
        r.attr.as_str().to_string(),
        r.value.to_text(),
    )
}

#[test]
fn pipelined_drain_is_equivalent_to_blocking_flush_for_every_protocol() {
    let trace = blast(BlastParams::small());
    for protocol in Protocol::ALL {
        let blocking = run(protocol, false, AwsProfile::instant(), &trace);
        let pipelined = run(protocol, true, AwsProfile::instant(), &trace);
        assert_eq!(
            data_state(&blocking.env),
            data_state(&pipelined.env),
            "{protocol}: data objects must match"
        );
        assert_eq!(
            prov_state(&blocking.env, &blocking.client),
            prov_state(&pipelined.env, &pipelined.client),
            "{protocol}: provenance stores must match"
        );
        if protocol.records_provenance() {
            let store = pipelined.client.provenance_store().unwrap();
            let records = load_all_records(&pipelined.env, &store).unwrap();
            assert!(!records.is_empty(), "{protocol}: provenance stored");
            let report = causal_report(&records);
            assert!(
                report.holds(),
                "{protocol}: pipelined path left dangling ancestors {:?}",
                report.dangling
            );
        }
        if protocol == Protocol::P3 {
            assert_eq!(
                pipelined.env.s3().peek_count("data", "tmp/"),
                0,
                "drain must leave no temp objects"
            );
            assert_eq!(
                pipelined
                    .env
                    .sqs()
                    .peek_depth(pipelined.client.wal_url().unwrap()),
                0,
                "drain must empty the WAL"
            );
        }
    }
}

#[test]
fn pipelined_flush_beats_blocking_on_blast_wall_clock() {
    // Calibrated latencies: the pipeline has real upload time to hide
    // behind the workload's compute.
    let trace = blast(BlastParams::small());
    for protocol in [Protocol::P1, Protocol::P2, Protocol::P3] {
        let profile = AwsProfile::calibrated(RunContext::default());
        let blocking = run(protocol, false, profile.clone(), &trace);
        let pipelined = run(protocol, true, profile, &trace);
        assert!(
            pipelined.client_elapsed < blocking.client_elapsed,
            "{protocol}: pipelined {:?} must beat blocking {:?}",
            pipelined.client_elapsed,
            blocking.client_elapsed
        );
        let stats = pipelined.client.pipeline_stats().expect("pipelined run");
        assert_eq!(stats.submitted, stats.completed, "drain is a full barrier");
    }
}

#[test]
fn pipelined_nightly_also_wins_and_stays_equivalent() {
    let trace = nightly(NightlyParams::small());
    let profile = AwsProfile::calibrated(RunContext::default());
    let blocking = run(Protocol::P1, false, profile.clone(), &trace);
    let pipelined = run(Protocol::P1, true, profile, &trace);
    assert!(pipelined.client_elapsed < blocking.client_elapsed);
    assert_eq!(
        data_state(&blocking.env),
        data_state(&pipelined.env),
        "nightly snapshots must match"
    );
}

#[test]
fn facade_exposes_queries_without_leaking_the_store() {
    let trace = blast(BlastParams::small());
    let world = run(Protocol::P2, true, AwsProfile::instant(), &trace);
    let engine = world.client.query().expect("P2 stores provenance");
    let out = engine
        .q3_outputs_of("blastall", Mode::Sequential)
        .expect("q3");
    assert!(
        !out.nodes.is_empty(),
        "blastall outputs must be queryable through client.query()"
    );

    let baseline = run(Protocol::S3fs, false, AwsProfile::instant(), &trace);
    assert!(matches!(
        baseline.client.query(),
        Err(ClientError::NoProvenanceStore { .. })
    ));
}

#[test]
fn sync_exposes_pipeline_results() {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::calibrated(RunContext::default()));
    let client = Arc::new(
        ProvenanceClient::builder(Protocol::P2)
            .pipelined()
            .build(&env),
    );
    let fs = PaS3fs::attach(client.clone(), LocalIoParams::instant(), 7);
    use cloudprov::pass::{Pid, ProcessInfo};
    fs.exec(
        Pid(1),
        ProcessInfo {
            name: "writer".into(),
            ..Default::default()
        },
    );
    let t0 = sim.now();
    for i in 0..10 {
        fs.write(Pid(1), &format!("/out/f{i}"), 1 << 16);
        fs.close(Pid(1), &format!("/out/f{i}")).expect("close");
    }
    let enqueue_time = sim.now() - t0;
    client.sync().expect("sync");
    let synced_time = sim.now() - t0;
    assert!(
        enqueue_time < synced_time,
        "closes return before durability; sync waits it out"
    );
    let stats = client.pipeline_stats().unwrap();
    assert_eq!(stats.submitted, 10);
    assert_eq!(stats.completed, 10);
    assert!(
        stats.uploads < 10,
        "queued closes must coalesce into fewer uploads (got {})",
        stats.uploads
    );
    client.drain().expect("drain");
    for i in 0..10 {
        assert!(
            env.s3()
                .peek_committed("data", &format!("out/f{i}"))
                .is_some(),
            "f{i} durable after drain"
        );
    }
}
