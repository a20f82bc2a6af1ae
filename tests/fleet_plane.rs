//! Fleet commit-plane scenarios: many clients sharing sharded WAL
//! queues, competing commit daemons, lease failover, and backpressure —
//! the `crates/fleet` subsystem exercised end-to-end through the facade.

use std::sync::Arc;
use std::time::Duration;

use cloudprov::cloud::{Actor, AwsProfile, CloudEnv, FaultPlan, Op, Service, TenantId};
use cloudprov::fleet::{DaemonPool, Fleet, FleetConfig, LeaseBoard, ShardRouter};
use cloudprov::fs::{LocalIoParams, PaS3fs};
use cloudprov::pass::{Pid, ProcessInfo};
use cloudprov::protocols::{
    CommitDaemon, CouplingCheck, Protocol, ProtocolConfig, ProvenanceClient, StorageProtocol,
};
use cloudprov::sim::Sim;
use cloudprov::workloads::fleet::{run_fleet, FleetParams};

/// A P3 session logging to a given fleet shard queue.
fn shard_client(env: &CloudEnv, shard: u32, identity: &str) -> ProvenanceClient {
    ProvenanceClient::builder(Protocol::P3)
        .queue(ShardRouter::queue_name(shard))
        .wal_identity(identity)
        .build(env)
}

/// Flushes one file through a PA-S3fs mount over `client`.
fn write_one(client: ProvenanceClient, pid: u64, path: &str) {
    let client = Arc::new(client);
    let fs = PaS3fs::attach(client.clone(), LocalIoParams::instant(), pid);
    fs.exec(
        Pid(pid),
        ProcessInfo {
            name: format!("worker{pid}"),
            ..Default::default()
        },
    );
    fs.write(Pid(pid), path, 2048);
    fs.close(Pid(pid), path).unwrap();
    client.sync().unwrap();
}

/// The satellite scenario: TWO independent commit daemons polling the
/// SAME WAL shard, with duplicate delivery injected. Every transaction
/// must land exactly once in the cloud state — the commit path has to be
/// idempotent under at-least-once delivery even across daemons that
/// share nothing but the queue.
#[test]
fn two_daemons_one_shard_never_double_commit_under_duplicates() {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    let router = ShardRouter::provision(&env, 1);
    env.faults().set(
        FaultPlan {
            sqs_duplicate_probability: 0.5,
            ..FaultPlan::none()
        }
        .with_seed(11),
    );
    for i in 0..8u64 {
        write_one(
            shard_client(&env, 0, &format!("client-{i}")),
            i,
            &format!("/shared/f{i}"),
        );
    }
    let config = ProtocolConfig::default();
    let a = CommitDaemon::new(&env, config.clone(), router.wal_url(0));
    let b = CommitDaemon::new(&env, config.clone(), router.wal_url(0));
    // Interleave the two daemons' polls while duplicates fire.
    for _ in 0..40 {
        a.poll_once().unwrap();
        b.poll_once().unwrap();
        sim.sleep(Duration::from_secs(10));
    }
    env.faults().clear();
    a.run_until_idle().unwrap();
    b.run_until_idle().unwrap();
    assert_eq!(router.total_depth(&env), 0, "WAL fully drained");
    // Every transaction committed at least once between the two daemons…
    assert!(a.committed_transactions() + b.committed_transactions() >= 8);
    // …and the cloud state shows each exactly once: final object present
    // and coupled, no leftover temp objects, no duplicated provenance.
    assert_eq!(env.s3().peek_count("data", "tmp/"), 0, "no temp leaks");
    let reader = shard_client(&env, 0, "reader");
    for i in 0..8 {
        let r = reader.read(&format!("shared/f{i}")).unwrap();
        assert_eq!(r.coupling, CouplingCheck::Coupled, "shared/f{i}");
    }
}

/// Same scenario through the pool: two workers over one shard, with the
/// pool's shared registry machine-checking that no transaction commits
/// twice.
#[test]
fn pool_reports_zero_double_commits_under_duplicates() {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    let router = Arc::new(ShardRouter::provision(&env, 1));
    env.faults().set(
        FaultPlan {
            sqs_duplicate_probability: 0.4,
            ..FaultPlan::none()
        }
        .with_seed(5),
    );
    for i in 0..10u64 {
        write_one(
            shard_client(&env, 0, &format!("c{i}")),
            i,
            &format!("/d/f{i}"),
        );
    }
    let board = LeaseBoard::provision(&env, 1, Duration::from_secs(60));
    let pool = DaemonPool::spawn(
        &env,
        ProtocolConfig::default(),
        router.clone(),
        board,
        2,
        Duration::from_secs(2),
    );
    let deadline = sim.now() + Duration::from_secs(3600);
    while router.total_depth(&env) > 0 && sim.now() < deadline {
        sim.sleep(Duration::from_secs(5));
    }
    assert_eq!(router.total_depth(&env), 0);
    let stats = pool.stop();
    assert_eq!(stats.double_commits, 0, "stats: {stats:?}");
    assert_eq!(stats.unique_committed, 10);
}

/// Lease failover: a daemon acquires a shard lease and dies without
/// releasing it; after the TTL, a pool worker takes the shard over and
/// commits the backlog the dead daemon left behind.
#[test]
fn dead_daemon_shard_is_taken_over_after_lease_ttl() {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    let router = Arc::new(ShardRouter::provision(&env, 1));
    write_one(shard_client(&env, 0, "victim"), 1, "/orphan");
    let ttl = Duration::from_secs(60);
    let board = LeaseBoard::provision(&env, 1, ttl);
    let dead_daemons_lease = board.acquire().expect("the doomed daemon leased the shard");
    let pool = DaemonPool::spawn(
        &env,
        ProtocolConfig::default(),
        router,
        board.clone(),
        1,
        Duration::from_secs(5),
    );
    sim.sleep(Duration::from_secs(30));
    assert_eq!(
        pool.committed_transactions(),
        0,
        "the lease still shields the dead daemon's shard"
    );
    sim.sleep(Duration::from_secs(300));
    assert_eq!(pool.committed_transactions(), 1, "takeover after expiry");
    assert!(!board.renew(&dead_daemons_lease), "the old lease is dead");
    assert!(env.s3().peek_committed("data", "orphan").is_some());
    pool.stop();
}

/// Backpressure: with the commit plane stopped, a flooding client's WAL
/// depth stays within the configured bound instead of growing without
/// limit.
#[test]
fn shard_depth_bound_throttles_a_flooding_client() {
    let sim = Sim::new();
    let mut profile = AwsProfile::instant();
    profile.sqs.write_base = Duration::from_millis(5);
    let env = CloudEnv::new(&sim, profile);
    let fleet = Fleet::provision(
        &env,
        ProtocolConfig::default(),
        FleetConfig {
            shards: 1,
            max_shard_depth: 6,
            admission_poll: Duration::from_millis(20),
            ..FleetConfig::default()
        },
    );
    let client = Arc::new(fleet.client("flooder", Some(TenantId(0))));
    let fs = PaS3fs::attach(client.clone(), LocalIoParams::instant(), 9);
    fs.exec(
        Pid(9),
        ProcessInfo {
            name: "flood".into(),
            ..Default::default()
        },
    );
    let mut max_depth = 0;
    for i in 0..30 {
        let path = format!("/flood/f{i}");
        fs.write(Pid(9), &path, 1024);
        fs.close(Pid(9), &path).unwrap();
        max_depth = max_depth.max(fleet.total_depth());
    }
    assert!(
        max_depth <= 6 + 4,
        "throttle failed: shard depth reached {max_depth}"
    );
}

/// Tenant metering end-to-end: two tenants with different workloads get
/// separate op counts and bills through one shared commit plane.
#[test]
fn tenants_are_billed_separately_through_the_shared_plane() {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    let fleet = Fleet::provision(&env, ProtocolConfig::default(), FleetConfig::default());
    let pool = fleet.spawn_pool(2, Duration::from_secs(2));
    // Tenant 0: three files; tenant 1: one file.
    for (i, (tenant, path)) in [(0u32, "/a/x"), (0, "/a/y"), (0, "/a/z"), (1, "/b/x")]
        .iter()
        .enumerate()
    {
        let client = fleet.client(&format!("t{tenant}-c{i}"), Some(TenantId(*tenant)));
        write_one(client, i as u64, path);
    }
    let deadline = sim.now() + Duration::from_secs(3600);
    while fleet.total_depth() > 0 && sim.now() < deadline {
        sim.sleep(Duration::from_secs(5));
    }
    pool.stop();
    let usage = env.usage();
    let (t0, t1) = (TenantId(0), TenantId(1));
    assert_eq!(usage.tenants(), vec![t0, t1]);
    assert!(
        usage.tenant_ops_total(t0) > usage.tenant_ops_total(t1),
        "the heavier tenant must meter more ops"
    );
    // Client-actor sends are fully attributed to tenants; the commit
    // daemons' receives stay unattributed shared infrastructure.
    let sends = usage.get(Actor::Client, Service::Queue, Op::Send).count;
    let labeled: u64 = [t0, t1]
        .iter()
        .map(|t| {
            usage
                .tenant_view(*t)
                .get(Actor::Client, Service::Queue, Op::Send)
                .count
        })
        .sum();
    assert_eq!(sends, labeled, "every WAL send belongs to some tenant");
    assert!(usage.tenant_view(t0).tenants() == vec![t0]);
    // And both tenants' data committed correctly despite sharing shards.
    for key in ["a/x", "a/y", "a/z", "b/x"] {
        assert!(env.s3().peek_committed("data", key).is_some(), "{key}");
    }
}

/// The whole driver at integration scale: a small fleet run is clean,
/// deterministic, and its daemon count influences elapsed time.
#[test]
fn fleet_driver_commits_faster_with_more_daemons() {
    let base = FleetParams {
        clients: 16,
        tenants: 4,
        shards: 4,
        daemons: 1,
        script_len: 16,
        seed: 3,
        poll_interval: Duration::from_secs(5),
        profile: AwsProfile::calibrated(Default::default()),
        ..FleetParams::default()
    };
    let slow = run_fleet(&base);
    let fast = run_fleet(&FleetParams {
        daemons: 4,
        ..base.clone()
    });
    assert_eq!(slow.violations(), Vec::<String>::new());
    assert_eq!(fast.violations(), Vec::<String>::new());
    assert_eq!(slow.logged_txns, fast.logged_txns, "same workload");
    assert!(
        fast.elapsed < slow.elapsed,
        "4 daemons ({:?}) must quiesce faster than 1 ({:?})",
        fast.elapsed,
        slow.elapsed
    );
}

/// A lease lapse costs a redelivery, not a deadlock. At TTL 8 s a
/// calibrated group often outlasts the TTL less the 2 s renewal tick, so
/// leases lapse and shards change hands mid-run; every holder drives a
/// commit daemon of its own, so the run still finishes clean, with no
/// double commit, no feed gap and no staged-feed sequence conflict.
#[test]
fn lapsed_leases_cost_redeliveries_not_a_hang() {
    for seed in 0..3 {
        let report = run_fleet(&FleetParams {
            seed,
            lease_ttl: Duration::from_secs(8),
            poll_interval: Duration::from_secs(2),
            ..FleetParams::default()
        });
        assert_eq!(report.violations(), Vec::<String>::new(), "seed {seed}");
        assert!(
            report.pool.losses > 0,
            "seed {seed}: no lease lapsed: {:?}",
            report.pool
        );
    }
}
