//! # cloudprov-fleet — a sharded, multi-tenant commit plane
//!
//! The paper evaluates one client, one WAL queue, one commit daemon. This
//! crate is the ROADMAP's step toward "heavy traffic from many users": it
//! keeps P3's write-ahead-log design intact but scales each role out.
//!
//! * [`ShardRouter`] — consistent-hashes client identities onto M WAL
//!   **shard queues** (provisioned through [`CloudEnv`]), so a fleet of
//!   thousands of clients needs M queues, not thousands.
//! * [`LeaseBoard`] — per-shard commit leases built from nothing but SQS
//!   visibility: receiving a shard's token *is* the lease, and
//!   `ChangeMessageVisibility` renews or releases it. Daemon death ⇒
//!   lease expiry ⇒ automatic takeover.
//! * [`DaemonPool`] — N commit-daemon workers that acquire leases, drain
//!   their shards, shed idle shards, hand hot shards to starving peers,
//!   and stay idempotent under at-least-once delivery (a fleet-wide
//!   committed-transaction registry turns any double commit into a
//!   counted invariant violation).
//! * [`ShardedCleaners`] — the §4.3.3 cleaner, hash-partitioned so M
//!   sweeps run in parallel.
//! * **Backpressure** — [`Fleet::client`] builds pipelined P3 sessions
//!   whose `flush_async` blocks while their shard's WAL depth exceeds a
//!   bound, so producers throttle instead of growing queues without
//!   limit.
//!
//! The `cloudprov-workloads` crate drives this plane with hundreds of
//! simulated clients (`workloads::fleet::run_fleet`), and `repro -- fleet`
//! sweeps clients × shards × daemons into the scaling table future perf
//! PRs are measured against.

#![warn(missing_docs)]

mod cleaner;
mod lease;
mod pool;
mod router;

pub use cleaner::ShardedCleaners;
pub use lease::{Lease, LeaseBoard};
pub use pool::{DaemonPool, PoolConfig, PoolStats};
pub use router::ShardRouter;

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::{CloudEnv, TenantId};
use cloudprov_core::{Protocol, ProtocolConfig, ProvenanceClient};
use cloudprov_sim::SimSemaphore;

/// Fleet-level tuning.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Number of WAL shards.
    pub shards: u32,
    /// Commit-lease TTL (also the takeover latency after daemon death).
    pub lease_ttl: Duration,
    /// Per-shard WAL depth (messages) above which client flushes block —
    /// the ceiling the adaptive admission controller enforces. Zero
    /// disables backpressure.
    pub max_shard_depth: usize,
    /// Fallback re-check interval for a throttled client. With `push`
    /// on, the shard's drain doorbell wakes throttled clients the moment
    /// the daemon acknowledges WAL messages, and this interval only
    /// covers lost rings; without push it is the polling cadence.
    pub admission_poll: Duration,
    /// Push delivery: pool workers watch their leased shard WALs and
    /// wake on arrival (see [`PoolConfig::push`]); off, they sleep the
    /// full poll interval between rounds.
    pub push: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 4,
            lease_ttl: Duration::from_secs(120),
            max_shard_depth: 64,
            admission_poll: Duration::from_millis(250),
            push: true,
        }
    }
}

/// Per-shard adaptive admission: a client that finds headroom below the
/// depth bound is granted `headroom - 1` admission *credits*, and
/// clients sharing the shard spend them on subsequent flushes without
/// re-probing; only an exhausted credit line probes again. The fleet
/// issues O(depth changes) depth probes instead of O(flushes), and the
/// batch size adapts by itself: a draining shard hands out big credit
/// lines, a congested one degenerates to probe-per-flush until the gate
/// closes.
#[derive(Debug)]
struct AdmissionControl {
    /// Depth ceiling (`FleetConfig::max_shard_depth`).
    bound: usize,
    credits: Mutex<usize>,
}

impl AdmissionControl {
    /// One admission attempt: spend a credit, or probe `depth` and
    /// refill the credit line from the observed headroom. `false` means
    /// the shard is at its bound and the caller must park.
    fn try_admit(&self, depth: impl FnOnce() -> usize) -> bool {
        let mut credits = self.credits.lock();
        if *credits > 0 {
            *credits -= 1;
            return true;
        }
        let headroom = self.bound.saturating_sub(depth());
        if headroom == 0 {
            return false;
        }
        *credits = headroom - 1;
        true
    }
}

/// A provisioned commit plane: router, lease board and client factory.
#[derive(Clone, Debug)]
pub struct Fleet {
    env: CloudEnv,
    protocol_config: ProtocolConfig,
    config: FleetConfig,
    router: Arc<ShardRouter>,
    board: LeaseBoard,
    /// One credit line per shard, shared by every client of that shard.
    admission: Arc<Vec<AdmissionControl>>,
}

impl Fleet {
    /// Provisions shard queues and the lease board on `env`.
    pub fn provision(
        env: &CloudEnv,
        protocol_config: ProtocolConfig,
        config: FleetConfig,
    ) -> Fleet {
        let router = Arc::new(ShardRouter::provision(env, config.shards));
        let board = LeaseBoard::provision(env, config.shards, config.lease_ttl);
        let admission = Arc::new(
            (0..config.shards)
                .map(|_| AdmissionControl {
                    bound: config.max_shard_depth,
                    credits: Mutex::new(0),
                })
                .collect::<Vec<_>>(),
        );
        Fleet {
            env: env.clone(),
            protocol_config,
            config,
            router,
            board,
            admission,
        }
    }

    /// The shard router.
    pub fn router(&self) -> &Arc<ShardRouter> {
        &self.router
    }

    /// The lease board.
    pub fn board(&self) -> &LeaseBoard {
        &self.board
    }

    /// The fleet configuration in force.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Spawns a pool of `daemons` commit workers over this fleet's
    /// shards and lease board.
    pub fn spawn_pool(&self, daemons: usize, poll_interval: Duration) -> DaemonPool {
        DaemonPool::spawn(
            &self.env,
            self.protocol_config.clone(),
            self.router.clone(),
            self.board.clone(),
            PoolConfig {
                daemons,
                poll_interval,
                push: self.config.push,
                ..PoolConfig::default()
            },
        )
    }

    /// Sharded cleaners over this fleet's temp namespace.
    pub fn cleaners(&self) -> ShardedCleaners {
        ShardedCleaners::new(&self.env, self.protocol_config.clone(), self.config.shards)
    }

    /// Builds a pipelined P3 session for one fleet client: routed to its
    /// shard queue, transaction ids seeded from the client name (so
    /// clients sharing a shard cannot collide), service calls attributed
    /// to `tenant`, and flushes throttled by the shard's WAL depth.
    ///
    /// The session's *own* commit daemon is left unused — the
    /// [`DaemonPool`] commits on every client's behalf — so callers
    /// use `sync()` (WAL durability barrier), never `drain()`.
    pub fn client(&self, name: &str, tenant: Option<TenantId>) -> ProvenanceClient {
        let shard = self.router.shard_for(name);
        let env = match tenant {
            Some(t) => self.env.for_tenant(t),
            None => self.env.clone(),
        };
        // Feed publication belongs to the pool's shard daemons; the
        // session's own (unused) daemon must not provision a feed writer
        // per client.
        let client_config = ProtocolConfig {
            feed: false,
            ..self.protocol_config.clone()
        };
        let mut builder = ProvenanceClient::builder(Protocol::P3)
            .config(client_config)
            .queue(ShardRouter::queue_name(shard))
            .wal_identity(name)
            .pipelined();
        if self.config.max_shard_depth > 0 {
            let sqs = env.sqs().clone();
            let url = self.router.wal_url(shard).to_string();
            let admission = self.admission.clone();
            let idx = shard as usize;
            // The admission doorbell: the daemon pool's WAL acks
            // (delete / delete_batch on the shard queue) ring it, so a
            // throttled client re-checks the instant capacity frees
            // instead of sleeping out the poll interval.
            let bell = self
                .config
                .push
                .then(|| SimSemaphore::new(self.env.sim(), 0))
                .filter(|bell| self.env.sqs().watch_drain(&url, bell.clone()).is_ok());
            builder = builder.admission(
                Arc::new(move || admission[idx].try_admit(|| sqs.peek_depth(&url))),
                self.config.admission_poll,
                bell,
            );
        }
        builder.build(&env)
    }

    /// Instrumentation: total messages across all shard WALs. Zero, with
    /// the clients synced, means every logged transaction has committed.
    pub fn total_depth(&self) -> usize {
        self.router.total_depth(&self.env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::{Actor, AwsProfile, Op, Service};
    use cloudprov_core::{FlushBatch, StorageProtocol};
    use cloudprov_pass::{Attr, FlushNode, NodeKind, PNodeId, ProvenanceRecord, Uuid};
    use cloudprov_sim::Sim;

    fn file_obj(uuid: u128, key: &str, data: &str) -> cloudprov_core::FlushObject {
        use cloudprov_cloud::Blob;
        let id = PNodeId {
            uuid: Uuid(uuid),
            version: 1,
        };
        let blob = Blob::from(data);
        cloudprov_core::FlushObject::file(
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
    fn end_to_end_flush_commit_read() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let fleet = Fleet::provision(&env, ProtocolConfig::default(), FleetConfig::default());
        let pool = fleet.spawn_pool(2, Duration::from_secs(2));
        let clients: Vec<ProvenanceClient> = (0..6)
            .map(|c| fleet.client(&format!("client-{c}"), Some(TenantId(c % 2))))
            .collect();
        for (c, client) in clients.iter().enumerate() {
            client
                .flush(FlushBatch {
                    objects: vec![file_obj(500 + c as u128, &format!("out-{c}"), "fleet!")],
                })
                .unwrap();
        }
        for client in &clients {
            client.sync().unwrap();
        }
        let deadline = sim.now() + Duration::from_secs(600);
        while fleet.total_depth() > 0 && sim.now() < deadline {
            sim.sleep(Duration::from_secs(5));
        }
        assert_eq!(fleet.total_depth(), 0);
        let stats = pool.stop();
        assert_eq!(stats.committed, 6);
        assert_eq!(stats.double_commits, 0);
        for (c, client) in clients.iter().enumerate() {
            let r = client.read(&format!("out-{c}")).unwrap();
            assert_eq!(r.coupling, cloudprov_core::CouplingCheck::Coupled);
        }
        // Tenant attribution: both tenants paid for queue sends.
        let usage = env.usage();
        assert!(usage.tenant_ops_total(TenantId(0)) > 0);
        assert!(usage.tenant_ops_total(TenantId(1)) > 0);
        assert!(
            usage
                .tenant_view(TenantId(0))
                .get(Actor::Client, Service::Queue, Op::Send)
                .count
                > 0
        );
    }

    #[test]
    fn backpressure_bounds_shard_wal_depth() {
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        // Give sends real latency so depth actually accumulates.
        profile.sqs.write_base = Duration::from_millis(10);
        let env = CloudEnv::new(&sim, profile);
        let fleet = Fleet::provision(
            &env,
            ProtocolConfig::default(),
            FleetConfig {
                shards: 1,
                max_shard_depth: 8,
                admission_poll: Duration::from_millis(50),
                ..FleetConfig::default()
            },
        );
        // No pool running: depth can only grow, so the gate is the only
        // thing standing between the client and an unbounded queue.
        let client = fleet.client("flooder", None);
        let mut max_seen = 0;
        for i in 0..40u128 {
            client
                .flush(FlushBatch {
                    objects: vec![file_obj(900 + i, &format!("k{i}"), "x")],
                })
                .unwrap();
            max_seen = max_seen.max(fleet.total_depth());
        }
        // Each admitted batch adds one WAL message past the gate check,
        // and merges can bundle a few queued batches, so allow slack
        // above the bound — but far below the 40 an unthrottled client
        // would have queued.
        assert!(
            max_seen <= 8 + 4,
            "backpressure failed: depth reached {max_seen}"
        );
        drop(client);
    }

    #[test]
    fn shared_ancestor_across_tenants_publishes_once() {
        // Two clients of different tenants flush batches sharing one
        // ancestor object. The second client's probe must hit the
        // fleet-wide content-addressed store — the shared bytes upload
        // exactly once — and the probe itself is metered traffic billed
        // to the probing tenant.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let fleet = Fleet::provision(&env, ProtocolConfig::default(), FleetConfig::default());
        let pool = fleet.spawn_pool(2, Duration::from_secs(1));
        let a = fleet.client("tenant-a-client", Some(TenantId(0)));
        let b = fleet.client("tenant-b-client", Some(TenantId(1)));
        let ancestor = file_obj(4000, "shared-input", "the same reference data");
        a.flush(FlushBatch {
            objects: vec![ancestor.clone(), file_obj(4001, "a-out", "from-a")],
        })
        .unwrap();
        a.sync().unwrap();
        let deadline = sim.now() + Duration::from_secs(600);
        while fleet.total_depth() > 0 && sim.now() < deadline {
            sim.sleep(Duration::from_secs(2));
        }
        // Generous settle so the registry write is visible to B's probe
        // despite SimpleDB's eventual consistency.
        sim.sleep(Duration::from_secs(30));
        b.flush(FlushBatch {
            objects: vec![ancestor.clone(), file_obj(4002, "b-out", "from-b")],
        })
        .unwrap();
        b.sync().unwrap();
        while fleet.total_depth() > 0 && sim.now() < deadline {
            sim.sleep(Duration::from_secs(2));
        }
        let sa = a.pipeline_stats().unwrap();
        let sb = b.pipeline_stats().unwrap();
        assert_eq!(sa.cas_publishes, 2, "A publishes the ancestor + its output");
        assert_eq!(
            sb.cas_publishes, 1,
            "B's shared ancestor hits the store; only its own output publishes"
        );
        assert!(sb.cas_hits >= 1, "the hit is observable in B's counters");
        // Three unique contents → exactly three stored CAS objects: the
        // shared ancestor's bytes exist once, fleet-wide.
        let cas_objects = env.s3().list_all("data", "cas/").unwrap();
        assert_eq!(cas_objects.len(), 3);
        // The probe rode tenant B's bill.
        assert!(
            env.usage()
                .tenant_view(TenantId(1))
                .get(Actor::Client, Service::Database, Op::DbGet)
                .count
                > 0
        );
        pool.stop();
        for key in ["shared-input", "a-out", "b-out"] {
            assert!(env.s3().peek_committed("data", key).is_some(), "{key}");
        }
    }

    #[test]
    fn drain_doorbell_wakes_throttled_client_before_the_poll_interval() {
        // A client parked at the depth bound must resume as soon as the
        // daemon acks WAL messages — not a poll interval later. The poll
        // here is deliberately enormous (10 s) so a pass can only come
        // from the doorbell.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let poll = Duration::from_secs(10);
        let bound = 4;
        let fleet = Fleet::provision(
            &env,
            ProtocolConfig::default(),
            FleetConfig {
                shards: 1,
                max_shard_depth: bound,
                admission_poll: poll,
                push: true,
                ..FleetConfig::default()
            },
        );
        let client = fleet.client("parked", None);
        let url = fleet.router().wal_url(0).to_string();
        // Fill the shard to its bound, one WAL message per transaction
        // (the sync between flushes prevents coalescing). No pool runs,
        // so nothing drains on its own.
        for i in 0..bound {
            client
                .flush(FlushBatch {
                    objects: vec![file_obj(700 + i as u128, &format!("fill{i}"), "x")],
                })
                .unwrap();
            client.sync().unwrap();
        }
        assert_eq!(fleet.total_depth(), bound, "shard filled to the bound");
        // The next flush must park: depth == bound, credits exhausted.
        let parked = {
            let client = fleet.client("parked-2", None);
            let sim2 = sim.clone();
            sim.spawn(move || {
                let t0 = sim2.now();
                client
                    .flush(FlushBatch {
                        objects: vec![file_obj(799, "late", "x")],
                    })
                    .unwrap();
                client.sync().unwrap();
                sim2.now().saturating_duration_since(t0)
            })
        };
        // Let the client reach the gate and park, then act as the
        // daemon: ack one WAL message, which rings the drain doorbell.
        sim.sleep(Duration::from_millis(100));
        let msgs = env.sqs().receive(&url, 1).unwrap();
        assert_eq!(msgs.len(), 1);
        env.sqs().delete(&url, &msgs[0].receipt).unwrap();
        let blocked_for = parked.join();
        assert!(
            blocked_for < Duration::from_secs(1),
            "doorbell must beat the 10 s poll fallback (blocked {blocked_for:?})"
        );
    }

    #[test]
    fn clients_on_one_shard_get_distinct_txn_streams() {
        // Two clients routed to the same queue must produce different
        // transaction ids (the wal_identity salt) — otherwise their WAL
        // messages would interleave into one garbage transaction.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let fleet = Fleet::provision(
            &env,
            ProtocolConfig::default(),
            FleetConfig {
                shards: 1,
                max_shard_depth: 0,
                ..FleetConfig::default()
            },
        );
        let a = fleet.client("alice", None);
        let b = fleet.client("bob", None);
        a.flush(FlushBatch {
            objects: vec![file_obj(1, "a", "from-alice")],
        })
        .unwrap();
        b.flush(FlushBatch {
            objects: vec![file_obj(2, "b", "from-bob")],
        })
        .unwrap();
        a.sync().unwrap();
        b.sync().unwrap();
        let pool = fleet.spawn_pool(1, Duration::from_secs(1));
        let deadline = sim.now() + Duration::from_secs(300);
        while fleet.total_depth() > 0 && sim.now() < deadline {
            sim.sleep(Duration::from_secs(2));
        }
        let stats = pool.stop();
        assert_eq!(stats.committed, 2, "two distinct transactions");
        assert_eq!(stats.unique_committed, 2);
        use cloudprov_cloud::Blob;
        assert_eq!(
            env.s3().peek_committed("data", "a").unwrap().blob,
            Blob::from("from-alice")
        );
        assert_eq!(
            env.s3().peek_committed("data", "b").unwrap().blob,
            Blob::from("from-bob")
        );
    }
}
