//! [`DaemonPool`]: N commit daemons draining M WAL shards under leases.
//!
//! Each worker is a simulated thread running the classic lease loop:
//! acquire shard leases from the [`LeaseBoard`], poll each held shard's
//! commit daemon, renew the lease after every round, and shed shards that
//! go idle (or that a starving peer could use) so the lease tokens keep
//! circulating toward the load. Failover and stealing both come from the
//! lease mechanics: a worker that dies or stalls stops renewing, the
//! token expires back to visible, and whichever worker polls the board
//! next takes the shard over.
//!
//! **Push delivery.** With [`PoolConfig::push`] (the default) a worker
//! additionally registers an arrival watcher on every WAL it leases and
//! parks on that doorbell between rounds: a client send wakes it
//! immediately, collapsing the idle-poll latency that otherwise
//! dominates commit lag. Watcher rings are best-effort (the fault plan
//! can drop them), so the park is bounded by `poll_interval` — a lost
//! wakeup degrades to the old polling cadence, never to a stuck shard —
//! and the watcher travels with the lease on release, handoff, and
//! steal.
//!
//! **Idempotence under at-least-once.** The pool keeps one shared
//! [`CommitDaemon`] per shard: when a shard moves between workers (steal,
//! handoff, duplicate lease delivery), the new worker drives the *same*
//! daemon, so partially assembled transactions survive the move and the
//! daemon's committed-set keeps redeliveries from double-committing.
//! Even two genuinely independent daemons on one shard are safe — the
//! commit path itself is idempotent (copy-or-verify, exact-duplicate
//! attribute writes coalesce) — but the pool additionally registers every
//! committed transaction id in a fleet-wide set and counts any repeat as
//! a `double_commits` violation, which the fleet benchmark asserts stays
//! at zero.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::CloudEnv;
use cloudprov_core::{CommitDaemon, CommitEventSink, ProtocolConfig};
use cloudprov_pass::Uuid;
use cloudprov_sim::{SimHandle, SimSemaphore, SimTime};

use crate::lease::{Lease, LeaseBoard};
use crate::router::ShardRouter;

/// Tuning for a [`DaemonPool`].
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Number of commit-daemon workers.
    pub daemons: usize,
    /// Sleep between poll rounds when a worker's shards are all idle.
    pub poll_interval: Duration,
    /// Max shards one worker may hold at once (clamped to the shard
    /// count). The default lets a lone worker cover the whole fleet.
    pub max_leases: usize,
    /// Consecutive empty polls after which a held shard is released back
    /// to the board so another (possibly less busy) worker can take it.
    pub idle_release_polls: u32,
    /// Push mode: each worker registers an arrival watcher
    /// ([`QueueService::watch`](cloudprov_cloud::QueueService::watch)) on
    /// every shard WAL it leases and parks on that doorbell when idle —
    /// a send wakes it immediately instead of costing up to a full
    /// `poll_interval` of latency. `poll_interval` remains the *fallback*
    /// cadence: watcher rings are droppable by the fault plan, so a lost
    /// wakeup degrades to polling, never to a stuck shard. The watcher
    /// follows the lease — it is registered on acquire and removed on
    /// release, handoff, or steal.
    pub push: bool,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            daemons: 1,
            poll_interval: Duration::from_secs(5),
            max_leases: usize::MAX,
            idle_release_polls: 2,
            push: true,
        }
    }
}

/// Counter snapshot of a running (or stopped) pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Transactions committed (sum over every daemon).
    pub committed: u64,
    /// Distinct transactions committed — equals `committed` iff no
    /// transaction was ever committed twice.
    pub unique_committed: u64,
    /// Transactions committed more than once (must be zero; the fleet
    /// benchmark's §3-style invariant).
    pub double_commits: u64,
    /// WAL messages received across all polls.
    pub messages: u64,
    /// Commits skipped because a referenced temp object never appeared.
    pub stalled: u64,
    /// Messages discarded through the daemons' batched drop path
    /// (garbage bodies, late redeliveries of committed transactions) —
    /// the at-least-once churn the plane absorbed.
    pub dropped: u64,
    /// Lease acquisitions (including re-acquisitions after release).
    pub acquisitions: u64,
    /// Leases lost to expiry/steal (renewal failed).
    pub losses: u64,
    /// Idle shards voluntarily released back to the board.
    pub idle_releases: u64,
    /// Hot shards handed off to starving workers.
    pub handoffs: u64,
    /// Idle parks that ended early because a shard doorbell rang (push
    /// mode only; zero means the pool ran on the polling fallback).
    pub wakeups: u64,
    /// Poll errors (service faults that survived retries).
    pub errors: u64,
}

struct PoolShared {
    stop: AtomicBool,
    daemons: Mutex<BTreeMap<u32, Arc<CommitDaemon>>>,
    committed_txns: Mutex<BTreeSet<Uuid>>,
    /// (txn, committed-at) per first commit — joined with the clients'
    /// logged-at timestamps into the commit-latency distribution.
    commit_times: Mutex<Vec<(Uuid, SimTime)>>,
    committed: AtomicU64,
    double_commits: AtomicU64,
    messages: AtomicU64,
    stalled: AtomicU64,
    dropped: AtomicU64,
    acquisitions: AtomicU64,
    losses: AtomicU64,
    idle_releases: AtomicU64,
    handoffs: AtomicU64,
    wakeups: AtomicU64,
    errors: AtomicU64,
    /// Feed sink installed on every (existing and future) shard daemon
    /// when the pool runs with `ProtocolConfig.feed`.
    sink: Mutex<Option<CommitEventSink>>,
    /// Leases currently held across the whole pool, for coverage checks.
    held_total: AtomicUsize,
    /// Per-worker "I hold no shard" gauge, for hot-shard handoff.
    starving: Vec<AtomicBool>,
}

impl PoolShared {
    fn starving_count(&self) -> usize {
        self.starving
            .iter()
            .filter(|s| s.load(Ordering::Relaxed))
            .count()
    }

    /// The shared per-shard commit daemon, created (with the fleet-wide
    /// double-commit listener) on first use. The pool owns its daemons and
    /// each daemon owns its listener, so the listener's way back to the
    /// pool is weak: a strong one is a cycle no `stop()` ever frees.
    fn daemon_for(
        self: &Arc<Self>,
        env: &CloudEnv,
        config: &ProtocolConfig,
        router: &ShardRouter,
        shard: u32,
    ) -> Arc<CommitDaemon> {
        let mut daemons = self.daemons.lock();
        daemons
            .entry(shard)
            .or_insert_with(|| {
                let d = Arc::new(CommitDaemon::new(
                    env,
                    config.clone(),
                    router.wal_url(shard),
                ));
                if let Some(sink) = self.sink.lock().clone() {
                    d.set_event_sink(sink);
                }
                let shared = Arc::downgrade(self);
                let sim = env.sim().clone();
                d.set_commit_listener(Arc::new(move |txn| {
                    let Some(shared) = shared.upgrade() else {
                        return;
                    };
                    shared.committed.fetch_add(1, Ordering::Relaxed);
                    if shared.committed_txns.lock().insert(txn) {
                        shared.commit_times.lock().push((txn, sim.now()));
                    } else {
                        shared.double_commits.fetch_add(1, Ordering::Relaxed);
                    }
                }));
                d
            })
            .clone()
    }
}

/// A running pool of commit-daemon workers.
pub struct DaemonPool {
    shared: Arc<PoolShared>,
    handles: Vec<SimHandle<()>>,
}

impl std::fmt::Debug for DaemonPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonPool")
            .field("workers", &self.handles.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl DaemonPool {
    /// Spawns the pool's workers on background simulated threads. The
    /// pool runs until [`DaemonPool::stop`].
    pub fn spawn(
        env: &CloudEnv,
        protocol_config: ProtocolConfig,
        router: Arc<ShardRouter>,
        board: LeaseBoard,
        config: PoolConfig,
    ) -> DaemonPool {
        assert!(config.daemons >= 1, "a pool needs at least one daemon");
        let shared = Arc::new(PoolShared {
            stop: AtomicBool::new(false),
            daemons: Mutex::new(BTreeMap::new()),
            committed_txns: Mutex::new(BTreeSet::new()),
            commit_times: Mutex::new(Vec::new()),
            committed: AtomicU64::new(0),
            double_commits: AtomicU64::new(0),
            messages: AtomicU64::new(0),
            stalled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            acquisitions: AtomicU64::new(0),
            losses: AtomicU64::new(0),
            idle_releases: AtomicU64::new(0),
            handoffs: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            sink: Mutex::new(None),
            held_total: AtomicUsize::new(0),
            starving: (0..config.daemons).map(|_| AtomicBool::new(true)).collect(),
        });
        let handles = (0..config.daemons)
            .map(|w| {
                let env = env.clone();
                let protocol_config = protocol_config.clone();
                let router = router.clone();
                let board = board.clone();
                let shared = shared.clone();
                env.sim()
                    .clone()
                    .spawn(move || worker(w, env, protocol_config, router, board, config, shared))
            })
            .collect();
        DaemonPool { shared, handles }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        snapshot(&self.shared)
    }

    /// Installs a commit-event sink on every shard daemon the pool has
    /// built — and every one it builds later. Only daemons running a
    /// feed-enabled [`ProtocolConfig`] publish events; the sink is the
    /// delivery side (a [`cloudprov_core::feed`] subscription registry,
    /// a query-cache invalidator, …).
    pub fn set_event_sink(&self, sink: CommitEventSink) {
        *self.shared.sink.lock() = Some(sink.clone());
        for d in self.shared.daemons.lock().values() {
            d.set_event_sink(sink.clone());
        }
    }

    /// Transactions committed so far (all workers).
    pub fn committed_transactions(&self) -> u64 {
        self.shared.committed.load(Ordering::Relaxed)
    }

    /// (txn, committed-at) for every distinct transaction the pool has
    /// committed, in commit order. The fleet benchmark joins these with
    /// each client's WAL-logged timestamps to measure per-transaction
    /// commit latency.
    pub fn commit_times(&self) -> Vec<(Uuid, SimTime)> {
        self.shared.commit_times.lock().clone()
    }

    /// (txn, first-received-at) across every shard daemon, earliest
    /// receive winning when a transaction was seen by more than one
    /// (lease steal mid-assembly). Joined with client logged-at
    /// timestamps this yields the WAL-durable -> pickup dwell — the
    /// waiting component push delivery eliminates, which the fleet
    /// bench gates under a second while the commit's own service time
    /// under 2009-calibrated latencies stays several seconds.
    pub fn pickup_times(&self) -> Vec<(Uuid, SimTime)> {
        let mut earliest: BTreeMap<Uuid, SimTime> = BTreeMap::new();
        for d in self.shared.daemons.lock().values() {
            for (txn, at) in d.pickup_times() {
                earliest
                    .entry(txn)
                    .and_modify(|e| *e = (*e).min(at))
                    .or_insert(at);
            }
        }
        earliest.into_iter().collect()
    }

    /// Signals every worker and waits (in virtual time) for them to
    /// exit, releasing any held leases. Returns the final stats.
    pub fn stop(self) -> PoolStats {
        self.shared.stop.store(true, Ordering::Relaxed);
        for h in self.handles {
            h.join();
        }
        snapshot(&self.shared)
    }
}

fn snapshot(s: &PoolShared) -> PoolStats {
    PoolStats {
        committed: s.committed.load(Ordering::Relaxed),
        unique_committed: s.committed_txns.lock().len() as u64,
        double_commits: s.double_commits.load(Ordering::Relaxed),
        messages: s.messages.load(Ordering::Relaxed),
        stalled: s.stalled.load(Ordering::Relaxed),
        dropped: s.dropped.load(Ordering::Relaxed),
        acquisitions: s.acquisitions.load(Ordering::Relaxed),
        losses: s.losses.load(Ordering::Relaxed),
        idle_releases: s.idle_releases.load(Ordering::Relaxed),
        handoffs: s.handoffs.load(Ordering::Relaxed),
        wakeups: s.wakeups.load(Ordering::Relaxed),
        errors: s.errors.load(Ordering::Relaxed),
    }
}

/// One worker's lease loop.
fn worker(
    index: usize,
    env: CloudEnv,
    protocol_config: ProtocolConfig,
    router: Arc<ShardRouter>,
    board: LeaseBoard,
    config: PoolConfig,
    shared: Arc<PoolShared>,
) {
    let sim = env.sim().clone();
    let sqs = env.sqs().clone();
    // The worker's doorbell: in push mode every leased shard's WAL rings
    // it on send, so the idle wait below ends the moment work arrives
    // instead of up to a full `poll_interval` later.
    let wake = SimSemaphore::new(&sim, 0);
    // The board rings the same doorbell on every handed-off token, so a
    // starving worker learns about a freed hot shard immediately.
    let board_watch = if config.push {
        board.watch(wake.clone())
    } else {
        None
    };
    let max_leases = config.max_leases.clamp(1, router.shards() as usize);
    // (lease, consecutive empty polls, arrival-watch id)
    let mut held: Vec<(Lease, u32, Option<u64>)> = Vec::new();
    // Set after this worker hands a shard off: skip the next acquire so
    // the starving peer the handoff woke wins the token instead of this
    // (faster-cycling) worker grabbing it straight back.
    let mut handoff_cooldown = false;
    while !shared.stop.load(Ordering::Relaxed) {
        // Acquire one more shard per round while there is capacity; one
        // at a time keeps acquisition fair across workers.
        if handoff_cooldown {
            handoff_cooldown = false;
        } else if held.len() < max_leases {
            if let Some(lease) = board.acquire() {
                shared.acquisitions.fetch_add(1, Ordering::Relaxed);
                shared.held_total.fetch_add(1, Ordering::Relaxed);
                // The subscription follows the lease: watch the shard's
                // WAL for as long as this worker holds it.
                let watch = if config.push {
                    sqs.watch(router.wal_url(lease.shard()), wake.clone()).ok()
                } else {
                    None
                };
                held.push((lease, 0, watch));
            }
        }
        shared.starving[index].store(held.is_empty(), Ordering::Relaxed);
        if held.is_empty() {
            if board_watch.is_some() {
                // Starving: park on the doorbell so a peer's handoff
                // (which re-sends the token) wakes this worker at once;
                // the timeout keeps plain releases and expiries covered.
                if let Some(permit) = wake.acquire_timeout(config.poll_interval) {
                    permit.forget();
                    shared.wakeups.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                sim.sleep(config.poll_interval);
            }
            continue;
        }
        // Doorbell rings banked up to this point are covered by the
        // receives below; consuming them now keeps stale wakeups from
        // replaying as extra empty (metered) poll rounds later.
        if config.push {
            while let Some(permit) = wake.try_acquire() {
                permit.forget();
            }
        }
        // Poll every held shard once — one poll is now a whole GROUP
        // commit (the daemon drains several receive rounds and commits
        // everything that assembled) — then renew its lease; renewal
        // therefore spans the full group, and the group's bounded
        // receive window keeps its duration far inside the lease TTL. A failed
        // renewal means the shard was stolen (or the TTL lapsed): drop
        // it on the spot — its daemon state stays in the shared map for
        // whoever drives it next, and the stolen shard's watch goes with
        // the lease (the thief registered its own on acquire).
        let mut any_messages = false;
        let mut kept: Vec<(Lease, u32, Option<u64>)> = Vec::new();
        for (lease, idle, watch) in held.drain(..) {
            let daemon = shared.daemon_for(&env, &protocol_config, &router, lease.shard());
            let idle = match daemon.poll_once() {
                Ok(o) => {
                    shared
                        .messages
                        .fetch_add(o.messages as u64, Ordering::Relaxed);
                    shared
                        .stalled
                        .fetch_add(o.stalled as u64, Ordering::Relaxed);
                    shared
                        .dropped
                        .fetch_add(o.dropped as u64, Ordering::Relaxed);
                    if o.messages > 0 {
                        any_messages = true;
                        0
                    } else {
                        idle + 1
                    }
                }
                Err(_) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    idle
                }
            };
            if board.renew(&lease) {
                kept.push((lease, idle, watch));
            } else {
                shared.losses.fetch_add(1, Ordering::Relaxed);
                shared.held_total.fetch_sub(1, Ordering::Relaxed);
                if let Some(id) = watch {
                    sqs.unwatch(router.wal_url(lease.shard()), id);
                }
            }
        }
        held = kept;
        // Hot-shard handoff: while peers are starving and this worker
        // holds several shards, give away the one with the deepest
        // backlog — the starving peer will pick it up on its next
        // acquire, splitting the hot load instead of the idle tail.
        if held.len() > 1 && shared.starving_count() > 0 {
            let hottest = held
                .iter()
                .enumerate()
                .max_by_key(|(_, (l, _, _))| router.depth(&env, l.shard()))
                .map(|(i, _)| i);
            if let Some(i) = hottest {
                let (lease, _, watch) = held.remove(i);
                shared.held_total.fetch_sub(1, Ordering::Relaxed);
                if let Some(id) = watch {
                    sqs.unwatch(router.wal_url(lease.shard()), id);
                }
                if board.handoff(lease) {
                    shared.handoffs.fetch_add(1, Ordering::Relaxed);
                    handoff_cooldown = true;
                }
            }
        }
        // Idle release — but only when circulating the token serves a
        // purpose: a peer is starving, or the board still has unheld
        // shards this worker could rotate onto. A lone worker holding
        // every shard keeps (and renews) them instead of churning two
        // queue ops per shard per round.
        let uncovered_shards = shared.held_total.load(Ordering::Relaxed) < router.shards() as usize;
        if shared.starving_count() > 0 || uncovered_shards {
            let mut still: Vec<(Lease, u32, Option<u64>)> = Vec::new();
            for (lease, idle, watch) in held.drain(..) {
                if idle >= config.idle_release_polls {
                    shared.held_total.fetch_sub(1, Ordering::Relaxed);
                    if let Some(id) = watch {
                        sqs.unwatch(router.wal_url(lease.shard()), id);
                    }
                    if board.release(lease) {
                        shared.idle_releases.fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    still.push((lease, idle, watch));
                }
            }
            held = still;
        }
        if !any_messages {
            if config.push && held.iter().any(|(_, _, w)| w.is_some()) {
                // Park on the doorbell; the timeout is the polling
                // fallback that keeps every shard live even if the fault
                // plan dropped each ring.
                if let Some(permit) = wake.acquire_timeout(config.poll_interval) {
                    permit.forget();
                    shared.wakeups.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                sim.sleep(config.poll_interval);
            }
        }
    }
    for (lease, _, watch) in held {
        shared.held_total.fetch_sub(1, Ordering::Relaxed);
        if let Some(id) = watch {
            sqs.unwatch(router.wal_url(lease.shard()), id);
        }
        let _ = board.release(lease);
    }
    if let Some(id) = board_watch {
        board.unwatch(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardRouter;
    use cloudprov_cloud::AwsProfile;
    use cloudprov_core::{FlushBatch, Protocol, ProvenanceClient, StorageProtocol};
    use cloudprov_sim::Sim;

    fn flush_one(fleet_client: &ProvenanceClient, uuid: u128, key: &str) {
        use cloudprov_cloud::Blob;
        use cloudprov_pass::{Attr, FlushNode, NodeKind, PNodeId, ProvenanceRecord};
        let id = PNodeId {
            uuid: Uuid(uuid),
            version: 1,
        };
        let blob = Blob::from("payload");
        let obj = cloudprov_core::FlushObject::file(
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
        );
        fleet_client
            .flush(FlushBatch { objects: vec![obj] })
            .unwrap();
    }

    fn shard_client(
        env: &CloudEnv,
        _router: &ShardRouter,
        shard: u32,
        name: &str,
    ) -> ProvenanceClient {
        ProvenanceClient::builder(Protocol::P3)
            .queue(ShardRouter::queue_name(shard))
            .wal_identity(name)
            .build(env)
    }

    #[test]
    fn pool_drains_all_shards_and_never_double_commits() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let router = Arc::new(ShardRouter::provision(&env, 4));
        // 12 transactions spread over the shards, logged before the pool
        // starts.
        for i in 0..12u32 {
            let shard = i % 4;
            let client = shard_client(&env, &router, shard, &format!("c{i}"));
            flush_one(&client, 1000 + u128::from(i), &format!("f{i}"));
        }
        let board = LeaseBoard::provision(&env, 4, Duration::from_secs(60));
        let pool = DaemonPool::spawn(
            &env,
            ProtocolConfig::default(),
            router.clone(),
            board,
            PoolConfig {
                daemons: 3,
                poll_interval: Duration::from_secs(2),
                ..PoolConfig::default()
            },
        );
        let deadline = sim.now() + Duration::from_secs(600);
        while router.total_depth(&env) > 0 && sim.now() < deadline {
            sim.sleep(Duration::from_secs(5));
        }
        assert_eq!(router.total_depth(&env), 0, "WAL must drain");
        let stats = pool.stop();
        assert_eq!(stats.committed, 12);
        assert_eq!(stats.unique_committed, 12);
        assert_eq!(stats.double_commits, 0);
        for i in 0..12 {
            assert!(
                env.s3().peek_committed("data", &format!("f{i}")).is_some(),
                "f{i} must be committed"
            );
        }
    }

    #[test]
    fn dead_worker_loses_its_shard_to_a_live_one() {
        // One worker acquires a lease out-of-band and "dies" (never
        // renews). The pool's live worker must take the shard over after
        // the TTL and drain it.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let router = Arc::new(ShardRouter::provision(&env, 1));
        let client = shard_client(&env, &router, 0, "c0");
        flush_one(&client, 7, "takeover");
        let ttl = Duration::from_secs(30);
        let board = LeaseBoard::provision(&env, 1, ttl);
        let dead = board.acquire().expect("dead worker grabs the lease");
        let pool = DaemonPool::spawn(
            &env,
            ProtocolConfig::default(),
            router.clone(),
            board.clone(),
            PoolConfig {
                daemons: 1,
                poll_interval: Duration::from_secs(5),
                ..PoolConfig::default()
            },
        );
        // Before the TTL nothing can happen.
        sim.sleep(Duration::from_secs(10));
        assert_eq!(pool.committed_transactions(), 0);
        // After the TTL the pool steals the shard and commits.
        sim.sleep(Duration::from_secs(120));
        assert_eq!(pool.committed_transactions(), 1);
        assert!(env.s3().peek_committed("data", "takeover").is_some());
        // The dead worker's lease is unusable now.
        assert!(!board.renew(&dead));
        pool.stop();
    }

    #[test]
    fn push_commits_without_waiting_out_the_poll_interval() {
        // With a pathologically long poll interval, only the shard
        // doorbell can explain a prompt commit: the parked worker must
        // wake on the WAL send, not on the 600 s fallback timer.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let router = Arc::new(ShardRouter::provision(&env, 1));
        let board = LeaseBoard::provision(&env, 1, Duration::from_secs(3600));
        let pool = DaemonPool::spawn(
            &env,
            ProtocolConfig::default(),
            router.clone(),
            board,
            PoolConfig {
                daemons: 1,
                poll_interval: Duration::from_secs(600),
                ..PoolConfig::default()
            },
        );
        // Let the worker lease the shard, find it empty, and park.
        sim.sleep(Duration::from_secs(2));
        assert_eq!(env.sqs().peek_watchers(router.wal_url(0)), 1);
        let client = shard_client(&env, &router, 0, "late");
        flush_one(&client, 42, "late-arrival");
        let deadline = sim.now() + Duration::from_secs(30);
        while router.total_depth(&env) > 0 && sim.now() < deadline {
            sim.sleep(Duration::from_millis(100));
        }
        assert_eq!(
            router.total_depth(&env),
            0,
            "push must beat the 600 s timer"
        );
        let stats = pool.stop();
        assert_eq!(stats.committed, 1);
        assert!(
            stats.wakeups >= 1,
            "the doorbell must have fired: {stats:?}"
        );
    }

    #[test]
    fn polling_pool_drains_on_the_timer_without_doorbells() {
        // `push: false` is the plane the doorbells replaced: no watcher
        // is registered, so an arrival waits out the worker's sleep and
        // the commit lands on the poll_interval timer — later, never
        // stuck.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let router = Arc::new(ShardRouter::provision(&env, 1));
        let board = LeaseBoard::provision(&env, 1, Duration::from_secs(3600));
        let poll_interval = Duration::from_secs(10);
        let spawned_at = sim.now();
        let pool = DaemonPool::spawn(
            &env,
            ProtocolConfig::default(),
            router.clone(),
            board,
            PoolConfig {
                daemons: 1,
                poll_interval,
                push: false,
                ..PoolConfig::default()
            },
        );
        // Let the worker lease the shard, find it empty, and go to sleep.
        sim.sleep(Duration::from_secs(2));
        assert_eq!(env.sqs().peek_watchers(router.wal_url(0)), 0);
        let client = shard_client(&env, &router, 0, "polled");
        flush_one(&client, 44, "polled-arrival");
        let deadline = sim.now() + Duration::from_secs(60);
        while router.total_depth(&env) > 0 && sim.now() < deadline {
            sim.sleep(Duration::from_millis(500));
        }
        assert_eq!(router.total_depth(&env), 0, "the timer must drain it");
        let (_, committed_at) = pool.commit_times()[0];
        assert!(
            committed_at >= spawned_at + poll_interval,
            "nothing but the timer can wake a polling worker: {committed_at:?}"
        );
        let stats = pool.stop();
        assert_eq!(stats.committed, 1);
        assert_eq!(stats.wakeups, 0, "no doorbells in polling mode");
    }

    #[test]
    fn dropped_wakeups_degrade_to_polling_never_a_stuck_shard() {
        // Every watcher ring is lost: delivery must fall back to the
        // poll_interval cadence — slower, but the shard still drains.
        use cloudprov_cloud::FaultPlan;
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        env.faults().set(FaultPlan {
            notify_drop_probability: 1.0,
            ..FaultPlan::default()
        });
        let router = Arc::new(ShardRouter::provision(&env, 1));
        let board = LeaseBoard::provision(&env, 1, Duration::from_secs(3600));
        let pool = DaemonPool::spawn(
            &env,
            ProtocolConfig::default(),
            router.clone(),
            board,
            PoolConfig {
                daemons: 1,
                poll_interval: Duration::from_secs(10),
                ..PoolConfig::default()
            },
        );
        sim.sleep(Duration::from_secs(2));
        let client = shard_client(&env, &router, 0, "muted");
        flush_one(&client, 43, "muted-arrival");
        let deadline = sim.now() + Duration::from_secs(60);
        while router.total_depth(&env) > 0 && sim.now() < deadline {
            sim.sleep(Duration::from_millis(500));
        }
        assert_eq!(
            router.total_depth(&env),
            0,
            "the polling fallback must drain the shard despite lost rings"
        );
        let stats = pool.stop();
        assert_eq!(stats.committed, 1);
        assert_eq!(stats.wakeups, 0, "every ring was dropped: {stats:?}");
    }

    #[test]
    fn hot_shard_handoff_moves_the_lease_and_its_subscription() {
        // Pin the whole backlog to shard 0 with shard 1's lease parked
        // out-of-band, so the lone active worker ends up holding BOTH
        // shards while its peer starves — the exact precondition of the
        // hot-shard handoff. The handoff re-sends the board token, which
        // rings the starving worker's doorbell; the worker must take the
        // hot shard over and the WAL arrival watch must move with it.
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        // Real receive latency so the 150-message backlog outlives a few
        // group-commit rounds instead of vanishing in one instant poll.
        profile.sqs.read_base = Duration::from_millis(50);
        profile.sqs.write_base = Duration::from_millis(5);
        let env = CloudEnv::new(&sim, profile);
        let router = Arc::new(ShardRouter::provision(&env, 2));
        let client = shard_client(&env, &router, 0, "pinned");
        for i in 0..150u128 {
            flush_one(&client, 2000 + i, &format!("hot{i}"));
        }
        let board = LeaseBoard::provision(&env, 2, Duration::from_secs(600));
        let mut parked = board.acquire().expect("park shard 1's lease");
        if parked.shard() == 0 {
            let other = board.acquire().expect("two tokens were seeded");
            assert!(board.release(parked));
            parked = other;
        }
        assert_eq!(parked.shard(), 1);
        let pool = DaemonPool::spawn(
            &env,
            ProtocolConfig::default(),
            router.clone(),
            board.clone(),
            PoolConfig {
                daemons: 2,
                poll_interval: Duration::from_secs(5),
                ..PoolConfig::default()
            },
        );
        // One worker is now grinding shard 0; the other starves. Free
        // shard 1 mid-backlog: the busy worker picks it up on its next
        // round, sees a starving peer, and must hand the DEEP shard off.
        sim.sleep(Duration::from_millis(500));
        assert!(board.release(parked));
        let deadline = sim.now() + Duration::from_secs(120);
        while router.total_depth(&env) > 0 && sim.now() < deadline {
            sim.sleep(Duration::from_millis(250));
        }
        assert_eq!(router.total_depth(&env), 0, "backlog must fully drain");
        let stats = pool.stats();
        assert!(
            stats.handoffs >= 1,
            "the hot-shard handoff never fired: {stats:?}"
        );
        assert_eq!(stats.losses, 0, "handoff is a release, not a steal");
        // The subscription followed each lease: every shard has exactly
        // one arrival watcher — none leaked by the giver, none missing
        // on the taker.
        assert_eq!(env.sqs().peek_watchers(router.wal_url(0)), 1);
        assert_eq!(env.sqs().peek_watchers(router.wal_url(1)), 1);
        let stats = pool.stop();
        assert_eq!(stats.committed, 150);
        assert_eq!(stats.unique_committed, 150);
        assert_eq!(stats.double_commits, 0);
        // Stopped workers tore their watches down.
        assert_eq!(env.sqs().peek_watchers(router.wal_url(0)), 0);
        assert_eq!(env.sqs().peek_watchers(router.wal_url(1)), 0);
    }

    /// Commits one transaction through a fleet client — after a lease
    /// steal when `steal` — then stops the pool and drops the world.
    /// Returns what is left of the pool's shared state.
    fn pool_state_after_its_world_is_dropped(steal: bool) -> std::sync::Weak<PoolShared> {
        use crate::{Fleet, FleetConfig};
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let config = FleetConfig {
            shards: 1,
            lease_ttl: Duration::from_secs(30),
            ..FleetConfig::default()
        };
        let fleet = Fleet::provision(&env, ProtocolConfig::default(), config);
        // A holder that never renews: the pool's worker can only get the
        // shard — and build its daemon — by taking the expired lease over.
        let dead = steal.then(|| fleet.board().acquire().expect("dead holder's lease"));
        let pool = fleet.spawn_pool(2, Duration::from_secs(2));
        let client = fleet.client("tenant-a", None);
        flush_one(&client, 9001, "leak-check");
        client.sync().unwrap();
        let deadline = sim.now() + Duration::from_secs(600);
        while fleet.total_depth() > 0 && sim.now() < deadline {
            sim.sleep(Duration::from_secs(5));
        }
        if let Some(dead) = &dead {
            assert!(
                !fleet.board().renew(dead),
                "the lease must have been stolen"
            );
        }
        assert_eq!(pool.shared.daemons.lock().len(), 1);
        let shared = Arc::downgrade(&pool.shared);
        let stats = pool.stop();
        assert_eq!(
            stats.committed, 1,
            "the listener must still count: {stats:?}"
        );
        drop((client, fleet, env, sim));
        shared
    }

    #[test]
    fn a_stopped_pool_is_freed_with_its_daemons() {
        // `PoolShared` owns the shard daemons and each daemon owns its
        // commit listener; were the listener to own `PoolShared` back, no
        // world that ever committed through a pool would be freed.
        let shared = pool_state_after_its_world_is_dropped(false);
        assert!(shared.upgrade().is_none(), "PoolShared leaked");
    }

    #[test]
    fn a_pool_that_stole_a_lease_is_freed_too() {
        let shared = pool_state_after_its_world_is_dropped(true);
        assert!(shared.upgrade().is_none(), "PoolShared leaked");
    }

    #[test]
    fn stats_survive_stop() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let router = Arc::new(ShardRouter::provision(&env, 2));
        let board = LeaseBoard::provision(&env, 2, Duration::from_secs(60));
        let pool = DaemonPool::spawn(
            &env,
            ProtocolConfig::default(),
            router,
            board,
            PoolConfig {
                daemons: 2,
                poll_interval: Duration::from_secs(1),
                ..PoolConfig::default()
            },
        );
        sim.sleep(Duration::from_secs(20));
        let stats = pool.stop();
        assert!(stats.acquisitions > 0, "workers must have leased shards");
        assert_eq!(stats.committed, 0);
        assert_eq!(stats.double_commits, 0);
    }
}
