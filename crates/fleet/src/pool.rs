//! [`DaemonPool`]: N commit daemons draining M WAL shards under leases.
//!
//! Each worker is a simulated thread running the classic lease loop:
//! acquire shard leases from the [`LeaseBoard`], poll each held shard's
//! commit daemon, renew its lease, and shed shards that go idle (or that
//! a starving peer could use). A worker that dies or stalls stops
//! renewing, the token expires back to visible, and whichever worker
//! probes the board next takes the shard over.
//!
//! **The lease tick**, [`DaemonPool::idle_park_cap`], is a quarter of the
//! TTL. A held lease is renewed once its age reaches the tick, checked
//! just before and just after its shard's poll; a worker holding a shard
//! probes the board once per tick unless its last probe took a token. So
//! a lease is at most tick + max(tick, one group) old at a renewal (the
//! argument is written out in `worker`), and a freed token is found
//! within a tick of turning visible.
//!
//! **Push delivery.** A worker parks between rounds on one doorbell, rung
//! by every WAL it leases ([`QueueService::watch`]) and by the lease
//! board. Rings are best-effort, so the park is bounded by a fallback
//! that starts at `poll_interval` and doubles after every round that
//! neither received a message nor took a lease, up to the tick: a lost
//! ring costs at most a tick, and an idle round at most three metered
//! calls (a board probe, a WAL receive and a renewal) per tick.
//!
//! **One daemon per held lease.** A worker builds a fresh
//! [`CommitDaemon`] on acquiring a lease and drops it with the lease
//! (released, handed off or lost), so no two workers share a daemon's
//! locks. A takeover starts cold, like the paper's any-machine daemon:
//! partly assembled transactions come back by WAL redelivery, a
//! `materialized` miss re-puts registry rows SimpleDB deduplicates, and
//! the feed writer recovers the stream's next sequence. The commit path
//! is idempotent, and the pool counts any transaction committed twice as
//! a `double_commits` violation.
//!
//! **The envelope.** A lease is checked just before each poll, so a
//! lapsed holder drops its daemon before its next group. Two daemons
//! drive one stream only if a group outlasts three quarters of the TTL,
//! or a single call the whole TTL; then both can stage one feed
//! sequence, which `audit_feed` reports as a duplicate.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::{CloudEnv, QueueService};
use cloudprov_core::{CommitDaemon, CommitEventSink, ProtocolConfig};
use cloudprov_pass::Uuid;
use cloudprov_sim::{SimHandle, SimSemaphore, SimTime};

use crate::lease::{Lease, LeaseBoard};
use crate::router::ShardRouter;

/// Consecutive empty polls after which a held shard is released back to
/// the board, so another (possibly less busy) worker can take it.
const IDLE_RELEASE_POLLS: u32 = 2;

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
    /// Parks that ended early because a doorbell rang (zero means the
    /// pool ran on the polling fallback, every ring lost).
    pub wakeups: u64,
    /// Poll errors (service faults that survived retries).
    pub errors: u64,
    /// Worker rounds: one poll of every shard the worker held, with the
    /// renewals that fell due (a starving worker's acquire-and-park is
    /// not a round). Over `unique_committed` it prices the plane's idle
    /// polling.
    pub rounds: u64,
    /// Lease renewals issued (`ChangeVisibility` calls that extend a held
    /// lease, failed ones included; releases are not renewals).
    pub renewals: u64,
    /// Lease-board probes ([`LeaseBoard::acquire`] calls, whether they
    /// took a token or came back empty).
    pub board_probes: u64,
    /// The oldest any held lease was at a renewal due-check: the renewal
    /// margin, which must stay under the lease TTL.
    pub max_lease_age: Duration,
}

#[derive(Default)]
struct PoolShared {
    stop: AtomicBool,
    /// Every distinct committed transaction, with the instant its
    /// committing daemon first received it (`None` if that daemon had
    /// already gone).
    committed_txns: Mutex<BTreeMap<Uuid, Option<SimTime>>>,
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
    rounds: AtomicU64,
    renewals: AtomicU64,
    board_probes: AtomicU64,
    /// `PoolStats::max_lease_age`, in nanoseconds.
    max_lease_age_ns: AtomicU64,
    /// The feed sink every daemon forwards its published events to, read
    /// at publish time (daemons run a feed only with `ProtocolConfig.feed`).
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

    /// A fresh commit daemon for a lease just taken on `wal_url`, wired to
    /// the pool's feed sink and fleet-wide double-commit registry. The
    /// daemon owns its listener, so the listener's way back to the daemon
    /// (for the transaction's pickup instant) is weak.
    fn build_daemon(
        self: &Arc<Self>,
        env: &CloudEnv,
        config: &ProtocolConfig,
        wal_url: &str,
    ) -> Arc<CommitDaemon> {
        let d = Arc::new(CommitDaemon::new(env, config.clone(), wal_url));
        let shared = self.clone();
        d.set_event_sink(Arc::new(move |event| {
            // Cloned out, so no guard is held across the sink call.
            let sink = shared.sink.lock().clone();
            if let Some(sink) = sink {
                sink(event);
            }
        }));
        let (shared, me, sim) = (self.clone(), Arc::downgrade(&d), env.sim().clone());
        d.set_commit_listener(Arc::new(move |txn| {
            shared.committed.fetch_add(1, Ordering::Relaxed);
            match shared.committed_txns.lock().entry(txn) {
                Entry::Vacant(e) => {
                    e.insert(me.upgrade().and_then(|d| d.pickup_time(txn)));
                    shared.commit_times.lock().push((txn, sim.now()));
                }
                Entry::Occupied(_) => {
                    shared.double_commits.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
        d
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
    /// Spawns `daemons` workers on background simulated threads. A worker
    /// parks at most `poll_interval` after a round that received a message
    /// or took a lease (or while it holds no shard); each further idle
    /// round doubles that, up to [`DaemonPool::idle_park_cap`]. A doorbell
    /// ring ends any park at once. The pool runs until
    /// [`DaemonPool::stop`].
    ///
    /// # Panics
    ///
    /// If `daemons` is zero, or if `poll_interval` exceeds a quarter of
    /// the board's lease TTL: leases are renewed once per quarter-TTL
    /// tick, and a longer fallback park would renew them only after they
    /// expired.
    pub fn spawn(
        env: &CloudEnv,
        protocol_config: ProtocolConfig,
        router: Arc<ShardRouter>,
        board: LeaseBoard,
        daemons: usize,
        poll_interval: Duration,
    ) -> DaemonPool {
        assert!(daemons >= 1, "a pool needs at least one daemon");
        let tick = DaemonPool::idle_park_cap(board.ttl());
        assert!(
            poll_interval <= tick,
            "poll_interval {poll_interval:?} exceeds the lease renewal tick, lease_ttl / 4 = \
             {tick:?}: a lease must be renewed at most a quarter TTL after its last renewal"
        );
        let shared = Arc::new(PoolShared {
            starving: (0..daemons).map(|_| AtomicBool::new(true)).collect(),
            ..PoolShared::default()
        });
        let handles = (0..daemons)
            .map(|w| {
                let env = env.clone();
                let protocol_config = protocol_config.clone();
                let router = router.clone();
                let board = board.clone();
                let shared = shared.clone();
                env.sim().clone().spawn(move || {
                    worker(
                        w,
                        env,
                        protocol_config,
                        router,
                        board,
                        poll_interval,
                        shared,
                    )
                })
            })
            .collect();
        DaemonPool { shared, handles }
    }

    /// The lease tick, `lease_ttl / 4`: a worker renews a held lease once
    /// its age reaches the tick, and while it holds a shard probes the
    /// board at most once per tick unless its last probe took a token. It
    /// is also the longest a worker holding shards parks between idle
    /// rounds, so the most a lost doorbell ring can delay a commit on an
    /// idle plane.
    pub fn idle_park_cap(lease_ttl: Duration) -> Duration {
        lease_ttl / 4
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        snapshot(&self.shared)
    }

    /// Installs the commit-event sink every shard daemon publishes to,
    /// those running now and those built later: each forwards its events
    /// to the sink installed when it publishes. Only daemons running a
    /// feed-enabled [`ProtocolConfig`] publish events; the sink is the
    /// delivery side (a [`cloudprov_core::feed`] subscription registry,
    /// a query-cache invalidator, …).
    pub fn set_event_sink(&self, sink: CommitEventSink) {
        *self.shared.sink.lock() = Some(sink);
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

    /// (txn, picked-up-at) for every distinct transaction the pool has
    /// committed, in transaction order: when the daemon that committed it
    /// first received one of its WAL messages. After a lease steal
    /// mid-assembly that is the thief's pickup, not the first holder's;
    /// a transaction still assembling is not listed. Joined with client
    /// logged-at timestamps this yields the WAL-durable -> pickup dwell —
    /// the waiting component push delivery eliminates, which the fleet
    /// bench gates under a second while the commit's own service time
    /// under 2009-calibrated latencies stays several seconds.
    pub fn pickup_times(&self) -> Vec<(Uuid, SimTime)> {
        self.shared
            .committed_txns
            .lock()
            .iter()
            .filter_map(|(txn, at)| Some((*txn, (*at)?)))
            .collect()
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
        rounds: s.rounds.load(Ordering::Relaxed),
        renewals: s.renewals.load(Ordering::Relaxed),
        board_probes: s.board_probes.load(Ordering::Relaxed),
        max_lease_age: Duration::from_nanos(s.max_lease_age_ns.load(Ordering::Relaxed)),
    }
}

/// A shard lease a worker holds and the commit daemon it drives, built on
/// acquire and dropped with the `Held`; when the lease was last acquired
/// or renewed, its consecutive empty polls, and the id of its WAL arrival
/// watch.
struct Held {
    lease: Lease,
    daemon: Arc<CommitDaemon>,
    renewed: SimTime,
    idle: u32,
    watch: Option<u64>,
}

impl Held {
    /// Gives the shard up: takes it out of the pool's coverage count,
    /// drops its arrival watch and its daemon, then returns the lease for
    /// the caller to release, hand off, or — lost to a steal — drop.
    fn hand_back(self, shared: &PoolShared, sqs: &QueueService, router: &ShardRouter) -> Lease {
        shared.held_total.fetch_sub(1, Ordering::Relaxed);
        if let Some(id) = self.watch {
            sqs.unwatch(router.wal_url(self.lease.shard()), id);
        }
        self.lease
    }
}

/// One worker's lease loop.
fn worker(
    index: usize,
    env: CloudEnv,
    protocol_config: ProtocolConfig,
    router: Arc<ShardRouter>,
    board: LeaseBoard,
    poll_interval: Duration,
    shared: Arc<PoolShared>,
) {
    let sim = env.sim().clone();
    let sqs = env.sqs().clone();
    // The worker's doorbell: every leased shard's WAL rings it on send,
    // and the board on every handed-off token, so a starving worker
    // learns about a freed hot shard immediately.
    let wake = SimSemaphore::new(&sim, 0);
    let board_watch = board.watch(wake.clone());
    // Parks on the doorbell; the timeout is the polling fallback that
    // keeps every shard live even if the fault plan dropped each ring.
    let park = |timeout: Duration| {
        if let Some(permit) = wake.acquire_timeout(timeout) {
            permit.forget();
            shared.wakeups.fetch_add(1, Ordering::Relaxed);
        }
    };
    // The lease tick, a quarter of the TTL: lease bookkeeping runs on it
    // rather than once per round. A held lease is renewed once its age
    // has reached the tick, checked just before and just after its
    // shard's poll (`renew_if_due`), and the board is probed at most once
    // per tick while this worker holds a shard and its last probe took
    // nothing.
    //
    // The renewal bound. A check that finds a lease not due finds it
    // younger than `tick`. The next check of that lease comes after its
    // own poll (one group), or after the rest of the round: the other
    // k - 1 held shards' polls, then at most one park (<= `tick`; a round
    // parks only when no shard received a message, so those polls were
    // empty), then the next round's probe. So at any check a lease is
    // younger than tick + max(tick + (k - 1) empty polls, (k - 1) groups,
    // one group), plus a few single calls (a probe, a handoff or a
    // release); for k = 1 that is tick + max(tick, group). The longest
    // group measured is 61 s (the benchmark's commit-burst, 8 shards x 8
    // daemons under 2009 latencies; 11 s on commit-paced), so at its
    // 120 s TTL a lease is at most 30 + 61 = 91 s old when renewed. It
    // lapses only if one group (or k - 1 of them) outlasts three
    // quarters of the TTL.
    let tick = DaemonPool::idle_park_cap(board.ttl());
    // Renews `h`'s lease if it is due. A failed renewal means the shard
    // was stolen (or the TTL lapsed): it is handed back on the spot, its
    // daemon and watch with it, before this worker polls it again (the
    // thief built its own daemon and registered its own watch on
    // acquire).
    let renew_if_due = |mut h: Held| -> Option<Held> {
        let now = sim.now();
        let age = now - h.renewed;
        shared
            .max_lease_age_ns
            .fetch_max(age.as_nanos() as u64, Ordering::Relaxed);
        if age < tick {
            return Some(h);
        }
        shared.renewals.fetch_add(1, Ordering::Relaxed);
        if board.renew(&h.lease) {
            h.renewed = now;
            Some(h)
        } else {
            shared.losses.fetch_add(1, Ordering::Relaxed);
            h.hand_back(&shared, &sqs, &router);
            None
        }
    };
    // The idle backoff: the fallback park starts at `poll_interval` and
    // doubles after every round in which no held shard received a message
    // and no lease was taken, up to the tick. It is also what a lost
    // doorbell ring costs an idle plane.
    let mut idle_park = poll_interval;
    let mut held: Vec<Held> = Vec::new();
    // When the board was last probed, and whether that probe took a
    // token (a worker still collecting backlogged shards probes every
    // round). A worker starts with no shard, so it probes at once.
    let mut last_probe = sim.now();
    let mut probe_took = false;
    // Set after this worker hands a shard off: skip the next acquire so
    // the starving peer the handoff woke wins the token instead of this
    // (faster-cycling) worker grabbing it straight back.
    let mut handoff_cooldown = false;
    while !shared.stop.load(Ordering::Relaxed) {
        // Acquire one more shard per round while there is one to take;
        // one at a time keeps acquisition fair across workers. A worker
        // holding a shard probes once per tick, so a token that lapsed or
        // was released is still found within a tick of turning visible.
        let now = sim.now();
        let probe_due = held.is_empty() || probe_took || now - last_probe >= tick;
        let mut acquired = false;
        if handoff_cooldown {
            handoff_cooldown = false;
        } else if held.len() < router.shards() as usize && probe_due {
            last_probe = now;
            shared.board_probes.fetch_add(1, Ordering::Relaxed);
            if let Some(lease) = board.acquire() {
                shared.acquisitions.fetch_add(1, Ordering::Relaxed);
                shared.held_total.fetch_add(1, Ordering::Relaxed);
                // The subscription and the daemon follow the lease: watch
                // the shard's WAL, and drive a daemon of this worker's
                // own, for as long as this worker holds it.
                let url = router.wal_url(lease.shard());
                let watch = sqs.watch(url, wake.clone()).ok();
                held.push(Held {
                    daemon: shared.build_daemon(&env, &protocol_config, url),
                    lease,
                    renewed: now,
                    idle: 0,
                    watch,
                });
                acquired = true;
            }
            probe_took = acquired;
        }
        shared.starving[index].store(held.is_empty(), Ordering::Relaxed);
        if held.is_empty() {
            // Starving: a peer's handoff (which re-sends the token) rings
            // the doorbell; the short timeout covers plain releases and
            // expiries, so a freed token is taken as fast as ever.
            park(poll_interval);
            continue;
        }
        shared.rounds.fetch_add(1, Ordering::Relaxed);
        // Doorbell rings banked up to this point are covered by the
        // receives below; consuming them now keeps stale wakeups from
        // replaying as extra empty (metered) poll rounds later.
        while let Some(permit) = wake.try_acquire() {
            permit.forget();
        }
        // Poll every held shard once — one poll is now a whole GROUP
        // commit (the daemon drains several receive rounds and commits
        // everything that assembled) — with a renewal check on either
        // side of it, which is what bounds a lease's age by one group
        // plus one tick (see `tick`).
        let mut any_messages = false;
        let mut kept: Vec<Held> = Vec::new();
        for h in held.drain(..) {
            let Some(mut h) = renew_if_due(h) else {
                continue;
            };
            match h.daemon.poll_once() {
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
                        h.idle = 0;
                    } else {
                        h.idle += 1;
                    }
                }
                Err(_) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            kept.extend(renew_if_due(h));
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
                .max_by_key(|(_, h)| router.depth(&env, h.lease.shard()))
                .map(|(i, _)| i);
            if let Some(i) = hottest {
                let lease = held.remove(i).hand_back(&shared, &sqs, &router);
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
            let idle;
            (idle, held) = held.into_iter().partition(|h| h.idle >= IDLE_RELEASE_POLLS);
            for h in idle {
                if board.release(h.hand_back(&shared, &sqs, &router)) {
                    shared.idle_releases.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // A round that received a message has work in flight, one that
        // took a lease may find more tokens on the board (a lone worker
        // still collecting backlogged shards must not slow down), and a
        // worker the idle release left empty is starving: each resets the
        // fallback to `poll_interval`.
        if any_messages || acquired || held.is_empty() {
            idle_park = poll_interval;
        }
        if !any_messages {
            park(idle_park);
            idle_park = (idle_park * 2).min(tick);
        }
    }
    for h in held {
        let _ = board.release(h.hand_back(&shared, &sqs, &router));
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
            3,
            Duration::from_secs(2),
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
            1,
            Duration::from_secs(5),
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
            1,
            Duration::from_secs(600),
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
            1,
            Duration::from_secs(10),
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
            2,
            Duration::from_secs(5),
        );
        // One worker is now grinding shard 0; the other starves, parked
        // for its 5 s poll. Free shard 1 mid-backlog, inside the busy
        // worker's first group: its last probe took a token, so it probes
        // again next round, picks shard 1 up, sees a starving peer, and
        // must hand the DEEP shard off.
        sim.sleep(Duration::from_millis(100));
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
        // Each daemon's commit listener and feed forwarder own
        // `PoolShared`, and the workers own the daemons through their
        // leases. A stopped worker gives its leases up, and its daemons
        // with them, so nothing may keep the pool's state alive after.
        let shared = pool_state_after_its_world_is_dropped(false);
        assert!(shared.upgrade().is_none(), "PoolShared leaked");
    }

    #[test]
    fn a_pool_that_stole_a_lease_is_freed_too() {
        let shared = pool_state_after_its_world_is_dropped(true);
        assert!(shared.upgrade().is_none(), "PoolShared leaked");
    }

    /// A pool of `workers` over `shards` idle WAL shards, left alone for
    /// `idle`; every doorbell ring is lost when `drop_rings`.
    fn idle_pool(
        workers: usize,
        shards: u32,
        ttl: Duration,
        poll: Duration,
        idle: Duration,
        drop_rings: bool,
    ) -> (Sim, CloudEnv, Arc<ShardRouter>, DaemonPool) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        if drop_rings {
            env.faults().set(cloudprov_cloud::FaultPlan {
                notify_drop_probability: 1.0,
                ..cloudprov_cloud::FaultPlan::default()
            });
        }
        let router = Arc::new(ShardRouter::provision(&env, shards));
        let board = LeaseBoard::provision(&env, shards, ttl);
        let pool = DaemonPool::spawn(
            &env,
            ProtocolConfig::default(),
            router.clone(),
            board,
            workers,
            poll,
        );
        sim.sleep(idle);
        (sim, env, router, pool)
    }

    /// After an idle hour (one worker, one shard, TTL 120 s, poll 5 s:
    /// the fallback is at its 30 s cap), flushes one transaction right
    /// after a round starts — so the worker's next fallback wake is a
    /// whole park away — and returns how long it took to commit.
    fn commit_latency_after_an_idle_hour(drop_rings: bool) -> (Duration, PoolStats) {
        let (sim, env, router, pool) = idle_pool(
            1,
            1,
            Duration::from_secs(120),
            Duration::from_secs(5),
            Duration::from_secs(3600),
            drop_rings,
        );
        let rounds = pool.stats().rounds;
        while pool.stats().rounds == rounds {
            sim.sleep(Duration::from_millis(100));
        }
        let client = shard_client(&env, &router, 0, "after-idle");
        let sent = sim.now();
        flush_one(&client, 77, "after-idle");
        let deadline = sent + Duration::from_secs(120);
        while pool.committed_transactions() == 0 && sim.now() < deadline {
            sim.sleep(Duration::from_millis(100));
        }
        let latency = sim.now() - sent;
        let stats = pool.stop();
        assert_eq!(stats.committed, 1, "{stats:?}");
        (latency, stats)
    }

    #[test]
    fn an_idle_worker_backs_its_fallback_poll_off_to_a_quarter_ttl() {
        // At a flat 5 s fallback an idle hour is ~720 rounds of a WAL
        // Receive and a lease renewal each. Backed off to the 30 s cap it
        // is ~3600 / 30 rounds, plus the ramp 5, 10, 20 s.
        let cap = DaemonPool::idle_park_cap(Duration::from_secs(120)).as_secs();
        assert_eq!(cap, 30);
        let (_sim, env, _router, pool) = idle_pool(
            1,
            1,
            Duration::from_secs(120),
            Duration::from_secs(5),
            Duration::from_secs(3600),
            false,
        );
        let stats = pool.stop();
        let ops = env.usage().total_ops(|a, _, op| {
            a == cloudprov_cloud::Actor::CommitDaemon
                && matches!(
                    op,
                    cloudprov_cloud::Op::Receive | cloudprov_cloud::Op::ChangeVisibility
                )
        });
        assert!(
            ops <= 3 * (3600 / cap + 4),
            "{ops} daemon Receive + ChangeVisibility calls in an idle hour: {stats:?}"
        );
        assert!(stats.rounds <= 3600 / cap + 4, "{stats:?}");
        assert_eq!(stats.losses, 0, "the backoff must never cost the lease");
    }

    #[test]
    fn a_lost_ring_after_an_idle_hour_costs_at_most_the_cap() {
        // Every ring is lost, so only the fallback finds the flush: later
        // than a flat `poll_interval` would, but never later than the
        // 30 s cap (plus slack for the flush and the commit itself).
        let (latency, stats) = commit_latency_after_an_idle_hour(true);
        assert_eq!(stats.wakeups, 0, "every ring was dropped: {stats:?}");
        assert!(
            latency > Duration::from_secs(10),
            "the fallback must have backed off past poll_interval: {latency:?}"
        );
        assert!(latency <= Duration::from_secs(30 + 5), "{latency:?}");
    }

    #[test]
    fn push_still_commits_at_once_after_an_idle_hour() {
        // The backed-off park is still a doorbell park: the WAL send ends
        // it, so the commit does not wait for the 30 s fallback.
        let (latency, stats) = commit_latency_after_an_idle_hour(false);
        assert!(
            stats.wakeups >= 1,
            "the doorbell must have fired: {stats:?}"
        );
        assert!(latency <= Duration::from_secs(1), "{latency:?}");
    }

    /// How long a lone worker over four idle shards takes to commit one
    /// transaction logged on `shard` before the pool starts.
    fn lone_worker_reaches(shard: u32) -> Duration {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let router = Arc::new(ShardRouter::provision(&env, 4));
        let client = shard_client(&env, &router, shard, "backlog");
        flush_one(&client, 88, "backlog");
        let board = LeaseBoard::provision(&env, 4, Duration::from_secs(120));
        let start = sim.now();
        let pool = DaemonPool::spawn(
            &env,
            ProtocolConfig::default(),
            router.clone(),
            board,
            1,
            Duration::from_secs(5),
        );
        let deadline = start + Duration::from_secs(120);
        while pool.committed_transactions() == 0 && sim.now() < deadline {
            sim.sleep(Duration::from_millis(100));
        }
        let took = sim.now() - start;
        let stats = pool.stop();
        assert_eq!(stats.committed, 1, "{stats:?}");
        took
    }

    #[test]
    fn a_worker_still_taking_leases_does_not_back_off() {
        // The lone worker takes one lease per round. A round that took a
        // lease parks `poll_interval`, so wherever the backlog sits the
        // worker reaches it within three parks of 5 s, not 5 + 10 + 20 s.
        let took: Vec<Duration> = (0..4).map(lone_worker_reaches).collect();
        assert!(
            took.iter().all(|t| *t <= Duration::from_secs(3 * 5 + 1)),
            "{took:?}"
        );
    }

    #[test]
    fn a_backed_off_plane_keeps_its_leases_under_traffic() {
        // TTL 20 s, poll 1 s: the fallback backs off to 5 s over ten
        // idle minutes. Every renewal must still land inside the TTL —
        // no lease lost, no shard driven twice — once traffic returns.
        let (sim, env, router, pool) = idle_pool(
            2,
            2,
            Duration::from_secs(20),
            Duration::from_secs(1),
            Duration::from_secs(600),
            false,
        );
        for i in 0..20u32 {
            let client = shard_client(&env, &router, i % 2, &format!("t{i}"));
            flush_one(&client, 5000 + u128::from(i), &format!("t{i}"));
            sim.sleep(Duration::from_secs(3));
        }
        let deadline = sim.now() + Duration::from_secs(120);
        while pool.committed_transactions() < 20 && sim.now() < deadline {
            sim.sleep(Duration::from_millis(500));
        }
        let stats = pool.stop();
        assert_eq!(stats.unique_committed, 20, "{stats:?}");
        assert_eq!(stats.losses, 0, "{stats:?}");
        assert_eq!(stats.double_commits, 0, "{stats:?}");
        // The renewal bound written beside `tick` in `worker`: a lease is
        // at most tick + max(tick, longest round) old at a due-check. An
        // instant-profile round takes milliseconds; a second covers it.
        let tick = DaemonPool::idle_park_cap(Duration::from_secs(20));
        let longest_round = Duration::from_secs(1);
        assert!(
            stats.max_lease_age <= tick + tick.max(longest_round),
            "{stats:?}"
        );
        assert!(stats.renewals > 0, "{stats:?}");
    }

    #[test]
    fn lease_bookkeeping_runs_on_the_tick_not_the_round() {
        // Two shards x two daemons, TTL 120 s, poll 1 s, a flush every 3 s
        // for ten virtual minutes. Renewing and probing once per round
        // costs about two board calls per round, several hundred per
        // worker; once per 30 s tick it is about 2 x 600 / 30 per worker.
        // The board lives on a cloud of its own, so its bill reads apart
        // from the WALs'.
        use cloudprov_cloud::Op;
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let board_env = CloudEnv::new(&sim, AwsProfile::instant());
        let router = Arc::new(ShardRouter::provision(&env, 2));
        let (ttl, poll, daemons) = (Duration::from_secs(120), Duration::from_secs(1), 2);
        let board = LeaseBoard::provision(&board_env, 2, ttl);
        let pool = DaemonPool::spawn(
            &env,
            ProtocolConfig::default(),
            router.clone(),
            board,
            daemons,
            poll,
        );
        let clients = [0, 1].map(|shard| shard_client(&env, &router, shard, &format!("s{shard}")));
        let span = Duration::from_secs(600);
        let flushes = 600 / 3;
        for i in 0..flushes {
            flush_one(&clients[i % 2], 6000 + i as u128, &format!("p{i}"));
            sim.sleep(Duration::from_secs(3));
        }
        let deadline = sim.now() + Duration::from_secs(60);
        while pool.committed_transactions() < flushes as u64 && sim.now() < deadline {
            sim.sleep(Duration::from_millis(500));
        }
        let stats = pool.stop();
        assert_eq!(stats.unique_committed, flushes as u64, "{stats:?}");
        assert_eq!(stats.losses, 0, "{stats:?}");
        assert_eq!(stats.double_commits, 0, "{stats:?}");
        let board_calls = |wanted: Op| board_env.usage().total_ops(|_, _, op| op == wanted);
        let (probes, visibility) = (board_calls(Op::Receive), board_calls(Op::ChangeVisibility));
        let tick = DaemonPool::idle_park_cap(ttl).as_secs();
        assert!(
            probes + visibility <= 2 * daemons as u64 * (span.as_secs() / tick + 4),
            "{probes} board Receive + {visibility} ChangeVisibility calls: {stats:?}"
        );
        // The ledger counts what the board billed: every board Receive is
        // a probe, every ChangeVisibility a renewal or a release.
        assert_eq!(stats.board_probes, probes, "{stats:?}");
        assert!(
            stats.renewals > 0 && stats.renewals <= visibility,
            "{stats:?}"
        );
    }

    #[test]
    fn a_worker_holding_a_shard_still_takes_over_a_dead_holders_backlog() {
        // Two shards, TTL 120 s. A dead holder sits on shard 1 over a WAL
        // backlog; the pool's one worker holds shard 0, kept busy by a
        // flush every 2 s so it never lets it go. Only its once-per-tick
        // board probe can find shard 1's token once the dead lease lapses:
        // the backlog must commit within TTL + tick + one group.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let router = Arc::new(ShardRouter::provision(&env, 2));
        let ttl = Duration::from_secs(120);
        let board = LeaseBoard::provision(&env, 2, ttl);
        let mut dead = board.acquire().expect("dead holder's lease");
        if dead.shard() == 0 {
            let other = board.acquire().expect("two tokens were seeded");
            assert!(board.release(dead));
            dead = other;
        }
        assert_eq!(dead.shard(), 1);
        let dead_at = sim.now();
        let backlog = shard_client(&env, &router, 1, "backlog");
        for k in 0..5u128 {
            flush_one(&backlog, 7000 + k, &format!("backlog{k}"));
        }
        let poll = Duration::from_secs(5);
        let pool = DaemonPool::spawn(
            &env,
            ProtocolConfig::default(),
            router.clone(),
            board.clone(),
            1,
            poll,
        );
        let tick = DaemonPool::idle_park_cap(ttl);
        let busy = shard_client(&env, &router, 0, "busy");
        let committed = |k: u128| {
            env.s3()
                .peek_committed("data", &format!("backlog{k}"))
                .is_some()
        };
        let mut flushed = 0u128;
        while !(0..5).all(committed) && sim.now() < dead_at + ttl + tick + ttl {
            flush_one(&busy, 8000 + flushed, &format!("busy{flushed}"));
            flushed += 1;
            sim.sleep(Duration::from_secs(2));
        }
        let took = sim.now() - dead_at;
        let stats = pool.stop();
        assert!((0..5).all(committed), "backlog never committed: {stats:?}");
        assert!(
            took >= ttl,
            "shard 1 was driven under a live lease: {took:?}"
        );
        // One group is milliseconds here; the 2 s flush cadence is how
        // finely the loop above reads the clock.
        assert!(
            took <= ttl + tick + Duration::from_secs(2),
            "{took:?}: {stats:?}"
        );
        assert_eq!(
            stats.idle_releases, 0,
            "the worker must have held shard 0 throughout: {stats:?}"
        );
        assert_eq!(stats.double_commits, 0, "{stats:?}");
        assert_eq!(stats.unique_committed, 5 + flushed as u64, "{stats:?}");
        assert!(
            !board.renew(&dead),
            "the dead lease must have been taken over"
        );
    }

    #[test]
    fn a_lease_lost_mid_group_costs_a_redelivery_not_a_deadlock() {
        // One shard, two workers, TTL 20 s, and every SimpleDB write takes
        // 12 s: a group's registry, index, feed-stage and watermark writes
        // outlast three quarters of the TTL, so the holder's lease lapses
        // mid-group and the other worker takes the shard over. Each drives
        // a daemon of its own; one shared daemon deadlocked here, two
        // workers inside its feed writer's lock. Every single write stays
        // under the TTL, so the lapsed holder drops its daemon before it
        // stages again: the stream keeps one sequence, with no conflicts.
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        profile.sdb.write_base = Duration::from_secs(12);
        let env = CloudEnv::new(&sim, profile);
        let router = Arc::new(ShardRouter::provision(&env, 1));
        let config = ProtocolConfig {
            feed: true,
            ..ProtocolConfig::default()
        };
        let board = LeaseBoard::provision(&env, 1, Duration::from_secs(20));
        let pool = DaemonPool::spawn(
            &env,
            config.clone(),
            router.clone(),
            board,
            2,
            Duration::from_secs(1),
        );
        let client = shard_client(&env, &router, 0, "slow-db");
        for i in 0..60u128 {
            flush_one(&client, 9100 + i, &format!("slow{i}"));
            sim.sleep(Duration::from_secs(2));
        }
        let deadline = sim.now() + Duration::from_secs(3600);
        while router.total_depth(&env) > 0 && sim.now() < deadline {
            sim.sleep(Duration::from_secs(5));
        }
        assert_eq!(router.total_depth(&env), 0, "WAL must drain");
        let stats = pool.stop();
        assert_eq!(stats.unique_committed, 60, "{stats:?}");
        assert_eq!(stats.double_commits, 0, "{stats:?}");
        assert!(stats.losses > 0, "no lease lapsed: {stats:?}");
        let staged =
            cloudprov_core::audit_feed(&env, &config.layout.domain, &ShardRouter::queue_name(0));
        assert!(staged.events >= 60, "{staged:?}");
        assert_eq!(staged.seq_gaps, 0, "{staged:?}");
        assert_eq!(staged.duplicate_seqs, 0, "{staged:?}");
    }

    #[test]
    #[should_panic(expected = "lease renewal tick")]
    fn a_poll_interval_longer_than_the_renewal_tick_is_refused() {
        // TTL 5 s with poll 5 s: the tick would equal the TTL, so every
        // lease would be renewed only after it had expired.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let router = Arc::new(ShardRouter::provision(&env, 1));
        let board = LeaseBoard::provision(&env, 1, Duration::from_secs(5));
        let _ = DaemonPool::spawn(
            &env,
            ProtocolConfig::default(),
            router,
            board,
            1,
            Duration::from_secs(5),
        );
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
            2,
            Duration::from_secs(1),
        );
        sim.sleep(Duration::from_secs(20));
        let stats = pool.stop();
        assert!(stats.acquisitions > 0, "workers must have leased shards");
        assert_eq!(stats.committed, 0);
        assert_eq!(stats.double_commits, 0);
    }
}
