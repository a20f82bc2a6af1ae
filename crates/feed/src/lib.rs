//! # cloudprov-feed — the live provenance change feed's consumer side
//!
//! The commit plane produces [`CommitEvent`]s (one per committed
//! transaction, staged and published by `cloudprov_core::feed`); this
//! crate is where clients consume them. A [`Subscriptions`] registry
//! fans every published event out to predicate-filtered
//! [`Subscription`]s:
//!
//! * **Predicates** — "lineage of uuid X" ([`Predicate::Lineage`]),
//!   "program named P" ([`Predicate::Program`]), everything a tenant
//!   did ([`Predicate::Tenant`]), or the whole stream
//!   ([`Predicate::All`]).
//! * **Per-tenant quotas** — a tenant can hold at most `quota` live
//!   subscriptions; the next `subscribe` fails with
//!   [`FeedError::QuotaExceeded`] until one is dropped.
//! * **Delivery contract** — at-least-once and per-stream
//!   sequence-ordered: a subscriber may see the same sequence number
//!   twice (commit-daemon crash replay) but never a hole. The registry
//!   machine-checks the contract as events arrive — [`FeedStats::gaps`]
//!   staying zero is the invariant the chaos explorer asserts.
//!
//! Delivery is push-based on the simulated clock: `publish` (typically
//! wired to a commit daemon via [`Subscriptions::sink`]) enqueues the
//! event and rings the subscriber's semaphore, so a parked
//! [`Subscription::next_timeout`] wakes without polling.

#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::TenantId;
use cloudprov_core::{CommitEvent, CommitEventSink};
use cloudprov_pass::Uuid;
use cloudprov_sim::{Sim, SimSemaphore};

/// Default live-subscription quota per tenant.
pub const DEFAULT_TENANT_QUOTA: usize = 8;

/// What a subscription wants to hear about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Predicate {
    /// Events whose transaction touched this object uuid — "tell me when
    /// the lineage of X grows".
    Lineage(Uuid),
    /// Events whose transaction recorded a process with this program
    /// name — "tell me when P runs".
    Program(String),
    /// Events logged by this tenant.
    Tenant(TenantId),
    /// Every event.
    All,
}

impl Predicate {
    /// Does `event` match?
    pub fn matches(&self, event: &CommitEvent) -> bool {
        match self {
            Predicate::Lineage(u) => event.uuids.contains(u),
            Predicate::Program(p) => event.programs.iter().any(|q| q == p),
            Predicate::Tenant(t) => event.tenant == Some(*t),
            Predicate::All => true,
        }
    }
}

/// Errors surfaced to subscribers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FeedError {
    /// The tenant already holds its quota of live subscriptions.
    QuotaExceeded {
        /// The tenant that hit the limit (`None` = the untenanted pool).
        tenant: Option<TenantId>,
        /// The quota in force.
        limit: usize,
    },
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::QuotaExceeded { tenant, limit } => match tenant {
                Some(t) => write!(f, "tenant {t} exceeds its {limit}-subscription quota"),
                None => write!(f, "untenanted pool exceeds its {limit}-subscription quota"),
            },
        }
    }
}

impl std::error::Error for FeedError {}

/// Bus-level delivery accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FeedStats {
    /// Events published into the registry.
    pub events: u64,
    /// Event copies delivered into subscription queues.
    pub delivered: u64,
    /// Events whose sequence number was at or below the stream's high
    /// mark — crash-replay duplicates, allowed by the contract.
    pub duplicates: u64,
    /// Events that *skipped* sequence numbers on their stream. The
    /// contract forbids this; the chaos explorer asserts it stays zero.
    pub gaps: u64,
}

struct SubInner {
    tenant: Option<TenantId>,
    predicate: Predicate,
    queue: Mutex<VecDeque<CommitEvent>>,
    signal: SimSemaphore,
    closed: AtomicBool,
    /// Highest sequence delivered to this subscription, per stream —
    /// the per-subscriber half of the order check.
    last_seq: Mutex<BTreeMap<String, u64>>,
    /// Deliveries that arrived below this subscription's high mark for
    /// their stream and were NOT flagged duplicates at the bus. Should
    /// stay zero: bus order is delivery order.
    out_of_order: AtomicU64,
}

struct Registry {
    quota: usize,
    subs: Vec<Arc<SubInner>>,
    /// Per-stream high mark, initialized by the first event seen on the
    /// stream (a registry may attach mid-stream) and advanced from
    /// there; regressions count as duplicates, skips as gaps.
    high: BTreeMap<String, u64>,
    stats: FeedStats,
}

/// The subscription registry: one per consumer process (a fleet driver,
/// a query cache), fed by one or more commit daemons.
#[derive(Clone)]
pub struct Subscriptions {
    sim: Sim,
    inner: Arc<Mutex<Registry>>,
}

impl std::fmt::Debug for Subscriptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.stats();
        f.debug_struct("Subscriptions").field("stats", &st).finish()
    }
}

impl Subscriptions {
    /// Creates a registry with the default per-tenant quota.
    pub fn new(sim: &Sim) -> Subscriptions {
        Subscriptions::with_quota(sim, DEFAULT_TENANT_QUOTA)
    }

    /// Creates a registry allowing `quota` live subscriptions per tenant.
    pub fn with_quota(sim: &Sim, quota: usize) -> Subscriptions {
        Subscriptions {
            sim: sim.clone(),
            inner: Arc::new(Mutex::new(Registry {
                quota: quota.max(1),
                subs: Vec::new(),
                high: BTreeMap::new(),
                stats: FeedStats::default(),
            })),
        }
    }

    /// Registers a predicate subscription for `tenant`.
    ///
    /// # Errors
    ///
    /// [`FeedError::QuotaExceeded`] when the tenant already holds its
    /// quota of live subscriptions (dropped subscriptions free slots).
    pub fn subscribe(
        &self,
        tenant: Option<TenantId>,
        predicate: Predicate,
    ) -> Result<Subscription, FeedError> {
        let mut reg = self.inner.lock();
        reg.subs.retain(|s| !s.closed.load(Ordering::Relaxed));
        let live = reg.subs.iter().filter(|s| s.tenant == tenant).count();
        if live >= reg.quota {
            return Err(FeedError::QuotaExceeded {
                tenant,
                limit: reg.quota,
            });
        }
        let inner = Arc::new(SubInner {
            tenant,
            predicate,
            queue: Mutex::new(VecDeque::new()),
            signal: SimSemaphore::new(&self.sim, 0),
            closed: AtomicBool::new(false),
            last_seq: Mutex::new(BTreeMap::new()),
            out_of_order: AtomicU64::new(0),
        });
        reg.subs.push(inner.clone());
        Ok(Subscription { inner })
    }

    /// Feeds one event through the registry: accounts the sequence
    /// against the stream's high mark, then delivers a copy to every
    /// live matching subscription (ringing its semaphore).
    pub fn publish(&self, event: CommitEvent) {
        let mut reg = self.inner.lock();
        reg.stats.events += 1;
        let mut duplicate = false;
        match reg.high.get(&event.stream).copied() {
            None => {
                reg.high.insert(event.stream.clone(), event.seq);
            }
            Some(high) if event.seq <= high => {
                reg.stats.duplicates += 1;
                duplicate = true;
            }
            Some(high) => {
                if event.seq != high + 1 {
                    reg.stats.gaps += 1;
                }
                reg.high.insert(event.stream.clone(), event.seq);
            }
        }
        reg.subs.retain(|s| !s.closed.load(Ordering::Relaxed));
        let mut delivered = 0;
        for sub in &reg.subs {
            if !sub.predicate.matches(&event) {
                continue;
            }
            {
                let mut last = sub.last_seq.lock();
                let prev = last.entry(event.stream.clone()).or_insert(0);
                // A bus-level duplicate (crash replay) legitimately
                // rewinds below the subscriber's high mark — only a
                // fresh sequence arriving below it is disorder.
                if !duplicate && event.seq < *prev {
                    sub.out_of_order.fetch_add(1, Ordering::Relaxed);
                }
                *prev = (*prev).max(event.seq);
            }
            sub.queue.lock().push_back(event.clone());
            sub.signal.release();
            delivered += 1;
        }
        reg.stats.delivered += delivered;
    }

    /// A [`CommitEventSink`] feeding this registry — hand it to
    /// `CommitDaemon::set_event_sink` (or a pool that forwards to its
    /// daemons).
    pub fn sink(&self) -> CommitEventSink {
        let this = self.clone();
        Arc::new(move |event: CommitEvent| this.publish(event))
    }

    /// Current bus-level accounting.
    pub fn stats(&self) -> FeedStats {
        self.inner.lock().stats
    }

    /// The machine-checked delivery invariant: duplicates are allowed,
    /// sequence holes are not, and no subscriber ever observed events
    /// out of bus order.
    pub fn gap_free(&self) -> bool {
        let reg = self.inner.lock();
        reg.stats.gaps == 0
            && reg
                .subs
                .iter()
                .all(|s| s.out_of_order.load(Ordering::Relaxed) == 0)
    }
}

/// Fans one event stream out to several sinks, preserving order: each
/// event is delivered to every sink, in `sinks` order, before the next
/// event is accepted. This is how a subscription registry and a
/// read-tier cache share the single sink slot a daemon pool offers.
pub fn fanout(sinks: Vec<CommitEventSink>) -> CommitEventSink {
    Arc::new(move |event: CommitEvent| {
        for sink in &sinks {
            sink(event.clone());
        }
    })
}

/// One live predicate subscription. Dropping it unsubscribes and frees
/// its tenant-quota slot.
pub struct Subscription {
    inner: Arc<SubInner>,
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("tenant", &self.inner.tenant)
            .field("predicate", &self.inner.predicate)
            .finish()
    }
}

impl Subscription {
    /// Pops the next delivered event without waiting.
    pub fn try_next(&self) -> Option<CommitEvent> {
        let ev = self.inner.queue.lock().pop_front()?;
        // Keep the signal count aligned with the queue so a later
        // `next_timeout` does not wake for an event this call consumed.
        if let Some(p) = self.inner.signal.try_acquire() {
            p.forget();
        }
        Some(ev)
    }

    /// Waits (on the virtual clock) up to `timeout` for the next event.
    /// Returns `None` on timeout.
    pub fn next_timeout(&self, timeout: Duration) -> Option<CommitEvent> {
        if let Some(ev) = {
            let mut q = self.inner.queue.lock();
            q.pop_front()
        } {
            if let Some(p) = self.inner.signal.try_acquire() {
                p.forget();
            }
            return Some(ev);
        }
        let permit = self.inner.signal.acquire_timeout(timeout)?;
        permit.forget();
        self.inner.queue.lock().pop_front()
    }

    /// Events currently queued and undelivered.
    pub fn backlog(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Deliveries that regressed below this subscription's per-stream
    /// high mark. Stays zero under the bus's ordering contract.
    pub fn out_of_order(&self) -> u64 {
        self.inner.out_of_order.load(Ordering::Relaxed)
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.inner.closed.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(stream: &str, seq: u64, txn: u128) -> CommitEvent {
        CommitEvent {
            stream: stream.into(),
            seq,
            txn: Uuid(txn),
            tenant: Some(TenantId(1)),
            uuids: vec![Uuid(txn)],
            programs: vec![format!("prog{txn}")],
        }
    }

    #[test]
    fn fanout_delivers_every_event_to_every_sink_in_order() {
        let sim = Sim::new();
        let subs = Subscriptions::new(&sim);
        let sub = subs.subscribe(None, Predicate::All).unwrap();
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let tap = {
            let seen = seen.clone();
            Arc::new(move |ev: CommitEvent| seen.lock().push(ev.seq)) as CommitEventSink
        };
        let sink = fanout(vec![subs.sink(), tap]);
        for seq in 1..=3 {
            sink(event("wal-a", seq, seq as u128));
        }
        assert_eq!(*seen.lock(), vec![1, 2, 3], "tap saw the stream in order");
        assert_eq!(sub.backlog(), 3, "registry delivery unaffected");
        assert!(subs.gap_free());
    }

    #[test]
    fn predicates_filter_deliveries() {
        let sim = Sim::new();
        let subs = Subscriptions::new(&sim);
        let lineage = subs.subscribe(None, Predicate::Lineage(Uuid(7))).unwrap();
        let program = subs
            .subscribe(None, Predicate::Program("prog7".into()))
            .unwrap();
        let tenant = subs
            .subscribe(None, Predicate::Tenant(TenantId(1)))
            .unwrap();
        let other_tenant = subs
            .subscribe(None, Predicate::Tenant(TenantId(9)))
            .unwrap();
        let all = subs.subscribe(None, Predicate::All).unwrap();

        subs.publish(event("s", 1, 7));
        subs.publish(event("s", 2, 8));

        assert_eq!(lineage.backlog(), 1);
        assert_eq!(program.backlog(), 1);
        assert_eq!(tenant.backlog(), 2);
        assert_eq!(other_tenant.backlog(), 0);
        assert_eq!(all.backlog(), 2);
        assert_eq!(lineage.try_next().unwrap().txn, Uuid(7));
        assert!(lineage.try_next().is_none());
    }

    #[test]
    fn tenant_quota_caps_live_subscriptions_and_drop_frees_slots() {
        let sim = Sim::new();
        let subs = Subscriptions::with_quota(&sim, 2);
        let t = Some(TenantId(4));
        let _a = subs.subscribe(t, Predicate::All).unwrap();
        let b = subs.subscribe(t, Predicate::All).unwrap();
        let err = subs.subscribe(t, Predicate::All).unwrap_err();
        assert_eq!(
            err,
            FeedError::QuotaExceeded {
                tenant: t,
                limit: 2
            }
        );
        // Another tenant is unaffected.
        assert!(subs.subscribe(Some(TenantId(5)), Predicate::All).is_ok());
        // Dropping one frees the slot.
        drop(b);
        assert!(subs.subscribe(t, Predicate::All).is_ok());
    }

    #[test]
    fn duplicates_are_counted_but_gaps_break_the_invariant() {
        let sim = Sim::new();
        let subs = Subscriptions::new(&sim);
        let all = subs.subscribe(None, Predicate::All).unwrap();
        subs.publish(event("s", 1, 1));
        subs.publish(event("s", 2, 2));
        subs.publish(event("s", 2, 2)); // crash-replay duplicate
        assert!(subs.gap_free(), "duplicates do not violate the contract");
        assert_eq!(subs.stats().duplicates, 1);
        assert_eq!(all.backlog(), 3, "duplicates still deliver (at-least-once)");

        subs.publish(event("s", 5, 5)); // hole: 3 and 4 never arrived
        assert!(!subs.gap_free());
        assert_eq!(subs.stats().gaps, 1);
    }

    #[test]
    fn a_crash_replay_of_the_whole_stream_is_not_out_of_order() {
        // The p3:notify:wm crash shape: the takeover daemon republishes
        // every event below the subscriber's high mark. The contract
        // calls that duplicates, not disorder — gap_free must hold.
        let sim = Sim::new();
        let subs = Subscriptions::new(&sim);
        let all = subs.subscribe(None, Predicate::All).unwrap();
        for seq in 1..=3 {
            subs.publish(event("s", seq, seq as u128));
        }
        for seq in 1..=3 {
            subs.publish(event("s", seq, seq as u128)); // replay
        }
        assert_eq!(subs.stats().duplicates, 3);
        assert_eq!(
            all.out_of_order(),
            0,
            "replays are duplicates, not disorder"
        );
        assert!(subs.gap_free());
        assert_eq!(all.backlog(), 6);
    }

    #[test]
    fn registry_attaching_mid_stream_does_not_count_a_false_gap() {
        let sim = Sim::new();
        let subs = Subscriptions::new(&sim);
        subs.publish(event("s", 40, 1));
        subs.publish(event("s", 41, 2));
        assert!(subs.gap_free(), "first observed seq initializes the mark");
    }

    #[test]
    fn parked_subscriber_wakes_on_publish() {
        let sim = Sim::new();
        let subs = Subscriptions::new(&sim);
        let sub = subs.subscribe(None, Predicate::All).unwrap();
        let sim2 = sim.clone();
        let subs2 = subs.clone();
        let publisher = sim.spawn(move || {
            sim2.sleep(Duration::from_secs(5));
            subs2.publish(event("s", 1, 1));
        });
        let got = sub.next_timeout(Duration::from_secs(60));
        assert_eq!(got.unwrap().seq, 1);
        assert!(
            (sim.now().as_secs_f64() - 5.0).abs() < 0.01,
            "woken by the publish, not the timeout: t={}",
            sim.now()
        );
        publisher.join();
    }

    #[test]
    fn next_timeout_expires_when_nothing_arrives() {
        let sim = Sim::new();
        let subs = Subscriptions::new(&sim);
        let sub = subs.subscribe(None, Predicate::All).unwrap();
        assert!(sub.next_timeout(Duration::from_secs(10)).is_none());
        assert!((sim.now().as_secs_f64() - 10.0).abs() < 0.01);
    }

    #[test]
    fn dropped_subscription_stops_receiving() {
        let sim = Sim::new();
        let subs = Subscriptions::new(&sim);
        let sub = subs.subscribe(None, Predicate::All).unwrap();
        subs.publish(event("s", 1, 1));
        drop(sub);
        subs.publish(event("s", 2, 2));
        // Only the first publish delivered anywhere.
        assert_eq!(subs.stats().delivered, 1);
    }

    #[test]
    fn mixed_try_and_timed_reads_stay_aligned() {
        let sim = Sim::new();
        let subs = Subscriptions::new(&sim);
        let sub = subs.subscribe(None, Predicate::All).unwrap();
        subs.publish(event("s", 1, 1));
        subs.publish(event("s", 2, 2));
        assert_eq!(sub.try_next().unwrap().seq, 1);
        // The timed read must not wake instantly on the consumed
        // event's leftover signal and then find seq 2 — it should
        // return seq 2 immediately because it IS queued.
        assert_eq!(sub.next_timeout(Duration::from_secs(5)).unwrap().seq, 2);
        assert!(sub.next_timeout(Duration::from_millis(100)).is_none());
    }
}
