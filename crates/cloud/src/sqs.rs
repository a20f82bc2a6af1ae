//! The SQS-like messaging service (§2.3 "Messaging Service").
//!
//! Semantics reproduced from the 2009 service: 8 KB message limit,
//! at-least-once delivery with a visibility timeout, best-effort (not
//! strict) FIFO ordering, and automatic deletion of messages older than
//! four days — the paper's P3 relies on that retention window as its
//! garbage collector for unfinished write-ahead-log transactions.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use cloudprov_sim::{SimSemaphore, SimTime};

use crate::error::{CloudError, Result};
use crate::meter::{Actor, Op, Service, TenantId};
use crate::service::ServiceCore;

/// SQS's 2009 message-size limit in bytes (§2.3: "Both SQS and Queue
/// enforce an 8KB limit on messages").
pub const MESSAGE_LIMIT: usize = 8 * 1024;
/// Messages older than this are deleted automatically (§4.3.3: "SQS
/// automatically deletes messages older than four days").
pub const RETENTION: Duration = Duration::from_secs(4 * 24 * 3600);
/// Maximum messages returned by one receive call.
pub const RECEIVE_MAX: usize = 10;
/// Maximum entries in one `SendMessageBatch`/`DeleteMessageBatch` call.
pub const BATCH_ENTRY_LIMIT: usize = 10;
/// Default visibility timeout applied on receive.
pub const DEFAULT_VISIBILITY_TIMEOUT: Duration = Duration::from_secs(120);

/// A message handed to a consumer by [`QueueService::receive`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReceivedMessage {
    /// Stable message id (same across redeliveries).
    pub id: u64,
    /// Receipt handle for deleting *this* delivery.
    pub receipt: String,
    /// Message body.
    pub body: Bytes,
}

struct QueueMessage {
    id: u64,
    body: Bytes,
    sent_at: SimTime,
    /// Invisible until this instant (0 = visible).
    visible_at: SimTime,
    delivery_count: u32,
}

#[derive(Default)]
struct QueueState {
    messages: Vec<QueueMessage>,
    next_id: u64,
    /// Arrival watchers (the push-notification hook): every send rings
    /// every watcher's bell. A watcher claims nothing — it is a hint to
    /// go poll — so delivery is best-effort and the fault plan may drop
    /// it (`notify_drop_probability`).
    watchers: Vec<(u64, SimSemaphore)>,
    next_watch: u64,
    /// Drain watchers (the admission-doorbell hook): every delete call
    /// that actually removes a message rings every drain watcher's
    /// bell. Throttled producers park on these instead of sleeping out
    /// a poll interval; like arrival watchers, a ring is a best-effort
    /// hint (`notify_drop_probability` may lose it) and claims nothing.
    drain_watchers: Vec<SimSemaphore>,
}

#[derive(Default)]
struct SqsState {
    queues: BTreeMap<String, QueueState>,
}

/// Handle to the simulated messaging service. Cloning is cheap; see
/// [`QueueService::with_actor`].
#[derive(Clone)]
pub struct QueueService {
    core: Arc<ServiceCore>,
    state: Arc<Mutex<SqsState>>,
    actor: Actor,
    tenant: Option<TenantId>,
    visibility_timeout: Duration,
    /// Probability of duplicate delivery injected by the fault plan is read
    /// from the core's fault handle at receive time.
    _private: (),
}

impl std::fmt::Debug for QueueService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueService")
            .field("actor", &self.actor)
            .finish()
    }
}

impl QueueService {
    pub(crate) fn new(core: Arc<ServiceCore>) -> QueueService {
        debug_assert_eq!(core.service(), Service::Queue);
        QueueService {
            core,
            state: Arc::new(Mutex::new(SqsState::default())),
            actor: Actor::Client,
            tenant: None,
            visibility_timeout: DEFAULT_VISIBILITY_TIMEOUT,
            _private: (),
        }
    }

    /// Returns a handle whose calls are metered under `actor`.
    pub fn with_actor(&self, actor: Actor) -> QueueService {
        QueueService {
            actor,
            ..self.clone()
        }
    }

    /// Returns a handle whose calls are additionally attributed to
    /// `tenant` (fleet accounting).
    pub fn with_tenant(&self, tenant: TenantId) -> QueueService {
        QueueService {
            tenant: Some(tenant),
            ..self.clone()
        }
    }

    /// Returns a handle using a different visibility timeout on receives.
    pub fn with_visibility_timeout(&self, timeout: Duration) -> QueueService {
        QueueService {
            visibility_timeout: timeout,
            ..self.clone()
        }
    }

    /// Creates a queue (idempotent) and returns its URL.
    pub fn create_queue(&self, name: &str) -> String {
        let url = format!("sqs://{name}");
        self.state.lock().queues.entry(url.clone()).or_default();
        url
    }

    fn expire(q: &mut QueueState, now: SimTime) {
        q.messages
            .retain(|m| now.saturating_duration_since(m.sent_at) < RETENTION);
    }

    /// Arrival fan-out, called at a send's commit point: rings every
    /// watcher's doorbell (a poll hint; the fault plan may drop it, and
    /// watchers must tolerate that by falling back to their polling
    /// cadence).
    fn ring(core: &ServiceCore, q: &mut QueueState) {
        for (_, w) in &q.watchers {
            if !core.draw_notify_drop() {
                w.release();
            }
        }
    }

    /// Departure fan-out, called at a delete's commit point when the
    /// queue actually shrank: rings every drain watcher's doorbell so a
    /// producer throttled on queue depth re-checks immediately instead
    /// of sleeping out its poll interval. Best-effort like `ring` — the
    /// fault plan may drop a ring, and watchers keep a polling fallback.
    fn ring_drain(core: &ServiceCore, q: &mut QueueState) {
        for w in &q.drain_watchers {
            if !core.draw_notify_drop() {
                w.release();
            }
        }
    }

    /// The receive sampling logic: picks up to `max` visible messages
    /// uniformly at random (no ordering promise), marking each invisible
    /// for `vis` unless the fault plan injects a duplicate delivery.
    /// Runs at a receive's commit point.
    fn pick_visible(
        core: &ServiceCore,
        q: &mut QueueState,
        max: usize,
        vis: Duration,
        now: SimTime,
    ) -> (Vec<ReceivedMessage>, u64) {
        let mut out = Vec::new();
        let mut bytes = 0u64;
        for _ in 0..max {
            // SQS promised no ordering at all: each receive sampled a
            // random subset of storage hosts. Model that as a uniform
            // pick over the visible set — crucially NOT a head window,
            // which would starve long-lived messages stuck at the tail
            // of the store (the fleet's lease tokens live forever and
            // exposed exactly that bias).
            let visible: Vec<usize> = q
                .messages
                .iter()
                .enumerate()
                .filter(|(_, m)| m.visible_at <= now)
                .map(|(i, _)| i)
                .collect();
            if visible.is_empty() {
                break;
            }
            let pick = visible[core.rng_range(visible.len())];
            let duplicate = core.draw_duplicate();
            let m = &mut q.messages[pick];
            if !duplicate {
                m.visible_at = now + vis;
            }
            m.delivery_count += 1;
            let receipt = format!("{}#{}", m.id, m.delivery_count);
            bytes += m.body.len() as u64;
            out.push(ReceivedMessage {
                id: m.id,
                receipt,
                body: m.body.clone(),
            });
        }
        (out, bytes)
    }

    /// Sends a message.
    ///
    /// # Errors
    ///
    /// [`CloudError::MessageTooLarge`] beyond 8 KB;
    /// [`CloudError::NoSuchQueue`] for unknown queue URLs.
    pub fn send(&self, queue_url: &str, body: Bytes) -> Result<u64> {
        if body.len() > MESSAGE_LIMIT {
            return Err(CloudError::MessageTooLarge {
                size: body.len(),
                limit: MESSAGE_LIMIT,
            });
        }
        let state = self.state.clone();
        let core = self.core.clone();
        let url = queue_url.to_string();
        let len = body.len() as u64;
        self.core
            .call(self.actor, self.tenant, Op::Send, 0, len, move |now| {
                let mut st = state.lock();
                let q = st
                    .queues
                    .get_mut(&url)
                    .ok_or(CloudError::NoSuchQueue(url.clone()))?;
                Self::expire(q, now);
                let id = q.next_id;
                q.next_id += 1;
                q.messages.push(QueueMessage {
                    id,
                    body,
                    sent_at: now,
                    visible_at: now,
                    delivery_count: 0,
                });
                Self::ring(&core, q);
                Ok((id, 0))
            })
    }

    /// Receives up to `max` visible messages (at most 10 per call, like the
    /// real API). Received messages become invisible for the visibility
    /// timeout; consumers must [`QueueService::delete`] them before it
    /// expires or they redeliver (at-least-once).
    ///
    /// Delivery order is best-effort FIFO: the service may pick slightly
    /// out of order, and the fault plan can inject duplicate deliveries.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchQueue`] for unknown queue URLs.
    pub fn receive(&self, queue_url: &str, max: usize) -> Result<Vec<ReceivedMessage>> {
        let state = self.state.clone();
        let core = self.core.clone();
        let url = queue_url.to_string();
        let max = max.min(RECEIVE_MAX);
        let vis = self.visibility_timeout;
        self.core
            .call(self.actor, self.tenant, Op::Receive, 0, 0, move |now| {
                let mut st = state.lock();
                let q = st
                    .queues
                    .get_mut(&url)
                    .ok_or(CloudError::NoSuchQueue(url.clone()))?;
                Self::expire(q, now);
                Ok(Self::pick_visible(&core, q, max, vis, now))
            })
    }

    /// Registers `signal` as an arrival watcher on a queue: every
    /// subsequent send rings it (one `release` per send call). This is
    /// the lightweight push-notification hook the fleet's daemon pool
    /// hangs its shard subscriptions on — a watcher owns no messages, it
    /// just learns "something arrived, go poll".
    ///
    /// Watcher delivery is best-effort: the fault plan's
    /// `notify_drop_probability` silently loses rings, so consumers must
    /// keep a polling fallback. Watching is control-plane wiring inside
    /// the simulated delivery fabric, not a billable API call.
    ///
    /// Returns a watch id for [`QueueService::unwatch`].
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchQueue`] for unknown queue URLs.
    pub fn watch(&self, queue_url: &str, signal: SimSemaphore) -> Result<u64> {
        let mut st = self.state.lock();
        let q = st
            .queues
            .get_mut(queue_url)
            .ok_or_else(|| CloudError::NoSuchQueue(queue_url.to_string()))?;
        let id = q.next_watch;
        q.next_watch += 1;
        q.watchers.push((id, signal));
        Ok(id)
    }

    /// Removes an arrival watcher. Unknown ids and queues are a no-op
    /// (the watcher may have been superseded by a lease takeover).
    pub fn unwatch(&self, queue_url: &str, id: u64) {
        let mut st = self.state.lock();
        if let Some(q) = st.queues.get_mut(queue_url) {
            q.watchers.retain(|(wid, _)| *wid != id);
        }
    }

    /// Instrumentation: number of registered arrival watchers. For tests.
    pub fn peek_watchers(&self, queue_url: &str) -> usize {
        self.state
            .lock()
            .queues
            .get(queue_url)
            .map(|q| q.watchers.len())
            .unwrap_or(0)
    }

    /// Registers `signal` as a **drain** watcher on a queue: every
    /// subsequent delete call that actually removes a message rings it
    /// (one `release` per shrinking delete call; a `delete_batch` is one
    /// ring). This is the admission-doorbell hook — a producer throttled
    /// on queue depth parks on the signal and re-checks its gate the
    /// moment the consumer acknowledges work, instead of sleeping out a
    /// poll interval.
    ///
    /// Like arrival watchers, delivery is best-effort: the fault plan's
    /// `notify_drop_probability` silently loses rings, so a parked
    /// producer must keep a poll-timeout fallback. Watching is
    /// control-plane wiring inside the simulated delivery fabric, not a
    /// billable API call. Retention expiry does not ring (it is not an
    /// acknowledgement; expiring WAL entries must not look like
    /// capacity). A drain watcher stays registered for the queue's life.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchQueue`] for unknown queue URLs.
    pub fn watch_drain(&self, queue_url: &str, signal: SimSemaphore) -> Result<()> {
        let mut st = self.state.lock();
        let q = st
            .queues
            .get_mut(queue_url)
            .ok_or_else(|| CloudError::NoSuchQueue(queue_url.to_string()))?;
        q.drain_watchers.push(signal);
        Ok(())
    }

    /// Sends up to [`BATCH_ENTRY_LIMIT`] messages in one request
    /// (`SendMessageBatch`). The whole call is metered and priced as
    /// **one** queue operation; the per-entry verdicts come back in the
    /// result vector (entry order matches `bodies` order), so a caller
    /// can distinguish "the request failed" from "entry 3 was rejected".
    ///
    /// An entry fails — without affecting its siblings — when its body
    /// exceeds the 8 KB message limit. Successful entries return their
    /// message ids.
    ///
    /// # Errors
    ///
    /// [`CloudError::BatchTooLarge`] beyond [`BATCH_ENTRY_LIMIT`]
    /// entries (rejected up front, before any latency is charged);
    /// [`CloudError::NoSuchQueue`] for unknown queue URLs. An empty
    /// batch is a free no-op.
    pub fn send_batch(&self, queue_url: &str, bodies: Vec<Bytes>) -> Result<Vec<Result<u64>>> {
        if bodies.is_empty() {
            return Ok(Vec::new());
        }
        if bodies.len() > BATCH_ENTRY_LIMIT {
            return Err(CloudError::BatchTooLarge {
                items: bodies.len(),
                limit: BATCH_ENTRY_LIMIT,
            });
        }
        let state = self.state.clone();
        let core = self.core.clone();
        let url = queue_url.to_string();
        let entries = bodies.len();
        let bytes_in: u64 = bodies.iter().map(|b| b.len() as u64).sum();
        self.core.call(
            self.actor,
            self.tenant,
            Op::Send,
            // Per-entry server time beyond the first entry — a
            // one-entry batch costs exactly what a plain send does.
            entries - 1,
            bytes_in,
            move |now| {
                let mut st = state.lock();
                let q = st
                    .queues
                    .get_mut(&url)
                    .ok_or(CloudError::NoSuchQueue(url.clone()))?;
                Self::expire(q, now);
                let results: Vec<Result<u64>> = bodies
                    .into_iter()
                    .map(|body| {
                        if body.len() > MESSAGE_LIMIT {
                            return Err(CloudError::MessageTooLarge {
                                size: body.len(),
                                limit: MESSAGE_LIMIT,
                            });
                        }
                        let id = q.next_id;
                        q.next_id += 1;
                        q.messages.push(QueueMessage {
                            id,
                            body,
                            sent_at: now,
                            visible_at: now,
                            delivery_count: 0,
                        });
                        Ok(id)
                    })
                    .collect();
                Self::ring(&core, q);
                Ok((results, 0))
            },
        )
    }

    /// Deletes up to [`BATCH_ENTRY_LIMIT`] messages by receipt handle in
    /// one request (`DeleteMessageBatch`) — the commit daemon's bulk WAL
    /// acknowledgement path. One metered queue operation; per-entry
    /// verdicts in the result vector (entry order matches `receipts`).
    ///
    /// Entry semantics match [`QueueService::delete`]: already-deleted
    /// messages succeed silently, stale receipts (the message has been
    /// redelivered since, so a fresher receipt exists) are rejected, and
    /// unparsable receipts fail their entry.
    ///
    /// # Errors
    ///
    /// [`CloudError::BatchTooLarge`] beyond [`BATCH_ENTRY_LIMIT`]
    /// entries; [`CloudError::NoSuchQueue`] for unknown queue URLs. An
    /// empty batch is a free no-op.
    pub fn delete_batch(&self, queue_url: &str, receipts: &[String]) -> Result<Vec<Result<()>>> {
        if receipts.is_empty() {
            return Ok(Vec::new());
        }
        if receipts.len() > BATCH_ENTRY_LIMIT {
            return Err(CloudError::BatchTooLarge {
                items: receipts.len(),
                limit: BATCH_ENTRY_LIMIT,
            });
        }
        let state = self.state.clone();
        let core = self.core.clone();
        let url = queue_url.to_string();
        let entries: Vec<String> = receipts.to_vec();
        let n = entries.len();
        self.core
            .call(self.actor, self.tenant, Op::Delete, n - 1, 0, move |_now| {
                let mut st = state.lock();
                let q = st
                    .queues
                    .get_mut(&url)
                    .ok_or(CloudError::NoSuchQueue(url.clone()))?;
                let before = q.messages.len();
                let results = entries
                    .iter()
                    .map(|receipt| {
                        let (id, delivery) = parse_receipt(receipt)?;
                        Self::delete_entry(q, id, delivery, receipt)
                    })
                    .collect();
                if q.messages.len() < before {
                    Self::ring_drain(&core, q);
                }
                Ok((results, 0))
            })
    }

    /// One delete-by-receipt: idempotent for messages already gone, but
    /// strict about receipt freshness — a receipt superseded by a
    /// redelivery must not delete the message out from under its current
    /// holder. (A consumer woken from a long poll holds the freshest
    /// receipt; anyone acking with an older one lost the race.)
    fn delete_entry(q: &mut QueueState, id: u64, delivery: u32, receipt: &str) -> Result<()> {
        match q.messages.iter().position(|m| m.id == id) {
            None => Ok(()),
            Some(pos) => {
                if q.messages[pos].delivery_count != delivery {
                    return Err(CloudError::InvalidReceipt(receipt.to_string()));
                }
                q.messages.remove(pos);
                Ok(())
            }
        }
    }

    /// Changes the remaining visibility timeout of an in-flight message —
    /// the real `ChangeMessageVisibility` call. The fleet's commit daemons
    /// use it to *renew* per-shard leases (extend) and to *release* them
    /// early (a timeout of zero makes the message immediately receivable
    /// by someone else).
    ///
    /// Unlike [`QueueService::delete`], this call is strict about receipt
    /// freshness, matching the real service: it fails on a receipt whose
    /// message has expired back to visible (the lease was lost) or has
    /// been redelivered since (someone else holds it now). That error is
    /// exactly how a daemon discovers its shard was stolen.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchQueue`] for unknown queues;
    /// [`CloudError::InvalidReceipt`] for unparsable receipts, receipts of
    /// deleted/expired messages, stale receipts (the message was
    /// redelivered since), and messages that are currently visible (not
    /// in flight).
    pub fn change_visibility(
        &self,
        queue_url: &str,
        receipt: &str,
        timeout: Duration,
    ) -> Result<()> {
        let (id, delivery) = parse_receipt(receipt)?;
        let state = self.state.clone();
        let url = queue_url.to_string();
        let receipt = receipt.to_string();
        self.core.call(
            self.actor,
            self.tenant,
            Op::ChangeVisibility,
            0,
            0,
            move |now| {
                let mut st = state.lock();
                let q = st
                    .queues
                    .get_mut(&url)
                    .ok_or(CloudError::NoSuchQueue(url.clone()))?;
                Self::expire(q, now);
                let m = q
                    .messages
                    .iter_mut()
                    .find(|m| m.id == id)
                    .ok_or_else(|| CloudError::InvalidReceipt(receipt.clone()))?;
                if m.delivery_count != delivery || m.visible_at <= now {
                    return Err(CloudError::InvalidReceipt(receipt.clone()));
                }
                m.visible_at = now + timeout;
                Ok(((), 0))
            },
        )
    }

    /// Deletes a message by receipt handle. Receipts for already-deleted
    /// messages succeed silently (idempotent acks), but a *stale* receipt
    /// — the message has been redelivered since, so someone else holds a
    /// fresher one — is rejected instead of deleting the current holder's
    /// delivery out from under it. The rejected acker's copy simply
    /// redelivers later (at-least-once).
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchQueue`] for unknown queues;
    /// [`CloudError::InvalidReceipt`] for unparsable and stale receipts.
    pub fn delete(&self, queue_url: &str, receipt: &str) -> Result<()> {
        let (id, delivery) = parse_receipt(receipt)?;
        let state = self.state.clone();
        let core = self.core.clone();
        let url = queue_url.to_string();
        let receipt = receipt.to_string();
        self.core
            .call(self.actor, self.tenant, Op::Delete, 0, 0, move |_now| {
                let mut st = state.lock();
                let q = st
                    .queues
                    .get_mut(&url)
                    .ok_or(CloudError::NoSuchQueue(url.clone()))?;
                let before = q.messages.len();
                Self::delete_entry(q, id, delivery, &receipt)?;
                if q.messages.len() < before {
                    Self::ring_drain(&core, q);
                }
                Ok(((), 0))
            })
    }

    /// Instrumentation: messages currently visible (receivable now),
    /// bypassing the API model. For tests.
    pub fn peek_visible(&self, queue_url: &str, now: SimTime) -> usize {
        self.state
            .lock()
            .queues
            .get(queue_url)
            .map(|q| q.messages.iter().filter(|m| m.visible_at <= now).count())
            .unwrap_or(0)
    }

    /// Instrumentation: total messages (visible or not) currently stored,
    /// bypassing the API model. For tests and daemons' idle checks.
    pub fn peek_depth(&self, queue_url: &str) -> usize {
        self.state
            .lock()
            .queues
            .get(queue_url)
            .map(|q| q.messages.len())
            .unwrap_or(0)
    }
}

/// Parses a full receipt handle `"{id}#{delivery_count}"`.
fn parse_receipt(receipt: &str) -> Result<(u64, u32)> {
    receipt
        .split_once('#')
        .and_then(|(id, d)| Some((id.parse().ok()?, d.parse().ok()?)))
        .ok_or_else(|| CloudError::InvalidReceipt(receipt.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultHandle, FaultPlan};
    use crate::meter::Meter;
    use crate::profile::AwsProfile;
    use cloudprov_sim::Sim;

    fn sqs_with_faults(profile: AwsProfile, faults: FaultHandle) -> (Sim, QueueService) {
        let sim = Sim::new();
        let core = ServiceCore::new(
            &sim,
            Service::Queue,
            &profile,
            Meter::new(),
            faults,
            cloudprov_trace::Tracer::new(&sim),
        );
        (sim, QueueService::new(core))
    }

    fn sqs(profile: AwsProfile) -> (Sim, QueueService) {
        sqs_with_faults(profile, FaultHandle::new())
    }

    #[test]
    fn send_receive_delete_roundtrip() {
        let (_sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        q.send(&url, Bytes::from_static(b"record-1")).unwrap();
        let msgs = q.receive(&url, 10).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].body.as_ref(), b"record-1");
        q.delete(&url, &msgs[0].receipt).unwrap();
        assert_eq!(q.peek_depth(&url), 0);
    }

    #[test]
    fn oversized_message_rejected_without_latency() {
        let (sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        let err = q.send(&url, Bytes::from(vec![0u8; 8193])).unwrap_err();
        assert!(matches!(
            err,
            CloudError::MessageTooLarge { size: 8193, .. }
        ));
        assert_eq!(sim.now().as_micros(), 0);
    }

    #[test]
    fn exactly_8kb_is_accepted() {
        let (_sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        q.send(&url, Bytes::from(vec![0u8; 8192])).unwrap();
    }

    #[test]
    fn unknown_queue_rejected() {
        let (_sim, q) = sqs(AwsProfile::instant());
        assert!(matches!(
            q.send("sqs://nope", Bytes::from_static(b"x")).unwrap_err(),
            CloudError::NoSuchQueue(_)
        ));
        assert!(q.receive("sqs://nope", 1).is_err());
    }

    #[test]
    fn invisible_until_timeout_then_redelivered() {
        let (sim, q) = sqs(AwsProfile::instant());
        let q = q.with_visibility_timeout(Duration::from_secs(30));
        let url = q.create_queue("wal");
        q.send(&url, Bytes::from_static(b"m")).unwrap();
        let first = q.receive(&url, 10).unwrap();
        assert_eq!(first.len(), 1);
        // Within the visibility window: nothing to receive.
        assert!(q.receive(&url, 10).unwrap().is_empty());
        // After the window, at-least-once redelivery.
        sim.sleep(Duration::from_secs(31));
        let second = q.receive(&url, 10).unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].id, first[0].id);
        assert_ne!(second[0].receipt, first[0].receipt);
    }

    #[test]
    fn retention_expires_old_messages() {
        let (sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        q.send(&url, Bytes::from_static(b"old")).unwrap();
        sim.sleep(RETENTION + Duration::from_secs(1));
        assert!(q.receive(&url, 10).unwrap().is_empty());
        assert_eq!(q.peek_depth(&url), 0);
    }

    #[test]
    fn receive_caps_at_ten() {
        let (_sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        for i in 0..20 {
            q.send(&url, Bytes::from(format!("m{i}"))).unwrap();
        }
        let msgs = q.receive(&url, 50).unwrap();
        assert_eq!(msgs.len(), RECEIVE_MAX);
    }

    #[test]
    fn all_messages_eventually_delivered_despite_reordering() {
        let (_sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        for i in 0..40 {
            q.send(&url, Bytes::from(format!("m{i:02}"))).unwrap();
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Ok(msgs) = q.receive(&url, 10) {
            if msgs.is_empty() {
                break;
            }
            for m in msgs {
                seen.insert(String::from_utf8(m.body.to_vec()).unwrap());
                q.delete(&url, &m.receipt).unwrap();
            }
        }
        assert_eq!(seen.len(), 40);
    }

    #[test]
    fn duplicate_delivery_fault_injection() {
        let faults = FaultHandle::new();
        faults.set(FaultPlan {
            sqs_duplicate_probability: 1.0,
            ..FaultPlan::none()
        });
        let (_sim, q) = sqs_with_faults(AwsProfile::instant(), faults);
        let url = q.create_queue("wal");
        q.send(&url, Bytes::from_static(b"dup")).unwrap();
        // With duplication forced on, the message stays visible after a
        // receive and is delivered again immediately.
        let a = q.receive(&url, 1).unwrap();
        let b = q.receive(&url, 1).unwrap();
        assert_eq!(a[0].id, b[0].id);
    }

    #[test]
    fn change_visibility_extends_the_window() {
        let (sim, q) = sqs(AwsProfile::instant());
        let q = q.with_visibility_timeout(Duration::from_secs(30));
        let url = q.create_queue("lease");
        q.send(&url, Bytes::from_static(b"token")).unwrap();
        let held = q.receive(&url, 1).unwrap();
        // Renew at t=20 for another 30 s: invisible until t=50.
        sim.sleep(Duration::from_secs(20));
        q.change_visibility(&url, &held[0].receipt, Duration::from_secs(30))
            .unwrap();
        assert_eq!(q.peek_visible(&url, sim.now()), 0, "renewed: in flight");
        sim.sleep(Duration::from_secs(15)); // t=35: past the original window
        assert!(q.receive(&url, 1).unwrap().is_empty(), "renewal must hold");
        sim.sleep(Duration::from_secs(16)); // t=51: past the renewed window
        let stolen = q.receive(&url, 1).unwrap();
        assert_eq!(stolen.len(), 1, "an unrenewed lease becomes receivable");
    }

    #[test]
    fn change_visibility_zero_releases_immediately() {
        let (sim, q) = sqs(AwsProfile::instant());
        let q = q.with_visibility_timeout(Duration::from_secs(3600));
        let url = q.create_queue("lease");
        q.send(&url, Bytes::from_static(b"token")).unwrap();
        let held = q.receive(&url, 1).unwrap();
        assert!(q.receive(&url, 1).unwrap().is_empty());
        q.change_visibility(&url, &held[0].receipt, Duration::ZERO)
            .unwrap();
        assert_eq!(q.peek_visible(&url, sim.now()), 1, "released: visible");
        let next = q.receive(&url, 1).unwrap();
        assert_eq!(next.len(), 1, "explicit release hands the token over");
        assert_ne!(next[0].receipt, held[0].receipt);
    }

    #[test]
    fn change_visibility_fails_after_expiry() {
        // The expiry race: the holder sleeps past its window, someone else
        // may already have the message — renewal must fail, not silently
        // re-steal.
        let (sim, q) = sqs(AwsProfile::instant());
        let q = q.with_visibility_timeout(Duration::from_secs(5));
        let url = q.create_queue("lease");
        q.send(&url, Bytes::from_static(b"token")).unwrap();
        let held = q.receive(&url, 1).unwrap();
        sim.sleep(Duration::from_secs(6));
        let err = q
            .change_visibility(&url, &held[0].receipt, Duration::from_secs(30))
            .unwrap_err();
        assert!(matches!(err, CloudError::InvalidReceipt(_)));
    }

    #[test]
    fn change_visibility_fails_on_stale_receipt_after_redelivery() {
        // Expiry race, second act: a new consumer received the message, so
        // the old receipt is stale and must not be able to extend (that
        // would steal the lease back from the legitimate holder).
        let (sim, q) = sqs(AwsProfile::instant());
        let q = q.with_visibility_timeout(Duration::from_secs(5));
        let url = q.create_queue("lease");
        q.send(&url, Bytes::from_static(b"token")).unwrap();
        let old = q.receive(&url, 1).unwrap();
        sim.sleep(Duration::from_secs(6));
        let new = q.receive(&url, 1).unwrap();
        assert_eq!(new.len(), 1);
        let err = q
            .change_visibility(&url, &old[0].receipt, Duration::from_secs(60))
            .unwrap_err();
        assert!(matches!(err, CloudError::InvalidReceipt(_)));
        // The new holder's receipt still works.
        q.change_visibility(&url, &new[0].receipt, Duration::from_secs(60))
            .unwrap();
    }

    #[test]
    fn change_visibility_rejects_garbage_and_unknown() {
        let (_sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("lease");
        assert!(matches!(
            q.change_visibility(&url, "not-a-receipt", Duration::ZERO)
                .unwrap_err(),
            CloudError::InvalidReceipt(_)
        ));
        assert!(matches!(
            q.change_visibility(&url, "99#1", Duration::ZERO)
                .unwrap_err(),
            CloudError::InvalidReceipt(_)
        ));
        assert!(q
            .change_visibility("sqs://nope", "1#1", Duration::ZERO)
            .is_err());
    }

    #[test]
    fn send_batch_delivers_all_entries_as_one_metered_op() {
        let (sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        let ids = q
            .send_batch(
                &url,
                (0..10).map(|i| Bytes::from(format!("m{i}"))).collect(),
            )
            .unwrap();
        assert_eq!(ids.len(), 10);
        assert!(ids.iter().all(|r| r.is_ok()));
        assert_eq!(q.peek_depth(&url), 10);
        // One request on the meter, with per-entry byte accounting.
        let rep = q.core.meter().report(sim.now());
        let st = rep.get(Actor::Client, Service::Queue, Op::Send);
        assert_eq!(st.count, 1, "a batch send is one request");
        assert_eq!(st.bytes_in, 20);
    }

    #[test]
    fn send_batch_rejects_eleven_entries_up_front() {
        let (sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        let err = q
            .send_batch(&url, (0..11).map(|_| Bytes::from_static(b"x")).collect())
            .unwrap_err();
        assert!(matches!(
            err,
            CloudError::BatchTooLarge {
                items: 11,
                limit: BATCH_ENTRY_LIMIT
            }
        ));
        assert_eq!(q.peek_depth(&url), 0, "nothing may land");
        assert_eq!(sim.now().as_micros(), 0, "rejected before any latency");
    }

    #[test]
    fn send_batch_partial_failure_spares_good_entries() {
        let (_sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        let results = q
            .send_batch(
                &url,
                vec![
                    Bytes::from_static(b"ok-1"),
                    Bytes::from(vec![0u8; MESSAGE_LIMIT + 1]),
                    Bytes::from_static(b"ok-2"),
                ],
            )
            .unwrap();
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CloudError::MessageTooLarge { .. })
        ));
        assert!(results[2].is_ok());
        assert_eq!(q.peek_depth(&url), 2, "good entries land, bad one doesn't");
    }

    #[test]
    fn delete_batch_acks_many_receipts_in_one_op() {
        let (sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        for i in 0..6 {
            q.send(&url, Bytes::from(format!("m{i}"))).unwrap();
        }
        let mut receipts = Vec::new();
        while receipts.len() < 6 {
            for m in q.receive(&url, 10).unwrap() {
                receipts.push(m.receipt);
            }
        }
        let results = q.delete_batch(&url, &receipts).unwrap();
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(q.peek_depth(&url), 0);
        let rep = q.core.meter().report(sim.now());
        assert_eq!(
            rep.get(Actor::Client, Service::Queue, Op::Delete).count,
            1,
            "a batch delete is one request"
        );
    }

    #[test]
    fn delete_batch_rejects_oversized_batches_and_unknown_queues() {
        let (_sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        let too_many: Vec<String> = (0..11).map(|i| format!("{i}#1")).collect();
        assert!(matches!(
            q.delete_batch(&url, &too_many).unwrap_err(),
            CloudError::BatchTooLarge { items: 11, .. }
        ));
        assert!(matches!(
            q.delete_batch("sqs://nope", &["1#1".to_string()])
                .unwrap_err(),
            CloudError::NoSuchQueue(_)
        ));
        assert!(q.delete_batch(&url, &[]).unwrap().is_empty());
    }

    #[test]
    fn delete_batch_partial_failure_and_stale_receipts() {
        let (sim, q) = sqs(AwsProfile::instant());
        let q = q.with_visibility_timeout(Duration::from_secs(1));
        let url = q.create_queue("wal");
        q.send(&url, Bytes::from_static(b"m")).unwrap();
        let first = q.receive(&url, 1).unwrap();
        sim.sleep(Duration::from_secs(2));
        let second = q.receive(&url, 1).unwrap();
        // Mix a garbage receipt, a STALE receipt (message redelivered
        // since) and an already-deleted id into one batch.
        let batch = vec![
            "not-a-receipt".to_string(),
            first[0].receipt.clone(),
            "999#1".to_string(),
        ];
        let results = q.delete_batch(&url, &batch).unwrap();
        assert!(matches!(results[0], Err(CloudError::InvalidReceipt(_))));
        assert!(
            matches!(results[1], Err(CloudError::InvalidReceipt(_))),
            "a stale receipt must not ack the current holder's delivery"
        );
        assert!(results[2].is_ok(), "deleting a gone message succeeds");
        assert_eq!(q.peek_depth(&url), 1, "the redelivered copy survives");
        // The current holder's fresh receipt still acks.
        let results = q.delete_batch(&url, &[second[0].receipt.clone()]).unwrap();
        assert!(results[0].is_ok());
        assert_eq!(q.peek_depth(&url), 0);
    }

    #[test]
    fn delete_with_stale_receipt_is_rejected() {
        let (sim, q) = sqs(AwsProfile::instant());
        let q = q.with_visibility_timeout(Duration::from_secs(1));
        let url = q.create_queue("wal");
        q.send(&url, Bytes::from_static(b"m")).unwrap();
        let first = q.receive(&url, 1).unwrap();
        sim.sleep(Duration::from_secs(2));
        let second = q.receive(&url, 1).unwrap();
        // Delete with the FIRST (now stale) receipt: rejected, the
        // message stays with its current holder.
        let err = q.delete(&url, &first[0].receipt).unwrap_err();
        assert!(matches!(err, CloudError::InvalidReceipt(_)));
        assert_eq!(q.peek_depth(&url), 1);
        // Deleting with the fresh receipt works, and repeating it is an
        // idempotent no-op (the message is simply gone).
        q.delete(&url, &second[0].receipt).unwrap();
        q.delete(&url, &second[0].receipt).unwrap();
        assert_eq!(q.peek_depth(&url), 0);
    }

    // ---- arrival watchers (push-notification hook) ---------------------

    #[test]
    fn watchers_ring_on_every_send_and_unwatch_stops_them() {
        let (sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        let bell = SimSemaphore::new(&sim, 0);
        let id = q.watch(&url, bell.clone()).unwrap();
        q.send(&url, Bytes::from_static(b"a")).unwrap();
        q.send_batch(
            &url,
            vec![Bytes::from_static(b"b"), Bytes::from_static(b"c")],
        )
        .unwrap();
        // One ring per send *call* (a batch is one call), banked as
        // permits until the watcher drains them.
        assert_eq!(bell.available(), 2);
        q.unwatch(&url, id);
        q.send(&url, Bytes::from_static(b"d")).unwrap();
        assert_eq!(bell.available(), 2, "unwatched: no more rings");
        assert_eq!(q.peek_watchers(&url), 0);
    }

    #[test]
    fn drain_watchers_ring_on_shrinking_deletes_only() {
        let (sim, q) = sqs(AwsProfile::instant());
        let url = q.create_queue("wal");
        let bell = SimSemaphore::new(&sim, 0);
        q.watch_drain(&url, bell.clone()).unwrap();
        for i in 0..3 {
            q.send(&url, Bytes::from(format!("m{i}"))).unwrap();
        }
        assert_eq!(bell.available(), 0, "sends never ring the drain bell");
        let mut receipts = Vec::new();
        while receipts.len() < 3 {
            for m in q.receive(&url, 10).unwrap() {
                receipts.push(m.receipt);
            }
        }
        q.delete(&url, &receipts[0]).unwrap();
        assert_eq!(bell.available(), 1, "a shrinking delete rings once");
        // Re-deleting an already-gone message succeeds but removes
        // nothing: no ring (a no-op ack is not freed capacity).
        q.delete(&url, &receipts[0]).unwrap();
        assert_eq!(bell.available(), 1);
        // A batch delete is one call and one ring.
        let results = q.delete_batch(&url, &receipts[1..3]).unwrap();
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(bell.available(), 2);
    }

    #[test]
    fn drain_rings_are_droppable_but_depth_still_falls() {
        let faults = FaultHandle::new();
        faults.set(FaultPlan {
            notify_drop_probability: 1.0,
            ..FaultPlan::none()
        });
        let (sim, q) = sqs_with_faults(AwsProfile::instant(), faults);
        let url = q.create_queue("wal");
        let bell = SimSemaphore::new(&sim, 0);
        q.watch_drain(&url, bell.clone()).unwrap();
        q.send(&url, Bytes::from_static(b"m")).unwrap();
        let m = q.receive(&url, 1).unwrap();
        q.delete(&url, &m[0].receipt).unwrap();
        assert_eq!(bell.available(), 0, "every ring dropped");
        // The delete itself still happened — a throttled producer's
        // poll fallback will observe the drained depth.
        assert_eq!(q.peek_depth(&url), 0);
    }

    #[test]
    fn watcher_rings_are_droppable_but_polling_still_works() {
        let faults = FaultHandle::new();
        faults.set(FaultPlan {
            notify_drop_probability: 1.0,
            ..FaultPlan::none()
        });
        let (sim, q) = sqs_with_faults(AwsProfile::instant(), faults);
        let url = q.create_queue("wal");
        let bell = SimSemaphore::new(&sim, 0);
        q.watch(&url, bell.clone()).unwrap();
        q.send(&url, Bytes::from_static(b"silent")).unwrap();
        assert_eq!(bell.available(), 0, "every ring dropped");
        // The message itself is untouched — a poll finds it. Lost
        // wakeups degrade to polling, never to lost data.
        assert_eq!(q.receive(&url, 10).unwrap().len(), 1);
    }
}
