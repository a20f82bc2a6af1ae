//! [`LeaseBoard`]: per-shard commit leases built from SQS visibility.
//!
//! The commit plane needs a way to say "daemon D is currently draining
//! shard S" without adding a coordination service the paper's stack does
//! not have. The trick: the board queue holds exactly one **token
//! message per shard**. Receiving the token *is* acquiring the lease
//! (SQS visibility hides it from everyone else for the lease TTL);
//! `ChangeMessageVisibility` *renews* it (extend) or *releases* it early
//! (timeout zero). A daemon that dies or stalls simply stops renewing —
//! the token expires back to visible and any other daemon picks the
//! shard up. Failover is therefore inherited from SQS's at-least-once
//! semantics rather than implemented.
//!
//! The races are exactly SQS's, and they resolve safely:
//!
//! * **Expiry race** — the holder renews after its TTL lapsed. Either
//!   nobody re-received the token yet (renewal fails: the message is
//!   visible) or somebody did (renewal fails: the receipt is stale).
//!   Both surface as a failed [`LeaseBoard::renew`], which the pool
//!   treats as "shard stolen, drop it".
//! * **Duplicate delivery** — the fault plan can hand one token to two
//!   daemons. The older receipt is stale from the newer delivery on, so
//!   the first holder's next renewal fails and it drops the shard; after
//!   that renewal exactly one holder is left. The pool renews once per
//!   lease tick (a quarter of the TTL), so until then both holders can
//!   drive the shard for up to a tick plus one group.
//!
//! What holds: each holder drives a commit daemon of its own, dropped
//! with its lease, so two holders never meet inside one daemon's locks;
//! the commit path is idempotent, and the pool's `double_commits` check
//! counts any repeat. What is open: a duplicated token gives two fresh
//! holders inside the renewal window, whose feed writers can stage the
//! same sequence on the shard's stream (`audit_feed` reports it as a
//! duplicate; ROADMAP item 3(c)).

use std::time::Duration;

use bytes::Bytes;

use cloudprov_cloud::{Actor, CloudEnv, QueueService};

/// A held per-shard lease: the shard id plus the receipt that proves
/// (until TTL) this holder received the token last.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lease {
    shard: u32,
    receipt: String,
}

impl Lease {
    /// The shard this lease covers.
    pub fn shard(&self) -> u32 {
        self.shard
    }
}

/// The fleet's lease queue: one token message per shard.
#[derive(Clone, Debug)]
pub struct LeaseBoard {
    sqs: QueueService,
    url: String,
    ttl: Duration,
}

impl LeaseBoard {
    /// Creates the board queue and seeds one token per shard. Lease ops
    /// are metered under the commit-daemon actor (shared infrastructure,
    /// priced like the rest of the commit plane).
    pub fn provision(env: &CloudEnv, shards: u32, ttl: Duration) -> LeaseBoard {
        let sqs = env
            .sqs()
            .with_actor(Actor::CommitDaemon)
            .with_visibility_timeout(ttl);
        let url = sqs.create_queue("fleet-lease");
        for shard in 0..shards {
            sqs.send(&url, Bytes::from(format!("SHARD\t{shard}")))
                .expect("seeding the lease board cannot fail");
        }
        LeaseBoard { sqs, url, ttl }
    }

    /// How long a lease outlives its last acquire or renewal.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// Tries to acquire any available shard lease. `None` when every
    /// shard is currently held (or the receive itself failed — callers
    /// retry next poll round either way).
    pub fn acquire(&self) -> Option<Lease> {
        let msgs = self.sqs.receive(&self.url, 1).ok()?;
        let m = msgs.into_iter().next()?;
        let body = String::from_utf8_lossy(&m.body);
        let shard: u32 = body.strip_prefix("SHARD\t")?.trim().parse().ok()?;
        Some(Lease {
            shard,
            receipt: m.receipt,
        })
    }

    /// Renews a lease for another TTL. `false` means the lease was lost —
    /// it expired (and possibly another daemon now holds the shard);
    /// the caller must stop draining that shard immediately.
    pub fn renew(&self, lease: &Lease) -> bool {
        self.sqs
            .change_visibility(&self.url, &lease.receipt, self.ttl)
            .is_ok()
    }

    /// Releases a lease early, making the shard immediately acquirable
    /// by another daemon (load shedding / hot-shard handoff). Returns
    /// `false` if the lease had already been lost.
    pub fn release(&self, lease: Lease) -> bool {
        self.sqs
            .change_visibility(&self.url, &lease.receipt, Duration::ZERO)
            .is_ok()
    }

    /// Hands a lease off: deletes the held token and sends a fresh one.
    /// Unlike [`LeaseBoard::release`] (a visibility reset, which no one
    /// notices until their next acquire poll), the re-send **rings the
    /// board's arrival watchers** — a starving worker parked on its
    /// doorbell wakes immediately and picks the shard up, which is what
    /// makes hot-shard handoff land within a round instead of a poll
    /// interval. Returns `false` if the lease had already been lost (the
    /// token is then either visible again or someone else's — never
    /// resent, so the board can never grow a duplicate token).
    pub fn handoff(&self, lease: Lease) -> bool {
        if self.sqs.delete(&self.url, &lease.receipt).is_err() {
            return false;
        }
        self.sqs
            .send(&self.url, Bytes::from(format!("SHARD\t{}", lease.shard)))
            .is_ok()
    }

    /// Registers `signal` as an arrival watcher on the board queue: every
    /// token [`LeaseBoard::handoff`] re-sends rings it. Push-mode pool
    /// workers park their doorbell here while starving.
    pub fn watch(&self, signal: cloudprov_sim::SimSemaphore) -> Option<u64> {
        self.sqs.watch(&self.url, signal).ok()
    }

    /// Removes a watcher registered with [`LeaseBoard::watch`].
    pub fn unwatch(&self, id: u64) {
        self.sqs.unwatch(&self.url, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::AwsProfile;
    use cloudprov_sim::Sim;

    fn board(shards: u32, ttl_secs: u64) -> (Sim, LeaseBoard) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let b = LeaseBoard::provision(&env, shards, Duration::from_secs(ttl_secs));
        (sim, b)
    }

    #[test]
    fn every_shard_is_acquirable_exactly_once() {
        let (_sim, b) = board(4, 60);
        let mut shards: Vec<u32> = (0..4)
            .filter_map(|_| b.acquire())
            .map(|l| l.shard())
            .collect();
        shards.sort_unstable();
        assert_eq!(shards, vec![0, 1, 2, 3]);
        assert!(b.acquire().is_none(), "all leases held");
    }

    #[test]
    fn renewal_keeps_the_lease_past_the_ttl() {
        let (sim, b) = board(1, 30);
        let lease = b.acquire().unwrap();
        sim.sleep(Duration::from_secs(20));
        assert!(b.renew(&lease));
        sim.sleep(Duration::from_secs(20)); // t=40 > original ttl
        assert!(b.acquire().is_none(), "renewed lease still held");
        sim.sleep(Duration::from_secs(15)); // t=55 > renewed ttl
        assert!(b.acquire().is_some(), "lapsed lease is up for grabs");
    }

    #[test]
    fn expired_lease_fails_renewal_and_fails_release() {
        let (sim, b) = board(1, 10);
        let lease = b.acquire().unwrap();
        sim.sleep(Duration::from_secs(11));
        assert!(!b.renew(&lease), "expired lease cannot renew");
        // Another daemon takes the shard; the old holder's release must
        // not yank it away.
        let stolen = b.acquire().unwrap();
        assert_eq!(stolen.shard(), lease.shard());
        assert!(!b.release(lease));
        assert!(b.renew(&stolen), "the thief's lease is healthy");
    }

    #[test]
    fn handoff_rings_watchers_and_keeps_exactly_one_token() {
        use cloudprov_sim::SimSemaphore;
        let (sim, b) = board(1, 10);
        let bell = SimSemaphore::new(&sim, 0);
        b.watch(bell.clone()).expect("board queue exists");
        let lease = b.acquire().unwrap();
        assert!(b.handoff(lease));
        assert!(
            bell.try_acquire().is_some(),
            "handoff must ring the board's watchers"
        );
        let re = b.acquire().expect("resent token is acquirable");
        assert_eq!(re.shard(), 0);
        assert!(b.acquire().is_none(), "exactly one token after handoff");
        // A lapsed lease can neither hand off nor duplicate the token.
        sim.sleep(Duration::from_secs(11));
        let stolen = b.acquire().expect("lapsed token is up for grabs");
        assert!(!b.handoff(re), "stale receipt must not hand off");
        assert!(
            b.acquire().is_none(),
            "the thief still holds the only token"
        );
        assert!(b.renew(&stolen));
    }

    #[test]
    fn release_hands_the_shard_over_immediately() {
        let (_sim, b) = board(1, 3600);
        let lease = b.acquire().unwrap();
        assert!(b.acquire().is_none());
        assert!(b.release(lease));
        assert!(b.acquire().is_some(), "released lease is acquirable now");
    }
}
