//! [`ShardRouter`]: consistent-hash placement of clients onto WAL shards.
//!
//! The paper's P3 gives every client its own SQS write-ahead-log queue.
//! That is the right *durability* design, but a fleet of thousands of
//! clients would need thousands of queues each polled by some daemon —
//! most of them idle. The router instead provisions a fixed set of M
//! **shard queues** and consistent-hashes client identities onto them:
//! each shard serves many clients (their transactions interleave safely —
//! WAL messages are tagged with per-client-seeded transaction ids, see
//! `P3::with_identity`), and the commit-daemon pool balances itself over
//! shards rather than clients.
//!
//! Placement uses a classic hash ring with virtual nodes, so growing the
//! fleet from M to M+1 shards remaps only ~1/(M+1) of the clients — the
//! property that makes gradual re-sharding of a live fleet practical.

use cloudprov_cloud::{fnv1a64_mixed, CloudEnv};

/// Virtual nodes per shard on the hash ring. 64 keeps the placement
/// spread within a few percent of uniform for double-digit shard counts.
const VNODES: u32 = 64;

/// Consistent-hash router from client identities to WAL shard queues.
#[derive(Clone, Debug)]
pub struct ShardRouter {
    shards: u32,
    /// Hash ring: (point, shard), sorted by point.
    ring: Vec<(u64, u32)>,
    /// Shard queue URLs, indexed by shard id.
    urls: Vec<String>,
}

impl ShardRouter {
    /// Name of shard `shard`'s WAL queue.
    pub fn queue_name(shard: u32) -> String {
        format!("fleet-wal-{shard:04}")
    }

    /// Provisions `shards` WAL shard queues on `env` and builds the ring.
    pub fn provision(env: &CloudEnv, shards: u32) -> ShardRouter {
        assert!(shards >= 1, "a fleet needs at least one shard");
        let urls = (0..shards)
            .map(|s| env.sqs().create_queue(&Self::queue_name(s)))
            .collect();
        let mut ring: Vec<(u64, u32)> = (0..shards)
            .flat_map(|s| {
                (0..VNODES)
                    .map(move |v| (fnv1a64_mixed(format!("shard-{s}#vnode-{v}").as_bytes()), s))
            })
            .collect();
        ring.sort_unstable();
        ShardRouter { shards, ring, urls }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard a client identity routes to: the first ring point at or
    /// after the client's hash, wrapping at the top.
    pub fn shard_for(&self, client: &str) -> u32 {
        let h = fnv1a64_mixed(client.as_bytes());
        let i = self.ring.partition_point(|(p, _)| *p < h);
        self.ring[if i == self.ring.len() { 0 } else { i }].1
    }

    /// URL of shard `shard`'s WAL queue.
    pub fn wal_url(&self, shard: u32) -> &str {
        &self.urls[shard as usize]
    }

    /// Instrumentation: messages currently stored in shard `shard`'s WAL.
    pub fn depth(&self, env: &CloudEnv, shard: u32) -> usize {
        env.sqs().peek_depth(self.wal_url(shard))
    }

    /// Instrumentation: messages currently stored across all shard WALs —
    /// zero means the commit plane is fully quiescent.
    pub fn total_depth(&self, env: &CloudEnv) -> usize {
        self.urls.iter().map(|u| env.sqs().peek_depth(u)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::AwsProfile;
    use cloudprov_sim::Sim;

    fn router(shards: u32) -> (CloudEnv, ShardRouter) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let r = ShardRouter::provision(&env, shards);
        (env, r)
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let (_env, r) = router(8);
        for c in 0..100 {
            let name = format!("client-{c}");
            let s = r.shard_for(&name);
            assert!(s < 8);
            assert_eq!(s, r.shard_for(&name), "same client, same shard");
        }
    }

    #[test]
    fn placement_is_reasonably_balanced() {
        let (_env, r) = router(8);
        let mut counts = [0usize; 8];
        for c in 0..4000 {
            counts[r.shard_for(&format!("client-{c}")) as usize] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        // Perfect balance is 500 per shard; the ring should stay within
        // a factor of ~2 of it.
        assert!(min > 250, "counts {counts:?}");
        assert!(max < 1000, "counts {counts:?}");
    }

    #[test]
    fn growing_the_ring_moves_few_clients() {
        let (_env, small) = router(8);
        let (_env2, big) = router(9);
        let moved = (0..4000)
            .filter(|c| {
                let name = format!("client-{c}");
                small.shard_for(&name) != big.shard_for(&name)
            })
            .count();
        // Consistent hashing: going 8 → 9 shards should remap roughly
        // 1/9 of clients (~444 of 4000), not all of them. Allow slack.
        assert!(moved < 1000, "moved {moved} of 4000");
        assert!(moved > 100, "suspiciously static: moved {moved}");
    }

    #[test]
    fn queues_are_provisioned() {
        let (env, r) = router(3);
        for s in 0..3 {
            // A send succeeds only on an existing queue.
            env.sqs()
                .send(r.wal_url(s), bytes::Bytes::from_static(b"x"))
                .unwrap();
        }
        assert_eq!(r.total_depth(&env), 3);
        assert_eq!(r.depth(&env, 0) + r.depth(&env, 1) + r.depth(&env, 2), 3);
    }
}
