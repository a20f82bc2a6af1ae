//! [`ShardedCleaners`]: the cleaner daemon, partitioned for fleet scale.
//!
//! P3's cleaner (§4.3.3) reaps temporary objects whose transactions died
//! before completing. One cleaner listing the whole temp prefix is fine
//! for one client; a fleet's temp namespace is wide enough that the
//! sweep itself becomes the bottleneck. The sharded variant partitions
//! the work by key hash: [`ShardedCleaners::sweep_once`] lists the
//! prefix **once** and fans the expired keys out to M parallel delete
//! workers, so LIST cost scales with keys — not keys × shards — while
//! the deletes (the bulk of a big sweep) parallelize M-wide.

use std::collections::BTreeSet;
use std::time::Duration;

use cloudprov_cloud::{quote_literal, Actor, CloudEnv};
use cloudprov_core::{index as prov_index, ProtocolConfig, Result};

use crate::router::fnv64;

/// A set of hash-partitioned cleaner daemons.
#[derive(Clone, Debug)]
pub struct ShardedCleaners {
    env: CloudEnv,
    config: ProtocolConfig,
    shards: u32,
    max_age: Duration,
}

impl ShardedCleaners {
    /// Creates `shards` partitioned cleaners with the paper's 4-day
    /// reclamation window.
    pub fn new(env: &CloudEnv, config: ProtocolConfig, shards: u32) -> ShardedCleaners {
        assert!(shards >= 1);
        ShardedCleaners {
            env: env.clone(),
            config,
            shards,
            max_age: cloudprov_cloud::RETENTION,
        }
    }

    /// Overrides the reclamation age (tests).
    pub fn with_max_age(mut self, max_age: Duration) -> ShardedCleaners {
        self.max_age = max_age;
        self
    }

    /// The partition `name` hashes into.
    fn partition_of(&self, name: &str) -> usize {
        (fnv64(name.as_bytes()) % u64::from(self.shards)) as usize
    }

    /// One full sweep: lists the temp prefix once, partitions the
    /// expired keys by hash, and deletes each partition on its own
    /// simulated thread. Returns the total number of reclaimed temp
    /// objects.
    ///
    /// # Errors
    ///
    /// Propagates the listing error, or the first partition's delete
    /// error.
    pub fn sweep_once(&self) -> Result<usize> {
        let s3 = self.env.s3().with_actor(Actor::CleanerDaemon);
        let layout = &self.config.layout;
        let keys = cloudprov_core::retry_cloud(self.env.sim(), self.config.retries, || {
            s3.list_all(&layout.data_bucket, &layout.temp_prefix)
        })?;
        let now = self.env.sim().now();
        let mut partitions: Vec<Vec<String>> = vec![Vec::new(); self.shards as usize];
        for k in keys {
            if now.saturating_duration_since(k.last_modified) > self.max_age {
                partitions[self.partition_of(&k.key)].push(k.key);
            }
        }
        let tasks: Vec<_> = partitions
            .into_iter()
            .map(|keys| {
                let this = self.clone();
                move || -> Result<usize> {
                    let s3 = this.env.s3().with_actor(Actor::CleanerDaemon);
                    for key in &keys {
                        cloudprov_core::retry_cloud(this.env.sim(), this.config.retries, || {
                            s3.delete(&this.config.layout.data_bucket, key)
                        })?;
                    }
                    Ok(keys.len())
                }
            })
            .collect();
        let results = self.env.sim().run_parallel(self.shards as usize, tasks);
        let mut total = 0;
        for r in results {
            total += r?;
        }
        Ok(total)
    }

    /// One sweep of the **ancestry index** for garbage: index items none
    /// of whose referenced nodes exist in the base domain describe
    /// provenance that never committed (version-skewed daemons, manual
    /// surgery — normal operation cannot produce them, because a
    /// dependent's base item is written before its index entries in the
    /// same commit). Lists the index once, batch-checks the referenced
    /// ids against the base domain, and deletes fully-orphaned items on
    /// M parallel workers.
    ///
    /// Run after the commit plane quiesces: an item whose *ancestor* id
    /// is still uncommitted is expected (commit order across shards is
    /// free), so only items whose **dependent/process** ids are all
    /// absent — ids that a real commit would have written first — are
    /// reaped. Returns how many items were deleted.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors that survive retries.
    pub fn sweep_index_once(&self) -> Result<usize> {
        if !self.config.index {
            return Ok(0);
        }
        let sdb = self.env.sdb().with_actor(Actor::CleanerDaemon);
        let layout = &self.config.layout;
        let idx_domain = prov_index::index_domain(&layout.domain);
        let items = cloudprov_core::retry_cloud(self.env.sim(), self.config.retries, || {
            sdb.select_all(&format!("select * from {idx_domain}"))
        })?;
        // Which node ids does each index item stand on?
        let mut referenced: BTreeSet<String> = BTreeSet::new();
        let per_item: Vec<(String, Vec<String>)> = items
            .into_iter()
            .map(|item| {
                let ids: Vec<String> = item
                    .attrs
                    .iter()
                    .filter(|(a, _)| {
                        matches!(
                            a.as_str(),
                            prov_index::ATTR_OUT | prov_index::ATTR_FILE | prov_index::ATTR_PROC
                        )
                    })
                    .map(|(_, v)| v.clone())
                    .collect();
                referenced.extend(ids.iter().cloned());
                (item.name, ids)
            })
            .collect();
        // Batch-check existence in the base domain.
        let mut existing: BTreeSet<String> = BTreeSet::new();
        let ids: Vec<String> = referenced.into_iter().collect();
        for chunk in ids.chunks(20) {
            let list = chunk
                .iter()
                .map(|i| quote_literal(i))
                .collect::<Vec<_>>()
                .join(", ");
            let found = cloudprov_core::retry_cloud(self.env.sim(), self.config.retries, || {
                sdb.select_all(&format!(
                    "select itemName() from {} where itemName() in ({list})",
                    layout.domain
                ))
            })?;
            existing.extend(found.into_iter().map(|i| i.name));
        }
        // An item is garbage when it references nodes yet none exist.
        let mut partitions: Vec<Vec<String>> = vec![Vec::new(); self.shards as usize];
        for (name, ids) in per_item {
            if !ids.is_empty() && !ids.iter().any(|i| existing.contains(i)) {
                partitions[self.partition_of(&name)].push(name);
            }
        }
        let tasks: Vec<_> = partitions
            .into_iter()
            .map(|names| {
                let this = self.clone();
                let idx_domain = idx_domain.clone();
                move || -> Result<usize> {
                    let sdb = this.env.sdb().with_actor(Actor::CleanerDaemon);
                    for name in &names {
                        cloudprov_core::retry_cloud(this.env.sim(), this.config.retries, || {
                            sdb.delete_item(&idx_domain, name)
                        })?;
                    }
                    Ok(names.len())
                }
            })
            .collect();
        let results = self.env.sim().run_parallel(self.shards as usize, tasks);
        let mut total = 0;
        for r in results {
            total += r?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::{AwsProfile, Blob, Metadata};
    use cloudprov_sim::Sim;

    #[test]
    fn partitions_cover_every_key_exactly_once() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let cleaners = ShardedCleaners::new(&env, ProtocolConfig::default(), 4);
        let mut used = BTreeSet::new();
        for k in 0..100 {
            let key = format!("tmp/{k}");
            let partition = cleaners.partition_of(&key);
            assert!(partition < 4, "key {key} fell outside the partitions");
            used.insert(partition);
        }
        assert_eq!(used.len(), 4, "the hash spreads keys over every partition");
    }

    #[test]
    fn index_sweep_reaps_only_unbacked_items() {
        use cloudprov_core::{FlushBatch, Protocol, ProvenanceClient, StorageProtocol};
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        // A real commit: base items + index entries (stays).
        let client = ProvenanceClient::builder(Protocol::P3)
            .queue("wal-idxsweep")
            .build(&env);
        let id = cloudprov_pass::PNodeId::initial(cloudprov_pass::Uuid(60));
        let blob = Blob::from("x");
        let obj = cloudprov_core::FlushObject::file(
            cloudprov_pass::FlushNode {
                id,
                kind: cloudprov_pass::NodeKind::File,
                name: Some("/kept".into()),
                records: vec![
                    cloudprov_pass::ProvenanceRecord::new(id, cloudprov_pass::Attr::Type, "file"),
                    cloudprov_pass::ProvenanceRecord::new(
                        id,
                        cloudprov_pass::Attr::Input,
                        cloudprov_pass::PNodeId::initial(cloudprov_pass::Uuid(61)),
                    ),
                ],
                data_hash: Some(blob.content_fingerprint()),
            },
            "kept",
            blob,
        );
        client.flush(FlushBatch { objects: vec![obj] }).unwrap();
        client.drain().unwrap();
        let idx_domain = prov_index::index_domain("provenance");
        let live_items = env.sdb().peek_item_count(&idx_domain);
        assert!(live_items > 0);
        // Plant garbage: an index item referencing nodes that never
        // committed (a half-applied write from a version-skewed daemon).
        let ghost = cloudprov_pass::PNodeId::initial(cloudprov_pass::Uuid(999));
        env.sdb()
            .put_attributes(
                &idx_domain,
                cloudprov_cloud::PutItem {
                    name: format!(
                        "rev_{}~0",
                        cloudprov_pass::PNodeId::initial(cloudprov_pass::Uuid(998))
                    ),
                    attrs: vec![(prov_index::ATTR_OUT.into(), ghost.to_string())],
                    replace: false,
                },
            )
            .unwrap();
        let cleaners = ShardedCleaners::new(&env, ProtocolConfig::default(), 4);
        assert_eq!(cleaners.sweep_index_once().unwrap(), 1, "only the ghost");
        assert_eq!(env.sdb().peek_item_count(&idx_domain), live_items);
        // And the surviving index still matches the base exactly.
        let audit = prov_index::audit_index(&env, &cloudprov_core::Layout::default());
        assert!(audit.consistent(), "{audit:?}");
        // A second sweep finds nothing.
        assert_eq!(cleaners.sweep_index_once().unwrap(), 0);
    }

    #[test]
    fn sharded_sweep_reaps_only_expired_orphans() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let config = ProtocolConfig::default();
        // Plant 20 orphaned temps now and 5 more later.
        for k in 0..20 {
            env.s3()
                .put(
                    "data",
                    &format!("tmp/orphan-{k}"),
                    Blob::from("x"),
                    Metadata::new(),
                )
                .unwrap();
        }
        sim.sleep(cloudprov_cloud::RETENTION + Duration::from_secs(60));
        for k in 0..5 {
            env.s3()
                .put(
                    "data",
                    &format!("tmp/fresh-{k}"),
                    Blob::from("y"),
                    Metadata::new(),
                )
                .unwrap();
        }
        let cleaners = ShardedCleaners::new(&env, config, 4);
        assert_eq!(cleaners.sweep_once().unwrap(), 20);
        assert_eq!(env.s3().peek_count("data", "tmp/"), 5, "fresh temps stay");
        // A second sweep finds nothing new.
        assert_eq!(cleaners.sweep_once().unwrap(), 0);
    }
}
