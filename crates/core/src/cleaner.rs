//! The cleaner daemon: P3's second background job (§4.3.3: "We use a
//! cleaner daemon to remove temporary objects that have not been
//! accessed for 4 days").
//!
//! A temp object outlives its transaction only when the client crashed
//! before logging every packet. [`CleanerDaemon::sweep_once`] lists the
//! temp prefix **once** and deletes what is past retention. One client
//! sweeps with one partition, inline; a fleet's temp namespace is wide
//! enough that the deletes want spreading, so a fleet sweeps with one
//! partition per shard: the expired keys are hash-partitioned and each
//! partition is deleted on its own simulated thread, so LIST cost scales
//! with keys, not keys × partitions.

use std::collections::BTreeSet;

use cloudprov_cloud::{fnv1a64_mixed, quote_literal, Actor, CloudEnv, RETENTION, SELECT_IN_LIMIT};

use crate::error::Result;
use crate::index as prov_index;
use crate::plane::{run_tasks, DataPlane};
use crate::protocol::{retry, ProtocolConfig};

/// The cleaner daemon, billed to [`Actor::CleanerDaemon`].
#[derive(Clone, Debug)]
pub struct CleanerDaemon {
    plane: DataPlane,
    partitions: u32,
}

impl CleanerDaemon {
    /// A cleaner with the paper's 4-day window whose sweeps delete over
    /// `partitions` hash partitions (1: inline, in listing order).
    pub fn new(env: &CloudEnv, config: ProtocolConfig, partitions: u32) -> CleanerDaemon {
        assert!(partitions >= 1, "a cleaner needs at least one partition");
        CleanerDaemon {
            plane: DataPlane::new(env, config, Actor::CleanerDaemon),
            partitions,
        }
    }

    /// The partition `name` hashes into (the shard router's hash).
    fn partition_of(&self, name: &str) -> usize {
        (fnv1a64_mixed(name.as_bytes()) % u64::from(self.partitions)) as usize
    }

    /// Runs `work` over `names`: inline with one partition, otherwise
    /// each partition on its own simulated thread. Returns how many
    /// names `work` handled.
    fn fan_out(
        &self,
        names: impl IntoIterator<Item = String>,
        work: impl Fn(&DataPlane, &str) -> Result<()> + Clone + Send + 'static,
    ) -> Result<usize> {
        let n = self.partitions as usize;
        let mut partitions: Vec<Vec<String>> = vec![Vec::new(); n];
        for name in names {
            partitions[self.partition_of(&name)].push(name);
        }
        let tasks: Vec<_> = partitions
            .into_iter()
            .map(|names| {
                let (plane, work) = (self.plane.clone(), work.clone());
                move || -> Result<usize> {
                    for name in &names {
                        work(&plane, name)?;
                    }
                    Ok(names.len())
                }
            })
            .collect();
        let width = (n > 1).then_some(n);
        Ok(run_tasks(self.plane.env.sim(), width, tasks)?
            .into_iter()
            .sum())
    }

    /// One sweep: lists the temp prefix once and deletes every object
    /// older than the retention window, crossing the crash point
    /// `p3:clean:{key}` before each delete. Returns how many were
    /// reclaimed.
    ///
    /// # Errors
    ///
    /// Propagates the listing error, or the first failed delete.
    pub fn sweep_once(&self) -> Result<usize> {
        let DataPlane { env, config, s3 } = &self.plane;
        let layout = &config.layout;
        let keys = retry(env.sim(), || {
            s3.list_all(&layout.data_bucket, &layout.temp_prefix)
        })?;
        let now = env.sim().now();
        let expired = keys
            .into_iter()
            .filter(|k| now.saturating_duration_since(k.last_modified) > RETENTION)
            .map(|k| k.key);
        self.fan_out(expired, |plane, key| {
            plane.config.step(&format!("p3:clean:{key}"))?;
            plane.delete(key)
        })
    }

    /// One sweep of the **ancestry index** for garbage: index items none
    /// of whose referenced nodes exist in the base domain describe
    /// provenance that never committed (version-skewed daemons, manual
    /// surgery — normal operation cannot produce them, because a
    /// dependent's base item is written before its index entries in the
    /// same commit). Lists the index once, batch-checks the referenced
    /// ids against the base domain, and deletes fully-orphaned items over
    /// the partitions.
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
        let env = &self.plane.env;
        let sdb = env.sdb().with_actor(Actor::CleanerDaemon);
        let layout = &self.plane.config.layout;
        let idx_domain = prov_index::index_domain(&layout.domain);
        let items = retry(env.sim(), || {
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
        for chunk in ids.chunks(SELECT_IN_LIMIT) {
            let list = chunk
                .iter()
                .map(|i| quote_literal(i))
                .collect::<Vec<_>>()
                .join(", ");
            let found = retry(env.sim(), || {
                sdb.select_all(&format!(
                    "select itemName() from {} where itemName() in ({list})",
                    layout.domain
                ))
            })?;
            existing.extend(found.into_iter().map(|i| i.name));
        }
        // An item is garbage when it references nodes yet none exist.
        let garbage = per_item
            .into_iter()
            .filter(|(_, ids)| !ids.is_empty() && !ids.iter().any(|i| existing.contains(i)))
            .map(|(name, _)| name);
        self.fan_out(garbage, move |plane, name| {
            let sdb = plane.env.sdb().with_actor(Actor::CleanerDaemon);
            retry(plane.env.sim(), || sdb.delete_item(&idx_domain, name))?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use cloudprov_cloud::{AwsProfile, Blob, Metadata};
    use cloudprov_sim::Sim;

    #[test]
    fn partitions_cover_every_key_exactly_once() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let cleaner = CleanerDaemon::new(&env, ProtocolConfig::default(), 4);
        let mut used = BTreeSet::new();
        for k in 0..100 {
            let key = format!("tmp/{k}");
            let partition = cleaner.partition_of(&key);
            assert!(partition < 4, "key {key} fell outside the partitions");
            used.insert(partition);
        }
        assert_eq!(used.len(), 4, "the hash spreads keys over every partition");
    }

    #[test]
    fn index_sweep_reaps_only_unbacked_items() {
        use crate::{FlushBatch, Protocol, ProvenanceClient, StorageProtocol};
        use cloudprov_pass::{Attr, FlushNode, NodeKind, PNodeId, ProvenanceRecord, Uuid};
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        // A real commit: base items + index entries (stays).
        let client = ProvenanceClient::builder(Protocol::P3)
            .queue("wal-idxsweep")
            .build(&env);
        let id = PNodeId::initial(Uuid(60));
        let blob = Blob::from("x");
        let obj = crate::FlushObject::file(
            FlushNode {
                id,
                kind: NodeKind::File,
                name: Some("/kept".into()),
                records: vec![
                    ProvenanceRecord::new(id, Attr::Type, "file"),
                    ProvenanceRecord::new(id, Attr::Input, PNodeId::initial(Uuid(61))),
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
        let ghost = PNodeId::initial(Uuid(999));
        env.sdb()
            .put_attributes(
                &idx_domain,
                cloudprov_cloud::PutItem {
                    name: format!("rev_{}~0", PNodeId::initial(Uuid(998))),
                    attrs: vec![(prov_index::ATTR_OUT.into(), ghost.to_string())],
                    replace: false,
                },
            )
            .unwrap();
        let cleaner = CleanerDaemon::new(&env, ProtocolConfig::default(), 4);
        assert_eq!(cleaner.sweep_index_once().unwrap(), 1, "only the ghost");
        assert_eq!(env.sdb().peek_item_count(&idx_domain), live_items);
        // And the surviving index still matches the base exactly.
        let audit = prov_index::audit_index(&env, &crate::Layout::default());
        assert!(audit.consistent(), "{audit:?}");
        // A second sweep finds nothing.
        assert_eq!(cleaner.sweep_index_once().unwrap(), 0);
    }

    /// Plants `ages.len()` temp objects, key `i` aged `ages[i]` steps of
    /// half the retention window (plus a minute), and sweeps them over
    /// `partitions`. Returns the keys left, the reaped count and the
    /// cleaner's bill: LISTs, DELETEs and all its ops.
    fn sweep_world(ages: &[u32], partitions: u32) -> (BTreeSet<String>, usize, [u64; 3]) {
        use cloudprov_cloud::{Op, Service};
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let step = RETENTION / 2 + Duration::from_secs(60);
        for age in (0..=2).rev() {
            for (i, _) in ages.iter().enumerate().filter(|(_, a)| **a == age) {
                let key = format!("tmp/orphan-{i}");
                env.s3()
                    .put("data", &key, Blob::from("x"), Metadata::new())
                    .unwrap();
            }
            if age > 0 {
                sim.sleep(step);
            }
        }
        let reaped = CleanerDaemon::new(&env, ProtocolConfig::default(), partitions)
            .sweep_once()
            .unwrap();
        let usage = env.usage();
        let bill = |op| {
            usage
                .get(Actor::CleanerDaemon, Service::ObjectStore, op)
                .count
        };
        let ops = usage.total_ops(|a, _, _| a == Actor::CleanerDaemon);
        let left = env.s3().list_all("data", "tmp/").unwrap();
        let left = left.into_iter().map(|k| k.key).collect();
        (left, reaped, [bill(Op::List), bill(Op::Delete), ops])
    }

    #[test]
    fn partitioned_sweeps_reap_exactly_what_the_inline_sweep_does() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(0..48usize);
            // 0: fresh; 1: half the retention window (kept); 2: past it.
            let ages: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3u32)).collect();
            let expected_left: BTreeSet<String> = (0..n)
                .filter(|&i| ages[i] < 2)
                .map(|i| format!("tmp/orphan-{i}"))
                .collect();
            let expired = n - expected_left.len();
            for partitions in [1, 2, 4, 8] {
                let (left, reaped, [lists, deletes, ops]) = sweep_world(&ages, partitions);
                let ctx = format!("seed {seed}, {partitions} partition(s)");
                assert_eq!(left, expected_left, "{ctx}: survivors");
                assert_eq!(reaped, expired, "{ctx}: reaped count");
                assert_eq!(lists, 1, "{ctx}: one LIST");
                assert_eq!(deletes, expired as u64, "{ctx}: one DELETE per reaped key");
                assert_eq!(ops, 1 + expired as u64, "{ctx}: nothing else billed");
            }
        }
    }

    #[test]
    fn sharded_sweep_reaps_only_expired_orphans() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
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
        sim.sleep(RETENTION + Duration::from_secs(60));
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
        let cleaner = CleanerDaemon::new(&env, ProtocolConfig::default(), 4);
        assert_eq!(cleaner.sweep_once().unwrap(), 20);
        assert_eq!(env.s3().peek_count("data", "tmp/"), 5, "fresh temps stay");
        // A second sweep finds nothing new.
        assert_eq!(cleaner.sweep_once().unwrap(), 0);
    }
}
