//! Protocol P2: cloud store + cloud database (§4.3.2).
//!
//! Data objects live in S3 exactly as in P1; provenance goes into SimpleDB
//! with **one item per object version**, named `uuid_version` — so users
//! can tell which version provenance belongs to. Values above SimpleDB's
//! 1 KB attribute limit (think process environments) spill into separate
//! S3 objects referenced from the item.
//!
//! On flush: (1) spill oversized values, (2) store items via
//! `BatchPutAttributes` (≤25 items per call), (3) PUT the data object with
//! the UUID+version metadata.
//!
//! Properties (Table 1): still no data-coupling (detectable, as P1), but
//! **efficient query** — SimpleDB indexes every attribute, which is what
//! produces the order-of-magnitude query speedups of Table 5.

use cloudprov_cloud::{Actor, CloudEnv, PutItem, BATCH_LIMIT};

use crate::error::Result;
use crate::plane::{run_tasks, DataPlane};
use crate::protocol::{
    db_version_records, records_to_item, retry, FlushBatch, ProtocolConfig, ProvenanceStore,
    ReadResult, StorageProtocol,
};

/// Protocol P2: data in S3, provenance in SimpleDB.
#[derive(Clone, Debug)]
pub struct P2 {
    plane: DataPlane,
}

impl P2 {
    /// Creates the protocol, provisioning the SimpleDB domain.
    pub fn new(env: &CloudEnv, config: ProtocolConfig) -> P2 {
        env.sdb().create_domain(&config.layout.domain);
        P2 {
            plane: DataPlane::new(env, config, Actor::Client),
        }
    }

    /// Builds the batch's SimpleDB items, spilling oversized values —
    /// one unit of work per object, in ancestor order when `strict`,
    /// over the object-store pool otherwise.
    fn build_items(&self, batch: &FlushBatch, strict: bool) -> Result<Vec<PutItem>> {
        let tasks: Vec<_> = batch
            .objects
            .iter()
            .filter(|o| !o.node.records.is_empty())
            .map(|o| (o.node.id, o.node.records.clone()))
            .map(|(id, records)| {
                let plane = self.plane.clone();
                move || -> Result<PutItem> {
                    plane.config.step(&format!("p2:spill:{id}"))?;
                    records_to_item(&plane, id, &records)
                }
            })
            .collect();
        let width = (!strict).then_some(self.plane.config.upload_concurrency);
        run_tasks(self.plane.env.sim(), width, tasks)
    }

    /// PUTs the batch's data objects with their version-link metadata.
    fn put_data(&self, batch: &FlushBatch, strict: bool) -> Result<()> {
        let tasks = batch
            .objects
            .iter()
            .filter_map(|o| Some((o.key.clone()?, o.data.clone()?, o.node.id)))
            .map(|(key, data, id)| self.plane.put_task("p2:data:", key, data, Some(id)))
            .collect();
        self.plane.upload(strict, tasks)
    }

    /// The provenance half of a flush: build the items, then store them
    /// — one item per call in ancestor order when `strict`, else as
    /// `BatchPutAttributes` chunks over the database pool.
    fn flush_provenance(&self, batch: &FlushBatch, strict: bool) -> Result<()> {
        let DataPlane { env, config, .. } = &self.plane;
        let items = self.build_items(batch, strict)?;
        let per_call = if strict {
            1
        } else {
            config.db_batch.clamp(1, BATCH_LIMIT)
        };
        let tasks: Vec<_> = items
            .chunks(per_call)
            .map(|chunk| {
                let DataPlane { env, config, .. } = self.plane.clone();
                let chunk = chunk.to_vec();
                move || -> Result<()> {
                    config.step("p2:dbput")?;
                    let domain = &config.layout.domain;
                    retry(env.sim(), config.retries, || {
                        env.sdb().batch_put_attributes(domain, chunk.clone())
                    })?;
                    Ok(())
                }
            })
            .collect();
        let width = (!strict).then_some(config.db_concurrency);
        run_tasks(env.sim(), width, tasks).map(drop)
    }
}

impl StorageProtocol for P2 {
    fn name(&self) -> &'static str {
        "P2"
    }

    fn flush(&self, batch: FlushBatch) -> Result<()> {
        if self.plane.config.strict_causal_order {
            // Provenance strictly before the data it describes.
            self.flush_provenance(&batch, true)?;
            return self.put_data(&batch, true);
        }
        // The paper's evaluated implementation uploads data objects,
        // provenance and ancestors in parallel (§5): the provenance
        // pipeline (spill, then batched SimpleDB writes over the small
        // database pool) runs concurrently with the data PUTs.
        let this = self.clone();
        let prov_batch = batch.clone();
        let provenance = self
            .plane
            .env
            .sim()
            .spawn(move || this.flush_provenance(&prov_batch, false));
        let data_result = self.put_data(&batch, false);
        provenance.join()?;
        data_result
    }

    fn read(&self, key: &str) -> Result<ReadResult> {
        // §4.3.2: detect mismatches by comparing the S3 version with the
        // provenance version.
        self.plane
            .read(key, |id| db_version_records(&self.plane, id))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.plane.delete(key)
    }

    fn stat(&self, key: &str) -> Result<Option<u64>> {
        self.plane.stat(key)
    }

    fn provenance_store(&self) -> Option<ProvenanceStore> {
        Some(ProvenanceStore::Database {
            domain: self.plane.config.layout.domain.clone(),
            spill_bucket: self.plane.config.layout.prov_bucket.clone(),
            // P2 writes items from the client with no commit daemon in
            // the path, so nothing maintains an ancestry index for it.
            index_domain: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::{AwsProfile, Blob};
    use cloudprov_pass::{Attr, FlushNode, NodeKind, PNodeId, ProvenanceRecord, Uuid};
    use cloudprov_sim::Sim;
    use std::sync::Arc;

    use crate::protocol::{CouplingCheck, FlushObject};

    fn setup() -> (Sim, CloudEnv, P2) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p2 = P2::new(&env, ProtocolConfig::default());
        (sim, env, p2)
    }

    fn file_obj(uuid: u128, version: u32, key: &str, data: &str) -> FlushObject {
        let id = PNodeId {
            uuid: Uuid(uuid),
            version,
        };
        let blob = Blob::from(data);
        FlushObject::file(
            FlushNode {
                id,
                kind: NodeKind::File,
                name: Some(key.to_string()),
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
    fn one_item_per_version_layout() {
        let (_sim, env, p2) = setup();
        p2.flush(FlushBatch {
            objects: vec![file_obj(1, 1, "foo", "a")],
        })
        .unwrap();
        p2.flush(FlushBatch {
            objects: vec![file_obj(1, 2, "foo", "b")],
        })
        .unwrap();
        let v1 = format!("{}_1", Uuid(1));
        let v2 = format!("{}_2", Uuid(1));
        assert!(env.sdb().peek_item("provenance", &v1).is_some());
        assert!(env.sdb().peek_item("provenance", &v2).is_some());
    }

    #[test]
    fn flush_then_read_is_coupled() {
        let (_sim, _env, p2) = setup();
        p2.flush(FlushBatch {
            objects: vec![file_obj(2, 1, "out", "payload")],
        })
        .unwrap();
        let r = p2.read("out").unwrap();
        assert_eq!(r.coupling, CouplingCheck::Coupled);
    }

    #[test]
    fn name_attribute_allows_reverse_lookup() {
        // §4.3.2: "The name attribute allows us to find an object from its
        // provenance."
        let (_sim, env, p2) = setup();
        p2.flush(FlushBatch {
            objects: vec![file_obj(3, 1, "data/report.csv", "x")],
        })
        .unwrap();
        let hits = env
            .sdb()
            .select_all("select * from provenance where name = 'data/report.csv'")
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, format!("{}_1", Uuid(3)));
    }

    #[test]
    fn oversized_values_spill_and_are_referenced() {
        let (_sim, env, p2) = setup();
        let id = PNodeId::initial(Uuid(4));
        let env_value = "PATH=/usr/bin\n".repeat(200); // ~2.8 KB
        let obj = FlushObject::provenance_only(FlushNode {
            id,
            kind: NodeKind::Process,
            name: Some("blast".into()),
            records: vec![
                ProvenanceRecord::new(id, Attr::Type, "process"),
                ProvenanceRecord::new(id, Attr::Env, env_value),
            ],
            data_hash: None,
        });
        p2.flush(FlushBatch { objects: vec![obj] }).unwrap();
        let item = env.sdb().peek_item("provenance", &id.to_string()).unwrap();
        let envattr = item.iter().find(|(k, _)| k == "env").unwrap();
        assert!(envattr.1.starts_with("@s3:"));
        assert!(env.s3().peek_count("prov", "xattr/") > 0);
    }

    #[test]
    fn batches_chunk_at_twenty_five() {
        let (_sim, env, p2) = setup();
        let objects: Vec<_> = (0..60)
            .map(|i| file_obj(100 + i as u128, 1, &format!("f{i}"), "x"))
            .collect();
        p2.flush(FlushBatch { objects }).unwrap();
        let usage = env.usage();
        let dbputs = usage.get(
            cloudprov_cloud::Actor::Client,
            cloudprov_cloud::Service::Database,
            cloudprov_cloud::Op::DbPut,
        );
        assert_eq!(dbputs.count, 3, "60 items => 25+25+10 => 3 batch calls");
        assert_eq!(env.sdb().peek_item_count("provenance"), 60);
    }

    #[test]
    fn crash_between_provenance_and_data_is_detectable() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let cfg = ProtocolConfig {
            step_hook: Some(Arc::new(|step: &str| !step.starts_with("p2:data:"))),
            ..ProtocolConfig::default()
        };
        let p2 = P2::new(&env, cfg);
        let err = p2
            .flush(FlushBatch {
                objects: vec![file_obj(5, 1, "f", "x")],
            })
            .unwrap_err();
        assert!(matches!(err, crate::error::ProtocolError::Crashed { .. }));
        // Provenance is in SimpleDB but the data never made it.
        assert_eq!(env.sdb().peek_item_count("provenance"), 1);
        assert!(env.s3().peek_committed("data", "f").is_none());
    }

    #[test]
    fn stale_provenance_is_flagged_as_missing() {
        // Crash AFTER data but BEFORE provenance: version 2 data with only
        // version 1 provenance — the coupling check must catch it.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p2 = P2::new(&env, ProtocolConfig::default());
        p2.flush(FlushBatch {
            objects: vec![file_obj(6, 1, "f", "v1")],
        })
        .unwrap();
        // Simulate a client that wrote data v2 but died before SimpleDB.
        env.s3()
            .put(
                "data",
                "f",
                Blob::from("v2"),
                crate::layout::object_metadata(PNodeId {
                    uuid: Uuid(6),
                    version: 2,
                }),
            )
            .unwrap();
        let r = p2.read("f").unwrap();
        assert_eq!(r.coupling, CouplingCheck::ProvenanceMissing);
    }

    #[test]
    fn delete_keeps_provenance_items() {
        let (_sim, env, p2) = setup();
        p2.flush(FlushBatch {
            objects: vec![file_obj(7, 1, "f", "x")],
        })
        .unwrap();
        p2.delete("f").unwrap();
        assert!(env.s3().peek_committed("data", "f").is_none());
        assert_eq!(env.sdb().peek_item_count("provenance"), 1);
    }

    #[test]
    fn provenance_store_is_database_with_efficient_query() {
        let (_sim, _env, p2) = setup();
        assert!(matches!(
            p2.provenance_store(),
            Some(ProvenanceStore::Database { .. })
        ));
        assert!(p2.supports_efficient_query());
    }
}
