//! Protocol P1: standalone cloud store (§4.3.1).
//!
//! Both data and provenance live in S3. Each file maps to a primary S3
//! object; its provenance goes into a **separate** provenance object named
//! by the file's UUID (storing provenance as object *metadata* was
//! rejected: deletion would violate data-independent persistence and
//! metadata has hard size limits). The provenance object carries the
//! primary object's provenance plus one extra record naming the primary
//! object; the primary object's metadata carries the UUID and version,
//! linking the two.
//!
//! On flush: (1) PUT the provenance object (GET + append + PUT when it
//! already exists), then (2) PUT the data object with the linking
//! metadata. Non-persistent objects (processes, pipes) get only a
//! provenance object.
//!
//! Properties (Table 1): no data-coupling (but violations are detectable
//! via version/hash), eventual multi-object causal ordering (when
//! ancestors upload first), **no** efficient query — reading provenance
//! by attribute requires iterating every provenance object (§5.3).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use cloudprov_cloud::{Actor, Blob, CloudEnv, CloudError, Metadata};
use cloudprov_pass::wire;
use cloudprov_pass::{Attr, ProvenanceRecord, Uuid};

use crate::error::{ProtocolError, Result};
use crate::plane::{DataPlane, Task};
use crate::protocol::{
    retry, FlushBatch, FlushObject, ProtocolConfig, ProvenanceStore, ReadResult, StorageProtocol,
};

/// Protocol P1: provenance and data both as S3 objects.
#[derive(Clone, Debug)]
pub struct P1 {
    plane: DataPlane,
    /// Provenance bytes this client has already written per UUID. Serves
    /// two purposes: knowing whether the provenance object exists (GET +
    /// append vs fresh PUT) and guarding the append against an
    /// eventually-consistent GET returning a stale, shorter object.
    written: Arc<Mutex<BTreeMap<Uuid, usize>>>,
}

impl P1 {
    /// Creates the protocol over a cloud environment.
    pub fn new(env: &CloudEnv, config: ProtocolConfig) -> P1 {
        P1 {
            plane: DataPlane::new(env, config, Actor::Client),
            written: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Records P1 stores for a node: its pending records plus, for files,
    /// the extra record naming the primary S3 object (§4.3.1).
    fn object_records(obj: &FlushObject) -> Vec<ProvenanceRecord> {
        let mut records = obj.node.records.clone();
        if let Some(key) = &obj.key {
            records.push(ProvenanceRecord::new(
                obj.node.id,
                Attr::Custom("pobject".into()),
                key.as_str(),
            ));
        }
        records
    }

    /// Writes (or appends to) the object's provenance object.
    fn flush_prov(&self, obj: &FlushObject) -> Result<()> {
        let DataPlane { env, config, .. } = &self.plane;
        let sim = env.sim();
        let s3 = env.s3();
        let layout = &config.layout;
        let uuid = obj.node.id.uuid;
        let prov_key = layout.prov_key(uuid);
        let records = Self::object_records(obj);
        let fresh = wire::encode(&records);

        config.step(&format!("p1:prov:{}", obj.node.id))?;
        let existing_len = self.written.lock().get(&uuid).copied();
        let body = match existing_len {
            None => fresh.to_vec(),
            Some(known_len) => {
                // GET the existing object and append. An eventually
                // consistent GET can 404 or return a stale prefix; retry
                // until the object is at least as long as what we know we
                // wrote (we are its only writer).
                let mut existing = None;
                for _ in 0..config.retries.max(1) + 4 {
                    match retry(sim, config.retries, || {
                        s3.get(&layout.prov_bucket, &prov_key)
                    }) {
                        Ok(obj) => {
                            let bytes = obj
                                .blob
                                .as_inline()
                                .expect("provenance objects are inline")
                                .to_vec();
                            if bytes.len() >= known_len {
                                existing = Some(bytes);
                                break;
                            }
                        }
                        Err(CloudError::NoSuchKey { .. }) => {}
                        Err(e) => return Err(e.into()),
                    }
                    sim.sleep(std::time::Duration::from_millis(500));
                }
                let mut bytes = existing.ok_or_else(|| {
                    ProtocolError::CommitStalled(format!(
                        "provenance object {prov_key} never became visible for append"
                    ))
                })?;
                bytes.extend_from_slice(&fresh);
                bytes
            }
        };
        let body_len = body.len();
        retry(sim, config.retries, || {
            s3.put(
                &layout.prov_bucket,
                &prov_key,
                Blob::from(body.clone()),
                Metadata::new(),
            )
        })?;
        self.written.lock().insert(uuid, body_len);
        Ok(())
    }

    /// The PUT of the primary data object with its provenance-linking
    /// metadata (`None` for non-persistent objects: processes, pipes).
    fn data_put(&self, obj: &FlushObject) -> Option<Task> {
        let (key, data) = obj.key.clone().zip(obj.data.clone())?;
        Some(
            self.plane
                .put_task("p1:data:", key, data, Some(obj.node.id)),
        )
    }
}

impl StorageProtocol for P1 {
    fn name(&self) -> &'static str {
        "P1"
    }

    fn flush(&self, batch: FlushBatch) -> Result<()> {
        if self.plane.config.strict_causal_order {
            // Ancestors strictly first, each object's provenance before
            // its data: eventual multi-object causal ordering holds, at
            // higher latency (§4.3.1 discussion).
            for obj in &batch.objects {
                self.flush_prov(obj)?;
                if let Some(put) = self.data_put(obj) {
                    put()?;
                }
            }
            return Ok(());
        }
        // The paper's evaluated implementation: data objects, provenance
        // and ancestors upload in parallel (forfeiting multi-object
        // causal ordering and data-coupling for P1). Appends to the same
        // provenance object stay ordered by chaining versions of one
        // UUID into a single task.
        let data_puts: Vec<Task> = batch
            .objects
            .iter()
            .filter_map(|o| self.data_put(o))
            .collect();
        let mut chains: BTreeMap<Uuid, Vec<FlushObject>> = BTreeMap::new();
        for obj in batch.objects {
            chains.entry(obj.node.id.uuid).or_default().push(obj);
        }
        let mut tasks: Vec<Task> = Vec::new();
        for chain in chains.into_values() {
            let this = self.clone();
            tasks.push(Box::new(move || {
                chain.iter().try_for_each(|obj| this.flush_prov(obj))
            }));
        }
        tasks.extend(data_puts);
        self.plane.upload(false, tasks)
    }

    fn read(&self, key: &str) -> Result<ReadResult> {
        let DataPlane { env, config, .. } = &self.plane;
        let layout = &config.layout;
        self.plane.read(key, |id| {
            match retry(env.sim(), config.retries, || {
                env.s3().get(&layout.prov_bucket, &layout.prov_key(id.uuid))
            }) {
                Ok(prov) => Ok(
                    wire::decode(prov.blob.as_inline().expect("inline provenance"))?
                        .into_iter()
                        .filter(|r| r.subject == id)
                        .collect(),
                ),
                Err(CloudError::NoSuchKey { .. }) => Ok(Vec::new()),
                Err(e) => Err(e.into()),
            }
        })
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.plane.delete(key)
    }

    fn stat(&self, key: &str) -> Result<Option<u64>> {
        self.plane.stat(key)
    }

    fn provenance_store(&self) -> Option<ProvenanceStore> {
        Some(ProvenanceStore::S3Objects {
            bucket: self.plane.config.layout.prov_bucket.clone(),
            prefix: self.plane.config.layout.prov_prefix.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CouplingCheck;
    use cloudprov_cloud::AwsProfile;
    use cloudprov_pass::{FlushNode, NodeKind, PNodeId};
    use cloudprov_sim::Sim;

    fn setup() -> (Sim, CloudEnv, P1) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p1 = P1::new(&env, ProtocolConfig::default());
        (sim, env, p1)
    }

    fn file_obj(uuid: u128, version: u32, key: &str, data: &str) -> FlushObject {
        let id = PNodeId {
            uuid: Uuid(uuid),
            version,
        };
        let blob = Blob::from(data);
        let records = vec![
            ProvenanceRecord::new(id, Attr::Type, "file"),
            ProvenanceRecord::new(id, Attr::Name, key),
            ProvenanceRecord::new(
                id,
                Attr::DataHash,
                format!("{:016x}", blob.content_fingerprint()),
            ),
        ];
        FlushObject::file(
            FlushNode {
                id,
                kind: NodeKind::File,
                name: Some(key.to_string()),
                records,
                data_hash: Some(blob.content_fingerprint()),
            },
            key,
            blob,
        )
    }

    fn proc_obj(uuid: u128) -> FlushObject {
        let id = PNodeId::initial(Uuid(uuid));
        FlushObject::provenance_only(FlushNode {
            id,
            kind: NodeKind::Process,
            name: Some("proc".into()),
            records: vec![
                ProvenanceRecord::new(id, Attr::Type, "process"),
                ProvenanceRecord::new(id, Attr::Name, "proc"),
            ],
            data_hash: None,
        })
    }

    #[test]
    fn flush_then_read_is_coupled() {
        let (_sim, _env, p1) = setup();
        p1.flush(FlushBatch {
            objects: vec![proc_obj(1), file_obj(2, 1, "out.txt", "payload")],
        })
        .unwrap();
        let r = p1.read("out.txt").unwrap();
        assert_eq!(r.data, Blob::from("payload"));
        assert_eq!(r.coupling, CouplingCheck::Coupled);
        assert_eq!(r.id.unwrap().uuid, Uuid(2));
    }

    #[test]
    fn provenance_object_separate_from_primary() {
        let (_sim, env, p1) = setup();
        p1.flush(FlushBatch {
            objects: vec![file_obj(7, 1, "f", "x")],
        })
        .unwrap();
        let layout = &ProtocolConfig::default().layout;
        // Primary object in the data bucket, provenance in the prov bucket.
        assert!(env.s3().peek_committed("data", "f").is_some());
        let prov = env
            .s3()
            .peek_committed("prov", &layout.prov_key(Uuid(7)))
            .expect("provenance object must exist");
        let records = wire::decode(prov.blob.as_inline().unwrap()).unwrap();
        // Includes the pobject record naming the primary object.
        assert!(records
            .iter()
            .any(|r| r.attr == Attr::Custom("pobject".into()) && r.value.to_text() == "f"));
    }

    #[test]
    fn processes_store_provenance_without_primary_object() {
        let (_sim, env, p1) = setup();
        p1.flush(FlushBatch {
            objects: vec![proc_obj(9)],
        })
        .unwrap();
        assert_eq!(env.s3().peek_count("data", ""), 0);
        assert_eq!(env.s3().peek_count("prov", ""), 1);
    }

    #[test]
    fn append_on_second_flush_of_same_object() {
        let (_sim, env, p1) = setup();
        p1.flush(FlushBatch {
            objects: vec![file_obj(3, 1, "f", "v1")],
        })
        .unwrap();
        p1.flush(FlushBatch {
            objects: vec![file_obj(3, 2, "f", "v2")],
        })
        .unwrap();
        let layout = &ProtocolConfig::default().layout;
        let prov = env
            .s3()
            .peek_committed("prov", &layout.prov_key(Uuid(3)))
            .unwrap();
        let records = wire::decode(prov.blob.as_inline().unwrap()).unwrap();
        let versions: std::collections::BTreeSet<u32> =
            records.iter().map(|r| r.subject.version).collect();
        assert!(
            versions.contains(&1) && versions.contains(&2),
            "both versions' provenance must be in the object"
        );
    }

    #[test]
    fn delete_keeps_provenance() {
        let (_sim, env, p1) = setup();
        p1.flush(FlushBatch {
            objects: vec![file_obj(4, 1, "f", "x")],
        })
        .unwrap();
        p1.delete("f").unwrap();
        assert!(env.s3().peek_committed("data", "f").is_none());
        assert_eq!(env.s3().peek_count("prov", ""), 1, "provenance persists");
    }

    #[test]
    fn crash_between_prov_and_data_leaves_detectable_decoupling() {
        let (sim, env, _) = setup();
        let cfg = ProtocolConfig {
            step_hook: Some(Arc::new(|step: &str| !step.starts_with("p1:data:"))),
            ..ProtocolConfig::default()
        };
        let p1 = P1::new(&env, cfg);
        let err = p1
            .flush(FlushBatch {
                objects: vec![file_obj(5, 1, "f", "x")],
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Crashed { .. }));
        // Provenance written, data never arrived: DETECTABLE as missing
        // data; a later writer without provenance would be detectable as
        // missing provenance.
        assert_eq!(env.s3().peek_count("prov", ""), 1);
        assert!(env.s3().peek_committed("data", "f").is_none());
        drop(sim);
    }

    #[test]
    fn hash_mismatch_detected_when_data_overwritten_without_provenance() {
        let (_sim, env, p1) = setup();
        p1.flush(FlushBatch {
            objects: vec![file_obj(6, 1, "f", "original")],
        })
        .unwrap();
        // A rogue/plain client overwrites the data, keeping the metadata.
        let meta = env.s3().peek_committed("data", "f").unwrap().meta;
        env.s3()
            .put("data", "f", Blob::from("tampered"), meta)
            .unwrap();
        let r = p1.read("f").unwrap();
        assert_eq!(r.coupling, CouplingCheck::HashMismatch);
    }

    #[test]
    fn strict_order_uploads_ancestors_first() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let seen = order.clone();
        let mut cfg = ProtocolConfig {
            strict_causal_order: true,
            ..ProtocolConfig::default()
        };
        cfg.step_hook = Some(Arc::new(move |step: &str| {
            seen.lock().push(step.to_string());
            true
        }));
        let p1 = P1::new(&env, cfg);
        p1.flush(FlushBatch {
            objects: vec![proc_obj(1), file_obj(2, 1, "out", "x")],
        })
        .unwrap();
        let steps = order.lock().clone();
        let anc = steps.iter().position(|s| s.contains(&Uuid(1).to_string()));
        let desc = steps.iter().position(|s| s.contains(&Uuid(2).to_string()));
        assert!(anc.unwrap() < desc.unwrap(), "ancestor persisted first");
    }

    #[test]
    fn provenance_store_is_s3() {
        let (_sim, _env, p1) = setup();
        assert!(matches!(
            p1.provenance_store(),
            Some(ProvenanceStore::S3Objects { .. })
        ));
        assert!(!p1.supports_efficient_query());
    }
}
