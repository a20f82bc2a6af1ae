//! The §5.1 microbenchmark upload tool.
//!
//! "We ran the Blast benchmark on an unmodified PASS system and captured
//! the provenance. We then built a tool that uploaded the data objects and
//! their provenance to the cloud using each protocol" — and, for the
//! baseline, just the data. Unlike the per-close PA-S3fs path, the tool
//! knows the whole corpus up front, so P2 batches items globally (25 per
//! call) and P3 ships everything as one large WAL transaction; this is
//! what reproduces Table 3's operation counts.

use std::collections::BTreeMap;
use std::time::Duration;

use cloudprov_cloud::{Blob, Metadata};
use cloudprov_core::{object_metadata, FlushBatch, FlushObject, StorageProtocol};
use cloudprov_pass::wire;
use cloudprov_pass::Uuid;
use cloudprov_workloads::OfflineRun;

use crate::common::{Rig, Which};

/// Outcome of one microbenchmark upload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UploadReport {
    /// Protocol used.
    pub which: Which,
    /// Client-side elapsed virtual time (excludes the commit daemon).
    pub elapsed: Duration,
    /// Client-side operations (Table 3; excludes the commit daemon).
    pub client_ops: u64,
    /// Client-side megabytes transferred (Table 3).
    pub mb_transferred: f64,
}

/// Uploads a captured run through the rig's protocol, mimicking the
/// paper's bulk tool. Returns the client-side report; P3's commit daemon
/// is drained afterwards (asynchronous, not in the elapsed time).
pub fn upload(rig: &Rig, run: &OfflineRun, concurrency: usize) -> UploadReport {
    let which = rig.client.protocol();
    let sim = rig.sim.clone();
    let t0 = sim.now();
    match which {
        Which::S3fs => {
            // Data objects only (files the workload wrote; read-only
            // inputs have no cloud object).
            let tasks: Vec<_> = run
                .files
                .iter()
                .filter(|f| f.written)
                .map(|f| {
                    let s3 = rig.env.s3().clone();
                    let key = f.path.trim_start_matches('/').to_string();
                    let blob = Blob::synthetic(f.size, f.fingerprint);
                    move || {
                        s3.put("data", &key, blob, Metadata::new()).expect("put");
                    }
                })
                .collect();
            sim.run_parallel(concurrency, tasks);
        }
        Which::P1 => {
            // One provenance object per UUID. Version chains of the same
            // object append: first version PUTs, later versions GET +
            // append + PUT, as §4.3.1 specifies. Parallel across UUIDs.
            let mut by_uuid: BTreeMap<Uuid, Vec<&cloudprov_pass::FlushNode>> = BTreeMap::new();
            for n in &run.nodes {
                by_uuid.entry(n.id.uuid).or_default().push(n);
            }
            let files: BTreeMap<String, (u64, u64)> = run
                .files
                .iter()
                .filter(|f| f.written)
                .map(|f| (f.path.clone(), (f.size, f.fingerprint)))
                .collect();
            // One data object per file: attach the payload to the FINAL
            // version node of each path.
            let last_node_of: BTreeMap<String, cloudprov_pass::PNodeId> = run
                .nodes
                .iter()
                .filter(|n| n.kind.is_persistent())
                .filter_map(|n| n.name.clone().map(|p| (p, n.id)))
                .collect();
            // A provenance chunk plus, for the node closing a file, that
            // file's upload info: (key, size, fingerprint, id).
            type FileUpload = (String, u64, u64, cloudprov_pass::PNodeId);
            let tasks: Vec<_> = by_uuid
                .into_iter()
                .map(|(uuid, nodes)| {
                    let s3 = rig.env.s3().clone();
                    let prov_key = format!("p/{uuid}");
                    let chunks: Vec<(Vec<u8>, Option<FileUpload>)> = nodes
                        .iter()
                        .map(|n| {
                            let bytes = wire::encode(&n.records).to_vec();
                            let file = n.name.as_ref().and_then(|name| {
                                let is_last = last_node_of.get(name) == Some(&n.id);
                                files.get(name).filter(|_| is_last).map(|(size, fp)| {
                                    (name.trim_start_matches('/').to_string(), *size, *fp, n.id)
                                })
                            });
                            (bytes, file)
                        })
                        .collect();
                    move || {
                        let mut first = true;
                        // The tool is this object's only writer, so it can
                        // guard the GET+append against eventually
                        // consistent (stale or missing) reads with its own
                        // accumulated copy.
                        let mut accumulated: Vec<u8> = Vec::new();
                        for (bytes, file) in chunks {
                            if !first {
                                // GET + append for later versions; fall
                                // back to the local copy on a stale read.
                                match s3.get("prov", &prov_key) {
                                    Ok(existing) => {
                                        let remote =
                                            existing.blob.as_inline().expect("inline provenance");
                                        if remote.len() > accumulated.len() {
                                            accumulated = remote.to_vec();
                                        }
                                    }
                                    Err(_) => { /* not yet visible */ }
                                }
                            }
                            accumulated.extend_from_slice(&bytes);
                            s3.put(
                                "prov",
                                &prov_key,
                                Blob::from(accumulated.clone()),
                                Metadata::new(),
                            )
                            .expect("prov put");
                            first = false;
                            if let Some((key, size, fp, id)) = file {
                                s3.put(
                                    "data",
                                    &key,
                                    Blob::synthetic(size, fp),
                                    object_metadata(id),
                                )
                                .expect("data put");
                            }
                        }
                    }
                })
                .collect();
            sim.run_parallel(concurrency, tasks);
        }
        Which::P2 | Which::P3 => {
            // Feed the whole corpus as one flush batch: P2 batches items
            // globally; P3 logs one large transaction.
            let files: BTreeMap<String, (u64, u64)> = run
                .files
                .iter()
                .filter(|f| f.written)
                .map(|f| (f.path.clone(), (f.size, f.fingerprint)))
                .collect();
            let last_node_of: BTreeMap<String, cloudprov_pass::PNodeId> = run
                .nodes
                .iter()
                .filter(|n| n.kind.is_persistent())
                .filter_map(|n| n.name.clone().map(|p| (p, n.id)))
                .collect();
            let objects: Vec<FlushObject> = run
                .nodes
                .iter()
                .map(|n| {
                    let file = n
                        .name
                        .as_ref()
                        .filter(|name| last_node_of.get(*name) == Some(&n.id))
                        .and_then(|name| files.get(name).map(|fi| (name, fi)));
                    match file {
                        Some((name, (size, fp))) if n.kind.is_persistent() => FlushObject::file(
                            n.clone(),
                            name.trim_start_matches('/').to_string(),
                            Blob::synthetic(*size, *fp),
                        ),
                        _ => FlushObject::provenance_only(n.clone()),
                    }
                })
                .collect();
            rig.client
                .flush(FlushBatch { objects })
                .expect("bulk flush");
        }
    }
    let elapsed = sim.now() - t0;
    let usage = rig.env.usage();
    let report = UploadReport {
        which,
        elapsed,
        client_ops: usage.client_ops(),
        mb_transferred: usage.client_mb_transferred(),
    };
    rig.drain_commits();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::{Actor, AwsProfile, Op, Service};
    use cloudprov_core::ProtocolConfig;
    use cloudprov_workloads::{blast, collect, BlastParams};

    fn small_run() -> OfflineRun {
        collect(&blast(BlastParams::small()))
    }

    #[test]
    fn baseline_uploads_each_file_once() {
        let run = small_run();
        let rig = Rig::with_profile(
            Which::S3fs,
            AwsProfile::instant(),
            ProtocolConfig::default(),
        );
        let report = upload(&rig, &run, 8);
        let written = run.files.iter().filter(|f| f.written).count();
        assert_eq!(report.client_ops as usize, written);
        assert_eq!(
            rig.env.s3().peek_count("data", ""),
            written,
            "every written file object present"
        );
    }

    #[test]
    fn p1_uploads_provenance_objects_per_uuid() {
        let run = small_run();
        let rig = Rig::with_profile(Which::P1, AwsProfile::instant(), ProtocolConfig::default());
        let report = upload(&rig, &run, 8);
        let uuids: std::collections::BTreeSet<_> = run.nodes.iter().map(|n| n.id.uuid).collect();
        assert_eq!(rig.env.s3().peek_count("prov", "p/"), uuids.len());
        assert!(report.client_ops > run.files.len() as u64 * 2);
    }

    #[test]
    fn p2_batches_globally() {
        let run = small_run();
        let rig = Rig::with_profile(Which::P2, AwsProfile::instant(), ProtocolConfig::default());
        upload(&rig, &run, 8);
        let batches = rig
            .env
            .usage()
            .get(Actor::Client, Service::Database, Op::DbPut)
            .count;
        let expected = run.nodes.len().div_ceil(25) as u64;
        assert_eq!(batches, expected, "25-item global batching");
    }

    #[test]
    fn p3_commits_everything_via_daemon() {
        let run = small_run();
        let rig = Rig::with_profile(Which::P3, AwsProfile::instant(), ProtocolConfig::default());
        upload(&rig, &run, 8);
        assert_eq!(
            rig.env.s3().peek_count("data", "tmp/"),
            0,
            "daemon cleaned temp objects"
        );
        assert_eq!(
            rig.env.s3().peek_count("data", ""),
            run.files.iter().filter(|f| f.written).count(),
            "all written files committed to final names"
        );
        assert!(rig.env.sdb().peek_item_count("provenance") > 0);
    }

    #[test]
    fn protocols_transfer_slightly_more_than_baseline() {
        let run = small_run();
        let base = {
            let rig = Rig::with_profile(
                Which::S3fs,
                AwsProfile::instant(),
                ProtocolConfig::default(),
            );
            upload(&rig, &run, 8).mb_transferred
        };
        for which in [Which::P1, Which::P2, Which::P3] {
            let rig = Rig::with_profile(which, AwsProfile::instant(), ProtocolConfig::default());
            let mb = upload(&rig, &run, 8).mb_transferred;
            let pct = crate::common::overhead_pct(base, mb);
            assert!(pct > 0.0, "{which:?} adds provenance bytes");
            assert!(
                pct < 15.0,
                "{which:?} data overhead small (Table 3), got {pct:.2}%"
            );
        }
    }
}
