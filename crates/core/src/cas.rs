//! The fleet-wide **content-addressed ancestor store** (CAS).
//!
//! The facade flusher's cross-batch dedupe set (`client.rs`) only ever
//! deduped within one client: every client of a fleet re-uploaded the
//! same shared ancestors, and every `flush` waited out those uploads.
//! The CAS turns ancestor upload into a fleet-wide, content-keyed,
//! *speculative background* operation:
//!
//! * An object's **CAS key** is the SHA-256 of its canonical encoding
//!   (node id, object-store key, data fingerprint/length, and the
//!   wire-encoded provenance records). Identical content hashes
//!   identically on every client of the fleet.
//! * The **registry** is a shared SimpleDB domain (`cas_{domain}`,
//!   [`cas_domain`]): one item per hash carrying the node id, the final
//!   object-store key and the record lines. The registry put is the
//!   publish commit point.
//! * **Data** (when the object carries any) lives as a raw S3 object at
//!   `cas/{sha}` in the data bucket ([`cas_object_key`]) — raw bytes,
//!   not an encoding, so the commit daemon's existing `COPY
//!   cas/{sha} → final` lands the correct data and stamps the version
//!   metadata exactly like a temp-object copy.
//! * Publishing probes the registry first (`GetAttributes`, one cheap
//!   read): a hit means some client anywhere already made this content
//!   durable, and the upload is skipped entirely. Races are harmless —
//!   a double publish re-puts identical bytes and identical
//!   (name, value) pairs, both idempotent.
//!
//! The client's flusher then logs WAL transactions that *reference*
//! hashes (`CAS` lines) instead of carrying payloads, and a
//! [`FlushTicket`](crate::FlushTicket) resolves on the delta alone —
//! see the flush-path walkthrough in `client.rs`.
//!
//! **Crash ordering invariant:** a hash is only ever referenced from the
//! WAL *after* its publish is durable (`CasStore::wait` in the flusher),
//! so a client crash at any of the `client:cas:probe` /
//! `client:cas:publish` / `client:cas:register` crash points can strand
//! an unreferenced CAS object (garbage, re-publishable) but never a WAL
//! reference to content that does not exist.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use cloudprov_cloud::{Blob, CloudEnv, Metadata, PutItem};
use cloudprov_pass::{wire, PNodeId};
use cloudprov_sim::SimSemaphore;

use crate::error::{ProtocolError, Result};
use crate::protocol::{retry, FlushObject, ProtocolConfig};

/// Key prefix of CAS data objects within the data bucket. Disjoint from
/// the temp prefix, so the cleaner daemon (which lists only `tmp/`)
/// never reaps published content.
pub const CAS_OBJECT_PREFIX: &str = "cas/";

/// Records above this count make an object CAS-ineligible: the registry
/// item stores one attribute per record and SimpleDB silently truncates
/// items beyond 256 attributes — staying far under the limit keeps the
/// registry lossless. Oversized objects just take the delta path.
pub const CAS_MAX_RECORDS: usize = 200;

/// An encoded record line above this length makes an object
/// CAS-ineligible (SimpleDB rejects attribute values over 1 KB; such
/// values spill to S3 on the delta path instead).
const CAS_MAX_LINE: usize = 1000;

/// Crash point before a publish unit's registry probe.
const PROBE_POINT: &str = "client:cas:probe";
/// Crash point between the probe and the data upload.
const PUBLISH_POINT: &str = "client:cas:publish";
/// Crash point before the registry put that announces the content.
const REGISTER_POINT: &str = "client:cas:register";

/// The speculative publish's crash points, in execution order (probe,
/// publish, register) — what aimed chaos schedules take as input.
pub fn cas_crash_points() -> [&'static str; 3] {
    [PROBE_POINT, PUBLISH_POINT, REGISTER_POINT]
}

/// Name of the shared CAS registry domain for a provenance domain.
pub fn cas_domain(domain: &str) -> String {
    format!("cas_{domain}")
}

/// S3 key of a published CAS data object.
pub fn cas_object_key(sha: &str) -> String {
    format!("{CAS_OBJECT_PREFIX}{sha}")
}

/// A WAL-transportable reference to published CAS content: everything
/// the commit daemon needs to materialize the object without the
/// payload ever crossing the WAL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CasRef {
    /// SHA-256 (hex) of the canonical encoding — the CAS key.
    pub sha: String,
    /// Provenance node the content belongs to.
    pub id: PNodeId,
    /// Final object-store key, for objects carrying data.
    pub key: Option<String>,
    /// Whether a data object exists at [`cas_object_key`].
    pub has_data: bool,
}

/// One unit of a CAS-aware P3 log phase
/// ([`P3::flush_with_cas`](crate::P3::flush_with_cas)): either a delta
/// object carried in full, or a reference to content already published
/// to the CAS.
#[derive(Clone, Debug)]
pub enum CasFlushItem {
    /// A delta object: its payload uploads to a temp key and it travels
    /// as an `OBJ` WAL line.
    Object(FlushObject),
    /// Published CAS content: travels as a `CAS` reference line; the
    /// commit daemon materializes it from the shared store.
    Ref(CasRef),
}

/// Canonical encoding of a flush object, or `None` when the object is
/// not CAS-eligible (too many records, an over-long record line). The
/// encoding covers node id, key, data identity and every record, so two
/// objects encode identically iff persisting either produces the same
/// cloud state.
pub fn canonical_encoding(obj: &FlushObject) -> Option<String> {
    if obj.node.records.len() > CAS_MAX_RECORDS {
        return None;
    }
    let mut text = String::with_capacity(64 + obj.node.records.len() * 48);
    text.push_str("CASOBJ\t");
    text.push_str(&obj.node.id.to_string());
    text.push('\t');
    text.push_str(obj.key.as_deref().unwrap_or("-"));
    match &obj.data {
        Some(d) => {
            text.push_str(&format!(
                "\t{:016x}\t{}\n",
                d.content_fingerprint(),
                d.len()
            ));
        }
        None => text.push_str("\t-\t-\n"),
    }
    for r in &obj.node.records {
        let line = wire::encode_record(r);
        if line.len() > CAS_MAX_LINE {
            return None;
        }
        text.push_str(&line);
    }
    Some(text)
}

/// Publication state of one hash within a client.
enum CasState {
    /// A publisher is running; the semaphore releases once on completion
    /// (waiters re-release to pass the baton).
    InFlight(SimSemaphore),
    /// Probe hit or publish completed: safe to reference from the WAL.
    Durable,
    /// The publisher died or exhausted retries; referencing transactions
    /// fail and surface the error at the barrier.
    Failed(ProtocolError),
}

/// CAS traffic counters, surfaced through
/// [`PipelineStats`](crate::PipelineStats).
#[derive(Default)]
struct CasCounters {
    probes: AtomicU64,
    hits: AtomicU64,
    publishes: AtomicU64,
}

/// A publish unit produced by [`CasStore::stage`]: the content to make
/// durable under `sha`, executed by a background publisher.
pub struct CasPublish {
    sha: String,
    id: PNodeId,
    key: Option<String>,
    data: Option<Blob>,
    records: Vec<String>,
}

/// Client-side handle to the fleet-wide CAS: an in-memory hash→state map
/// (shared across clones) over the shared registry domain and data
/// prefix. Cross-*client* dedupe happens through the cloud (probe before
/// publish); the in-memory map only collapses repeat stagings within one
/// client and lets the flusher wait for in-flight publishes.
#[derive(Clone)]
pub struct CasStore {
    env: CloudEnv,
    config: ProtocolConfig,
    registry: String,
    state: Arc<Mutex<BTreeMap<String, CasState>>>,
    counters: Arc<CasCounters>,
}

impl std::fmt::Debug for CasStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CasStore")
            .field("registry", &self.registry)
            .field("entries", &self.state.lock().len())
            .finish()
    }
}

impl CasStore {
    /// Creates a handle over `config`'s layout, provisioning the shared
    /// registry domain (idempotent, unmetered administrative call).
    pub fn new(env: &CloudEnv, config: ProtocolConfig) -> CasStore {
        let registry = cas_domain(&config.layout.domain);
        env.sdb().create_domain(&registry);
        CasStore {
            env: env.clone(),
            config,
            registry,
            state: Arc::new(Mutex::new(BTreeMap::new())),
            counters: Arc::new(CasCounters::default()),
        }
    }

    /// Stages one flush object: computes its CAS key and returns the WAL
    /// reference, plus a publish unit iff this client has not seen the
    /// hash before (first stager publishes; repeats ride the same
    /// in-flight state). `None` for CAS-ineligible objects — they take
    /// the delta path.
    pub fn stage(&self, obj: &FlushObject) -> Option<(CasRef, Option<CasPublish>)> {
        let encoding = canonical_encoding(obj)?;
        let sha = sha256_hex(encoding.as_bytes());
        let cas_ref = CasRef {
            sha: sha.clone(),
            id: obj.node.id,
            key: obj.key.clone(),
            has_data: obj.data.is_some(),
        };
        let fresh = {
            let mut st = self.state.lock();
            if st.contains_key(&sha) {
                false
            } else {
                st.insert(
                    sha.clone(),
                    CasState::InFlight(SimSemaphore::new(self.env.sim(), 0)),
                );
                true
            }
        };
        let publish = fresh.then(|| CasPublish {
            sha,
            id: obj.node.id,
            key: obj.key.clone(),
            data: obj.data.clone(),
            records: obj
                .node
                .records
                .iter()
                .map(|r| wire::encode_record(r).trim_end().to_string())
                .collect(),
        });
        Some((cas_ref, publish))
    }

    /// Runs one publish unit: probe the registry, and on a miss upload
    /// the data object (if any) strictly before the registry put — the
    /// commit point. Never returns an error; the outcome lands in the
    /// hash's state and [`CasStore::wait`] reports it to the flusher.
    pub fn publish(&self, unit: CasPublish) {
        let sha = unit.sha.clone();
        // Trace: one `cas:publish` root span per publish unit. CAS
        // content is shared fleet-wide, so the span roots its own trace
        // (id = the hash's leading bits) rather than any one txn's tree.
        let tracer = self.env.tracer().clone();
        let span = tracer.enabled().then(|| {
            let trace = u128::from_str_radix(&sha[..sha.len().min(32)], 16).unwrap_or(0);
            (tracer.alloc(trace), self.env.sim().now())
        });
        let outcome = self.publish_inner(unit);
        if let Some((ctx, t0)) = span {
            tracer.emit(
                ctx,
                None,
                "cas:publish",
                &format!("cas {}", &sha[..sha.len().min(8)]),
                None,
                t0,
                self.env.sim().now(),
                0.0,
            );
        }
        let mut st = self.state.lock();
        let prev = st.insert(
            sha,
            match outcome {
                Ok(()) => CasState::Durable,
                Err(e) => CasState::Failed(e),
            },
        );
        if let Some(CasState::InFlight(sem)) = prev {
            sem.release();
        }
    }

    fn publish_inner(&self, unit: CasPublish) -> Result<()> {
        let sim = self.env.sim();
        let sdb = self.env.sdb();
        self.config.step(PROBE_POINT)?;
        self.counters.probes.fetch_add(1, Ordering::Relaxed);
        let existing = retry(sim, || sdb.get_attributes(&self.registry, &unit.sha))?;
        if !existing.is_empty() {
            // Some client anywhere already published this content. (An
            // eventually-consistent miss just republishes — idempotent.)
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        if let Some(data) = &unit.data {
            // Content strictly before the registry entry that announces
            // it: a crash between the two leaves an unannounced object a
            // later publisher overwrites with identical bytes.
            self.config.step(PUBLISH_POINT)?;
            retry(sim, || {
                self.env.s3().put(
                    &self.config.layout.data_bucket,
                    &cas_object_key(&unit.sha),
                    data.clone(),
                    Metadata::new(),
                )
            })?;
        }
        self.config.step(REGISTER_POINT)?;
        let mut attrs: Vec<(String, String)> = vec![
            ("node".to_string(), unit.id.to_string()),
            (
                "key".to_string(),
                unit.key.clone().unwrap_or_else(|| "-".to_string()),
            ),
            (
                "data".to_string(),
                if unit.data.is_some() { "1" } else { "0" }.to_string(),
            ),
        ];
        for (i, line) in unit.records.iter().enumerate() {
            attrs.push((format!("r{i:03}"), line.clone()));
        }
        retry(sim, || {
            sdb.put_attributes(
                &self.registry,
                PutItem {
                    name: unit.sha.clone(),
                    attrs: attrs.clone(),
                    replace: false,
                },
            )
        })?;
        self.counters.publishes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Blocks (in virtual time) until `sha` is durable — the flusher's
    /// barrier before logging a WAL reference to it.
    ///
    /// # Errors
    ///
    /// The publisher's failure, if it died or exhausted retries.
    pub fn wait(&self, sha: &str) -> Result<()> {
        loop {
            let sem = {
                let st = self.state.lock();
                match st.get(sha) {
                    // Unknown hashes were staged by this store earlier in
                    // the same client; absence means a logic error
                    // upstream, but durability-wise the safe answer is
                    // to re-check rather than hang.
                    None => return Ok(()),
                    Some(CasState::Durable) => return Ok(()),
                    Some(CasState::Failed(e)) => return Err(e.clone()),
                    Some(CasState::InFlight(sem)) => sem.clone(),
                }
            };
            // Pass-the-baton: the publisher releases one permit; each
            // woken waiter re-releases so every waiter eventually passes.
            sem.acquire().forget();
            sem.release();
        }
    }

    /// (probes, hits, publishes) so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.counters.probes.load(Ordering::Relaxed),
            self.counters.hits.load(Ordering::Relaxed),
            self.counters.publishes.load(Ordering::Relaxed),
        )
    }
}

/// Decodes a registry item's attributes back into
/// `(id, key, has_data, records)` — the commit daemon's materialization
/// input. Returns `None` on a malformed item.
pub fn decode_registry_item(
    attrs: &[(String, String)],
) -> Option<(
    PNodeId,
    Option<String>,
    bool,
    Vec<cloudprov_pass::ProvenanceRecord>,
)> {
    let mut id = None;
    let mut key = None;
    let mut has_data = false;
    let mut lines: Vec<(&str, &str)> = Vec::new();
    for (name, value) in attrs {
        match name.as_str() {
            "node" => id = value.parse::<PNodeId>().ok(),
            "key" => key = (value != "-").then(|| value.clone()),
            "data" => has_data = value == "1",
            r if r.starts_with('r') => lines.push((name, value)),
            _ => {}
        }
    }
    // SimpleDB attributes are unordered; the zero-padded names restore
    // record order.
    lines.sort_by_key(|(name, _)| *name);
    let mut text = String::new();
    for (_, line) in &lines {
        text.push_str(line);
        text.push('\n');
    }
    let records = wire::decode(text.as_bytes()).ok()?;
    Some((id?, key, has_data, records))
}

/// SHA-256 over `bytes`, hex-encoded. Hand-rolled (FIPS 180-4) — the
/// workspace is offline and carries no hashing dependency; performance
/// is irrelevant at simulation scale.
pub fn sha256_hex(bytes: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = bytes.to_vec();
    let bit_len = (bytes.len() as u64) * 8;
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let (mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh) =
            (h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }
    let mut out = String::with_capacity(64);
    for word in h {
        out.push_str(&format!("{word:08x}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::AwsProfile;
    use cloudprov_pass::{Attr, FlushNode, NodeKind, ProvenanceRecord, Uuid};
    use cloudprov_sim::Sim;

    fn obj(uuid: u128, data: &str) -> FlushObject {
        let id = PNodeId::initial(Uuid(uuid));
        let blob = Blob::from(data);
        FlushObject::file(
            FlushNode {
                id,
                kind: NodeKind::File,
                name: Some("/f".into()),
                records: vec![
                    ProvenanceRecord::new(id, Attr::Type, "file"),
                    ProvenanceRecord::new(
                        id,
                        Attr::DataHash,
                        format!("{:016x}", blob.content_fingerprint()),
                    ),
                ],
                data_hash: Some(blob.content_fingerprint()),
            },
            "f",
            blob,
        )
    }

    #[test]
    fn sha256_matches_known_vectors() {
        // FIPS 180-4 / RFC 6234 test vectors.
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Padding edge: exactly 55 and 56 bytes straddle the one-block /
        // two-block boundary.
        assert_eq!(
            sha256_hex(&[b'a'; 55]),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"
        );
        assert_eq!(
            sha256_hex(&[b'a'; 56]),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
        );
    }

    #[test]
    fn canonical_encoding_keys_by_content() {
        let a = obj(1, "same");
        let b = obj(1, "same");
        let c = obj(1, "different");
        let ea = canonical_encoding(&a).unwrap();
        assert_eq!(ea, canonical_encoding(&b).unwrap());
        assert_ne!(ea, canonical_encoding(&c).unwrap());
        // A different node with identical bytes is different content:
        // its records (and id) differ.
        assert_ne!(ea, canonical_encoding(&obj(2, "same")).unwrap());
    }

    #[test]
    fn oversized_objects_are_ineligible() {
        let mut big = obj(3, "x");
        let id = big.node.id;
        big.node.records = (0..=CAS_MAX_RECORDS)
            .map(|i| ProvenanceRecord::new(id, Attr::Env, format!("v{i}")))
            .collect();
        assert!(canonical_encoding(&big).is_none(), "too many records");
        let mut long = obj(4, "x");
        long.node.records = vec![ProvenanceRecord::new(id, Attr::Env, "V".repeat(2000))];
        assert!(canonical_encoding(&long).is_none(), "over-long line");
    }

    #[test]
    fn publish_probe_hit_skips_the_upload() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let store_a = CasStore::new(&env, ProtocolConfig::default());
        let store_b = CasStore::new(&env, ProtocolConfig::default());
        let o = obj(5, "payload");
        let (r, publish) = store_a.stage(&o).unwrap();
        store_a.publish(publish.unwrap());
        store_a.wait(&r.sha).unwrap();
        assert_eq!(store_a.counters(), (1, 0, 1));
        // A second client staging identical content probes, hits, and
        // uploads nothing.
        let (r2, publish2) = store_b.stage(&o).unwrap();
        assert_eq!(r2.sha, r.sha);
        store_b.publish(publish2.unwrap());
        store_b.wait(&r2.sha).unwrap();
        assert_eq!(store_b.counters(), (1, 1, 0));
        // Registry round-trips the content.
        let attrs = env
            .sdb()
            .peek_item(&cas_domain("provenance"), &r.sha)
            .unwrap();
        let (id, key, has_data, records) = decode_registry_item(&attrs).unwrap();
        assert_eq!(id, o.node.id);
        assert_eq!(key.as_deref(), Some("f"));
        assert!(has_data);
        assert_eq!(records, o.node.records);
        assert!(env
            .s3()
            .peek_committed("data", &cas_object_key(&r.sha))
            .is_some());
    }

    #[test]
    fn repeat_staging_publishes_once() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let store = CasStore::new(&env, ProtocolConfig::default());
        let o = obj(6, "x");
        let (_, first) = store.stage(&o).unwrap();
        assert!(first.is_some());
        let (_, second) = store.stage(&o).unwrap();
        assert!(second.is_none(), "second staging rides the first publish");
    }

    #[test]
    fn a_crashed_publisher_fails_waiters_not_hangs_them() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let config = ProtocolConfig {
            step_hook: Some(Arc::new(|step: &str| step != "client:cas:register")),
            ..ProtocolConfig::default()
        };
        let store = CasStore::new(&env, config);
        let o = obj(7, "x");
        let (r, publish) = store.stage(&o).unwrap();
        store.publish(publish.unwrap());
        assert!(matches!(
            store.wait(&r.sha),
            Err(ProtocolError::Crashed { .. })
        ));
        // Content PUT landed (strictly before the register crash) but
        // the registry has no entry: the hash was never announced, so
        // nothing can reference it — the dangling side is garbage, not
        // a broken reference.
        assert!(env
            .sdb()
            .peek_item(&cas_domain("provenance"), &r.sha)
            .is_none());
    }
}
