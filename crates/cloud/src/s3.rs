//! The S3-like object store (§2.3 "Object Store Service").
//!
//! Semantics reproduced from the 2009-era API the paper builds on:
//!
//! * `PUT` stores a whole object and **atomically** replaces both data and
//!   user metadata (`<name, value>` pairs). There are no partial writes —
//!   §4.1 notes cloud provenance need not worry about them.
//! * `PUT` overwrites any previous version; concurrent writers are
//!   last-writer-wins.
//! * Reads (`GET`/`HEAD`/`LIST`) are **eventually consistent**: a read
//!   shortly after a write may observe the previous version, or miss a new
//!   object entirely (§2.3.1).
//! * `COPY` is server-side (no client data transfer) and may replace the
//!   destination's metadata — protocol P3 uses this to move a committed
//!   temporary object to its permanent name while bumping the version.
//! * There is **no rename** (§4.3.3 notes S3 lacked one).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use cloudprov_sim::SimTime;

use crate::blob::Blob;
use crate::error::{CloudError, Result};
use crate::meter::{Actor, Op, Service, TenantId};
use crate::service::ServiceCore;

/// User metadata attached to an object (`x-amz-meta-*` pairs).
pub type Metadata = BTreeMap<String, String>;

/// An object returned by [`ObjectStore::get`].
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectData {
    /// The payload.
    pub blob: Blob,
    /// User metadata stored atomically with the payload.
    pub meta: Metadata,
    /// When this version was published (for instrumentation).
    pub last_modified: SimTime,
}

/// Response to a `HEAD` request: metadata without the payload.
#[derive(Clone, Debug, PartialEq)]
pub struct HeadData {
    /// User metadata.
    pub meta: Metadata,
    /// Payload length in bytes.
    pub len: u64,
    /// When this version was published.
    pub last_modified: SimTime,
}

/// One key listed by [`ObjectStore::list`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ListedKey {
    /// Full object key.
    pub key: String,
    /// Payload length in bytes.
    pub len: u64,
    /// When the listed version was published (drives the P3 cleaner
    /// daemon's 4-day reclamation of orphaned temporary objects).
    pub last_modified: SimTime,
}

/// A page of `LIST` results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ListPage {
    /// Keys in lexicographic order.
    pub keys: Vec<ListedKey>,
    /// Marker to pass to the next call, `None` when exhausted.
    pub next_marker: Option<String>,
}

/// Metadata handling for [`ObjectStore::copy`], mirroring the S3
/// `x-amz-metadata-directive` header.
#[derive(Clone, Debug, PartialEq)]
pub enum MetadataDirective {
    /// Destination inherits the source's metadata.
    Copy,
    /// Destination gets fresh metadata (the P3 commit daemon uses this to
    /// stamp the new version).
    Replace(Metadata),
}

#[derive(Clone)]
struct StoredVersion {
    published: SimTime,
    /// `None` is a delete tombstone.
    object: Option<(Blob, Metadata)>,
}

#[derive(Default)]
struct KeyHistory {
    versions: Vec<StoredVersion>,
}

impl KeyHistory {
    /// Latest version visible at `horizon` (now minus staleness).
    fn visible_at(&self, horizon: SimTime) -> Option<&StoredVersion> {
        self.versions.iter().rev().find(|v| v.published <= horizon)
    }

    fn latest(&self) -> Option<&StoredVersion> {
        self.versions.last()
    }

    /// Drops versions no replica can still serve.
    fn prune(&mut self, oldest_horizon: SimTime) {
        let keep_from = self
            .versions
            .iter()
            .rposition(|v| v.published <= oldest_horizon)
            .unwrap_or(0);
        if keep_from > 0 {
            self.versions.drain(..keep_from);
        }
    }
}

#[derive(Default)]
struct StoreState {
    // BTreeMap gives lexicographic LIST for free.
    objects: BTreeMap<(String, String), KeyHistory>,
}

/// Maximum keys per LIST page, as S3 enforced.
pub const LIST_MAX_KEYS: usize = 1000;

/// Handle to the simulated object store. Cloning is cheap; use
/// [`ObjectStore::with_actor`] to attribute calls to a different actor
/// (e.g. the P3 commit daemon).
#[derive(Clone)]
pub struct ObjectStore {
    core: Arc<ServiceCore>,
    state: Arc<Mutex<StoreState>>,
    actor: Actor,
    tenant: Option<TenantId>,
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("actor", &self.actor)
            .finish()
    }
}

impl ObjectStore {
    pub(crate) fn new(core: Arc<ServiceCore>) -> ObjectStore {
        debug_assert_eq!(core.service(), Service::ObjectStore);
        ObjectStore {
            core,
            state: Arc::new(Mutex::new(StoreState::default())),
            actor: Actor::Client,
            tenant: None,
        }
    }

    /// Returns a handle whose calls are metered under `actor`.
    pub fn with_actor(&self, actor: Actor) -> ObjectStore {
        ObjectStore {
            actor,
            ..self.clone()
        }
    }

    /// Returns a handle whose calls are additionally attributed to
    /// `tenant` (fleet accounting).
    pub fn with_tenant(&self, tenant: TenantId) -> ObjectStore {
        ObjectStore {
            tenant: Some(tenant),
            ..self.clone()
        }
    }

    /// Stores `blob` with `meta` at `bucket`/`key`, atomically replacing
    /// any previous version (last-writer-wins).
    ///
    /// # Errors
    ///
    /// Fails only with [`CloudError::ServiceUnavailable`] when fault
    /// injection is active.
    pub fn put(&self, bucket: &str, key: &str, blob: Blob, meta: Metadata) -> Result<()> {
        let len = blob.len();
        let state = self.state.clone();
        let core = self.core.clone();
        let (bucket, key) = (bucket.to_string(), key.to_string());
        self.core
            .call(self.actor, self.tenant, Op::Put, 0, len, move |now| {
                let mut st = state.lock();
                let hist = st.objects.entry((bucket, key)).or_default();
                let old_len = hist
                    .latest()
                    .and_then(|v| v.object.as_ref())
                    .map_or(0, |(b, _)| b.len());
                hist.versions.push(StoredVersion {
                    published: now,
                    object: Some((blob, meta)),
                });
                let horizon = SimTime::from_micros(
                    now.as_micros()
                        .saturating_sub(core.max_staleness().as_micros() as u64),
                );
                hist.prune(horizon);
                core.meter().record_storage_delta(
                    Service::ObjectStore,
                    now,
                    len as i64 - old_len as i64,
                );
                Ok(((), 0))
            })
    }

    /// Retrieves the object at `bucket`/`key`.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::NoSuchKey`] if the key does not exist **or is
    /// not yet visible** to the (possibly stale) replica serving the read.
    pub fn get(&self, bucket: &str, key: &str) -> Result<ObjectData> {
        let staleness = self.core.draw_staleness();
        let state = self.state.clone();
        let (b, k) = (bucket.to_string(), key.to_string());
        self.core
            .call(self.actor, self.tenant, Op::Get, 0, 0, move |now| {
                let horizon = SimTime::from_micros(
                    now.as_micros().saturating_sub(staleness.as_micros() as u64),
                );
                let st = state.lock();
                let visible = st
                    .objects
                    .get(&(b.clone(), k.clone()))
                    .and_then(|h| h.visible_at(horizon));
                match visible {
                    Some(StoredVersion {
                        published,
                        object: Some((blob, meta)),
                    }) => {
                        let len = blob.len();
                        Ok((
                            ObjectData {
                                blob: blob.clone(),
                                meta: meta.clone(),
                                last_modified: *published,
                            },
                            len,
                        ))
                    }
                    _ => Err(CloudError::NoSuchKey { bucket: b, key: k }),
                }
            })
    }

    /// Retrieves metadata and length without the payload.
    ///
    /// # Errors
    ///
    /// Same visibility semantics as [`ObjectStore::get`].
    pub fn head(&self, bucket: &str, key: &str) -> Result<HeadData> {
        let staleness = self.core.draw_staleness();
        let state = self.state.clone();
        let (b, k) = (bucket.to_string(), key.to_string());
        self.core
            .call(self.actor, self.tenant, Op::Head, 0, 0, move |now| {
                let horizon = SimTime::from_micros(
                    now.as_micros().saturating_sub(staleness.as_micros() as u64),
                );
                let st = state.lock();
                match st
                    .objects
                    .get(&(b.clone(), k.clone()))
                    .and_then(|h| h.visible_at(horizon))
                {
                    Some(StoredVersion {
                        published,
                        object: Some((blob, meta)),
                    }) => Ok((
                        HeadData {
                            meta: meta.clone(),
                            len: blob.len(),
                            last_modified: *published,
                        },
                        1, // headers only
                    )),
                    _ => Err(CloudError::NoSuchKey { bucket: b, key: k }),
                }
            })
    }

    /// Server-side copy. Reads the **latest committed** source version (the
    /// copy executes inside the service) and atomically writes the
    /// destination.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchKey`] if the source does not exist.
    pub fn copy(
        &self,
        src_bucket: &str,
        src_key: &str,
        dst_bucket: &str,
        dst_key: &str,
        directive: MetadataDirective,
    ) -> Result<()> {
        let state = self.state.clone();
        let core = self.core.clone();
        let (sb, sk) = (src_bucket.to_string(), src_key.to_string());
        let (db, dk) = (dst_bucket.to_string(), dst_key.to_string());
        self.core
            .call(self.actor, self.tenant, Op::Copy, 0, 0, move |now| {
                let mut st = state.lock();
                let src = st
                    .objects
                    .get(&(sb.clone(), sk.clone()))
                    .and_then(|h| h.latest())
                    .and_then(|v| v.object.clone())
                    .ok_or(CloudError::NoSuchKey {
                        bucket: sb.clone(),
                        key: sk.clone(),
                    })?;
                let (blob, src_meta) = src;
                let meta = match directive {
                    MetadataDirective::Copy => src_meta,
                    MetadataDirective::Replace(m) => m,
                };
                let len = blob.len();
                let hist = st.objects.entry((db, dk)).or_default();
                let old_len = hist
                    .latest()
                    .and_then(|v| v.object.as_ref())
                    .map_or(0, |(b, _)| b.len());
                hist.versions.push(StoredVersion {
                    published: now,
                    object: Some((blob, meta)),
                });
                core.meter().record_storage_delta(
                    Service::ObjectStore,
                    now,
                    len as i64 - old_len as i64,
                );
                Ok(((), 0))
            })
    }

    /// Deletes the object (idempotent: deleting a missing key succeeds, as
    /// in S3).
    ///
    /// There is deliberately **no multi-object delete**: the 2009 API the
    /// paper builds on deleted one key per request (S3's `DeleteObjects`
    /// arrived in 2011). Bulk reclamation — the P3 commit daemon's
    /// temp-object GC — therefore amortizes by fanning single deletes out
    /// over parallel connections, not by batching the API call; the
    /// messaging service is where 2009-shaped batching lives (see
    /// [`QueueService::delete_batch`](crate::QueueService::delete_batch)).
    pub fn delete(&self, bucket: &str, key: &str) -> Result<()> {
        let state = self.state.clone();
        let core = self.core.clone();
        let (b, k) = (bucket.to_string(), key.to_string());
        self.core
            .call(self.actor, self.tenant, Op::Delete, 0, 0, move |now| {
                let mut st = state.lock();
                if let Some(hist) = st.objects.get_mut(&(b, k)) {
                    let old_len = hist
                        .latest()
                        .and_then(|v| v.object.as_ref())
                        .map_or(0, |(blob, _)| blob.len());
                    if old_len > 0 || hist.latest().is_some_and(|v| v.object.is_some()) {
                        hist.versions.push(StoredVersion {
                            published: now,
                            object: None,
                        });
                        core.meter().record_storage_delta(
                            Service::ObjectStore,
                            now,
                            -(old_len as i64),
                        );
                    }
                }
                Ok(((), 0))
            })
    }

    /// Lists up to `max_keys` keys with the given prefix, starting after
    /// `marker`. Eventually consistent like all reads.
    pub fn list(
        &self,
        bucket: &str,
        prefix: &str,
        marker: Option<&str>,
        max_keys: usize,
    ) -> Result<ListPage> {
        let staleness = self.core.draw_staleness();
        let state = self.state.clone();
        let b = bucket.to_string();
        let p = prefix.to_string();
        let marker = marker.map(str::to_string);
        let max_keys = max_keys.min(LIST_MAX_KEYS);
        self.core
            .call(self.actor, self.tenant, Op::List, 0, 0, move |now| {
                let horizon = SimTime::from_micros(
                    now.as_micros().saturating_sub(staleness.as_micros() as u64),
                );
                let st = state.lock();
                let mut keys = Vec::new();
                let mut next_marker = None;
                for ((bk, key), hist) in st.objects.range((b.clone(), p.clone())..) {
                    if *bk != b || !key.starts_with(&p) {
                        break;
                    }
                    if let Some(m) = &marker {
                        if key <= m {
                            continue;
                        }
                    }
                    if let Some(StoredVersion {
                        published,
                        object: Some((blob, _)),
                    }) = hist.visible_at(horizon)
                    {
                        if keys.len() == max_keys {
                            next_marker =
                                Some(keys.last().map(|k: &ListedKey| k.key.clone()).unwrap());
                            break;
                        }
                        keys.push(ListedKey {
                            key: key.clone(),
                            len: blob.len(),
                            last_modified: *published,
                        });
                    }
                }
                let bytes = keys.iter().map(|k| k.key.len() as u64 + 64).sum();
                Ok((ListPage { keys, next_marker }, bytes))
            })
    }

    /// Lists **all** keys with a prefix, following pagination.
    pub fn list_all(&self, bucket: &str, prefix: &str) -> Result<Vec<ListedKey>> {
        let mut out = Vec::new();
        let mut marker: Option<String> = None;
        loop {
            let page = self.list(bucket, prefix, marker.as_deref(), LIST_MAX_KEYS)?;
            out.extend(page.keys);
            match page.next_marker {
                Some(m) => marker = Some(m),
                None => return Ok(out),
            }
        }
    }

    /// Instrumentation: the latest committed state of a key, bypassing the
    /// consistency model, latency and metering. For tests and invariant
    /// checkers only — not part of the modelled API.
    pub fn peek_committed(&self, bucket: &str, key: &str) -> Option<ObjectData> {
        let st = self.state.lock();
        st.objects
            .get(&(bucket.to_string(), key.to_string()))
            .and_then(|h| h.latest())
            .and_then(|v| {
                v.object.as_ref().map(|(blob, meta)| ObjectData {
                    blob: blob.clone(),
                    meta: meta.clone(),
                    last_modified: v.published,
                })
            })
    }

    /// Instrumentation: number of committed (non-deleted) objects with a
    /// prefix, bypassing the API model. Visits only the prefix's key
    /// range, as [`ObjectStore::list`] does.
    pub fn peek_count(&self, bucket: &str, prefix: &str) -> usize {
        let st = self.state.lock();
        st.objects
            .range((bucket.to_string(), prefix.to_string())..)
            .take_while(|((b, k), _)| b == bucket && k.starts_with(prefix))
            .filter(|(_, h)| h.latest().is_some_and(|v| v.object.is_some()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultHandle;
    use crate::meter::Meter;
    use crate::profile::{AwsProfile, RunContext};
    use cloudprov_sim::Sim;

    fn store(profile: AwsProfile) -> (Sim, ObjectStore) {
        let sim = Sim::new();
        let core = ServiceCore::new(
            &sim,
            Service::ObjectStore,
            &profile,
            Meter::new(),
            FaultHandle::new(),
            cloudprov_trace::Tracer::new(&sim),
        );
        (sim, ObjectStore::new(core))
    }

    fn meta(pairs: &[(&str, &str)]) -> Metadata {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn put_get_roundtrip_with_metadata() {
        let (_sim, s3) = store(AwsProfile::instant());
        s3.put("b", "k", Blob::from("hello"), meta(&[("version", "3")]))
            .unwrap();
        let got = s3.get("b", "k").unwrap();
        assert_eq!(got.blob, Blob::from("hello"));
        assert_eq!(got.meta["version"], "3");
    }

    #[test]
    fn get_missing_key_is_no_such_key() {
        let (_sim, s3) = store(AwsProfile::instant());
        let err = s3.get("b", "nope").unwrap_err();
        assert!(matches!(err, CloudError::NoSuchKey { .. }));
    }

    #[test]
    fn put_overwrites_atomically() {
        let (_sim, s3) = store(AwsProfile::instant());
        s3.put("b", "k", Blob::from("v1"), meta(&[("uuid", "a")]))
            .unwrap();
        s3.put("b", "k", Blob::from("v2"), meta(&[("uuid", "b")]))
            .unwrap();
        let got = s3.get("b", "k").unwrap();
        assert_eq!(got.blob, Blob::from("v2"));
        assert_eq!(got.meta["uuid"], "b");
    }

    #[test]
    fn head_returns_len_without_payload() {
        let (_sim, s3) = store(AwsProfile::instant());
        s3.put("b", "k", Blob::synthetic(1 << 20, 9), Metadata::new())
            .unwrap();
        let h = s3.head("b", "k").unwrap();
        assert_eq!(h.len, 1 << 20);
    }

    #[test]
    fn copy_replaces_metadata_when_directed() {
        let (_sim, s3) = store(AwsProfile::instant());
        s3.put("b", "tmp", Blob::from("data"), meta(&[("version", "1")]))
            .unwrap();
        s3.copy(
            "b",
            "tmp",
            "b",
            "real",
            MetadataDirective::Replace(meta(&[("version", "2")])),
        )
        .unwrap();
        let got = s3.get("b", "real").unwrap();
        assert_eq!(got.blob, Blob::from("data"));
        assert_eq!(got.meta["version"], "2");
    }

    #[test]
    fn copy_missing_source_fails() {
        let (_sim, s3) = store(AwsProfile::instant());
        let err = s3
            .copy("b", "nope", "b", "dst", MetadataDirective::Copy)
            .unwrap_err();
        assert!(matches!(err, CloudError::NoSuchKey { .. }));
    }

    #[test]
    fn delete_removes_and_is_idempotent() {
        let (_sim, s3) = store(AwsProfile::instant());
        s3.put("b", "k", Blob::from("x"), Metadata::new()).unwrap();
        s3.delete("b", "k").unwrap();
        assert!(s3.get("b", "k").is_err());
        s3.delete("b", "k").unwrap(); // idempotent
        s3.delete("b", "never-existed").unwrap();
    }

    #[test]
    fn list_paginates_in_key_order() {
        let (_sim, s3) = store(AwsProfile::instant());
        for i in 0..25 {
            s3.put("b", &format!("p/{i:02}"), Blob::from("x"), Metadata::new())
                .unwrap();
        }
        s3.put("b", "other", Blob::from("x"), Metadata::new())
            .unwrap();
        let page1 = s3.list("b", "p/", None, 10).unwrap();
        assert_eq!(page1.keys.len(), 10);
        assert_eq!(page1.keys[0].key, "p/00");
        let marker = page1.next_marker.unwrap();
        let page2 = s3.list("b", "p/", Some(&marker), 10).unwrap();
        assert_eq!(page2.keys[0].key, "p/10");
        let all = s3.list_all("b", "p/").unwrap();
        assert_eq!(all.len(), 25);
    }

    #[test]
    fn eventual_consistency_can_miss_fresh_put_then_converges() {
        let mut profile = AwsProfile::instant();
        profile.consistency =
            crate::profile::ConsistencyParams::eventual(std::time::Duration::from_secs(10));
        let (sim, s3) = store(profile);
        s3.put("b", "k", Blob::from("new"), Metadata::new())
            .unwrap();
        let mut missed = false;
        for _ in 0..200 {
            if s3.get("b", "k").is_err() {
                missed = true;
                break;
            }
        }
        assert!(missed, "expected at least one stale miss right after PUT");
        // After the staleness window passes with no writes, reads converge.
        sim.sleep(std::time::Duration::from_secs(11));
        for _ in 0..50 {
            assert!(s3.get("b", "k").is_ok());
        }
    }

    #[test]
    fn stale_read_returns_older_version_not_garbage() {
        let mut profile = AwsProfile::instant();
        profile.consistency =
            crate::profile::ConsistencyParams::eventual(std::time::Duration::from_secs(10));
        let (sim, s3) = store(profile);
        s3.put("b", "k", Blob::from("old"), Metadata::new())
            .unwrap();
        sim.sleep(std::time::Duration::from_secs(60));
        s3.put("b", "k", Blob::from("new"), Metadata::new())
            .unwrap();
        for _ in 0..200 {
            let got = s3.get("b", "k").unwrap();
            assert!(
                got.blob == Blob::from("old") || got.blob == Blob::from("new"),
                "reads must return a real version"
            );
        }
    }

    #[test]
    fn put_latency_reflects_payload_size() {
        let (sim, s3) = store(AwsProfile::calibrated_strict(RunContext::default()));
        let t0 = sim.now();
        s3.put("b", "small", Blob::synthetic(1024, 0), Metadata::new())
            .unwrap();
        let small = sim.now() - t0;
        let t1 = sim.now();
        s3.put("b", "big", Blob::synthetic(10 << 20, 0), Metadata::new())
            .unwrap();
        let big = sim.now() - t1;
        assert!(big > small * 5, "big={big:?} small={small:?}");
    }

    #[test]
    fn peek_bypasses_consistency() {
        let mut profile = AwsProfile::instant();
        profile.consistency =
            crate::profile::ConsistencyParams::eventual(std::time::Duration::from_secs(10));
        let (_sim, s3) = store(profile);
        s3.put("b", "k", Blob::from("x"), Metadata::new()).unwrap();
        assert!(s3.peek_committed("b", "k").is_some());
        assert_eq!(s3.peek_count("b", ""), 1);
    }

    #[test]
    fn peek_count_counts_only_its_bucket_and_prefix() {
        let (_sim, s3) = store(AwsProfile::instant());
        for (bucket, key) in [
            ("a", "p/zz"),
            ("b", "o/1"),
            ("b", "p"),
            ("b", "p/1"),
            ("b", "p/2"),
            ("b", "p/3"),
            ("b", "p0"),
            ("b", "q/1"),
            ("c", "p/1"),
        ] {
            s3.put(bucket, key, Blob::from("x"), Metadata::new())
                .unwrap();
        }
        s3.delete("b", "p/3").unwrap();
        assert_eq!(
            s3.peek_count("b", "p/"),
            2,
            "neighbours and the deleted key excluded"
        );
        assert_eq!(s3.peek_count("b", "p"), 4);
        assert_eq!(s3.peek_count("b", ""), 6);
        assert_eq!(s3.peek_count("a", "p/"), 1);
        assert_eq!(s3.peek_count("c", ""), 1);
        assert_eq!(s3.peek_count("d", ""), 0);
        assert_eq!(s3.peek_count("b", "r"), 0);
    }
}
