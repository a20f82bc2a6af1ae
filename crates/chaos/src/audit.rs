//! The one post-recovery audit every chaos harness collects.
//!
//! A harness — the seeded explorer, an aimed kill — runs its workload,
//! kills something, recovers, and then hands what it has to
//! [`Audit::collect`]: the protocol to read back through, the keys it
//! wrote and the ones it promised, the ids its commit listeners saw, and
//! the live subscription when one rode the daemons. The audit reads back
//! what the §3 properties say must hold — every check whose subject the
//! harness has — and [`Audit::violations`] is the one verdict all
//! harnesses report:
//!
//! * **Commits** — no transaction committed twice.
//! * **Coupling** — every key is read through the protocol's coupling
//!   detector; every promised key must still be readable (for P3:
//!   coupled — a fully-logged WAL transaction is recoverable by any
//!   machine), and P3 must come back `Coupled` everywhere.
//! * **Causal ordering** — no dangling ancestor edge for P3 (P1/P2 in
//!   parallel mode legitimately violate it; the count mirrors Table 1).
//! * **Persistence** — deleting a coupled key's data leaves its
//!   provenance reachable. Destructive, so it runs last.
//! * **WAL/temp/index hygiene** (P3) — the WAL is empty, no temp object
//!   is left, and the ancestry index agrees with the base records.
//! * **Feed** (when the daemons staged one) — staged sequences are
//!   contiguous and published; a live subscription saw every committed
//!   transaction, in order, duplicates allowed.

use std::collections::BTreeSet;
use std::ops::AddAssign;

use cloudprov_cloud::{CloudEnv, CloudError};
use cloudprov_core::index::audit_index;
use cloudprov_core::properties::{check_causal_ordering, check_persistence};
use cloudprov_core::{audit_feed, CouplingCheck, Layout, ProtocolError, StorageProtocol};
use cloudprov_feed::{Subscription, Subscriptions};
use cloudprov_pass::Uuid;

/// Tally of coupling verdicts over the post-recovery read sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CouplingTally {
    /// Reads whose data and provenance matched.
    pub coupled: usize,
    /// Reads with no (or not-yet-visible) provenance — a detected
    /// coupling violation for P1/P2 after quiescence.
    pub provenance_missing: usize,
    /// Reads whose provenance describes different data.
    pub hash_mismatch: usize,
    /// Reads of data carrying no provenance link.
    pub unlinked: usize,
    /// Keys with no readable data at all (never durable, or unlinked).
    pub missing_data: usize,
}

impl CouplingTally {
    /// Detected coupling violations (everything except clean/missing).
    pub fn detected_violations(&self) -> usize {
        self.provenance_missing + self.hash_mismatch
    }
}

impl AddAssign for CouplingTally {
    fn add_assign(&mut self, o: CouplingTally) {
        self.coupled += o.coupled;
        self.provenance_missing += o.provenance_missing;
        self.hash_mismatch += o.hash_mismatch;
        self.unlinked += o.unlinked;
        self.missing_data += o.missing_data;
    }
}

/// What one harness found after recovery. A check whose subject the
/// harness lacks (no WAL outside P3, no listener, no feed) stays 0.
/// `PartialEq` so replays can be checked for bit-identical verdicts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Audit {
    /// Whether the audited protocol is P3, the one whose coupling and
    /// causal ordering are guarantees rather than Table 1 facts.
    pub p3: bool,
    /// Distinct transactions the commit listeners saw.
    pub unique_commits: u64,
    /// Transactions committed more than once (must be 0).
    pub double_commits: u64,
    /// Coupling verdicts of the read sweep.
    pub coupling: CouplingTally,
    /// Promised keys that were unreadable (or, for P3, uncoupled).
    pub broken_promises: u64,
    /// Dangling ancestor edges found by the causal-ordering scan.
    pub dangling_edges: u64,
    /// Coupled keys whose provenance did not survive deleting the data.
    pub persistence_failures: u64,
    /// WAL messages left after recovery.
    pub wal_leftover: u64,
    /// Temporary objects left after recovery.
    pub temp_leftover: u64,
    /// Ancestry-index entries disagreeing with the committed base
    /// records. A crash between the base write and the index write must
    /// heal on recommit — the WAL is only acknowledged after both.
    pub index_inconsistencies: u64,
    /// Staged feed events. Crash-replay duplicates inflate this past the
    /// commit count — allowed.
    pub feed_events: u64,
    /// Holes and reused numbers in the staged sequence (must be 0:
    /// staging allocates contiguously and never deletes).
    pub feed_seq_gaps: u64,
    /// Staged events above the durable watermark (must be 0: a recovery
    /// daemon's flush publishes any backlog a crashed predecessor left).
    pub feed_unpublished: u64,
    /// Committed transactions the live subscription never saw — the
    /// at-least-once guarantee (must be 0).
    pub feed_missing: u64,
    /// Duplicate deliveries the live subscription saw (allowed — crash
    /// replay produces them).
    pub feed_duplicates: u64,
    /// Delivery gaps plus out-of-order deliveries on the live
    /// subscription (must be 0).
    pub feed_gaps: u64,
    /// Errors the recovery and the audit's own reads hit (always
    /// violations).
    pub errors: Vec<String>,
}

/// What a harness hands [`Audit::collect`] once recovery is done.
pub(crate) struct Recovered<'a> {
    pub env: &'a CloudEnv,
    /// Reads back through the protocol's coupling detector.
    pub reader: &'a dyn StorageProtocol,
    pub layout: &'a Layout,
    /// Keys the read sweep covers.
    pub keys: &'a [String],
    /// Keys whose durability the harness promised.
    pub promised: &'a BTreeSet<String>,
    /// The WAL's queue name (also its feed stream) and URL; P3 only.
    pub wal: Option<(&'a str, &'a str)>,
    /// Transaction ids the commit listeners saw, in order.
    pub committed: &'a [Uuid],
    /// Whether the daemons staged a change feed.
    pub feed: bool,
    /// The live subscription, when one rode the daemons.
    pub live: Option<(&'a Subscriptions, &'a Subscription)>,
}

impl Audit {
    /// Runs every check whose subject `r` has. Reads in a fixed order,
    /// so a replayed run audits identically.
    pub(crate) fn collect(r: &Recovered) -> Audit {
        let p3 = r.wal.is_some();
        let mut a = Audit {
            p3,
            ..Audit::default()
        };
        let distinct: BTreeSet<Uuid> = r.committed.iter().copied().collect();
        a.unique_commits = distinct.len() as u64;
        a.double_commits = (r.committed.len() - distinct.len()) as u64;

        let mut persistence_candidate = None;
        for key in r.keys {
            match r.reader.read(key) {
                Ok(read) => {
                    let t = &mut a.coupling;
                    match read.coupling {
                        CouplingCheck::Coupled => t.coupled += 1,
                        CouplingCheck::ProvenanceMissing => t.provenance_missing += 1,
                        CouplingCheck::HashMismatch => t.hash_mismatch += 1,
                        CouplingCheck::Unlinked => t.unlinked += 1,
                    }
                    if read.id.is_some() && read.coupling.is_coupled() {
                        persistence_candidate.get_or_insert(key);
                    }
                }
                Err(ProtocolError::Cloud(CloudError::NoSuchKey { .. })) => {
                    a.coupling.missing_data += 1
                }
                Err(e) => a.errors.push(format!("read of {key}: {e}")),
            }
        }
        for key in r.promised {
            match r.reader.read(key) {
                Ok(read) if p3 && !read.coupling.is_coupled() => a.broken_promises += 1,
                Ok(_) => {}
                Err(_) => a.broken_promises += 1,
            }
        }
        let store = r.reader.provenance_store();
        if let Some(store) = &store {
            match check_causal_ordering(r.env, store) {
                Ok(report) => a.dangling_edges = report.dangling.len() as u64,
                Err(e) => a.errors.push(format!("causal scan: {e}")),
            }
        }
        if let Some((queue, url)) = r.wal {
            a.index_inconsistencies = audit_index(r.env, r.layout).inconsistencies() as u64;
            if r.feed {
                let staged = audit_feed(r.env, &r.layout.domain, queue);
                a.feed_events = staged.events as u64;
                a.feed_seq_gaps = staged.seq_gaps + staged.duplicate_seqs;
                a.feed_unpublished = staged.unpublished();
            }
            a.wal_leftover = r.env.sqs().peek_depth(url) as u64;
            let temps = r
                .env
                .s3()
                .peek_count(&r.layout.data_bucket, &r.layout.temp_prefix);
            a.temp_leftover = temps as u64;
        }
        if let Some((subs, sub)) = r.live {
            let mut seen = BTreeSet::new();
            while let Some(ev) = sub.try_next() {
                seen.insert(ev.txn);
            }
            let stats = subs.stats();
            a.feed_missing = distinct.difference(&seen).count() as u64;
            a.feed_duplicates = stats.duplicates;
            a.feed_gaps = stats.gaps + sub.out_of_order();
        }
        // Last: persistence deletes data, so nothing may read after it.
        // Only a *coupled* key qualifies: deleting data whose provenance
        // never made it (a P1/P2 coupling fact, tallied above) would
        // misreport a persistence violation.
        if let (Some(_), Some(key)) = (&store, persistence_candidate) {
            if let Some(id) = r.reader.read(key).ok().and_then(|read| read.id) {
                match check_persistence(r.env, r.reader, key, id) {
                    Ok(ok) => a.persistence_failures = u64::from(!ok),
                    Err(e) => a.errors.push(format!("persistence check: {e}")),
                }
            }
        }
        a
    }

    /// Hard violations — the conditions a CI run fails on. P1/P2's
    /// detectable coupling and causal damage under parallel upload are
    /// Table 1 facts, not failures; everything here is a broken
    /// guarantee.
    pub fn violations(&self) -> Vec<String> {
        let errors = self.errors.iter().map(|e| format!("recovery error: {e}"));
        let mut v: Vec<String> = errors.collect();
        let mut count = |n: u64, what: &str| {
            if n > 0 {
                v.push(format!("{n} {what}"));
            }
        };
        count(
            self.broken_promises,
            "durability promise(s) broken after recovery",
        );
        count(self.double_commits, "transaction(s) committed twice");
        count(
            self.wal_leftover,
            "WAL message(s) survived recovery + retention",
        );
        count(self.temp_leftover, "temp object(s) survived the cleaner");
        count(self.feed_seq_gaps, "sequence gap(s) in the staged feed");
        count(
            self.feed_unpublished,
            "staged feed event(s) never published after recovery",
        );
        count(
            self.feed_missing,
            "committed transaction(s) never reached the feed",
        );
        count(self.feed_gaps, "delivery gap(s) on the live subscription");
        if self.persistence_failures > 0 {
            v.push("provenance did not survive data deletion".into());
        }
        let c = &self.coupling;
        if self.p3 && self.dangling_edges > 0 {
            let n = self.dangling_edges;
            v.push(format!("P3 causal ordering violated: {n} dangling edge(s)"));
        }
        if self.p3 && c.detected_violations() + c.unlinked > 0 {
            v.push(format!(
                "P3 coupling violated: {} missing, {} mismatched, {} unlinked",
                c.provenance_missing, c.hash_mismatch, c.unlinked
            ));
        }
        if self.index_inconsistencies > 0 {
            let n = self.index_inconsistencies;
            v.push(format!(
                "ancestry index diverged from base records in {n} entr(ies)"
            ));
        }
        v
    }
}

impl AddAssign<&Audit> for Audit {
    /// Sums `o` into a sweep total.
    fn add_assign(&mut self, o: &Audit) {
        self.p3 |= o.p3;
        self.unique_commits += o.unique_commits;
        self.double_commits += o.double_commits;
        self.coupling += o.coupling;
        self.broken_promises += o.broken_promises;
        self.dangling_edges += o.dangling_edges;
        self.persistence_failures += o.persistence_failures;
        self.wal_leftover += o.wal_leftover;
        self.temp_leftover += o.temp_leftover;
        self.index_inconsistencies += o.index_inconsistencies;
        self.feed_events += o.feed_events;
        self.feed_seq_gaps += o.feed_seq_gaps;
        self.feed_unpublished += o.feed_unpublished;
        self.feed_missing += o.feed_missing;
        self.feed_duplicates += o.feed_duplicates;
        self.feed_gaps += o.feed_gaps;
        self.errors.extend(o.errors.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use parking_lot::Mutex;

    use cloudprov_cloud::{AwsProfile, Blob, Metadata, PutItem};
    use cloudprov_core::index::{index_domain, rev_item_name};
    use cloudprov_core::{
        object_metadata, CommitDaemon, FlushBatch, FlushObject, ProtocolConfig, P3,
    };
    use cloudprov_pass::{Attr, FlushNode, NodeKind, PNodeId, ProvenanceRecord};
    use cloudprov_sim::Sim;

    use super::*;

    #[test]
    fn every_check_fires_on_its_planted_defect() {
        // A clean one-transaction P3 store: committed, coupled, no debris.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let layout = Layout::default();
        let (queue, url) = ("wal-audit", "sqs://wal-audit");
        let p3 = P3::with_identity(&env, ProtocolConfig::default(), queue, "client");
        let id = PNodeId::initial(Uuid(1));
        let blob = Blob::from("payload");
        let node = FlushNode {
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
        };
        let objects = vec![FlushObject::file(node, "f", blob)];
        p3.flush(FlushBatch { objects }).unwrap();
        let committed = Arc::new(Mutex::new(Vec::new()));
        let daemon = CommitDaemon::new(&env, ProtocolConfig::default(), url);
        let ids = committed.clone();
        daemon.set_commit_listener(Arc::new(move |txn| ids.lock().push(txn)));
        daemon.run_until_idle().unwrap();
        let txns = committed.lock().clone();
        let keys = ["f".to_string()];
        let promised = BTreeSet::new();
        let collect = |committed: &[Uuid]| {
            Audit::collect(&Recovered {
                env: &env,
                reader: &p3,
                layout: &layout,
                keys: &keys,
                promised: &promised,
                wal: Some((queue, url)),
                committed,
                feed: false,
                live: None,
            })
        };
        let clean = collect(&txns);
        assert!(clean.violations().is_empty(), "{clean:#?}");
        assert_eq!(clean.coupling.coupled, 1);

        // One defect per check, planted one at a time: each check must
        // stay quiet before its defect and name it after. (The index
        // goes first: a dangling edge also implies a missing index item.)
        let put = |domain: &str, name: String, attr: &str, value: String| {
            let attrs = vec![(attr.to_string(), value)];
            let item = PutItem {
                name,
                attrs,
                replace: false,
            };
            env.sdb().put_attributes(domain, item).unwrap();
        };
        let stray = Blob::from("stray");
        let defects: [(&str, &dyn Fn()); 5] = [
            ("WAL message(s) survived", &|| {
                let body = stray.as_inline().expect("inline blob").clone();
                env.sqs().send(url, body).unwrap();
            }),
            ("temp object(s) survived", &|| {
                let key = format!("{}stray", layout.temp_prefix);
                let s3 = env.s3();
                s3.put(&layout.data_bucket, &key, stray.clone(), Metadata::new())
                    .unwrap();
            }),
            ("1 mismatched", &|| {
                let meta = object_metadata(id);
                let s3 = env.s3();
                s3.put(&layout.data_bucket, "f", stray.clone(), meta)
                    .unwrap();
            }),
            ("ancestry index diverged", &|| {
                let (ghost, dependent) = (PNodeId::initial(Uuid(4)), PNodeId::initial(Uuid(5)));
                let rev = rev_item_name(ghost, dependent);
                put(
                    &index_domain(&layout.domain),
                    rev,
                    "file",
                    dependent.to_string(),
                );
            }),
            ("1 dangling edge(s)", &|| {
                let (orphan, ghost) = (PNodeId::initial(Uuid(2)), PNodeId::initial(Uuid(3)));
                put(
                    &layout.domain,
                    orphan.to_string(),
                    Attr::Input.as_str(),
                    ghost.to_string(),
                );
            }),
        ];
        let named = |v: &[String], needle: &str| v.iter().any(|t| t.contains(needle));
        for (needle, plant) in defects {
            assert!(!named(&collect(&txns).violations(), needle), "{needle}");
            plant();
            let v = collect(&txns).violations();
            assert!(named(&v, needle), "planted {needle:?}, got {v:?}");
        }
        let doubled = [txns.clone(), txns].concat();
        let v = collect(&doubled).violations();
        assert!(named(&v, "1 transaction(s) committed twice"), "{v:?}");
    }
}
