//! The commit-time ancestry index.
//!
//! The SimpleDB layout indexes every *attribute*, so a forward lookup
//! ("what does F depend on?") is one SELECT — but the §5.3 lineage
//! queries walk the graph **backwards** (Q.3 "files output by program",
//! Q.4 "descendants of program") and had to re-discover reverse edges by
//! issuing `input in (...)` SELECTs per frontier round against the full
//! record log. Following the cloud-aware-provenance line of work, this
//! module treats the queryable lineage graph itself as a first-class
//! artifact: P3's commit daemon maintains, in the same commit step that
//! writes provenance items, a lean *ancestry index* in a sibling domain
//! (`{domain}_idx`) holding nothing but the graph structure:
//!
//! * **Reverse-edge items** `rev_{ancestor}~{b}` — one item per
//!   (ancestor node, bucket): multi-valued attribute `out` lists the
//!   nodes carrying an `input` edge to the ancestor, and `file` repeats
//!   the subset of those that are files (Q.3's `type = 'file'` filter,
//!   resolved at commit time). Buckets spread one ancestor's fan-in over
//!   [`REV_BUCKETS`] items so a hub node cannot silently overflow the
//!   service's 256-attribute item limit.
//! * **Program items** `name_{program}~{b}` — multi-valued attribute
//!   `proc` lists the process nodes named `program` (Q.3/Q.4's seed
//!   lookup).
//!
//! Every update is derived **purely from the records of one committed
//! transaction** — a dependent's `type` travels with its `input` edges,
//! and a process's `name` travels with its `type` — so index writes are
//! order-free across transactions, idempotent under redelivery
//! (SimpleDB deduplicates exact attribute pairs), and crash-safe: the
//! daemon writes the group's base items, then the index
//! (`p3:commit:group:index`), then acknowledges the WAL, so a crash
//! between base and index write leaves unacknowledged transactions
//! whose recommit rewrites both.
//!
//! [`audit_index`] is the machine-checked invariant: rebuild the
//! expected index from the committed base records and diff it against
//! the stored index, attribute pair by attribute pair. The chaos
//! explorer runs it after every crash/recovery schedule.

use std::collections::BTreeMap;

use cloudprov_cloud::{Attributes, CloudEnv, PutItem, ATTRIBUTE_LIMIT};
use cloudprov_pass::{Attr, NodeKind, PNodeId, ProvenanceRecord};

use crate::layout::Layout;
use crate::protocol::item_to_records;

/// Suffix appended to the provenance domain to name the index domain.
pub const INDEX_SUFFIX: &str = "_idx";

/// Buckets one ancestor's reverse edges are spread over (fan-in beyond
/// `REV_BUCKETS × 256` attribute pairs would overflow the item limit; 4
/// buckets give headroom of ~1000 direct dependents per node, far above
/// any workload here — [`audit_index`] catches it if one ever exceeds
/// that).
pub const REV_BUCKETS: u64 = 4;

/// Attribute listing a node's direct dependents (reverse `input` edges).
pub const ATTR_OUT: &str = "out";
/// Attribute listing the *file* subset of a node's direct dependents.
pub const ATTR_FILE: &str = "file";
/// Attribute listing the process nodes carrying a program name.
pub const ATTR_PROC: &str = "proc";

/// Item-name prefix of reverse-edge items.
pub const REV_PREFIX: &str = "rev_";
/// Item-name prefix of program items.
pub const NAME_PREFIX: &str = "name_";

/// Name of the ancestry-index domain for a provenance domain.
pub fn index_domain(domain: &str) -> String {
    format!("{domain}{INDEX_SUFFIX}")
}

fn bucket_of(dependent: PNodeId) -> u64 {
    cloudprov_cloud::fnv1a64(dependent.to_string().as_bytes()) % REV_BUCKETS
}

/// Item name of the reverse-edge bucket holding `dependent`'s edge to
/// `ancestor`.
pub fn rev_item_name(ancestor: PNodeId, dependent: PNodeId) -> String {
    format!("{REV_PREFIX}{ancestor}~{}", bucket_of(dependent))
}

/// The ancestor a reverse-edge item name refers to.
pub fn parse_rev_item(name: &str) -> Option<PNodeId> {
    let rest = name.strip_prefix(REV_PREFIX)?;
    let (id, _bucket) = rest.rsplit_once('~')?;
    id.parse().ok()
}

/// Item name of the program bucket holding process `proc` under
/// `program`.
pub fn name_item_name(program: &str, proc: PNodeId) -> String {
    format!("{NAME_PREFIX}{program}~{}", bucket_of(proc))
}

/// The program a program item name refers to.
pub fn parse_name_item(name: &str) -> Option<&str> {
    let rest = name.strip_prefix(NAME_PREFIX)?;
    let (program, _bucket) = rest.rsplit_once('~')?;
    Some(program)
}

/// Derives the index writes for one committed transaction's records.
///
/// Pure function: callers (the commit daemon, the audit) feed it record
/// sets and get `PutItem`s for the index domain. Edges considered are
/// `input` cross-references — the exact edge set the SELECT
/// frontier-expansion path expands — and a dependent is `file`-marked
/// when its own `type` record rides in the same record set (which it
/// always does: a version's `type` is stamped when the version is
/// created, before any of its edges).
pub fn index_updates(records: &[ProvenanceRecord]) -> Vec<PutItem> {
    let mut kinds: BTreeMap<PNodeId, NodeKind> = BTreeMap::new();
    let mut names: BTreeMap<PNodeId, &str> = BTreeMap::new();
    for r in records {
        match (&r.attr, &r.value) {
            (Attr::Type, v) => {
                let k = match v.to_text().as_str() {
                    "process" => NodeKind::Process,
                    "pipe" => NodeKind::Pipe,
                    _ => NodeKind::File,
                };
                kinds.insert(r.subject, k);
            }
            // Names above the 1 KB attribute limit are spilled to S3 by
            // the base-item path and stored as `@s3:` pointers — neither
            // form is a usable program seed, and indexing either would
            // make the commit-time writer (which sees the raw record)
            // and the audit (which sees the spilled base item) disagree.
            // Both forms are skipped.
            (Attr::Name, cloudprov_pass::AttrValue::Text(n))
                if n.len() <= ATTRIBUTE_LIMIT && !n.starts_with("@s3:") =>
            {
                names.insert(r.subject, n.as_str());
            }
            _ => {}
        }
    }
    let mut items: BTreeMap<String, Attributes> = BTreeMap::new();
    for r in records {
        if r.attr != Attr::Input {
            continue;
        }
        let Some(ancestor) = r.value.as_xref() else {
            continue;
        };
        let dependent = r.subject;
        let attrs = items.entry(rev_item_name(ancestor, dependent)).or_default();
        let dep = dependent.to_string();
        attrs.push((ATTR_OUT.to_string(), dep.clone()));
        if kinds.get(&dependent) == Some(&NodeKind::File) {
            attrs.push((ATTR_FILE.to_string(), dep));
        }
    }
    for (node, kind) in &kinds {
        if *kind != NodeKind::Process {
            continue;
        }
        let Some(name) = names.get(node) else {
            continue;
        };
        items
            .entry(name_item_name(name, *node))
            .or_default()
            .push((ATTR_PROC.to_string(), node.to_string()));
    }
    items
        .into_iter()
        .map(|(name, attrs)| PutItem {
            name,
            attrs,
            replace: false,
        })
        .collect()
}

/// Coalesces index writes from several transactions of one commit group.
///
/// Two transactions touching the same ancestor (or the same program
/// name) in the same bucket produce `PutItem`s with the same item name;
/// writing them as one merged item is byte-equivalent in the store
/// (SimpleDB accumulates multi-valued attributes and deduplicates exact
/// `(name, value)` repeats) but saves the per-item box time of writing
/// the shared rows twice. Order-free and idempotent like the underlying
/// updates, so recommitting a partially merged group converges.
pub fn merge_index_items(items: Vec<PutItem>) -> Vec<PutItem> {
    let mut merged: BTreeMap<String, Attributes> = BTreeMap::new();
    for item in items {
        let attrs = merged.entry(item.name).or_default();
        for (a, v) in item.attrs {
            if !attrs.iter().any(|(ea, ev)| *ea == a && *ev == v) {
                attrs.push((a, v));
            }
        }
    }
    merged
        .into_iter()
        .map(|(name, attrs)| PutItem {
            name,
            attrs,
            replace: false,
        })
        .collect()
}

/// Outcome of an index ↔ base-record consistency audit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexAudit {
    /// `(item, attr, value)` triples derivable from the base records but
    /// absent from the index — a commit that wrote provenance without its
    /// index entries.
    pub missing: Vec<(String, String, String)>,
    /// Triples present in the index but not derivable from the base —
    /// phantom entries describing provenance that never committed.
    pub unexpected: Vec<(String, String, String)>,
    /// Attribute pairs the stored index holds.
    pub entries: usize,
}

impl IndexAudit {
    /// True when the index and the base records agree exactly.
    pub fn consistent(&self) -> bool {
        self.missing.is_empty() && self.unexpected.is_empty()
    }

    /// Total disagreements (the chaos explorer's violation count).
    pub fn inconsistencies(&self) -> usize {
        self.missing.len() + self.unexpected.len()
    }
}

/// Diffs the stored ancestry index against what the committed base
/// records imply. Instrumentation-path only (peeks bypass metering and
/// consistency): this is the invariant checker, not a query path.
pub fn audit_index(env: &CloudEnv, layout: &Layout) -> IndexAudit {
    let base: Vec<ProvenanceRecord> = env
        .sdb()
        .peek_items(&layout.domain)
        .iter()
        .flat_map(|(name, attrs)| item_to_records(name, attrs))
        .collect();
    let mut expected: BTreeMap<(String, String, String), ()> = BTreeMap::new();
    for item in index_updates(&base) {
        for (a, v) in item.attrs {
            expected.insert((item.name.clone(), a, v), ());
        }
    }
    let mut audit = IndexAudit::default();
    let mut actual: BTreeMap<(String, String, String), ()> = BTreeMap::new();
    for (name, attrs) in env.sdb().peek_items(&index_domain(&layout.domain)) {
        for (a, v) in attrs {
            actual.insert((name.clone(), a, v), ());
        }
    }
    audit.entries = actual.len();
    for key in expected.keys() {
        if !actual.contains_key(key) {
            audit.missing.push(key.clone());
        }
    }
    for key in actual.keys() {
        if !expected.contains_key(key) {
            audit.unexpected.push(key.clone());
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_pass::Uuid;

    fn nid(n: u128, v: u32) -> PNodeId {
        PNodeId {
            uuid: Uuid(n),
            version: v,
        }
    }

    /// proc(2, "gen") reads file(1); file(3) written by proc(2).
    fn txn_records() -> Vec<ProvenanceRecord> {
        vec![
            ProvenanceRecord::new(nid(1, 1), Attr::Type, "file"),
            ProvenanceRecord::new(nid(2, 1), Attr::Type, "process"),
            ProvenanceRecord::new(nid(2, 1), Attr::Name, "gen"),
            ProvenanceRecord::new(nid(2, 1), Attr::Input, nid(1, 1)),
            ProvenanceRecord::new(nid(3, 1), Attr::Type, "file"),
            ProvenanceRecord::new(nid(3, 1), Attr::Name, "/out"),
            ProvenanceRecord::new(nid(3, 1), Attr::Input, nid(2, 1)),
        ]
    }

    #[test]
    fn updates_cover_reverse_edges_and_program_seeds() {
        let items = index_updates(&txn_records());
        // rev item for file(1) lists proc(2) as a non-file dependent.
        let rev1 = items
            .iter()
            .find(|i| parse_rev_item(&i.name) == Some(nid(1, 1)))
            .expect("rev item for the read file");
        assert!(rev1
            .attrs
            .contains(&(ATTR_OUT.into(), nid(2, 1).to_string())));
        assert!(!rev1.attrs.iter().any(|(a, _)| a == ATTR_FILE));
        // rev item for proc(2) lists file(3) as a file dependent.
        let rev2 = items
            .iter()
            .find(|i| parse_rev_item(&i.name) == Some(nid(2, 1)))
            .expect("rev item for the process");
        assert!(rev2
            .attrs
            .contains(&(ATTR_FILE.into(), nid(3, 1).to_string())));
        // name item seeds Q.3 for "gen".
        let name = items
            .iter()
            .find(|i| parse_name_item(&i.name) == Some("gen"))
            .expect("program item");
        assert!(name
            .attrs
            .contains(&(ATTR_PROC.into(), nid(2, 1).to_string())));
        // Files with names do NOT get program items.
        assert!(!items
            .iter()
            .any(|i| parse_name_item(&i.name) == Some("/out")));
    }

    #[test]
    fn updates_are_a_pure_function() {
        assert_eq!(index_updates(&txn_records()), index_updates(&txn_records()));
        assert!(index_updates(&[]).is_empty());
    }

    #[test]
    fn oversized_and_spilled_names_are_never_seeds() {
        // The raw record (what the commit daemon sees) carries the huge
        // name; the base item (what the audit rebuilds from) carries its
        // spill pointer. Both derivations must agree: no seed either way.
        let p = nid(5, 1);
        let huge = "n".repeat(2048);
        let raw = vec![
            ProvenanceRecord::new(p, Attr::Type, "process"),
            ProvenanceRecord::new(p, Attr::Name, huge),
        ];
        let spilled = vec![
            ProvenanceRecord::new(p, Attr::Type, "process"),
            ProvenanceRecord::new(p, Attr::Name, "@s3:prov/xattr/spilled"),
        ];
        assert!(index_updates(&raw).is_empty());
        assert!(index_updates(&spilled).is_empty());
    }

    #[test]
    fn item_names_roundtrip() {
        let a = nid(7, 3);
        let d = nid(9, 1);
        assert_eq!(parse_rev_item(&rev_item_name(a, d)), Some(a));
        assert_eq!(
            parse_name_item(&name_item_name("bl~ast", d)),
            Some("bl~ast")
        );
        assert_eq!(parse_rev_item("name_x~0"), None);
        assert_eq!(parse_name_item("rev_x~0"), None);
    }

    #[test]
    fn cross_txn_merge_coalesces_shared_items_without_changing_state() {
        // Two transactions whose dependents share an ancestor bucket
        // merge into one item; distinct pairs survive, exact repeats
        // (a redelivered transaction in the same group) deduplicate.
        let a_txn = txn_records();
        let mut b_txn = txn_records();
        b_txn.push(ProvenanceRecord::new(nid(4, 1), Attr::Type, "file"));
        b_txn.push(ProvenanceRecord::new(nid(4, 1), Attr::Input, nid(2, 1)));
        let separate: Vec<PutItem> = index_updates(&a_txn)
            .into_iter()
            .chain(index_updates(&b_txn))
            .collect();
        let merged = merge_index_items(separate.clone());
        assert!(merged.len() < separate.len(), "shared items must coalesce");
        // Pair-for-pair the merged plan equals the accumulated effect of
        // the separate writes (SimpleDB dedupes exact repeats anyway).
        let flatten = |items: &[PutItem]| {
            let mut set = std::collections::BTreeSet::new();
            for i in items {
                for (a, v) in &i.attrs {
                    set.insert((i.name.clone(), a.clone(), v.clone()));
                }
            }
            set
        };
        assert_eq!(flatten(&merged), flatten(&separate));
        // Idempotent: merging a merge changes nothing.
        assert_eq!(merge_index_items(merged.clone()), merged);
    }

    #[test]
    fn buckets_spread_fan_in() {
        let hub = nid(42, 1);
        let names: std::collections::BTreeSet<String> = (0..64u128)
            .map(|i| rev_item_name(hub, nid(100 + i, 1)))
            .collect();
        assert!(names.len() > 1, "fan-in must spread over buckets");
        assert!(names.len() <= REV_BUCKETS as usize);
    }
}
