//! [`IndexSource`] — reads the commit-time ancestry index
//! ([`cloudprov_core::index`]) that P3's commit daemon maintains next to
//! the provenance items.
//!
//! The index domain holds *only* graph structure (reverse `input` edges
//! with a file marker, plus program → process seeds), so it is tiny next
//! to the record log: fetching the whole materialized reverse adjacency
//! costs a handful of lean SELECT pages, after which Q.4's walk is local
//! — versus one `input in (...)` SELECT per 20 frontier ids per round on
//! the non-indexed path. Q.3 is one seed lookup plus the same adjacency.
//!
//! Every call fetches the `rev_` items afresh, but parses them only once
//! per world: [`RevDecodes`], the one decode memo every engine and the
//! read tier reach through their [`CloudEnv`], hands back its last
//! snapshot when the fetch returns, in order, the very stored versions
//! that snapshot was decoded from.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;

use cloudprov_cloud::{quote_like_prefix, Actor, Attributes, CloudEnv, SelectedItem};
use cloudprov_core::index as schema;
use cloudprov_pass::{PNodeId, ProvenanceRecord};

use super::{local, GraphSource, Mode, OutputSet, Result, SdbSelectSource};

/// The materialized reverse adjacency, as stored by the commit daemon.
#[derive(Clone, Debug, Default)]
pub struct RevAdjacency {
    /// Dependents per ancestor, over `input` edges.
    pub out: BTreeMap<PNodeId, Vec<PNodeId>>,
    /// The dependents that are files (Q.3's filter).
    pub files: BTreeSet<PNodeId>,
}

/// One ancestor's materialized reverse-edge page: its dependents over
/// `input` edges and the subset of those that are files (Q.3's filter,
/// localized from the adjacency's global file set).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct RevPage {
    /// Dependents of this ancestor.
    pub(crate) out: Vec<PNodeId>,
    /// The dependents that are files.
    pub(crate) files: Vec<PNodeId>,
}

/// One decoded snapshot of the `rev_` index: a page per ancestor, its
/// `files` already localized, shared by reference with every cache entry
/// installed from it.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct IndexPages {
    pub(crate) pages: BTreeMap<PNodeId, Arc<RevPage>>,
}

impl IndexPages {
    /// Splits `adj` into pages: each ancestor's dependents, and those of
    /// them that are files.
    pub(crate) fn new(adj: RevAdjacency) -> IndexPages {
        let RevAdjacency { out, files } = adj;
        let pages = out
            .into_iter()
            .map(|(node, out)| {
                let files = out.iter().copied().filter(|d| files.contains(d)).collect();
                (node, Arc::new(RevPage { out, files }))
            })
            .collect();
        IndexPages { pages }
    }

    /// `node`'s page, if the index stores one.
    pub(crate) fn get(&self, node: &PNodeId) -> Option<&RevPage> {
        self.pages.get(node).map(Arc::as_ref)
    }

    /// `node`'s dependents; none when the index stores no page for it.
    pub(crate) fn out(&self, node: &PNodeId) -> &[PNodeId] {
        self.get(node).map_or(&[], |p| p.out.as_slice())
    }
}

/// The world's `rev_` decode memo, one per [`CloudEnv`]
/// ([`CloudEnv::memo`]): the last snapshot decoded and the stored
/// versions it was decoded from. Holding the versions keeps their
/// addresses from being reused by newer ones.
#[derive(Default)]
pub(crate) struct RevDecodes {
    last: Mutex<Decoded>,
}

#[derive(Default)]
struct Decoded {
    versions: Vec<Arc<Attributes>>,
    pages: Arc<IndexPages>,
    decodes: u64,
}

impl RevDecodes {
    /// The decoded form of a `rev_` fetch. When `items` are, in order,
    /// the very stored versions the last decode saw, that decode is
    /// handed back: a published version never changes and belongs to one
    /// item, so the parse would rebuild the same pages.
    pub(crate) fn decode(&self, items: &[SelectedItem]) -> Arc<IndexPages> {
        let mut last = self.last.lock();
        let unchanged = last.versions.len() == items.len()
            && last
                .versions
                .iter()
                .zip(items)
                .all(|(v, item)| Arc::ptr_eq(v, &item.attrs));
        if !unchanged {
            last.pages = Arc::new(IndexPages::new(RevAdjacency::decode(items)));
            last.versions = items.iter().map(|item| Arc::clone(&item.attrs)).collect();
            last.decodes += 1;
        }
        Arc::clone(&last.pages)
    }

    /// Fetches that had to be parsed: their stored versions were not the
    /// ones the previous decode saw.
    #[cfg(test)]
    pub(crate) fn decodes(&self) -> u64 {
        self.last.lock().decodes
    }
}

/// Index-backed access: point lookups and bounded walks against the
/// `{domain}_idx` sibling domain; record hydration and full scans
/// delegate to the base domain.
#[derive(Clone, Debug)]
pub struct IndexSource {
    env: CloudEnv,
    index_domain: String,
    /// Non-indexed questions (Q.1 scans, record hydration) fall through
    /// to the base domain.
    base: SdbSelectSource,
}

impl IndexSource {
    /// An index source over `index_domain`, with `domain` as the base
    /// record log for hydration.
    pub fn new(
        env: &CloudEnv,
        domain: &str,
        index_domain: &str,
        parallelism: usize,
        in_batch: usize,
    ) -> IndexSource {
        IndexSource {
            env: env.clone(),
            index_domain: index_domain.to_string(),
            base: SdbSelectSource::new(env, domain, parallelism, in_batch),
        }
    }

    /// Committed index item count (planner statistic; models SimpleDB's
    /// free `DomainMetadata` call, unmetered).
    pub fn item_count(&self) -> usize {
        self.env.sdb().peek_item_count(&self.index_domain)
    }

    /// Fetches the whole materialized reverse adjacency in lean pages
    /// (the `rev_%` items carry nothing but edges) and decodes it through
    /// the world's memo.
    pub(crate) fn pages(&self) -> Result<Arc<IndexPages>> {
        let items = self.rev_items()?;
        Ok(self.env.memo::<RevDecodes>().decode(&items))
    }

    /// The stored `rev_%` item versions the index plans decode. The
    /// SELECT is `select *`, so each item's `attrs` is its stored
    /// version's own `Arc`, which the decode memo compares by identity.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    pub fn rev_items(&self) -> Result<Vec<SelectedItem>> {
        Ok(self
            .env
            .sdb()
            .with_actor(Actor::Query)
            .select_all(&format!(
                "select * from {} where itemName() like '{}%'",
                self.index_domain,
                schema::REV_PREFIX
            ))?)
    }
}

impl RevAdjacency {
    /// Parses fetched `rev_` items into the adjacency they store.
    pub fn decode(items: &[SelectedItem]) -> RevAdjacency {
        let mut adj = RevAdjacency::default();
        for item in items {
            let Some(ancestor) = schema::parse_rev_item(&item.name) else {
                continue;
            };
            for (attr, value) in item.attrs.iter() {
                let Ok(dep) = value.parse::<PNodeId>() else {
                    continue;
                };
                match attr.as_str() {
                    schema::ATTR_OUT => adj.out.entry(ancestor).or_default().push(dep),
                    schema::ATTR_FILE => {
                        adj.files.insert(dep);
                    }
                    _ => {}
                }
            }
        }
        adj
    }
}

impl GraphSource for IndexSource {
    fn name(&self) -> &'static str {
        "index"
    }

    fn all_records(&self, mode: Mode) -> Result<Vec<ProvenanceRecord>> {
        self.base.all_records(mode)
    }

    fn uuid_records(&self, id: PNodeId) -> Result<Vec<ProvenanceRecord>> {
        self.base.uuid_records(id)
    }

    fn processes_named(&self, program: &str, _mode: Mode) -> Result<Vec<PNodeId>> {
        // One lookup: the buckets of `name_{program}` share a LIKE
        // prefix, so a single SELECT returns every seed.
        let items = self
            .env
            .sdb()
            .with_actor(Actor::Query)
            .select_all(&format!(
                "select * from {} where itemName() like {}",
                self.index_domain,
                quote_like_prefix(&format!("{}{}~", schema::NAME_PREFIX, program), "%")
            ))?;
        let mut out: BTreeSet<PNodeId> = BTreeSet::new();
        for item in items {
            // LIKE over-matches programs sharing the prefix; keep exact.
            if schema::parse_name_item(&item.name) != Some(program) {
                continue;
            }
            for (attr, value) in item.attrs.iter() {
                if attr == schema::ATTR_PROC {
                    if let Ok(id) = value.parse() {
                        out.insert(id);
                    }
                }
            }
        }
        Ok(out.into_iter().collect())
    }

    fn direct_outputs(&self, procs: &[PNodeId], _mode: Mode) -> Result<OutputSet> {
        let pages = self.pages()?;
        let mut nodes: BTreeSet<PNodeId> = BTreeSet::new();
        for p in procs {
            if let Some(page) = pages.get(p) {
                nodes.extend(page.files.iter().copied());
            }
        }
        // Nodes only: the index identifies the result without touching
        // the record log. Hydrate via `fetch_records` when needed.
        Ok(OutputSet {
            nodes: nodes.into_iter().collect(),
            records: Vec::new(),
        })
    }

    fn descendants_of(&self, seeds: &[PNodeId], _mode: Mode) -> Result<Vec<PNodeId>> {
        // Bounded walk: one adjacency fetch, then a local BFS over the
        // materialized reverse edges.
        let pages = self.pages()?;
        Ok(local::walk(seeds, |n| pages.out(&n)))
    }

    fn fetch_records(&self, nodes: &[PNodeId], mode: Mode) -> Result<Vec<ProvenanceRecord>> {
        self.base.fetch_records(nodes, mode)
    }
}
