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

use std::collections::{BTreeMap, BTreeSet};

use cloudprov_cloud::{quote_like_prefix, Actor, CloudEnv, SelectedItem};
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
    /// (the `rev_%` items carry nothing but edges).
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    pub fn adjacency(&self) -> Result<RevAdjacency> {
        Ok(RevAdjacency::decode(&self.rev_items()?))
    }

    /// The stored `rev_%` item versions [`adjacency`](Self::adjacency)
    /// decodes. The SELECT is `select *`, so each item's `attrs` is its
    /// stored version's own `Arc`, which the read tier's decode memo
    /// compares by identity.
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
        let adj = self.adjacency()?;
        let mut nodes: BTreeSet<PNodeId> = BTreeSet::new();
        for p in procs {
            for dep in adj.out.get(p).map(Vec::as_slice).unwrap_or(&[]) {
                if adj.files.contains(dep) {
                    nodes.insert(*dep);
                }
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
        let adj = self.adjacency()?;
        Ok(local::walk(seeds, |n| {
            adj.out.get(&n).map_or(&[], Vec::as_slice)
        }))
    }

    fn fetch_records(&self, nodes: &[PNodeId], mode: Mode) -> Result<Vec<ProvenanceRecord>> {
        self.base.fetch_records(nodes, mode)
    }
}
