//! [`SdbSelectSource`] — the P2/P3 layout: provenance items in SimpleDB,
//! every attribute service-indexed, reverse edges re-discovered with
//! `input in (...)` frontier SELECTs (§5.3).

use std::collections::BTreeSet;

use cloudprov_cloud::{quote_like_prefix, quote_literal, Actor, CloudEnv, Database};
use cloudprov_core::item_to_records;
use cloudprov_pass::{PNodeId, ProvenanceRecord};

use super::{GraphSource, Mode, OutputSet, Result};

/// SELECT-based access to the SimpleDB provenance domain.
#[derive(Clone, Debug)]
pub struct SdbSelectSource {
    env: CloudEnv,
    domain: String,
    parallelism: usize,
    in_batch: usize,
}

impl SdbSelectSource {
    /// A select source over `domain`, batching IN lists at `in_batch`
    /// ids and fanning independent SELECTs over `parallelism`
    /// connections.
    pub fn new(env: &CloudEnv, domain: &str, parallelism: usize, in_batch: usize) -> Self {
        SdbSelectSource {
            env: env.clone(),
            domain: domain.to_string(),
            parallelism: parallelism.max(1),
            in_batch: in_batch.max(1),
        }
    }

    fn sdb(&self) -> Database {
        self.env.sdb().with_actor(Actor::Query)
    }

    /// Runs one SELECT per query string (sequential or parallel) and
    /// concatenates the pages.
    fn run_selects(
        &self,
        queries: Vec<String>,
        mode: Mode,
    ) -> Result<Vec<cloudprov_cloud::SelectedItem>> {
        let sdb = self.sdb();
        match mode {
            Mode::Sequential => {
                let mut out = Vec::new();
                for q in &queries {
                    out.extend(sdb.select_all(q)?);
                }
                Ok(out)
            }
            Mode::Parallel => {
                let sim = self.env.sim().clone();
                let tasks: Vec<_> = queries
                    .into_iter()
                    .map(|q| {
                        let sdb = sdb.clone();
                        move || -> Result<Vec<cloudprov_cloud::SelectedItem>> {
                            Ok(sdb.select_all(&q)?)
                        }
                    })
                    .collect();
                let results = sim.run_parallel(self.parallelism, tasks);
                let mut out = Vec::new();
                for r in results {
                    out.extend(r?);
                }
                Ok(out)
            }
        }
    }

    fn in_list(ids: &[PNodeId]) -> String {
        ids.iter()
            .map(|i| quote_literal(&i.to_string()))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl GraphSource for SdbSelectSource {
    fn name(&self) -> &'static str {
        "sdb-select"
    }

    fn all_records(&self, _mode: Mode) -> Result<Vec<ProvenanceRecord>> {
        // SELECT * pages chain through next-tokens: inherently
        // sequential (§5.3), whatever the requested mode.
        let items = self
            .sdb()
            .select_all(&format!("select * from {}", self.domain))?;
        Ok(items
            .iter()
            .flat_map(|i| item_to_records(&i.name, &i.attrs))
            .collect())
    }

    fn uuid_records(&self, id: PNodeId) -> Result<Vec<ProvenanceRecord>> {
        let items = self.sdb().select_all(&format!(
            "select * from {} where itemName() like {}",
            self.domain,
            quote_like_prefix(&id.uuid.to_string(), "_%")
        ))?;
        Ok(items
            .iter()
            .flat_map(|i| item_to_records(&i.name, &i.attrs))
            .collect())
    }

    fn processes_named(&self, program: &str, _mode: Mode) -> Result<Vec<PNodeId>> {
        let procs = self.sdb().select_all(&format!(
            "select itemName() from {} where type = 'process' and name = {}",
            self.domain,
            quote_literal(program)
        ))?;
        Ok(procs.iter().filter_map(|p| p.name.parse().ok()).collect())
    }

    fn direct_outputs(&self, procs: &[PNodeId], mode: Mode) -> Result<OutputSet> {
        // One SELECT per process for its direct file dependents
        // (parallelizable) — the paper's Q.3 shape.
        let queries: Vec<String> = procs
            .iter()
            .map(|p| {
                format!(
                    "select * from {} where type = 'file' and input = {}",
                    self.domain,
                    quote_literal(&p.to_string())
                )
            })
            .collect();
        let items = self.run_selects(queries, mode)?;
        let mut nodes: BTreeSet<PNodeId> = BTreeSet::new();
        let mut records = Vec::new();
        for i in &items {
            if let Ok(id) = i.name.parse::<PNodeId>() {
                if nodes.insert(id) {
                    records.extend(item_to_records(&i.name, &i.attrs));
                }
            }
        }
        Ok(OutputSet {
            nodes: nodes.into_iter().collect(),
            records,
        })
    }

    fn descendants_of(&self, seeds: &[PNodeId], mode: Mode) -> Result<Vec<PNodeId>> {
        // Repeat the reference-finding SELECT recursively until all
        // descendants are located (§5.3), batching frontier ids into IN
        // lists.
        let mut frontier: BTreeSet<PNodeId> = seeds.iter().copied().collect();
        let mut seen: BTreeSet<PNodeId> = frontier.clone();
        let mut result: BTreeSet<PNodeId> = BTreeSet::new();
        while !frontier.is_empty() {
            let ids: Vec<PNodeId> = frontier.iter().copied().collect();
            let queries: Vec<String> = ids
                .chunks(self.in_batch)
                .map(|chunk| {
                    format!(
                        "select itemName() from {} where input in ({})",
                        self.domain,
                        Self::in_list(chunk)
                    )
                })
                .collect();
            let items = self.run_selects(queries, mode)?;
            let mut next = BTreeSet::new();
            for item in items {
                let Ok(id) = item.name.parse::<PNodeId>() else {
                    continue;
                };
                if seen.insert(id) {
                    result.insert(id);
                    next.insert(id);
                }
            }
            frontier = next;
        }
        Ok(result.into_iter().collect())
    }

    fn fetch_records(&self, nodes: &[PNodeId], mode: Mode) -> Result<Vec<ProvenanceRecord>> {
        let queries: Vec<String> = nodes
            .chunks(self.in_batch)
            .map(|chunk| {
                format!(
                    "select * from {} where itemName() in ({})",
                    self.domain,
                    Self::in_list(chunk)
                )
            })
            .collect();
        let items = self.run_selects(queries, mode)?;
        Ok(items
            .iter()
            .flat_map(|i| item_to_records(&i.name, &i.attrs))
            .collect())
    }
}
