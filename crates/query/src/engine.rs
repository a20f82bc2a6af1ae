//! The provenance query engine (§5.3), shrunk to a planner.
//!
//! Executes the paper's four queries against any provenance layout:
//!
//! * **Q.1** Retrieve all the provenance ever recorded.
//! * **Q.2** Given an object, retrieve the provenance of all its versions.
//! * **Q.3** Find all files directly output by a named program.
//! * **Q.4** Find all descendants of files derived from a named program.
//!
//! All layout access goes through the pluggable [`GraphSource`] backends
//! in [`crate::source`] — the S3 scan, SimpleDB SELECTs, or the
//! commit-time ancestry index — and the engine's own job is reduced to
//! picking a plan per query (see [`crate::planner`]), executing it, and
//! reporting cost metrics plus the plan taken. Against the **S3 layout**
//! (P1) every query except Q.2 degenerates to a full scan; against the
//! **SimpleDB layout** (P2/P3) Q.3/Q.4 become selective SELECTs (the
//! order-of-magnitude gap of Table 5); with a P3 **ancestry index** the
//! planner routes Q.3 to one seed lookup and Q.4 to a bounded walk over
//! materialized reverse edges; with a feed-coherent
//! [`AncestryCache`](crate::AncestryCache) attached
//! ([`QueryEngine::with_cache`]) warm Q.3/Q.4 are served from memory
//! without a single store op.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::{Actor, CloudEnv, TenantId, SELECT_IN_LIMIT};
use cloudprov_core::{ProtocolError, ProvenanceStore};
use cloudprov_pass::{PNodeId, ProvenanceRecord};

use crate::cache::AncestryCache;
use crate::planner::{
    self, CacheOutcome, CacheState, DomainStats, Plan, PlanHistory, PlanReport, QueryKind,
};
use crate::source::{
    local, object_link, resolve_spill, GraphSource, IndexSource, Mode, OutputSet, S3ScanSource,
    ScanMemo, SdbSelectSource,
};

type Result<T> = std::result::Result<T, ProtocolError>;

/// Cost of one query execution (the Table 5 columns).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryMetrics {
    /// Elapsed virtual time.
    pub elapsed: Duration,
    /// Cloud operations issued.
    pub ops: u64,
    /// Bytes transferred (request + response payloads).
    pub bytes: u64,
}

/// Result of a query: matching records plus execution cost and the plan
/// the engine chose.
#[derive(Clone, Debug, Default)]
pub struct QueryOutput {
    /// Provenance records in the result set (empty for plans that
    /// identify nodes without touching the record log — hydrate with
    /// [`QueryEngine::hydrate`]).
    pub records: Vec<ProvenanceRecord>,
    /// Node versions the query identified (for Q.3/Q.4).
    pub nodes: Vec<PNodeId>,
    /// Execution cost.
    pub metrics: QueryMetrics,
    /// The access path the planner picked, its cost figure and reason.
    pub plan: PlanReport,
}

/// Parallel connections for [`Mode::Parallel`] (the paper's query tool
/// achieved ≈7× on Q.1 over S3).
const PARALLELISM: usize = 8;

/// IDs per IN-list when batching frontier expansions (Q.4 over SimpleDB):
/// the service's cap on comparisons per predicate.
const IN_BATCH: usize = SELECT_IN_LIMIT;

/// The query engine over a provenance store.
///
/// Construct with [`QueryEngine::new`] and scope it through the builder
/// setters.
pub struct QueryEngine {
    env: CloudEnv,
    store: ProvenanceStore,
    data_bucket: String,
    force: Option<Plan>,
    /// Shared with pinned views ([`QueryEngine::with_plan_ref`]): a
    /// measurement taken through any view feeds every view's planner.
    history: Arc<Mutex<PlanHistory>>,
    /// The last scan-plan fold, shared with pinned views as `history` is
    /// and handed to every [`S3ScanSource`] this engine builds.
    scans: Arc<ScanMemo>,
    /// The shared read-tier cache, when attached
    /// ([`QueryEngine::with_cache`]); the planner offers `Plan::Cached`
    /// only while it is usable.
    cache: Option<Arc<AncestryCache>>,
    /// Tenant whose meter line this engine's queries are measured from
    /// ([`QueryEngine::with_tenant`]); also the quota owner of cache
    /// entries this engine hydrates.
    tenant: Option<TenantId>,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("store", &self.store)
            .field("force", &self.force)
            .finish()
    }
}

impl QueryEngine {
    /// Creates an engine for a store; `data_bucket` is where primary data
    /// objects live (Q.2 starts from an object HEAD).
    pub fn new(env: &CloudEnv, store: ProvenanceStore, data_bucket: &str) -> QueryEngine {
        QueryEngine {
            env: env.clone(),
            store,
            data_bucket: data_bucket.to_string(),
            force: None,
            history: Arc::new(Mutex::new(PlanHistory::default())),
            scans: Arc::default(),
            cache: None,
            tenant: None,
        }
    }

    /// Attaches the shared read-tier cache: Q.3/Q.4 gain the `Cached`
    /// plan while the cache is usable (attached to a gap-free feed).
    pub fn with_cache(mut self, cache: Arc<AncestryCache>) -> QueryEngine {
        self.cache = Some(cache);
        self
    }

    /// Scopes this engine to `tenant`: cloud calls are attributed to (and
    /// metrics measured from) the tenant's meter line — so concurrent
    /// engines on other sim threads cannot contaminate each other's
    /// [`QueryMetrics`] — and cache entries it hydrates are charged to
    /// the tenant's quota.
    pub fn with_tenant(mut self, tenant: TenantId) -> QueryEngine {
        self.env = self.env.for_tenant(tenant);
        self.tenant = Some(tenant);
        self
    }

    /// Pins every subsequent query to one access path (benchmarks
    /// comparing paths). Paths the layout lacks are ignored and planning
    /// resumes.
    pub fn with_plan(mut self, plan: Plan) -> QueryEngine {
        self.force = Some(plan);
        self
    }

    /// A borrowed-style pinned view: same store, cache and tenant, same
    /// (shared) meter history, but every query forced through `plan`.
    /// Benchmarks use this to measure each path on one corpus.
    pub fn with_plan_ref(&self, plan: Plan) -> QueryEngine {
        QueryEngine {
            env: self.env.clone(),
            store: self.store.clone(),
            data_bucket: self.data_bucket.clone(),
            force: Some(plan),
            history: self.history.clone(),
            scans: self.scans.clone(),
            cache: self.cache.clone(),
            tenant: self.tenant,
        }
    }

    /// Q.3/Q.4 scans that had to fold the provenance objects, through
    /// this engine and its pinned views: a scan that GETs, in key order,
    /// the very stored objects the last fold saw reuses that fold.
    pub fn scan_folds(&self) -> u64 {
        self.scans.folds()
    }

    /// The plans this store's layout supports. `Cached` appears only
    /// with an index to hydrate from and a usable (attached, gap-free)
    /// cache — a lapsed feed drops the plan entirely: fail closed.
    pub fn available_plans(&self) -> Vec<Plan> {
        match &self.store {
            ProvenanceStore::S3Objects { .. } => vec![Plan::S3Scan],
            ProvenanceStore::Database { index_domain, .. } => {
                let mut v = vec![Plan::SdbSelect];
                if index_domain.is_some() {
                    v.push(Plan::Index);
                    if self.cache.as_ref().is_some_and(|c| c.usable()) {
                        v.push(Plan::Cached);
                    }
                }
                v
            }
        }
    }

    /// Catalog statistics the planner reads (free metadata calls).
    pub fn stats(&self) -> DomainStats {
        match &self.store {
            ProvenanceStore::S3Objects { bucket, prefix } => DomainStats {
                prov_objects: self.env.s3().peek_count(bucket, prefix),
                ..DomainStats::default()
            },
            ProvenanceStore::Database {
                domain,
                index_domain,
                ..
            } => DomainStats {
                prov_objects: 0,
                main_items: self.env.sdb().peek_item_count(domain),
                index_items: index_domain
                    .as_deref()
                    .map(|d| self.env.sdb().peek_item_count(d))
                    .unwrap_or(0),
            },
        }
    }

    /// What the planner would pick for `query` right now. Without a
    /// specific program to probe, a usable cache is assumed cold (the
    /// conservative state); the query entry points probe the actual
    /// warmness per program.
    pub fn plan_for(&self, query: QueryKind) -> PlanReport {
        let state = if self.cache.as_ref().is_some_and(|c| c.usable()) {
            CacheState::Cold
        } else {
            CacheState::Uncached
        };
        self.plan_with_state(query, state)
    }

    fn plan_with_state(&self, query: QueryKind, state: CacheState) -> PlanReport {
        planner::choose(
            query,
            &self.available_plans(),
            &self.stats(),
            &self.history.lock(),
            self.force,
            state,
        )
    }

    /// Plans a cacheable query (Q.3/Q.4) by probing the cache for
    /// `program`. Returns the report and, when the cache was in play but
    /// unusable, the `Bypass` outcome to attach after execution.
    fn plan_query(&self, query: QueryKind, program: &str) -> (PlanReport, Option<CacheOutcome>) {
        match &self.cache {
            Some(c) => match c.probe(query, program) {
                Some(state) => (self.plan_with_state(query, state), None),
                None => {
                    c.note_bypass();
                    (
                        self.plan_with_state(query, CacheState::Uncached),
                        Some(CacheOutcome::Bypass),
                    )
                }
            },
            None => (self.plan_with_state(query, CacheState::Uncached), None),
        }
    }

    // Out of line: inlined, it grows the frames of `q3_outputs_of` and
    // `q4_descendants_of`, which every query coroutine runs whatever its
    // plan (read-serve's peak RSS rose 0.9 MB over its 240 coroutines).
    #[inline(never)]
    fn scan_source(&self) -> S3ScanSource {
        match &self.store {
            ProvenanceStore::S3Objects { bucket, prefix } => {
                S3ScanSource::new(&self.env, bucket, prefix, PARALLELISM).sharing(&self.scans)
            }
            ProvenanceStore::Database { .. } => unreachable!("scan plan on a database store"),
        }
    }

    fn select_source(&self) -> SdbSelectSource {
        match &self.store {
            ProvenanceStore::Database { domain, .. } => {
                SdbSelectSource::new(&self.env, domain, PARALLELISM, IN_BATCH)
            }
            ProvenanceStore::S3Objects { .. } => unreachable!("select plan on an S3 store"),
        }
    }

    fn index_source(&self) -> IndexSource {
        match &self.store {
            ProvenanceStore::Database {
                domain,
                index_domain: Some(idx),
                ..
            } => IndexSource::new(&self.env, domain, idx, PARALLELISM, IN_BATCH),
            _ => unreachable!("index plan without an index domain"),
        }
    }

    /// The chosen plan's backend, as the layout-blind trait object.
    pub fn source(&self, plan: Plan) -> Box<dyn GraphSource> {
        match plan {
            Plan::S3Scan => Box::new(self.scan_source()),
            Plan::SdbSelect => Box::new(self.select_source()),
            // The cache hydrates from the index; as a trait-object
            // source it IS the index.
            Plan::Index | Plan::Cached => Box::new(self.index_source()),
        }
    }

    /// The source that fetches whole records: scan for S3, base-domain
    /// select otherwise.
    fn graph_source(&self) -> Box<dyn GraphSource> {
        match &self.store {
            ProvenanceStore::S3Objects { .. } => self.source(Plan::S3Scan),
            ProvenanceStore::Database { .. } => self.source(Plan::SdbSelect),
        }
    }

    /// Op/byte totals this engine's queries are measured from: the
    /// tenant's own meter line when scoped ([`QueryEngine::with_tenant`])
    /// — immune to concurrent engines on other sim threads — else the
    /// global query-actor totals.
    fn metered_totals(&self) -> (u64, u64) {
        self.env.meter().totals(Actor::Query, self.tenant)
    }

    fn measure<R>(&self, f: impl FnOnce() -> Result<R>) -> Result<(R, QueryMetrics)> {
        let t0 = self.env.sim().now();
        let (ops0, bytes0) = self.metered_totals();
        let r = f()?;
        let (ops1, bytes1) = self.metered_totals();
        Ok((
            r,
            QueryMetrics {
                elapsed: self.env.sim().now() - t0,
                ops: ops1 - ops0,
                bytes: bytes1 - bytes0,
            },
        ))
    }

    /// Stamps the cache outcome into the report and records the measured
    /// bill under the cache state that actually materialized — a hit is
    /// a `Warm` row, a hydration a `Cold` row, and every plain store
    /// path an `Uncached` row — so no run can pin the planner across
    /// states ([`PlanHistory`]).
    fn record_history(
        &self,
        query: QueryKind,
        mut plan: PlanReport,
        outcome: Option<CacheOutcome>,
        metrics: QueryMetrics,
    ) -> PlanReport {
        plan.cache = outcome;
        if let Some(p) = plan.plan {
            let state = match (p, outcome) {
                (Plan::Cached, Some(CacheOutcome::Hit)) => CacheState::Warm,
                (Plan::Cached, _) => CacheState::Cold,
                _ => CacheState::Uncached,
            };
            self.history.lock().record(query, p, state, metrics.ops);
        }
        plan
    }

    /// Q.1: retrieve all provenance.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    pub fn q1_all(&self, mode: Mode) -> Result<QueryOutput> {
        let plan = self.plan_for(QueryKind::Q1);
        let source = self.source(plan.plan.expect("planner always picks"));
        let (records, metrics) = self.measure(|| source.all_records(mode))?;
        Ok(QueryOutput {
            nodes: local::subjects(&records),
            records,
            metrics,
            plan: self.record_history(QueryKind::Q1, plan, None, metrics),
        })
    }

    /// Q.2: provenance of all versions of the object stored at `key`.
    /// Starts with a HEAD on the data object to learn its UUID (both
    /// layouts), then one targeted fetch — which is why the layouts
    /// perform comparably on this query (§5.3).
    ///
    /// # Errors
    ///
    /// Propagates cloud errors; `MissingProvenance` if the object carries
    /// no provenance link.
    pub fn q2_object(&self, key: &str) -> Result<QueryOutput> {
        let plan = self.plan_for(QueryKind::Q2);
        let source = self.source(plan.plan.expect("planner always picks"));
        let (records, metrics) = self.measure(|| {
            let id = object_link(&self.env, &self.data_bucket, key)?;
            source.uuid_records(id)
        })?;
        Ok(QueryOutput {
            nodes: local::subjects(&records),
            records,
            metrics,
            plan: self.record_history(QueryKind::Q2, plan, None, metrics),
        })
    }

    /// Q.3: files directly output by processes named `program`.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    pub fn q3_outputs_of(&self, program: &str, mode: Mode) -> Result<QueryOutput> {
        let (plan, mut outcome) = self.plan_query(QueryKind::Q3, program);
        let chosen = plan.plan.expect("planner always picks");
        let (out, metrics) = self.measure(|| match chosen {
            // No indexes: scan everything, filter locally (§5.3: "In S3,
            // this requires a scan of all provenance objects").
            Plan::S3Scan => self.scan_source().outputs_of_program(program, mode),
            Plan::SdbSelect | Plan::Index => {
                let source = self.source(chosen);
                let procs = source.processes_named(program, mode)?;
                source.direct_outputs(&procs, mode)
            }
            Plan::Cached => {
                let (set, oc) = self.q3_cached(program, mode)?;
                outcome = Some(oc);
                Ok(set)
            }
        })?;
        Ok(QueryOutput {
            nodes: out.nodes,
            records: out.records,
            metrics,
            plan: self.record_history(QueryKind::Q3, plan, outcome, metrics),
        })
    }

    /// Q.4: all transitive descendants of the files derived from
    /// `program` (reverse `input` walk from the program's process nodes,
    /// seeds excluded — every plan agrees on this result set).
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    pub fn q4_descendants_of(&self, program: &str, mode: Mode) -> Result<QueryOutput> {
        let (plan, mut outcome) = self.plan_query(QueryKind::Q4, program);
        let chosen = plan.plan.expect("planner always picks");
        let (nodes, metrics) = self.measure(|| match chosen {
            // One scan, then the traversal is local.
            Plan::S3Scan => self.scan_source().descendants_of_program(program, mode),
            Plan::SdbSelect | Plan::Index => {
                let source = self.source(chosen);
                let procs = source.processes_named(program, mode)?;
                source.descendants_of(&procs, mode)
            }
            Plan::Cached => {
                let (nodes, oc) = self.q4_cached(program, mode)?;
                outcome = Some(oc);
                Ok(nodes)
            }
        })?;
        Ok(QueryOutput {
            records: Vec::new(),
            nodes,
            metrics,
            plan: self.record_history(QueryKind::Q4, plan, outcome, metrics),
        })
    }

    /// Q.3 through the read tier: served from memory on a hit; on a miss
    /// the answer is computed from a *fresh* index fetch (authoritative
    /// for this query) and the fetched pages are installed — guarded by
    /// their fetch-start instant so a racing invalidation wins.
    fn q3_cached(&self, program: &str, mode: Mode) -> Result<(OutputSet, CacheOutcome)> {
        let cache = self.cache.as_ref().expect("cached plan without a cache");
        if let Some(nodes) = cache.serve_q3(program) {
            return Ok((
                OutputSet {
                    nodes,
                    records: Vec::new(),
                },
                CacheOutcome::Hit,
            ));
        }
        let idx = self.index_source();
        let seeds = self.cached_seeds(cache, &idx, program, mode)?;
        let t0 = self.env.sim().now();
        let pages = idx.pages()?;
        let mut nodes: BTreeSet<PNodeId> = BTreeSet::new();
        for p in &seeds {
            if let Some(page) = pages.get(p) {
                nodes.extend(page.files.iter().copied());
            }
        }
        cache.install_fetched(self.tenant, &pages, &seeds, t0);
        Ok((
            OutputSet {
                nodes: nodes.into_iter().collect(),
                records: Vec::new(),
            },
            CacheOutcome::Miss,
        ))
    }

    /// Q.4 through the read tier; see [`QueryEngine::q3_cached`]. The
    /// walked frontier (seeds + every reached node) is passed as the
    /// touched set so leaves get explicit empty pages — the walk can go
    /// fully warm.
    fn q4_cached(&self, program: &str, mode: Mode) -> Result<(Vec<PNodeId>, CacheOutcome)> {
        let cache = self.cache.as_ref().expect("cached plan without a cache");
        if let Some(nodes) = cache.serve_q4(program) {
            return Ok((nodes, CacheOutcome::Hit));
        }
        let idx = self.index_source();
        let seeds = self.cached_seeds(cache, &idx, program, mode)?;
        let t0 = self.env.sim().now();
        let pages = idx.pages()?;
        let nodes = local::walk(&seeds, |n| pages.out(&n));
        let mut touched = seeds.clone();
        touched.extend(nodes.iter().copied());
        cache.install_fetched(self.tenant, &pages, &touched, t0);
        Ok((nodes, CacheOutcome::Miss))
    }

    /// Seed lookup through the cache, hydrating (and installing) from
    /// the index on miss.
    fn cached_seeds(
        &self,
        cache: &Arc<AncestryCache>,
        idx: &IndexSource,
        program: &str,
        mode: Mode,
    ) -> Result<Vec<PNodeId>> {
        if let Some(seeds) = cache.seeds_of(program) {
            return Ok(seeds);
        }
        let t0 = self.env.sim().now();
        let seeds = idx.processes_named(program, mode)?;
        cache.install_seeds(self.tenant, program, &seeds, t0);
        Ok(seeds)
    }

    /// Fetches the full records of identified nodes (hydration after an
    /// index-path Q.3/Q.4), metered like any query.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    pub fn hydrate(
        &self,
        nodes: &[PNodeId],
        mode: Mode,
    ) -> Result<(Vec<ProvenanceRecord>, QueryMetrics)> {
        let source = self.graph_source();
        self.measure(|| source.fetch_records(nodes, mode))
    }

    /// Resolves a spilled attribute value (a `@s3:` pointer) to its bytes.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors; `MissingProvenance` for dangling pointers.
    pub fn resolve_spill(&self, pointer: &str) -> Result<Vec<u8>> {
        resolve_spill(&self.env, pointer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ProvenanceQueries;
    use cloudprov_cloud::AwsProfile;
    use cloudprov_core::{CommitEvent, Protocol, ProvenanceClient};
    use cloudprov_fs::{LocalIoParams, PaS3fs};
    use cloudprov_pass::{Pid, ProcessInfo, Uuid};
    use cloudprov_sim::Sim;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// Builds a small provenance corpus through a protocol and returns the
    /// engine over its store.
    fn seeded(protocol: &str) -> (Sim, CloudEnv, QueryEngine) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let protocol: Protocol = protocol.parse().expect("protocol name");
        let client = Arc::new(ProvenanceClient::builder(protocol).build(&env));
        let fs = PaS3fs::attach(client.clone(), LocalIoParams::instant(), 9);
        // blast-like mini pipeline: blast writes 2 outputs; parser derives
        // one downstream file from each.
        fs.exec(
            Pid(1),
            ProcessInfo {
                name: "blast".into(),
                ..Default::default()
            },
        );
        fs.read(Pid(1), "/db", 100);
        fs.write(Pid(1), "/hits-0", 10);
        fs.close(Pid(1), "/hits-0").unwrap();
        fs.write(Pid(1), "/hits-1", 10);
        fs.close(Pid(1), "/hits-1").unwrap();
        for i in 0..2 {
            let pid = Pid(10 + i);
            fs.exec(
                pid,
                ProcessInfo {
                    name: "parser".into(),
                    ..Default::default()
                },
            );
            fs.read(pid, &format!("/hits-{i}"), 10);
            fs.write(pid, &format!("/parsed-{i}"), 10);
            fs.close(pid, &format!("/parsed-{i}")).unwrap();
        }
        client.drain().unwrap();
        let engine = client.query().expect("provenance store");
        (sim, env, engine)
    }

    #[test]
    fn q1_returns_everything_both_layouts() {
        for proto in ["P1", "P2"] {
            let (_sim, _env, engine) = seeded(proto);
            let out = engine.q1_all(Mode::Sequential).unwrap();
            assert!(out.records.len() > 10, "{proto}: got {}", out.records.len());
            assert!(out.metrics.ops > 0);
            assert!(out.metrics.bytes > 0);
            assert!(out.plan.plan.is_some(), "{proto}: plan reported");
        }
    }

    #[test]
    fn q1_parallel_is_faster_on_s3() {
        let (_sim, _env, engine) = seeded("P1");
        let seq = engine.q1_all(Mode::Sequential).unwrap();
        let par = engine.q1_all(Mode::Parallel).unwrap();
        assert_eq!(seq.records.len(), par.records.len());
        assert!(par.metrics.elapsed <= seq.metrics.elapsed);
        assert_eq!(seq.metrics.ops, par.metrics.ops, "same op count (Table 5)");
    }

    #[test]
    fn q2_fetches_all_versions_of_one_object() {
        for proto in ["P1", "P2"] {
            let (_sim, _env, engine) = seeded(proto);
            let out = engine.q2_object("hits-0").unwrap();
            assert!(!out.records.is_empty(), "{proto}");
            // Everything returned belongs to one uuid.
            let uuids: BTreeSet<_> = out.records.iter().map(|r| r.subject.uuid).collect();
            assert_eq!(uuids.len(), 1, "{proto}");
            // Cheap: HEAD + one fetch (a couple of ops).
            assert!(out.metrics.ops <= 3, "{proto}: {} ops", out.metrics.ops);
        }
    }

    #[test]
    fn q3_finds_direct_outputs_identically_across_layouts() {
        let (_s1, _e1, s3_engine) = seeded("P1");
        let (_s2, _e2, db_engine) = seeded("P2");
        let a = s3_engine.q3_outputs_of("blast", Mode::Sequential).unwrap();
        let b = db_engine.q3_outputs_of("blast", Mode::Sequential).unwrap();
        // Both find the two hits files (names differ in uuid, count must
        // match).
        assert_eq!(a.nodes.len(), 2, "s3 layout");
        assert_eq!(b.nodes.len(), 2, "db layout");
        // The DB layout is far more selective in ops.
        assert!(b.metrics.ops < a.metrics.ops);
        assert_eq!(a.plan.plan, Some(Plan::S3Scan));
        assert_eq!(b.plan.plan, Some(Plan::SdbSelect));
    }

    #[test]
    fn q4_finds_transitive_descendants() {
        for proto in ["P1", "P2"] {
            let (_sim, _env, engine) = seeded(proto);
            let out = engine.q4_descendants_of("blast", Mode::Sequential).unwrap();
            // hits-0, hits-1 + parser procs + parsed-0, parsed-1 ≥ 6.
            assert!(out.nodes.len() >= 6, "{proto}: got {}", out.nodes.len());
        }
    }

    #[test]
    fn q4_result_sets_agree_across_layouts() {
        // The reverse-`input` walk semantics are now shared by every
        // plan, so the layouts agree on Q.4 result sizes too.
        let (_s1, _e1, s3_engine) = seeded("P1");
        let (_s2, _e2, db_engine) = seeded("P2");
        let a = s3_engine
            .q4_descendants_of("blast", Mode::Sequential)
            .unwrap();
        let b = db_engine
            .q4_descendants_of("blast", Mode::Sequential)
            .unwrap();
        assert_eq!(a.nodes.len(), b.nodes.len());
    }

    #[test]
    fn q4_db_parallel_matches_sequential() {
        let (_sim, _env, engine) = seeded("P2");
        let seq = engine.q4_descendants_of("blast", Mode::Sequential).unwrap();
        let par = engine.q4_descendants_of("blast", Mode::Parallel).unwrap();
        let a: BTreeSet<_> = seq.nodes.iter().collect();
        let b: BTreeSet<_> = par.nodes.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn p3_index_plans_agree_with_select_plans() {
        let (_sim, env, engine) = seeded("P3");
        assert!(engine.available_plans().contains(&Plan::Index));
        // The commit daemon maintained the index during drain.
        let audit = cloudprov_core::index::audit_index(&env, &cloudprov_core::Layout::default());
        assert!(audit.consistent(), "{audit:?}");
        assert!(audit.entries > 0, "index must have been written");
        for program in ["blast", "parser"] {
            let via_select = engine.with_plan_ref(Plan::SdbSelect);
            let q3_sel = via_select.q3_outputs_of(program, Mode::Sequential).unwrap();
            let q4_sel = via_select
                .q4_descendants_of(program, Mode::Sequential)
                .unwrap();
            let via_index = engine.with_plan_ref(Plan::Index);
            let q3_idx = via_index.q3_outputs_of(program, Mode::Sequential).unwrap();
            let q4_idx = via_index
                .q4_descendants_of(program, Mode::Sequential)
                .unwrap();
            assert_eq!(q3_sel.nodes, q3_idx.nodes, "{program} Q.3");
            assert_eq!(q4_sel.nodes, q4_idx.nodes, "{program} Q.4");
            assert_eq!(q3_idx.plan.plan, Some(Plan::Index));
            // Hydration recovers the records the index path skipped.
            let (records, _) = engine.hydrate(&q3_idx.nodes, Mode::Sequential).unwrap();
            let hydrated: BTreeSet<_> = records.iter().map(|r| r.subject).collect();
            let wanted: BTreeSet<_> = q3_idx.nodes.iter().copied().collect();
            assert_eq!(hydrated, wanted, "{program} hydration");
        }
    }

    #[test]
    fn planner_prefers_measured_history() {
        let (_sim, _env, engine) = seeded("P3");
        // Run both paths so the history holds measurements for each.
        engine
            .with_plan_ref(Plan::SdbSelect)
            .q4_descendants_of("blast", Mode::Sequential)
            .unwrap();
        engine
            .with_plan_ref(Plan::Index)
            .q4_descendants_of("blast", Mode::Sequential)
            .unwrap();
        let report = engine.plan_for(QueryKind::Q4);
        assert!(report.reason.contains("measured"), "{report:?}");
    }

    #[test]
    fn q2_missing_provenance_link_is_an_error() {
        let (_sim, env, engine) = seeded("P2");
        env.s3()
            .put(
                "data",
                "rogue",
                cloudprov_cloud::Blob::from("x"),
                cloudprov_cloud::Metadata::new(),
            )
            .unwrap();
        let err = engine.q2_object("rogue").unwrap_err();
        assert!(matches!(err, ProtocolError::MissingProvenance { .. }));
    }

    #[test]
    fn quoted_program_names_round_trip() {
        // Regression: `name = '{program}'` built via format! broke on
        // embedded quotes; quote_literal centralizes the escape.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let client = Arc::new(ProvenanceClient::builder(Protocol::P2).build(&env));
        let fs = PaS3fs::attach(client.clone(), LocalIoParams::instant(), 11);
        fs.exec(
            Pid(1),
            ProcessInfo {
                name: "o'brien".into(),
                ..Default::default()
            },
        );
        fs.write(Pid(1), "/out", 10);
        fs.close(Pid(1), "/out").unwrap();
        let engine = client.query().unwrap();
        let out = engine.q3_outputs_of("o'brien", Mode::Sequential).unwrap();
        assert_eq!(out.nodes.len(), 1, "the quoted program's output is found");
        // And a non-matching quoted name returns nothing rather than
        // erroring with an invalid query.
        let none = engine.q3_outputs_of("o'neill", Mode::Sequential).unwrap();
        assert!(none.nodes.is_empty());
    }

    #[test]
    fn spill_resolution_roundtrips() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let client = Arc::new(ProvenanceClient::builder(Protocol::P2).build(&env));
        let fs = PaS3fs::attach(client.clone(), LocalIoParams::instant(), 1);
        // Big env forces a spill.
        fs.exec(
            Pid(1),
            ProcessInfo {
                name: "bigenv".into(),
                env: cloudprov_workloads::synthetic_env(4000, 1),
                ..Default::default()
            },
        );
        fs.write(Pid(1), "/f", 1);
        fs.close(Pid(1), "/f").unwrap();
        let engine = client.query().expect("provenance store");
        let out = engine.q1_all(Mode::Sequential).unwrap();
        let pointer = out
            .records
            .iter()
            .find(|r| r.value.to_text().starts_with("@s3:"))
            .expect("spilled value present")
            .value
            .to_text();
        let bytes = engine.resolve_spill(&pointer).unwrap();
        assert!(bytes.len() > 1024);
    }

    #[test]
    fn warm_cache_serves_q3_q4_from_memory_with_zero_ops() {
        use crate::cache::{AncestryCache, CacheConfig};
        use crate::planner::CacheOutcome;

        let (sim, _env, engine) = seeded("P3");
        let cache = Arc::new(AncestryCache::new(&sim, CacheConfig::default()));
        cache.attach();
        let engine = engine.with_cache(cache.clone());
        for program in ["blast", "parser"] {
            // Cold: the planner still routes through the cache (tie with
            // the index) so it hydrates, paying the store once.
            let cold = engine.q3_outputs_of(program, Mode::Sequential).unwrap();
            assert_eq!(cold.plan.plan, Some(Plan::Cached), "{program}");
            assert_eq!(cold.plan.cache, Some(CacheOutcome::Miss), "{program}");
            assert!(cold.metrics.ops > 0, "{program}: hydration pays the store");
            // Warm: zero store ops, zero elapsed virtual time, identical
            // result set — and the same for Q.4.
            let warm = engine.q3_outputs_of(program, Mode::Sequential).unwrap();
            assert_eq!(warm.plan.cache, Some(CacheOutcome::Hit), "{program}");
            assert_eq!(warm.metrics.ops, 0, "{program}");
            assert_eq!(warm.metrics.elapsed, Duration::ZERO, "{program}");
            assert_eq!(warm.nodes, cold.nodes, "{program}");
            let q4_cold = engine.q4_descendants_of(program, Mode::Sequential).unwrap();
            // Pages are shared across programs: blast's Q.4 walk already
            // installed reverse pages for every node parser's walk
            // visits, so once parser's seeds are resident (its Q.3
            // hydration) parser's first Q.4 is served warm.
            let expect = if program == "blast" {
                CacheOutcome::Miss
            } else {
                CacheOutcome::Hit
            };
            assert_eq!(q4_cold.plan.cache, Some(expect), "{program}");
            let q4_warm = engine.q4_descendants_of(program, Mode::Sequential).unwrap();
            assert_eq!(q4_warm.plan.cache, Some(CacheOutcome::Hit), "{program}");
            assert_eq!(q4_warm.metrics.ops, 0, "{program}");
            assert_eq!(q4_warm.nodes, q4_cold.nodes, "{program}");
            // Every cached result set equals the uncached plan's.
            let idx = engine.with_plan_ref(Plan::Index);
            assert_eq!(
                warm.nodes,
                idx.q3_outputs_of(program, Mode::Sequential).unwrap().nodes,
                "{program} Q.3 cached == index"
            );
            assert_eq!(
                q4_warm.nodes,
                idx.q4_descendants_of(program, Mode::Sequential)
                    .unwrap()
                    .nodes,
                "{program} Q.4 cached == index"
            );
        }
        let stats = cache.stats();
        // blast: warm Q.3 + warm Q.4; parser: warm Q.3 + shared-page
        // first Q.4 + warm Q.4.
        assert_eq!(stats.hits, 5);
        assert!(stats.installs > 0);
    }

    #[test]
    fn pinned_index_measurements_do_not_unseat_the_warm_cache() {
        // Satellite: the planner's measured-cost memory is per-(query,
        // plan, cache-state). A cold cached hydration (expensive) and a
        // pinned index run must not stop a warm round from planning
        // Cached.
        use crate::cache::{AncestryCache, CacheConfig};
        use crate::planner::CacheOutcome;

        let (sim, _env, engine) = seeded("P3");
        let cache = Arc::new(AncestryCache::new(&sim, CacheConfig::default()));
        cache.attach();
        let engine = engine.with_cache(cache.clone());
        // Cold hydration records a (Q4, Cached, Cold) bill.
        let cold = engine.q4_descendants_of("blast", Mode::Sequential).unwrap();
        assert_eq!(cold.plan.cache, Some(CacheOutcome::Miss));
        // A pinned index run records under (Q4, Index, Uncached).
        engine
            .with_plan_ref(Plan::Index)
            .q4_descendants_of("blast", Mode::Sequential)
            .unwrap();
        // The warm round still plans Cached at cost 0.
        let warm = engine.q4_descendants_of("blast", Mode::Sequential).unwrap();
        assert_eq!(warm.plan.plan, Some(Plan::Cached));
        assert_eq!(warm.plan.cache, Some(CacheOutcome::Hit));
        assert_eq!(warm.metrics.ops, 0);
    }

    #[test]
    fn gapped_subscription_forces_bypass_and_results_stay_truthful() {
        use crate::cache::{AncestryCache, CacheConfig};
        use crate::planner::CacheOutcome;
        use cloudprov_pass::ProvGraph;

        let (sim, _env, engine) = seeded("P3");
        let cache = Arc::new(AncestryCache::new(&sim, CacheConfig::default()));
        cache.attach();
        let engine = engine.with_cache(cache.clone());
        // Prime it warm.
        engine.q4_descendants_of("blast", Mode::Sequential).unwrap();
        // Deliver a gapped sequence: 1 then 3. The cache must poison.
        for seq in [1, 3] {
            cache.on_event(&CommitEvent {
                stream: "wal-x".into(),
                seq,
                txn: Uuid(seq as u128),
                tenant: None,
                uuids: Vec::new(),
                programs: Vec::new(),
            });
        }
        assert!(!cache.usable());
        // Every subsequent query bypasses — served by an uncached plan,
        // reported as such, and equal to the ground-truth ProvGraph.
        let out = engine.q4_descendants_of("blast", Mode::Sequential).unwrap();
        assert_ne!(out.plan.plan, Some(Plan::Cached), "fail closed");
        assert_eq!(out.plan.cache, Some(CacheOutcome::Bypass));
        let raw = engine.graph_source().all_records(Mode::Sequential).unwrap();
        let graph = ProvGraph::from_records(raw.iter());
        let procs = local::processes_named(&raw, "blast");
        let truth: BTreeSet<PNodeId> = procs.iter().flat_map(|p| graph.descendants(*p)).collect();
        let got: BTreeSet<PNodeId> = out.nodes.iter().copied().collect();
        assert_eq!(got, truth, "bypassed Q.4 equals the ProvGraph");
        let q3 = engine.q3_outputs_of("blast", Mode::Sequential).unwrap();
        assert_eq!(q3.plan.cache, Some(CacheOutcome::Bypass));
        let (truth_q3, _) = local::direct_outputs(&raw, &procs);
        assert_eq!(q3.nodes, truth_q3, "bypassed Q.3 equals the records");
        assert!(cache.stats().bypasses >= 2);
    }

    #[test]
    fn feed_invalidation_keeps_cached_results_fresh_end_to_end() {
        use crate::cache::{AncestryCache, CacheConfig};
        use crate::planner::CacheOutcome;
        use cloudprov_core::{FlushBatch, FlushObject, ProtocolConfig, StorageProtocol, P3};
        use cloudprov_pass::{Attr, FlushNode, NodeKind};

        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let cfg = ProtocolConfig {
            feed: true,
            ..ProtocolConfig::default()
        };
        let p3 = P3::new(&env, cfg, "wal-cache");
        let flush_proc = |uuid: u128, name: &str, input: Option<cloudprov_pass::PNodeId>| {
            let id = cloudprov_pass::PNodeId::initial(Uuid(uuid));
            let mut records = vec![
                ProvenanceRecord::new(id, Attr::Type, "process"),
                ProvenanceRecord::new(id, Attr::Name, name),
            ];
            if let Some(from) = input {
                records.push(ProvenanceRecord::new(id, Attr::Input, from));
            }
            p3.flush(FlushBatch {
                objects: vec![FlushObject::provenance_only(FlushNode {
                    id,
                    kind: NodeKind::Process,
                    name: Some(name.into()),
                    records,
                    data_hash: None,
                })],
            })
            .unwrap();
            id
        };
        let root = flush_proc(600, "root", None);
        let daemon = p3.commit_daemon();
        let cache = Arc::new(AncestryCache::new(&sim, CacheConfig::default()));
        daemon.set_event_sink(cache.sink());
        cache.attach();
        daemon.run_until_idle().unwrap();

        let engine = QueryEngine::new(&env, p3.provenance_store().unwrap(), "data")
            .with_cache(cache.clone());
        // Hydrate then go warm: root has no descendants yet.
        let cold = engine.q4_descendants_of("root", Mode::Sequential).unwrap();
        assert_eq!(cold.plan.cache, Some(CacheOutcome::Miss));
        assert!(cold.nodes.is_empty());
        let warm = engine.q4_descendants_of("root", Mode::Sequential).unwrap();
        assert_eq!(warm.plan.cache, Some(CacheOutcome::Hit));
        // A new commit grows root's lineage; the daemon publishes the
        // event, which must invalidate the cached (empty) answer — the
        // xref-target uuid names root even though root wrote no records.
        sim.sleep(Duration::from_millis(10));
        let child = flush_proc(601, "child", Some(root));
        daemon.run_until_idle().unwrap();
        let after = engine.q4_descendants_of("root", Mode::Sequential).unwrap();
        assert_eq!(after.plan.cache, Some(CacheOutcome::Miss), "invalidated");
        assert_eq!(after.nodes, vec![child], "fresh lineage served");
        let rewarm = engine.q4_descendants_of("root", Mode::Sequential).unwrap();
        assert_eq!(rewarm.plan.cache, Some(CacheOutcome::Hit));
        assert_eq!(rewarm.nodes, vec![child]);
    }
}
