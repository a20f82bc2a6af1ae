//! Table 5 (+ the indexed column): query performance over the Blast
//! provenance.
//!
//! Populates the provenance layouts (P1's S3 objects, P2's SimpleDB
//! items, and P3's SimpleDB items *with* the commit-time ancestry index)
//! with the captured Blast corpus, then runs Q.1–Q.4, reporting elapsed
//! virtual time, megabytes transferred, operation counts and the plan
//! the engine took — the exact columns of Table 5 plus the new
//! "indexed" rows.
//!
//! [`queries_report`] additionally measures Q.3/Q.4 through the SELECT
//! frontier-expansion plan and the index plan **on the same P3 store**,
//! asserts the result sets are identical, audits index ↔ base
//! consistency, and reports the op-count speedup — the CI gate behind
//! `repro -- queries`. [`table5_shape`] is the paper's Table 5 claim as
//! predicates, judged by `repro -- table5` and the unit test alike.

use cloudprov_cloud::{Era, Machine, RunContext};
use cloudprov_core::index::audit_index;
use cloudprov_core::{Layout, ProtocolConfig, StorageProtocol};
use cloudprov_query::{Mode, Plan, QueryEngine, QueryKind, QueryMetrics, QueryOutput};
use cloudprov_workloads::{
    blast, collect, run_readserve, BlastParams, OfflineRun, ReadServeParams, ReadServeReport,
};

use crate::common::{Rig, Which};
use crate::uploader::upload;

/// One Table 5 row-half (one query on one backend).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Query id ("Q.1".."Q.4").
    pub query: &'static str,
    /// Backend ("S3 (P1)", "SimpleDB (P2)", "Indexed (P3)").
    pub backend: &'static str,
    /// The access path the engine executed.
    pub plan: String,
    /// Sequential execution cost.
    pub sequential: QueryMetrics,
    /// Parallel execution cost (None where parallelism does not apply).
    pub parallel: Option<QueryMetrics>,
    /// Result-set size (nodes).
    pub result_nodes: usize,
}

/// Select-vs-index measurement of one query on the same P3 store.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexComparison {
    /// Query id ("Q.3", "Q.4").
    pub query: &'static str,
    /// Ops through the SELECT frontier-expansion plan.
    pub select_ops: u64,
    /// Ops through the ancestry-index plan.
    pub index_ops: u64,
    /// Whether both plans returned the identical node set.
    pub identical: bool,
}

/// Everything `repro -- queries` prints and gates on.
#[derive(Clone, Debug)]
pub struct QueriesReport {
    /// The Table 5 rows (classic backends + indexed rows).
    pub rows: Vec<QueryResult>,
    /// Q.3/Q.4 select-vs-index on the P3 store.
    pub comparisons: Vec<IndexComparison>,
    /// Combined Q.3+Q.4 op ratio (select ÷ index).
    pub speedup: f64,
    /// What the cost-based planner picks per query on the P3 store once
    /// both paths have meter history, as `(query, plan, reason)`.
    pub planner: Vec<(String, String, String)>,
    /// Index ↔ base-record audit verdict.
    pub index_consistent: bool,
    /// Attribute pairs in the stored index.
    pub index_entries: usize,
}

impl QueriesReport {
    /// Gate violations: result-set mismatches, index inconsistency, or a
    /// speedup below `min_speedup`.
    pub fn violations(&self, min_speedup: f64) -> Vec<String> {
        let mut v = Vec::new();
        for c in &self.comparisons {
            if !c.identical {
                v.push(format!(
                    "{}: indexed plan returned a different result set",
                    c.query
                ));
            }
        }
        if !self.index_consistent {
            v.push("ancestry index diverged from base records".into());
        }
        if self.speedup < min_speedup {
            v.push(format!(
                "indexed Q.3+Q.4 speedup {:.2}x below the {min_speedup:.1}x gate",
                self.speedup
            ));
        }
        v
    }
}

/// The program whose outputs Q.3/Q.4 chase.
pub const PROGRAM: &str = "blastall";

fn ec2() -> RunContext {
    RunContext {
        location: cloudprov_cloud::ClientLocation::Ec2,
        era: Era::Sept2009,
        machine: Machine::Native,
    }
}

/// Populates the three layouts and returns their rigs + engines:
/// `(P1 scan, P2 select, P3 select+index)`.
pub fn seed(corpus: &OfflineRun) -> Vec<(Rig, QueryEngine)> {
    let quiesce = std::time::Duration::from_secs(15);
    [Which::P1, Which::P2, Which::P3]
        .into_iter()
        .map(|which| {
            let rig = Rig::new(which, ec2(), ProtocolConfig::default());
            upload(&rig, corpus, 26);
            // Let eventual consistency converge before measuring queries
            // (readers otherwise have to "try refreshing the data",
            // §4.3.1).
            rig.sim.sleep(quiesce);
            let store = rig.client.provenance_store().expect("provenance store");
            let engine = QueryEngine::new(&rig.env, store, "data");
            (rig, engine)
        })
        .collect()
}

fn run_rows(
    backend: &'static str,
    engine: &QueryEngine,
    corpus: &OfflineRun,
    queries: &[&'static str],
) -> Vec<QueryResult> {
    let mut out = Vec::new();
    if queries.contains(&"Q.1") {
        let seq = engine.q1_all(Mode::Sequential).expect("q1 seq");
        let par = matches!(seq.plan.plan, Some(Plan::S3Scan))
            .then(|| engine.q1_all(Mode::Parallel).expect("q1 par").metrics);
        out.push(QueryResult {
            query: "Q.1",
            backend,
            plan: plan_name(&seq.plan.plan),
            sequential: seq.metrics,
            parallel: par,
            result_nodes: seq.nodes.len(),
        });
    }
    if queries.contains(&"Q.2") {
        // Q.2: per-object average over a sample of files.
        let written: Vec<&cloudprov_workloads::OfflineFile> =
            corpus.files.iter().filter(|f| f.written).collect();
        let sample: Vec<&cloudprov_workloads::OfflineFile> = written
            .iter()
            .step_by((written.len() / 16).max(1))
            .copied()
            .collect();
        let mut total = QueryMetrics::default();
        let mut count = 0u32;
        let mut plan = String::new();
        for f in &sample {
            let key = f.path.trim_start_matches('/');
            if let Ok(r) = engine.q2_object(key) {
                total.elapsed += r.metrics.elapsed;
                total.ops += r.metrics.ops;
                total.bytes += r.metrics.bytes;
                count += 1;
                plan = plan_name(&r.plan.plan);
            }
        }
        let avg = QueryMetrics {
            elapsed: total.elapsed / count.max(1),
            ops: total.ops / u64::from(count.max(1)),
            bytes: total.bytes / u64::from(count.max(1)),
        };
        out.push(QueryResult {
            query: "Q.2",
            backend,
            plan,
            sequential: avg,
            parallel: None,
            result_nodes: count as usize,
        });
    }
    if queries.contains(&"Q.3") {
        let seq = engine
            .q3_outputs_of(PROGRAM, Mode::Sequential)
            .expect("q3 seq");
        let par = engine
            .q3_outputs_of(PROGRAM, Mode::Parallel)
            .expect("q3 par");
        out.push(QueryResult {
            query: "Q.3",
            backend,
            plan: plan_name(&seq.plan.plan),
            sequential: seq.metrics,
            parallel: Some(par.metrics),
            result_nodes: seq.nodes.len(),
        });
    }
    if queries.contains(&"Q.4") {
        let seq = engine
            .q4_descendants_of(PROGRAM, Mode::Sequential)
            .expect("q4 seq");
        let par = engine
            .q4_descendants_of(PROGRAM, Mode::Parallel)
            .expect("q4 par");
        out.push(QueryResult {
            query: "Q.4",
            backend,
            plan: plan_name(&seq.plan.plan),
            sequential: seq.metrics,
            parallel: Some(par.metrics),
            result_nodes: seq.nodes.len(),
        });
    }
    out
}

fn plan_name(plan: &Option<Plan>) -> String {
    plan.map(|p| p.name().to_string()).unwrap_or_default()
}

/// Runs all four queries on the classic backends plus the indexed rows.
pub fn table5(params: BlastParams) -> Vec<QueryResult> {
    queries_report(params).rows
}

/// What Table 5 claims, as predicates over its rows: SimpleDB answers
/// Q.1/Q.3 in fewer ops (and Q.3 faster) than the S3 scan, every backend
/// returns the same Q.3 node count, parallelism helps the scan, and each
/// backend took the plan it is named for. Returns the predicates that
/// failed; empty means the table has the paper's shape.
pub fn table5_shape(rows: &[QueryResult]) -> Vec<String> {
    let q = |query: &str, backend: &str| {
        rows.iter()
            .find(|r| r.query == query && r.backend.starts_with(backend))
    };
    let (Some(s3_q1), Some(s3_q3), Some(sdb_q1), Some(sdb_q3), Some(idx_q3), Some(idx_q4)) = (
        q("Q.1", "S3"),
        q("Q.3", "S3"),
        q("Q.1", "SimpleDB"),
        q("Q.3", "SimpleDB"),
        q("Q.3", "Indexed"),
        q("Q.4", "Indexed"),
    ) else {
        return vec!["a Q.1/Q.3/Q.4 row is missing".into()];
    };
    let (s3, sdb) = (&s3_q3.sequential, &sdb_q3.sequential);
    [
        (rows.len() == 10, "4 + 4 classic rows + 2 indexed rows"),
        (
            sdb_q1.sequential.ops < s3_q1.sequential.ops,
            "Q.1: SimpleDB takes fewer ops than the S3 scan",
        ),
        (
            sdb.ops < s3.ops && sdb.elapsed < s3.elapsed,
            "Q.3: SimpleDB is selective (fewer ops, faster); S3 scans everything",
        ),
        (
            sdb_q3.result_nodes == s3_q3.result_nodes && idx_q3.result_nodes == s3_q3.result_nodes,
            "Q.3: all three backends return the same number of nodes",
        ),
        (
            s3_q1
                .parallel
                .is_some_and(|p| p.elapsed < s3_q1.sequential.elapsed),
            "Q.1: parallelism helps the S3 scan",
        ),
        (
            s3_q1.plan == "scan" && sdb_q3.plan == "select" && idx_q4.plan == "index",
            "plans are reported as scan / select / index",
        ),
    ]
    .into_iter()
    .filter(|(held, _)| !held)
    .map(|(_, claim)| claim.to_string())
    .collect()
}

/// The full experiment: Table 5 rows, select-vs-index comparison on one
/// P3 store, planner verdicts, and the index audit.
pub fn queries_report(params: BlastParams) -> QueriesReport {
    let corpus = collect(&blast(params));
    let rigs = seed(&corpus);
    let (_, p1_engine) = &rigs[0];
    let (_, p2_engine) = &rigs[1];
    let (p3_rig, p3_engine) = &rigs[2];

    let mut rows = Vec::new();
    rows.extend(run_rows(
        "S3 (P1)",
        p1_engine,
        &corpus,
        &["Q.1", "Q.2", "Q.3", "Q.4"],
    ));
    rows.extend(run_rows(
        "SimpleDB (P2)",
        p2_engine,
        &corpus,
        &["Q.1", "Q.2", "Q.3", "Q.4"],
    ));

    // The P3 store: measure the SELECT plan and the index plan on the
    // SAME corpus, then let the planner choose with history in hand.
    let p3_select = p3_engine.with_plan_ref(Plan::SdbSelect);
    let p3_index = p3_engine.with_plan_ref(Plan::Index);
    type Run = fn(&QueryEngine, Mode) -> QueryOutput;
    let kinds: [(&'static str, Run); 2] = [
        ("Q.3", |e, m| e.q3_outputs_of(PROGRAM, m).expect("q3 on P3")),
        ("Q.4", |e, m| {
            e.q4_descendants_of(PROGRAM, m).expect("q4 on P3")
        }),
    ];
    let mut comparisons = Vec::new();
    let mut indexed = Vec::new();
    for (query, run) in kinds {
        let sel = run(&p3_select, Mode::Sequential);
        let idx = run(&p3_index, Mode::Sequential);
        comparisons.push(IndexComparison {
            query,
            select_ops: sel.metrics.ops,
            index_ops: idx.metrics.ops,
            identical: sel.nodes == idx.nodes,
        });
        indexed.push((query, run, idx));
    }
    let select_total: u64 = comparisons.iter().map(|c| c.select_ops).sum();
    let index_total: u64 = comparisons.iter().map(|c| c.index_ops).sum();

    // The indexed table rows reuse the sequential measurements taken for
    // the comparison; only the parallel column needs fresh runs.
    for (query, run, idx) in indexed {
        rows.push(QueryResult {
            query,
            backend: "Indexed (P3)",
            plan: plan_name(&idx.plan.plan),
            sequential: idx.metrics,
            parallel: Some(run(&p3_index, Mode::Parallel).metrics),
            result_nodes: idx.nodes.len(),
        });
    }

    // Planner verdicts with measured history for both paths.
    let planner = [QueryKind::Q1, QueryKind::Q2, QueryKind::Q3, QueryKind::Q4]
        .into_iter()
        .map(|q| {
            let r = p3_engine.plan_for(q);
            (format!("{q:?}"), plan_name(&r.plan), r.reason)
        })
        .collect();

    let audit = audit_index(&p3_rig.env, &Layout::default());
    QueriesReport {
        rows,
        comparisons,
        speedup: select_total as f64 / (index_total.max(1)) as f64,
        planner,
        index_consistent: audit.consistent(),
        index_entries: audit.entries,
    }
}

/// The concurrent read-serving run: hundreds of query tenants over the
/// shared [`AncestryCache`](cloudprov_query::AncestryCache) while a live
/// fleet keeps committing — the cached-path half of the
/// `repro -- queries` gate.
pub fn concurrent_report(small: bool, seed: u64) -> ReadServeReport {
    let params = if small {
        ReadServeParams::smoke(seed)
    } else {
        ReadServeParams {
            seed,
            ..ReadServeParams::default()
        }
    };
    run_readserve(&params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_shape_at_small_scale() {
        let report = queries_report(BlastParams::small());
        assert_eq!(table5_shape(&report.rows), Vec::<String>::new());
        // Identity + consistency hold even at small scale (the speedup
        // gate is a full-scale claim, checked by `repro -- queries`).
        assert_eq!(report.violations(1.0), Vec::<String>::new());
    }

    fn tiny_concurrent() -> ReadServeParams {
        ReadServeParams {
            query_tenants: 6,
            queries_per_tenant: 2,
            writers: 2,
            programs: 2,
            rounds: 1,
            shards: 2,
            daemons: 1,
            seed: 1,
            profile: cloudprov_cloud::AwsProfile::instant(),
            ..ReadServeParams::default()
        }
    }

    #[test]
    fn concurrent_smoke_serves_warm_and_stays_truthful() {
        let r = run_readserve(&tiny_concurrent());
        assert_eq!(r.violations(), Vec::<String>::new(), "{r:?}");
        assert!(r.cache.hits > 0);
        assert_eq!(r.stale_results, 0);
    }
}
