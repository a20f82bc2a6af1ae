//! [`run_readserve`]: hundreds of simulated query tenants against a
//! store a live fleet is still committing to.
//!
//! The write side is a small [`Fleet`] (sharded WALs, daemon pool, push
//! delivery): W writers each run a *named program* over several rounds,
//! so every round commits new lineage for the programs the readers
//! chase. The read side is the memory-resident
//! [`AncestryCache`](cloudprov_query::AncestryCache), shared by every
//! query tenant and kept coherent by the same commit feed the daemons
//! publish — the pool's event sink fans out to the cache and to the
//! driver's monitor subscription.
//!
//! Round 0 is committed and quiesced first (there is something to
//! query), then Q query tenants run mixed Q.1–Q.4 scripts *while* the
//! writers keep committing rounds 1..R. Every cache **hit** is verified
//! on the spot against the uncached index plan; a mismatch is re-read
//! for as long as a racing commit can explain it (the invalidation
//! event lands and the next cached read rehydrates) and only counted as
//! a **stale result** once it survives a whole quiet window, which the
//! gate requires to be zero. After the plane drains, a final quiescent pass
//! replays every program's Q.3/Q.4 through the warm cache and compares
//! against ground truth evaluated locally over the base records.
//!
//! Percentiles come from a [`Registry`] — the same convention as the
//! fleet driver.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use cloudprov_cloud::{AwsProfile, CloudEnv, TenantId};
use cloudprov_core::{Protocol, ProtocolConfig, ProvenanceClient, StorageProtocol};
use cloudprov_feed::{fanout, Predicate, Subscriptions};
use cloudprov_fleet::{Fleet, FleetConfig};
use cloudprov_fs::{LocalIoParams, PaS3fs};
use cloudprov_pass::{Pid, ProcessInfo};
use cloudprov_query::source::local;
use cloudprov_query::{
    AncestryCache, CacheConfig, CacheOutcome, CacheStats, Mode, Plan, QueryEngine, QueryOutput,
};
use cloudprov_sim::Sim;
use cloudprov_trace::metrics::Registry;

use crate::fleet::mix64;

/// Parameters of one concurrent read-serving run.
#[derive(Clone, Debug)]
pub struct ReadServeParams {
    /// Simulated query tenants (each with its own metered engine).
    pub query_tenants: usize,
    /// Queries per tenant (mixed Q.1–Q.4, seed-derived).
    pub queries_per_tenant: usize,
    /// Writer clients committing concurrently with the readers.
    pub writers: usize,
    /// Distinct program names the writers run (round-robin; must be
    /// ≤ `writers` or the surplus programs never execute).
    pub programs: usize,
    /// Writer rounds committed *during* the query phase (round 0, the
    /// warmup corpus, is always committed and quiesced first).
    pub rounds: usize,
    /// WAL shards.
    pub shards: u32,
    /// Commit-daemon workers.
    pub daemons: usize,
    /// Master seed; equal seeds reproduce bit-identical reports.
    pub seed: u64,
    /// Feed fallback cadence (and the verify settle window).
    pub poll_interval: Duration,
    /// Cloud profile. The default is `calibrated_strict`: 2009 service
    /// latencies with strict consistency, so the uncached verifier plan
    /// is exact and every mismatch is attributable to the cache.
    pub profile: AwsProfile,
}

impl Default for ReadServeParams {
    fn default() -> ReadServeParams {
        ReadServeParams {
            query_tenants: 120,
            queries_per_tenant: 6,
            writers: 8,
            programs: 6,
            rounds: 3,
            shards: 4,
            daemons: 2,
            seed: 0,
            poll_interval: Duration::from_secs(2),
            profile: AwsProfile::calibrated_strict(Default::default()),
        }
    }
}

impl ReadServeParams {
    /// The smoke-scale shape CI runs on every push.
    pub fn smoke(seed: u64) -> ReadServeParams {
        ReadServeParams {
            query_tenants: 24,
            queries_per_tenant: 4,
            writers: 4,
            programs: 3,
            rounds: 2,
            shards: 2,
            daemons: 2,
            seed,
            ..ReadServeParams::default()
        }
    }
}

/// Everything one concurrent read-serving run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadServeReport {
    /// Echo of the run shape.
    pub query_tenants: usize,
    /// Echo of the run shape.
    pub writers: usize,
    /// Echo of the run shape.
    pub programs: usize,
    /// Echo of the run shape.
    pub rounds: usize,
    /// Queries issued, total.
    pub queries: u64,
    /// Per-kind counts `[Q.1, Q.2, Q.3, Q.4]`.
    pub q_counts: [u64; 4],
    /// Final cache counters (hits, misses, evictions, invalidations…).
    pub cache: CacheStats,
    /// `hits / (hits + misses)` over the cached-eligible queries.
    pub hit_rate: f64,
    /// Median cold (hydrating miss) Q.3/Q.4 latency. A hit costs zero
    /// virtual time by construction, so it has no percentile here: its
    /// host cost is the repo benchmark's `warm_hit_host_us`.
    pub cold_p50: Duration,
    /// 99th-percentile cold latency.
    pub cold_p99: Duration,
    /// Cold samples behind the percentiles.
    pub cold_samples: usize,
    /// Cache hits the tenants were served — each one verified on the
    /// spot against the uncached index plan.
    pub verified: u64,
    /// Verifications that still disagreed after a whole quiet settle
    /// window (a served stale result — must be 0).
    pub stale_results: u64,
    /// Verify retries taken (racing commits, resolved by settling).
    pub verify_retries: u64,
    /// Queries that returned an error (must be 0).
    pub query_errors: u64,
    /// Writers that died or failed to sync (must be 0).
    pub writer_errors: u64,
    /// Transactions the pool committed (with multiplicity).
    pub committed: u64,
    /// Distinct transactions committed.
    pub unique_committed: u64,
    /// Transactions committed more than once (must be 0).
    pub double_commits: u64,
    /// WAL messages left after the quiesce deadline (must be 0).
    pub wal_leftover: usize,
    /// Programs checked by the final quiescent ground-truth pass.
    pub ground_truth_programs: usize,
    /// Warm cached results that disagreed with ground truth evaluated
    /// locally over the base records (must be 0).
    pub ground_truth_mismatches: u64,
    /// Virtual time for the whole run.
    pub elapsed: Duration,
    /// Queries per virtual second over the concurrent phase.
    pub query_throughput: f64,
}

impl ReadServeReport {
    /// Coherence and health violations; empty means the run was clean.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.stale_results > 0 {
            v.push(format!(
                "{} stale cached results served",
                self.stale_results
            ));
        }
        if self.ground_truth_mismatches > 0 {
            v.push(format!(
                "{} warm results disagree with ground truth",
                self.ground_truth_mismatches
            ));
        }
        if self.cache.gaps > 0 {
            v.push(format!("{} feed gaps poisoned the cache", self.cache.gaps));
        }
        if self.query_errors > 0 {
            v.push(format!("{} queries errored", self.query_errors));
        }
        if self.writer_errors > 0 {
            v.push(format!("{} writers died", self.writer_errors));
        }
        if self.double_commits > 0 {
            v.push(format!(
                "{} double-committed transactions",
                self.double_commits
            ));
        }
        if self.wal_leftover > 0 {
            v.push(format!(
                "{} WAL messages never committed",
                self.wal_leftover
            ));
        }
        if self.verified == 0 {
            v.push("no query ever hit the cache".into());
        }
        v
    }
}

/// One writer's round: a fresh process of the writer's program reads the
/// previous round's first output (lineage deepens every round) and
/// writes two new files.
fn writer_round(fs: &PaS3fs, w: usize, programs: usize, round: usize) -> bool {
    let prog = format!("prog-{}", w % programs.max(1));
    let pid = Pid((w as u64) * 1009 + round as u64 + 1);
    fs.exec(
        pid,
        ProcessInfo {
            name: prog,
            ..Default::default()
        },
    );
    if round > 0 {
        fs.read(pid, &format!("/w{w}/out-{}-0", round - 1), 8);
    }
    for i in 0..2 {
        let path = format!("/w{w}/out-{round}-{i}");
        fs.write(pid, &path, 16);
        if fs.close(pid, &path).is_err() {
            return false;
        }
    }
    true
}

struct TenantOutcome {
    counts: [u64; 4],
    cold: Vec<Duration>,
    verified: u64,
    stale: u64,
    retries: u64,
    errors: u64,
}

/// Runs one cached-eligible query and returns the output (so hit/miss
/// latency attribution and verification share one execution).
fn run_q(engine: &QueryEngine, q: usize, prog: &str) -> Result<QueryOutput, ()> {
    let r = match q {
        3 => engine.q3_outputs_of(prog, Mode::Sequential),
        _ => engine.q4_descendants_of(prog, Mode::Sequential),
    };
    r.map_err(|_| ())
}

/// Bound on [`verify_hit`]'s settle windows — far more than any run
/// drains in; it only keeps a wedged plane from spinning forever.
const MAX_SETTLE_WINDOWS: usize = 120;

/// Verifies a cache hit against the uncached index plan. The cache may
/// trail the index by exactly one thing: a commit whose index write has
/// landed but whose feed event has not been delivered yet. So a
/// difference is re-read, one `settle` window apart, for as long as such
/// a commit can exist — a WAL message is still queued, or an
/// invalidation arrived since the last look — and is a served **stale
/// result** once it survives a whole window in which the plane was empty
/// and the cache heard nothing. Returns `(verified_clean, retries)`.
fn verify_hit(
    env: &CloudEnv,
    fleet: &Fleet,
    cache: &AncestryCache,
    engine: &QueryEngine,
    q: usize,
    prog: &str,
    settle: Duration,
) -> (bool, u64) {
    let mut retries = 0u64;
    let mut quiet_epoch = None;
    for _ in 0..MAX_SETTLE_WINDOWS {
        // Re-read BOTH sides each attempt: after an invalidation event
        // lands, the cached read rehydrates fresh and the sides agree.
        let got = run_q(engine, q, prog);
        let truth = run_q(&engine.with_plan_ref(Plan::Index), q, prog);
        match (got, truth) {
            (Ok(g), Ok(t)) => {
                let g: BTreeSet<_> = g.nodes.iter().copied().collect();
                let t: BTreeSet<_> = t.nodes.iter().copied().collect();
                if g == t {
                    return (true, retries);
                }
            }
            _ => return (false, retries),
        }
        let epoch = cache.epoch();
        if fleet.total_depth() == 0 {
            if quiet_epoch == Some(epoch) {
                return (false, retries);
            }
            quiet_epoch = Some(epoch);
        } else {
            quiet_epoch = None;
        }
        retries += 1;
        env.sim().sleep(settle);
    }
    (false, retries)
}

/// Drives one complete concurrent read-serving run. Pure function of
/// `params` — the same parameters reproduce the identical report.
#[allow(clippy::too_many_lines)]
pub fn run_readserve(params: &ReadServeParams) -> ReadServeReport {
    let sim = Sim::new();
    let mut profile = params.profile.clone();
    profile.seed = params.seed;
    let env = CloudEnv::new(&sim, profile);
    let protocol_config = ProtocolConfig {
        feed: true,
        ..ProtocolConfig::default()
    };
    let fleet = Fleet::provision(
        &env,
        protocol_config.clone(),
        FleetConfig {
            shards: params.shards,
            lease_ttl: Duration::from_secs(120),
            max_shard_depth: 64,
            admission_poll: Duration::from_millis(200),
            push: true,
        },
    );
    let pool = fleet.spawn_pool(params.daemons, params.poll_interval);
    // The read tier: one cache shared by every tenant, invalidated by
    // the same at-least-once commit feed the daemons publish. The sink
    // fans out so the monitor subscription sees the identical stream.
    let cache = Arc::new(AncestryCache::new(
        &sim,
        CacheConfig {
            staleness_guard: env.profile().consistency.max_staleness,
            ..CacheConfig::default()
        },
    ));
    let subs = Subscriptions::new(&sim);
    let monitor = subs
        .subscribe(None, Predicate::All)
        .expect("fresh registry cannot be over quota");
    pool.set_event_sink(fanout(vec![cache.sink(), subs.sink()]));
    cache.attach();
    let t0 = sim.now();

    // Round 0: every writer commits its warmup corpus; quiesce before
    // any query runs so the index has something to serve.
    let warmup: Vec<_> = (0..params.writers)
        .map(|w| {
            let fleet = fleet.clone();
            let params = params.clone();
            sim.spawn(move || {
                let client =
                    Arc::new(fleet.client(&format!("w{w}-warm"), Some(TenantId(w as u32))));
                let fs = PaS3fs::attach(
                    client.clone(),
                    LocalIoParams::instant(),
                    mix64(params.seed ^ mix64(0xA11C_E000 ^ w as u64)),
                );
                let ok = writer_round(&fs, w, params.programs, 0);
                (ok && client.sync().is_ok()) as u64
            })
        })
        .collect();
    let mut writer_errors =
        params.writers as u64 - warmup.into_iter().map(|h| h.join()).sum::<u64>();
    let deadline = sim.now() + Duration::from_secs(24 * 3600);
    while fleet.total_depth() > 0 && sim.now() < deadline {
        let _ = monitor.next_timeout(params.poll_interval);
    }

    // The read-side store handle (feed state stays the writers').
    let reader = ProvenanceClient::builder(Protocol::P3)
        .config(ProtocolConfig {
            feed: false,
            ..protocol_config.clone()
        })
        .queue("readserve-reader")
        .build(&env);
    let store = reader.provenance_store().expect("P3 has a store");
    let data_bucket = reader.data_bucket().to_string();

    // Concurrent phase: writers keep committing rounds 1..R while Q
    // query tenants issue mixed Q.1–Q.4 against the same store.
    let q_t0 = sim.now();
    let live_writers: Vec<_> = (0..params.writers)
        .map(|w| {
            let fleet = fleet.clone();
            let env = env.clone();
            let params = params.clone();
            sim.spawn(move || {
                let client =
                    Arc::new(fleet.client(&format!("w{w}-live"), Some(TenantId(w as u32))));
                let fs = PaS3fs::attach(
                    client.clone(),
                    LocalIoParams::instant(),
                    mix64(params.seed ^ mix64(0xB0B0_0000 ^ w as u64)),
                );
                let mut ok = true;
                for r in 1..=params.rounds {
                    // Sleep first: the round's commits land mid-phase,
                    // after tenants have populated the cache — so the
                    // feed actually invalidates resident entries.
                    env.sim().sleep(Duration::from_secs(45));
                    ok &= writer_round(&fs, w, params.programs, r);
                }
                (ok && client.sync().is_ok()) as u64
            })
        })
        .collect();
    let tenants: Vec<_> = (0..params.query_tenants)
        .map(|t| {
            let env = env.clone();
            let store = store.clone();
            let data_bucket = data_bucket.clone();
            let cache = cache.clone();
            let fleet = fleet.clone();
            let params = params.clone();
            sim.spawn(move || {
                let engine = QueryEngine::new(&env, store, &data_bucket)
                    .with_tenant(TenantId(1000 + t as u32))
                    .with_cache(cache.clone());
                let mut rng = mix64(params.seed ^ mix64(0x0F00_D000 ^ t as u64));
                let mut out = TenantOutcome {
                    counts: [0; 4],
                    cold: Vec::new(),
                    verified: 0,
                    stale: 0,
                    retries: 0,
                    errors: 0,
                };
                for _ in 0..params.queries_per_tenant {
                    rng = mix64(rng);
                    env.sim().sleep(Duration::from_millis(rng % 20_000));
                    rng = mix64(rng);
                    let roll = rng % 100;
                    rng = mix64(rng);
                    let prog = format!("prog-{}", rng as usize % params.programs.max(1));
                    if roll < 4 {
                        out.counts[0] += 1;
                        if engine.q1_all(Mode::Sequential).is_err() {
                            out.errors += 1;
                        }
                    } else if roll < 12 {
                        out.counts[1] += 1;
                        rng = mix64(rng);
                        let w = rng as usize % params.writers.max(1);
                        // A round-0 key: committed before the phase began.
                        if engine.q2_object(&format!("w{w}/out-0-0")).is_err() {
                            out.errors += 1;
                        }
                    } else {
                        let q = if roll < 56 { 3 } else { 4 };
                        out.counts[q - 1] += 1;
                        match run_q(&engine, q, &prog) {
                            Err(()) => out.errors += 1,
                            Ok(r) => match r.plan.cache {
                                Some(CacheOutcome::Hit) => {
                                    out.verified += 1;
                                    let (ok, retries) = verify_hit(
                                        &env,
                                        &fleet,
                                        &cache,
                                        &engine,
                                        q,
                                        &prog,
                                        params.poll_interval,
                                    );
                                    out.retries += retries;
                                    if !ok {
                                        out.stale += 1;
                                    }
                                }
                                Some(CacheOutcome::Miss) => out.cold.push(r.metrics.elapsed),
                                _ => {}
                            },
                        }
                    }
                }
                out
            })
        })
        .collect();
    writer_errors +=
        params.writers as u64 - live_writers.into_iter().map(|h| h.join()).sum::<u64>();
    let outcomes: Vec<TenantOutcome> = tenants.into_iter().map(|h| h.join()).collect();
    let query_phase = sim.now().saturating_duration_since(q_t0);

    // Drain the plane, then the quiescent ground-truth pass.
    while fleet.total_depth() > 0 && sim.now() < deadline {
        let _ = monitor.next_timeout(params.poll_interval);
    }
    let wal_leftover = fleet.total_depth();
    let pool_stats = pool.stop();
    sim.sleep(env.profile().consistency.max_staleness + Duration::from_secs(1));

    // Ground truth: base records evaluated locally (never through the
    // index or the cache), compared against a *warm* cached read.
    let gt = QueryEngine::new(&env, store.clone(), &data_bucket).with_cache(cache.clone());
    let raw = gt
        .source(Plan::SdbSelect)
        .all_records(Mode::Sequential)
        .expect("quiescent store reads back");
    let mut ground_truth_mismatches = 0u64;
    for p in 0..params.programs {
        let prog = format!("prog-{p}");
        let procs = local::processes_named(&raw, &prog);
        let (truth_q3, _) = local::direct_outputs(&raw, &procs);
        let truth_q4 = local::descendants(&raw, &procs);
        for (q, truth) in [(3usize, truth_q3), (4, truth_q4)] {
            let _prime = run_q(&gt, q, &prog);
            match run_q(&gt, q, &prog) {
                Ok(warm) => {
                    if warm.nodes != truth {
                        ground_truth_mismatches += 1;
                    }
                }
                Err(()) => ground_truth_mismatches += 1,
            }
        }
    }
    let elapsed = sim.now().saturating_duration_since(t0);

    // The registry's nearest-rank convention carries the percentiles.
    let mut reg = Registry::new();
    let mut counts = [0u64; 4];
    let mut verified = 0u64;
    let mut stale_results = 0u64;
    let mut verify_retries = 0u64;
    let mut query_errors = 0u64;
    for o in &outcomes {
        for (i, c) in o.counts.iter().enumerate() {
            counts[i] += c;
        }
        verified += o.verified;
        stale_results += o.stale;
        verify_retries += o.retries;
        query_errors += o.errors;
        for d in &o.cold {
            reg.record("query.cold", *d);
        }
    }
    let stats = cache.stats();
    let queries: u64 = counts.iter().sum();
    let served = stats.hits + stats.misses;
    let secs = query_phase.as_secs_f64();
    ReadServeReport {
        query_tenants: params.query_tenants,
        writers: params.writers,
        programs: params.programs,
        rounds: params.rounds,
        queries,
        q_counts: counts,
        hit_rate: if served > 0 {
            stats.hits as f64 / served as f64
        } else {
            0.0
        },
        cold_p50: reg.percentile("query.cold", 50.0),
        cold_p99: reg.percentile("query.cold", 99.0),
        cold_samples: reg.count("query.cold"),
        verified,
        stale_results,
        verify_retries,
        query_errors,
        writer_errors,
        committed: pool_stats.committed,
        unique_committed: pool_stats.unique_committed,
        double_commits: pool_stats.double_commits,
        wal_leftover,
        ground_truth_programs: params.programs,
        ground_truth_mismatches,
        elapsed,
        query_throughput: if secs > 0.0 {
            queries as f64 / secs
        } else {
            0.0
        },
        cache: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReadServeParams {
        ReadServeParams {
            query_tenants: 10,
            queries_per_tenant: 3,
            writers: 3,
            programs: 2,
            rounds: 1,
            shards: 2,
            daemons: 2,
            seed: 11,
            poll_interval: Duration::from_secs(2),
            profile: AwsProfile::instant(),
        }
    }

    #[test]
    fn tiny_readserve_run_is_clean_and_warm() {
        let r = run_readserve(&tiny());
        assert_eq!(r.violations(), Vec::<String>::new(), "{r:?}");
        assert!(r.queries > 0);
        assert!(r.cache.hits > 0, "some query must be served from memory");
        assert!(r.cache.invalidations > 0, "live rounds must invalidate");
        assert_eq!(r.stale_results, 0);
        assert_eq!(r.ground_truth_mismatches, 0);
        assert!(r.hit_rate > 0.0 && r.hit_rate <= 1.0);
        assert!(r.verified > 0, "every hit is verified");
    }

    /// A busy 4x2 plane's index -> ack -> feed tail outlasts any fixed
    /// number of settle windows: a verifier that gives up while a commit
    /// is still in flight reports a stale cache that never was (this
    /// shape read "2 stale" under a four-window rule).
    #[test]
    fn busy_plane_is_not_mistaken_for_a_stale_cache() {
        let r = run_readserve(&ReadServeParams {
            query_tenants: 240,
            queries_per_tenant: 10,
            writers: 32,
            programs: 24,
            rounds: 8,
            shards: 4,
            daemons: 2,
            seed: 7,
            ..ReadServeParams::default()
        });
        assert_eq!(r.stale_results, 0);
        assert_eq!(r.violations(), Vec::<String>::new(), "{r:?}");
    }

    #[test]
    fn readserve_runs_are_deterministic() {
        let a = run_readserve(&tiny());
        let b = run_readserve(&tiny());
        assert_eq!(a, b, "same params + seed must reproduce bit-identically");
    }
}
