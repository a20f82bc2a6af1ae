//! The benchmark's own read-tier driver. One function serves `read-serve`
//! (a cache that holds the working set, writer rounds every 45 s) and
//! `read-churn` (a cache a quarter of the working set, rounds every 15 s):
//! hundreds of query tenants issue a seeded Q.1–Q.4 mix against a store a
//! live fleet keeps committing to, through one shared `AncestryCache`.
//!
//! It returns the raw per-query samples. Every cache hit is re-checked
//! against the uncached index plan through a *separate verifier tenant*,
//! so the harness's check traffic can be subtracted from the bill, which
//! — as in `workloads::fleet` — is taken before the final verification
//! pass.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudprov_cloud::{Actor, AwsProfile, CloudEnv, PriceBook, TenantId, UsageReport};
use cloudprov_core::{FlushSample, Protocol, ProtocolConfig, ProvenanceClient, StorageProtocol};
use cloudprov_feed::{fanout, Predicate, Subscriptions};
use cloudprov_fleet::{Fleet, FleetConfig, PoolStats};
use cloudprov_fs::{LocalIoParams, PaS3fs};
use cloudprov_pass::{Pid, ProcessInfo, Uuid};
use cloudprov_query::source::local;
use cloudprov_query::{
    AncestryCache, CacheConfig, CacheOutcome, CacheStats, Mode, Plan, QueryEngine, QueryOutput,
};
use cloudprov_sim::{Sim, SimTime};

use crate::plane::{mix64, CommitJoin, Phases, TraceOut};
use crate::spans::HostSpans;

/// Size of the read tier and of the write load beside it.
#[derive(Clone, Debug)]
pub struct ReadShape {
    pub query_tenants: usize,
    pub queries_per_tenant: usize,
    pub writers: usize,
    pub programs: usize,
    /// Writer rounds committed *during* the query phase.
    pub rounds: usize,
    /// Virtual seconds between writer rounds.
    pub round_interval: Duration,
    pub shards: u32,
    pub daemons: usize,
    /// `None`: the cache's default 4 MiB budget. `Some(b)`: `b` bytes for
    /// the whole cache and per tenant, nothing reserved.
    pub cache_bytes: Option<usize>,
    /// Timed warm Q.3/Q.4 calls on the quiesced store. Zero for
    /// `read-churn`: once the corpus has grown, hydrating ONE query
    /// installs more pages than a 20 KiB cache holds, so on the quiesced
    /// store no query is ever warm and there is no hit path to time.
    pub warm_calls: usize,
    pub profile: AwsProfile,
}

impl ReadShape {
    /// `read-serve`: resident set ≈ 85 KB, so the default cache holds it.
    pub fn serve() -> ReadShape {
        ReadShape {
            query_tenants: 240,
            queries_per_tenant: 10,
            writers: 32,
            programs: 24,
            rounds: 8,
            round_interval: Duration::from_secs(45),
            shards: 8,
            daemons: 8,
            cache_bytes: None,
            warm_calls: 2016,
            profile: AwsProfile::calibrated_strict(Default::default()),
        }
    }

    /// `read-churn`: the same stream, a cache about a quarter of the
    /// working set, and writes three times as often.
    pub fn churn() -> ReadShape {
        ReadShape {
            round_interval: Duration::from_secs(15),
            cache_bytes: Some(20 << 10),
            warm_calls: 0,
            ..ReadShape::serve()
        }
    }

    /// 24 tenants on instant services.
    pub fn smoke(churn: bool) -> ReadShape {
        ReadShape {
            query_tenants: 24,
            queries_per_tenant: 4,
            writers: 4,
            programs: 3,
            rounds: 2,
            shards: 2,
            daemons: 2,
            warm_calls: if churn { 0 } else { 48 },
            profile: AwsProfile::instant(),
            ..if churn {
                ReadShape::churn()
            } else {
                ReadShape::serve()
            }
        }
    }
}

const POLL_INTERVAL: Duration = Duration::from_secs(2);
/// A difference that outlives this many settle windows is stale whatever
/// the plane is doing (the writers are done long before).
const MAX_SETTLE_WINDOWS: usize = 120;
/// Verifier engines meter under `VERIFIER + tenant index`.
const VERIFIER: u32 = 1_000_000;

/// One issued query.
#[derive(Clone, Copy, Debug)]
pub struct QuerySample {
    /// 1..=4.
    pub kind: u8,
    /// Virtual latency the tenant saw (a cache hit costs none).
    pub latency: Duration,
    pub ops: u64,
    pub plan: Option<Plan>,
    pub cache: Option<CacheOutcome>,
}

/// Everything one run measured, raw.
#[derive(Debug)]
pub struct ReadRun {
    pub queries: Vec<QuerySample>,
    /// Writers' transactions, WAL-durable → committed.
    pub commit: Vec<Duration>,
    pub pickup: Vec<Duration>,
    pub flush: Vec<FlushSample>,
    /// Cache counters at the end of the query phase (before verification).
    pub cache: CacheStats,
    pub verified_hits: u64,
    pub verify_retries: u64,
    pub stale_results: u64,
    /// Host nanoseconds of each timed warm Q.3/Q.4 that hit the cache.
    pub warm_hit_ns: Vec<f64>,
    /// Usage and bill before the verification pass, verifier traffic removed.
    pub usage: UsageReport,
    pub cost_usd: f64,
    pub pool: PoolStats,
    pub feed_events: u64,
    pub feed_duplicates: u64,
    pub feed_gaps: u64,
    pub dedupe_evictions: u64,
    pub logged_txns: u64,
    /// Virtual time of the concurrent phase plus the drain.
    pub virtual_elapsed: Duration,
    pub failures: Vec<String>,
    pub trace: Option<TraceOut>,
    pub phases: Phases,
}

/// One writer round: a fresh process of the writer's program reads the
/// previous round's first output and writes two new files.
fn writer_round(fs: &PaS3fs, w: usize, programs: usize, round: usize) -> bool {
    let pid = Pid((w as u64) * 1009 + round as u64 + 1);
    fs.exec(
        pid,
        ProcessInfo {
            name: format!("prog-{}", w % programs.max(1)),
            ..Default::default()
        },
    );
    if round > 0 {
        fs.read(pid, &format!("/w{w}/out-{}-0", round - 1), 8);
    }
    (0..2).all(|i| {
        let path = format!("/w{w}/out-{round}-{i}");
        fs.write(pid, &path, 16);
        fs.close(pid, &path).is_ok()
    })
}

fn run_q(engine: &QueryEngine, q: u8, prog: &str) -> Option<QueryOutput> {
    match q {
        3 => engine.q3_outputs_of(prog, Mode::Sequential),
        _ => engine.q4_descendants_of(prog, Mode::Sequential),
    }
    .ok()
}

/// Re-checks a cache hit against the uncached index plan (issued by the
/// verifier tenant). The cache is allowed to trail the index by exactly
/// one thing: a commit whose index write has landed but whose feed event
/// has not been delivered yet. So a difference is re-read, one settle
/// window apart, for as long as such a commit can exist — a WAL message is
/// still queued, or an invalidation arrived since the last look — and is a
/// served **stale result** once it survives a whole window in which the
/// plane was empty and the cache heard nothing. Returns `(clean, retries)`.
fn verify_hit(
    env: &CloudEnv,
    fleet: &Fleet,
    cache: &AncestryCache,
    engine: &QueryEngine,
    truth: &QueryEngine,
    q: u8,
    prog: &str,
) -> (bool, u64) {
    let mut retries = 0;
    let mut quiet_epoch = None;
    for _ in 0..MAX_SETTLE_WINDOWS {
        match (run_q(engine, q, prog), run_q(truth, q, prog)) {
            (Some(g), Some(t)) => {
                let g: BTreeSet<_> = g.nodes.into_iter().collect();
                let t: BTreeSet<_> = t.nodes.into_iter().collect();
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
        env.sim().sleep(POLL_INTERVAL);
    }
    (false, retries)
}

#[derive(Default)]
struct TenantOutcome {
    queries: Vec<QuerySample>,
    verified: u64,
    stale: u64,
    retries: u64,
    errors: u64,
}

struct WriterOutcome {
    ok: bool,
    logged: Vec<(Uuid, SimTime)>,
    flush: Vec<FlushSample>,
    uploads: u64,
    dedupe_evictions: u64,
}

fn writer_outcome(client: &ProvenanceClient, ok: bool) -> WriterOutcome {
    let synced = client.sync().is_ok();
    let stats = client.pipeline_stats();
    WriterOutcome {
        ok: ok && synced,
        logged: client.wal_logged_transactions(),
        flush: client.flush_breakdown(),
        uploads: stats.as_ref().map_or(0, |s| s.uploads),
        dedupe_evictions: stats.map_or(0, |s| s.dedupe_evictions),
    }
}

/// Removes the verifier tenants' calls from a usage report, so the bill
/// covers the tenants' and writers' traffic only.
fn without_verifier(mut usage: UsageReport) -> UsageReport {
    let verifier: Vec<_> = usage
        .tenant_ops
        .iter()
        .filter(|((t, _, _), _)| t.0 >= VERIFIER)
        .map(|(k, v)| (*k, *v))
        .collect();
    for ((tenant, service, op), st) in verifier {
        usage.tenant_ops.remove(&(tenant, service, op));
        if let Some(total) = usage.ops.get_mut(&(Actor::Query, service, op)) {
            total.count = total.count.saturating_sub(st.count);
            total.bytes_in = total.bytes_in.saturating_sub(st.bytes_in);
            total.bytes_out = total.bytes_out.saturating_sub(st.bytes_out);
        }
    }
    usage
}

/// Drives one complete run. A pure function of its arguments on the
/// virtual ledger.
#[allow(clippy::too_many_lines)]
pub fn run_reads(
    shape: &ReadShape,
    seed: u64,
    traced: bool,
    spans: &Arc<HostSpans>,
    parent: Option<u64>,
) -> ReadRun {
    let mut failures: Vec<String> = Vec::new();
    let t_setup = Instant::now();
    let ph = spans.enter("phase:setup", parent);

    let sim = Sim::new();
    let mut profile = shape.profile.clone();
    profile.seed = seed;
    let env = CloudEnv::new(&sim, profile);
    if traced {
        env.tracer().enable(seed);
    }
    let protocol_config = ProtocolConfig {
        feed: true,
        ..ProtocolConfig::default()
    };
    let fleet = spans.scope("fleet::Fleet::provision", ph.id(), || {
        Fleet::provision(
            &env,
            protocol_config.clone(),
            FleetConfig {
                shards: shape.shards,
                lease_ttl: Duration::from_secs(120),
                max_shard_depth: 64,
                admission_poll: Duration::from_millis(200),
                push: true,
            },
        )
    });
    let pool = spans.scope("fleet::Fleet::spawn_pool", ph.id(), || {
        fleet.spawn_pool(shape.daemons, POLL_INTERVAL)
    });
    let staleness_guard = env.profile().consistency.max_staleness;
    let cache = Arc::new(AncestryCache::new(
        &sim,
        match shape.cache_bytes {
            None => CacheConfig {
                staleness_guard,
                ..CacheConfig::default()
            },
            Some(bytes) => CacheConfig {
                capacity_bytes: bytes,
                tenant_max_bytes: bytes,
                tenant_reserved_bytes: 0,
                staleness_guard,
            },
        },
    ));
    let subs = Subscriptions::new(&sim);
    let monitor = subs
        .subscribe(None, Predicate::All)
        .expect("fresh registry cannot be over quota");
    pool.set_event_sink(fanout(vec![cache.sink(), subs.sink()]));
    cache.attach();

    let spawn_writer =
        |w: usize, tag: &'static str, salt: u64, rounds: std::ops::RangeInclusive<usize>| {
            let fleet = fleet.clone();
            let env = env.clone();
            let programs = shape.programs;
            let interval = shape.round_interval;
            sim.spawn(move || {
                let client =
                    Arc::new(fleet.client(&format!("w{w}-{tag}"), Some(TenantId(w as u32))));
                let fs = PaS3fs::attach(
                    client.clone(),
                    LocalIoParams::instant(),
                    mix64(seed ^ mix64(salt ^ w as u64)),
                );
                let mut ok = true;
                for r in rounds {
                    if r > 0 {
                        // Sleep first: the round lands mid-phase, after the
                        // tenants have populated the cache, so the feed
                        // invalidates resident entries.
                        env.sim().sleep(interval);
                    }
                    ok &= writer_round(&fs, w, programs, r);
                }
                writer_outcome(&client, ok)
            })
        };

    // Warm corpus: round 0 of every writer, committed and quiesced, so
    // the index has something to serve.
    let warm = spans.enter("warm corpus (round 0 + quiesce)", ph.id());
    let warmup: Vec<_> = (0..shape.writers)
        .map(|w| spawn_writer(w, "warm", 0xA11C_E000, 0..=0))
        .collect();
    let mut writers: Vec<WriterOutcome> = warmup.into_iter().map(|h| h.join()).collect();
    let deadline = sim.now() + Duration::from_secs(24 * 3600);
    while fleet.total_depth() > 0 && sim.now() < deadline {
        let _ = monitor.next_timeout(POLL_INTERVAL);
    }
    spans.exit(warm);
    let reader = ProvenanceClient::builder(Protocol::P3)
        .config(ProtocolConfig {
            feed: false,
            ..protocol_config.clone()
        })
        .queue("bench-reader")
        .build(&env);
    let store = reader.provenance_store().expect("P3 has a store");
    let data_bucket = reader.data_bucket().to_string();

    // Concurrent phase actors (none runs before the harness blocks).
    let q_t0 = sim.now();
    let live: Vec<_> = (0..shape.writers)
        .map(|w| spawn_writer(w, "live", 0xB0B0_0000, 1..=shape.rounds))
        .collect();
    let tenants: Vec<_> = (0..shape.query_tenants)
        .map(|t| {
            let env = env.clone();
            let store = store.clone();
            let data_bucket = data_bucket.clone();
            let cache = cache.clone();
            let fleet = fleet.clone();
            let shape = shape.clone();
            let spans = spans.clone();
            sim.spawn(move || {
                let lane = spans.enter_on("query tenant", parent, t as u64 + 1);
                let engine = QueryEngine::new(&env, store.clone(), &data_bucket)
                    .with_tenant(TenantId(1000 + t as u32))
                    .with_cache(cache.clone());
                let truth = QueryEngine::new(&env, store, &data_bucket)
                    .with_tenant(TenantId(VERIFIER + t as u32))
                    .with_plan(Plan::Index);
                let mut rng = mix64(seed ^ mix64(0x0F00_D000 ^ t as u64));
                let mut next = || {
                    rng = mix64(rng);
                    rng
                };
                let mut out = TenantOutcome::default();
                for _ in 0..shape.queries_per_tenant {
                    env.sim().sleep(Duration::from_millis(next() % 20_000));
                    let roll = next() % 100;
                    let prog = format!("prog-{}", next() as usize % shape.programs.max(1));
                    let (kind, result) = if roll < 4 {
                        (1, engine.q1_all(Mode::Sequential).ok())
                    } else if roll < 12 {
                        // A round-0 key: committed before the phase began.
                        let w = next() as usize % shape.writers.max(1);
                        (2, engine.q2_object(&format!("w{w}/out-0-0")).ok())
                    } else {
                        let q = if roll < 56 { 3 } else { 4 };
                        (q, run_q(&engine, q, &prog))
                    };
                    let Some(r) = result else {
                        out.errors += 1;
                        continue;
                    };
                    out.queries.push(QuerySample {
                        kind,
                        latency: r.metrics.elapsed,
                        ops: r.metrics.ops,
                        plan: r.plan.plan,
                        cache: r.plan.cache,
                    });
                    if r.plan.cache == Some(CacheOutcome::Hit) {
                        out.verified += 1;
                        let (clean, retries) =
                            verify_hit(&env, &fleet, &cache, &engine, &truth, kind, &prog);
                        out.retries += retries;
                        out.stale += u64::from(!clean);
                    }
                }
                spans.exit(lane);
                out
            })
        })
        .collect();
    spans.exit(ph);
    let setup = t_setup.elapsed();

    let t_drive = Instant::now();
    let ph = spans.enter("phase:drive", parent);
    writers.extend(live.into_iter().map(|h| h.join()));
    let outcomes: Vec<TenantOutcome> = tenants.into_iter().map(|h| h.join()).collect();
    spans.exit(ph);
    let drive = t_drive.elapsed();

    let t_quiesce = Instant::now();
    let ph = spans.enter("phase:quiesce", parent);
    while fleet.total_depth() > 0 && sim.now() < deadline {
        let _ = monitor.next_timeout(POLL_INTERVAL);
    }
    let virtual_elapsed = sim.now().saturating_duration_since(q_t0);
    let wal_leftover = fleet.total_depth();
    let commit_times: BTreeMap<Uuid, SimTime> = pool.commit_times().into_iter().collect();
    let pickup_times: BTreeMap<Uuid, SimTime> = pool.pickup_times().into_iter().collect();
    let pool_stats = spans.scope("fleet::DaemonPool::stop", ph.id(), || pool.stop());
    let cache_stats = cache.stats();
    let usage = without_verifier(env.usage());
    let cost_usd = PriceBook::aws_2009().cost(&usage).total();
    spans.exit(ph);
    let quiesce = t_quiesce.elapsed();

    let t_verify = Instant::now();
    let ph = spans.enter("phase:verify", parent);
    if wal_leftover > 0 {
        failures.push(format!("{wal_leftover} WAL messages never committed"));
    }
    for _ in 0..pool_stats.double_commits {
        failures.push("double-committed transaction".into());
    }
    let mut join = CommitJoin::default();
    let tracer = traced.then(|| env.tracer());
    let mut flush = Vec::new();
    let mut logged_txns = 0;
    let mut dedupe_evictions = 0;
    for (i, w) in writers.iter().enumerate() {
        if !w.ok {
            failures.push(format!(
                "writer {} died or failed to sync",
                i % shape.writers
            ));
        }
        logged_txns += w.uploads;
        dedupe_evictions += w.dedupe_evictions;
        flush.extend_from_slice(&w.flush);
        join.add(
            &w.logged,
            &commit_times,
            &pickup_times,
            tracer,
            &mut failures,
        );
    }
    let mut queries = Vec::new();
    let (mut verified_hits, mut stale_results, mut verify_retries) = (0, 0, 0);
    for o in outcomes {
        queries.extend(o.queries);
        verified_hits += o.verified;
        stale_results += o.stale;
        verify_retries += o.retries;
        for _ in 0..o.errors {
            failures.push("query returned an error".into());
        }
    }
    for _ in 0..stale_results {
        failures.push("stale cached result served".into());
    }
    for _ in 0..cache_stats.gaps {
        failures.push("feed gap poisoned the cache".into());
    }
    let feed_stats = subs.stats();
    let feed_gaps = feed_stats.gaps + monitor.out_of_order();
    for _ in 0..feed_gaps {
        failures.push("feed sequence gap".into());
    }

    // Ground truth on the quiescent store: base records evaluated locally
    // (never through the index or the cache) against a *warm* cached read.
    sim.sleep(env.profile().consistency.max_staleness + Duration::from_secs(1));
    let gt = QueryEngine::new(&env, store.clone(), &data_bucket).with_cache(cache.clone());
    let truth_span = spans.enter("query::QueryEngine ground-truth pass", ph.id());
    match gt.source(Plan::SdbSelect).all_records(Mode::Sequential) {
        Err(e) => failures.push(format!("quiescent store did not read back: {e}")),
        Ok(raw) => {
            for p in 0..shape.programs {
                let prog = format!("prog-{p}");
                let procs = local::processes_named(&raw, &prog);
                let (truth_q3, _) = local::direct_outputs(&raw, &procs);
                let truth_q4 = local::descendants(&raw, &procs);
                for (q, truth) in [(3u8, truth_q3), (4, truth_q4)] {
                    let _prime = run_q(&gt, q, &prog);
                    if run_q(&gt, q, &prog).map(|warm| warm.nodes) != Some(truth) {
                        failures.push(format!("warm Q.{q} of {prog} disagrees with ground truth"));
                    }
                }
            }
        }
    }
    spans.exit(truth_span);

    // Host cost of a warm hit through the engine (planner + cache): per
    // program, prime once, then time consecutive calls — consecutive so
    // that they hit even when the cache is smaller than the working set.
    let warm_span = spans.enter("query::QueryEngine warm Q.3/Q.4 (timed)", ph.id());
    let per_program = shape.warm_calls.div_ceil(shape.programs.max(1) * 2);
    let mut warm_hit_ns = Vec::with_capacity(shape.warm_calls);
    for p in 0..shape.programs {
        let prog = format!("prog-{p}");
        for q in [3u8, 4] {
            if per_program == 0 {
                break;
            }
            let _prime = run_q(&gt, q, &prog);
            for _ in 0..per_program {
                let t = Instant::now();
                let r = std::hint::black_box(run_q(&gt, q, std::hint::black_box(&prog)));
                let ns = t.elapsed().as_nanos() as f64;
                if r.is_some_and(|r| r.plan.cache == Some(CacheOutcome::Hit)) {
                    warm_hit_ns.push(ns);
                }
            }
        }
    }
    spans.exit(warm_span);

    let trace = tracer.map(|t| join.trace_out(t, &mut failures));
    spans.exit(ph);
    let verify = t_verify.elapsed();

    ReadRun {
        queries,
        commit: join.commit,
        pickup: join.pickup,
        flush,
        cache: cache_stats,
        verified_hits,
        verify_retries,
        stale_results,
        warm_hit_ns,
        usage,
        cost_usd,
        pool: pool_stats,
        feed_events: feed_stats.events,
        feed_duplicates: feed_stats.duplicates,
        feed_gaps,
        dedupe_evictions,
        logged_txns,
        virtual_elapsed,
        failures,
        trace,
        phases: Phases {
            setup,
            drive,
            quiesce,
            verify,
        },
    }
}
