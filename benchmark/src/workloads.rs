//! The six workloads: each turns one run of a driver into a
//! [`Repetition`] — named metrics on the virtual ledger, a few host-side
//! readings the driver itself takes, the phase times, and the checks.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use cloudprov_cloud::{Actor, Service, UsageReport};
use cloudprov_core::{FlushSample, Protocol};
use cloudprov_query::{CacheOutcome, Plan};

use crate::cold::{run_cold, ColdShape};
use crate::metrics::{
    COMMIT_BURST, COMMIT_PACED, PAPER_REPLAY, QUERY_COLD, READ_CHURN, READ_SERVE,
};
use crate::plane::{arrival_offsets, run_plane, Phases, PlaneRun, PlaneShape, TraceOut};
use crate::reads::{run_reads, QuerySample, ReadShape};
use crate::replay::run_replay;
use crate::spans::HostSpans;
use crate::stats::{mean, median, percentile_ms, percentile_supported};

/// `commit-paced` measures latency at this arrival rate…
pub const BASE_RATE: f64 = 1.0;
/// …and climbs this ladder once for `max_ok_sessions_per_s`.
pub const LADDER: [f64; 5] = [0.5, 1.0, 2.0, 3.0, 4.0];
/// A ladder rate is *ok* while commit p99 stays within this…
pub const LATENCY_LIMIT_MS: f64 = 30_000.0;
/// …and the plane is quiet this soon after the last arrival (otherwise
/// the backlog is growing and the rate is not sustainable).
pub const QUIESCE_LIMIT: Duration = Duration::from_secs(30);

/// Fixed input size, or the seconds-long shapes the unit tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

pub type Values = BTreeMap<&'static str, f64>;

/// What one repetition of a workload measured.
#[derive(Debug, Default)]
pub struct Repetition {
    /// Virtual-ledger metrics (and exact counts): a pure function of the
    /// seed, compared bit for bit across repetitions.
    pub virt: Values,
    /// Host-ledger metrics the workload itself measures.
    pub host: Values,
    /// Sample counts behind the percentiles (also virtual).
    pub notes: Values,
    pub phases: Phases,
    /// Operations attempted: txns logged, durable keys verified, queries
    /// issued, replay cells.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Virtual seconds the repetition simulated.
    pub virtual_elapsed: Duration,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `commit_p50_ms`, `commit_p99_ms` and the sample count. At full scale
/// the p99 must rest on n ≥ 1000.
fn commit_metrics(rep: &mut Repetition, commit: &[Duration], scale: Scale, home: bool) {
    rep.notes.insert("commit_n", commit.len() as f64);
    rep.virt
        .insert("commit_p50_ms", percentile_ms(commit, 50.0));
    rep.virt
        .insert("commit_p99_ms", percentile_ms(commit, 99.0));
    if home && scale == Scale::Full && !percentile_supported(commit.len(), 99.0) {
        rep.failures.push(format!(
            "commit_p99_ms rests on n = {} < 1000 samples",
            commit.len()
        ));
    }
}

fn usage_metrics(rep: &mut Repetition, usages: &[&UsageReport]) {
    let sum = |f: &dyn Fn(&UsageReport) -> u64| usages.iter().map(|u| f(u)).sum::<u64>() as f64;
    let by_service = |s: Service| sum(&|u: &UsageReport| u.total_ops(|_, service, _| service == s));
    let total = sum(&|u| u.total_ops(|_, _, _| true));
    let daemon =
        sum(&|u| u.total_ops(|a, _, _| matches!(a, Actor::CommitDaemon | Actor::CleanerDaemon)));
    rep.virt.insert("cloud_ops", total);
    rep.virt
        .insert("cloud.s3.ops", by_service(Service::ObjectStore));
    rep.virt
        .insert("cloud.sdb.ops", by_service(Service::Database));
    rep.virt.insert("cloud.sqs.ops", by_service(Service::Queue));
    let bytes = |f: &dyn Fn(&cloudprov_cloud::OpStats) -> u64| {
        usages
            .iter()
            .flat_map(|u| u.ops.values())
            .map(f)
            .sum::<u64>() as f64
            / 1e6
    };
    rep.virt.insert("cloud.mb_in", bytes(&|st| st.bytes_in));
    rep.virt.insert("cloud.mb_out", bytes(&|st| st.bytes_out));
    rep.virt.insert(
        "cloud.daemon_ops_share",
        if total > 0.0 { daemon / total } else { 0.0 },
    );
}

fn client_metrics(rep: &mut Repetition, flush: &[FlushSample], dedupe_evictions: u64) {
    let col = |f: fn(&FlushSample) -> Duration| -> Vec<Duration> { flush.iter().map(f).collect() };
    let total = col(|s| s.total);
    rep.virt
        .insert("core.client.flush_p50_ms", percentile_ms(&total, 50.0));
    rep.virt
        .insert("core.client.flush_p99_ms", percentile_ms(&total, 99.0));
    rep.virt.insert(
        "core.client.admission_p99_ms",
        percentile_ms(&col(|s| s.admission), 99.0),
    );
    rep.virt.insert(
        "core.client.queue_p99_ms",
        percentile_ms(&col(|s| s.queued), 99.0),
    );
    rep.virt.insert(
        "core.client.upload_p99_ms",
        percentile_ms(&col(|s| s.upload), 99.0),
    );
    rep.virt
        .insert("core.client.dedupe_evictions", dedupe_evictions as f64);
}

/// Product-tracer metrics. The phases are the critical path of the
/// commit-p50 transaction and must telescope to `commit_p50_ms`.
fn trace_metrics(rep: &mut Repetition, trace: Option<&TraceOut>) {
    let Some(t) = trace else {
        return;
    };
    rep.virt.insert("trace.spans", t.stats.spans as f64);
    rep.virt.insert("trace.orphans", t.stats.orphans as f64);
    rep.virt.insert("cloud.s3.busy_s", t.busy[0].as_secs_f64());
    rep.virt.insert("cloud.sdb.busy_s", t.busy[1].as_secs_f64());
    rep.virt.insert("cloud.sqs.busy_s", t.busy[2].as_secs_f64());
    let Some(b) = &t.breakdown else {
        if rep.notes.get("commit_n").is_some_and(|n| *n > 0.0) {
            rep.failures
                .push("traced run with commits but no critical path".into());
        }
        return;
    };
    for (name, d) in [
        ("core.p3.phase_dwell_ms", b.dwell),
        ("core.p3.phase_lease_ms", b.lease),
        ("core.p3.phase_copy_ms", b.copy),
        ("core.p3.phase_db_ms", b.db),
        ("core.p3.phase_index_ms", b.index),
        ("core.p3.phase_ack_ms", b.ack),
        ("core.p3.phase_untraced_ms", b.untraced),
        ("core.p3.phase_feed_ms", b.feed),
    ] {
        rep.virt.insert(name, ms(d));
    }
    let p50_us = (rep.virt.get("commit_p50_ms").copied().unwrap_or(0.0) * 1e3).round();
    let sum_us = b.commit_sum().as_micros() as f64;
    if (sum_us - p50_us).abs() > 1.0 {
        rep.failures.push(format!(
            "core.p3.phase_* sum to {sum_us} us, commit p50 is {p50_us} us"
        ));
    }
}

fn p3_metrics(rep: &mut Repetition, pickup: &[Duration], committed: u64) {
    rep.virt
        .insert("core.p3.pickup_p50_ms", percentile_ms(pickup, 50.0));
    let ops = rep.virt.get("cloud_ops").copied().unwrap_or(0.0);
    rep.virt.insert(
        "core.p3.ops_per_txn",
        if committed > 0 {
            ops / committed as f64
        } else {
            0.0
        },
    );
}

fn query_metrics(rep: &mut Repetition, queries: &[QuerySample], scale: Scale) {
    let lat: Vec<Duration> = queries.iter().map(|q| q.latency).collect();
    rep.notes.insert("query_n", lat.len() as f64);
    let lat_ms: Vec<f64> = lat.iter().map(|d| ms(*d)).collect();
    rep.virt.insert("query_mean_ms", mean(&lat_ms));
    rep.virt.insert("query_p99_ms", percentile_ms(&lat, 99.0));
    if scale == Scale::Full && !percentile_supported(lat.len(), 99.0) {
        rep.failures.push(format!(
            "query_p99_ms rests on n = {} < 1000 samples",
            lat.len()
        ));
    }
    let cold: Vec<Duration> = queries
        .iter()
        .filter(|q| q.cache != Some(CacheOutcome::Hit) && q.kind >= 3)
        .map(|q| q.latency)
        .collect();
    rep.virt
        .insert("query.cold_p50_ms", percentile_ms(&cold, 50.0));
    for (plan, chosen, ops_per_query) in [
        (Plan::Cached, "query.plan.cached", None),
        (
            Plan::Index,
            "query.plan.index",
            Some("query.ops_per_query.index"),
        ),
        (
            Plan::SdbSelect,
            "query.plan.select",
            Some("query.ops_per_query.select"),
        ),
        (
            Plan::S3Scan,
            "query.plan.scan",
            Some("query.ops_per_query.scan"),
        ),
    ] {
        let ops: Vec<f64> = queries
            .iter()
            .filter(|q| q.plan == Some(plan))
            .map(|q| q.ops as f64)
            .collect();
        rep.virt.insert(chosen, ops.len() as f64);
        if let Some(name) = ops_per_query {
            rep.virt.insert(name, mean(&ops));
        }
    }
}

fn plane_repetition(run: PlaneRun, scale: Scale, paced: bool) -> Repetition {
    let mut rep = Repetition {
        phases: run.phases,
        attempted: run.logged_txns + run.durable_checked,
        virtual_elapsed: run.quiesced,
        ..Repetition::default()
    };
    rep.failures.extend(run.failures.iter().cloned());
    commit_metrics(&mut rep, &run.commit, scale, true);
    let span = run.quiesced.saturating_sub(run.first_arrival).as_secs_f64();
    rep.virt.insert(
        "commit_txn_per_s",
        if span > 0.0 {
            run.committed as f64 / span
        } else {
            0.0
        },
    );
    rep.virt.insert("cost_usd", run.cost_usd);
    usage_metrics(&mut rep, &[&run.usage]);
    client_metrics(&mut rep, &run.flush, run.dedupe_evictions);
    p3_metrics(&mut rep, &run.pickup, run.unique_committed);
    fleet_metrics(
        &mut rep,
        &run.pool,
        run.feed_events,
        run.feed_duplicates,
        run.feed_gaps,
    );
    rep.virt.insert(
        "fleet.depth_at_last_arrival",
        run.depth_at_last_arrival as f64,
    );
    if paced {
        // Each session is its own actor, so lateness is zero by
        // construction; assert it rather than assume it.
        let late = percentile_ms(&run.late, 99.0);
        rep.virt.insert("bench.late_p99_ms", late);
        if late > 0.0 {
            rep.failures
                .push(format!("the load generator ran {late} ms late at p99"));
        }
    }
    trace_metrics(&mut rep, run.trace.as_ref());
    rep
}

fn fleet_metrics(
    rep: &mut Repetition,
    pool: &cloudprov_fleet::PoolStats,
    feed_events: u64,
    feed_duplicates: u64,
    feed_gaps: u64,
) {
    for (name, v) in [
        ("fleet.lease_acquisitions", pool.acquisitions),
        ("fleet.lease_losses", pool.losses),
        ("fleet.handoffs", pool.handoffs),
        ("fleet.idle_releases", pool.idle_releases),
        ("fleet.wakeups", pool.wakeups),
        ("fleet.double_commits", pool.double_commits),
        ("feed.events", feed_events),
        ("feed.duplicates", feed_duplicates),
        ("feed.gaps", feed_gaps),
    ] {
        rep.virt.insert(name, v as f64);
    }
}

fn plane_shape(scale: Scale) -> PlaneShape {
    match scale {
        Scale::Full => PlaneShape::full(),
        Scale::Smoke => PlaneShape::smoke(),
    }
}

/// Whether one ladder rung met both limits.
pub fn rate_ok(commit_p99_ms: f64, quiesce_after_last_arrival: Duration) -> bool {
    commit_p99_ms <= LATENCY_LIMIT_MS && quiesce_after_last_arrival <= QUIESCE_LIMIT
}

/// The ladder verdict: the highest rate that is ok *and* whose every
/// lower rung is ok too (a rate above a failing one is not sustainable
/// just because one run of it squeaked through). Zero if the lowest fails.
pub fn max_ok_rate(rungs: &[(f64, bool)]) -> f64 {
    rungs
        .iter()
        .take_while(|(_, ok)| *ok)
        .map(|(rate, _)| *rate)
        .fold(0.0, f64::max)
}

/// Runs `commit-paced` once at every ladder rate and returns
/// `max_ok_sessions_per_s` plus any failed check.
pub fn run_ladder(
    scale: Scale,
    seed: u64,
    spans: &Arc<HostSpans>,
    parent: Option<u64>,
) -> (f64, u64, Vec<String>) {
    let shape = plane_shape(scale);
    let mut rungs = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0;
    for rate in LADDER {
        let rung = spans.enter("ladder rung", parent);
        let offsets = arrival_offsets(seed, shape.sessions, Some(rate));
        let run = run_plane(&shape, &offsets, seed, false, spans, rung.id());
        spans.exit(rung);
        attempted += run.logged_txns + run.durable_checked;
        failures.extend(run.failures.iter().map(|f| format!("ladder {rate}/s: {f}")));
        let p99 = percentile_ms(&run.commit, 99.0);
        let drain = run.quiesced.saturating_sub(run.last_arrival);
        eprintln!(
            "  ladder {rate}/s: commit p50 {:.0} ms, p99 {p99:.0} ms, quiet {:.1} s after the last arrival, backlog {} -> {}",
            percentile_ms(&run.commit, 50.0),
            drain.as_secs_f64(),
            run.depth_at_last_arrival,
            if rate_ok(p99, drain) { "ok" } else { "not ok" },
        );
        rungs.push((rate, rate_ok(p99, drain)));
    }
    (max_ok_rate(&rungs), attempted, failures)
}

fn read_repetition(
    shape: &ReadShape,
    scale: Scale,
    seed: u64,
    traced: bool,
    spans: &Arc<HostSpans>,
    parent: Option<u64>,
) -> Repetition {
    let run = run_reads(shape, seed, traced, spans, parent);
    let mut rep = Repetition {
        phases: run.phases,
        attempted: run.queries.len() as u64 + run.logged_txns + run.verified_hits,
        virtual_elapsed: run.virtual_elapsed,
        ..Repetition::default()
    };
    rep.failures.extend(run.failures.iter().cloned());
    query_metrics(&mut rep, &run.queries, scale);
    // The writers' commits: 288 of them, so p99 is reported for the
    // per-layer view only and not held to the n ≥ 1000 rule.
    commit_metrics(&mut rep, &run.commit, scale, false);
    rep.virt.insert("cost_usd", run.cost_usd);
    usage_metrics(&mut rep, &[&run.usage]);
    client_metrics(&mut rep, &run.flush, run.dedupe_evictions);
    p3_metrics(&mut rep, &run.pickup, run.pool.unique_committed);
    fleet_metrics(
        &mut rep,
        &run.pool,
        run.feed_events,
        run.feed_duplicates,
        run.feed_gaps,
    );
    let c = &run.cache;
    let served = c.hits + c.misses;
    for (name, v) in [
        ("query.cache.hits", c.hits as f64),
        ("query.cache.misses", c.misses as f64),
        ("query.cache.evictions", c.evictions as f64),
        ("query.cache.invalidations", c.invalidations as f64),
        ("query.cache.refused_installs", c.refused_installs as f64),
        ("query.cache.resident_bytes", c.bytes as f64),
        (
            "query.cache.hit_rate",
            if served > 0 {
                c.hits as f64 / served as f64
            } else {
                0.0
            },
        ),
        ("query.verify_retries", run.verify_retries as f64),
        ("query.stale_results", run.stale_results as f64),
    ] {
        rep.virt.insert(name, v);
    }
    if shape.warm_calls > 0 {
        rep.notes.insert("warm_hit_n", run.warm_hit_ns.len() as f64);
        if scale == Scale::Full && run.warm_hit_ns.len() < 2000 {
            rep.failures.push(format!(
                "warm_hit_host_us rests on {} < 2000 cache hits",
                run.warm_hit_ns.len()
            ));
        }
        rep.host
            .insert("warm_hit_host_us", median(&run.warm_hit_ns) / 1e3);
    }
    trace_metrics(&mut rep, run.trace.as_ref());
    rep
}

fn replay_repetition(
    scale: Scale,
    seed: u64,
    traced: bool,
    spans: &Arc<HostSpans>,
    parent: Option<u64>,
) -> Repetition {
    let profile = (scale == Scale::Smoke).then(cloudprov_cloud::AwsProfile::instant);
    let run = run_replay(scale == Scale::Full, profile, seed, traced, spans, parent);
    let mut rep = Repetition {
        phases: run.phases,
        attempted: run.cells.len() as u64 + run.commit.len() as u64 + run.keys_checked,
        virtual_elapsed: run.cells.iter().map(|c| c.virtual_elapsed).sum(),
        ..Repetition::default()
    };
    rep.failures.extend(run.failures.iter().cloned());
    let elapsed = |p: Protocol| -> f64 {
        run.cells
            .iter()
            .filter(|c| c.protocol == p)
            .map(|c| c.elapsed.as_secs_f64())
            .sum()
    };
    let base = elapsed(Protocol::S3fs);
    let overhead = |p: Protocol| {
        if base > 0.0 {
            (elapsed(p) - base) / base * 100.0
        } else {
            0.0
        }
    };
    rep.virt.insert("replay_elapsed_s", elapsed(Protocol::P3));
    rep.virt.insert(
        "replay_legacy_elapsed_s",
        elapsed(Protocol::P1) + elapsed(Protocol::P2),
    );
    rep.virt.insert("fs.s3fs_elapsed_s", base);
    rep.virt
        .insert("core.p1.overhead_pct", overhead(Protocol::P1));
    rep.virt
        .insert("core.p2.overhead_pct", overhead(Protocol::P2));
    rep.virt
        .insert("core.p3.overhead_pct", overhead(Protocol::P3));
    rep.virt
        .insert("cost_usd", run.cells.iter().map(|c| c.cost_usd).sum());
    let usages: Vec<&UsageReport> = run.cells.iter().map(|c| &c.usage).collect();
    usage_metrics(&mut rep, &usages);
    commit_metrics(&mut rep, &run.commit, scale, false);
    // Ops per transaction over the P3 cells only.
    let p3_ops: u64 = run
        .cells
        .iter()
        .filter(|c| c.protocol == Protocol::P3)
        .map(|c| c.usage.total_ops(|_, _, _| true))
        .sum();
    p3_metrics(&mut rep, &run.pickup, run.commit.len() as u64);
    rep.virt.insert(
        "core.p3.ops_per_txn",
        if run.commit.is_empty() {
            0.0
        } else {
            p3_ops as f64 / run.commit.len() as f64
        },
    );
    trace_metrics(&mut rep, run.trace.as_ref());
    rep
}

fn cold_repetition(
    scale: Scale,
    seed: u64,
    traced: bool,
    spans: &Arc<HostSpans>,
    parent: Option<u64>,
) -> Repetition {
    let shape = match scale {
        Scale::Full => ColdShape::full(),
        Scale::Smoke => ColdShape::smoke(),
    };
    let run = run_cold(&shape, seed, spans, parent);
    let mut rep = Repetition {
        phases: run.phases,
        attempted: shape.queries as u64,
        virtual_elapsed: run.virtual_elapsed,
        ..Repetition::default()
    };
    rep.failures.extend(run.failures.iter().cloned());
    query_metrics(&mut rep, &run.queries, scale);
    rep.virt.insert("cost_usd", run.cost_usd);
    let usages: Vec<&UsageReport> = run.usage.iter().collect();
    usage_metrics(&mut rep, &usages);
    if traced {
        // Queries are not traced inside the program yet (ROADMAP item 6):
        // the product tracer has nothing to collect here.
        for name in [
            "trace.spans",
            "trace.orphans",
            "cloud.s3.busy_s",
            "cloud.sdb.busy_s",
            "cloud.sqs.busy_s",
        ] {
            rep.virt.insert(name, 0.0);
        }
    }
    rep
}

/// Runs one repetition of `workload` in a fresh simulated world.
pub fn repetition(
    workload: &str,
    scale: Scale,
    seed: u64,
    traced: bool,
    spans: &Arc<HostSpans>,
    parent: Option<u64>,
) -> Repetition {
    match workload {
        PAPER_REPLAY => replay_repetition(scale, seed, traced, spans, parent),
        COMMIT_BURST | COMMIT_PACED => {
            let paced = workload == COMMIT_PACED;
            let shape = plane_shape(scale);
            let offsets = arrival_offsets(seed, shape.sessions, paced.then_some(BASE_RATE));
            let run = run_plane(&shape, &offsets, seed, traced, spans, parent);
            plane_repetition(run, scale, paced)
        }
        READ_SERVE | READ_CHURN => {
            let churn = workload == READ_CHURN;
            let shape = match (scale, churn) {
                (Scale::Full, false) => ReadShape::serve(),
                (Scale::Full, true) => ReadShape::churn(),
                (Scale::Smoke, churn) => ReadShape::smoke(churn),
            };
            read_repetition(&shape, scale, seed, traced, spans, parent)
        }
        QUERY_COLD => cold_repetition(scale, seed, traced, spans, parent),
        other => panic!("unknown workload {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn arrival_schedule_is_a_pure_function_of_seed_and_rate() {
        let a = arrival_offsets(3, 768, Some(2.0));
        assert_eq!(a, arrival_offsets(3, 768, Some(2.0)));
        assert_ne!(
            a,
            arrival_offsets(4, 768, Some(2.0)),
            "the seed moves the jitter"
        );
        assert_ne!(
            a,
            arrival_offsets(3, 768, Some(1.0)),
            "the rate scales the schedule"
        );
        // Session i is due inside slot i of width 1/λ: ordered, and the
        // long-run rate is λ exactly.
        for (i, due) in a.iter().enumerate() {
            let slot = due.as_secs_f64() * 2.0;
            assert!(
                slot >= i as f64 && slot < i as f64 + 1.0,
                "session {i} due {due:?}"
            );
        }
        // Halving the rate doubles every offset (same jitter draw).
        let slow = arrival_offsets(3, 768, Some(1.0));
        for (fast, slow) in a.iter().zip(&slow) {
            assert!((slow.as_secs_f64() - 2.0 * fast.as_secs_f64()).abs() < 1e-6);
        }
        assert!(
            arrival_offsets(3, 5, None).iter().all(|d| d.is_zero()),
            "burst: all at t=0"
        );
    }

    #[test]
    fn ladder_verdict_rule() {
        let s = Duration::from_secs;
        assert!(rate_ok(30_000.0, s(30)), "both limits are inclusive");
        assert!(!rate_ok(30_000.1, s(1)), "p99 over the latency limit");
        assert!(
            !rate_ok(1.0, s(31)),
            "backlog still draining 30 s after the last arrival"
        );
        assert_eq!(
            max_ok_rate(&[
                (0.5, true),
                (1.0, true),
                (2.0, true),
                (3.0, true),
                (4.0, false)
            ]),
            3.0
        );
        assert_eq!(
            max_ok_rate(&[(0.5, true), (1.0, false), (2.0, true)]),
            0.5,
            "a pass above a fail does not count"
        );
        assert_eq!(max_ok_rate(&[(0.5, false), (1.0, true)]), 0.0);
        assert_eq!(max_ok_rate(&[]), 0.0);
        assert!(LADDER.contains(&BASE_RATE) && LADDER.windows(2).all(|w| w[0] < w[1]));
    }

    /// A 24-session smoke of each driver (and so of each workload):
    /// finishes in seconds with zero failed checks, and repeats
    /// bit-identically on the virtual ledger.
    #[test]
    fn every_workload_smokes_clean_and_repeats_exactly() {
        let spans = Arc::new(HostSpans::new(false));
        for (workload, _) in WORKLOADS {
            let a = repetition(workload, Scale::Smoke, 7, false, &spans, None);
            assert_eq!(a.failures, Vec::<String>::new(), "{workload}");
            assert!(a.attempted > 0, "{workload}");
            assert!(
                a.virt["cost_usd"] > 0.0 && a.virt["cloud_ops"] > 0.0,
                "{workload}"
            );
            let b = repetition(workload, Scale::Smoke, 7, false, &spans, None);
            assert_eq!(a.virt, b.virt, "{workload}: same seed, same virtual ledger");
            assert_eq!(a.notes, b.notes, "{workload}");
            let c = repetition(workload, Scale::Smoke, 8, false, &spans, None);
            assert_eq!(c.failures, Vec::<String>::new(), "{workload} seed 8");
        }
    }

    #[test]
    fn traced_smokes_telescope_and_leave_no_orphans() {
        let spans = Arc::new(HostSpans::new(true));
        for workload in [COMMIT_BURST, COMMIT_PACED, READ_SERVE, PAPER_REPLAY] {
            let plain = repetition(workload, Scale::Smoke, 7, false, &spans, None);
            let traced = repetition(workload, Scale::Smoke, 7, true, &spans, None);
            assert_eq!(traced.failures, Vec::<String>::new(), "{workload}");
            assert!(traced.virt["trace.spans"] > 0.0, "{workload}");
            assert_eq!(traced.virt["trace.orphans"], 0.0, "{workload}");
            assert!(
                traced.virt.contains_key("core.p3.phase_copy_ms"),
                "{workload}"
            );
            // Tracing observes; it must not move the virtual timeline.
            assert_eq!(
                plain.virt["commit_p50_ms"], traced.virt["commit_p50_ms"],
                "{workload}"
            );
        }
        assert!(
            !spans.take().is_empty(),
            "the harness recorded its own host spans"
        );
    }
}
