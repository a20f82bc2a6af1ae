//! The benchmark's fixed vocabulary: the six workloads, the 14 end-to-end
//! metrics with their regression bounds, and the per-layer metrics. This
//! table is the single source for the report, for `compare`, and for
//! `../BENCHMARK.json`, which `benchmark manifest` generates from it.
//! README.md gives each definition.

/// Which ledger a metric belongs to. *Virtual* = the modelled 2009 cloud
/// on the sim clock: a pure function of the seed, so it must repeat
/// bit-exactly. *Host* = wall/CPU/RSS of our code on this machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ledger {
    Host,
    Virtual,
}

impl Ledger {
    pub fn name(self) -> &'static str {
        match self {
            Ledger::Host => "host",
            Ledger::Virtual => "virtual",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub ledger: Ledger,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// `compare` (and the driver) call it a regression. `None`: per-layer,
    /// unbounded.
    pub bound: Option<f64>,
    /// Workloads the metric is measured on; empty = all six.
    pub homes: &'static [&'static str],
}

impl MetricDef {
    pub fn measured_on(&self, workload: &str) -> bool {
        self.homes.is_empty() || self.homes.contains(&workload)
    }
}

pub const PAPER_REPLAY: &str = "paper-replay";
pub const COMMIT_BURST: &str = "commit-burst";
pub const COMMIT_PACED: &str = "commit-paced";
pub const READ_SERVE: &str = "read-serve";
pub const READ_CHURN: &str = "read-churn";
pub const QUERY_COLD: &str = "query-cold";

/// `(name, why)` — the `why` lines are BENCHMARK.json's.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        PAPER_REPLAY,
        "closed loop, 1 client: Blast, Nightly, Challenge through PaS3fs under S3fs/P1/P2/P3 - the paper's Fig. 4 overhead; only run of pass::Observer, fs, the blocking client, P1 and P2",
    ),
    (
        COMMIT_BURST,
        "closed loop, 768 tenant sessions all due at t=0 on 8 shards x 8 daemons: saturates the commit plane, so dwell, group commit, leases and sim thread hand-off do the work",
    ),
    (
        COMMIT_PACED,
        "open loop, the same 768 sessions arriving at 1/s: below saturation latency is lease+copy+db+index+ack, so critical-path work shows and throughput work predicts no change",
    ),
    (
        READ_SERVE,
        "closed loop, 240 query tenants x 10 mixed Q.1-Q.4 over 32 live writers, 4 MiB cache that fits the working set: the cache hit path and the planner do the work",
    ),
    (
        READ_CHURN,
        "the read-serve stream with a 20 KiB cache (a quarter of the working set) and writer rounds every 15 s: a hit-path gain bought with eviction or invalidation cost shows",
    ),
    (
        QUERY_COLD,
        "closed loop, 1 client, no cache: seeded Q.1-Q.4 split over scan, select and index plans on a Blast corpus (Table 5); bypasses the cache, so cache work predicts no change",
    ),
];

const ALL: &[&str] = &[];
const COMMIT: &[&str] = &[COMMIT_BURST, COMMIT_PACED];
const READS: &[&str] = &[READ_SERVE, READ_CHURN];
const QUERIES: &[&str] = &[READ_SERVE, READ_CHURN, QUERY_COLD];
const PLANE: &[&str] = &[COMMIT_BURST, COMMIT_PACED, READ_SERVE, READ_CHURN];
const P3_COMMITS: &[&str] = &[
    PAPER_REPLAY,
    COMMIT_BURST,
    COMMIT_PACED,
    READ_SERVE,
    READ_CHURN,
];

/// Host metrics: the widest bound the driver contract allows. Across ten
/// runs on ten seeds the interquartile spread of `host_wall_s` on the
/// 2-core VM this was defined on is 4-9 % of its median (README,
/// "Bounds"), and a bound has to sit well clear of the spread.
pub const HOST_BOUND: f64 = 0.25;
/// Set-up is tens of milliseconds: no steadier than a repetition.
pub const SETUP_BOUND: f64 = 0.25;
/// Virtual metrics repeat bit-exactly for one seed; the bound has to
/// cover the seed-to-seed spread, because the driver (and any honest
/// comparison) runs each side over several seeds: up to 3.3 % for
/// `cost_usd` / `cloud_ops` on commit-burst (README, "Bounds").
pub const VIRTUAL_BOUND: f64 = 0.10;

const fn e2e(
    name: &'static str,
    unit: &'static str,
    ledger: Ledger,
    better: Better,
    bound: f64,
    homes: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        ledger,
        better,
        bound: Some(bound),
        homes,
    }
}

use Better::{Higher, Lower};
use Ledger::{Host, Virtual};

/// The 14 end-to-end metrics.
pub const END_TO_END: [MetricDef; 14] = [
    e2e("setup_s", "s", Host, Lower, SETUP_BOUND, ALL),
    e2e("host_wall_s", "s", Host, Lower, HOST_BOUND, ALL),
    e2e("host_peak_rss_mb", "MB", Host, Lower, HOST_BOUND, ALL),
    e2e("commit_p50_ms", "ms", Virtual, Lower, VIRTUAL_BOUND, COMMIT),
    e2e("commit_p99_ms", "ms", Virtual, Lower, VIRTUAL_BOUND, COMMIT),
    e2e(
        "commit_txn_per_s",
        "txn/s",
        Virtual,
        Higher,
        VIRTUAL_BOUND,
        &[COMMIT_BURST],
    ),
    e2e(
        "max_ok_sessions_per_s",
        "1/s",
        Virtual,
        Higher,
        VIRTUAL_BOUND,
        &[COMMIT_PACED],
    ),
    e2e(
        "replay_elapsed_s",
        "s",
        Virtual,
        Lower,
        VIRTUAL_BOUND,
        &[PAPER_REPLAY],
    ),
    e2e(
        "replay_legacy_elapsed_s",
        "s",
        Virtual,
        Lower,
        VIRTUAL_BOUND,
        &[PAPER_REPLAY],
    ),
    e2e("cost_usd", "USD", Virtual, Lower, VIRTUAL_BOUND, ALL),
    e2e("cloud_ops", "count", Virtual, Lower, VIRTUAL_BOUND, ALL),
    e2e(
        "query_mean_ms",
        "ms",
        Virtual,
        Lower,
        VIRTUAL_BOUND,
        QUERIES,
    ),
    e2e("query_p99_ms", "ms", Virtual, Lower, VIRTUAL_BOUND, QUERIES),
    e2e(
        "warm_hit_host_us",
        "us",
        Host,
        Lower,
        HOST_BOUND,
        &[READ_SERVE],
    ),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    ledger: Ledger,
    better: Better,
    homes: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        ledger,
        better,
        bound: None,
        homes,
    }
}

/// Per-layer metrics, layer = crate[.module]. Micro-kernel metrics (fixed
/// inputs, `ALL`) come from the traced run of every workload.
pub const PER_LAYER: &[MetricDef] = &[
    // sim
    layer("sim.host_user_s", "s", Host, Lower, ALL),
    layer("sim.host_sys_s", "s", Host, Lower, ALL),
    layer("sim.ctx_switches", "count", Host, Lower, ALL),
    layer("sim.virtual_s_per_host_s", "s/s", Host, Higher, ALL),
    layer("sim.spawn_join_ns", "ns", Host, Lower, ALL),
    layer("sim.sleep_wake_ns", "ns", Host, Lower, ALL),
    layer("sim.sem_handoff_ns", "ns", Host, Lower, ALL),
    // cloud
    layer("cloud.s3.ops", "count", Virtual, Lower, ALL),
    layer("cloud.sdb.ops", "count", Virtual, Lower, ALL),
    layer("cloud.sqs.ops", "count", Virtual, Lower, ALL),
    layer("cloud.mb_in", "MB", Virtual, Lower, ALL),
    layer("cloud.mb_out", "MB", Virtual, Lower, ALL),
    layer("cloud.daemon_ops_share", "ratio", Virtual, Lower, ALL),
    layer("cloud.s3.busy_s", "s", Virtual, Lower, ALL),
    layer("cloud.sdb.busy_s", "s", Virtual, Lower, ALL),
    layer("cloud.sqs.busy_s", "s", Virtual, Lower, ALL),
    layer("cloud.sdb.select_parse_ns", "ns", Host, Lower, ALL),
    layer("cloud.sdb.select_eval_us", "us", Host, Lower, ALL),
    layer("cloud.sqs.roundtrip_ns", "ns", Host, Lower, ALL),
    // pass, fs
    layer("pass.observer_event_ns", "ns", Host, Lower, ALL),
    layer("fs.s3fs_elapsed_s", "s", Virtual, Lower, &[PAPER_REPLAY]),
    // core.client
    layer("core.client.flush_p50_ms", "ms", Virtual, Lower, PLANE),
    layer("core.client.flush_p99_ms", "ms", Virtual, Lower, PLANE),
    layer("core.client.admission_p99_ms", "ms", Virtual, Lower, PLANE),
    layer("core.client.queue_p99_ms", "ms", Virtual, Lower, PLANE),
    layer("core.client.upload_p99_ms", "ms", Virtual, Lower, PLANE),
    layer(
        "core.client.dedupe_evictions",
        "count",
        Virtual,
        Lower,
        PLANE,
    ),
    // core.p1 / p2 / p3
    layer("core.p1.overhead_pct", "%", Virtual, Lower, &[PAPER_REPLAY]),
    layer("core.p2.overhead_pct", "%", Virtual, Lower, &[PAPER_REPLAY]),
    layer("core.p3.overhead_pct", "%", Virtual, Lower, &[PAPER_REPLAY]),
    layer("core.p3.phase_dwell_ms", "ms", Virtual, Lower, P3_COMMITS),
    layer("core.p3.phase_lease_ms", "ms", Virtual, Lower, P3_COMMITS),
    layer("core.p3.phase_copy_ms", "ms", Virtual, Lower, P3_COMMITS),
    layer("core.p3.phase_db_ms", "ms", Virtual, Lower, P3_COMMITS),
    layer("core.p3.phase_index_ms", "ms", Virtual, Lower, P3_COMMITS),
    layer("core.p3.phase_ack_ms", "ms", Virtual, Lower, P3_COMMITS),
    layer(
        "core.p3.phase_untraced_ms",
        "ms",
        Virtual,
        Lower,
        P3_COMMITS,
    ),
    layer("core.p3.phase_feed_ms", "ms", Virtual, Lower, P3_COMMITS),
    layer("core.p3.pickup_p50_ms", "ms", Virtual, Lower, P3_COMMITS),
    layer("core.p3.ops_per_txn", "count", Virtual, Lower, P3_COMMITS),
    layer("core.p3.pack_group_ns", "ns", Host, Lower, ALL),
    layer("core.p3.wal_roundtrip_us", "us", Host, Lower, ALL),
    // core.cas, core.index
    layer("core.cas.encode_ns", "ns", Host, Lower, ALL),
    layer("core.cas.sha256_mb_per_s", "MB/s", Host, Higher, ALL),
    layer("core.index.merge_ns", "ns", Host, Lower, ALL),
    // fleet
    layer("fleet.lease_acquisitions", "count", Virtual, Lower, PLANE),
    layer("fleet.lease_losses", "count", Virtual, Lower, PLANE),
    layer("fleet.handoffs", "count", Virtual, Lower, PLANE),
    layer("fleet.idle_releases", "count", Virtual, Lower, PLANE),
    layer("fleet.wakeups", "count", Virtual, Lower, PLANE),
    layer(
        "fleet.depth_at_last_arrival",
        "count",
        Virtual,
        Lower,
        COMMIT,
    ),
    layer("fleet.double_commits", "count", Virtual, Lower, PLANE),
    // feed
    layer("feed.events", "count", Virtual, Lower, PLANE),
    layer("feed.duplicates", "count", Virtual, Lower, PLANE),
    layer("feed.gaps", "count", Virtual, Lower, PLANE),
    layer("feed.deliver_ns", "ns", Host, Lower, ALL),
    // query
    layer("query.cache.hit_rate", "ratio", Virtual, Higher, READS),
    layer("query.cache.hits", "count", Virtual, Higher, READS),
    layer("query.cache.misses", "count", Virtual, Lower, READS),
    layer("query.cache.evictions", "count", Virtual, Lower, READS),
    layer("query.cache.invalidations", "count", Virtual, Lower, READS),
    layer(
        "query.cache.refused_installs",
        "count",
        Virtual,
        Lower,
        READS,
    ),
    layer("query.cache.resident_bytes", "bytes", Virtual, Lower, READS),
    layer("query.cold_p50_ms", "ms", Virtual, Lower, QUERIES),
    layer(
        "query.ops_per_query.scan",
        "count",
        Virtual,
        Lower,
        &[QUERY_COLD],
    ),
    layer(
        "query.ops_per_query.select",
        "count",
        Virtual,
        Lower,
        &[QUERY_COLD],
    ),
    layer(
        "query.ops_per_query.index",
        "count",
        Virtual,
        Lower,
        QUERIES,
    ),
    layer("query.plan.cached", "count", Virtual, Higher, QUERIES),
    layer("query.plan.index", "count", Virtual, Lower, QUERIES),
    layer("query.plan.select", "count", Virtual, Lower, QUERIES),
    layer("query.plan.scan", "count", Virtual, Lower, QUERIES),
    layer("query.verify_retries", "count", Virtual, Lower, READS),
    layer("query.stale_results", "count", Virtual, Lower, READS),
    layer("query.cache.hit_ns", "ns", Host, Lower, ALL),
    layer("query.cache.invalidate_ns", "ns", Host, Lower, ALL),
    // trace
    layer("trace.span_enabled_ns", "ns", Host, Lower, ALL),
    layer("trace.span_disabled_ns", "ns", Host, Lower, ALL),
    layer("trace.spans", "count", Virtual, Lower, ALL),
    layer("trace.orphans", "count", Virtual, Lower, ALL),
    layer("trace.overhead_pct", "%", Host, Lower, ALL),
    layer("trace.virtual_drift_pct", "%", Virtual, Lower, ALL),
    // bench (the harness itself: where host time goes)
    layer("bench.phase_setup_s", "s", Host, Lower, ALL),
    layer("bench.phase_drive_s", "s", Host, Lower, ALL),
    layer("bench.phase_quiesce_s", "s", Host, Lower, ALL),
    layer("bench.phase_verify_s", "s", Host, Lower, ALL),
    layer("bench.late_p99_ms", "ms", Virtual, Lower, &[COMMIT_PACED]),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The driver contract wants *every* `end_to_end` metric on *every*
/// workload and none of them zero, so BENCHMARK.json's `end_to_end` is
/// the subset measured on all six workloads.
pub fn contract_end_to_end() -> Vec<&'static MetricDef> {
    END_TO_END.iter().filter(|m| m.homes.is_empty()).collect()
}

/// BENCHMARK.json's `per_layer`: the workload-specific end-to-end metrics
/// (zero off their home workloads — allowed there) followed by the
/// per-layer table, minus `bench.late_p99_ms`, which is asserted to be 0
/// and so can never move.
pub fn contract_per_layer() -> Vec<&'static MetricDef> {
    END_TO_END
        .iter()
        .filter(|m| !m.homes.is_empty())
        .chain(PER_LAYER.iter().filter(|m| m.name != "bench.late_p99_ms"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            for h in m.homes {
                assert!(WORKLOADS.iter().any(|(w, _)| w == h), "{h}");
            }
            if let Some(b) = m.bound {
                assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
            }
        }
        for (w, why) in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{w}: {}",
                why.len()
            );
        }
        assert!(contract_per_layer().len() <= 128);
        assert!(find("setup_s").is_some() && find("nope").is_none());
    }

    #[test]
    fn the_readme_defines_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        for name in WORKLOADS
            .iter()
            .map(|(w, _)| *w)
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name))
        {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not mention `{name}`"
            );
        }
    }
}
