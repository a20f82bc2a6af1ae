//! [`run_fleet`]: hundreds of simulated clients against the sharded
//! commit plane.
//!
//! Each run provisions one [`Fleet`] (M WAL shards, lease board, daemon
//! pool of N workers, backpressure) and spawns C clients on simulated
//! threads. Every client belongs to a tenant, mounts a [`PaS3fs`] over a
//! pipelined, throttled P3 session routed to its shard, and replays a
//! seeded [`testkit`](crate::testkit) script in a private key namespace.
//! After the clients sync their WALs, the driver waits for the commit
//! plane to quiesce, then machine-checks the fleet-scale invariants:
//!
//! * every WAL shard drained, no temp objects left behind;
//! * no transaction committed twice (pool registry), none lost
//!   (`unique committed == transactions logged`);
//! * every key a client's successful close promised durable reads back
//!   **coupled** (§3 provenance data-coupling) once the eventual-
//!   consistency window has passed;
//! * no client died or saw a pipeline error.
//!
//! The report carries the scaling metrics (aggregate commit throughput,
//! p50/p99 enqueue→WAL-durable flush latency) and per-tenant op/byte/dollar
//! attribution — the `repro -- fleet` table is rows of these.

use std::sync::Arc;
use std::time::Duration;

use cloudprov_cloud::{AwsProfile, CloudEnv, PriceBook, TenantId};
use cloudprov_core::{
    CommitEvent, CouplingCheck, FlushSample, Protocol, ProtocolConfig, ProvenanceClient,
    StorageProtocol,
};
use cloudprov_feed::{Predicate, Subscriptions};
use cloudprov_fleet::{Fleet, FleetConfig, PoolStats};
use cloudprov_fs::{LocalIoParams, PaS3fs};
use cloudprov_pass::Uuid;
use cloudprov_sim::Sim;
use cloudprov_sim::SimTime;
use cloudprov_trace::metrics::Registry;
use cloudprov_trace::Breakdown;

use crate::testkit::{random_script, replay_fs_prefixed};

/// Parameters of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetParams {
    /// Simulated clients.
    pub clients: usize,
    /// Tenants the clients are spread over (round-robin).
    pub tenants: u32,
    /// WAL shards.
    pub shards: u32,
    /// Commit-daemon workers.
    pub daemons: usize,
    /// Events per client script (plus the testkit prologue).
    pub script_len: usize,
    /// Master seed: scripts, service jitter and placement all derive
    /// from it — equal seeds give bit-identical reports.
    pub seed: u64,
    /// Per-shard WAL depth bound (0 disables backpressure).
    pub max_shard_depth: usize,
    /// Commit-daemon fallback poll cadence: daemons ride WAL arrival
    /// notifications and the driver rides the commit feed, so this only
    /// paces recovery from a lost wakeup.
    pub poll_interval: Duration,
    /// Commit-lease TTL.
    pub lease_ttl: Duration,
    /// Cloud latency/consistency profile (the run context's calibrated
    /// profile for benchmark tables, `instant` for unit tests).
    pub profile: AwsProfile,
    /// Enable causal span tracing: every committed transaction yields a
    /// connected trace tree on the virtual clock, and the report gains
    /// the per-phase commit-latency breakdown plus the trace gates.
    /// Adds no virtual time, so traced and untraced runs measure
    /// identically.
    pub trace: bool,
    /// Additionally render the collected spans as Chrome `trace_event`
    /// JSON into [`FleetReport::trace_json`] (Perfetto-loadable).
    /// Requires `trace`.
    pub trace_export: bool,
}

impl Default for FleetParams {
    fn default() -> FleetParams {
        FleetParams {
            clients: 64,
            tenants: 8,
            shards: 4,
            daemons: 2,
            script_len: 24,
            seed: 0,
            max_shard_depth: 64,
            poll_interval: Duration::from_secs(5),
            lease_ttl: Duration::from_secs(120),
            profile: AwsProfile::calibrated(Default::default()),
            trace: false,
            trace_export: false,
        }
    }
}

/// Per-tenant slice of the bill.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantUsage {
    /// The tenant.
    pub tenant: u32,
    /// Service calls attributed to the tenant.
    pub ops: u64,
    /// Bytes (in + out) attributed to the tenant, in megabytes.
    pub mb: f64,
    /// Dollars (2009 prices) for the tenant's transfer, requests and
    /// box usage (storage-time is pooled, see `UsageReport::tenant_view`).
    pub usd: f64,
}

/// Everything one fleet run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    /// Echo of the run shape.
    pub clients: usize,
    /// Echo of the run shape.
    pub tenants: u32,
    /// Echo of the run shape.
    pub shards: u32,
    /// Echo of the run shape.
    pub daemons: usize,
    /// WAL transactions the clients logged (non-empty pipeline merges).
    pub logged_txns: u64,
    /// Transactions the pool committed (with multiplicity).
    pub committed: u64,
    /// Distinct transactions committed.
    pub unique_committed: u64,
    /// Transactions committed more than once (§3 invariant: must be 0).
    pub double_commits: u64,
    /// Virtual time from start until the commit plane fully quiesced.
    pub elapsed: Duration,
    /// Aggregate commit throughput: committed transactions per virtual
    /// second over the whole run.
    pub throughput: f64,
    /// Median flush latency across all clients: enqueue → WAL-durable
    /// (see `FlushSample::total`).
    pub p50: Duration,
    /// 99th-percentile flush→durable latency.
    pub p99: Duration,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Median admission wait per flush (the per-shard backpressure
    /// gate). Deliberately *not* a component of `p50`/`p99`: admission
    /// is throttling by design, reported on its own so a tail there is
    /// never mistaken for upload cost.
    pub admission_p50: Duration,
    /// 99th-percentile admission wait.
    pub admission_p99: Duration,
    /// 99th-percentile flusher-queue dwell (submit → flusher pickup) —
    /// the part of flush latency spent waiting behind earlier merges.
    pub queue_p99: Duration,
    /// 99th-percentile upload component (flusher pickup → WAL durable):
    /// the fence on the batch's content-addressed publishes, then the
    /// delta upload itself.
    pub upload_p99: Duration,
    /// Median per-transaction commit latency: WAL-durable → committed
    /// by the daemon pool (the commit plane's own contribution, which
    /// group commit attacks; flush→durable latency is client-bound).
    pub commit_p50: Duration,
    /// 99th-percentile commit latency.
    pub commit_p99: Duration,
    /// (logged txn, commit time) pairs behind the commit percentiles.
    pub commit_samples: usize,
    /// Median pickup dwell: WAL-durable → the transaction's first WAL
    /// message received by a daemon. The waiting component of commit
    /// latency — what push delivery eliminates (service time, which
    /// 2009-calibrated latencies put at several seconds per group, is
    /// `commit_p50 - pickup_p50`).
    pub pickup_p50: Duration,
    /// WAL messages left after the quiesce deadline (must be 0).
    pub wal_leftover: usize,
    /// Temp objects left after commit + cleaner sweep (must be 0).
    pub temp_leftover: usize,
    /// Durable-promised keys that read back missing (must be 0).
    pub missing_durable: usize,
    /// Durable-promised keys that read back uncoupled (must be 0).
    pub coupling_violations: usize,
    /// Up to the first 8 failed checks, as `key: verdict` strings (CI
    /// triage — which key, and what the read actually saw).
    pub failed_checks: Vec<String>,
    /// Keys whose durability promise was verified.
    pub durable_checked: usize,
    /// Clients that died mid-script or saw a pipeline error (must be 0).
    pub client_errors: usize,
    /// Whole-fleet bill at 2009 prices.
    pub total_cost_usd: f64,
    /// Per-tenant attribution, tenant order.
    pub per_tenant: Vec<TenantUsage>,
    /// Commit events the driver's feed subscription observed.
    pub feed_events: u64,
    /// Duplicate feed deliveries (allowed by the at-least-once contract,
    /// reported for visibility).
    pub feed_duplicates: u64,
    /// Feed sequence gaps plus out-of-order deliveries (must be 0).
    pub feed_gaps: u64,
    /// Committed transactions that never surfaced on the feed (must be
    /// 0: at-least-once means *at least* once).
    pub feed_missing: u64,
    /// Objects clients' pipelines dropped because an earlier batch
    /// already persisted them (dedupe-set evictions, summed).
    pub dedupe_evictions: u64,
    /// Whether the run collected spans (`params.trace`).
    pub traced: bool,
    /// Spans collected (0 when untraced).
    pub trace_spans: u64,
    /// Spans whose parent is unknown — a broken propagation seam (must
    /// be 0 on a traced run).
    pub trace_orphans: u64,
    /// Traced transactions whose root-span duration disagreed with the
    /// measured WAL-durable→committed latency by more than one sim tick
    /// (must be 0 on a traced run).
    pub trace_root_mismatches: u64,
    /// Exclusive per-phase attribution of the commit-p50 transaction's
    /// latency (traced runs with at least one commit). Its phase sum
    /// reconciles with `commit_p50` exactly.
    pub breakdown: Option<Breakdown>,
    /// Chrome `trace_event` JSON of the whole run's spans
    /// (`params.trace_export`); byte-identical across equal seeds.
    pub trace_json: Option<String>,
    /// Commit-plane counters (lease churn, steals, handoffs…).
    pub pool: PoolStats,
}

impl FleetReport {
    /// The fleet-scale invariant violations (§3 applied to the plane);
    /// empty means the run was clean.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.double_commits > 0 {
            v.push(format!(
                "{} double-committed transactions",
                self.double_commits
            ));
        }
        if self.unique_committed != self.logged_txns {
            v.push(format!(
                "committed {} of {} logged transactions",
                self.unique_committed, self.logged_txns
            ));
        }
        if self.wal_leftover > 0 {
            v.push(format!(
                "{} WAL messages never committed",
                self.wal_leftover
            ));
        }
        if self.temp_leftover > 0 {
            v.push(format!("{} temp objects leaked", self.temp_leftover));
        }
        if self.missing_durable > 0 {
            v.push(format!("{} durable promises broken", self.missing_durable));
        }
        if self.coupling_violations > 0 {
            v.push(format!("{} coupling violations", self.coupling_violations));
        }
        if self.client_errors > 0 {
            v.push(format!("{} clients died", self.client_errors));
        }
        if self.feed_gaps > 0 {
            v.push(format!("{} feed sequence gaps", self.feed_gaps));
        }
        if self.feed_missing > 0 {
            v.push(format!(
                "{} committed transactions never reached the feed",
                self.feed_missing
            ));
        }
        if self.traced {
            if self.trace_orphans > 0 {
                v.push(format!("{} orphan spans", self.trace_orphans));
            }
            if self.trace_root_mismatches > 0 {
                v.push(format!(
                    "{} trace roots disagree with measured commit latency",
                    self.trace_root_mismatches
                ));
            }
            match &self.breakdown {
                None if self.unique_committed > 0 => {
                    v.push("traced run with commits but no breakdown".to_string());
                }
                Some(b) => {
                    let (sum, p50) = (b.commit_sum(), self.commit_p50);
                    if sum.abs_diff(p50) > Duration::from_micros(1) {
                        v.push(format!(
                            "phase sum {sum:?} does not reconcile with commit p50 {p50:?}"
                        ));
                    }
                }
                None => {}
            }
        }
        v
    }
}

struct ClientOutcome {
    durable_keys: std::collections::BTreeSet<String>,
    breakdown: Vec<FlushSample>,
    logged: Vec<(Uuid, SimTime)>,
    logged_txns: u64,
    dedupe_evictions: u64,
    failed: bool,
}

/// SplitMix64 finalizer. The workspace's `SmallRng` is splitmix, whose
/// streams for seeds `s` and `s + k·γ` are the *same* orbit `k` draws
/// apart — so per-client seeds must never be derived by multiplying the
/// client index with γ-like constants (that exact bug once made three
/// fleet clients draw identical node uuids). Mixing through the
/// finalizer scatters the seeds far apart on the orbit.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Drives one complete fleet run. Pure function of `params` — the same
/// parameters (including the seed) reproduce the identical report.
pub fn run_fleet(params: &FleetParams) -> FleetReport {
    let sim = Sim::new();
    let mut profile = params.profile.clone();
    profile.seed = params.seed;
    let env = CloudEnv::new(&sim, profile);
    if params.trace {
        // The tracer never sleeps or draws randomness, so a traced run's
        // virtual timeline is identical to an untraced one.
        env.tracer().enable(params.seed);
    }
    let protocol_config = ProtocolConfig {
        feed: true,
        ..ProtocolConfig::default()
    };
    let fleet = Fleet::provision(
        &env,
        protocol_config.clone(),
        FleetConfig {
            shards: params.shards,
            lease_ttl: params.lease_ttl,
            max_shard_depth: params.max_shard_depth,
            admission_poll: Duration::from_millis(200),
            push: true,
        },
    );
    let pool = fleet.spawn_pool(params.daemons, params.poll_interval);
    // The driver is itself a feed consumer — an all-events subscription
    // whose deliveries replace a blind quiesce sweep.
    let subs = Subscriptions::new(&sim);
    let monitor = subs
        .subscribe(None, Predicate::All)
        .expect("fresh registry cannot be over quota");
    pool.set_event_sink(subs.sink());
    let t0 = sim.now();

    // Client phase: C simulated threads, each replaying its script in a
    // private namespace and syncing its WAL before exiting.
    let handles: Vec<_> = (0..params.clients)
        .map(|c| {
            let fleet = fleet.clone();
            let params = params.clone();
            sim.spawn(move || {
                let tenant = TenantId(c as u32 % params.tenants.max(1));
                let name = format!("t{}-c{c}", tenant.0);
                let client = Arc::new(fleet.client(&name, Some(tenant)));
                let fs = PaS3fs::attach(
                    client.clone(),
                    LocalIoParams::instant(),
                    mix64(params.seed ^ mix64(0x0B5E_77E5 ^ c as u64)),
                );
                let script = random_script(
                    mix64(params.seed ^ mix64(0x5C41_9700 ^ c as u64)),
                    params.script_len,
                );
                let replay = replay_fs_prefixed(&fs, &script, &format!("/{name}"));
                let sync_failed = client.sync().is_err();
                let stats = client.pipeline_stats();
                ClientOutcome {
                    durable_keys: replay.durable_keys,
                    breakdown: client.flush_breakdown(),
                    logged: client.wal_logged_transactions(),
                    logged_txns: stats.as_ref().map(|s| s.uploads).unwrap_or(0),
                    dedupe_evictions: stats.map(|s| s.dedupe_evictions).unwrap_or(0),
                    failed: replay.died.is_some() || sync_failed,
                }
            })
        })
        .collect();
    let outcomes: Vec<ClientOutcome> = handles.into_iter().map(|h| h.join()).collect();

    // Quiesce: wait for every shard WAL to drain (bounded — SQS itself
    // would garbage-collect at 4 days, so a healthy plane is long done).
    // Each commit event wakes the driver, so the depth re-check happens
    // at delivery granularity; a quiet interval falls back to the poll
    // cadence (lost wakeups degrade, never hang).
    let mut feed_events: Vec<CommitEvent> = Vec::new();
    let deadline = sim.now() + Duration::from_secs(24 * 3600);
    while fleet.total_depth() > 0 && sim.now() < deadline {
        if let Some(ev) = monitor.next_timeout(params.poll_interval) {
            feed_events.push(ev);
        }
    }
    let elapsed = sim.now().saturating_duration_since(t0);
    let wal_leftover = fleet.total_depth();
    let commit_times: std::collections::BTreeMap<Uuid, SimTime> =
        pool.commit_times().into_iter().collect();
    let pickup_times: std::collections::BTreeMap<Uuid, SimTime> =
        pool.pickup_times().into_iter().collect();
    let pool_stats = pool.stop();
    // Drain deliveries that raced the final depth check.
    while let Some(ev) = monitor.try_next() {
        feed_events.push(ev);
    }
    // A healthy run has nothing for the cleaners; sweeping anyway keeps
    // the reclamation paths (temp objects AND ancestry-index garbage)
    // exercised at fleet scale.
    let _ = fleet.cleaners().sweep_once();
    let _ = fleet.cleaners().sweep_index_once();
    let temp_leftover = env.s3().peek_count(
        &protocol_config.layout.data_bucket,
        &protocol_config.layout.temp_prefix,
    );

    // Bill the run BEFORE verification reads — the check traffic is the
    // harness's, not the tenants'.
    let usage = env.usage();
    let book = PriceBook::aws_2009();
    let total_cost_usd = book.cost(&usage).total();
    let per_tenant: Vec<TenantUsage> = usage
        .tenants()
        .into_iter()
        .map(|t| TenantUsage {
            tenant: t.0,
            ops: usage.tenant_ops_total(t),
            mb: usage.tenant_bytes_total(t) as f64 / 1e6,
            usd: book.cost(&usage.tenant_view(t)).total(),
        })
        .collect();

    // Verification: outlast the consistency window, then read every
    // promised key through a plain blocking session.
    sim.sleep(env.profile().consistency.max_staleness + Duration::from_secs(1));
    // The verifier only reads; it must not provision feed state.
    let verifier = ProvenanceClient::builder(Protocol::P3)
        .config(ProtocolConfig {
            feed: false,
            ..protocol_config.clone()
        })
        .queue("fleet-verifier")
        .build(&env);
    let mut missing_durable = 0;
    let mut coupling_violations = 0;
    let mut failed_checks: Vec<String> = Vec::new();
    let mut durable_checked = 0;
    let mut client_errors = 0;
    // All run percentiles live in ONE metrics registry — one sorting
    // and rounding convention for the table and the gates.
    let mut reg = Registry::new();
    // (commit latency, txn) pairs: the registry carries the percentiles,
    // the pairs identify the p50 transaction for the phase breakdown.
    let mut commit_pairs: Vec<(Duration, Uuid)> = Vec::new();
    let mut trace_root_mismatches = 0u64;
    let mut logged_txns = 0;
    for o in &outcomes {
        if o.failed {
            client_errors += 1;
        }
        logged_txns += o.logged_txns;
        reg.add("client.dedupe_evictions", o.dedupe_evictions);
        for s in &o.breakdown {
            reg.record("flush.total", s.total);
            reg.record("flush.admission", s.admission);
            reg.record("flush.queue", s.queued);
            reg.record("flush.upload", s.upload);
        }
        // Join this client's logged-at instants with the pool's
        // committed-at instants: the commit plane's per-transaction
        // latency, WAL-durable -> committed.
        for (txn, logged_at) in &o.logged {
            if let Some(committed_at) = commit_times.get(txn) {
                let lag = committed_at.saturating_duration_since(*logged_at);
                reg.record("commit.latency", lag);
                commit_pairs.push((lag, *txn));
                if params.trace {
                    // Gate: the trace tree's root must BE this measured
                    // latency, to the sim tick.
                    let ok = env.tracer().root_interval(txn.0).is_some_and(|(s, e)| {
                        let got = e.saturating_duration_since(s);
                        got.abs_diff(lag) <= Duration::from_micros(1)
                    });
                    if !ok {
                        trace_root_mismatches += 1;
                    }
                }
            }
            if let Some(seen_at) = pickup_times.get(txn) {
                reg.record(
                    "commit.pickup",
                    seen_at.saturating_duration_since(*logged_at),
                );
            }
        }
        for key in &o.durable_keys {
            durable_checked += 1;
            match verifier.read(key) {
                Ok(r) if r.coupling == CouplingCheck::Coupled => {}
                Ok(r) => {
                    coupling_violations += 1;
                    if failed_checks.len() < 8 {
                        failed_checks.push(format!("{key}: {:?}", r.coupling));
                    }
                }
                Err(e) => {
                    missing_durable += 1;
                    if failed_checks.len() < 8 {
                        failed_checks.push(format!("{key}: {e}"));
                    }
                }
            }
        }
    }
    // The commit-p50 transaction's critical path: sort the (latency,
    // txn) pairs and take the registry's nearest-rank median element —
    // its trace-tree walk attributes exactly `commit_p50` across the
    // phases.
    let breakdown = if params.trace && !commit_pairs.is_empty() {
        commit_pairs.sort_unstable();
        let rank =
            ((0.5 * commit_pairs.len() as f64).ceil() as usize).clamp(1, commit_pairs.len()) - 1;
        env.tracer().critical_path(commit_pairs[rank].1 .0)
    } else {
        None
    };
    let trace_stats = params.trace.then(|| env.tracer().stats());
    let trace_json = (params.trace && params.trace_export).then(|| env.tracer().chrome_trace());

    // Feed accounting: the bus's own gap/duplicate counters plus the
    // at-least-once join — every committed transaction must have shown
    // up on the monitor subscription at least once.
    let feed_stats = subs.stats();
    let seen: std::collections::BTreeSet<Uuid> = feed_events.iter().map(|e| e.txn).collect();
    let feed_missing = commit_times.keys().filter(|t| !seen.contains(t)).count() as u64;

    let secs = elapsed.as_secs_f64();
    FleetReport {
        clients: params.clients,
        tenants: params.tenants,
        shards: params.shards,
        daemons: params.daemons,
        logged_txns,
        committed: pool_stats.committed,
        unique_committed: pool_stats.unique_committed,
        double_commits: pool_stats.double_commits,
        elapsed,
        throughput: if secs > 0.0 {
            pool_stats.committed as f64 / secs
        } else {
            0.0
        },
        p50: reg.percentile("flush.total", 50.0),
        p99: reg.percentile("flush.total", 99.0),
        samples: reg.count("flush.total"),
        admission_p50: reg.percentile("flush.admission", 50.0),
        admission_p99: reg.percentile("flush.admission", 99.0),
        queue_p99: reg.percentile("flush.queue", 99.0),
        upload_p99: reg.percentile("flush.upload", 99.0),
        commit_p50: reg.percentile("commit.latency", 50.0),
        commit_p99: reg.percentile("commit.latency", 99.0),
        commit_samples: reg.count("commit.latency"),
        pickup_p50: reg.percentile("commit.pickup", 50.0),
        wal_leftover,
        temp_leftover,
        missing_durable,
        coupling_violations,
        failed_checks,
        durable_checked,
        client_errors,
        total_cost_usd,
        per_tenant,
        feed_events: feed_events.len() as u64,
        feed_duplicates: feed_stats.duplicates,
        feed_gaps: feed_stats.gaps + monitor.out_of_order(),
        feed_missing,
        dedupe_evictions: reg.counter("client.dedupe_evictions"),
        traced: params.trace,
        trace_spans: trace_stats.map(|s| s.spans).unwrap_or(0),
        trace_orphans: trace_stats.map(|s| s.orphans).unwrap_or(0),
        trace_root_mismatches,
        breakdown,
        trace_json,
        pool: pool_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetParams {
        FleetParams {
            clients: 12,
            tenants: 3,
            shards: 2,
            daemons: 2,
            script_len: 16,
            seed: 7,
            poll_interval: Duration::from_secs(2),
            profile: AwsProfile::instant(),
            ..FleetParams::default()
        }
    }

    #[test]
    fn small_fleet_run_is_clean() {
        let r = run_fleet(&small());
        assert_eq!(r.violations(), Vec::<String>::new());
        assert!(r.committed > 0, "clients must have produced transactions");
        assert_eq!(r.committed, r.unique_committed);
        assert!(r.durable_checked > 0);
        assert_eq!(r.per_tenant.len(), 3);
        assert!(r.per_tenant.iter().all(|t| t.ops > 0));
        assert!(r.total_cost_usd > 0.0);
        assert!(r.samples > 0, "pipeline latencies must be sampled");
        assert!(r.commit_samples > 0, "commit latencies must be sampled");
        assert!(
            r.commit_samples as u64 == r.unique_committed,
            "every committed txn should have a matched commit latency"
        );
        // The driver's feed subscription saw every commit, in order,
        // with no holes.
        assert!(
            r.feed_events >= r.unique_committed,
            "at-least-once: {} events for {} commits",
            r.feed_events,
            r.unique_committed
        );
        assert_eq!(r.feed_gaps, 0);
        assert_eq!(r.feed_missing, 0);
        // Pickup (WAL-durable -> first daemon receive) is a prefix of
        // commit latency, so its median can never exceed the commit
        // median.
        assert!(
            r.pickup_p50 <= r.commit_p50,
            "pickup {:?} cannot exceed commit {:?}",
            r.pickup_p50,
            r.commit_p50
        );
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let a = run_fleet(&small());
        let b = run_fleet(&small());
        assert_eq!(a, b, "same params + seed must reproduce bit-identically");
        let c = run_fleet(&FleetParams { seed: 8, ..small() });
        assert_ne!(a, c, "a different seed should shift the run");
    }

    #[test]
    fn traced_runs_reconcile_and_reproduce() {
        let params = FleetParams {
            trace: true,
            trace_export: true,
            ..small()
        };
        let r = run_fleet(&params);
        assert_eq!(r.violations(), Vec::<String>::new());
        assert!(r.traced);
        assert!(r.trace_spans > 0, "a traced run must record spans");
        assert_eq!(r.trace_orphans, 0, "every span must reach a txn root");
        assert_eq!(
            r.trace_root_mismatches, 0,
            "root spans must agree with measured commit latency"
        );
        let b = r.breakdown.expect("committed txns imply a breakdown");
        assert!(
            b.commit_sum().abs_diff(r.commit_p50) <= Duration::from_micros(1),
            "phase sum {:?} must reconcile with commit p50 {:?}",
            b.commit_sum(),
            r.commit_p50
        );
        let json = r.trace_json.as_ref().expect("export requested");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        // Tracing must not perturb the sim: same seed, same trace bytes.
        let again = run_fleet(&params);
        assert_eq!(r, again, "traced runs must reproduce bit-identically");
        // And an untraced run of the same seed must agree on every
        // latency figure (tracing is observation, not interference).
        // The bill is allowed to creep by the span-context attribute
        // bytes riding the WAL messages — those bill like any payload.
        let untraced = run_fleet(&small());
        assert_eq!(r.commit_p50, untraced.commit_p50);
        assert_eq!(r.p99, untraced.p99);
        assert_eq!(r.committed, untraced.committed);
        assert!(
            r.total_cost_usd >= untraced.total_cost_usd
                && r.total_cost_usd - untraced.total_cost_usd < 1e-5,
            "context bytes may only nudge the bill upward: {} vs {}",
            r.total_cost_usd,
            untraced.total_cost_usd
        );
    }

    #[test]
    fn tenant_bills_sum_to_client_side_traffic() {
        let r = run_fleet(&small());
        let tenant_usd: f64 = r.per_tenant.iter().map(|t| t.usd).sum();
        assert!(tenant_usd > 0.0);
        assert!(
            tenant_usd <= r.total_cost_usd + 1e-9,
            "tenant slices ({tenant_usd}) cannot exceed the whole bill ({})",
            r.total_cost_usd
        );
    }
}
