//! The benchmark's own commit-plane driver. One function serves both
//! commit workloads: `commit-burst` is the λ = ∞ case (every session due
//! at t = 0) and `commit-paced` passes arrival offsets. It returns the raw
//! per-transaction samples, so the caller picks percentiles under the
//! sample-count rule, and — like `workloads::fleet` — bills the run
//! *before* the verification reads.
//!
//! Every check that fails is reported as it is: nothing is retried,
//! filtered or hidden.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudprov_cloud::{AwsProfile, CloudEnv, PriceBook, TenantId, UsageReport};
use cloudprov_core::{
    CommitEvent, CouplingCheck, FlushSample, Protocol, ProtocolConfig, ProvenanceClient,
    StorageProtocol,
};
use cloudprov_feed::{Predicate, Subscriptions};
use cloudprov_fleet::{Fleet, FleetConfig, PoolStats};
use cloudprov_fs::{LocalIoParams, PaS3fs};
use cloudprov_pass::Uuid;
use cloudprov_sim::{Sim, SimTime};
use cloudprov_trace::{Breakdown, SpanRecord, TraceStats, Tracer};
use cloudprov_workloads::testkit::{random_script, replay_fs_prefixed, ScriptEvent};

use crate::spans::HostSpans;

/// SplitMix64 finalizer — per-actor seeds are mixed through it, never
/// derived by multiplying an index (see `workloads::fleet::mix64`).
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Size of the commit plane and of the load put on it.
#[derive(Clone, Debug)]
pub struct PlaneShape {
    pub sessions: usize,
    pub tenants: u32,
    pub shards: u32,
    pub daemons: usize,
    /// Events per session script (plus the testkit prologue). Fixed at
    /// 24: the benchmark scales by sessions, never by script length
    /// (README, "Sizing finding").
    pub script_len: usize,
    pub profile: AwsProfile,
}

impl PlaneShape {
    /// The benchmark's fixed input size.
    pub fn full() -> PlaneShape {
        PlaneShape {
            sessions: 768,
            tenants: 12,
            shards: 8,
            daemons: 8,
            script_len: 24,
            profile: AwsProfile::calibrated(Default::default()),
        }
    }

    /// 24 sessions on instant services — finishes in well under a second.
    pub fn smoke() -> PlaneShape {
        PlaneShape {
            sessions: 24,
            tenants: 4,
            shards: 2,
            daemons: 2,
            script_len: 24,
            profile: AwsProfile::instant(),
        }
    }
}

const POLL_INTERVAL: Duration = Duration::from_secs(5);
const LEASE_TTL: Duration = Duration::from_secs(120);
const MAX_SHARD_DEPTH: usize = 64;

/// When each session is due, as an offset from the run's start: a pure
/// function of `(seed, sessions, rate)`. `None` is the burst (all zero);
/// at rate λ session *i* is due at `(i + jitter_i) / λ` virtual seconds
/// with a seeded `jitter_i` in `[0, 1)`, so arrivals keep their order and
/// their long-run rate but do not tick like a metronome.
pub fn arrival_offsets(seed: u64, sessions: usize, rate_per_s: Option<f64>) -> Vec<Duration> {
    let Some(rate) = rate_per_s else {
        return vec![Duration::ZERO; sessions];
    };
    assert!(rate > 0.0, "arrival rate must be positive");
    (0..sessions as u64)
        .map(|i| {
            let draw = mix64(seed ^ mix64(0x0A77_1BA1 ^ i));
            let jitter = (draw >> 11) as f64 / (1u64 << 53) as f64;
            Duration::from_secs_f64((i as f64 + jitter) / rate)
        })
        .collect()
}

/// The script session `c` replays: the shared testkit generator, minus
/// its `Rename` events. Renames stay local in `PaS3fs` (no cloud call),
/// but at HEAD close → rename → write → close of one file leaves, on
/// about one seed in ten, one of ≈1350 durable keys reading back
/// `HashMismatch` (README, "Sizing finding"). The driver feeds the
/// benchmark arbitrary seeds and needs inputs on which no operation
/// fails, so the pattern is kept out of the *inputs*; no *check* is
/// relaxed.
pub fn session_script(seed: u64, c: usize, len: usize) -> Vec<ScriptEvent> {
    random_script(mix64(seed ^ mix64(0x5C41_9700 ^ c as u64)), len)
        .into_iter()
        .filter(|e| !matches!(e, ScriptEvent::Rename(..)))
        .collect()
}

/// What the product's `Tracer` collected on a traced run.
#[derive(Clone, Debug, Default)]
pub struct TraceOut {
    pub stats: TraceStats,
    /// Critical path of the commit-p50 transaction.
    pub breakdown: Option<Breakdown>,
    /// Σ virtual duration of `{service}.{op}` leaf spans: S3, SimpleDB, SQS.
    pub busy: [Duration; 3],
    /// Roots whose duration disagrees with the measured commit latency.
    pub root_mismatches: u64,
}

/// Joins the clients' WAL-durable instants with the daemons' committed
/// and pickup instants into per-transaction latency samples — shared by
/// both plane-backed drivers.
#[derive(Debug, Default)]
pub struct CommitJoin {
    /// WAL-durable → committed, one per committed transaction.
    pub commit: Vec<Duration>,
    /// WAL-durable → first daemon receive.
    pub pickup: Vec<Duration>,
    /// `(latency, txn)`: identifies the p50 transaction.
    pairs: Vec<(Duration, Uuid)>,
    root_mismatches: u64,
}

impl CommitJoin {
    /// Adds one client's logged transactions. On a traced run each
    /// trace root must equal the measured latency to the microsecond.
    pub fn add(
        &mut self,
        logged: &[(Uuid, SimTime)],
        commit_times: &BTreeMap<Uuid, SimTime>,
        pickup_times: &BTreeMap<Uuid, SimTime>,
        tracer: Option<&Tracer>,
        failures: &mut Vec<String>,
    ) {
        for (txn, logged_at) in logged {
            match commit_times.get(txn) {
                Some(committed_at) => {
                    let lag = committed_at.saturating_duration_since(*logged_at);
                    self.commit.push(lag);
                    self.pairs.push((lag, *txn));
                    let exact = tracer.is_none_or(|t| {
                        t.root_interval(txn.0).is_some_and(|(s, e)| {
                            e.saturating_duration_since(s).abs_diff(lag) <= Duration::from_micros(1)
                        })
                    });
                    self.root_mismatches += u64::from(!exact);
                }
                None => failures.push(format!("logged transaction {txn} never committed")),
            }
            if let Some(seen_at) = pickup_times.get(txn) {
                self.pickup
                    .push(seen_at.saturating_duration_since(*logged_at));
            }
        }
    }

    /// What the tracer collected, with the critical path of the
    /// commit-p50 transaction; orphans and root mismatches are failed
    /// checks.
    pub fn trace_out(&mut self, tracer: &Tracer, failures: &mut Vec<String>) -> TraceOut {
        self.pairs.sort_unstable();
        let breakdown = (!self.pairs.is_empty())
            .then(|| {
                let rank = crate::stats::nearest_rank(self.pairs.len(), 50.0) - 1;
                tracer.critical_path(self.pairs[rank].1 .0)
            })
            .flatten();
        let out = TraceOut {
            stats: tracer.stats(),
            breakdown,
            busy: service_busy(&tracer.spans()),
            root_mismatches: self.root_mismatches,
        };
        for _ in 0..out.stats.orphans {
            failures.push("orphan span".into());
        }
        for _ in 0..out.root_mismatches {
            failures.push("trace root disagrees with measured commit latency".into());
        }
        out
    }
}

/// Sums the leaf-op spans per service.
pub fn service_busy(spans: &[SpanRecord]) -> [Duration; 3] {
    let mut busy = [Duration::ZERO; 3];
    for s in spans.iter().filter(|s| s.kind == "op") {
        let slot = match s.name.split('.').next() {
            Some("S3") => 0,
            Some("SimpleDB") => 1,
            Some("SQS") => 2,
            _ => continue,
        };
        busy[slot] += s.duration();
    }
    busy
}

/// Host seconds each phase of one repetition took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub setup: Duration,
    pub drive: Duration,
    pub quiesce: Duration,
    pub verify: Duration,
}

/// Everything one run of the plane measured, raw.
#[derive(Debug)]
pub struct PlaneRun {
    /// WAL-durable → committed, one per committed transaction.
    pub commit: Vec<Duration>,
    /// WAL-durable → first daemon receive.
    pub pickup: Vec<Duration>,
    pub flush: Vec<FlushSample>,
    /// How late each session started relative to its due time.
    pub late: Vec<Duration>,
    pub logged_txns: u64,
    pub committed: u64,
    pub unique_committed: u64,
    /// Offsets from the run's start.
    pub first_arrival: Duration,
    pub last_arrival: Duration,
    pub quiesced: Duration,
    /// WAL messages queued fleet-wide when the last session arrived.
    pub depth_at_last_arrival: usize,
    /// Metered usage and bill, taken before the verification reads.
    pub usage: UsageReport,
    pub cost_usd: f64,
    pub pool: PoolStats,
    pub feed_events: u64,
    pub feed_duplicates: u64,
    pub feed_gaps: u64,
    pub dedupe_evictions: u64,
    pub durable_checked: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    pub trace: Option<TraceOut>,
    pub phases: Phases,
}

struct SessionOutcome {
    durable_keys: BTreeSet<String>,
    flush: Vec<FlushSample>,
    logged: Vec<(Uuid, SimTime)>,
    logged_txns: u64,
    dedupe_evictions: u64,
    late: Duration,
    depth_on_arrival: usize,
    died: Option<String>,
}

/// Drives one complete run: provision, sessions, quiesce, bill, verify.
/// A pure function of its arguments on the virtual ledger.
pub fn run_plane(
    shape: &PlaneShape,
    offsets: &[Duration],
    seed: u64,
    traced: bool,
    spans: &Arc<HostSpans>,
    parent: Option<u64>,
) -> PlaneRun {
    assert_eq!(offsets.len(), shape.sessions);
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
                lease_ttl: LEASE_TTL,
                max_shard_depth: MAX_SHARD_DEPTH,
                admission_poll: Duration::from_millis(200),
                push: true,
            },
        )
    });
    let pool = spans.scope("fleet::Fleet::spawn_pool", ph.id(), || {
        fleet.spawn_pool(shape.daemons, POLL_INTERVAL)
    });
    let subs = Subscriptions::new(&sim);
    let monitor = subs
        .subscribe(None, Predicate::All)
        .expect("fresh registry cannot be over quota");
    pool.set_event_sink(subs.sink());
    let scripts: Vec<Vec<ScriptEvent>> =
        spans.scope("workloads::testkit::random_script", ph.id(), || {
            (0..shape.sessions)
                .map(|c| session_script(seed, c, shape.script_len))
                .collect()
        });
    let last_session = offsets
        .iter()
        .enumerate()
        .max_by_key(|(i, o)| (**o, *i))
        .map_or(0, |(i, _)| i);
    // Every session is its own sim actor that sleeps until it is due, so
    // the generator cannot run late however slow the plane is. Spawning
    // them is provisioning: no actor runs before the harness first blocks
    // (in `join`, below), and no virtual time passes here.
    let t0 = sim.now();
    let handles: Vec<_> = scripts
        .into_iter()
        .enumerate()
        .map(|(c, script)| {
            let fleet = fleet.clone();
            let sim = sim.clone();
            let due = offsets[c];
            let tenants = shape.tenants.max(1);
            let sample_depth = c == last_session;
            let spans = spans.clone();
            sim.clone().spawn(move || {
                sim.sleep(due);
                let late = sim.now().saturating_duration_since(t0 + due);
                let depth_on_arrival = if sample_depth { fleet.total_depth() } else { 0 };
                let lane = spans.enter_on("session (replay + sync)", parent, c as u64 + 1);
                let tenant = TenantId(c as u32 % tenants);
                let name = format!("t{}-c{c}", tenant.0);
                let client = Arc::new(fleet.client(&name, Some(tenant)));
                let fs = PaS3fs::attach(
                    client.clone(),
                    LocalIoParams::instant(),
                    mix64(seed ^ mix64(0x0B5E_77E5 ^ c as u64)),
                );
                let replay = replay_fs_prefixed(&fs, &script, &format!("/{name}"));
                let sync = client.sync();
                let stats = client.pipeline_stats();
                let died = replay
                    .died
                    .map(|(i, e)| format!("session {name} died at event {i}: {e}"))
                    .or_else(|| {
                        sync.err()
                            .map(|e| format!("session {name} sync failed: {e}"))
                    });
                spans.exit(lane);
                SessionOutcome {
                    durable_keys: replay.durable_keys,
                    flush: client.flush_breakdown(),
                    logged: client.wal_logged_transactions(),
                    logged_txns: stats.as_ref().map_or(0, |s| s.uploads),
                    dedupe_evictions: stats.map_or(0, |s| s.dedupe_evictions),
                    late,
                    depth_on_arrival,
                    died,
                }
            })
        })
        .collect();
    spans.exit(ph);
    let setup = t_setup.elapsed();

    let t_drive = Instant::now();
    let ph = spans.enter("phase:drive", parent);
    let outcomes: Vec<SessionOutcome> = handles.into_iter().map(|h| h.join()).collect();
    spans.exit(ph);
    let drive = t_drive.elapsed();

    // Quiesce: ride the commit feed until every shard WAL is empty.
    let t_quiesce = Instant::now();
    let ph = spans.enter("phase:quiesce", parent);
    let mut feed_events: Vec<CommitEvent> = Vec::new();
    let deadline = sim.now() + Duration::from_secs(24 * 3600);
    while fleet.total_depth() > 0 && sim.now() < deadline {
        if let Some(ev) = monitor.next_timeout(POLL_INTERVAL) {
            feed_events.push(ev);
        }
    }
    let quiesced = sim.now().saturating_duration_since(t0);
    let wal_leftover = fleet.total_depth();
    let commit_times: BTreeMap<Uuid, SimTime> = pool.commit_times().into_iter().collect();
    let pickup_times: BTreeMap<Uuid, SimTime> = pool.pickup_times().into_iter().collect();
    let pool_stats = spans.scope("fleet::DaemonPool::stop", ph.id(), || pool.stop());
    while let Some(ev) = monitor.try_next() {
        feed_events.push(ev);
    }
    spans.scope("fleet::ShardedCleaners::sweep_once", ph.id(), || {
        let _ = fleet.cleaners().sweep_once();
        let _ = fleet.cleaners().sweep_index_once();
    });
    let temp_leftover = env.s3().peek_count(
        &protocol_config.layout.data_bucket,
        &protocol_config.layout.temp_prefix,
    );
    // Bill BEFORE the verification reads: check traffic is the harness's.
    let usage = env.usage();
    let cost_usd = PriceBook::aws_2009().cost(&usage).total();
    spans.exit(ph);
    let quiesce = t_quiesce.elapsed();

    // Verify.
    let t_verify = Instant::now();
    let ph = spans.enter("phase:verify", parent);
    if wal_leftover > 0 {
        failures.push(format!("{wal_leftover} WAL messages never committed"));
    }
    if temp_leftover > 0 {
        failures.push(format!("{temp_leftover} temp objects leaked"));
    }
    for _ in 0..pool_stats.double_commits {
        failures.push("double-committed transaction".into());
    }
    sim.sleep(env.profile().consistency.max_staleness + Duration::from_secs(1));
    let verifier = ProvenanceClient::builder(Protocol::P3)
        .config(ProtocolConfig {
            feed: false,
            ..protocol_config.clone()
        })
        .queue("bench-verifier")
        .build(&env);
    let mut join = CommitJoin::default();
    let tracer = traced.then(|| env.tracer());
    let mut flush = Vec::new();
    let mut late = Vec::new();
    let mut logged_txns = 0u64;
    let mut dedupe_evictions = 0u64;
    let mut durable_checked = 0u64;
    let mut depth_at_last_arrival = 0usize;
    let read_span = spans.enter("core::StorageProtocol::read (durable keys)", ph.id());
    for o in &outcomes {
        if let Some(why) = &o.died {
            failures.push(why.clone());
        }
        logged_txns += o.logged_txns;
        dedupe_evictions += o.dedupe_evictions;
        depth_at_last_arrival = depth_at_last_arrival.max(o.depth_on_arrival);
        late.push(o.late);
        flush.extend_from_slice(&o.flush);
        join.add(
            &o.logged,
            &commit_times,
            &pickup_times,
            tracer,
            &mut failures,
        );
        for key in &o.durable_keys {
            durable_checked += 1;
            match verifier.read(key) {
                Ok(r) if r.coupling == CouplingCheck::Coupled => {}
                Ok(r) => failures.push(format!("durable key {key} uncoupled: {:?}", r.coupling)),
                Err(e) => failures.push(format!("durable key {key} missing: {e}")),
            }
        }
    }
    spans.exit(read_span);
    if pool_stats.unique_committed != logged_txns {
        failures.push(format!(
            "committed {} of {logged_txns} logged transactions",
            pool_stats.unique_committed
        ));
    }
    // Feed: at-least-once, never a gap.
    let feed_stats = subs.stats();
    let feed_gaps = feed_stats.gaps + monitor.out_of_order();
    for _ in 0..feed_gaps {
        failures.push("feed sequence gap".into());
    }
    let seen: BTreeSet<Uuid> = feed_events.iter().map(|e| e.txn).collect();
    for txn in commit_times.keys().filter(|t| !seen.contains(t)) {
        failures.push(format!(
            "committed transaction {txn} never reached the feed"
        ));
    }

    let trace = tracer.map(|t| {
        spans.scope("trace::Tracer::{critical_path,stats}", ph.id(), || {
            join.trace_out(t, &mut failures)
        })
    });
    spans.exit(ph);
    let verify = t_verify.elapsed();
    PlaneRun {
        commit: join.commit,
        pickup: join.pickup,
        flush,
        late,
        logged_txns,
        committed: pool_stats.committed,
        unique_committed: pool_stats.unique_committed,
        first_arrival: offsets.iter().min().copied().unwrap_or_default(),
        last_arrival: offsets.iter().max().copied().unwrap_or_default(),
        quiesced,
        depth_at_last_arrival,
        usage,
        cost_usd,
        pool: pool_stats,
        feed_events: feed_events.len() as u64,
        feed_duplicates: feed_stats.duplicates,
        feed_gaps,
        dedupe_evictions,
        durable_checked,
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
