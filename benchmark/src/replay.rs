//! `paper-replay`: the paper's three evaluation workloads (Blast, Nightly,
//! Challenge) replayed by one blocking client through `PaS3fs` under S3fs,
//! P1, P2 and P3 — 12 cells, the shape of Figure 4 / Table 4 (EC2, Sept
//! 2009). P3's commit daemon runs concurrently and is drained before the
//! cell is billed. The only workload that runs `pass::Observer`, `fs`, the
//! blocking client path and P1/P2; `fleet`, `feed` and `query` idle.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cloudprov_cloud::{AwsProfile, ClientLocation, CloudEnv, Era, RunContext, UsageReport};
use cloudprov_core::{Protocol, ProtocolConfig, ProvenanceClient, StorageProtocol};
use cloudprov_fs::{LocalIoParams, PaS3fs};
use cloudprov_pass::Uuid;
use cloudprov_sim::{Sim, SimTime};
use cloudprov_workloads::{
    blast, challenge, collect, nightly, replay, BlastParams, ChallengeParams, NightlyParams, Trace,
};

use crate::plane::{mix64, service_busy, Phases, TraceOut};
use crate::spans::HostSpans;

/// One workload × protocol cell.
#[derive(Debug)]
pub struct Cell {
    pub protocol: Protocol,
    /// Client-side elapsed virtual time (the daemon runs asynchronously).
    pub elapsed: Duration,
    /// The cell's whole bill, daemon and EC2 instance included.
    pub cost_usd: f64,
    pub usage: UsageReport,
    /// Virtual time until the cell, daemon drained, was quiet.
    pub virtual_elapsed: Duration,
}

#[derive(Debug)]
pub struct ReplayRun {
    pub cells: Vec<Cell>,
    /// P3 cells' transactions, WAL-durable → committed.
    pub commit: Vec<Duration>,
    pub pickup: Vec<Duration>,
    /// Written files read back (and checked for coupling) after billing.
    pub keys_checked: u64,
    pub failures: Vec<String>,
    pub trace: Option<TraceOut>,
    pub phases: Phases,
}

/// Paper scale, or a scaled-down trace set for the smoke test.
pub fn traces(full_scale: bool) -> Vec<(&'static str, Trace)> {
    if full_scale {
        vec![
            ("blast", blast(BlastParams::default())),
            ("nightly", nightly(NightlyParams::default())),
            ("challenge", challenge(ChallengeParams::default())),
        ]
    } else {
        vec![
            ("blast", blast(BlastParams::small())),
            ("nightly", nightly(NightlyParams::small())),
            ("challenge", challenge(ChallengeParams::small())),
        ]
    }
}

/// Runs the 12 cells. `profile` is `None` for the paper's calibrated
/// EC2 / Sept 2009 context (the smoke test passes the instant profile).
pub fn run_replay(
    full_scale: bool,
    profile: Option<AwsProfile>,
    seed: u64,
    traced: bool,
    spans: &Arc<HostSpans>,
    parent: Option<u64>,
) -> ReplayRun {
    let t_setup = Instant::now();
    let ph = spans.enter("phase:setup", parent);
    let traces = spans.scope("workloads::{blast,nightly,challenge}", ph.id(), || {
        traces(full_scale)
    });
    // What each workload must leave behind: an offline capture (PASS
    // observer only, no cloud, no clock) gives the files it writes.
    let captures: Vec<_> = spans.scope("workloads::collect", ph.id(), || {
        traces.iter().map(|(_, t)| collect(t)).collect()
    });
    spans.exit(ph);
    let setup = t_setup.elapsed();

    let context = RunContext::ec2(Era::Sept2009);
    let mut failures = Vec::new();
    let mut cells = Vec::new();
    let mut commit = Vec::new();
    let mut pickup = Vec::new();
    let mut keys_checked = 0;
    // (latency, txn, index of its cell's tracer) → the p50 transaction.
    let mut commit_pairs: Vec<(Duration, Uuid, usize)> = Vec::new();
    let mut tracers = Vec::new();
    let (mut drive, mut quiesce, mut verify) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);

    for (w, (workload, trace)) in traces.iter().enumerate() {
        let durable: Vec<&str> = captures[w]
            .files
            .iter()
            .filter(|f| f.written)
            .map(|f| f.path.trim_start_matches('/'))
            .collect();
        for protocol in Protocol::ALL {
            let cell_span = spans.enter("cell", parent);
            let t_drive = Instant::now();
            let sim = Sim::new();
            let mut prof = profile
                .clone()
                .unwrap_or_else(|| AwsProfile::calibrated(context));
            // One jitter stream per workload, shared by its four protocol
            // cells, so the overhead percentages compare like with like.
            prof.seed = mix64(seed ^ mix64(0xCE11_0000 ^ w as u64));
            let env = CloudEnv::new(&sim, prof);
            if traced {
                env.tracer().enable(seed);
            }
            // Paper-faithful client: one WAL send per message (the 2009
            // tool predates SendMessageBatch). The daemon stays the
            // group-commit plane.
            let client = Arc::new(
                ProvenanceClient::builder(protocol)
                    .config(ProtocolConfig {
                        wal_batch_send: false,
                        ..ProtocolConfig::default()
                    })
                    .queue("wal-bench")
                    .build(&env),
            );
            let committed_at: Arc<Mutex<Vec<(Uuid, SimTime)>>> = Arc::default();
            let daemon = client.commit_daemon().map(|d| {
                let (log, clock) = (committed_at.clone(), sim.clone());
                d.set_commit_listener(Arc::new(move |txn| {
                    log.lock()
                        .expect("commit log lock never poisoned")
                        .push((txn, clock.now()));
                }));
                d.clone().spawn(Duration::from_secs(2))
            });
            let fs = PaS3fs::attach(
                client.clone(),
                LocalIoParams::default(),
                mix64(seed ^ 0xB10B),
            );
            let summary = spans.scope("workloads::replay", cell_span.id(), || {
                replay(&sim, &fs, trace)
            });
            drive += t_drive.elapsed();

            let t_quiesce = Instant::now();
            if let Some(h) = daemon {
                h.stop();
            }
            // A transaction whose temp object was not yet visible is
            // skipped, not lost: its WAL messages reappear after the
            // visibility timeout. Quiet means the WAL is empty, so wait
            // those out (bounded) instead of billing a half-drained cell.
            let drained = spans.scope("core::ProvenanceClient::drain", cell_span.id(), || {
                let mut outcome = client.drain();
                for _ in 0..10 {
                    let depth = client.wal_url().map_or(0, |url| env.sqs().peek_depth(url));
                    if outcome.is_err() || depth == 0 {
                        break;
                    }
                    sim.sleep(Duration::from_secs(60));
                    outcome = client.drain();
                }
                outcome
            });
            let usage = env.usage();
            let elapsed = summary.as_ref().map_or(Duration::ZERO, |s| s.elapsed);
            let instance_usd = match context.location {
                ClientLocation::Ec2 => elapsed.as_secs_f64() / 3600.0 * 0.17,
                ClientLocation::Local => 0.0,
            };
            let cost_usd = env.cost().total() + instance_usd;
            let virtual_elapsed = sim.now().saturating_duration_since(SimTime::ZERO);
            quiesce += t_quiesce.elapsed();

            let t_verify = Instant::now();
            let tag = format!("{workload}/{}", protocol.name());
            if let Err(e) = &summary {
                failures.push(format!("{tag}: replay failed: {e}"));
            }
            if let Err(e) = drained {
                failures.push(format!("{tag}: drain failed: {e}"));
            }
            let layout = &client.config().layout;
            let temps = env
                .s3()
                .peek_count(&layout.data_bucket, &layout.temp_prefix);
            if temps > 0 {
                failures.push(format!("{tag}: {temps} temp objects leaked"));
            }
            if let Some(url) = client.wal_url() {
                let depth = env.sqs().peek_depth(url);
                if depth > 0 {
                    failures.push(format!("{tag}: {depth} WAL messages never committed"));
                }
            }
            // Every file the workload wrote must be there, and under
            // P1-P3 must read back coupled with its provenance, once the
            // consistency window has passed.
            sim.sleep(env.profile().consistency.max_staleness + Duration::from_secs(1));
            let reads = spans.enter(
                "core::StorageProtocol::read (written files)",
                cell_span.id(),
            );
            for key in &durable {
                keys_checked += 1;
                if protocol.records_provenance() {
                    match client.read(key) {
                        Ok(r) if r.coupling.is_coupled() => {}
                        Ok(r) => failures.push(format!("{tag}: {key} uncoupled: {:?}", r.coupling)),
                        Err(e) => failures.push(format!("{tag}: {key} missing: {e}")),
                    }
                } else if !matches!(client.stat(key), Ok(Some(_))) {
                    failures.push(format!("{tag}: {key} missing"));
                }
            }
            spans.exit(reads);
            let logged = client.wal_logged_transactions();
            let times: std::collections::BTreeMap<Uuid, SimTime> = committed_at
                .lock()
                .expect("commit log lock never poisoned")
                .iter()
                .rev()
                .copied()
                .collect();
            let picked: std::collections::BTreeMap<Uuid, SimTime> = client
                .commit_daemon()
                .map(|d| d.pickup_times().into_iter().collect())
                .unwrap_or_default();
            for (txn, logged_at) in &logged {
                match times.get(txn) {
                    Some(at) => {
                        let lag = at.saturating_duration_since(*logged_at);
                        commit.push(lag);
                        commit_pairs.push((lag, *txn, tracers.len()));
                    }
                    None => {
                        failures.push(format!("{tag}: logged transaction {txn} never committed"))
                    }
                }
                if let Some(seen) = picked.get(txn) {
                    pickup.push(seen.saturating_duration_since(*logged_at));
                }
            }
            if traced {
                tracers.push(env.tracer().clone());
            }
            cells.push(Cell {
                protocol,
                elapsed,
                cost_usd,
                usage,
                virtual_elapsed,
            });
            verify += t_verify.elapsed();
            spans.exit(cell_span);
        }
    }

    let trace = traced.then(|| {
        commit_pairs.sort_unstable_by_key(|(lag, txn, _)| (*lag, *txn));
        let breakdown = (!commit_pairs.is_empty())
            .then(|| {
                let (_, txn, cell) =
                    commit_pairs[crate::stats::nearest_rank(commit_pairs.len(), 50.0) - 1];
                tracers[cell].critical_path(txn.0)
            })
            .flatten();
        let mut out = TraceOut {
            breakdown,
            ..TraceOut::default()
        };
        for t in &tracers {
            let st = t.stats();
            out.stats.spans += st.spans;
            out.stats.orphans += st.orphans;
            out.stats.roots += st.roots;
            out.stats.dropped += st.dropped;
            out.stats.open_roots += st.open_roots;
            for (slot, busy) in service_busy(&t.spans()).into_iter().enumerate() {
                out.busy[slot] += busy;
            }
        }
        out
    });
    if let Some(t) = &trace {
        for _ in 0..t.stats.orphans {
            failures.push("orphan span".into());
        }
    }
    ReplayRun {
        cells,
        commit,
        pickup,
        keys_checked,
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
