//! The schedule explorer: run a seeded workload under a seeded chaos
//! plan, crash the client, recover, and machine-check the §3 invariants.
//!
//! One seed fully determines one run — the workload script, the service
//! faults, the crash-point the client dies at, and therefore the entire
//! virtual-time execution. [`explore_seed`] replays that run and returns a
//! [`SeedOutcome`]; [`Explorer::run`] sweeps a seed range and aggregates
//! an [`ExplorationReport`], recording the minimal failing seed per
//! protocol for replay.
//!
//! # The recovery story being checked
//!
//! After the client dies mid-schedule, the explorer performs the paper's
//! §4.3.3 recovery: wait out the SQS visibility window, hand the dead
//! client's WAL to a **fresh recovery client** on a different "machine"
//! (same queue URL — that is the whole point of keeping the WAL in the
//! cloud), drain it, let the four-day retention window expire incomplete
//! transactions, and run the cleaner daemon over orphaned temp objects.
//! Then the recovery client collects the same [`Audit`] every chaos
//! harness does, and its violations are the seed's verdict.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::{AwsProfile, CloudEnv, DEFAULT_VISIBILITY_TIMEOUT, RETENTION};
use cloudprov_core::{Protocol, ProtocolConfig, ProvenanceClient};
use cloudprov_fs::{LocalIoParams, PaS3fs};
use cloudprov_pass::Uuid;
use cloudprov_sim::Sim;
use cloudprov_workloads::testkit::{self, random_script};

use crate::audit::{Audit, Recovered};
use crate::plan::{ChaosPlan, CrashSchedule, FiredCrash};

/// Queue name shared by the dying client and its recovery machine.
const WAL_QUEUE: &str = "wal-chaos";

/// Everything one explored seed produced. `PartialEq` so replays can be
/// checked for bit-identical schedules and verdicts.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedOutcome {
    /// The protocol under test.
    pub protocol: Protocol,
    /// The chaos plan derived from the seed.
    pub plan: ChaosPlan,
    /// Script events applied before the client died (or all of them).
    pub applied_events: usize,
    /// Crash-point crossings observed over the whole run.
    pub crossings: u64,
    /// The injected crash, if the schedule's kill crossing was reached.
    pub crash: Option<FiredCrash>,
    /// Keys whose durability was promised before the crash.
    pub promised: BTreeSet<String>,
    /// What the recovery client found, led by the recovery's own errors.
    pub audit: Audit,
}

impl SeedOutcome {
    /// Hard invariant violations **for this protocol** — the conditions a
    /// CI run fails on.
    pub fn violations(&self) -> Vec<String> {
        self.audit.violations()
    }
}

/// Replays seed `seed` for `protocol`: workload under chaos, crash,
/// recovery, invariant checks. Pure function of its arguments — calling
/// it twice yields identical [`SeedOutcome`]s.
pub fn explore_seed(protocol: Protocol, seed: u64) -> SeedOutcome {
    let plan = ChaosPlan::derive(seed);
    let schedule = CrashSchedule::new(plan.kill_at_crossing);
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    env.faults().set(plan.fault_plan());

    // --- Phase 1: the client under chaos. The change feed is on for P3
    // so the `p3:notify:*` crash points sit inside the schedule space.
    let feed_on = protocol == Protocol::P3;
    let mut builder = ProvenanceClient::builder(protocol)
        .config(ProtocolConfig {
            feed: feed_on,
            ..ProtocolConfig::default()
        })
        .queue(WAL_QUEUE)
        .step_hook(schedule.hook());
    if plan.pipelined {
        builder = builder.pipelined();
    }
    let client = Arc::new(builder.build(&env));
    let committed = Arc::new(Mutex::new(Vec::<Uuid>::new()));
    listen(&client, &committed);
    let fs = PaS3fs::attach(client.clone(), LocalIoParams::instant(), seed);
    let script = random_script(seed, plan.script_len);
    let replay = testkit::replay_fs(&fs, &script);
    // Durability barrier. `drain` additionally runs P3's commit daemon —
    // itself under the crash schedule.
    let sync_ok = client.sync().is_ok();
    let _ = client.drain();
    let crash = schedule.fired();
    // Promise accounting. Blocking mode: a successful close returned
    // only once the batch was durable (for P3: logged in the WAL), so
    // every such key is promised even — especially — when the client
    // later crashed. Pipelined mode: durability is only promised at a
    // clean barrier; any surfaced error voids the run's promises (an
    // intermediate `delete` may already have consumed a background-flush
    // error, so a late `sync().is_ok()` alone proves nothing).
    let promised: BTreeSet<String> =
        if plan.pipelined && !(sync_ok && replay.died.is_none() && crash.is_none()) {
            BTreeSet::new()
        } else {
            replay.durable_keys.clone()
        };
    let crossings = schedule.crossings();
    drop(fs);
    drop(client); // the client machine is gone

    // --- Phase 2: recovery on a fresh machine. ---
    let mut recovery_errors = Vec::new();
    env.faults().clear(); // the outage is over
    sim.sleep(DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));
    let recovery = ProvenanceClient::builder(protocol)
        .config(ProtocolConfig {
            feed: feed_on,
            ..ProtocolConfig::default()
        })
        .queue(WAL_QUEUE)
        .build(&env);
    listen(&recovery, &committed);
    if let Err(e) = recovery.drain() {
        recovery_errors.push(format!("WAL drain: {e}"));
    }
    // Let SQS retention expire incompletely-logged transactions, then
    // drain again (expiry is lazy — a receive triggers it) and reap
    // orphaned temp objects past the four-day window.
    sim.sleep(RETENTION + Duration::from_secs(60));
    if let Err(e) = recovery.drain() {
        recovery_errors.push(format!("post-retention drain: {e}"));
    }
    if let Some(cleaner) = recovery.cleaner_daemon() {
        if let Err(e) = cleaner.sweep_once() {
            recovery_errors.push(format!("cleaner: {e}"));
        }
    }

    // --- Phase 3: invariants. ---
    let keys: Vec<String> = (0..testkit::FILES).map(testkit::file_key).collect();
    let committed = committed.lock().clone();
    let mut audit = Audit::collect(&Recovered {
        env: &env,
        reader: &recovery,
        layout: &recovery.config().layout,
        keys: &keys,
        promised: &promised,
        wal: recovery.wal_url().map(|url| (WAL_QUEUE, url)),
        committed: &committed,
        feed: feed_on,
        live: None,
    });
    audit.errors.splice(0..0, recovery_errors);
    SeedOutcome {
        protocol,
        plan,
        applied_events: replay.applied,
        crossings,
        crash,
        promised,
        audit,
    }
}

/// Records every transaction `client`'s commit daemon (P3 only) commits.
fn listen(client: &ProvenanceClient, committed: &Arc<Mutex<Vec<Uuid>>>) {
    if let Some(daemon) = client.commit_daemon() {
        let ids = committed.clone();
        daemon.set_commit_listener(Arc::new(move |txn| ids.lock().push(txn)));
    }
}

/// Aggregate of one protocol's sweep over a seed range.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtocolSummary {
    /// The protocol swept.
    pub protocol: Protocol,
    /// Seeds explored.
    pub seeds: usize,
    /// Seeds whose schedule actually killed the client.
    pub crashes: usize,
    /// Seeds that injected at least one service-level fault.
    pub faulty_seeds: usize,
    /// The seeds' audits, summed.
    pub audit: Audit,
    /// Seeds with at least one hard invariant violation.
    pub failing_seeds: usize,
    /// The smallest failing seed with its violations — the replay handle.
    pub minimal_failure: Option<(u64, Vec<String>)>,
}

/// Sweeps seed ranges and aggregates per-protocol reports.
#[derive(Clone, Debug)]
pub struct Explorer {
    /// Seed range to sweep.
    pub seeds: Range<u64>,
}

impl Explorer {
    /// An explorer over `seeds`.
    pub fn new(seeds: Range<u64>) -> Explorer {
        Explorer { seeds }
    }

    /// Sweeps one protocol.
    pub fn run(&self, protocol: Protocol) -> ExplorationReport {
        let outcomes: Vec<SeedOutcome> = self
            .seeds
            .clone()
            .map(|seed| explore_seed(protocol, seed))
            .collect();
        ExplorationReport {
            seeds: self.seeds.clone(),
            outcomes,
        }
    }

    /// Sweeps every protocol configuration, baseline first.
    pub fn run_all(&self) -> Vec<ExplorationReport> {
        Protocol::ALL.iter().map(|p| self.run(*p)).collect()
    }
}

/// The outcomes of one protocol sweep.
#[derive(Clone, Debug)]
pub struct ExplorationReport {
    /// The seed range swept.
    pub seeds: Range<u64>,
    /// One outcome per seed, in seed order.
    pub outcomes: Vec<SeedOutcome>,
}

impl ExplorationReport {
    /// Aggregates the sweep into a summary row.
    pub fn summary(&self) -> ProtocolSummary {
        let protocol = self
            .outcomes
            .first()
            .map(|o| o.protocol)
            .unwrap_or(Protocol::S3fs);
        let mut s = ProtocolSummary {
            protocol,
            seeds: self.outcomes.len(),
            crashes: 0,
            faulty_seeds: 0,
            audit: Audit::default(),
            failing_seeds: 0,
            minimal_failure: None,
        };
        for (seed, o) in self.seeds.clone().zip(&self.outcomes) {
            s.crashes += usize::from(o.crash.is_some());
            s.faulty_seeds += usize::from(o.plan.has_service_faults());
            s.audit += &o.audit;
            let violations = o.violations();
            if !violations.is_empty() {
                s.failing_seeds += 1;
                if s.minimal_failure.is_none() {
                    s.minimal_failure = Some((seed, violations));
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_replay_identically() {
        for protocol in [Protocol::P1, Protocol::P3] {
            for seed in [0, 3, 11] {
                let a = explore_seed(protocol, seed);
                let b = explore_seed(protocol, seed);
                assert_eq!(a, b, "{protocol} seed {seed} must replay identically");
            }
        }
    }

    #[test]
    fn schedules_differ_across_seeds() {
        let outcomes: Vec<SeedOutcome> = (0..16).map(|s| explore_seed(Protocol::P3, s)).collect();
        let crash_steps: BTreeSet<String> = outcomes
            .iter()
            .filter_map(|o| o.crash.as_ref().map(|c| c.step.clone()))
            .collect();
        assert!(
            crash_steps.len() > 1,
            "different seeds must explore different crash points, got {crash_steps:?}"
        );
    }

    #[test]
    fn p3_invariants_hold_over_a_seed_range() {
        let report = Explorer::new(0..10).run(Protocol::P3);
        for (seed, o) in report.seeds.clone().zip(&report.outcomes) {
            assert!(
                o.violations().is_empty(),
                "P3 seed {seed} violated invariants: {:?}\noutcome: {o:#?}",
                o.violations()
            );
        }
        let s = report.summary();
        assert!(s.audit.violations().is_empty(), "{s:?}");
        assert!(
            s.audit.feed_events > 0,
            "the P3 sweep must actually exercise the feed: {s:?}"
        );
        assert!(s.crashes > 0, "the range must actually inject crashes");
    }

    #[test]
    fn p1_p2_accumulate_detectable_violations_that_p3_avoids() {
        // Mirrors Table 1: under crashes the parallel P1/P2 uploads leave
        // detectable coupling/causal damage; P3's WAL never does.
        let explorer = Explorer::new(0..20);
        let p1 = explorer.run(Protocol::P1).summary();
        let p2 = explorer.run(Protocol::P2).summary();
        let p3 = explorer.run(Protocol::P3).summary();
        let damage = |s: &ProtocolSummary| {
            s.audit.coupling.detected_violations() as u64 + s.audit.dangling_edges
        };
        assert!(
            damage(&p1) + damage(&p2) > 0,
            "the seed range should catch P1/P2 in at least one violation \
             (p1: {p1:?}, p2: {p2:?})"
        );
        // That damage is detected, never a broken guarantee: P1 and P2
        // pass every seed too.
        assert_eq!(p1.failing_seeds, 0, "{p1:?}");
        assert_eq!(p2.failing_seeds, 0, "{p2:?}");
        assert_eq!(damage(&p3), 0, "{p3:?}");
        assert_eq!(p3.failing_seeds, 0, "{p3:?}");
    }

    #[test]
    fn s3fs_baseline_survives_the_sweep() {
        let report = Explorer::new(0..6).run(Protocol::S3fs);
        for (seed, o) in report.seeds.clone().zip(&report.outcomes) {
            assert!(
                o.violations().is_empty(),
                "S3fs seed {seed}: {:?}",
                o.violations()
            );
        }
    }
}
