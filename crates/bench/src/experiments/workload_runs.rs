//! Figure 4 + Table 4: full workload runs.
//!
//! Replays each workload trace through PA-S3fs under every protocol and
//! measurement context: {Blast, Nightly, Challenge} × {EC2(UML), local} ×
//! {Sept 2009, Dec/Jan 2010}. Elapsed times reproduce Figure 4; metered
//! costs (including P3's commit daemon, which runs concurrently and is
//! drained before billing) reproduce Table 4.

use std::time::Duration;

use cloudprov_cloud::{Era, RunContext};
use cloudprov_core::ProtocolConfig;
use cloudprov_fs::LocalIoParams;
use cloudprov_workloads::{
    blast, challenge, nightly, replay, BlastParams, ChallengeParams, NightlyParams, Trace,
};

use crate::common::{overhead_pct, Rig, Which};

/// The three evaluation workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// CVSROOT nightly backup.
    Nightly,
    /// NIH-style Blast job.
    Blast,
    /// fMRI provenance challenge.
    Challenge,
}

impl Workload {
    /// All three, in the paper's figure order.
    pub const ALL: [Workload; 3] = [Workload::Blast, Workload::Nightly, Workload::Challenge];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Nightly => "NIGHTLY",
            Workload::Blast => "BLAST",
            Workload::Challenge => "CHALL",
        }
    }

    /// Generates the trace (full paper scale or scaled-down for tests).
    pub fn trace(self, full_scale: bool) -> Trace {
        match (self, full_scale) {
            (Workload::Nightly, true) => nightly(NightlyParams::default()),
            (Workload::Nightly, false) => nightly(NightlyParams::small()),
            (Workload::Blast, true) => blast(BlastParams::default()),
            (Workload::Blast, false) => blast(BlastParams::small()),
            (Workload::Challenge, true) => challenge(ChallengeParams::default()),
            (Workload::Challenge, false) => challenge(ChallengeParams::small()),
        }
    }
}

/// One cell of Figure 4 / Table 4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadResult {
    /// Workload.
    pub workload: Workload,
    /// Protocol.
    pub which: Which,
    /// Measurement context.
    pub context: RunContext,
    /// Client-side elapsed time (the Figure 4 bars; excludes the commit
    /// daemon, which "operates asynchronously").
    pub elapsed: Duration,
    /// Total cost in USD including daemons (Table 4).
    pub cost_usd: f64,
    /// Client-side cloud ops.
    pub client_ops: u64,
}

/// Runs one workload × protocol × context cell.
pub fn run_cell(
    workload: Workload,
    which: Which,
    context: RunContext,
    full_scale: bool,
) -> WorkloadResult {
    let trace = workload.trace(full_scale);
    // Paper-faithful CLIENT: one WAL send per message — Figure 4's
    // elapsed times reproduce the 2009 tool, which predates
    // SendMessageBatch. The commit daemon deliberately stays the modern
    // group-commit plane; its (slightly cheaper, batched) background
    // cost rides in Table 4's totals the same way the ancestry-index
    // writes it also performs do.
    let cfg = ProtocolConfig {
        wal_batch_send: false,
        ..ProtocolConfig::default()
    };
    let rig = Rig::new(which, context, cfg);
    // P3's commit daemon runs concurrently with the workload.
    let daemon_handle = rig
        .client
        .commit_daemon()
        .map(|d| d.clone().spawn(Duration::from_secs(2)));
    let fs = rig.fs(LocalIoParams::default(), 0xB10B);
    let summary = replay(&rig.sim, &fs, &trace).expect("workload replay");
    if let Some(h) = daemon_handle {
        h.stop();
    }
    // Finish any outstanding commits so Table 4 includes the daemon cost.
    rig.drain_commits();
    let usage = rig.env.usage();
    // The paper's costs cover the whole experiment bill; EC2-hosted runs
    // also pay the medium instance ($0.17/hour in 2009) for the client.
    let instance_usd = match context.location {
        cloudprov_cloud::ClientLocation::Ec2 => summary.elapsed.as_secs_f64() / 3600.0 * 0.17,
        cloudprov_cloud::ClientLocation::Local => 0.0,
    };
    WorkloadResult {
        workload,
        which,
        context,
        elapsed: summary.elapsed,
        cost_usd: rig.env.cost().total() + instance_usd,
        client_ops: usage.client_ops(),
    }
}

/// The 12 result sets of Figure 4 (each with 4 bars): workloads × {EC2,
/// local} × {Sept 09, Dec/Jan 10}.
pub fn figure4(full_scale: bool) -> Vec<WorkloadResult> {
    let mut out = Vec::new();
    for era in [Era::Sept2009, Era::DecJan2010] {
        for context in [RunContext::ec2(era), RunContext::local(era)] {
            for workload in Workload::ALL {
                for which in Which::ALL {
                    out.push(run_cell(workload, which, context, full_scale));
                }
            }
        }
    }
    out
}

/// What Figure 4 claims, as predicates over [`run_cell`] results grouped
/// by workload × context (a group needs its S3fs bar). At both scales P2
/// is the slowest provenance protocol of every group. At full scale, at
/// least two thirds of the protocol results sit within 10% of S3fs
/// (paper: 29/36) and none costs 36% or more (the paper's maximum). The
/// scaled-down traces are provenance-dominated, so there only Nightly is
/// held to a band: within jitter of the baseline below (±8% service
/// jitter plus concurrent upload can beat it on tiny runs), under 60%
/// above, and never cheaper than it. Returns the predicates that
/// failed; empty means the figure has the paper's shape.
pub fn figure4_shape(results: &[WorkloadResult], full_scale: bool) -> Vec<String> {
    let mut failed = Vec::new();
    let (mut within10, mut total, mut max_pct) = (0, 0, f64::MIN);
    for base in results.iter().filter(|r| r.which == Which::S3fs) {
        let cell = format!("{} / {:?}", base.workload.name(), base.context);
        let group: Vec<(&WorkloadResult, f64)> = results
            .iter()
            .filter(|r| {
                r.which != Which::S3fs && r.workload == base.workload && r.context == base.context
            })
            .map(|r| {
                let pct = overhead_pct(base.elapsed.as_secs_f64(), r.elapsed.as_secs_f64());
                (r, pct)
            })
            .collect();
        if let Some((p2, _)) = group.iter().find(|(r, _)| r.which == Which::P2) {
            if group.iter().any(|(r, _)| r.elapsed > p2.elapsed) {
                failed.push(format!("{cell}: P2 is not the slowest protocol"));
            }
        }
        for (r, pct) in group {
            total += 1;
            within10 += usize::from(pct < 10.0);
            max_pct = max_pct.max(pct);
            if !full_scale && base.workload == Workload::Nightly {
                if !(-12.0..60.0).contains(&pct) {
                    failed.push(format!("{cell}: {} overhead {pct:.1}%", r.which.name()));
                }
                if r.cost_usd < base.cost_usd {
                    failed.push(format!("{cell}: {} is cheaper than S3fs", r.which.name()));
                }
            }
        }
    }
    if full_scale && within10 * 3 < total * 2 {
        failed.push(format!(
            "only {within10}/{total} results within 10% of S3fs"
        ));
    }
    if full_scale && max_pct >= 36.0 {
        failed.push(format!("max overhead {max_pct:.1}% is not under 36%"));
    }
    failed
}

/// Table 4: cost per benchmark per protocol (taken from the EC2 Sept-2009
/// runs, including commit-daemon activity).
pub fn table4(full_scale: bool) -> Vec<WorkloadResult> {
    let context = RunContext::ec2(Era::Sept2009);
    let mut out = Vec::new();
    for workload in [Workload::Nightly, Workload::Blast, Workload::Challenge] {
        for which in Which::ALL {
            out.push(run_cell(workload, which, context, full_scale));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_modest_at_small_scale() {
        let context = RunContext::ec2(Era::Sept2009);
        let cells = Which::ALL.map(|which| run_cell(Workload::Nightly, which, context, false));
        assert_eq!(figure4_shape(&cells, false), Vec::<String>::new());
    }

    #[test]
    fn dec_era_is_faster_than_sept() {
        let sept = run_cell(
            Workload::Challenge,
            Which::S3fs,
            RunContext::ec2(Era::Sept2009),
            false,
        );
        let dec = run_cell(
            Workload::Challenge,
            Which::S3fs,
            RunContext::ec2(Era::DecJan2010),
            false,
        );
        assert!(dec.elapsed < sept.elapsed, "§5: services got faster");
    }

    #[test]
    fn p3_commits_complete_after_run() {
        let r = run_cell(
            Workload::Nightly,
            Which::P3,
            RunContext::ec2(Era::Sept2009),
            false,
        );
        assert!(r.cost_usd > 0.0);
    }
}
