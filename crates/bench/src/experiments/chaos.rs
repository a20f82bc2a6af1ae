//! Chaos table: the §3 recovery invariants under explored failure
//! schedules, per protocol — the machine-checked companion to Table 1.
//!
//! For every protocol configuration the deterministic explorer
//! (`cloudprov-chaos`) sweeps a seed range; each seed is a complete,
//! replayable failure schedule (service faults + a crash-point kill +
//! recovery). The table reports how much detectable damage P1/P2 accrue
//! under parallel uploads — and that P3's WAL keeps every guarantee —
//! plus the minimal failing seed for replay when an invariant breaks.

use std::ops::Range;

use cloudprov_chaos::{
    aimed_schedules, explore_seed, run_aimed, ExplorationReport, Explorer, ProtocolSummary,
    SeedOutcome,
};

pub use cloudprov_chaos::{AimedOutcome, Family};

use crate::Which;

/// One protocol's sweep, summarized.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Aggregated counters over the seed range.
    pub summary: ProtocolSummary,
    /// Full per-seed outcomes (for drill-down and replay).
    pub report: ExplorationReport,
}

/// Sweeps `seeds` for all four protocol configurations.
pub fn sweep(seeds: Range<u64>) -> Vec<ChaosRow> {
    Explorer::new(seeds)
        .run_all()
        .into_iter()
        .map(|report| ChaosRow {
            summary: report.summary(),
            report,
        })
        .collect()
}

/// Replays one seed twice and returns both outcomes — the determinism
/// proof `repro -- chaos` prints (identical schedules and verdicts).
pub fn replay_twice(which: Which, seed: u64) -> (SeedOutcome, SeedOutcome) {
    (explore_seed(which, seed), explore_seed(which, seed))
}

/// The aimed crash schedules (`p3:commit:*`, `p3:notify:*`,
/// `client:cas:*`): each kills a daemon or client at a named step
/// occurrence and audits the recovery like a seed. Appended to the seeded
/// sweep so its coverage of these crash points never depends on where
/// the seeds' crossing draws happen to land.
pub fn aimed() -> Vec<AimedOutcome> {
    aimed_schedules().iter().map(run_aimed).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_protocols_and_stays_invariant_clean() {
        let rows = sweep(0..6);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.summary.seeds, 6);
            assert_eq!(
                row.summary.failing_seeds, 0,
                "{:?}: {:?}",
                row.summary.protocol, row.summary.minimal_failure
            );
        }
    }
}
