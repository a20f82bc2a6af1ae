//! Fleet experiment: sweep clients × shards × daemons over the sharded
//! commit plane and produce the scaling table `repro -- fleet` judges
//! (invariants and shape only — numbers are bounded by `benchmark/`).
//!
//! The sweep is a pure function of its seed: every cell report is
//! reproducible bit-for-bit, and `repro -- fleet` re-runs one cell to
//! prove it.

use cloudprov_cloud::AwsProfile;
use cloudprov_workloads::fleet::{run_fleet, FleetParams, FleetReport};

/// The cell grid: (clients, tenants, shards, daemons, script_len).
type Cell = (usize, u32, u32, usize, usize);

/// Smoke grid for CI: one small fleet, daemons swept at fixed shards.
const SMOKE: &[Cell] = &[(24, 4, 4, 1, 12), (24, 4, 4, 2, 12), (24, 4, 4, 4, 12)];

/// Full grid: a daemon sweep at fixed shards (the headline scaling
/// claim), a shard sweep at fixed daemons, and a client-load sweep.
const FULL: &[Cell] = &[
    // Daemon scaling, 8 shards fixed.
    (192, 12, 8, 1, 24),
    (192, 12, 8, 2, 24),
    (192, 12, 8, 4, 24),
    (192, 12, 8, 8, 24),
    // Shard scaling, 4 daemons fixed.
    (192, 12, 2, 4, 24),
    (192, 12, 16, 4, 24),
    // Client load, 8 shards / 4 daemons fixed.
    (96, 12, 8, 4, 24),
    (288, 12, 8, 4, 24),
];

/// Parameters for one cell of the sweep.
pub fn cell_params(cell: Cell, seed: u64) -> FleetParams {
    let (clients, tenants, shards, daemons, script_len) = cell;
    FleetParams {
        clients,
        tenants,
        shards,
        daemons,
        script_len,
        seed,
        profile: AwsProfile::calibrated(Default::default()),
        trace: true,
        ..FleetParams::default()
    }
}

/// The latency-probe cell: one lightly loaded fleet (clients ≤ shards,
/// daemons == shards) where the plane never saturates, so the
/// WAL-durable → pickup dwell measures pure delivery latency rather
/// than backlog queueing. The pickup gate (`pickup p50 < 1 s`) runs
/// here: in the scaling cells the burst workload deliberately swamps
/// the plane and pickup is dominated by the queue, not the doorbell.
const LATENCY_SMOKE: Cell = (4, 4, 4, 4, 12);
/// Full-grid latency probe, same shape scaled to the full sweep's
/// shard count.
const LATENCY_FULL: Cell = (8, 8, 8, 8, 24);

/// Runs the latency probe cell (appended to the sweep's table;
/// identified there by `clients <= shards`).
pub fn latency_probe(small: bool, seed: u64) -> FleetReport {
    let cell = if small { LATENCY_SMOKE } else { LATENCY_FULL };
    run_fleet(&cell_params(cell, seed))
}

/// Whether a report is the sweep's latency probe (unsaturated cell).
pub fn is_latency_probe(r: &FleetReport) -> bool {
    r.clients <= r.shards as usize
}

/// Runs the sweep. `small` selects the CI smoke grid. Every cell is
/// traced; only the first cell exports Chrome trace JSON (the sampled
/// cell `repro -- fleet --trace-out` writes to disk).
pub fn sweep(small: bool, seed: u64) -> Vec<FleetReport> {
    let grid = if small { SMOKE } else { FULL };
    grid.iter()
        .enumerate()
        .map(|(i, c)| {
            let mut params = cell_params(*c, seed);
            params.trace_export = i == 0;
            run_fleet(&params)
        })
        .collect()
}

/// Re-runs the first cell of the grid (the determinism proof). Exports
/// the trace so the `again == reports[0]` check also proves the trace
/// JSON is bit-identical across runs.
pub fn rerun_first(small: bool, seed: u64) -> FleetReport {
    let grid = if small { SMOKE } else { FULL };
    let mut params = cell_params(grid[0], seed);
    params.trace_export = true;
    run_fleet(&params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cells_share_the_workload_shape() {
        // All smoke cells differ only in daemon count, so the logged
        // transaction totals must match — the throughput comparison is
        // apples-to-apples.
        let a = cell_params(SMOKE[0], 1);
        let b = cell_params(SMOKE[2], 1);
        assert_eq!(a.clients, b.clients);
        assert_eq!(a.shards, b.shards);
        assert_ne!(a.daemons, b.daemons);
    }

    #[test]
    fn latency_probe_cell_is_unsaturated_and_detectable() {
        let p = cell_params(LATENCY_SMOKE, 1);
        assert!(p.clients <= p.shards as usize, "probe must never saturate");
        assert_eq!(p.daemons, p.shards as usize, "one worker per shard");
        let f = cell_params(LATENCY_FULL, 1);
        assert!(f.clients <= f.shards as usize);
        // No scaling-grid cell can be mistaken for the probe.
        for c in SMOKE.iter().chain(FULL) {
            let (clients, _, shards, _, _) = *c;
            assert!(clients > shards as usize, "{c:?} would match the probe");
        }
    }
}
