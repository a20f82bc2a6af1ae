//! Fleet experiment: sweep clients × shards × daemons over the sharded
//! commit plane and produce the scaling table `repro -- fleet` judges
//! (invariants and shape only — numbers are bounded by `benchmark/`).
//!
//! The sweep is a pure function of its seed: every cell report is
//! reproducible bit-for-bit, and `repro -- fleet` re-runs one cell to
//! prove it.

use std::time::Duration;

use cloudprov_cloud::{Actor, AwsProfile, CloudEnv, Service};
use cloudprov_core::ProtocolConfig;
use cloudprov_fleet::{DaemonPool, Fleet, FleetConfig, PoolStats};
use cloudprov_sim::Sim;
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

/// How long the idle-plane cell leaves its pool alone.
const IDLE_HOUR: Duration = Duration::from_secs(3600);

/// What the idle-plane cell measured: a pool left alone with no client
/// for one virtual hour.
#[derive(Clone, Debug)]
pub struct IdleCell {
    /// Echo of the cell shape.
    pub shards: u32,
    /// Echo of the cell shape.
    pub daemons: usize,
    /// The workers' idle park cap ([`DaemonPool::idle_park_cap`]).
    pub cap: Duration,
    /// The commit-lease TTL, which every lease's age at a renewal check
    /// must stay under.
    pub lease_ttl: Duration,
    /// SQS calls billed to the commit daemons (lease board and WALs).
    pub sqs_ops: u64,
    /// The pool's counters at stop.
    pub pool: PoolStats,
}

impl IdleCell {
    /// The most SQS calls the cell may make: every worker holds a shard
    /// and, once the fallback has doubled up from `poll_interval`, runs
    /// one round per cap. Such a round pays a WAL Receive, and a board
    /// Receive and a renewal each at most once per lease tick — which
    /// equals the cap, so at most three calls a round. Four rounds of
    /// slack cover the ramp and the first acquire.
    pub fn bound(&self) -> u64 {
        let rounds = IDLE_HOUR.as_secs() / self.cap.as_secs().max(1) + 4;
        3 * self.daemons as u64 * rounds
    }

    /// Whether the idle plane stayed under its bound without losing a
    /// lease or letting one age to the TTL.
    pub fn ok(&self) -> bool {
        self.sqs_ops <= self.bound()
            && self.pool.losses == 0
            && self.pool.errors == 0
            && self.pool.max_lease_age < self.lease_ttl
    }
}

/// The idle-plane cell: 4 shards x 4 daemons, no clients, one virtual
/// hour on the calibrated profile, at the sweep's poll interval and
/// lease TTL. Prices the fallback poll an idle commit plane pays.
pub fn idle_plane(seed: u64) -> IdleCell {
    let (shards, daemons) = (4, 4);
    let defaults = FleetParams::default();
    let sim = Sim::new();
    let mut profile = AwsProfile::calibrated(Default::default());
    profile.seed = seed;
    let env = CloudEnv::new(&sim, profile);
    let fleet = Fleet::provision(
        &env,
        ProtocolConfig::default(),
        FleetConfig {
            shards,
            lease_ttl: defaults.lease_ttl,
            ..FleetConfig::default()
        },
    );
    let pool = fleet.spawn_pool(daemons, defaults.poll_interval);
    sim.sleep(IDLE_HOUR);
    let pool = pool.stop();
    let sqs_ops = env
        .usage()
        .total_ops(|a, s, _| a == Actor::CommitDaemon && s == Service::Queue);
    IdleCell {
        shards,
        daemons,
        cap: DaemonPool::idle_park_cap(defaults.lease_ttl),
        lease_ttl: defaults.lease_ttl,
        sqs_ops,
        pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_plane_stays_under_its_bound() {
        let cell = idle_plane(1);
        assert!(cell.ok(), "{cell:?} over its bound {}", cell.bound());
        assert!(cell.pool.rounds > 0, "{cell:?}");
    }

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
