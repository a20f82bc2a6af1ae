//! Shared harness plumbing: protocol construction, run contexts, and
//! result formatting helpers.

use std::sync::Arc;

use cloudprov_cloud::{AwsProfile, CloudEnv, RunContext};
use cloudprov_core::{ProtocolConfig, ProvenanceClient};
use cloudprov_fs::{LocalIoParams, PaS3fs};
use cloudprov_sim::Sim;

/// Which storage configuration a run uses — the facade's [`Protocol`]
/// under the harness's historical name.
///
/// [`Protocol`]: cloudprov_core::Protocol
pub use cloudprov_core::Protocol as Which;

/// A provisioned run environment: simulation, cloud, and a
/// [`ProvenanceClient`] session (with its commit daemon for P3).
pub struct Rig {
    /// The simulation.
    pub sim: Sim,
    /// The cloud environment.
    pub env: CloudEnv,
    /// The session under test (implements `StorageProtocol`, so it is
    /// also what uploaders and file systems consume). P3's daemons are
    /// reachable through it (`client.commit_daemon()`).
    pub client: Arc<ProvenanceClient>,
}

impl Rig {
    /// Provisions a fresh environment for `which` under `context`.
    pub fn new(which: Which, context: RunContext, config: ProtocolConfig) -> Rig {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::calibrated(context));
        Self::over(sim, env, which, config, false)
    }

    /// Provisions with an explicit profile (tests use
    /// [`AwsProfile::instant`]).
    pub fn with_profile(which: Which, profile: AwsProfile, config: ProtocolConfig) -> Rig {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, profile);
        Self::over(sim, env, which, config, false)
    }

    /// Provisions with the non-blocking pipelined flush path (the
    /// pipelining ablation measures this against the blocking default).
    pub fn pipelined(which: Which, context: RunContext, config: ProtocolConfig) -> Rig {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::calibrated(context));
        Self::over(sim, env, which, config, true)
    }

    fn over(sim: Sim, env: CloudEnv, which: Which, config: ProtocolConfig, pipelined: bool) -> Rig {
        let mut builder = ProvenanceClient::builder(which)
            .config(config)
            .queue("wal-bench");
        if pipelined {
            builder = builder.pipelined();
        }
        let client = Arc::new(builder.build(&env));
        Rig { sim, env, client }
    }

    /// Mounts a PA-S3fs over this rig's session.
    pub fn fs(&self, io: LocalIoParams, seed: u64) -> PaS3fs {
        PaS3fs::attach(self.client.clone(), io, seed)
    }

    /// Drains the flush pipeline and P3's WAL (no-op for blocking
    /// non-P3 rigs). Call before reading final state or costs.
    pub fn drain_commits(&self) {
        self.client.drain().expect("session drain");
    }
}

/// Percentage overhead of `value` relative to `base`.
pub fn overhead_pct(base: f64, value: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (value - base) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_core::StorageProtocol;

    #[test]
    fn rig_builds_every_protocol() {
        for which in Which::ALL {
            let rig = Rig::with_profile(which, AwsProfile::instant(), ProtocolConfig::default());
            assert_eq!(rig.client.name(), which.name());
            assert_eq!(rig.client.commit_daemon().is_some(), which == Which::P3);
            rig.drain_commits();
        }
    }

    #[test]
    fn overhead_math() {
        assert_eq!(overhead_pct(100.0, 150.0), 50.0);
        assert_eq!(overhead_pct(0.0, 10.0), 0.0);
    }
}
