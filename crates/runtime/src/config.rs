//! Runtime configuration: the axes every experiment sweeps.
//!
//! One [`RuntimeConfig`] value selects a point in the paper's design
//! space: which hardware generation (Gen-1/Gen-2), which future
//! resolution protocol (pull/push), which scheduler, which deployment
//! model (Figure 1a/1b/1c), and which fault-tolerance mechanism (§2.1).
//! Because all deployments run on the same simulator, comparisons are
//! apples-to-apples.

use skadi_dcsim::time::SimDuration;
use skadi_ownership::resolve::{ResolutionMode, RoutePolicy};
use skadi_store::ec::EcConfig;

use crate::placement::PlacementPolicy;

/// The hardware generation of the stateful serverless runtime (§2.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// Raylet on the DPU; CPU-centric control; pull resolution default.
    Gen1,
    /// Device-resident raylets; push resolution; disagg-memory spill.
    Gen2,
}

impl Generation {
    /// The message routing this generation implies.
    pub fn route_policy(self) -> RoutePolicy {
        match self {
            Generation::Gen1 => RoutePolicy::GEN1,
            Generation::Gen2 => RoutePolicy::GEN2,
        }
    }

    /// The default resolution protocol of this generation.
    pub fn default_resolution(self) -> ResolutionMode {
        match self {
            Generation::Gen1 => ResolutionMode::Pull,
            Generation::Gen2 => ResolutionMode::Push,
        }
    }
}

/// The deployment model being simulated (the three panels of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// Figure 1a: per-system reserved clusters. Intra-system data moves
    /// in memory, but data crossing *system boundaries* bounces through
    /// durable cloud storage, and cost is reservation-based (nodes x
    /// wall-clock).
    Serverful,
    /// Figure 1b: stateless functions. *Every* intermediate object is
    /// written to and read from durable storage; each task pays a cold
    /// start; cost is pay-per-use.
    StatelessServerless,
    /// Figure 1c: Skadi. The stateful serverless runtime with the tiered
    /// caching layer; pay-per-use cost.
    DistributedRuntime,
}

impl std::fmt::Display for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Deployment::Serverful => "serverful",
            Deployment::StatelessServerless => "stateless-serverless",
            Deployment::DistributedRuntime => "distributed-runtime",
        };
        f.write_str(s)
    }
}

/// Fault-tolerance mechanism (§2.1: lineage, replication, or EC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtMode {
    /// No protection: lost objects make dependent results fail.
    None,
    /// Re-execute lost tasks from the lineage log.
    Lineage,
    /// Keep `n` total copies of every output in the caching layer.
    Replication(u32),
    /// Erasure-code outputs across nodes.
    ErasureCoding(EcConfig),
}

/// Device autoscaler settings (E11): the pool of warm accelerator
/// devices grows and shrinks with the queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Devices kept warm at minimum.
    pub min_devices: u32,
    /// Hard cap (the topology bounds this too).
    pub max_devices: u32,
    /// Queue-depth-per-device above which the pool grows.
    pub scale_up_queue: f64,
    /// How often the autoscaler re-evaluates.
    pub interval: SimDuration,
    /// Delay for a newly provisioned device to become usable.
    pub provision_delay: SimDuration,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_devices: 1,
            max_devices: 64,
            scale_up_queue: 2.0,
            interval: SimDuration::from_millis(10),
            provision_delay: SimDuration::from_millis(50),
        }
    }
}

/// Full runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Hardware generation.
    pub generation: Generation,
    /// Future resolution protocol (defaults to the generation's).
    pub resolution: ResolutionMode,
    /// Task placement policy.
    pub placement: PlacementPolicy,
    /// Deployment model.
    pub deployment: Deployment,
    /// Fault-tolerance mechanism.
    pub ft: FtMode,
    /// Enable gang scheduling for gang-labeled tasks.
    pub gang_scheduling: bool,
    /// Autoscale accelerator devices instead of assuming all warm.
    pub autoscale: Option<AutoscaleConfig>,
    /// Cold-start penalty per function in serverless deployments.
    pub cold_start: SimDuration,
    /// When a task's backend has no eligible device, run it on a CPU
    /// server with this slowdown factor (models "no physical
    /// disaggregation / no DSA access"; `None` makes such tasks an
    /// error).
    pub cpu_fallback_slowdown: Option<f64>,
    /// Outputs at most this many bytes are passed *by value*: the bytes
    /// ride inline in the already-priced control messages (producer ->
    /// owner at finish, scheduler -> raylet at dispatch), so consumers
    /// skip future resolution entirely — §2.1: "functions exchange data
    /// either by value or by reference". 0 disables inlining (every
    /// experiment default, so the by-reference protocols are what the
    /// figures measure).
    pub pass_by_value_max: u64,
    /// Cache a copy of every remotely-fetched input at the consumer
    /// (plasma semantics). Later consumers then read the nearest copy —
    /// fan-outs degrade into distribution chains instead of hammering the
    /// producer's NIC (the effect Hoplite-style collectives formalize).
    pub cache_fetched_copies: bool,
    /// Retry budget per task under lineage recovery.
    pub max_attempts: u32,
    /// How long after the scheduler's node dies a surviving server wins
    /// the (simulated, deterministic) election and becomes the new
    /// scheduler. State reconstruction — querying every surviving raylet
    /// — is priced on the network on top of this.
    pub election_delay: SimDuration,
    /// Rack-aware election winner choice: the failover prefers a
    /// candidate in the least-impacted rack (fewest failed nodes) over
    /// the plain lowest-ID surviving server; ties break by node ID so
    /// the election stays deterministic.
    pub rack_aware_election: bool,
    /// RNG seed for any stochastic tie-breaks.
    pub seed: u64,
    /// Record causal spans for every control message and data transfer.
    /// Off by default: tracing allocates per-event, and most experiments
    /// only need the aggregate metrics.
    pub tracing: bool,
    /// Run the cluster's internal invariant checker after every event
    /// (slot accounting, ownership/cache agreement, no tasks resident on
    /// failed nodes, ...). Off by default: it is O(cluster) per event and
    /// meant for the chaos harness and debugging, not experiments.
    pub debug_invariants: bool,
}

impl RuntimeConfig {
    /// The Skadi Gen-1 configuration.
    pub fn skadi_gen1() -> Self {
        RuntimeConfig {
            generation: Generation::Gen1,
            resolution: Generation::Gen1.default_resolution(),
            placement: PlacementPolicy::DataCentric,
            deployment: Deployment::DistributedRuntime,
            ft: FtMode::Lineage,
            gang_scheduling: false,
            autoscale: None,
            cold_start: SimDuration::from_millis(2),
            cpu_fallback_slowdown: Some(8.0),
            pass_by_value_max: 0,
            cache_fetched_copies: true,
            max_attempts: 5,
            election_delay: SimDuration::from_micros(500),
            rack_aware_election: false,
            seed: 42,
            tracing: false,
            debug_invariants: false,
        }
    }

    /// The Skadi Gen-2 configuration.
    pub fn skadi_gen2() -> Self {
        RuntimeConfig {
            generation: Generation::Gen2,
            resolution: Generation::Gen2.default_resolution(),
            ..RuntimeConfig::skadi_gen1()
        }
    }

    /// A Ray-like baseline: CPU-centric, pull-based, locality-aware but
    /// no physically-disaggregated devices (GPU/FPGA tasks fall back to
    /// CPU workers that *orchestrate* accelerators remotely, modeled as a
    /// slowdown).
    pub fn ray_like() -> Self {
        RuntimeConfig {
            generation: Generation::Gen1,
            resolution: ResolutionMode::Pull,
            placement: PlacementPolicy::DataCentric,
            deployment: Deployment::DistributedRuntime,
            ..RuntimeConfig::skadi_gen1()
        }
    }

    /// A Dryad-like stateless baseline.
    pub fn dryad_like() -> Self {
        RuntimeConfig {
            deployment: Deployment::StatelessServerless,
            resolution: ResolutionMode::Pull,
            ..RuntimeConfig::skadi_gen1()
        }
    }

    /// A Cloudburst-like stateful serverless baseline: caching layer but
    /// CPU-only and logically-disaggregated.
    pub fn cloudburst_like() -> Self {
        RuntimeConfig {
            generation: Generation::Gen1,
            resolution: ResolutionMode::Pull,
            placement: PlacementPolicy::LoadOnly,
            deployment: Deployment::DistributedRuntime,
            ..RuntimeConfig::skadi_gen1()
        }
    }

    /// Serverful (Figure 1a) baseline.
    pub fn serverful() -> Self {
        RuntimeConfig {
            deployment: Deployment::Serverful,
            ..RuntimeConfig::skadi_gen1()
        }
    }

    /// Stateless serverless (Figure 1b) baseline.
    pub fn stateless_serverless() -> Self {
        RuntimeConfig {
            deployment: Deployment::StatelessServerless,
            ..RuntimeConfig::skadi_gen1()
        }
    }

    /// Overrides the resolution protocol.
    pub fn with_resolution(mut self, r: ResolutionMode) -> Self {
        self.resolution = r;
        self
    }

    /// Overrides the placement policy.
    pub fn with_placement(mut self, p: PlacementPolicy) -> Self {
        self.placement = p;
        self
    }

    /// Overrides the fault-tolerance mode.
    pub fn with_ft(mut self, ft: FtMode) -> Self {
        self.ft = ft;
        self
    }

    /// Enables gang scheduling.
    pub fn with_gang(mut self, on: bool) -> Self {
        self.gang_scheduling = on;
        self
    }

    /// Enables autoscaling.
    pub fn with_autoscale(mut self, cfg: AutoscaleConfig) -> Self {
        self.autoscale = Some(cfg);
        self
    }

    /// Enables causal span tracing.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Overrides the control-plane failover election delay.
    pub fn with_election_delay(mut self, d: SimDuration) -> Self {
        self.election_delay = d;
        self
    }

    /// Enables rack-aware election winner choice.
    pub fn with_rack_aware_election(mut self, on: bool) -> Self {
        self.rack_aware_election = on;
        self
    }

    /// Enables per-event invariant checking (chaos/debug builds).
    pub fn with_debug_invariants(mut self, on: bool) -> Self {
        self.debug_invariants = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_pick_their_protocols() {
        assert_eq!(Generation::Gen1.default_resolution(), ResolutionMode::Pull);
        assert_eq!(Generation::Gen2.default_resolution(), ResolutionMode::Push);
        assert!(Generation::Gen1.route_policy().dpu_detour);
        assert!(!Generation::Gen2.route_policy().dpu_detour);
    }

    #[test]
    fn presets_differ_on_the_right_axes() {
        let g1 = RuntimeConfig::skadi_gen1();
        let g2 = RuntimeConfig::skadi_gen2();
        assert_ne!(g1.generation, g2.generation);
        assert_ne!(g1.resolution, g2.resolution);
        assert_eq!(g1.deployment, g2.deployment);

        let sf = RuntimeConfig::serverful();
        assert_eq!(sf.deployment, Deployment::Serverful);
        let sl = RuntimeConfig::stateless_serverless();
        assert_eq!(sl.deployment, Deployment::StatelessServerless);
    }

    #[test]
    fn builder_overrides() {
        let c = RuntimeConfig::skadi_gen2()
            .with_resolution(ResolutionMode::Pull)
            .with_ft(FtMode::Replication(2))
            .with_gang(true);
        assert_eq!(c.resolution, ResolutionMode::Pull);
        assert_eq!(c.ft, FtMode::Replication(2));
        assert!(c.gang_scheduling);
    }
}
