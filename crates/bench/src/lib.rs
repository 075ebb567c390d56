//! # skadi-bench — the experiment harness
//!
//! One module per experiment of DESIGN.md's per-experiment index; each
//! exposes `run() -> Table` so the `experiments` binary and the
//! integration tests drive the same code.
//!
//! The Skadi paper is a HotOS vision paper: its "evaluation" artifacts
//! are Figures 1-3 and Table 1, which encode *qualitative* claims. Each
//! experiment here regenerates one claim as a measured series on the
//! simulated cluster; EXPERIMENTS.md records claim-vs-measured for all
//! of them.

pub mod baseline;
pub mod exec_bench;
pub mod sched_bench;
pub mod sklz_ref;
pub mod table;

pub mod e01_fig1_deployments;
pub mod e02_fig2_access_layer;
pub mod e03_fig2_cache_tiers;
pub mod e04_fig3_pull_push;
pub mod e05_fig3_generations;
pub mod e06_table1_baselines;
pub mod e07_fault_tolerance;
pub mod e08_scheduling;
pub mod e09_shared_format;
pub mod e10_fusion;
pub mod e11_autoscale;
pub mod e12_gang;
pub mod e13_backends;
pub mod e14_pipeline_parallelism;
pub mod e15_eviction_policies;
pub mod e16_fabric_sensitivity;
pub mod e17_actor_serving;
pub mod e18_fanout_broadcast;
pub mod e19_consolidation;
pub mod e20_tightly_coupled;

pub use table::Table;

/// An experiment entry: its id plus the function regenerating its table.
pub type Experiment = (&'static str, fn() -> Table);

/// Every experiment, in order: `(id, title, runner)`.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("fig1", e01_fig1_deployments::run as fn() -> Table),
        ("fig2_access", e02_fig2_access_layer::run),
        ("fig2_cache", e03_fig2_cache_tiers::run),
        ("fig3_pullpush", e04_fig3_pull_push::run),
        ("fig3_gen", e05_fig3_generations::run),
        ("table1", e06_table1_baselines::run),
        ("e7_ft", e07_fault_tolerance::run),
        ("e8_sched", e08_scheduling::run),
        ("e9_format", e09_shared_format::run),
        ("e10_fusion", e10_fusion::run),
        ("e11_autoscale", e11_autoscale::run),
        ("e12_gang", e12_gang::run),
        ("e13_backends", e13_backends::run),
        ("e14_pipeline", e14_pipeline_parallelism::run),
        ("e15_eviction", e15_eviction_policies::run),
        ("e16_fabric", e16_fabric_sensitivity::run),
        ("e17_serving", e17_actor_serving::run),
        ("e18_fanout", e18_fanout_broadcast::run),
        ("e19_consolidation", e19_consolidation::run),
        ("e20_pod", e20_tightly_coupled::run),
    ]
}
