//! # skadi-runtime — the stateful serverless runtime
//!
//! This crate executes physical graphs with a distributed task model, as
//! §2.3 of the paper describes: per-node raylets plus a centralized
//! scheduler (control plane), futures resolved over the object store and
//! caching layer (data plane), lineage- or replication-based fault
//! tolerance, and the two hardware generations:
//!
//! - **Gen-1**: raylets offloaded to the DPU of each physically
//!   disaggregated device; all control traffic transits the DPU;
//!   pull-based future resolution.
//! - **Gen-2**: device-resident raylets, push-based resolution, and
//!   spilling to disaggregated memory.
//!
//! The same machinery also runs the *comparison* deployments of the
//! paper's Figure 1 and Table 1: serverful clusters (per-system silos,
//! cross-system data through durable storage) and stateless serverless
//! (every intermediate bounced through durable storage, cold starts),
//! so all measurements share one simulator.
//!
//! Modules:
//!
//! - [`task`]: task specs, IDs, lifecycle states.
//! - [`config`]: [`RuntimeConfig`] — generation, resolution protocol,
//!   placement policy, deployment model, fault-tolerance mode.
//! - [`placement`]: the five placement policies (data-centric,
//!   load-only, round-robin, power-of-k load-aware, work-stealing) and
//!   the [`Placer`] that applies one with its cursor.
//! - [`resolve`]: pull and push future resolution, priced on the fabric
//!   and routed per [`Generation`].
//! - [`scheduler`]: gang scheduling and the device autoscaler.
//! - [`cluster`]: the event-driven cluster simulation ([`Cluster`]):
//!   one dense task table and one node table (`cluster::table`), the
//!   run loop, and the event handlers split into dispatch, data,
//!   recovery (lineage re-execution), failover and invariants.
//! - [`executor`]: the [`TaskExecutor`] every task runs through —
//!   [`LengthOnly`] until a data plane is installed — and the
//!   [`Payload`] it returns.
//! - [`job`]: physical-graph-to-job conversion and [`JobStats`].
//! - [`failure`]: failure injection plans.
//! - [`chaos`]: seeded chaos-schedule fault harness (random jobs +
//!   random survivable failure schedules + invariant checks).

pub mod chaos;
pub mod cluster;
pub mod config;
pub mod error;
pub mod executor;
pub mod failure;
pub mod job;
pub mod placement;
pub mod resolve;
pub mod scheduler;
pub mod task;

pub use chaos::{run_chaos, run_chaos_with, ChaosVerdict};
pub use cluster::{Cluster, PerJobStats};
pub use config::{AutoscaleConfig, Deployment, FtMode, Generation, RuntimeConfig};
pub use error::RuntimeError;
pub use executor::{Content, EdgeSize, LengthOnly, Payload, ReadyTask, TaskExecutor};
pub use failure::{FailurePlan, Slowdown};
pub use job::{job_from_physical, Job, JobStats};
pub use placement::{NodeFacts, PlacementPolicy, Placer};
pub use resolve::ResolutionMode;
pub use task::{ActorId, TaskId, TaskSpec, TaskState};
