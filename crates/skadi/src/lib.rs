//! # Skadi — a distributed runtime for data systems in disaggregated data centers
//!
//! A from-scratch Rust reproduction of *"Skadi: Building a Distributed
//! Runtime for Data Systems in Disaggregated Data Centers"* (Hu et al.,
//! HotOS '23). Skadi is the "narrow waist" between data systems and
//! data-center hardware: a **tiered access layer** (declarative frontends
//! -> logical FlowGraph -> physical sharded graph) on top of a **stateful
//! serverless runtime** (tasks, futures, raylets, a tiered caching layer)
//! that transparently evolves with disaggregated hardware.
//!
//! The hardware itself — DPUs, GPUs, FPGAs, disaggregated memory — is a
//! deterministic discrete-event simulation ([`skadi_dcsim`]), so every
//! experiment in the paper's design space runs reproducibly on a laptop.
//!
//! ## Quickstart
//!
//! ```
//! use skadi::prelude::*;
//!
//! // A cluster with servers, GPU/FPGA devices, disaggregated memory, and
//! // durable storage — all simulated.
//! let session = Session::builder()
//!     .topology(presets::small_disagg_cluster())
//!     .catalog(Catalog::demo())
//!     .build();
//!
//! // Declarative in, measured execution out.
//! let report = session
//!     .sql("SELECT kind, sum(value) FROM events WHERE value > 0.5 GROUP BY kind")
//!     .unwrap();
//! assert!(report.stats.finished > 0);
//! println!("{report}");
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`skadi_dcsim`] | discrete-event simulator of the disaggregated DC |
//! | [`skadi_arrow`] | columnar shared format, kernels, IPC and block compression |
//! | [`skadi_store`] | object store, tiered caching layer, replication, EC |
//! | [`skadi_ir`] | op vocabulary, per-backend cost table, backend selection |
//! | [`skadi_flowgraph`] | logical FlowGraph (incl. cross-domain fusion) + physical sharded graph |
//! | [`skadi_frontends`] | the SQL frontend: catalog, lexer/parser/planner, local engine, shard kernels |
//! | [`skadi_runtime`] | stateful serverless runtime (raylets, schedulers, lineage, pull/push future resolution) |
//! | `skadi` (this crate) | the session API gluing the tiers together |

pub mod adaptive;
pub mod distributed;
pub mod pipeline;
pub mod report;
pub mod server;
pub mod session;

pub use adaptive::{AdaptivePlan, Replan};
pub use distributed::{DataPlaneStats, GraphExecutor, ShardTiming};
pub use pipeline::PipelineBuilder;
pub use report::JobReport;
pub use server::{Server, ServerConfig, SessionEnd};
pub use session::{DistributedRun, Session, SessionBuilder, SkadiError};

// Re-export the component crates under stable names.
pub use skadi_arrow as arrow;
pub use skadi_dcsim as dcsim;
pub use skadi_flowgraph as flowgraph;
pub use skadi_frontends as frontends;
pub use skadi_ir as ir;
pub use skadi_runtime as runtime;
pub use skadi_store as store;
pub use skadi_wire as wire;

/// Everything a typical user needs.
pub mod prelude {
    pub use crate::pipeline::PipelineBuilder;
    pub use crate::report::JobReport;
    pub use crate::session::{Session, SessionBuilder, SkadiError};
    pub use skadi_dcsim::topology::presets;
    pub use skadi_dcsim::topology::{AccelKind, Topology, TopologyBuilder};
    pub use skadi_frontends::catalog::Catalog;
    pub use skadi_ir::{Backend, BackendPolicy};
    pub use skadi_runtime::{
        Deployment, FailurePlan, FtMode, Generation, JobStats, PlacementPolicy, RuntimeConfig,
    };
}
