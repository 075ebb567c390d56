//! # skadi-dcsim — deterministic simulator of a disaggregated data center
//!
//! This crate is the hardware substrate for the Skadi reproduction. The
//! paper's prototype runs on BlueField DPUs, FPGAs, GPUs, and disaggregated
//! memory blades; none of that hardware is assumed here. Instead, the crate
//! provides a *discrete-event* model of such a cluster:
//!
//! - [`time`]: virtual time ([`SimTime`], [`SimDuration`]) in nanoseconds.
//!   No wall-clock time ever enters a simulation.
//! - [`engine`]: a deterministic event queue ([`EventQueue`]) with total
//!   ordering by `(time, sequence)`.
//! - [`topology`]: racks, server nodes, DPU-fronted accelerator devices,
//!   disaggregated memory blades, and durable storage ([`Topology`],
//!   [`TopologyBuilder`]).
//! - [`network`]: a latency + bandwidth + serialization-queueing model of
//!   the fabric connecting them ([`Network`]).
//! - [`rng`]: seeded random sources and workload samplers (Zipf,
//!   exponential) so every experiment is bit-reproducible.
//! - [`trace`]: labeled counters, histograms, and windowed gauges.
//! - [`span`]: causal span tracing over virtual time, with Chrome
//!   `trace_event` export and critical-path analysis.
//!
//! The simulator is single-threaded by design: determinism is a core
//! requirement of the reproduction (identical seeds must produce identical
//! traces across runs and machines).
//!
//! # Examples
//!
//! ```
//! use skadi_dcsim::prelude::*;
//!
//! // Build a two-rack cluster: servers plus one GPU device and one memory
//! // blade, then price a transfer across it.
//! let topo = TopologyBuilder::new()
//!     .rack(|r| {
//!         r.servers(2, ServerSpec::default());
//!         r.accel_device(AccelKind::Gpu, AccelSpec::default());
//!     })
//!     .rack(|r| {
//!         r.memory_blade(MemoryBladeSpec::default());
//!     })
//!     .durable_storage(DurableSpec::default())
//!     .build();
//!
//! let mut net = Network::new(&topo, LinkParams::default());
//! let servers = topo.nodes_of_kind(NodeClass::Server);
//! let t = net.transfer(SimTime::ZERO, servers[0], servers[1], 1 << 20);
//! assert!(t.arrival > SimTime::ZERO);
//! ```

pub mod engine;
pub mod network;
pub mod rng;
pub mod span;
pub mod time;
pub mod topology;
pub mod trace;

pub use engine::EventQueue;
pub use network::{LinkParams, Network, Transfer};
pub use span::{Category, Span, SpanId, Trace, Tracer};
pub use time::{SimDuration, SimTime};
pub use topology::{
    AccelKind, AccelSpec, DurableSpec, MemoryBladeSpec, NodeClass, NodeId, RackId, ServerSpec,
    Topology, TopologyBuilder,
};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::engine::EventQueue;
    pub use crate::network::{LinkParams, Network, Transfer};
    pub use crate::rng::DetRng;
    pub use crate::span::{Category, Span, SpanId, Trace, Tracer};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{
        AccelKind, AccelSpec, DurableSpec, MemoryBladeSpec, NodeClass, NodeId, RackId, ServerSpec,
        Topology, TopologyBuilder,
    };
    pub use crate::trace::Metrics;
}
