//! # skadi-flowgraph — the logical FlowGraph and physical sharded graph
//!
//! The middle tiers of the paper's access layer (§2.1, Figure 2):
//!
//! 1. Domain-specific declarations are parsed onto **FlowGraph**, "a
//!    classical data flow graph" whose edges dictate how data flow and
//!    whose vertices are built from hardware-agnostic IR ops
//!    ([`skadi_ir::Op`], [`logical`]).
//! 2. The logical graph is optimized with predefined rules, fusing
//!    per-row chains across domains ([`optimize`]).
//! 3. Lowering to the **physical sharded graph** (a) selects hardware
//!    backends for IR-based ops and (b) decides a degree of parallelism
//!    per vertex, creating sharded vertices along keyed edges with one hash
//!    rule ([`lower`], [`physical`], [`partition`]).
//!
//! Crucially — as the paper stresses — neither graph specifies *when* or
//! *who* executes the vertices; that is delegated to the stateful
//! serverless runtime (the `skadi-runtime` crate).
//!
//! # Examples
//!
//! ```
//! use skadi_flowgraph::prelude::*;
//! use skadi_ir::{BackendPolicy, Op};
//!
//! let mut g = FlowGraph::new();
//! let src = g.add_source("events", 1 << 20, 8 << 20);
//! let filt = g.add_ir_op(Op::Filter, 1 << 20, 4 << 20);
//! let agg = g.add_ir_op(Op::Aggregate, 1 << 20, 1 << 10);
//! g.connect(src, filt)?;
//! g.connect_keyed(filt, agg, "k")?;
//! g.validate()?;
//!
//! let phys = lower_graph(&g, &LowerConfig::new(4, BackendPolicy::cost_based()))?;
//! assert_eq!(phys.shards_of(agg).len(), 4);
//! assert_eq!(phys.vertex(phys.shards_of(agg)[0]).op, "rel.aggregate");
//! # Ok::<(), GraphError>(())
//! ```

pub mod error;
pub mod exec;
pub mod logical;
pub mod lower;
pub mod optimize;
pub mod partition;
pub mod physical;
pub mod profile;

pub use error::GraphError;
pub use exec::{AggFunc, AggItem, CmpOp, Comparison, ExecOp, Literal, OrderBy};
pub use logical::{EdgeKind, FlowGraph, Vertex, VertexBody, VertexId};
pub use lower::{lower_graph, LowerConfig};
pub use optimize::{optimize_graph, OptimizeReport};
pub use physical::{PEdgeKind, PVertexId, PhysicalGraph, PhysicalVertex};
pub use profile::{OpProfile, QueryProfile, ShardStats};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::error::GraphError;
    pub use crate::logical::{EdgeKind, FlowGraph, VertexBody, VertexId};
    pub use crate::lower::{lower_graph, LowerConfig};
    pub use crate::optimize::optimize_graph;
    pub use crate::physical::{PEdgeKind, PVertexId, PhysicalGraph};
}
