//! # skadi-ir — the hardware-agnostic ops, and what they cost per backend
//!
//! The paper's access layer builds FlowGraph vertices from "IR-based
//! primitives, in addition to predefined operators" (§1), and relies on
//! the IR for two things (§2.2): ops from different domains can fuse, and
//! "a single piece of code [can be lowered] to multiple hardware backends,
//! based on a set of predefined policies".
//!
//! This crate holds exactly the ops something in the tree emits, and the
//! table lowering prices them with:
//!
//! - [`op`]: the [`Op`] vocabulary — relational ops the SQL planner and the
//!   local engine name, tensor ops the ML frontend emits — with each op's
//!   text name and its role in a fused chain; and what a filter compares
//!   with ([`CmpOp`]) and an aggregate computes ([`AggFunc`]), typed from
//!   the SQL lexer and parser down to the kernels.
//! - [`backend`]: CPU/GPU/FPGA descriptors, the per-op support and cost
//!   table, and the [`BackendPolicy`] that picks the cheapest allowed
//!   backend for an op or a fused chain.
//!
//! Fusion itself is a graph rewrite (`skadi_flowgraph::optimize`); this
//! crate only says which ops may take part and what the fused chain costs.
//!
//! # Examples
//!
//! ```
//! use skadi_ir::{Backend, BackendPolicy, Op};
//!
//! // A filter feeding a map, fused: one launch, one streaming pass.
//! let chain = [Op::Filter, Op::Map];
//! assert!(chain.iter().all(|op| op.per_row()));
//! let picked = BackendPolicy::cost_based().select(&chain, 1 << 20);
//! assert_eq!(picked.map(|(b, _)| b), Some(Backend::Gpu));
//! // A matmul never lowers to the FPGA.
//! assert!(!Op::MatMul.supports(Backend::Fpga));
//! ```

pub mod backend;
pub mod op;

pub use backend::{Backend, BackendPolicy, CostEstimate};
pub use op::{AggFunc, CmpOp, Op};
