//! # skadi-frontends — the declarative tier of the access layer
//!
//! "The input consists of several domain-specific declarations like SQL
//! statements and ML training. Skadi [...] invokes domain-specific
//! parsers to translate declarations onto a common graph called
//! FlowGraph" (§2.1). SQL is the declaration this crate lowers, onto real
//! rows:
//!
//! - [`catalog`]: the tables a statement may name, with their schemas and
//!   sizes.
//! - [`sql`]: a SQL subset (SELECT/JOIN/WHERE/GROUP BY/ORDER BY/LIMIT)
//!   with a lexer, recursive-descent parser, and a planner producing a
//!   FlowGraph whose every vertex carries an executable descriptor.
//! - [`exec`]: the local execution engine, running parsed SQL against
//!   in-memory record batches (via `skadi-arrow`).
//! - [`shard`]: the shard kernels the distributed data plane runs for
//!   each physical vertex of the same plan.
//!
//! Other domains' declarations reach the runtime as FlowGraphs built by
//! their callers (`Session::run_graph`, `PipelineBuilder::stage`).

pub mod catalog;
pub mod exec;
pub mod shard;
pub mod sql;

pub use catalog::{Catalog, TableDef};
pub use sql::plan_sql;
