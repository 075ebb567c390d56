//! # skadi-arrow — columnar shared data format
//!
//! The Skadi paper argues (§1, data-plane benefit 2) that a *shared
//! columnar format* — Apache Arrow in the paper — lets functions running
//! on heterogeneous devices exchange data without costly marshalling,
//! reducing the cost paid per transfer. This crate is a small from-scratch
//! Arrow-alike that makes that claim measurable:
//!
//! - [`datatype`]/[`schema`]: logical types and record schemas.
//! - [`buffer`]: immutable, cheaply-sliceable byte buffers (backed by
//!   [`bytes::Bytes`]) and packed validity bitmaps.
//! - [`array`](mod@array): typed columnar arrays (`Int64`, `Float64`, `Bool`, `Utf8`,
//!   and dictionary-encoded `DictUtf8`) with builders.
//! - [`batch`]: [`RecordBatch`] — a schema plus equal-length columns.
//! - [`ipc`]: a framed wire format whose decode path *shares* the input
//!   buffer (no per-value work), standing in for Arrow IPC.
//! - [`compression`]: an LZ4-style block codec the shuffle and wire
//!   paths use to shrink IPC frames (and therefore measured bytes).
//! - [`compute`]: basic kernels (filter/take/aggregate/compare/hash) used
//!   by the simulated operators.
//!
//! The "costly data marshalling" baseline experiment E9 compares the IPC
//! format against — row at a time, per-value tags, string copies — lives
//! with the experiments in the bench crate: one format ships.
//!
//! # Examples
//!
//! ```
//! use skadi_arrow::prelude::*;
//!
//! let schema = Schema::new(vec![
//!     Field::new("id", DataType::Int64, false),
//!     Field::new("name", DataType::Utf8, true),
//! ]);
//! let batch = RecordBatch::try_new(
//!     schema,
//!     vec![
//!         Array::from_i64(vec![1, 2, 3]),
//!         Array::from_opt_utf8(vec![Some("a"), None, Some("c")]),
//!     ],
//! )
//! .unwrap();
//!
//! // IPC round-trip shares the encoded buffer.
//! let bytes = skadi_arrow::ipc::encode(&batch);
//! let back = skadi_arrow::ipc::decode(bytes).unwrap();
//! assert_eq!(batch, back);
//! ```

pub mod array;
pub mod batch;
pub mod buffer;
pub mod compression;
pub mod compute;
pub mod datatype;
pub mod error;
pub mod ipc;
pub mod schema;

pub use array::Array;
pub use batch::RecordBatch;
pub use buffer::{Bitmap, Buffer};
pub use datatype::DataType;
pub use error::ArrowError;
pub use schema::{Field, Schema};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::array::Array;
    pub use crate::batch::RecordBatch;
    pub use crate::datatype::DataType;
    pub use crate::error::ArrowError;
    pub use crate::schema::{Field, Schema};
}
