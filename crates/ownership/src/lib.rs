//! # skadi-ownership — ownership table and future resolution
//!
//! Ray resolves futures through an *ownership* protocol: the worker that
//! creates a future owns its metadata, and consumers ask the owner where
//! the value lives. Skadi (§2.3.2, Figure 3) makes two changes that this
//! crate implements:
//!
//! 1. **Heterogeneity-aware ownership table.** Each entry carries, besides
//!    the classic `[ID, Owner, Value, Locations]` columns, a `DeviceID`
//!    and a `DeviceHandle` for the device communication driver, so
//!    objects resident in accelerator HBM or disaggregated memory can be
//!    referenced with regular opaque pointers ([`table`]).
//! 2. **Push-based future resolution.** Ray's pull model makes the
//!    consumer fetch data on demand, which "creates long stalls for
//!    short-lived ops"; Skadi adds a push model where the producer sends
//!    data to the consumer proactively ([`resolve`]).
//!
//! [`refcount`] implements the distributed reference counting that decides
//! when an object can be freed.

pub mod refcount;
pub mod resolve;
pub mod table;

pub use refcount::RefLedger;
pub use resolve::{resolve, ResolutionMode, ResolveOutcome, RoutePolicy};
pub use table::{DeviceHandle, DeviceSlot, OwnershipError, OwnershipTable, ValueState};
