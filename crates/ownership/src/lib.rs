//! # skadi-ownership — future resolution
//!
//! Ray resolves futures through an *ownership* protocol: the worker that
//! creates a future owns its metadata, and consumers ask the owner where
//! the value lives. Skadi (§2.3.2, Figure 3) makes two changes:
//!
//! 1. **Heterogeneity-aware ownership table.** Each entry carries, besides
//!    the classic `[ID, Owner, Value, Locations]` columns, a `DeviceID`
//!    and a `DeviceHandle`, so objects resident in accelerator HBM or
//!    disaggregated memory can be referenced with regular opaque
//!    pointers. The runtime keeps no separate table for it: every column
//!    is a fact it already holds in one place — the owner is the current
//!    scheduler, the locations, size and holding device are the caching
//!    layer's (`skadi_store::placement::CachingLayer`). DESIGN.md maps
//!    each column.
//! 2. **Push-based future resolution.** Ray's pull model makes the
//!    consumer fetch data on demand, which "creates long stalls for
//!    short-lived ops"; Skadi adds a push model where the producer sends
//!    data to the consumer proactively. This crate implements both
//!    protocols ([`resolve`]), priced on the simulated network.

pub mod resolve;

pub use resolve::{resolve, ResolutionMode, ResolveOutcome, RoutePolicy};
