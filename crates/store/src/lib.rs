//! # skadi-store — distributed object store and tiered caching layer
//!
//! The Skadi paper's data plane is "a fast caching layer with a standard
//! format" (§1): a KV API spanning memory on regular servers, memory on
//! heterogeneous devices (HBM), and disaggregated memory, responsible for
//! "managing data locations, replication, tiering policies etc. Users of
//! it only see KV APIs" (Figure 2, note 5). This crate implements that
//! layer:
//!
//! - [`object`]: object identifiers and metadata ([`ObjectId`],
//!   [`ObjectMeta`]).
//! - [`tier`]: the memory tiers ([`Tier`]) and their relative costs.
//! - [`policy`]: eviction policies (LRU, LFU, size-aware greedy).
//! - [`kv`]: the per-node object store ([`LocalStore`]) with capacity
//!   accounting and eviction.
//! - [`placement`]: the cluster-wide [`CachingLayer`] that hides data
//!   location behind `put`/`get`, choosing tiers and handling spill.
//! - [`replication`]: N-way replica placement and failure masking.
//! - [`ec`]: Reed-Solomon erasure coding over GF(256) — the paper's
//!   alternative to replication for a reliable caching layer.
//! - [`spill`]: spill/fill decisions between HBM, host DRAM, and
//!   disaggregated memory under pressure.
//!
//! Everything here is simulation-facing: objects carry sizes and payloads
//! are optional (experiments mostly track bytes, examples store real
//! `bytes::Bytes`-like vectors).

pub mod ec;
pub mod error;
pub mod kv;
pub mod object;
pub mod placement;
pub mod policy;
pub mod replication;
pub mod spill;
pub mod tier;

pub use error::StoreError;
pub use kv::LocalStore;
pub use object::{ObjectId, ObjectMeta};
pub use placement::CachingLayer;
pub use policy::EvictionPolicy;
pub use tier::Tier;
