//! The one priced send: every byte and control message the cluster puts
//! on the fabric goes through [`Cluster::send`], which prices it, counts
//! it and records its span; every span the cluster records goes through
//! [`Cluster::trace`], the only place that asks whether tracing is on.
//!
//! Accounting rules (`tests/price_table.rs` pins every price they give):
//! - the network counts every message and byte by hop class itself;
//! - a durable trip is counted only where the caller says so
//!   ([`Tally::Durable`]): durable reads and writes, both backstops and
//!   spills to durable storage — an EC shard fetched from the durable
//!   backstop counts none;
//! - dispatch is routed per generation (endpoint overhead at both ends);
//!   completion notify, steal and the failover re-report are not;
//! - a dispatch record ([`Carry::Dispatch`]) is handled once an
//!   autoscaled device is warm.

use skadi_dcsim::span::{Category, SpanId};
use skadi_dcsim::time::SimTime;
use skadi_dcsim::topology::NodeId;

use super::table::Slot;
use super::Cluster;

/// What one move carries.
#[derive(Debug, Clone, Copy)]
pub(super) enum Carry {
    /// A control message.
    Control,
    /// A task's dispatch record to the raylet that will run it, routed
    /// per generation when `routed`.
    Dispatch { routed: bool },
    /// Bulk bytes.
    Bytes(u64),
}

/// What one move adds to the run's own counters, beyond the network's.
#[derive(Debug, Clone, Copy)]
pub(super) enum Tally {
    /// Nothing.
    Net,
    /// One durable trip, also counted under the metric when one is named.
    Durable(Option<&'static str>),
    /// The moved bytes, counted under the metric.
    Bytes(&'static str),
}

/// One span: built by a closure that runs only while tracing, so an
/// untraced run makes no label or attribute string.
pub(super) struct Rec {
    name: String,
    track: String,
    category: Category,
    parent: SpanId,
    attrs: Vec<(&'static str, String)>,
}

impl Rec {
    pub fn new(
        name: impl Into<String>,
        track: impl Into<String>,
        category: Category,
        parent: SpanId,
    ) -> Rec {
        Rec {
            name: name.into(),
            track: track.into(),
            category,
            parent,
            attrs: Vec::new(),
        }
    }

    pub fn attr(mut self, key: &'static str, value: impl ToString) -> Rec {
        self.attrs.push((key, value.to_string()));
        self
    }
}

/// The span argument of a move that records none.
pub(super) const UNTRACED: Option<fn(&Cluster) -> Rec> = None;

impl Cluster {
    /// Sends `carry` from `from` to `to` at `now`: prices it, adds `tally`,
    /// records `span` over `[now, arrival]` and returns the arrival.
    pub(super) fn send(
        &mut self,
        now: SimTime,
        (from, to): (NodeId, NodeId),
        carry: Carry,
        tally: Tally,
        span: Option<impl FnOnce(&Cluster) -> Rec>,
    ) -> SimTime {
        let arrival = match carry {
            Carry::Control | Carry::Dispatch { routed: false } => self.net.control(now, from, to),
            Carry::Dispatch { routed: true } => {
                self.cfg.generation.control(&mut self.net, now, from, to)
            }
            Carry::Bytes(bytes) => self.net.transfer(now, from, to, bytes).arrival,
        };
        let arrival = match (carry, self.nodes[to].device_available_at) {
            (Carry::Dispatch { .. }, Some(warm)) => arrival.max(warm),
            _ => arrival,
        };
        match (tally, carry) {
            (Tally::Durable(metric), _) => {
                self.durable_trips += 1;
                if let Some(m) = metric {
                    self.metrics.bump(m);
                }
            }
            (Tally::Bytes(metric), Carry::Bytes(bytes)) => self.metrics.add(metric, bytes),
            _ => {}
        }
        if let Some(span) = span {
            self.trace(now, arrival, span);
        }
        arrival
    }

    /// Records the span `rec` builds over `[start, end]` — only while
    /// tracing — and stretches its parent to cover it.
    pub(super) fn trace(
        &mut self,
        start: SimTime,
        end: SimTime,
        rec: impl FnOnce(&Cluster) -> Rec,
    ) -> SpanId {
        if !self.tracer.enabled() {
            return SpanId::NONE;
        }
        let r = rec(self);
        let attrs: Vec<(&str, &str)> = r.attrs.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let id = self.tracer.span(
            &r.name,
            &r.track,
            r.category,
            Some(r.parent),
            start,
            end,
            &attrs,
        );
        self.tracer.cover(r.parent, end);
        id
    }

    pub(super) fn node_label(&self, n: NodeId) -> String {
        format!("node{}", n.0)
    }

    pub(super) fn task_label(&self, t: Slot) -> String {
        format!("t{}", self.tasks[t].spec.id.0)
    }
}
