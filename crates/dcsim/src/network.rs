//! Fabric model: latency, bandwidth, and NIC serialization queueing.
//!
//! The Skadi paper's performance arguments are about *message paths*: how
//! many hops a control message or data transfer takes (through a ToR
//! switch, across the spine, through a DPU, to durable storage), and what
//! each hop costs. This module prices those paths.
//!
//! The model is deliberately simple but captures the three effects the
//! experiments depend on:
//!
//! 1. **Latency per hop class** — loopback < intra-rack < cross-rack <<
//!    durable storage.
//! 2. **Bandwidth + serialization queueing** — a node's NIC is a serial
//!    resource: concurrent large transfers from the same source queue
//!    behind each other ([`Network::transfer`] tracks per-node egress and
//!    ingress availability).
//! 3. **DPU processing** — messages that transit a DPU pay its per-message
//!    processing delay (exposed as [`Network::dpu_delay`]; *whether* a
//!    message transits the DPU is a runtime routing decision — that is
//!    exactly the Gen-1 vs Gen-2 difference).

use std::fmt;

use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeClass, NodeId, NodeKind, Topology};

/// Tunable fabric parameters.
///
/// Defaults use public ballpark numbers for a modern data center hosting
/// disaggregated accelerators: ~5 us one-way intra-rack, ~15 us
/// cross-rack, 200 Gb/s-class effective NIC bandwidth (the paper's
/// premise is exactly that DSA pods ride high-speed fabrics, citing
/// Aquila-class networks), and S3-class durable storage from
/// [`crate::topology::DurableSpec`].
#[derive(Debug, Clone)]
pub struct LinkParams {
    /// One-way latency between two nodes in the same rack.
    pub intra_rack_latency: SimDuration,
    /// One-way latency between two nodes in different racks.
    pub cross_rack_latency: SimDuration,
    /// Effective NIC bandwidth in bytes/second (serialization rate).
    pub nic_bandwidth_bps: u64,
    /// Latency of a same-node (shared-memory) handoff.
    pub loopback_latency: SimDuration,
    /// Same-node memory copy bandwidth in bytes/second.
    pub memcpy_bandwidth_bps: u64,
    /// Size in bytes charged for one control message.
    pub control_msg_bytes: u64,
    /// Per-rack overrides for *intra-rack* latency and bandwidth —
    /// tightly-coupled pods (NVLink/ICI-class interconnects) live here.
    /// Entries are `(rack, latency, bandwidth_bps)`.
    pub rack_overrides: Vec<(u16, SimDuration, u64)>,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            intra_rack_latency: SimDuration::from_micros(5),
            cross_rack_latency: SimDuration::from_micros(15),
            nic_bandwidth_bps: 25 << 30, // ~200 Gb/s effective
            loopback_latency: SimDuration::from_nanos(200),
            memcpy_bandwidth_bps: 80 << 30,
            control_msg_bytes: 256,
            rack_overrides: Vec::new(),
        }
    }
}

impl LinkParams {
    /// Marks a rack as a tightly-coupled pod with the given internal
    /// latency and bandwidth (e.g. ~1 us / 100 GB/s for an NVLink-class
    /// fabric).
    pub fn with_pod(mut self, rack: u16, latency: SimDuration, bandwidth_bps: u64) -> Self {
        self.rack_overrides.push((rack, latency, bandwidth_bps));
        self
    }

    fn pod(&self, rack: u16) -> Option<(SimDuration, u64)> {
        self.rack_overrides
            .iter()
            .find(|(r, _, _)| *r == rack)
            .map(|(_, l, b)| (*l, *b))
    }
}

/// The outcome of pricing one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the payload finishes arriving at the destination.
    pub arrival: SimTime,
    /// Time spent waiting for the source NIC to become free.
    pub queued: SimDuration,
    /// Pure serialization time (bytes / bandwidth).
    pub serialization: SimDuration,
    /// Propagation latency of the chosen path.
    pub latency: SimDuration,
}

impl Transfer {
    /// Total elapsed time from request to arrival.
    pub fn total(&self) -> SimDuration {
        self.queued + self.serialization + self.latency
    }
}

/// Classification of a priced path, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopClass {
    /// Same node: shared memory.
    Loopback,
    /// Same rack: one ToR hop.
    IntraRack,
    /// Different racks: through the spine.
    CrossRack,
    /// To or from durable cloud storage.
    Durable,
}

impl fmt::Display for HopClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HopClass::Loopback => "loopback",
            HopClass::IntraRack => "intra-rack",
            HopClass::CrossRack => "cross-rack",
            HopClass::Durable => "durable",
        };
        f.write_str(s)
    }
}

/// Byte and message counters per hop class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Bytes moved over loopback.
    pub loopback_bytes: u64,
    /// Bytes moved within racks.
    pub intra_rack_bytes: u64,
    /// Bytes moved across racks.
    pub cross_rack_bytes: u64,
    /// Bytes moved to/from durable storage.
    pub durable_bytes: u64,
    /// Control messages sent.
    pub control_msgs: u64,
    /// Data transfers performed.
    pub data_transfers: u64,
}

impl NetStats {
    /// Total bytes that crossed any network link (excludes loopback).
    pub fn network_bytes(&self) -> u64 {
        self.intra_rack_bytes + self.cross_rack_bytes + self.durable_bytes
    }
}

/// The priced fabric. Holds per-node NIC availability, so it must be
/// threaded mutably through the simulation.
#[derive(Debug, Clone)]
pub struct Network {
    params: LinkParams,
    /// Per-node earliest time the egress NIC is free.
    egress_free: Vec<SimTime>,
    /// Per-node earliest time the ingress NIC is free.
    ingress_free: Vec<SimTime>,
    /// Cached per-node info to avoid topology lookups on the hot path.
    rack: Vec<u16>,
    class: Vec<NodeClass>,
    durable_latency: Vec<Option<SimDuration>>,
    durable_bw: Vec<Option<u64>>,
    dpu_delay: Vec<Option<SimDuration>>,
    internal_hop: Vec<Option<SimDuration>>,
    stats: NetStats,
}

impl Network {
    /// Builds the fabric for `topo` with the given parameters.
    pub fn new(topo: &Topology, params: LinkParams) -> Self {
        let n = topo.len();
        let mut rack = Vec::with_capacity(n);
        let mut class = Vec::with_capacity(n);
        let mut durable_latency = Vec::with_capacity(n);
        let mut durable_bw = Vec::with_capacity(n);
        let mut dpu_delay = Vec::with_capacity(n);
        let mut internal_hop = Vec::with_capacity(n);
        for node in topo.nodes() {
            rack.push(node.rack.0);
            class.push(node.kind.class());
            match node.kind {
                NodeKind::DurableStorage(spec) => {
                    durable_latency.push(Some(spec.latency));
                    durable_bw.push(Some(spec.bandwidth_bps));
                }
                _ => {
                    durable_latency.push(None);
                    durable_bw.push(None);
                }
            }
            match node.kind.dpu() {
                Some(d) => {
                    dpu_delay.push(Some(d.proc_delay));
                    internal_hop.push(Some(d.internal_hop));
                }
                None => {
                    dpu_delay.push(None);
                    internal_hop.push(None);
                }
            }
        }
        Network {
            params,
            egress_free: vec![SimTime::ZERO; n],
            ingress_free: vec![SimTime::ZERO; n],
            rack,
            class,
            durable_latency,
            durable_bw,
            dpu_delay,
            internal_hop,
            stats: NetStats::default(),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Classifies the path between two nodes.
    pub fn hop_class(&self, src: NodeId, dst: NodeId) -> HopClass {
        if src == dst {
            HopClass::Loopback
        } else if self.class[src.index()] == NodeClass::DurableStorage
            || self.class[dst.index()] == NodeClass::DurableStorage
        {
            HopClass::Durable
        } else if self.rack[src.index()] == self.rack[dst.index()] {
            HopClass::IntraRack
        } else {
            HopClass::CrossRack
        }
    }

    /// One-way propagation latency between two nodes (no bandwidth term).
    pub fn path_latency(&self, src: NodeId, dst: NodeId) -> SimDuration {
        match self.hop_class(src, dst) {
            HopClass::Loopback => self.params.loopback_latency,
            HopClass::IntraRack => match self.params.pod(self.rack[src.index()]) {
                Some((latency, _)) => latency,
                None => self.params.intra_rack_latency,
            },
            HopClass::CrossRack => self.params.cross_rack_latency,
            HopClass::Durable => {
                let dl = self
                    .durable_latency(src)
                    .or_else(|| self.durable_latency(dst))
                    .unwrap_or(SimDuration::ZERO);
                self.params.cross_rack_latency + dl
            }
        }
    }

    fn durable_latency(&self, id: NodeId) -> Option<SimDuration> {
        self.durable_latency[id.index()]
    }

    /// Bytes per second a transfer from `src` to `dst` serializes at.
    pub fn bandwidth(&self, src: NodeId, dst: NodeId) -> u64 {
        match self.hop_class(src, dst) {
            HopClass::Loopback => self.params.memcpy_bandwidth_bps,
            HopClass::IntraRack => match self.params.pod(self.rack[src.index()]) {
                Some((_, bw)) => bw,
                None => self.params.nic_bandwidth_bps,
            },
            HopClass::Durable => {
                let bw = self.durable_bw[src.index()]
                    .or(self.durable_bw[dst.index()])
                    .unwrap_or(self.params.nic_bandwidth_bps);
                bw.min(self.params.nic_bandwidth_bps)
            }
            _ => self.params.nic_bandwidth_bps,
        }
    }

    /// The per-message DPU processing delay of a node, or zero if the node
    /// has no DPU. Callers add this for every message their routing policy
    /// sends *through* the DPU (the Gen-1 control path).
    pub fn dpu_delay(&self, id: NodeId) -> SimDuration {
        self.dpu_delay[id.index()].unwrap_or(SimDuration::ZERO)
    }

    /// One-way latency of the internal DPU <-> resource hop of a device, or
    /// zero for nodes without one.
    pub fn internal_hop(&self, id: NodeId) -> SimDuration {
        self.internal_hop[id.index()].unwrap_or(SimDuration::ZERO)
    }

    /// Prices a bulk data transfer of `bytes` from `src` to `dst` starting
    /// no earlier than `now`, consuming NIC serialization capacity on both
    /// ends.
    pub fn transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> Transfer {
        let class = self.hop_class(src, dst);
        let latency = self.path_latency(src, dst);
        let bw = self.bandwidth(src, dst);
        let serialization = SimDuration::from_secs_f64(bytes as f64 / bw as f64);

        let (queued, arrival) = if class == HopClass::Loopback {
            // Shared memory: no NIC involved.
            (SimDuration::ZERO, now + latency + serialization)
        } else {
            let ready = self.egress_free[src.index()]
                .max(self.ingress_free[dst.index()])
                .max(now);
            let queued = ready.since(now);
            let done_serializing = ready + serialization;
            self.egress_free[src.index()] = done_serializing;
            self.ingress_free[dst.index()] = done_serializing;
            (queued, done_serializing + latency)
        };

        match class {
            HopClass::Loopback => self.stats.loopback_bytes += bytes,
            HopClass::IntraRack => self.stats.intra_rack_bytes += bytes,
            HopClass::CrossRack => self.stats.cross_rack_bytes += bytes,
            HopClass::Durable => self.stats.durable_bytes += bytes,
        }
        self.stats.data_transfers += 1;

        Transfer {
            arrival,
            queued,
            serialization,
            latency,
        }
    }

    /// Prices a small control message from `src` to `dst`. Control messages
    /// do not consume NIC serialization capacity (they are tiny), but they
    /// pay full path latency.
    pub fn control(&mut self, now: SimTime, src: NodeId, dst: NodeId) -> SimTime {
        let latency = self.path_latency(src, dst);
        let ser = SimDuration::from_secs_f64(
            self.params.control_msg_bytes as f64 / self.bandwidth(src, dst) as f64,
        );
        self.stats.control_msgs += 1;
        now + latency + ser
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{presets, DurableSpec, ServerSpec, TopologyBuilder};

    fn two_rack() -> Topology {
        TopologyBuilder::new()
            .rack(|r| {
                r.servers(2, ServerSpec::default());
            })
            .rack(|r| {
                r.servers(1, ServerSpec::default());
            })
            .durable_storage(DurableSpec::default())
            .build()
    }

    #[test]
    fn hop_classification() {
        let topo = two_rack();
        let net = Network::new(&topo, LinkParams::default());
        let d = topo.durable_storage().unwrap();
        assert_eq!(net.hop_class(NodeId(0), NodeId(0)), HopClass::Loopback);
        assert_eq!(net.hop_class(NodeId(0), NodeId(1)), HopClass::IntraRack);
        assert_eq!(net.hop_class(NodeId(0), NodeId(2)), HopClass::CrossRack);
        assert_eq!(net.hop_class(NodeId(0), d), HopClass::Durable);
    }

    #[test]
    fn latency_ordering_matches_hierarchy() {
        let topo = two_rack();
        let net = Network::new(&topo, LinkParams::default());
        let d = topo.durable_storage().unwrap();
        let lo = net.path_latency(NodeId(0), NodeId(0));
        let ir = net.path_latency(NodeId(0), NodeId(1));
        let cr = net.path_latency(NodeId(0), NodeId(2));
        let du = net.path_latency(NodeId(0), d);
        assert!(lo < ir && ir < cr && cr < du, "{lo} {ir} {cr} {du}");
    }

    #[test]
    fn serialization_scales_with_bytes() {
        let topo = two_rack();
        let mut net = Network::new(&topo, LinkParams::default());
        let small = net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1 << 10);
        let mut net2 = Network::new(&topo, LinkParams::default());
        let big = net2.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1 << 30);
        assert!(big.serialization > small.serialization * 1000);
    }

    #[test]
    fn concurrent_transfers_queue_on_egress() {
        let topo = two_rack();
        let mut net = Network::new(&topo, LinkParams::default());
        let a = net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 100 << 20);
        let b = net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 100 << 20);
        assert_eq!(a.queued, SimDuration::ZERO);
        assert!(b.queued >= a.serialization);
        assert!(b.arrival > a.arrival);
    }

    #[test]
    fn loopback_does_not_queue() {
        let topo = two_rack();
        let mut net = Network::new(&topo, LinkParams::default());
        let a = net.transfer(SimTime::ZERO, NodeId(0), NodeId(0), 1 << 30);
        let b = net.transfer(SimTime::ZERO, NodeId(0), NodeId(0), 1 << 30);
        assert_eq!(a.queued, SimDuration::ZERO);
        assert_eq!(b.queued, SimDuration::ZERO);
    }

    #[test]
    fn durable_path_is_slow() {
        let topo = two_rack();
        let mut net = Network::new(&topo, LinkParams::default());
        let d = topo.durable_storage().unwrap();
        let to_server = net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1 << 20);
        let to_durable = net.transfer(SimTime::ZERO, NodeId(0), d, 1 << 20);
        assert!(to_durable.total() > to_server.total() * 5);
    }

    #[test]
    fn stats_accumulate_by_class() {
        let topo = two_rack();
        let mut net = Network::new(&topo, LinkParams::default());
        let d = topo.durable_storage().unwrap();
        net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 10);
        net.transfer(SimTime::ZERO, NodeId(0), NodeId(2), 20);
        net.transfer(SimTime::ZERO, NodeId(0), d, 30);
        net.transfer(SimTime::ZERO, NodeId(0), NodeId(0), 40);
        net.control(SimTime::ZERO, NodeId(0), NodeId(1));
        let s = net.stats();
        assert_eq!(s.intra_rack_bytes, 10);
        assert_eq!(s.cross_rack_bytes, 20);
        assert_eq!(s.durable_bytes, 30);
        assert_eq!(s.loopback_bytes, 40);
        assert_eq!(s.network_bytes(), 60);
        assert_eq!(s.control_msgs, 1);
        assert_eq!(s.data_transfers, 4);
    }

    #[test]
    fn dpu_delay_only_on_dpu_fronted_nodes() {
        let topo = presets::device_rack();
        let net = Network::new(&topo, LinkParams::default());
        let server = topo.servers()[0];
        let dev = topo.accel_devices(None)[0];
        assert_eq!(net.dpu_delay(server), SimDuration::ZERO);
        assert!(net.dpu_delay(dev) > SimDuration::ZERO);
        assert!(net.internal_hop(dev) > SimDuration::ZERO);
    }

    #[test]
    fn control_message_is_cheap() {
        let topo = two_rack();
        let mut net = Network::new(&topo, LinkParams::default());
        let t = net.control(SimTime::ZERO, NodeId(0), NodeId(2));
        // A control message should cost close to path latency only.
        let lat = net.path_latency(NodeId(0), NodeId(2));
        assert!(t.since(SimTime::ZERO) < lat * 2);
    }
}

#[cfg(test)]
mod pod_tests {
    use super::*;
    use crate::topology::{presets, AccelKind};

    #[test]
    fn pod_overrides_intra_rack_only() {
        let topo = presets::device_rack(); // Rack 0 devices + durable rack 1.
        let params = LinkParams::default().with_pod(0, SimDuration::from_micros(1), 100 << 30);
        let mut pod_net = Network::new(&topo, params);
        let mut base_net = Network::new(&topo, LinkParams::default());
        let devs = topo.accel_devices(Some(AccelKind::Gpu));
        let (a, b) = (devs[0], devs[1]);
        // Intra-pod: faster on both axes.
        assert!(pod_net.path_latency(a, b) < base_net.path_latency(a, b));
        let pod_t = pod_net.transfer(SimTime::ZERO, a, b, 64 << 20);
        let base_t = base_net.transfer(SimTime::ZERO, a, b, 64 << 20);
        assert!(pod_t.serialization < base_t.serialization);
        // Cross-rack paths (to durable) are untouched.
        let d = topo.durable_storage().unwrap();
        assert_eq!(pod_net.path_latency(a, d), base_net.path_latency(a, d));
    }

    #[test]
    fn non_pod_racks_unaffected() {
        let topo = presets::small_disagg_cluster();
        let params = LinkParams::default().with_pod(0, SimDuration::from_micros(1), 100 << 30);
        let net = Network::new(&topo, params);
        let base = Network::new(&topo, LinkParams::default());
        // Two rack-1 servers: same latency as without the pod.
        let servers = topo.servers();
        let (a, b) = (servers[4], servers[5]);
        assert_eq!(net.path_latency(a, b), base.path_latency(a, b));
    }
}
