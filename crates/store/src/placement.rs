//! The cluster-wide caching layer.
//!
//! [`CachingLayer`] is the paper's "fast caching layer" (Figure 2, note 5):
//! one KV API over every node's memory — server DRAM, device HBM,
//! disaggregated memory — with durable storage as the backstop. Users see
//! `put`/`get`; the layer manages locations, spilling, and replication,
//! which is exactly how it "hide\[s\] the location and movement of data"
//! (§2.1).

use skadi_dcsim::time::SimTime;
use skadi_dcsim::topology::{NodeClass, NodeId, Topology};
use skadi_dcsim::trace::Metrics;

use crate::error::StoreError;
use crate::kv::LocalStore;
use crate::object::{ObjectId, ObjectMeta};
use crate::policy::EvictionPolicy;
use crate::replication::{choose_replica_nodes, ReplicaIndex};
use crate::spill::{SpillPlanner, SpillPolicy, SpillTarget};
use crate::tier::Tier;

/// One spill that happened during a `put`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillEvent {
    /// The object that moved.
    pub id: ObjectId,
    /// Where it was evicted from.
    pub from: NodeId,
    /// Where it landed (or that it was dropped).
    pub to: SpillTarget,
    /// Bytes moved.
    pub bytes: u64,
}

/// Result of a `put`: where the object landed and what had to move to
/// make room.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutReport {
    /// Node holding the new primary copy.
    pub node: NodeId,
    /// Tier of that node.
    pub tier: Tier,
    /// Cascading spills triggered by the insertion.
    pub spilled: Vec<SpillEvent>,
}

/// Result of a `replicate`: which nodes received new copies and what had
/// to move to make room for them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicateReport {
    /// Nodes that received a new replica.
    pub added: Vec<NodeId>,
    /// Cascading spills triggered while placing the replicas.
    pub spilled: Vec<SpillEvent>,
}

/// Where a read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// The node holding the chosen copy.
    pub node: NodeId,
    /// Its tier.
    pub tier: Tier,
    /// True if the copy is local to the reader.
    pub local: bool,
}

/// The cluster-wide tiered KV store.
#[derive(Debug, Clone)]
pub struct CachingLayer {
    stores: Vec<LocalStore>,
    index: ReplicaIndex,
    planner: SpillPlanner,
    topo: Topology,
    spill_count: u64,
    spill_bytes: u64,
    metrics: Metrics,
}

/// The tier implied by a node's hardware class.
pub fn tier_for_class(class: NodeClass) -> Tier {
    match class {
        NodeClass::Server => Tier::HostDram,
        NodeClass::AccelDevice => Tier::DeviceHbm,
        NodeClass::MemoryBlade => Tier::DisaggMemory,
        NodeClass::DurableStorage => Tier::Durable,
    }
}

impl CachingLayer {
    /// Builds the layer: one [`LocalStore`] per node, sized by the node's
    /// memory, plus spill planning per `spill_policy`.
    pub fn new(topo: &Topology, eviction: EvictionPolicy, spill_policy: SpillPolicy) -> Self {
        let stores = topo
            .nodes()
            .iter()
            .map(|n| {
                LocalStore::new(
                    n.id,
                    tier_for_class(n.kind.class()),
                    n.kind.memory_bytes(),
                    eviction,
                )
            })
            .collect();
        CachingLayer {
            stores,
            index: ReplicaIndex::new(),
            planner: SpillPlanner::new(topo, spill_policy),
            topo: topo.clone(),
            spill_count: 0,
            spill_bytes: 0,
            metrics: Metrics::new(),
        }
    }

    /// Tier hit/miss/eviction counters, labeled per tier.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Drains the accumulated metrics (for merging into a job's sink).
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.metrics)
    }

    /// The per-node store (read-only).
    pub fn store(&self, node: NodeId) -> &LocalStore {
        &self.stores[node.index()]
    }

    /// Number of spills and bytes spilled since creation.
    pub fn spill_stats(&self) -> (u64, u64) {
        (self.spill_count, self.spill_bytes)
    }

    /// The nodes currently holding `id`.
    pub fn locations(&self, id: ObjectId) -> &[NodeId] {
        self.index.holders(id)
    }

    /// True if any copy of `id` exists.
    pub fn contains(&self, id: ObjectId) -> bool {
        !self.index.holders(id).is_empty()
    }

    /// The object's size, from any holder's metadata.
    pub fn size_of(&self, id: ObjectId) -> Result<u64, StoreError> {
        let node = self.index.any_holder(id)?;
        self.stores[node.index()]
            .meta(id)
            .map(|m| m.size)
            .ok_or(StoreError::NotFound(id))
    }

    /// Stores an object on (or near) `node`, spilling colder objects as
    /// needed. The returned report lists every induced move so the caller
    /// can price the transfers.
    pub fn put(
        &mut self,
        id: ObjectId,
        size: u64,
        node: NodeId,
        now: SimTime,
    ) -> Result<PutReport, StoreError> {
        let tier = self.stores[node.index()].tier();
        let evicted = self.stores[node.index()].put(id, size, now)?;
        self.index.add(id, node);
        self.metrics
            .bump_labeled("tier.put", &[("tier", tier.label())]);
        let spilled = self.rehome_evicted(node, evicted, now)?;
        Ok(PutReport {
            node,
            tier,
            spilled,
        })
    }

    /// Re-homes objects evicted from `origin` via the spill planner.
    /// Spills can cascade one level further (e.g. blade eviction lands on
    /// durable), handled by the queue.
    fn rehome_evicted(
        &mut self,
        origin: NodeId,
        evicted: Vec<ObjectMeta>,
        now: SimTime,
    ) -> Result<Vec<SpillEvent>, StoreError> {
        let mut spilled = Vec::new();
        let mut queue: Vec<(NodeId, ObjectMeta)> =
            evicted.into_iter().map(|m| (origin, m)).collect();
        while let Some((from, meta)) = queue.pop() {
            self.index.remove(meta.id, from);
            let from_tier = self.stores[from.index()].tier();
            let from_rack = self.topo.rack_of(from).0;
            let target = self.planner.plan(from_rack, meta.size, |blade| {
                self.stores[blade.index()].free()
            });
            match target {
                SpillTarget::Node(dest) | SpillTarget::Durable(dest) => {
                    // A duplicate means another copy already lives there;
                    // treat as a no-op move.
                    match self.stores[dest.index()].put(meta.id, meta.size, now) {
                        Ok(more) => {
                            self.index.add(meta.id, dest);
                            for m in more {
                                queue.push((dest, m));
                            }
                        }
                        Err(StoreError::Duplicate(_)) => {
                            self.index.add(meta.id, dest);
                        }
                        Err(e) => return Err(e),
                    }
                    self.spill_count += 1;
                    self.spill_bytes += meta.size;
                    let to_tier = self.stores[dest.index()].tier();
                    self.metrics.bump_labeled(
                        "tier.evict",
                        &[("from", from_tier.label()), ("to", to_tier.label())],
                    );
                }
                SpillTarget::Drop => {
                    self.metrics
                        .bump_labeled("tier.evict", &[("from", from_tier.label()), ("to", "drop")]);
                }
            }
            spilled.push(SpillEvent {
                id: meta.id,
                from,
                to: target,
                bytes: meta.size,
            });
        }
        Ok(spilled)
    }

    /// Finds the best copy of `id` for a reader on `reader`: local first,
    /// then same rack, then anywhere, preferring faster tiers within each
    /// class. Updates recency on the chosen store.
    pub fn get(
        &mut self,
        id: ObjectId,
        reader: NodeId,
        now: SimTime,
    ) -> Result<Location, StoreError> {
        let holders = self.index.holders(id);
        if holders.is_empty() {
            self.metrics.bump("tier.miss");
            return Err(StoreError::NotFound(id));
        }
        let mut ranked: Vec<(u8, Tier, NodeId)> = holders
            .iter()
            .map(|&n| {
                let dist = if n == reader {
                    0
                } else if self.topo.same_rack(n, reader) {
                    1
                } else if self.stores[n.index()].tier() != Tier::Durable {
                    2
                } else {
                    3
                };
                (dist, self.stores[n.index()].tier(), n)
            })
            .collect();
        ranked.sort();
        let (dist, tier, node) = ranked[0];
        self.stores[node.index()].get(id, now)?;
        let locality = match dist {
            0 => "local",
            1 => "rack",
            _ => "remote",
        };
        self.metrics.bump_labeled(
            "tier.hit",
            &[("tier", tier.label()), ("locality", locality)],
        );
        Ok(Location {
            node,
            tier,
            local: dist == 0,
        })
    }

    /// Like [`CachingLayer::get`], but *promotes* the object to the
    /// reader's node when the best copy is remote and the reader has (or
    /// can evict its way to) capacity — the standard hot-data promotion
    /// of a tiered cache. Returns the location the read was served from
    /// (pre-promotion) plus whether a promotion happened.
    pub fn get_promote(
        &mut self,
        id: ObjectId,
        reader: NodeId,
        now: SimTime,
    ) -> Result<(Location, bool), StoreError> {
        let loc = self.get(id, reader, now)?;
        if loc.local {
            return Ok((loc, false));
        }
        let size = self.size_of(id)?;
        // Move, don't copy: drop the cold copy once the hot one exists.
        match self.stores[reader.index()].put(id, size, now) {
            Ok(evicted) => {
                self.index.add(id, reader);
                self.rehome_evicted(reader, evicted, now)?;
                let _ = self.stores[loc.node.index()].delete(id);
                self.index.remove(id, loc.node);
                let to_tier = self.stores[reader.index()].tier();
                self.metrics
                    .bump_labeled("tier.promote", &[("to", to_tier.label())]);
                Ok((loc, true))
            }
            // Reader full of pinned data or object too large: serve remote.
            Err(_) => Ok((loc, false)),
        }
    }

    /// Adds `extra` replicas of `id` on rack-diverse nodes drawn from
    /// `candidates`. Destinations that cannot take the copy (full of
    /// pinned data) are skipped rather than aborting the whole operation,
    /// and anything their stores evicted to make room is re-homed like any
    /// other spill — partial failure must never leave an object in a
    /// store without an index entry, or vice versa.
    pub fn replicate(
        &mut self,
        id: ObjectId,
        extra: usize,
        candidates: &[NodeId],
        now: SimTime,
    ) -> Result<ReplicateReport, StoreError> {
        let primary = self.index.any_holder(id)?;
        let size = self.size_of(id)?;
        let picks = choose_replica_nodes(&self.topo, candidates, primary, extra);
        let mut added = Vec::new();
        let mut spilled = Vec::new();
        for dest in picks {
            if self.index.holders(id).contains(&dest) {
                continue;
            }
            match self.stores[dest.index()].put(id, size, now) {
                Ok(evicted) => {
                    self.index.add(id, dest);
                    added.push(dest);
                    spilled.extend(self.rehome_evicted(dest, evicted, now)?);
                }
                Err(_) => continue,
            }
        }
        Ok(ReplicateReport { added, spilled })
    }

    /// Deletes every copy of `id`.
    pub fn delete(&mut self, id: ObjectId) -> Result<(), StoreError> {
        let holders: Vec<NodeId> = self.index.holders(id).to_vec();
        if holders.is_empty() {
            return Err(StoreError::NotFound(id));
        }
        for n in holders {
            let _ = self.stores[n.index()].delete(id);
        }
        self.index.drop_object(id);
        Ok(())
    }

    /// Simulates the failure of `node`: its store is emptied and every
    /// object whose last copy lived there is reported lost.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<ObjectId> {
        let metas = self.stores[node.index()].metas();
        for m in &metas {
            let _ = self.stores[node.index()].delete(m.id);
        }
        self.index.fail_node(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_dcsim::topology::presets;

    fn layer() -> (Topology, CachingLayer) {
        let topo = presets::small_disagg_cluster();
        let layer = CachingLayer::new(&topo, EvictionPolicy::Lru, SpillPolicy::default());
        (topo, layer)
    }

    #[test]
    fn put_get_round_trip() {
        let (topo, mut cl) = layer();
        let s0 = topo.servers()[0];
        let report = cl.put(ObjectId(1), 1 << 20, s0, SimTime::ZERO).unwrap();
        assert_eq!(report.tier, Tier::HostDram);
        assert!(report.spilled.is_empty());
        let loc = cl.get(ObjectId(1), s0, SimTime::from_micros(1)).unwrap();
        assert!(loc.local);
        assert_eq!(loc.node, s0);
    }

    #[test]
    fn get_prefers_nearest_copy() {
        let (topo, mut cl) = layer();
        let servers = topo.servers();
        let (r0, r1) = (servers[0], servers[4]); // Different racks.
        cl.put(ObjectId(1), 100, r0, SimTime::ZERO).unwrap();
        cl.replicate(ObjectId(1), 1, &servers, SimTime::ZERO)
            .unwrap();
        // Reader on the replica's rack should hit the replica.
        let loc = cl.get(ObjectId(1), r1, SimTime::from_micros(1)).unwrap();
        assert!(topo.same_rack(loc.node, r1) || loc.node == r1);
    }

    #[test]
    fn hbm_overflow_spills_to_blade() {
        let (topo, mut cl) = layer();
        let gpu = topo.accel_devices(None)[0];
        let hbm = cl.store(gpu).capacity();
        cl.put(ObjectId(1), hbm / 2 + 1, gpu, SimTime::ZERO)
            .unwrap();
        let report = cl
            .put(ObjectId(2), hbm / 2 + 1, gpu, SimTime::from_micros(1))
            .unwrap();
        assert_eq!(report.spilled.len(), 1);
        let ev = report.spilled[0];
        assert_eq!(ev.id, ObjectId(1));
        let blade = topo.memory_blades()[0];
        assert_eq!(ev.to, SpillTarget::Node(blade));
        // Object 1 is now readable from the blade.
        let loc = cl.get(ObjectId(1), gpu, SimTime::from_micros(2)).unwrap();
        assert_eq!(loc.tier, Tier::DisaggMemory);
        let (n, b) = cl.spill_stats();
        assert_eq!(n, 1);
        assert_eq!(b, hbm / 2 + 1);
    }

    #[test]
    fn replicate_places_rack_diverse() {
        let (topo, mut cl) = layer();
        let servers = topo.servers();
        cl.put(ObjectId(1), 100, servers[0], SimTime::ZERO).unwrap();
        let added = cl
            .replicate(ObjectId(1), 2, &servers, SimTime::ZERO)
            .unwrap()
            .added;
        assert_eq!(added.len(), 2);
        for a in &added {
            assert!(!topo.same_rack(*a, servers[0]));
        }
        assert_eq!(cl.locations(ObjectId(1)).len(), 3);
    }

    #[test]
    fn replicate_rehomes_displaced_objects() {
        // Regression: replica placement used to discard the destination
        // store's eviction list, leaving displaced objects indexed as
        // present but physically gone (a later `get` then failed on an
        // "available" object).
        let (topo, mut cl) = layer();
        let servers = topo.servers();
        // Pick a destination on another rack and nearly fill it so the
        // incoming replica forces an eviction there.
        let dest = *servers
            .iter()
            .find(|s| !topo.same_rack(**s, servers[0]))
            .unwrap();
        let cap = cl.store(dest).capacity();
        cl.put(ObjectId(7), cap - 100, dest, SimTime::ZERO).unwrap();
        cl.put(ObjectId(1), 200, servers[0], SimTime::from_micros(1))
            .unwrap();
        let report = cl
            .replicate(ObjectId(1), 1, &[dest], SimTime::from_micros(2))
            .unwrap();
        assert_eq!(report.added, vec![dest]);
        // The displaced object moved somewhere and is still readable.
        assert!(report.spilled.iter().any(|s| s.id == ObjectId(7)));
        assert!(cl.contains(ObjectId(7)));
        assert!(cl
            .get(ObjectId(7), servers[0], SimTime::from_micros(3))
            .is_ok());
    }

    #[test]
    fn fail_node_loses_unreplicated_objects() {
        let (topo, mut cl) = layer();
        let servers = topo.servers();
        cl.put(ObjectId(1), 100, servers[0], SimTime::ZERO).unwrap();
        cl.put(ObjectId(2), 100, servers[0], SimTime::ZERO).unwrap();
        cl.replicate(ObjectId(2), 1, &servers, SimTime::ZERO)
            .unwrap();
        let lost = cl.fail_node(servers[0]);
        assert_eq!(lost, vec![ObjectId(1)]);
        assert!(!cl.contains(ObjectId(1)));
        assert!(cl.contains(ObjectId(2)));
    }

    #[test]
    fn delete_removes_all_copies() {
        let (topo, mut cl) = layer();
        let servers = topo.servers();
        cl.put(ObjectId(1), 100, servers[0], SimTime::ZERO).unwrap();
        cl.replicate(ObjectId(1), 2, &servers, SimTime::ZERO)
            .unwrap();
        cl.delete(ObjectId(1)).unwrap();
        assert!(!cl.contains(ObjectId(1)));
        assert!(cl.get(ObjectId(1), servers[0], SimTime::ZERO).is_err());
    }

    #[test]
    fn size_of_reports() {
        let (topo, mut cl) = layer();
        cl.put(ObjectId(1), 12345, topo.servers()[0], SimTime::ZERO)
            .unwrap();
        assert_eq!(cl.size_of(ObjectId(1)).unwrap(), 12345);
        assert!(cl.size_of(ObjectId(2)).is_err());
    }

    #[test]
    fn get_promote_moves_hot_objects_up() {
        let (topo, mut cl) = layer();
        let gpu = topo.accel_devices(None)[0];
        let blade = topo.memory_blades()[0];
        // Object cached on the blade; the GPU reads it hot.
        cl.put(ObjectId(1), 1 << 20, blade, SimTime::ZERO).unwrap();
        let (loc, promoted) = cl
            .get_promote(ObjectId(1), gpu, SimTime::from_micros(1))
            .unwrap();
        assert_eq!(loc.tier, Tier::DisaggMemory);
        assert!(promoted);
        // Next read is local HBM.
        let (loc, promoted) = cl
            .get_promote(ObjectId(1), gpu, SimTime::from_micros(2))
            .unwrap();
        assert!(loc.local);
        assert_eq!(loc.tier, Tier::DeviceHbm);
        assert!(!promoted);
        // The blade copy is gone (move, not copy).
        assert_eq!(cl.locations(ObjectId(1)), &[gpu]);
    }

    #[test]
    fn metrics_label_hits_misses_and_evictions() {
        let (topo, mut cl) = layer();
        let gpu = topo.accel_devices(None)[0];
        let hbm = cl.store(gpu).capacity();
        cl.put(ObjectId(1), hbm / 2 + 1, gpu, SimTime::ZERO)
            .unwrap();
        cl.put(ObjectId(2), hbm / 2 + 1, gpu, SimTime::from_micros(1))
            .unwrap();
        // Second put evicted object 1 from HBM to the blade.
        let m = cl.metrics();
        assert_eq!(
            m.counter_labeled(
                "tier.evict",
                &[("from", "device-hbm"), ("to", "disagg-memory")]
            ),
            1
        );
        assert_eq!(m.counter_across_labels("tier.put"), 2);

        // Hit on the blade copy, remote from the GPU's perspective.
        cl.get(ObjectId(1), gpu, SimTime::from_micros(2)).unwrap();
        assert_eq!(
            cl.metrics().counter_labeled(
                "tier.hit",
                &[("tier", "disagg-memory"), ("locality", "rack")]
            ) + cl.metrics().counter_labeled(
                "tier.hit",
                &[("tier", "disagg-memory"), ("locality", "remote")]
            ),
            1
        );

        // Miss on an unknown object.
        assert!(cl.get(ObjectId(99), gpu, SimTime::from_micros(3)).is_err());
        assert_eq!(cl.metrics().counter("tier.miss"), 1);
    }

    #[test]
    fn metrics_count_promotions() {
        let (topo, mut cl) = layer();
        let gpu = topo.accel_devices(None)[0];
        let blade = topo.memory_blades()[0];
        cl.put(ObjectId(1), 1 << 20, blade, SimTime::ZERO).unwrap();
        cl.get_promote(ObjectId(1), gpu, SimTime::from_micros(1))
            .unwrap();
        assert_eq!(
            cl.metrics()
                .counter_labeled("tier.promote", &[("to", "device-hbm")]),
            1
        );
        // take_metrics drains the sink.
        let taken = cl.take_metrics();
        assert_eq!(taken.counter_across_labels("tier.promote"), 1);
        assert_eq!(cl.metrics().counter_across_labels("tier.promote"), 0);
    }
}
