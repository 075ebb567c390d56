//! Replica placement and failure masking.
//!
//! The paper's reliable caching layer option (§2.1) replicates cached
//! objects so a node failure does not force lineage re-execution. This
//! module chooses replica nodes (rack-diverse when possible) and keeps
//! the index of which nodes hold each object, reporting the objects a
//! node failure leaves without a copy.

use std::collections::HashMap;

use skadi_dcsim::topology::{NodeId, Topology};

use crate::error::StoreError;
use crate::object::ObjectId;

/// Chooses `replicas` additional nodes for an object whose primary copy
/// is on `primary`, preferring nodes in *other* racks (fault domains),
/// then other nodes in the same rack. `candidates` is the set of nodes
/// allowed to hold replicas (typically servers + memory blades).
///
/// Returns fewer than `replicas` nodes if the cluster is too small; the
/// caller decides whether that is acceptable.
pub fn choose_replica_nodes(
    topo: &Topology,
    candidates: &[NodeId],
    primary: NodeId,
    replicas: usize,
) -> Vec<NodeId> {
    let primary_rack = topo.rack_of(primary);
    let mut other_rack: Vec<NodeId> = Vec::new();
    let mut same_rack: Vec<NodeId> = Vec::new();
    for &n in candidates {
        if n == primary {
            continue;
        }
        if topo.rack_of(n) != primary_rack {
            other_rack.push(n);
        } else {
            same_rack.push(n);
        }
    }
    // Deterministic order: by node ID within each class.
    other_rack.sort();
    same_rack.sort();
    other_rack
        .into_iter()
        .chain(same_rack)
        .take(replicas)
        .collect()
}

/// Tracks which nodes hold copies of which objects.
#[derive(Debug, Clone, Default)]
pub struct ReplicaIndex {
    holders: HashMap<ObjectId, Vec<NodeId>>,
}

impl ReplicaIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        ReplicaIndex::default()
    }

    /// Records that `node` holds a copy of `id`.
    pub fn add(&mut self, id: ObjectId, node: NodeId) {
        let holders = self.holders.entry(id).or_default();
        if !holders.contains(&node) {
            holders.push(node);
        }
    }

    /// Records that `node` no longer holds `id`.
    pub fn remove(&mut self, id: ObjectId, node: NodeId) {
        if let Some(holders) = self.holders.get_mut(&id) {
            holders.retain(|n| *n != node);
            if holders.is_empty() {
                self.holders.remove(&id);
            }
        }
    }

    /// Forgets the object entirely.
    pub fn drop_object(&mut self, id: ObjectId) {
        self.holders.remove(&id);
    }

    /// The nodes currently holding `id` (empty slice if unknown).
    pub fn holders(&self, id: ObjectId) -> &[NodeId] {
        self.holders.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Removes `node` from every object, returning the objects whose last
    /// copy was lost (the set lineage must re-create).
    pub fn fail_node(&mut self, node: NodeId) -> Vec<ObjectId> {
        let mut lost = Vec::new();
        let ids: Vec<ObjectId> = self.holders.keys().copied().collect();
        for id in ids {
            let holders = self.holders.get_mut(&id).expect("just listed");
            holders.retain(|n| *n != node);
            if holders.is_empty() {
                self.holders.remove(&id);
                lost.push(id);
            }
        }
        lost.sort();
        lost
    }

    /// The first surviving holder, or an error naming the object.
    pub fn any_holder(&self, id: ObjectId) -> Result<NodeId, StoreError> {
        self.holders(id)
            .first()
            .copied()
            .ok_or(StoreError::NotFound(id))
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        self.holders.len()
    }

    /// True if no objects are tracked.
    pub fn is_empty(&self) -> bool {
        self.holders.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_dcsim::topology::presets;

    #[test]
    fn replica_nodes_prefer_other_racks() {
        let topo = presets::small_disagg_cluster();
        let servers = topo.servers();
        let primary = servers[0]; // Rack 0.
        let picks = choose_replica_nodes(&topo, &servers, primary, 2);
        assert_eq!(picks.len(), 2);
        for p in &picks {
            assert_ne!(*p, primary);
            assert!(!topo.same_rack(primary, *p), "replica {p} in same rack");
        }
    }

    #[test]
    fn falls_back_to_same_rack_when_needed() {
        let topo = presets::server_cluster(1, 3);
        let servers = topo.servers();
        let picks = choose_replica_nodes(&topo, &servers, servers[0], 2);
        assert_eq!(picks.len(), 2);
    }

    #[test]
    fn small_cluster_returns_fewer() {
        let topo = presets::server_cluster(1, 2);
        let servers = topo.servers();
        let picks = choose_replica_nodes(&topo, &servers, servers[0], 5);
        assert_eq!(picks.len(), 1);
    }

    #[test]
    fn index_add_remove() {
        let mut idx = ReplicaIndex::new();
        idx.add(ObjectId(1), NodeId(0));
        idx.add(ObjectId(1), NodeId(2));
        idx.add(ObjectId(1), NodeId(2)); // Duplicate ignored.
        assert_eq!(idx.holders(ObjectId(1)), &[NodeId(0), NodeId(2)]);
        idx.remove(ObjectId(1), NodeId(0));
        assert_eq!(idx.holders(ObjectId(1)), &[NodeId(2)]);
    }

    #[test]
    fn fail_node_reports_lost_objects() {
        let mut idx = ReplicaIndex::new();
        idx.add(ObjectId(1), NodeId(0)); // Only copy on node 0: lost.
        idx.add(ObjectId(2), NodeId(0));
        idx.add(ObjectId(2), NodeId(1)); // Replica survives.
        let lost = idx.fail_node(NodeId(0));
        assert_eq!(lost, vec![ObjectId(1)]);
        assert_eq!(idx.holders(ObjectId(2)), &[NodeId(1)]);
    }

    #[test]
    fn any_holder_errors_when_unknown() {
        let idx = ReplicaIndex::new();
        assert!(matches!(
            idx.any_holder(ObjectId(9)),
            Err(StoreError::NotFound(_))
        ));
    }
}
