//! Spill planning between tiers.
//!
//! Gen-2 of the paper's runtime "extend\[s\] the caching layer to include
//! disaggregated memory" precisely "to resolve potential out-of-memory"
//! (§2.3.2): when HBM or host DRAM fills, cold objects spill to a memory
//! blade instead of being dropped or pushed to durable storage. This
//! module decides *where* evicted objects go.

use skadi_dcsim::topology::{NodeId, Topology};

use crate::tier::Tier;

/// Where an evicted object should be re-homed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillTarget {
    /// Move to this node (a colder tier with room).
    Node(NodeId),
    /// No colder capacity anywhere: write to durable storage.
    Durable(NodeId),
    /// No colder capacity and no durable storage: the object is dropped.
    Drop,
}

/// Policy knobs for spill planning.
#[derive(Debug, Clone, Copy)]
pub struct SpillPolicy {
    /// If true, spill to disaggregated memory blades before durable
    /// storage (the Gen-2 configuration). If false, evictions go straight
    /// to durable storage (the Gen-1 / classic-serverless configuration).
    pub use_disagg_memory: bool,
}

impl Default for SpillPolicy {
    fn default() -> Self {
        SpillPolicy {
            use_disagg_memory: true,
        }
    }
}

/// Chooses spill destinations.
#[derive(Debug, Clone)]
pub struct SpillPlanner {
    policy: SpillPolicy,
    blades: Vec<NodeId>,
    durable: Option<NodeId>,
    /// Nodes whose spill traffic should prefer same-rack blades.
    blade_racks: Vec<u16>,
}

impl SpillPlanner {
    /// Builds a planner for the topology.
    pub fn new(topo: &Topology, policy: SpillPolicy) -> Self {
        let blades = topo.memory_blades();
        let blade_racks = blades.iter().map(|b| topo.rack_of(*b).0).collect();
        SpillPlanner {
            policy,
            blades,
            durable: topo.durable_storage(),
            blade_racks,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &SpillPolicy {
        &self.policy
    }

    /// Picks a destination for an object evicted from `from`, given a
    /// callback reporting each blade's free bytes. Prefers a same-rack
    /// blade with room, then any blade with room, then durable storage;
    /// with none of them the object is dropped.
    pub fn plan(
        &self,
        from_rack: u16,
        size: u64,
        blade_free: impl Fn(NodeId) -> u64,
    ) -> SpillTarget {
        if self.policy.use_disagg_memory {
            // Same-rack blades first, then the rest; both in ID order.
            let mut ordered: Vec<(bool, NodeId)> = self
                .blades
                .iter()
                .zip(&self.blade_racks)
                .map(|(b, r)| (*r != from_rack, *b))
                .collect();
            ordered.sort();
            for (_, blade) in ordered {
                if blade_free(blade) >= size {
                    return SpillTarget::Node(blade);
                }
            }
        }
        match self.durable {
            Some(d) => SpillTarget::Durable(d),
            None => SpillTarget::Drop,
        }
    }

    /// The tier an object lands in for a given target.
    pub fn target_tier(target: SpillTarget) -> Option<Tier> {
        match target {
            SpillTarget::Node(_) => Some(Tier::DisaggMemory),
            SpillTarget::Durable(_) => Some(Tier::Durable),
            SpillTarget::Drop => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_dcsim::topology::{
        presets, AccelKind, AccelSpec, MemoryBladeSpec, ServerSpec, TopologyBuilder,
    };

    #[test]
    fn prefers_same_rack_blade() {
        let topo = TopologyBuilder::new()
            .rack(|r| {
                r.servers(1, ServerSpec::default());
                r.memory_blade(MemoryBladeSpec::default());
            })
            .rack(|r| {
                r.memory_blade(MemoryBladeSpec::default());
            })
            .durable_storage(Default::default())
            .build();
        let planner = SpillPlanner::new(&topo, SpillPolicy::default());
        let blades = topo.memory_blades();
        let t = planner.plan(0, 100, |_| u64::MAX);
        assert_eq!(t, SpillTarget::Node(blades[0]));
        // From rack 1, the rack-1 blade wins.
        let t = planner.plan(1, 100, |_| u64::MAX);
        assert_eq!(t, SpillTarget::Node(blades[1]));
    }

    #[test]
    fn full_blades_fall_through_to_durable() {
        let topo = presets::small_disagg_cluster();
        let planner = SpillPlanner::new(&topo, SpillPolicy::default());
        let t = planner.plan(0, 100, |_| 0);
        assert_eq!(t, SpillTarget::Durable(topo.durable_storage().unwrap()));
    }

    #[test]
    fn gen1_policy_skips_blades() {
        let topo = presets::small_disagg_cluster();
        let planner = SpillPlanner::new(
            &topo,
            SpillPolicy {
                use_disagg_memory: false,
            },
        );
        let t = planner.plan(0, 100, |_| u64::MAX);
        assert!(matches!(t, SpillTarget::Durable(_)));
    }

    #[test]
    fn no_blade_no_durable_drops() {
        let topo = TopologyBuilder::new()
            .rack(|r| {
                r.servers(1, ServerSpec::default());
                r.accel_device(AccelKind::Gpu, AccelSpec::default());
            })
            .build();
        let planner = SpillPlanner::new(&topo, SpillPolicy::default());
        assert_eq!(planner.plan(0, 10, |_| 0), SpillTarget::Drop);
    }

    #[test]
    fn target_tier_mapping() {
        assert_eq!(
            SpillPlanner::target_tier(SpillTarget::Node(NodeId(1))),
            Some(Tier::DisaggMemory)
        );
        assert_eq!(
            SpillPlanner::target_tier(SpillTarget::Durable(NodeId(1))),
            Some(Tier::Durable)
        );
        assert_eq!(SpillPlanner::target_tier(SpillTarget::Drop), None);
    }

    #[test]
    fn blade_with_insufficient_room_skipped() {
        let topo = presets::small_disagg_cluster();
        let planner = SpillPlanner::new(&topo, SpillPolicy::default());
        // Blade has 50 bytes free; object needs 100.
        let t = planner.plan(0, 100, |_| 50);
        assert!(matches!(t, SpillTarget::Durable(_)));
        let t = planner.plan(0, 40, |_| 50);
        assert!(matches!(t, SpillTarget::Node(_)));
    }
}
