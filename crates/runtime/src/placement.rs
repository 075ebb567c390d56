//! Task-placement policies.
//!
//! The centralized scheduler delegates every "which node runs this
//! task?" decision to a [`Placer`]: the [`PlacementPolicy`] config knob
//! and a cursor, with one `place` that matches on the policy. Three
//! classic policies ship from the paper's experiments (data-centric,
//! load-only, round-robin) plus two scale-oriented ones:
//!
//! - [`PlacementPolicy::LoadAware`] — TD-Orch-style power-of-k-choices:
//!   instead of scanning every eligible node, sample `k` candidates
//!   deterministically and trade locality against queue depth among
//!   them. O(k) per decision regardless of cluster size.
//! - [`PlacementPolicy::WorkStealing`] — idle-first: an idle node
//!   "pulls" the next ready task (rotating among idle nodes so pulls
//!   spread), falling back to least-loaded when nobody is idle. The
//!   cluster adds the second half of the protocol: a task parked behind
//!   a busy node's queue may be stolen by an idle peer (see
//!   `Cluster::on_try_start`).
//!
//! # Determinism and failover
//!
//! Every policy is a pure function of `(eligible, facts, cursor)`: no
//! wall clock, no ambient randomness. The cursor is the placer's only
//! state, and a newly elected scheduler keeps the placer as the dead one
//! left it, so, e.g., round-robin resumes where the dead scheduler
//! stopped instead of re-placing from the start of the rotation.

use skadi_dcsim::topology::NodeId;

/// How the centralized scheduler places a ready task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Move compute to data: prefer the node holding the most input
    /// bytes, then the least-loaded (the paper's data-centric
    /// scheduling).
    DataCentric,
    /// Ignore data location: least-loaded node first.
    LoadOnly,
    /// Blind rotation (the pathological baseline).
    RoundRobin,
    /// Power-of-k-choices sampling: score `k` deterministic samples by
    /// locality traded against queue depth, pick the best. Scales to
    /// clusters where scanning every node per decision is too slow.
    LoadAware,
    /// Idle-first: idle nodes pull ready tasks (rotating), busy
    /// clusters degrade to least-loaded; the cluster also lets idle
    /// nodes steal tasks parked behind busy peers.
    WorkStealing,
}

impl PlacementPolicy {
    /// Every policy, in a stable order (bench sweeps iterate this).
    pub const ALL: [PlacementPolicy; 5] = [
        PlacementPolicy::DataCentric,
        PlacementPolicy::LoadOnly,
        PlacementPolicy::RoundRobin,
        PlacementPolicy::LoadAware,
        PlacementPolicy::WorkStealing,
    ];

    /// Parses the kebab-case name used by `Display`, CLI flags, and
    /// config files.
    pub fn parse(s: &str) -> Option<PlacementPolicy> {
        match s {
            "data-centric" => Some(PlacementPolicy::DataCentric),
            "load-only" => Some(PlacementPolicy::LoadOnly),
            "round-robin" => Some(PlacementPolicy::RoundRobin),
            "load-aware" => Some(PlacementPolicy::LoadAware),
            "work-stealing" => Some(PlacementPolicy::WorkStealing),
            _ => None,
        }
    }
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlacementPolicy::DataCentric => "data-centric",
            PlacementPolicy::LoadOnly => "load-only",
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::LoadAware => "load-aware",
            PlacementPolicy::WorkStealing => "work-stealing",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for PlacementPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PlacementPolicy::parse(s).ok_or_else(|| {
            format!(
                "unknown placement policy {s:?}; expected one of \
                 data-centric, load-only, round-robin, load-aware, work-stealing"
            )
        })
    }
}

/// Node facts the placement decision reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFacts {
    /// Bytes of the task's inputs already resident on the node.
    pub local_input_bytes: u64,
    /// Tasks queued or running on the node.
    pub load: u32,
    /// Free execution slots right now.
    pub free_slots: u32,
}

/// SplitMix64: a tiny, stable mixing function. Used to derive the
/// power-of-k sample positions from the decision cursor so sampling is
/// reproducible (and survives failover with the cursor).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of candidates the power-of-k policy samples per decision.
const K_CHOICES: usize = 4;

/// One queued task is worth this many bytes of locality: a candidate
/// with `load` queued tasks must hold `load * LOCALITY_TRADE_BYTES`
/// more input bytes than an idle one to win.
const LOCALITY_TRADE_BYTES: u64 = 4 << 20;

/// The `k` distinct power-of-k sample positions for decision `cursor`
/// over a list of `len` nodes (all positions when `len <= k`).
fn samples(cursor: u64, len: usize) -> Vec<usize> {
    if len <= K_CHOICES {
        return (0..len).collect();
    }
    let mut picked: Vec<usize> = Vec::with_capacity(K_CHOICES);
    for j in 0..K_CHOICES as u64 {
        let mut idx = (splitmix64(cursor.wrapping_mul(K_CHOICES as u64).wrapping_add(j))
            % len as u64) as usize;
        // Linear-probe past duplicates; k << len keeps this short.
        while picked.contains(&idx) {
            idx = (idx + 1) % len;
        }
        picked.push(idx);
    }
    picked
}

/// Least load, then most free slots, then lowest ID.
fn least_loaded(eligible: &[NodeId], facts: impl Fn(NodeId) -> NodeFacts) -> Option<NodeId> {
    eligible.iter().copied().min_by_key(|n| {
        let f = facts(*n);
        (f.load, std::cmp::Reverse(f.free_slots), *n)
    })
}

/// The centralized placement engine: a policy and its cursor.
///
/// The cursor counts the decisions that rotate or sample — every
/// round-robin and power-of-k decision, and every work-stealing decision
/// that finds an idle node; data-centric and load-only never move it. It
/// is the scheduler metadata the peers replicate, so a newly elected
/// scheduler resumes the rotation where the dead one stopped instead of
/// re-placing from its start (double-placing under round-robin).
#[derive(Debug, Clone)]
pub struct Placer {
    policy: PlacementPolicy,
    cursor: u64,
}

impl Placer {
    /// Creates a placer with the given policy.
    pub fn new(policy: PlacementPolicy) -> Self {
        Placer { policy, cursor: 0 }
    }

    /// Picks a node among `eligible` (must be non-empty to return Some).
    /// `facts` supplies per-node information; a policy touches as few
    /// nodes as it can, so the closure may be expensive.
    pub fn place(
        &mut self,
        eligible: &[NodeId],
        facts: impl Fn(NodeId) -> NodeFacts,
    ) -> Option<NodeId> {
        if eligible.is_empty() {
            return None;
        }
        match self.policy {
            // Most local bytes, then least load, then lowest ID.
            PlacementPolicy::DataCentric => eligible.iter().copied().min_by_key(|n| {
                let f = facts(*n);
                (std::cmp::Reverse(f.local_input_bytes), f.load, *n)
            }),
            PlacementPolicy::LoadOnly => least_loaded(eligible, facts),
            PlacementPolicy::RoundRobin => Some(self.rotate(eligible)),
            PlacementPolicy::LoadAware => {
                let picked = samples(self.cursor, eligible.len());
                self.cursor += 1;
                picked.into_iter().map(|i| eligible[i]).min_by_key(|n| {
                    let f = facts(*n);
                    // Queue depth priced in locality bytes; the node whose
                    // queue outweighs its locality the least wins. Ties:
                    // deeper locality, more free slots, lowest ID.
                    let score = (f.load as u64)
                        .saturating_mul(LOCALITY_TRADE_BYTES)
                        .saturating_sub(f.local_input_bytes);
                    (
                        score,
                        std::cmp::Reverse(f.local_input_bytes),
                        std::cmp::Reverse(f.free_slots),
                        *n,
                    )
                })
            }
            PlacementPolicy::WorkStealing => {
                let idle: Vec<NodeId> = eligible
                    .iter()
                    .copied()
                    .filter(|n| {
                        let f = facts(*n);
                        f.load == 0 && f.free_slots > 0
                    })
                    .collect();
                if idle.is_empty() {
                    return least_loaded(eligible, facts);
                }
                // Rotate through the idle set so consecutive pulls
                // spread: each idle node takes the next ready task in
                // turn.
                Some(self.rotate(&idle))
            }
        }
    }

    /// The next node of a rotation over `nodes` (non-empty).
    fn rotate(&mut self, nodes: &[NodeId]) -> NodeId {
        let n = nodes[(self.cursor % nodes.len() as u64) as usize];
        self.cursor += 1;
        n
    }

    /// The placement cursor (replicated to peers as scheduler metadata,
    /// so failover resumes the rotation).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn data_centric_follows_bytes() {
        let mut p = Placer::new(PlacementPolicy::DataCentric);
        let picked = p
            .place(&nodes(3), |n| NodeFacts {
                local_input_bytes: if n == NodeId(1) { 1000 } else { 0 },
                load: 5,
                free_slots: 1,
            })
            .unwrap();
        assert_eq!(picked, NodeId(1));
    }

    #[test]
    fn data_centric_breaks_ties_by_load() {
        let mut p = Placer::new(PlacementPolicy::DataCentric);
        let picked = p
            .place(&nodes(3), |n| NodeFacts {
                local_input_bytes: 0,
                load: if n == NodeId(2) { 0 } else { 9 },
                free_slots: 1,
            })
            .unwrap();
        assert_eq!(picked, NodeId(2));
    }

    #[test]
    fn load_only_ignores_bytes() {
        let mut p = Placer::new(PlacementPolicy::LoadOnly);
        let picked = p
            .place(&nodes(2), |n| NodeFacts {
                local_input_bytes: if n == NodeId(0) { 10_000 } else { 0 },
                load: if n == NodeId(0) { 3 } else { 1 },
                free_slots: 1,
            })
            .unwrap();
        assert_eq!(picked, NodeId(1));
    }

    #[test]
    fn round_robin_rotates() {
        let mut p = Placer::new(PlacementPolicy::RoundRobin);
        let f = |_| NodeFacts {
            local_input_bytes: 0,
            load: 0,
            free_slots: 1,
        };
        let seq: Vec<NodeId> = (0..4).map(|_| p.place(&nodes(2), f).unwrap()).collect();
        assert_eq!(seq, vec![NodeId(0), NodeId(1), NodeId(0), NodeId(1)]);
    }

    #[test]
    fn empty_eligible_returns_none() {
        for policy in PlacementPolicy::ALL {
            let mut p = Placer::new(policy);
            assert!(p
                .place(&[], |_| NodeFacts {
                    local_input_bytes: 0,
                    load: 0,
                    free_slots: 0
                })
                .is_none());
        }
    }

    #[test]
    fn every_policy_returns_an_eligible_node() {
        let eligible = nodes(17);
        for policy in PlacementPolicy::ALL {
            let mut p = Placer::new(policy);
            for round in 0..50u64 {
                let picked = p
                    .place(&eligible, |n| NodeFacts {
                        local_input_bytes: (n.0 as u64 * 37 + round) % 5000,
                        load: ((n.0 as u64 + round) % 7) as u32,
                        free_slots: (n.0 % 3) + 1,
                    })
                    .unwrap();
                assert!(
                    eligible.contains(&picked),
                    "{policy}: {picked} not eligible"
                );
            }
        }
    }

    #[test]
    fn load_aware_samples_are_deterministic_and_distinct() {
        let a = samples(42, 100);
        let b = samples(42, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), K_CHOICES);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), K_CHOICES, "samples must be distinct: {a:?}");
        // Small clusters degrade to a full scan.
        assert_eq!(samples(7, 3), vec![0, 1, 2]);
    }

    #[test]
    fn load_aware_trades_locality_against_queue_depth() {
        // Two nodes: one holds all the data but is deeply queued; the
        // other is idle. The idle node must win once the queue costs
        // more than the locality is worth.
        let two = nodes(2);
        let mut p = Placer::new(PlacementPolicy::LoadAware);
        let picked = p
            .place(&two, |n| {
                if n == NodeId(0) {
                    NodeFacts {
                        local_input_bytes: LOCALITY_TRADE_BYTES / 2,
                        load: 10,
                        free_slots: 0,
                    }
                } else {
                    NodeFacts {
                        local_input_bytes: 0,
                        load: 0,
                        free_slots: 4,
                    }
                }
            })
            .unwrap();
        assert_eq!(picked, NodeId(1));
        // With no queue pressure, locality wins.
        let mut p = Placer::new(PlacementPolicy::LoadAware);
        let picked = p
            .place(&two, |n| NodeFacts {
                local_input_bytes: if n == NodeId(0) { 1 << 20 } else { 0 },
                load: 0,
                free_slots: 4,
            })
            .unwrap();
        assert_eq!(picked, NodeId(0));
    }

    #[test]
    fn work_stealing_prefers_idle_and_rotates() {
        let mut p = Placer::new(PlacementPolicy::WorkStealing);
        // Nodes 1 and 3 idle; rotation alternates between them.
        let f = |n: NodeId| NodeFacts {
            local_input_bytes: 0,
            load: if n.0 % 2 == 1 { 0 } else { 2 },
            free_slots: 2,
        };
        let seq: Vec<NodeId> = (0..4).map(|_| p.place(&nodes(4), f).unwrap()).collect();
        assert_eq!(seq, vec![NodeId(1), NodeId(3), NodeId(1), NodeId(3)]);
        // Nobody idle: degrade to least-loaded.
        let picked = p
            .place(&nodes(4), |n| NodeFacts {
                local_input_bytes: 0,
                load: n.0 + 1,
                free_slots: 1,
            })
            .unwrap();
        assert_eq!(picked, NodeId(0));
    }

    #[test]
    fn only_rotating_and_sampling_decisions_move_the_cursor() {
        let idle = |_| NodeFacts {
            local_input_bytes: 0,
            load: 0,
            free_slots: 1,
        };
        let busy = |_| NodeFacts {
            local_input_bytes: 0,
            load: 1,
            free_slots: 0,
        };
        for (policy, steps) in [
            (PlacementPolicy::DataCentric, [0, 0]),
            (PlacementPolicy::LoadOnly, [0, 0]),
            (PlacementPolicy::RoundRobin, [1, 1]),
            (PlacementPolicy::LoadAware, [1, 1]),
            (PlacementPolicy::WorkStealing, [1, 0]),
        ] {
            let mut p = Placer::new(policy);
            p.place(&nodes(5), idle);
            assert_eq!(p.cursor(), steps[0], "{policy}: idle step");
            p.place(&nodes(5), busy);
            assert_eq!(p.cursor(), steps[0] + steps[1], "{policy}: busy step");
            p.place(&[], idle);
            assert_eq!(p.cursor(), steps[0] + steps[1], "{policy}: empty step");
        }
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in PlacementPolicy::ALL {
            let name = policy.to_string();
            assert_eq!(PlacementPolicy::parse(&name), Some(policy), "{name}");
            assert_eq!(name.parse::<PlacementPolicy>().ok(), Some(policy));
        }
        assert!(PlacementPolicy::parse("greedy").is_none());
        assert!("greedy".parse::<PlacementPolicy>().is_err());
    }
}
