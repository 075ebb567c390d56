//! The debug invariant checker and the output manifest.
//!
//! Two conditions hold by construction and are only recounted here as a
//! tripwire: `unfinished` (every state change goes through
//! `TaskTable::set_state`) and the alive-by-class indexes (every
//! liveness change goes through `NodeTable::set_failed`). The rest
//! cross-checks bookkeeping that lives in *different* structures — the
//! task table against node load and compute slots, the caching layer
//! against the ownership table — which no single type can enforce.

use skadi_dcsim::engine::EventQueue;
use skadi_dcsim::topology::NodeId;

use super::{Cluster, Event};
use crate::task::{TaskId, TaskState};

impl Cluster {
    /// Per-task outcome digest of the last run: `(task, finished, output
    /// bytes)`, sorted. Two runs of the same job are output-equivalent
    /// iff their manifests are equal — the chaos harness compares a
    /// failure-injected run against the failure-free baseline with this.
    pub fn output_manifest(&self) -> Vec<(TaskId, bool, u64)> {
        self.tasks
            .iter()
            .map(|(_, r)| {
                let finished = r.state() == TaskState::Finished;
                (r.spec.id, finished, r.spec.output_bytes)
            })
            .collect()
    }

    /// The debug invariant checker (`RuntimeConfig::debug_invariants`):
    /// runs after every event and cross-checks the cluster's redundant
    /// bookkeeping. Any `Err` means a recovery-path bug, not a user
    /// error.
    pub(super) fn check_invariants(&self, queue: &EventQueue<Event>) -> Result<(), String> {
        // No task may sit Dispatched/Running on a failed node, and the
        // per-node load/slot counters must match the task table.
        let mut expect_load = vec![0u32; self.topo.len()];
        let mut expect_running = vec![0u32; self.topo.len()];
        for (_, r) in self.tasks.iter().filter(|(_, r)| r.resident()) {
            let (id, state) = (r.spec.id, r.state());
            let Some(n) = r.at.node else {
                return Err(format!("task {id} is {state:?} without a node"));
            };
            if !self.alive(n) {
                return Err(format!("task {id} is {state:?} on failed node {}", n.0));
            }
            expect_load[n.index()] += 1;
            if state == TaskState::Running {
                expect_running[n.index()] += 1;
            }
        }
        for n in (0..self.topo.len() as u32).map(NodeId) {
            let (have, want) = (self.nodes[n].load, expect_load[n.index()]);
            if have != want {
                return Err(format!(
                    "node {} records load {have} but {want} resident tasks",
                    n.0
                ));
            }
            let claimed = self
                .res
                .total_slots(n)
                .saturating_sub(self.res.free_slots(n));
            let running = expect_running[n.index()];
            if claimed != running {
                return Err(format!(
                    "node {} has {claimed} claimed slots but {running} running tasks",
                    n.0
                ));
            }
        }
        // The ownership table and the caching layer must agree on who
        // holds each live object.
        let objects = || {
            self.tasks
                .iter()
                .filter_map(|(_, r)| Some((r.spec.id, r.at.object?)))
        };
        for (t, obj) in objects() {
            let mut cached: Vec<NodeId> = self.cache.locations(obj).to_vec();
            cached.sort();
            let mut owned: Vec<NodeId> = self
                .own
                .get(obj)
                .map(|e| e.locations.clone())
                .unwrap_or_default();
            owned.sort();
            if cached != owned {
                return Err(format!(
                    "object {} of task {} held by {cached:?} per cache but {owned:?} per ownership",
                    obj, t
                ));
            }
        }
        // A crashed device must not linger in the provisioned pool.
        for n in self.nodes.failed() {
            if self.nodes[n].device_available_at.is_some() {
                return Err(format!("failed device {} still provisioned", n.0));
            }
        }
        // A live control plane must sit on a live node; ownership rows
        // must be homed on the current scheduler (rows created during an
        // interregnum keep the dead scheduler as owner until the election
        // rehomes them, but `scheduler_node` only advances atomically
        // with that rehoming, so the identity holds at every event).
        if self.scheduler_alive && !self.alive(self.scheduler_node) {
            return Err(format!(
                "scheduler marked alive on failed node {}",
                self.scheduler_node.0
            ));
        }
        for (t, obj) in objects() {
            if let Ok(e) = self.own.get(obj) {
                if e.owner != self.scheduler_node {
                    return Err(format!(
                        "object {} of task {} owned by node {} but scheduler is node {}",
                        obj, t, e.owner.0, self.scheduler_node.0
                    ));
                }
            }
        }
        let recount = self.tasks.recount_unfinished();
        if recount != self.tasks.unfinished() {
            return Err(format!(
                "unfinished counter {} but {recount} non-terminal tasks",
                self.tasks.unfinished()
            ));
        }
        if !self.nodes.alive_index_consistent() {
            return Err("alive-by-class index disagrees with the failed flags".to_string());
        }
        // Progress: an empty queue with non-terminal tasks is a stall.
        if queue.is_empty() && !self.job_done() {
            return Err("event queue empty while tasks are unfinished".to_string());
        }
        Ok(())
    }
}
