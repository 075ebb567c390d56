//! The debug invariant checker and the output manifest.
//!
//! Three conditions hold by construction and are only recounted here as
//! a tripwire: `unfinished` (every state change goes through
//! `TaskTable::set_state`), each node's occupancy (its resident tasks and
//! the `due` times of its running ones change only with a task's state
//! or node, in `table`) and the alive-by-class indexes (every liveness
//! change goes through `NodeTable::set_failed`). The rest checks
//! conditions no table can enforce: no task resident on a dead node, no
//! dead device provisioned, a live scheduler on a live node, progress.
//! Where an object lives is not among them: it has one record, the
//! caching layer's, so there is nothing to cross-check.

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
    /// runs after every event and recounts the cluster's maintained
    /// bookkeeping. Any `Err` means a recovery-path bug, not a user
    /// error.
    pub(super) fn check_invariants(&self, queue: &EventQueue<Event>) -> Result<(), String> {
        // No task may sit Dispatched/Running on a failed node, and every
        // node's resident count and running finishes must recount from
        // the task table.
        let mut resident = vec![0u32; self.topo.len()];
        let mut finishes = vec![Vec::new(); self.topo.len()];
        for (_, r) in self.tasks.iter().filter(|(_, r)| r.resident()) {
            let (id, state) = (r.spec.id, r.state());
            let Some(n) = r.at.node else {
                return Err(format!("task {id} is {state:?} without a node"));
            };
            if !self.alive(n) {
                return Err(format!("task {id} is {state:?} on failed node {}", n.0));
            }
            resident[n.index()] += 1;
            if state == TaskState::Running {
                let Some(due) = r.at.due else {
                    return Err(format!("task {id} is Running without a due time"));
                };
                finishes[n.index()].push(due);
            }
        }
        for n in (0..self.topo.len() as u32).map(NodeId) {
            let (have, want) = (self.nodes[n].resident(), resident[n.index()]);
            if have != want {
                return Err(format!(
                    "node {} records {have} resident tasks but {want} recount",
                    n.0
                ));
            }
            let mut have = self.nodes[n].finishes().to_vec();
            let want = &mut finishes[n.index()];
            have.sort_unstable();
            want.sort_unstable();
            if have != *want {
                return Err(format!(
                    "node {} records running finishes {have:?} but {want:?} recount",
                    n.0
                ));
            }
            if have.len() as u32 > self.nodes[n].slots() {
                return Err(format!(
                    "node {} runs {} tasks on {} slots",
                    n.0,
                    have.len(),
                    self.nodes[n].slots()
                ));
            }
        }
        // A crashed device must not linger in the provisioned pool.
        for n in self.nodes.failed() {
            if self.nodes[n].device_available_at.is_some() {
                return Err(format!("failed device {} still provisioned", n.0));
            }
        }
        // A live control plane must sit on a live node.
        if self.scheduler_alive && !self.alive(self.scheduler_node) {
            return Err(format!(
                "scheduler marked alive on failed node {}",
                self.scheduler_node.0
            ));
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
