//! Failure handling: node death, lineage resets, and clean abandonment.
//!
//! Lineage needs no log of its own: a task's row keeps its spec and its
//! producers, so [`Cluster::reset_task`] re-derives the transitive
//! closure of lost work from current availability.

use std::rc::Rc;

use skadi_dcsim::engine::EventQueue;
use skadi_dcsim::span::Category;
use skadi_dcsim::time::SimTime;
use skadi_dcsim::topology::NodeId;

use super::send::Rec;
use super::table::Slot;
use super::{Cluster, Event};
use crate::config::FtMode;
use crate::error::RuntimeError;
use crate::task::TaskState;

impl Cluster {
    /// Takes an attempt that was in `state` off its node: the node's
    /// load drops, and a running attempt hands back its compute slot (a
    /// node that later rejoins "empty-handed" would otherwise still
    /// report the dead task's claim).
    pub(super) fn vacate(&mut self, node: Option<NodeId>, state: TaskState) {
        let Some(node) = node else { return };
        if matches!(state, TaskState::Dispatched | TaskState::Running) {
            self.nodes[node].load = self.nodes[node].load.saturating_sub(1);
        }
        if state == TaskState::Running {
            let _ = self.res.release_slot(node);
        }
    }

    /// Terminally fails `t` and vacates its node.
    pub(super) fn fail_task(&mut self, t: Slot) {
        let (node, prev) = (self.tasks[t].at.node, self.tasks[t].state());
        self.tasks.set_state(t, TaskState::Failed);
        self.abandoned += 1;
        self.vacate(node, prev);
    }

    /// `consumer` arrived to find `missing` of its inputs gone.
    pub(super) fn recover_missing(
        &mut self,
        now: SimTime,
        consumer: Slot,
        missing: usize,
        queue: &mut EventQueue<Event>,
    ) {
        if self.cfg.ft == FtMode::None {
            self.fail_task(consumer);
            self.abandon_consumers(consumer);
            return;
        }
        self.metrics.bump("lineage_recoveries");
        self.trace(now, now, |c| {
            Rec::new("recovery", "own", Category::Recovery, c.job_root)
                .attr("task", c.task_label(consumer))
                .attr("missing", missing)
        });
        // Reset the consumer: it re-blocks on the missing producers, and
        // reset_task re-drives those producers transitively.
        self.reset_task(consumer, queue, now);
    }

    /// Resets a task to run again: starts a fresh attempt, recomputes
    /// pending inputs from current availability, and re-enters the
    /// readiness machinery.
    pub(super) fn reset_task(&mut self, t: Slot, queue: &mut EventQueue<Event>, now: SimTime) {
        let prev = self.tasks[t].state();
        let old = self.tasks.reset_attempt(t);
        // Seal the aborted attempt's span; the retry opens a fresh one.
        if let Some(s) = old.span {
            self.tracer.attr(s, "aborted", "true");
            self.tracer.close(s, now);
        }
        // The ownership row goes with the cached copies: the re-run
        // registers the object afresh, and a stale row would otherwise
        // keep advertising holders that no longer exist.
        if let Some(obj) = old.object {
            let _ = self.cache.delete(obj);
            self.own.remove(obj);
        }
        self.vacate(old.node, prev);
        let rec = &self.tasks[t];
        if let (true, Some(g)) = (self.cfg.gang_scheduling, rec.spec.gang) {
            // Forget only this member's readiness. Wiping the whole
            // gang here would discard peers already gathered — after
            // the gang's first collective launch a lone re-executed
            // member could then never reach the release threshold.
            self.gangs.remove_waiting(g, rec.spec.id);
        }
        // Retry budget: a task that keeps getting reset (e.g. its node
        // dies every attempt) must eventually surface a clean error
        // instead of looping until the event budget trips.
        if rec.attempts > self.cfg.max_attempts {
            let id = rec.spec.id;
            self.tasks.set_state(t, TaskState::Failed);
            self.abandoned += 1;
            self.fail_run(RuntimeError::TaskAbandoned(id));
            return;
        }
        let (epoch, inputs) = (rec.epoch, Rc::clone(&rec.inputs));
        let missing: Vec<Slot> = inputs
            .iter()
            .map(|(p, _)| *p)
            .filter(|p| !self.input_available(*p, t))
            .collect();
        self.tasks[t].pending_inputs = missing.len();
        if missing.is_empty() {
            self.tasks.set_state(t, TaskState::Ready);
            queue.schedule_at(now, Event::Ready(t, epoch));
        } else {
            self.tasks.set_state(t, TaskState::Blocked);
        }
        // Re-create missing inputs: a Blocked task is only woken by its
        // producers finishing, so the producers must be re-driven here
        // (transitively, via their own resets).
        for p in missing {
            if matches!(
                self.tasks[p].state(),
                TaskState::Finished | TaskState::Failed
            ) {
                self.retries += 1;
                self.reset_task(p, queue, now);
            }
        }
    }

    pub(super) fn on_fail(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<Event>) {
        if !self.alive(node) {
            return;
        }
        self.nodes.set_failed(&self.topo, node, true);
        self.metrics.bump("node_failures");

        // Control-plane death: park scheduling and hold an election once
        // the failover delay elapses. A surviving server wins and
        // reconstructs the dead scheduler's state (see `on_elect`).
        if node == self.scheduler_node && self.scheduler_alive {
            self.scheduler_alive = false;
            self.metrics.bump("scheduler_failures");
            queue.schedule_at(now + self.cfg.election_delay, Event::Elect);
        }

        // A crashed accelerator leaves the warm pool immediately:
        // otherwise the autoscaler keeps counting it as provisioned
        // capacity and never scales up a replacement. On recovery the
        // device is cold again and re-enters through normal provisioning.
        if self.nodes[node].device_available_at.take().is_some() {
            if let Some(s) = self.autoscaler.as_mut() {
                s.device_lost(now);
            }
            self.metrics.bump("devices_lost");
        }

        // Actors living on the node restart elsewhere (their pin clears;
        // the next method placement re-pins).
        let busy = &mut self.actor_busy_until;
        self.actor_node.retain(|a, n| {
            if *n == node {
                busy.remove(a);
            }
            *n != node
        });

        // Objects on the node: replicas mask losses inside the cache.
        let lost_objects = self.cache.fail_node(node);
        self.own.fail_node(node);

        // EC shards on the node.
        for t in self.tasks.slots() {
            if let Some(p) = self.tasks[t].at.ec.as_mut() {
                p.shard_nodes.retain(|n| *n != node);
            }
        }

        // Abort resident tasks.
        let resident: Vec<Slot> = self
            .tasks
            .iter()
            .filter(|(_, r)| r.at.node == Some(node) && r.resident())
            .map(|(t, _)| t)
            .collect();
        for t in resident {
            // A recursive reset may already have re-driven this task.
            if !self.tasks[t].resident() {
                continue;
            }
            if self.cfg.ft == FtMode::None {
                self.fail_task(t);
                self.abandon_consumers(t);
            } else {
                self.retries += 1;
                self.reset_task(t, queue, now);
            }
        }

        // Eagerly re-create lost *job outputs* (no consumers to trigger
        // lazy recovery).
        if self.cfg.ft != FtMode::None {
            let lost_outputs: Vec<Slot> = self
                .tasks
                .iter()
                .filter(|(_, r)| r.consumers.is_empty())
                .filter(|(_, r)| r.at.object.is_some_and(|o| lost_objects.contains(&o)))
                .map(|(t, _)| t)
                .collect();
            for t in lost_outputs {
                if self.tasks[t].state() == TaskState::Finished {
                    self.retries += 1;
                    self.reset_task(t, queue, now);
                }
            }
        }
    }

    /// `FtMode::None`: a failed task's transitive consumers can never
    /// run; fail them now so the job terminates cleanly instead of
    /// stranding `Blocked` tasks after the event queue drains.
    pub(super) fn abandon_consumers(&mut self, root: Slot) {
        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            for &c in Rc::clone(&self.tasks[t].consumers).iter() {
                if self.tasks[c].state() == TaskState::Blocked {
                    self.fail_task(c);
                    stack.push(c);
                }
            }
        }
    }
}
