//! The scheduler's side of a task's life: eligibility, placement,
//! dispatch, slot claiming, work stealing, and the device autoscaler.

use std::collections::HashMap;

use skadi_dcsim::engine::EventQueue;
use skadi_dcsim::span::Category;
use skadi_dcsim::time::{SimDuration, SimTime};
use skadi_dcsim::topology::{NodeClass, NodeId};
use skadi_ir::Backend;

use super::send::{Carry, Rec, Tally};
use super::table::{backend_of, NodeTable, Slot};
use super::{Cluster, Event};
use crate::config::{Deployment, FtMode};
use crate::error::RuntimeError;
use crate::placement::{NodeFacts, PlacementPolicy};
use crate::scheduler::ScaleDecision;
use crate::task::TaskState;

/// Work-stealing bound: how many times one task attempt may be pulled
/// to a different node before it simply waits for a slot.
const MAX_STEALS_PER_ATTEMPT: u32 = 3;

/// The nodes a task may be placed on: a whole maintained alive-by-class
/// index (borrowed at the use site, never cloned per decision), or an
/// explicit filtered list.
enum Eligible {
    Alive(Backend),
    Listed(Vec<NodeId>),
}

impl Eligible {
    /// Takes the node table, not the cluster, so the slice can stay
    /// borrowed while the placer (another field) is borrowed mutably.
    fn nodes<'a>(&'a self, table: &'a NodeTable) -> &'a [NodeId] {
        match self {
            Eligible::Alive(b) => table.alive(*b),
            Eligible::Listed(v) => v,
        }
    }
}

impl Cluster {
    /// True if an accelerator is in the provisioned pool (provision time
    /// is respected at dispatch). Without an autoscaler every device is.
    fn warm(&self, n: NodeId) -> bool {
        self.nodes[n].device_available_at.is_some() || self.autoscaler.is_none()
    }

    /// The alive (and, for accelerators, warm) nodes of `system`'s silo
    /// that run `backend`, sorted.
    fn pool_nodes(&self, system: &str, backend: Backend) -> Vec<NodeId> {
        let pool = self.system_pools.get(system).map_or(&[][..], Vec::as_slice);
        pool.iter()
            .copied()
            .filter(|n| self.alive(*n) && backend_of(&self.topo.node(*n).kind) == Some(backend))
            .filter(|n| backend == Backend::Cpu || self.warm(*n))
            .collect()
    }

    /// Where `t` may run, and whether that is the CPU fallback for an
    /// accelerator task.
    fn eligible_nodes(&self, t: Slot) -> (Eligible, bool) {
        let spec = &self.tasks[t].spec;
        // An already-placed actor's methods must run on its node.
        if let Some(node) = spec.actor.and_then(|a| self.actor_node.get(&a)) {
            if self.alive(*node) {
                return (Eligible::Listed(vec![*node]), false);
            }
        }
        let serverful = self.cfg.deployment == Deployment::Serverful;
        let primary = if serverful {
            // Serverful silos are small, fixed pools; filter in place.
            Eligible::Listed(self.pool_nodes(&spec.system, spec.backend))
        } else if spec.backend == Backend::Cpu || self.autoscaler.is_none() {
            Eligible::Alive(spec.backend)
        } else {
            let alive = self.nodes.alive(spec.backend).iter().copied();
            Eligible::Listed(alive.filter(|n| self.warm(*n)).collect())
        };
        if !primary.nodes(&self.nodes).is_empty() {
            return (primary, false);
        }
        if spec.backend != Backend::Cpu {
            // With an autoscaler, cold devices are procurable: accel
            // tasks wait for the pool to warm instead of degrading to CPU.
            if self.autoscaler.is_some() && !self.nodes.all(spec.backend).is_empty() {
                return (Eligible::Listed(Vec::new()), false);
            }
            // CPU fallback: accel task orchestrated from a plain server.
            if self.cfg.cpu_fallback_slowdown.is_some() {
                let servers = if serverful {
                    Eligible::Listed(self.pool_nodes(&spec.system, Backend::Cpu))
                } else {
                    Eligible::Alive(Backend::Cpu)
                };
                return (servers, true);
            }
        }
        (Eligible::Listed(Vec::new()), false)
    }

    pub(super) fn on_ready(&mut self, now: SimTime, t: Slot, queue: &mut EventQueue<Event>) {
        if !matches!(self.tasks[t].state(), TaskState::Ready | TaskState::Blocked) {
            return;
        }
        self.tasks.set_state(t, TaskState::Ready);
        self.tasks[t].at.ready_at = Some(now);
        self.ensure_task_span(now, t);
        // Control plane down: the notification is parked (the task stays
        // `Ready`) and re-driven once a new scheduler is elected and has
        // reconstructed its state.
        if !self.scheduler_alive {
            return;
        }
        // Gang gating: hold members until the whole gang is ready.
        if let (true, Some(g)) = (self.cfg.gang_scheduling, self.tasks[t].spec.gang) {
            match self.gangs.member_ready(g, self.tasks[t].spec.id) {
                Ok(Some(members)) => {
                    for m in members {
                        let m = self.tasks.slot_of(m).expect("gang members are tasks");
                        self.place(now, m, queue);
                    }
                }
                Ok(None) => {}
                Err(undeclared) => self.fail_run(RuntimeError::UndeclaredGang(undeclared.0)),
            }
            return;
        }
        self.place(now, t, queue);
    }

    fn place(&mut self, now: SimTime, t: Slot, queue: &mut EventQueue<Event>) {
        let (eligible, fallback) = self.eligible_nodes(t);
        // Gather placement facts. The locality map is inverted once per
        // decision — O(inputs x replicas) — so the facts closure is an
        // O(1) lookup per candidate instead of re-walking every input's
        // location list for every node the policy inspects.
        let mut local_bytes: HashMap<NodeId, u64> = HashMap::new();
        for (p, b) in self.tasks[t].inputs.iter() {
            if let Some(o) = self.tasks[*p].at.object {
                for n in self.cache.locations(o) {
                    *local_bytes.entry(*n).or_insert(0) += *b;
                }
            }
        }
        let candidates = eligible.nodes(&self.nodes);
        let (nodes, res) = (&self.nodes, &self.res);
        let placed = self.placer.place(candidates, |n| NodeFacts {
            local_input_bytes: local_bytes.get(&n).copied().unwrap_or(0),
            load: nodes[n].load,
            free_slots: res.free_slots(n),
        });
        // An empty eligible set — or a placement policy declining to
        // choose — must degrade cleanly, never panic mid-simulation.
        let Some(node) = placed else {
            self.no_eligible_node(now, t, queue);
            return;
        };
        let parent = self.ensure_task_span(now, t);
        self.trace(now, now, |c| {
            let candidates = eligible.nodes(&c.nodes);
            let first: Vec<String> = candidates
                .iter()
                .take(8)
                .map(|n| c.node_label(*n))
                .collect();
            Rec::new("place", "scheduler", Category::Placement, parent)
                .attr("chosen", c.node_label(node))
                .attr("candidates", candidates.len())
                .attr("considered", first.join(","))
                .attr("policy", format!("{:?}", c.cfg.placement))
                .attr("fallback", fallback)
        });

        self.tasks.set_state(t, TaskState::Dispatched);
        self.tasks[t].at.node = Some(node);
        if let Some(actor) = self.tasks[t].spec.actor {
            self.actor_node.entry(actor).or_insert(node);
        }
        self.nodes[node].load += 1;
        if fallback {
            self.metrics.bump("cpu_fallback");
        }
        // Dispatch: scheduler raylet -> target raylet, routed per
        // generation, handled once a warming device is up.
        let span = |c: &Cluster| {
            Rec::new("dispatch", "net", Category::Dispatch, parent).attr("to", c.node_label(node))
        };
        let from_to = (self.scheduler_node, node);
        let dispatch = Carry::Dispatch { routed: true };
        let arrive = self.send(now, from_to, dispatch, Tally::Net, Some(span));
        queue.schedule_at(arrive, Event::Arrive(t, self.epoch(t)));
    }

    /// No node can currently run `t`. Park it when capacity is due back
    /// (an autoscaler can warm a device, or a candidate node is scheduled
    /// to recover); otherwise the loss is permanent and the task fails
    /// cleanly — under a recovery-capable FT mode that is fatal for the
    /// run, never a silent partial result (and never a panic).
    fn no_eligible_node(&mut self, now: SimTime, t: Slot, queue: &mut EventQueue<Event>) {
        let backend = self.tasks[t].spec.backend;
        let retry = Event::Ready(t, self.epoch(t));
        if !self.nodes.alive(backend).is_empty() {
            if let Some(scaler) = &self.autoscaler {
                // Wait for the autoscaler to warm a device.
                queue.schedule_at(now + scaler.interval(), retry);
                return;
            }
        }
        let mut candidates = self.nodes.all(backend).to_vec();
        // Accel tasks with CPU fallback also come back when a server does.
        if backend != Backend::Cpu && self.cfg.cpu_fallback_slowdown.is_some() {
            candidates.extend(self.nodes.all(Backend::Cpu));
        }
        if let Some(at) = self.active_plan.next_recovery_of(&candidates, now) {
            // Every candidate is down but one is scheduled to rejoin:
            // retry right after it does (same-instant FIFO delivers the
            // earlier-scheduled `Recover` before this `Ready`).
            self.metrics.bump("placement_waits");
            queue.schedule_at(at, retry);
            return;
        }
        // Permanent loss of every candidate.
        self.fail_task(t);
        if self.cfg.ft == FtMode::None {
            self.abandon_consumers(t);
        } else {
            self.fail_run(RuntimeError::TaskAbandoned(self.tasks[t].spec.id));
        }
    }

    pub(super) fn on_try_start(&mut self, now: SimTime, t: Slot, queue: &mut EventQueue<Event>) {
        let rec = &self.tasks[t];
        if rec.state() != TaskState::Dispatched {
            return;
        }
        let node = rec.at.node.expect("dispatched");
        if !self.alive(node) {
            // The node died while we were waiting; re-place.
            self.retries += 1;
            self.reset_task(t, queue, now);
            return;
        }
        let slowdown = if rec.spec.backend != Backend::Cpu
            && self.topo.node(node).kind.class() == NodeClass::Server
        {
            self.cfg.cpu_fallback_slowdown.unwrap_or(1.0)
        } else {
            1.0
        };
        // Straggler injection: compute started inside a slowdown window
        // runs the whole task at the degraded rate.
        let straggle = self.active_plan.slowdown_factor(node, now);
        let dur = SimDuration::from_secs_f64(rec.spec.compute_us * slowdown * straggle / 1e6);
        let actor = rec.spec.actor;
        let epoch = rec.epoch;
        // Actor methods execute one at a time, in readiness order.
        if let Some(busy_until) = actor.and_then(|a| self.actor_busy_until.get(&a)) {
            if *busy_until > now {
                queue.schedule_at(*busy_until, Event::TryStart(t, epoch));
                return;
            }
        }
        if self.res.try_claim_slot(node, now + dur) {
            self.tasks.set_state(t, TaskState::Running);
            self.tasks[t].at.started_at = Some(now);
            if let Some(actor) = actor {
                self.actor_busy_until.insert(actor, now + dur);
            }
            self.compute_total += dur;
            self.metrics.observe("task.run", dur);
            if let Some(r) = self.tasks[t].at.ready_at {
                self.metrics.observe("task.wait", now.saturating_since(r));
            }
            let umbrella = self.span_of(t);
            let inputs_ready = self.tasks[t].at.input_ready_at.unwrap_or(now).min(now);
            self.trace(inputs_ready, now, |c| {
                Rec::new("wait", c.node_label(node), Category::Wait, umbrella)
            });
            self.trace(now, now + dur, |c| {
                Rec::new("run", c.node_label(node), Category::Run, umbrella)
            });
            self.record_device_gauge(now);
            queue.schedule_at(now + dur, Event::Finish(t, epoch));
            return;
        }
        // Work stealing: instead of parking behind the busy node's
        // queue, an idle eligible peer pulls the dispatch. Actor
        // methods stay pinned, and the steal budget bounds
        // ping-ponging between nodes that fill up concurrently.
        if self.cfg.placement == PlacementPolicy::WorkStealing
            && actor.is_none()
            && self.tasks[t].at.steals < MAX_STEALS_PER_ATTEMPT
        {
            if let Some(thief) = self.find_thief(t, node) {
                self.steal(now, t, node, thief, queue);
                return;
            }
        }
        // Guard against pathological same-instant retries.
        let retry = self
            .res
            .earliest_slot(node, now)
            .max(now + SimDuration::from_nanos(100));
        queue.schedule_at(retry, Event::TryStart(t, epoch));
    }

    /// An idle eligible peer that can pull `t` off `loser`'s queue: a
    /// free execution slot and nothing queued, lowest ID for
    /// determinism. `None` when the whole eligible set is saturated.
    fn find_thief(&self, t: Slot, loser: NodeId) -> Option<NodeId> {
        let (eligible, _) = self.eligible_nodes(t);
        let idle = |n: &NodeId| self.res.free_slots(*n) > 0 && self.nodes[*n].load == 0;
        eligible
            .nodes(&self.nodes)
            .iter()
            .copied()
            .filter(|n| *n != loser)
            .find(idle)
    }

    /// Moves `t`'s dispatch from the loaded `loser` to the idle `thief`.
    fn steal(
        &mut self,
        now: SimTime,
        t: Slot,
        loser: NodeId,
        thief: NodeId,
        queue: &mut EventQueue<Event>,
    ) {
        self.metrics.bump("task_steals");
        let at = &mut self.tasks[t].at;
        at.steals += 1;
        at.node = Some(thief);
        // Inputs staged on the loser are stale; the thief re-resolves
        // them on arrival (and pays for it).
        at.staged = None;
        self.nodes[loser].load = self.nodes[loser].load.saturating_sub(1);
        self.nodes[thief].load += 1;
        // One (unrouted) message: the thief pulls the dispatch record from
        // the loaded raylet, then the normal arrival path stages inputs
        // on the new node.
        let span = |c: &Cluster| {
            Rec::new("steal", "scheduler", Category::Dispatch, c.span_of(t))
                .attr("from", c.node_label(loser))
                .attr("to", c.node_label(thief))
        };
        let pull = Carry::Dispatch { routed: false };
        let arrive = self.send(now, (loser, thief), pull, Tally::Net, Some(span));
        queue.schedule_at(arrive, Event::Arrive(t, self.epoch(t)));
    }

    pub(super) fn on_autoscale(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        let Some(scaler) = &self.autoscaler else {
            return;
        };
        let (interval, delay) = (scaler.interval(), scaler.provision_delay());
        // The autoscaler is scheduler-resident: ticks elapse without
        // decisions while the control plane is down (the elected
        // scheduler resyncs the pool when it takes over).
        let mut decision = ScaleDecision::Hold;
        if self.scheduler_alive {
            // Queue depth: accel-backend tasks not yet running.
            let waiting = |s: TaskState| matches!(s, TaskState::Ready | TaskState::Dispatched);
            let queue_depth = self
                .tasks
                .iter()
                .filter(|(_, r)| r.spec.backend != Backend::Cpu && waiting(r.state()))
                .count() as u32;
            let busy: u32 = self.provisioned().map(|d| self.nodes[d].load).sum();
            if let Some(scaler) = self.autoscaler.as_mut() {
                decision = scaler.evaluate(now, queue_depth, busy);
            }
        }
        match decision {
            ScaleDecision::Up(n) => {
                // Dead devices cannot be provisioned; they become
                // candidates again once they recover.
                let cold =
                    |d: &NodeId| self.nodes[*d].device_available_at.is_none() && self.alive(*d);
                let cold: Vec<NodeId> = self.nodes.accels.iter().copied().filter(cold).collect();
                for d in cold.into_iter().take(n as usize) {
                    self.nodes[d].device_available_at = Some(now + delay);
                    self.metrics.bump("devices_provisioned");
                    self.trace(now, now + delay, |c| autoscale_span(c, "provision", d));
                }
            }
            ScaleDecision::Down(n) => {
                let idle: Vec<NodeId> = self
                    .provisioned()
                    .filter(|d| self.nodes[*d].load == 0)
                    .collect();
                for d in idle.into_iter().take(n as usize) {
                    self.nodes[d].device_available_at = None;
                    self.metrics.bump("devices_retired");
                    self.trace(now, now, |c| autoscale_span(c, "retire", d));
                }
            }
            ScaleDecision::Hold => {}
        }
        if !self.job_done() {
            queue.schedule_at(now + interval, Event::Autoscale);
        }
    }

    /// The provisioned (warm or warming) accelerators, in ID order.
    pub(super) fn provisioned(&self) -> impl Iterator<Item = NodeId> + '_ {
        let warm = |d: &NodeId| self.nodes[*d].device_available_at.is_some();
        self.nodes.accels.iter().copied().filter(warm)
    }
}

fn autoscale_span(c: &Cluster, name: &str, device: NodeId) -> Rec {
    Rec::new(name, "autoscaler", Category::Autoscale, c.job_root)
        .attr("device", c.node_label(device))
}
