//! The scheduler's side of a task's life: eligibility, placement,
//! dispatch, slot claiming, work stealing, and the device autoscaler.

use std::collections::HashMap;

use skadi_dcsim::engine::EventQueue;
use skadi_dcsim::span::Category;
use skadi_dcsim::time::{SimDuration, SimTime};
use skadi_dcsim::topology::{NodeClass, NodeId};
use skadi_ir::Backend;

use super::send::{Carry, Rec, Tally};
use super::table::{backend_of, NodeTable, Slot, TaskSlot};
use super::{Actor, Cluster, Event};
use crate::config::{Deployment, FtMode};
use crate::error::RuntimeError;
use crate::placement::{NodeFacts, PlacementPolicy};
use crate::scheduler::ScaleDecision;
use crate::task::TaskState;

/// Work-stealing bound: how many times one task attempt may be pulled
/// to a different node before it simply waits for a slot.
const MAX_STEALS_PER_ATTEMPT: u32 = 3;

/// How much slower an accelerator task runs when no device can take it
/// and it falls back to a CPU server that orchestrates the accelerator
/// remotely (models "no physical disaggregation / no DSA access").
const CPU_FALLBACK_SLOWDOWN: f64 = 8.0;

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
        if let Some(actor) = spec.actor.and_then(|a| self.actors.get(&a)) {
            if self.alive(actor.node) {
                return (Eligible::Listed(vec![actor.node]), false);
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
            let servers = if serverful {
                Eligible::Listed(self.pool_nodes(&spec.system, Backend::Cpu))
            } else {
                Eligible::Alive(Backend::Cpu)
            };
            return (servers, true);
        }
        (Eligible::Listed(Vec::new()), false)
    }

    pub(super) fn on_ready(&mut self, now: SimTime, t: Slot, queue: &mut EventQueue<Event>) {
        if !matches!(self.tasks[t].state(), TaskState::Ready | TaskState::Blocked) {
            return;
        }
        self.tasks.set_state(&mut self.nodes, t, TaskState::Ready);
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
                        match self.tasks.slot_of(m) {
                            Some(m) => self.place(now, m, queue),
                            None => self.broken(t, &format!("gang member {m} is not a task")),
                        }
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
        // Gather placement facts: each holding node counts the bytes the
        // task reads of each producer's stored payload. The locality map
        // is inverted once per decision — O(inputs x replicas) — so the
        // facts closure is an O(1) lookup per candidate instead of
        // re-walking every input's location list for every node the
        // policy inspects.
        let consumer = self.tasks[t].spec.id;
        let mut local_bytes: HashMap<NodeId, u64> = HashMap::new();
        for p in self.tasks[t].inputs.iter() {
            let at = &self.tasks[*p].at;
            if let (Some(o), Some(payload)) = (at.object, &at.payload) {
                let bytes = payload.edge_len(consumer);
                for n in self.cache.locations(o) {
                    *local_bytes.entry(*n).or_insert(0) += bytes;
                }
            }
        }
        let nodes = &self.nodes;
        let placed = self.placer.place(eligible.nodes(nodes), |n| NodeFacts {
            local_input_bytes: local_bytes.get(&n).copied().unwrap_or(0),
            load: nodes[n].resident(),
            free_slots: nodes[n].free_slots(),
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

        self.tasks.move_to(&mut self.nodes, t, node);
        self.tasks
            .set_state(&mut self.nodes, t, TaskState::Dispatched);
        if let Some(actor) = self.tasks[t].spec.actor {
            let busy_until = SimTime::ZERO;
            self.actors
                .entry(actor)
                .or_insert(Actor { node, busy_until });
        }
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
        if backend != Backend::Cpu {
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
        let Some(node) = rec.at.node else {
            self.broken(t, "dispatched without a node");
            return;
        };
        if !self.alive(node) {
            // The node died while we were waiting; re-place.
            self.retries += 1;
            self.reset_task(t, queue, now);
            return;
        }
        let actor = rec.spec.actor;
        let epoch = rec.epoch;
        // Actor methods execute one at a time, in readiness order.
        if let Some(a) = actor.and_then(|a| self.actors.get(&a)) {
            if a.busy_until > now {
                queue.schedule_at(a.busy_until, Event::TryStart(t, epoch));
                return;
            }
        }
        if self.nodes[node].free_slots() > 0 {
            let slowdown = if rec.spec.backend != Backend::Cpu
                && self.topo.node(node).kind.class() == NodeClass::Server
            {
                CPU_FALLBACK_SLOWDOWN
            } else {
                1.0
            };
            // Straggler injection: compute started inside a slowdown
            // window runs the whole task at the degraded rate.
            let straggle = self.active_plan.slowdown_factor(node, now);
            let Some(run) = run_us(rec) else {
                self.broken(t, "an input does not say how many rows it hands it");
                return;
            };
            let dur = SimDuration::from_secs_f64(run * slowdown * straggle / 1e6);
            let at = &mut self.tasks[t].at;
            at.started_at = Some(now);
            at.due = Some(now + dur);
            self.tasks.set_state(&mut self.nodes, t, TaskState::Running);
            // The actor was pinned when this method was dispatched.
            if let Some(a) = actor.and_then(|a| self.actors.get_mut(&a)) {
                a.busy_until = now + dur;
            }
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
        let retry = self.nodes[node]
            .slot_free_at(now)
            .max(now + SimDuration::from_nanos(100));
        queue.schedule_at(retry, Event::TryStart(t, epoch));
    }

    /// An idle eligible peer that can pull `t` off `loser`'s queue: a
    /// free execution slot and nothing queued, lowest ID for
    /// determinism. `None` when the whole eligible set is saturated.
    fn find_thief(&self, t: Slot, loser: NodeId) -> Option<NodeId> {
        let (eligible, _) = self.eligible_nodes(t);
        let idle = |n: &NodeId| self.nodes[*n].free_slots() > 0 && self.nodes[*n].resident() == 0;
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
        self.tasks.move_to(&mut self.nodes, t, thief);
        let at = &mut self.tasks[t].at;
        at.steals += 1;
        // Inputs staged on the loser are stale; the thief re-resolves
        // them on arrival (and pays for it).
        at.staged = None;
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
            let busy: u32 = self.provisioned().map(|d| self.nodes[d].resident()).sum();
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
                    .filter(|d| self.nodes[*d].resident() == 0)
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

/// The one price of a task's run time, in microseconds: the part of its
/// planned compute beyond its backend's launch scales with the rows its
/// staged inputs hand it, so at its planned rows — what the length-only
/// executor hands every task — it is `compute_us` exactly. A task with no
/// planned rows, or no input, runs for its `compute_us`. `None` when an
/// input's payload does not say how many rows it hands the task.
fn run_us(rec: &TaskSlot) -> Option<f64> {
    let (spec, planned) = (&rec.spec, rec.planned_rows);
    if planned == 0 || rec.inputs.is_empty() {
        return Some(spec.compute_us);
    }
    let staged = rec.at.staged.as_ref()?;
    let rows: u64 = staged
        .iter()
        .map(|(_, p)| p.edge_rows(spec.id))
        .sum::<Option<_>>()?;
    let scale = rows as f64 / planned as f64 - 1.0;
    Some(spec.compute_us + (spec.compute_us - spec.backend.launch_us()) * scale)
}

fn autoscale_span(c: &Cluster, name: &str, device: NodeId) -> Rec {
    Rec::new(name, "autoscaler", Category::Autoscale, c.job_root)
        .attr("device", c.node_label(device))
}
