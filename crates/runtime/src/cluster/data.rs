//! The data plane: resolving a dispatched task's inputs, committing a
//! finished task's output (and running its real computation when an
//! executor is installed), and keeping the ownership table in step with
//! what the caching layer spills.

use std::rc::Rc;

use skadi_dcsim::engine::EventQueue;
use skadi_dcsim::span::Category;
use skadi_dcsim::time::{SimDuration, SimTime};
use skadi_dcsim::topology::{NodeId, NodeKind};
use skadi_ownership::resolve::{resolve, ResolveScenario, ResolveSpanCtx};
use skadi_ownership::table::{DeviceHandle, DeviceSlot};
use skadi_store::placement::SpillEvent;
use skadi_store::spill::SpillTarget;

use super::send::{Carry, Rec, Tally, UNTRACED};
use super::table::{EcPlacement, Slot, StagedInputs};
use super::{node_rate, Cluster, Event};
use crate::config::{Deployment, FtMode};
use crate::error::RuntimeError;
use crate::executor::{Payload, ReadyTask};
use crate::task::TaskState;

impl Cluster {
    /// True if `producer`'s output goes through durable storage on its way
    /// to `consumer` — or, with no consumer named, to any reader — which is
    /// the one place a deployment decides it: always when stateless, across
    /// a system boundary when serverful, never in the distributed runtime.
    /// A run that would need a store the topology lacks is refused before
    /// its first event.
    pub(super) fn via_durable(&self, producer: Slot, consumer: Option<Slot>) -> bool {
        let system = |s: Slot| &self.tasks[s].spec.system;
        match (self.cfg.deployment, consumer) {
            (Deployment::StatelessServerless, _) => true,
            (Deployment::Serverful, Some(c)) => system(producer) != system(c),
            (Deployment::Serverful, None) => {
                let consumers = self.tasks[producer].consumers.iter();
                consumers.map(|c| system(*c)).any(|s| s != system(producer))
            }
            (Deployment::DistributedRuntime, _) => false,
        }
    }

    /// True if the producer's output is still obtainable.
    pub(super) fn input_available(&self, producer: Slot, consumer: Slot) -> bool {
        let out = &self.tasks[producer].at;
        if self.via_durable(producer, Some(consumer)) {
            return out.durable_ready.is_some();
        }
        if let Some(p) = &out.ec {
            return p.shard_nodes.len() >= p.config.data;
        }
        out.object.is_some_and(|o| self.cache.contains(o))
    }

    pub(super) fn on_arrive(&mut self, now: SimTime, t: Slot, queue: &mut EventQueue<Event>) {
        let rec = &self.tasks[t];
        if rec.state() != TaskState::Dispatched {
            return;
        }
        let node = rec.at.node.expect("dispatched task has a node");
        let inputs = Rc::clone(&rec.inputs);

        // Detect lost inputs before fetching.
        let missing = inputs
            .iter()
            .filter(|(p, _)| !self.input_available(*p, t))
            .count();
        if missing > 0 {
            self.recover_missing(now, t, missing, queue);
            return;
        }

        // Stage the real input payloads now, while availability is
        // guaranteed: a producer reset between arrival and start must not
        // leave the running task without bytes. Staging shares buffers.
        if self.executor.is_some() {
            let staged: StagedInputs = inputs
                .iter()
                .filter_map(|(p, _)| {
                    let producer = &self.tasks[*p];
                    Some((producer.spec.id, Rc::clone(producer.at.payload.as_ref()?)))
                })
                .collect();
            if staged.len() != inputs.len() {
                self.fail_run(RuntimeError::Internal(format!(
                    "data plane: task t{} arrived with available inputs but missing payloads",
                    self.tasks[t].spec.id.0
                )));
                return;
            }
            self.tasks[t].at.staged = Some(staged);
        }

        let route = self.cfg.generation.route_policy();
        let umbrella = self.span_of(t);
        let mut available = now;
        for &(p, estimate) in inputs.iter() {
            // The producer's measured payload when the data plane
            // executed it, the edge's estimate otherwise.
            let bytes = self.tasks.output_size(p, estimate);
            let producer = &self.tasks[p].at;
            let value_ready = producer.value_ready.unwrap_or(now);
            let t_in = if let (true, Some(d)) = (self.via_durable(p, Some(t)), self.nodes.durable) {
                // Durable read: first-byte latency + stream.
                let start = now.max(producer.durable_ready.expect("availability checked above"));
                let span = |c: &Cluster| {
                    Rec::new("durable.read", "net", Category::Data, umbrella)
                        .attr("input", c.task_label(p))
                        .attr("bytes", bytes)
                };
                let read = Tally::Durable(Some("durable_reads"));
                self.send(start, (d, node), Carry::Bytes(bytes), read, Some(span))
            } else if bytes <= self.cfg.pass_by_value_max && producer.ec.is_none() {
                // Pass-by-value: the bytes rode inline in the dispatch
                // message; the input is available the moment the task
                // arrives at the raylet.
                self.metrics.bump("inlined_values");
                now
            } else if let Some(ec) = producer.ec.clone() {
                // Fetch k shards in parallel from surviving holders.
                let k = ec.config.data;
                let shard = Carry::Bytes((ec.size / k as u64).max(1));
                let (start, mut last) = (now.max(value_ready), now);
                for h in ec.shard_nodes.iter().take(k) {
                    last = last.max(self.send(start, (*h, node), shard, Tally::Net, UNTRACED));
                }
                // Decode at ~10 GiB/s.
                let done = last
                    + SimDuration::from_secs_f64(ec.size as f64 / (10.0 * (1u64 << 30) as f64));
                self.trace(now, done, |c| {
                    Rec::new("ec.fetch", "net", Category::Data, umbrella)
                        .attr("input", c.task_label(p))
                        .attr("bytes", bytes)
                        .attr("shards", k)
                });
                done
            } else {
                // The caching layer tells us where the best copy is.
                let obj = producer.object.expect("availability checked above");
                let loc = self
                    .cache
                    .get(obj, node, now)
                    .expect("availability checked above");
                self.trace(now, now + loc.tier.access_latency(), |c| {
                    Rec::new("tier.get", "store", Category::TierAccess, umbrella)
                        .attr("input", c.task_label(p))
                        .attr("tier", loc.tier.label())
                        .attr("local", loc.local)
                });
                // The owner row must exist for any live object; rows the
                // dead scheduler hosted were rehomed to the elected one.
                // Fabricating an owner would silently misprice the
                // resolution, so under `debug_invariants` it is an error.
                let owner = match self.own.owner_of(obj) {
                    Ok(o) => o,
                    Err(_) => {
                        if self.cfg.debug_invariants {
                            self.fail_run(RuntimeError::InvariantViolation(format!(
                                "object {obj} of input t{} has no owner row",
                                self.tasks[p].spec.id.0
                            )));
                        }
                        self.scheduler_node
                    }
                };
                let scenario = ResolveScenario {
                    owner,
                    producer: loc.node,
                    consumer: node,
                    bytes,
                    value_ready,
                    consumer_ready: now,
                };
                let (component, input) = (self.node_label(node), self.task_label(p));
                let ctx = ResolveSpanCtx {
                    parent: umbrella,
                    root: self.job_root,
                    component: &component,
                    input: &input,
                };
                let out = resolve(
                    self.cfg.resolution,
                    &mut self.net,
                    &scenario,
                    &route,
                    &mut self.tracer,
                    &ctx,
                );
                self.tracer.cover(umbrella, out.input_available);
                self.stall_total += out.stall;
                self.metrics.observe("stall", out.stall);
                // The fetched bytes now also live in the consumer's local
                // store (plasma semantics): later consumers read the
                // nearest copy instead of re-crossing the fabric.
                if !loc.local && self.cfg.cache_fetched_copies {
                    let size = self
                        .tasks
                        .output_size(p, self.tasks[p].spec.output_bytes)
                        .max(1);
                    if let Ok(report) = self.cache.put(obj, size, node, now) {
                        let _ = self.own.add_location(obj, node);
                        // A fetched copy can displace colder objects; those
                        // moves must be priced and the ownership table kept
                        // in step, same as producer-side spills.
                        self.sync_spills(now, &report.spilled);
                    }
                }
                out.input_available
            };
            available = available.max(t_in);
        }

        // Serverless cold start.
        if self.cfg.deployment == Deployment::StatelessServerless {
            let warm = available + self.cfg.cold_start;
            self.trace(available, warm, |c| {
                Rec::new(
                    "coldstart",
                    c.node_label(node),
                    Category::ColdStart,
                    umbrella,
                )
            });
            available = warm;
            self.metrics.bump("cold_starts");
        }

        self.tasks[t].at.input_ready_at = Some(available);
        queue.schedule_at(available, Event::TryStart(t, self.epoch(t)));
    }

    pub(super) fn on_finish(&mut self, now: SimTime, t: Slot, queue: &mut EventQueue<Event>) {
        if self.tasks[t].state() != TaskState::Running {
            return;
        }
        self.tasks.set_state(t, TaskState::Finished);
        let at = &mut self.tasks[t].at;
        at.finished_at = Some(now);
        let node = at.node.expect("running");
        let ran = now.saturating_since(at.started_at.expect("running"));
        self.vacate(Some(node), TaskState::Running);
        self.nodes[node].busy_us += ran.as_micros_f64();
        self.metrics.bump("task_completions");
        if self.cfg.deployment != Deployment::Serverful {
            // Pay-per-use cost accrues per task-second.
            self.serverless_task_cost += ran.as_secs_f64() * node_rate(&self.topo, node) + 0.0001;
        }

        // Data plane: the simulated completion also runs the shard's real
        // computation on the staged input payloads. The measured payload
        // length replaces the spec's estimate everywhere downstream —
        // storage, replication/EC sizing, transfer pricing, pass-by-value
        // inlining, and fetched-copy caching.
        if self.executor.is_some() {
            let result = match self.tasks[t].at.exec_result.take() {
                Some(r) => r,
                None => self.execute_batch(now, t, queue),
            };
            match result {
                Ok(payload) => self.tasks[t].at.payload = Some(Rc::new(payload)),
                Err(msg) => {
                    self.fail_run(RuntimeError::Internal(format!(
                        "data plane: task t{}: {msg}",
                        self.tasks[t].spec.id.0
                    )));
                    return;
                }
            }
        }
        let out_bytes = self.tasks.output_size(t, self.tasks[t].spec.output_bytes);

        self.record_device_gauge(now);
        self.store_output(now, t, node, out_bytes);

        // Notify the scheduler (owner) and wake consumers. With the
        // control plane down the message is lost on the wire; the
        // completion is re-learned during election-time reconstruction,
        // so consumers park at `now` and wait for the new scheduler.
        let notify = if self.scheduler_alive {
            let span = |c: &Cluster| Rec::new("notify", "net", Category::Control, c.span_of(t));
            let from_to = (node, self.scheduler_node);
            self.send(now, from_to, Carry::Control, Tally::Net, Some(span))
        } else {
            now
        };
        for &c in Rc::clone(&self.tasks[t].consumers).iter() {
            let rec = &mut self.tasks[c];
            if rec.state() == TaskState::Blocked && rec.pending_inputs > 0 {
                rec.pending_inputs -= 1;
                if rec.pending_inputs == 0 {
                    queue.schedule_at(notify, Event::Ready(c, rec.epoch));
                }
            }
        }
    }

    /// Batched execution: the first finish at a simulated instant also
    /// executes every other task finishing at that same instant (their
    /// `Finish` events are still pending in the queue), in one
    /// `execute_ready` call sorted by task ID. A parallel executor
    /// overlaps them on real threads; results for the peers wait in
    /// their slots until their own finish commits them — in the exact
    /// order the serial path would have, so pricing and every downstream
    /// byte are unchanged. Returns `t`'s own result.
    fn execute_batch(
        &mut self,
        now: SimTime,
        t: Slot,
        queue: &EventQueue<Event>,
    ) -> Result<Payload, String> {
        let mut batch: Vec<Slot> = vec![t];
        for ev in queue.pending_at(now) {
            if let Event::Finish(t2, ep) = *ev {
                let peer = &self.tasks[t2];
                if t2 != t
                    && ep == peer.epoch
                    && peer.state() == TaskState::Running
                    && peer.at.staged.is_some()
                    && peer.at.exec_result.is_none()
                {
                    batch.push(t2);
                }
            }
        }
        batch.sort_unstable();
        batch.dedup();
        let staged: Vec<StagedInputs> = batch
            .iter()
            .map(|&b| self.tasks[b].at.staged.take().unwrap_or_default())
            .collect();
        let ready: Vec<ReadyTask<'_>> = batch
            .iter()
            .zip(&staged)
            .map(|(&b, s)| ReadyTask {
                task: self.tasks[b].spec.id,
                inputs: s.iter().map(|(p, payload)| (*p, &**payload)).collect(),
                link_bps: self.output_link_bps(b),
            })
            .collect();
        let exec = self.executor.as_mut().expect("caller checked");
        let results = exec.execute_ready(&ready);
        let mut own = Err(format!(
            "data plane returned no result for t{}",
            self.tasks[t].spec.id.0
        ));
        for (b, r) in batch.into_iter().zip(results) {
            if b == t {
                own = r;
            } else {
                self.tasks[b].at.exec_result = Some(r);
            }
        }
        own
    }

    /// The modelled bytes per second of the link `t`'s output is written
    /// over: the durable store's when it is written durably, the NIC's
    /// otherwise. What the executor's compress-or-plain rule reads.
    fn output_link_bps(&self, t: Slot) -> u64 {
        match (self.tasks[t].at.node, self.nodes.durable) {
            (Some(node), Some(d)) if self.via_durable(t, None) => self.net.bandwidth(node, d),
            _ => self.links.nic_bandwidth_bps,
        }
    }

    /// Stores a finished task's output per the deployment and FT mode,
    /// setting `value_ready` (and `durable_ready` when applicable).
    fn store_output(&mut self, now: SimTime, t: Slot, node: NodeId, bytes: u64) {
        // Durable write when any consumer (or the deployment) needs it.
        if let (true, Some(d)) = (self.via_durable(t, None), self.nodes.durable) {
            let span = |c: &Cluster| {
                Rec::new("durable.write", "net", Category::Data, c.job_root)
                    .attr("task", c.task_label(t))
                    .attr("bytes", bytes)
            };
            let write = Tally::Durable(Some("durable_writes"));
            let done = self.send(now, (node, d), Carry::Bytes(bytes), write, Some(span));
            self.tasks[t].at.durable_ready = Some(done);
        }
        if self.cfg.deployment == Deployment::StatelessServerless {
            // Stateless functions keep nothing locally.
            self.tasks[t].at.value_ready = Some(now);
            return;
        }

        let FtMode::ErasureCoding(config) = self.cfg.ft else {
            self.store_object(now, t, node, bytes);
            return;
        };
        // Distribute k+m shards over servers and blades.
        let mut holders = self.nodes.alive_storage_hosts();
        holders.sort();
        let total = config.total();
        let (shard_nodes, ready) = if holders.is_empty() {
            // Every server and blade is down (e.g. correlated rack loss):
            // the only write target left is durable storage. With no
            // durable either, leave no placement; consumers will drive
            // recovery until the retry budget errors.
            let Some(d) = self.nodes.durable else {
                return;
            };
            let backstop = Tally::Durable(None);
            let done = self.send(now, (node, d), Carry::Bytes(bytes), backstop, UNTRACED);
            (vec![d; total], done)
        } else {
            let shard = (bytes / config.data as u64).max(1);
            let mut last = now;
            let shard_nodes: Vec<NodeId> = (0..total).map(|i| holders[i % holders.len()]).collect();
            for h in &shard_nodes {
                let tally = Tally::Bytes("ec_bytes");
                last = last.max(self.send(now, (node, *h), Carry::Bytes(shard), tally, UNTRACED));
            }
            self.trace(now, last, |c| {
                Rec::new("ec.write", "store", Category::EcWrite, c.job_root)
                    .attr("task", c.task_label(t))
                    .attr("shards", total)
                    .attr("bytes", shard * total as u64)
            });
            (shard_nodes, last)
        };
        let at = &mut self.tasks[t].at;
        at.ec = Some(EcPlacement {
            shard_nodes,
            size: bytes,
            config,
        });
        at.value_ready = Some(ready);
    }

    /// Registers `t`'s output as an object in the caching layer (with a
    /// durable backstop), then replicates it per the FT mode.
    fn store_object(&mut self, now: SimTime, t: Slot, node: NodeId, bytes: u64) {
        let obj = self.idgen.next();
        self.tasks[t].at.object = Some(obj);
        let _ = self.own.register(obj, self.scheduler_node);
        let device = match self.topo.node(node).kind {
            NodeKind::AccelDevice(..) => Some(DeviceSlot {
                device: node,
                handle: DeviceHandle(node.0),
            }),
            _ => None,
        };
        match self.cache.put(obj, bytes.max(1), node, now) {
            Ok(report) => {
                let _ = self.own.mark_ready(obj, bytes, node, device);
                self.sync_spills(now, &report.spilled);
                self.tasks[t].at.value_ready = Some(now + report.tier.access_latency());
            }
            Err(_) => {
                // Cannot fit anywhere in memory: durable backstop.
                if let Some(d) = self.nodes.durable {
                    let backstop = Tally::Durable(None);
                    let done = self.send(now, (node, d), Carry::Bytes(bytes), backstop, UNTRACED);
                    // Only record the durable location if the bytes
                    // actually landed — the ownership table must
                    // never advertise holders the stores disown.
                    if let Ok(report) = self.cache.put(obj, bytes.max(1), d, now) {
                        let _ = self.own.mark_ready(obj, bytes, d, None);
                        self.sync_spills(now, &report.spilled);
                    }
                    self.tasks[t].at.value_ready = Some(done);
                }
            }
        }
        // Replication: copy to rack-diverse holders, off the critical
        // path (priced, but value_ready unchanged).
        let FtMode::Replication(n @ 2..) = self.cfg.ft else {
            return;
        };
        let candidates = self.nodes.alive_storage_hosts();
        let Ok(rep) = self
            .cache
            .replicate(obj, (n - 1) as usize, &candidates, now)
        else {
            return;
        };
        self.sync_spills(now, &rep.spilled);
        for dest in rep.added {
            let span = |c: &Cluster| {
                Rec::new("replicate", "store", Category::Replicate, c.job_root)
                    .attr("task", c.task_label(t))
                    .attr("to", c.node_label(dest))
                    .attr("bytes", bytes)
            };
            let copy = Tally::Bytes("replica_bytes");
            self.send(now, (node, dest), Carry::Bytes(bytes), copy, Some(span));
            let _ = self.own.add_location(obj, dest);
        }
    }

    /// Prices, traces, and ownership-syncs the spills induced by a cache
    /// insertion. Every path that puts bytes into the caching layer must
    /// route its report through here, or the ownership table and the
    /// spill trace drift from what the stores actually hold.
    fn sync_spills(&mut self, now: SimTime, spilled: &[SpillEvent]) {
        for s in spilled {
            match s.to {
                SpillTarget::Node(dest) | SpillTarget::Durable(dest) => {
                    let tally = match s.to {
                        SpillTarget::Durable(_) => Tally::Durable(None),
                        _ => Tally::Net,
                    };
                    let span = |c: &Cluster| {
                        Rec::new("spill", "store", Category::Spill, c.job_root)
                            .attr("from", c.node_label(s.from))
                            .attr("to", c.node_label(dest))
                            .attr("bytes", s.bytes)
                    };
                    let spill = Carry::Bytes(s.bytes);
                    self.send(now, (s.from, dest), spill, tally, Some(span));
                    // Add before remove: dropping the old location first
                    // could transiently fail the value while the new copy
                    // already exists.
                    let _ = self.own.add_location(s.id, dest);
                    let _ = self.own.remove_location(s.id, s.from);
                }
                SpillTarget::Drop => {
                    let _ = self.own.remove_location(s.id, s.from);
                }
            }
        }
    }
}
