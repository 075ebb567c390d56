//! The data plane: resolving a dispatched task's inputs, running a
//! finished task through the executor and committing its output, and
//! pricing what the caching layer spills.

use std::rc::Rc;

use skadi_dcsim::engine::EventQueue;
use skadi_dcsim::span::Category;
use skadi_dcsim::time::{SimDuration, SimTime};
use skadi_dcsim::topology::NodeId;
use skadi_store::placement::SpillEvent;
use skadi_store::spill::SpillTarget;

use super::send::{Carry, Rec, Tally, UNTRACED};
use super::table::{EcPlacement, Slot, StagedInputs};
use super::{node_rate, Cluster, Event};
use crate::config::{Deployment, FtMode};
use crate::error::RuntimeError;
use crate::executor::ReadyTask;
use crate::resolve::{resolve, ResolveScenario, ResolveSpanCtx};
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
                consumers
                    .map(|(c, _)| system(*c))
                    .any(|s| s != system(producer))
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
        let Some(node) = rec.at.node else {
            self.broken(t, "dispatched without a node");
            return;
        };
        let (consumer, inputs) = (rec.spec.id, Rc::clone(&rec.inputs));

        // Detect lost inputs before fetching.
        let missing = inputs
            .iter()
            .filter(|p| !self.input_available(**p, t))
            .count();
        if missing > 0 {
            self.recover_missing(now, t, missing, queue);
            return;
        }

        // Stage the input payloads now, while availability is guaranteed:
        // a producer reset between arrival and start must not leave the
        // running task without them. Staging shares buffers.
        let mut staged: StagedInputs = Vec::with_capacity(inputs.len());
        for &p in inputs.iter() {
            let producer = &self.tasks[p];
            let Some(payload) = &producer.at.payload else {
                self.broken(t, "arrived with available inputs but missing payloads");
                return;
            };
            staged.push((producer.spec.id, Rc::clone(payload)));
        }

        let umbrella = self.span_of(t);
        let mut available = now;
        for (&p, (_, payload)) in inputs.iter().zip(&staged) {
            // What this task reads of the producer's output: its part of
            // a shuffle or scatter, the whole output otherwise.
            let bytes = payload.edge_len(consumer);
            let producer = &self.tasks[p].at;
            let value_ready = producer.value_ready.unwrap_or(now);
            let t_in = if let (true, Some(d)) = (self.via_durable(p, Some(t)), self.nodes.durable) {
                // Durable read: first-byte latency + stream.
                let Some(durable_ready) = producer.durable_ready else {
                    self.broken(t, "an available durable input was never written");
                    return;
                };
                let start = now.max(durable_ready);
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
                let Some((obj, loc)) = producer
                    .object
                    .and_then(|o| Some((o, self.cache.get(o, node, now).ok()?)))
                else {
                    self.broken(t, "an available input is not in the caching layer");
                    return;
                };
                self.trace(now, now + loc.tier.access_latency(), |c| {
                    Rec::new("tier.get", "store", Category::TierAccess, umbrella)
                        .attr("input", c.task_label(p))
                        .attr("tier", loc.tier.label())
                        .attr("local", loc.local)
                });
                // The owner is always the current scheduler: an election
                // hands every stored object to the winner.
                let scenario = ResolveScenario {
                    owner: self.scheduler_node,
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
                    self.cfg.generation,
                    &mut self.tracer,
                    &ctx,
                );
                self.tracer.cover(umbrella, out.input_available);
                self.metrics.observe("stall", out.stall);
                // The fetched bytes now also live in the consumer's local
                // store (plasma semantics): later consumers read the
                // nearest copy instead of re-crossing the fabric.
                if !loc.local && self.cfg.cache_fetched_copies {
                    let size = payload.len().max(1);
                    if let Ok(report) = self.cache.put(obj, size, node, now) {
                        // A fetched copy can displace colder objects; those
                        // moves are priced like producer-side spills.
                        self.price_spills(now, &report.spilled);
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

        let at = &mut self.tasks[t].at;
        at.staged = Some(staged);
        at.input_ready_at = Some(available);
        queue.schedule_at(available, Event::TryStart(t, self.epoch(t)));
    }

    pub(super) fn on_finish(&mut self, now: SimTime, t: Slot, queue: &mut EventQueue<Event>) {
        if self.tasks[t].state() != TaskState::Running {
            return;
        }
        self.tasks
            .set_state(&mut self.nodes, t, TaskState::Finished);
        let at = &mut self.tasks[t].at;
        at.finished_at = Some(now);
        let (Some(node), Some(started)) = (at.node, at.started_at) else {
            self.broken(t, "finished without running");
            return;
        };
        let ran = now.saturating_since(started);
        self.nodes[node].busy_us += ran.as_micros_f64();
        self.metrics.bump("task_completions");
        if self.cfg.deployment != Deployment::Serverful {
            // Pay-per-use cost accrues per task-second.
            self.serverless_task_cost += ran.as_secs_f64() * node_rate(&self.topo, node) + 0.0001;
        }

        // Data plane: the simulated completion runs the task through the
        // executor on its staged inputs, once, here. The payload's lengths
        // are what everything downstream is priced at — storage,
        // replication/EC sizing and cached copies the whole, each
        // consumer's transfer and pass-by-value inlining its own edge.
        let staged = self.tasks[t].at.staged.take().unwrap_or_default();
        let rec = &self.tasks[t];
        let ready = ReadyTask {
            task: rec.spec.id,
            inputs: staged.iter().map(|(p, payload)| (*p, &**payload)).collect(),
            consumers: rec
                .consumers
                .iter()
                .map(|&(c, e)| (self.tasks[c].spec.id, e))
                .collect(),
            output_bytes: rec.spec.output_bytes,
            link_bps: self.output_link_bps(t),
        };
        let payload = match self.executor.execute(&ready) {
            Ok(payload) => payload,
            Err(msg) => {
                self.fail_run(RuntimeError::Internal(format!(
                    "data plane: task t{}: {msg}",
                    self.tasks[t].spec.id.0
                )));
                return;
            }
        };
        let out_bytes = payload.len();
        self.tasks[t].at.payload = Some(Rc::new(payload));

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
        for &(c, _) in Rc::clone(&self.tasks[t].consumers).iter() {
            let rec = &mut self.tasks[c];
            if rec.state() == TaskState::Blocked && rec.pending_inputs > 0 {
                rec.pending_inputs -= 1;
                if rec.pending_inputs == 0 {
                    queue.schedule_at(notify, Event::Ready(c, rec.epoch));
                }
            }
        }
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

    /// Stores `t`'s output as an object in the caching layer (with a
    /// durable backstop), then replicates it per the FT mode.
    fn store_object(&mut self, now: SimTime, t: Slot, node: NodeId, bytes: u64) {
        let obj = self.idgen.next();
        self.tasks[t].at.object = Some(obj);
        match self.cache.put(obj, bytes.max(1), node, now) {
            Ok(report) => {
                self.price_spills(now, &report.spilled);
                self.tasks[t].at.value_ready = Some(now + report.tier.access_latency());
            }
            Err(_) => {
                // Cannot fit anywhere in memory: durable backstop.
                if let Some(d) = self.nodes.durable {
                    let backstop = Tally::Durable(None);
                    let done = self.send(now, (node, d), Carry::Bytes(bytes), backstop, UNTRACED);
                    if let Ok(report) = self.cache.put(obj, bytes.max(1), d, now) {
                        self.price_spills(now, &report.spilled);
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
        self.price_spills(now, &rep.spilled);
        for dest in rep.added {
            let span = |c: &Cluster| {
                Rec::new("replicate", "store", Category::Replicate, c.job_root)
                    .attr("task", c.task_label(t))
                    .attr("to", c.node_label(dest))
                    .attr("bytes", bytes)
            };
            let copy = Tally::Bytes("replica_bytes");
            self.send(now, (node, dest), Carry::Bytes(bytes), copy, Some(span));
        }
    }

    /// Prices and traces the spills induced by a cache insertion. Every
    /// path that puts bytes into the caching layer routes its report
    /// through here, or a spill would move bytes for free and untraced
    /// (where the object now lives the layer has already recorded).
    fn price_spills(&mut self, now: SimTime, spilled: &[SpillEvent]) {
        for s in spilled {
            let (dest, tally) = match s.to {
                SpillTarget::Node(dest) => (dest, Tally::Net),
                SpillTarget::Durable(dest) => (dest, Tally::Durable(None)),
                SpillTarget::Drop => continue,
            };
            let span = |c: &Cluster| {
                Rec::new("spill", "store", Category::Spill, c.job_root)
                    .attr("from", c.node_label(s.from))
                    .attr("to", c.node_label(dest))
                    .attr("bytes", s.bytes)
            };
            let spill = Carry::Bytes(s.bytes);
            self.send(now, (s.from, dest), spill, tally, Some(span));
        }
    }
}
