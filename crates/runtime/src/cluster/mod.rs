//! The event-driven cluster: control plane + data plane on the simulated
//! data center.
//!
//! [`Cluster::run`] executes a [`Job`] under a [`RuntimeConfig`] on a
//! [`Topology`], pricing every control message, future resolution, data
//! transfer, spill, cold start, and re-execution, and returns
//! [`JobStats`].
//!
//! ## Execution model
//!
//! Tasks move through `Blocked -> Ready -> Dispatched -> Running ->
//! Finished`. The centralized scheduler (initially resident on the first
//! server, like Ray's head node) learns of readiness via control
//! messages, places tasks with the configured policy, and dispatches
//! them to the target node's raylet. At the raylet, each input edge is resolved with
//! the configured protocol (pull or push, routed per Gen-1 or Gen-2);
//! the task starts when its inputs have arrived and an execution slot is
//! free, and finishes after its backend-specific compute time. Outputs
//! land in the caching layer (or durable storage, per deployment), which
//! may trigger spills to disaggregated memory.
//!
//! ## Failure handling
//!
//! Injected node failures abort resident tasks and drop the node's
//! cached objects. Losses are detected lazily when a consumer tries to
//! resolve a missing input (plus eagerly for job outputs), and repaired
//! per the configured [`FtMode`](crate::config::FtMode): lineage
//! re-execution, replication (loss masked by surviving copies), or
//! erasure coding (loss masked while at least `k` shards survive).
//!
//! The control plane itself is re-electable: when the scheduler's node
//! dies, readiness notifications park until a surviving server wins a
//! deterministic election (after `RuntimeConfig::election_delay`) and
//! reconstructs placement, gang, autoscaler, and ownership state by
//! querying every surviving raylet — each query a priced round trip, so
//! failover cost shows up in traces and stats. Control messages always
//! follow the *currently elected* scheduler. When capacity is lost
//! permanently (no recovery scheduled, nothing procurable), affected
//! tasks surface clean `TaskAbandoned`/`Stalled` errors instead of
//! hanging or panicking.
//!
//! ## Layout
//!
//! All per-task and per-node state lives in the two dense tables of
//! `table`; the event handlers are split by seam into `dispatch`
//! (eligibility, placement, start, stealing, autoscaling), `data`
//! (input resolution, completion, output storage, spills), `recovery`
//! (node failure, lineage resets, abandonment), `failover` (scheduler
//! election) and `invariants` (the debug checker and the output
//! manifest). None of them touches the fabric or the tracer directly:
//! `send` holds the one move primitive, `Cluster::send`, through which
//! every transfer and control message is priced (routed per generation
//! for dispatch), counted (durable trips, replica and EC bytes — each
//! only where the caller's `Tally` says so) and traced, and the one span
//! helper, `Cluster::trace`, whose closures build labels and attributes
//! only while tracing. This file holds the run loop and the statistics.

mod data;
mod dispatch;
mod failover;
mod invariants;
mod recovery;
mod send;
mod table;

use std::collections::{BTreeMap, BTreeSet, HashMap};

use skadi_dcsim::engine::EventQueue;
use skadi_dcsim::network::{LinkParams, Network};
use skadi_dcsim::resources::NodeResources;
use skadi_dcsim::span::{Category, SpanId, Tracer};
use skadi_dcsim::time::{SimDuration, SimTime};
use skadi_dcsim::topology::{AccelKind, NodeId, NodeKind, Topology};
use skadi_dcsim::trace::Metrics;
use skadi_ir::Backend;
use skadi_ownership::table::OwnershipTable;
use skadi_store::object::ObjectIdGen;
use skadi_store::placement::CachingLayer;
use skadi_store::policy::EvictionPolicy;
use skadi_store::spill::SpillPolicy;

use crate::config::{Deployment, RuntimeConfig};
use crate::error::RuntimeError;
use crate::executor::{Payload, TaskExecutor};
use crate::failure::FailurePlan;
use crate::job::{Job, JobStats};
use crate::placement::Placer;
use crate::scheduler::{Autoscaler, GangTracker};
use crate::task::{ActorId, TaskId, TaskState};

use send::Rec;
use table::{NodeTable, Slot, TaskTable};

/// Simulation events. Task events carry the task's epoch so events from
/// a superseded attempt are dropped on delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The scheduler learned the task is ready.
    Ready(Slot, u32),
    /// The dispatch reached the target raylet.
    Arrive(Slot, u32),
    /// Inputs are local; try to claim a slot and start.
    TryStart(Slot, u32),
    /// The task's compute completed.
    Finish(Slot, u32),
    /// A node dies.
    Fail(NodeId),
    /// A node rejoins (empty).
    Recover(NodeId),
    /// Autoscaler tick.
    Autoscale,
    /// Scheduler election fires (the failover delay elapsed).
    Elect,
}

/// Completion statistics for one job of a multi-job run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerJobStats {
    /// The job's name.
    pub name: String,
    /// When the job was submitted.
    pub arrival: SimTime,
    /// Submission-to-last-task-finish time.
    pub completion: SimDuration,
}

/// The simulated cluster.
pub struct Cluster {
    topo: Topology,
    cfg: RuntimeConfig,
    links: LinkParams,
    /// The installed data-plane executor, if any: the one thing a run
    /// inherits from the cluster it runs on. `None` keeps tasks
    /// payload-free, so every size is the spec's estimate.
    executor: Option<Box<dyn TaskExecutor>>,
    /// True until a run has used the world below.
    pristine: bool,

    net: Network,
    res: NodeResources,
    cache: CachingLayer,
    own: OwnershipTable,
    idgen: ObjectIdGen,
    tasks: TaskTable,
    nodes: NodeTable,

    placer: Placer,
    gangs: GangTracker,
    metrics: Metrics,
    tracer: Tracer,
    job_root: SpanId,
    scheduler_node: NodeId,
    /// False between the scheduler node's death and the election of a
    /// successor; readiness notifications park while the control plane
    /// is down.
    scheduler_alive: bool,
    /// Serverful silos: each system's nodes, sorted.
    system_pools: BTreeMap<String, Vec<NodeId>>,
    autoscaler: Option<Autoscaler>,

    /// The failure schedule of the run in progress (straggler windows are
    /// consulted at every task start).
    active_plan: FailurePlan,
    /// A fatal condition raised inside an event handler (e.g. a task
    /// exhausting its retry budget); surfaced as the run's error.
    fatal: Option<RuntimeError>,

    /// Where each actor lives (pinned at first placement).
    actor_node: HashMap<ActorId, NodeId>,
    /// Until when each actor is busy executing a method.
    actor_busy_until: HashMap<ActorId, SimTime>,

    durable_trips: u64,
    retries: u64,
    abandoned: u64,
    stall_total: SimDuration,
    compute_total: SimDuration,
    serverless_task_cost: f64,
}

impl Cluster {
    /// Builds a cluster over `topo` with the given configuration and
    /// default link parameters.
    pub fn new(topo: &Topology, cfg: RuntimeConfig) -> Self {
        Cluster::with_links(topo, cfg, LinkParams::default())
    }

    /// Builds a cluster with explicit link parameters.
    pub fn with_links(topo: &Topology, cfg: RuntimeConfig, links: LinkParams) -> Self {
        let spill_policy = SpillPolicy {
            // Gen-2 extends the caching layer to disaggregated memory;
            // Gen-1 and the baselines spill straight to durable storage.
            use_disagg_memory: matches!(cfg.generation, crate::config::Generation::Gen2)
                && cfg.deployment == Deployment::DistributedRuntime,
            allow_drop_for_lineage: false,
        };
        let nodes = NodeTable::new(topo);
        Cluster {
            net: Network::new(topo, links.clone()),
            res: NodeResources::new(topo),
            cache: CachingLayer::new(topo, EvictionPolicy::Lru, spill_policy),
            own: OwnershipTable::new(),
            idgen: ObjectIdGen::new(),
            tasks: TaskTable::default(),
            placer: Placer::new(cfg.placement),
            gangs: GangTracker::new(),
            metrics: Metrics::new(),
            tracer: Tracer::new(cfg.tracing),
            job_root: SpanId::NONE,
            scheduler_node: nodes
                .all(Backend::Cpu)
                .first()
                .copied()
                .unwrap_or(NodeId(0)),
            scheduler_alive: true,
            system_pools: BTreeMap::new(),
            autoscaler: cfg.autoscale.map(Autoscaler::new),
            active_plan: FailurePlan::none(),
            fatal: None,
            executor: None,
            pristine: true,
            actor_node: HashMap::new(),
            actor_busy_until: HashMap::new(),
            durable_trips: 0,
            retries: 0,
            abandoned: 0,
            stall_total: SimDuration::ZERO,
            compute_total: SimDuration::ZERO,
            serverless_task_cost: 0.0,
            nodes,
            topo: topo.clone(),
            cfg,
            links,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Installs a data-plane executor: every subsequent task completion
    /// also runs the task's real computation on its producers' stored
    /// payloads, and measured output sizes replace the specs'
    /// estimates in storage, transfer, and inlining decisions.
    pub fn set_executor(&mut self, exec: Box<dyn TaskExecutor>) {
        self.executor = Some(exec);
    }

    /// A finished task's stored payload from the last run (only present
    /// when an executor was installed), its bytes not yet made.
    pub fn task_output(&self, t: TaskId) -> Option<&Payload> {
        let s = self.tasks.slot_of(t)?;
        self.tasks[s].at.payload.as_deref()
    }

    /// A finished task's stored payload bytes from the last run (only
    /// present when an executor was installed), made on the first ask.
    pub fn task_payload(&self, t: TaskId) -> Option<&[u8]> {
        self.task_output(t).map(Payload::bytes)
    }

    /// A task's measured output size from the last run, if it executed
    /// through the data plane.
    pub fn measured_output_bytes(&self, t: TaskId) -> Option<u64> {
        self.task_output(t).map(Payload::len)
    }

    /// When a task started executing in the last run (experiment hook,
    /// e.g. for measuring gang start skew).
    pub fn task_started_at(&self, t: TaskId) -> Option<SimTime> {
        self.tasks[self.tasks.slot_of(t)?].at.started_at
    }

    /// When a task finished in the last run.
    pub fn task_finished_at(&self, t: TaskId) -> Option<SimTime> {
        self.tasks[self.tasks.slot_of(t)?].at.finished_at
    }

    /// Runs a job to completion (no failures).
    ///
    /// A run is a pure function of its inputs — the topology and
    /// configuration the cluster was built with, the job, and the
    /// failure plan: every run starts from the world [`Cluster::new`]
    /// builds, so running the same job twice on one cluster returns the
    /// same stats. Only the installed executor carries over.
    pub fn run(&mut self, job: &Job) -> Result<JobStats, RuntimeError> {
        self.run_with_failures(job, &FailurePlan::none())
    }

    /// Runs several jobs sharing this cluster, each submitted at its own
    /// arrival time — the consolidation scenario the paper's utilization
    /// argument is about. Returns per-job completion times plus combined
    /// stats.
    pub fn run_jobs(
        &mut self,
        jobs: &[(Job, SimTime)],
        failures: &FailurePlan,
    ) -> Result<(Vec<PerJobStats>, JobStats), RuntimeError> {
        // Renumber every job into one combined ID space, remembering each
        // job's arrival and member tasks.
        let mut combined: Vec<crate::task::TaskSpec> = Vec::new();
        let mut membership: Vec<(String, SimTime, Vec<TaskId>)> = Vec::new();
        let mut releases: HashMap<TaskId, SimTime> = HashMap::new();
        let mut offset = 0u64;
        for (job, arrival) in jobs {
            let (specs, next) = job.shifted(offset);
            offset = next;
            let roots = specs.iter().filter(|s| s.inputs.is_empty());
            releases.extend(roots.map(|s| (s.id, *arrival)));
            let members = specs.iter().map(|s| s.id).collect();
            membership.push((job.name.clone(), *arrival, members));
            combined.extend(specs);
        }
        let combined = Job::new("combined", combined)?;
        let mut stats = self.run_released(&combined, failures, &releases)?;
        let per_job: Vec<PerJobStats> = membership
            .into_iter()
            .map(|(name, arrival, members)| {
                let done = members
                    .iter()
                    .filter_map(|t| self.task_finished_at(*t))
                    .max()
                    .unwrap_or(arrival);
                PerJobStats {
                    name,
                    arrival,
                    completion: done.saturating_since(arrival),
                }
            })
            .collect();
        // Each job's submission-to-completion latency feeds the run's
        // `query_latency` histogram, so consolidation and chaos scenarios
        // record a latency *distribution* (p50/p99), not just a makespan.
        for j in &per_job {
            stats.metrics.observe("query_latency", j.completion);
        }
        Ok((per_job, stats))
    }

    /// Runs a job under a failure schedule. The job's makespan is
    /// recorded into the `query_latency` histogram of the returned stats.
    pub fn run_with_failures(
        &mut self,
        job: &Job,
        failures: &FailurePlan,
    ) -> Result<JobStats, RuntimeError> {
        let mut stats = self.run_released(job, failures, &HashMap::new())?;
        stats.metrics.observe("query_latency", stats.makespan);
        Ok(stats)
    }

    fn run_released(
        &mut self,
        job: &Job,
        failures: &FailurePlan,
        releases: &HashMap<TaskId, SimTime>,
    ) -> Result<JobStats, RuntimeError> {
        let mut queue = self.start(job, failures, releases)?;
        let budget: u64 = 1_000_000 + job.len() as u64 * 10_000;
        let mut processed: u64 = 0;
        while let Some((now, ev)) = queue.pop() {
            processed += 1;
            if processed > budget {
                return Err(RuntimeError::Livelock { events: processed });
            }
            self.handle(now, ev, &mut queue);
            if let Some(err) = self.fatal.take() {
                return Err(err);
            }
            // A drained queue with unfinished tasks (e.g. permanent loss
            // of every server leaves the cluster headless) surfaces as a
            // clean `Stalled` below; break before the invariant checker
            // reports the same condition as a violation.
            if queue.is_empty() && !self.job_done() {
                break;
            }
            if self.cfg.debug_invariants {
                if let Err(msg) = self.check_invariants(&queue) {
                    return Err(RuntimeError::InvariantViolation(format!(
                        "after {ev:?} at {now}: {msg}"
                    )));
                }
            }
            // Only failure and autoscale timers remain once the job is done.
            if self.job_done() {
                break;
            }
        }
        let count = |state: TaskState| {
            self.tasks
                .iter()
                .filter(|(_, r)| r.state() == state)
                .count() as u64
        };
        let finished = count(TaskState::Finished);
        // The queue drained: every task must be terminal, otherwise the
        // run would silently report partial results while tasks sit
        // stranded.
        if !self.job_done() {
            let stuck = self.tasks.len() as u64 - finished - count(TaskState::Failed);
            return Err(RuntimeError::Stalled { finished, stuck });
        }

        let makespan = self
            .tasks
            .iter()
            .filter_map(|(_, r)| r.at.finished_at)
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO);
        // Utilization: busy slot-time over available slot-time.
        let (mut total_slots, mut busy_us) = (0.0, 0.0);
        for n in self.topo.nodes() {
            total_slots += self.res.total_slots(n.id) as f64;
            busy_us += self.nodes[n.id].busy_us;
        }
        let utilization = if makespan.is_zero() || total_slots == 0.0 {
            0.0
        } else {
            (busy_us / (total_slots * makespan.as_micros_f64())).clamp(0.0, 1.0)
        };
        // Fold the caching layer's tier counters into the job's sink and
        // seal the trace: the job root covers every recorded span.
        self.metrics.merge(&self.cache.take_metrics());
        self.tracer.close(self.job_root, self.tracer.latest_end());
        let trace = std::mem::replace(&mut self.tracer, Tracer::new(false)).finish();
        let (spills, spill_bytes) = self.cache.spill_stats();
        Ok(JobStats {
            makespan,
            finished,
            retries: self.retries,
            abandoned: self.abandoned,
            net: *self.net.stats(),
            durable_trips: self.durable_trips,
            stall_total: self.stall_total,
            compute_total: self.compute_total,
            cost_units: self.cost_units(makespan),
            utilization,
            spills,
            spill_bytes,
            metrics: std::mem::take(&mut self.metrics),
            trace,
            measured_output_bytes: self
                .tasks
                .iter()
                .filter_map(|(_, r)| Some((r.spec.id, r.at.payload.as_ref()?.len())))
                .collect(),
        })
    }

    /// Gives the run its world and seeds its event queue: root tasks at
    /// their release times, then the failure schedule, then the first
    /// autoscaler tick (same-instant events deliver FIFO).
    fn start(
        &mut self,
        job: &Job,
        failures: &FailurePlan,
        releases: &HashMap<TaskId, SimTime>,
    ) -> Result<EventQueue<Event>, RuntimeError> {
        // Every run starts from the world `with_links` builds: the first
        // takes the one built at construction, a later one builds its own
        // (so construction is paid once per run, and two worlds never
        // coexist on the common one-run-per-cluster path).
        if !std::mem::replace(&mut self.pristine, false) {
            *self = Cluster {
                executor: self.executor.take(),
                pristine: false,
                ..Cluster::with_links(&self.topo, self.cfg.clone(), self.links.clone())
            };
        }
        self.tasks = TaskTable::new(job);
        if self.nodes.durable.is_none() && self.tasks.slots().any(|t| self.via_durable(t, None)) {
            return Err(RuntimeError::NoDurableStorage(self.cfg.deployment));
        }
        self.active_plan = failures.clone();
        self.job_root = self
            .tracer
            .open("job", "job", Category::Job, None, SimTime::ZERO);
        self.tracer.attr(self.job_root, "name", &job.name);
        self.build_system_pools(job);
        if self.cfg.gang_scheduling {
            for g in job.tasks.values().filter_map(|spec| spec.gang) {
                self.gangs.declare(g, 1);
            }
        }
        // Kick off source tasks: the driver tells the scheduler.
        let mut queue: EventQueue<Event> = EventQueue::new();
        for (t, r) in self.tasks.iter() {
            if r.state() == TaskState::Ready {
                let at = releases.get(&r.spec.id).copied().unwrap_or(SimTime::ZERO);
                queue.schedule_at(at, Event::Ready(t, 0));
            }
        }
        if queue.is_empty() && !job.is_empty() {
            return Err(RuntimeError::Internal("no root tasks".to_string()));
        }
        for f in failures.failures() {
            queue.schedule_at(f.at, Event::Fail(f.node));
            if let Some(r) = f.recovers_at {
                queue.schedule_at(r, Event::Recover(f.node));
            }
        }
        if let Some(a) = &self.autoscaler {
            queue.schedule_after(a.interval(), Event::Autoscale);
        }
        Ok(queue)
    }

    /// Serverful deployments split nodes into per-system silos.
    fn build_system_pools(&mut self, job: &Job) {
        if self.cfg.deployment != Deployment::Serverful || job.is_empty() {
            return;
        }
        let systems: BTreeSet<&str> = job.tasks.values().map(|t| t.system.as_str()).collect();
        // Servers, then devices, dealt round-robin over the systems in
        // name order.
        let mut pools = vec![Vec::new(); systems.len()];
        let members = self
            .nodes
            .all(Backend::Cpu)
            .iter()
            .chain(&self.nodes.accels);
        for (i, node) in members.enumerate() {
            pools[i % systems.len()].push(*node);
        }
        for (system, mut pool) in systems.into_iter().zip(pools) {
            pool.sort();
            self.system_pools.insert(system.to_string(), pool);
        }
    }

    fn job_done(&self) -> bool {
        self.tasks.unfinished() == 0
    }

    fn epoch(&self, t: Slot) -> u32 {
        self.tasks[t].epoch
    }

    fn alive(&self, n: NodeId) -> bool {
        !self.nodes[n].failed()
    }

    /// Records the run's error; the first one raised wins.
    fn fail_run(&mut self, err: RuntimeError) {
        self.fatal.get_or_insert(err);
    }

    // ---- tracing ---------------------------------------------------------

    /// The attempt's umbrella span (the sentinel when none is open).
    fn span_of(&self, t: Slot) -> SpanId {
        self.tasks[t].at.span.unwrap_or(SpanId::NONE)
    }

    /// The task's umbrella span, opened on first use. Carries the `task`
    /// and `deps` attributes the critical-path walker keys on.
    fn ensure_task_span(&mut self, now: SimTime, t: Slot) -> SpanId {
        if let Some(s) = self.tasks[t].at.span {
            return s;
        }
        let s = self.trace(now, now, |c| {
            let r = &c.tasks[t];
            let deps: Vec<String> = r.inputs.iter().map(|(p, _)| c.task_label(*p)).collect();
            Rec::new(r.spec.op.clone(), "tasks", Category::Task, c.job_root)
                .attr("task", c.task_label(t))
                .attr("deps", deps.join(","))
                .attr("backend", format!("{:?}", r.spec.backend))
                .attr("attempt", r.epoch)
        });
        self.tasks[t].at.span = Some(s);
        s
    }

    /// Device-pool utilization sample: busy accel devices over all accel
    /// devices, recorded into a 1 ms-bucketed gauge at task start/finish
    /// edges (the only instants it can change).
    fn record_device_gauge(&mut self, now: SimTime) {
        let devices = &self.nodes.accels;
        if devices.is_empty() {
            return;
        }
        let busy = devices.iter().filter(|d| self.nodes[**d].load > 0).count();
        self.metrics.gauge_record(
            "device.util",
            SimDuration::from_millis(1),
            now,
            busy as f64 / devices.len() as f64,
        );
    }

    fn handle(&mut self, now: SimTime, ev: Event, queue: &mut EventQueue<Event>) {
        match ev {
            Event::Ready(t, e) if e == self.epoch(t) => self.on_ready(now, t, queue),
            Event::Arrive(t, e) if e == self.epoch(t) => self.on_arrive(now, t, queue),
            Event::TryStart(t, e) if e == self.epoch(t) => self.on_try_start(now, t, queue),
            Event::Finish(t, e) if e == self.epoch(t) => self.on_finish(now, t, queue),
            Event::Fail(n) => self.on_fail(now, n, queue),
            Event::Recover(n) => self.nodes.set_failed(&self.topo, n, false),
            Event::Autoscale => self.on_autoscale(now, queue),
            Event::Elect => self.on_elect(now, queue),
            // Stale task event from a superseded attempt.
            _ => {}
        }
    }

    // ---- cost --------------------------------------------------------------

    fn cost_units(&self, makespan: SimDuration) -> f64 {
        match self.cfg.deployment {
            // Reservation: every node in every system pool is paid for
            // the whole job.
            Deployment::Serverful => self
                .system_pools
                .values()
                .flatten()
                .map(|n| node_rate(&self.topo, *n) * makespan.as_secs_f64())
                .sum(),
            _ => {
                let mut cost = self.serverless_task_cost;
                cost += self.durable_trips as f64 * 0.0005;
                if let Some(s) = &self.autoscaler {
                    cost += s.warm_device_us() / 1e6 * 3.0;
                }
                cost
            }
        }
    }
}

/// Abstract cost rate of a node, units per second.
fn node_rate(topo: &Topology, node: NodeId) -> f64 {
    match topo.node(node).kind {
        NodeKind::Server(_) => 1.0,
        NodeKind::AccelDevice(AccelKind::Gpu, _) => 3.0,
        NodeKind::AccelDevice(AccelKind::Fpga, _) => 2.0,
        NodeKind::MemoryBlade(_) => 0.3,
        NodeKind::DurableStorage(_) => 0.0,
    }
}

#[cfg(test)]
mod tests;
