//! The dense per-task and per-node tables of one run.
//!
//! This module is the only place that knows how a [`TaskId`] maps to a
//! table row: [`Slot`]s are assigned in `Job::tasks` (`BTreeMap`) order,
//! so slot order *is* `TaskId` order and an in-order scan of the table
//! visits tasks exactly as a sort by ID would. It also owns the two
//! conditions the rest of the cluster relies on but cannot break:
//! a task's state changes only through [`TaskTable::set_state`] (which
//! keeps the `unfinished` counter in step), and a node's liveness only
//! through [`NodeTable::set_failed`] (which keeps the sorted
//! alive-by-class indexes in step).

use std::ops::{Index, IndexMut};
use std::rc::Rc;

use skadi_dcsim::span::SpanId;
use skadi_dcsim::time::SimTime;
use skadi_dcsim::topology::{AccelKind, NodeId, NodeKind, Topology};
use skadi_ir::Backend;
use skadi_store::ec::EcConfig;
use skadi_store::object::ObjectId;

use crate::job::Job;
use crate::task::{TaskId, TaskSpec, TaskState};

/// Dense index of a task within one run's [`TaskTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(super) struct Slot(u32);

impl Slot {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-object erasure-coding placement.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct EcPlacement {
    pub shard_nodes: Vec<NodeId>,
    pub size: u64,
    pub config: EcConfig,
}

/// Inputs staged for one dispatched task: the producing task and its
/// shared (refcounted, never copied) payload bytes.
pub(super) type StagedInputs = Vec<(TaskId, Rc<Vec<u8>>)>;

/// Everything that belongs to one attempt of a task — where it runs,
/// its timestamps, and the output it left behind. A reset replaces the
/// whole struct ([`TaskTable::reset_attempt`]), so a field added here
/// can never survive into the next attempt by omission.
#[derive(Debug, Default, PartialEq)]
pub(super) struct Attempt {
    /// Node the attempt was placed on.
    pub node: Option<NodeId>,
    pub ready_at: Option<SimTime>,
    pub started_at: Option<SimTime>,
    pub finished_at: Option<SimTime>,
    /// The attempt's umbrella trace span.
    pub span: Option<SpanId>,
    /// When the attempt's inputs were all local.
    pub input_ready_at: Option<SimTime>,
    /// Times the dispatch was pulled to another node (work stealing);
    /// bounded so it cannot ping-pong between loaded nodes.
    pub steals: u32,
    /// Inputs staged (shared, not copied) when the availability check
    /// passed; consumed when the task finishes.
    pub staged: Option<StagedInputs>,
    /// A result computed ahead of the task's own `Finish` by a batched
    /// `execute_ready` call; consumed when that finish commits.
    pub exec_result: Option<Result<Vec<u8>, String>>,
    /// The output object in the caching layer.
    pub object: Option<ObjectId>,
    pub value_ready: Option<SimTime>,
    pub durable_ready: Option<SimTime>,
    pub ec: Option<EcPlacement>,
    /// Real output bytes, present only when the data plane executed the
    /// task. Dropped with the attempt, so a re-execution recomputes —
    /// deterministically — rather than reading stale bytes.
    pub payload: Option<Rc<Vec<u8>>>,
}

/// One task's row.
#[derive(Debug)]
pub(super) struct TaskSlot {
    pub spec: TaskSpec,
    /// Producers (in `TaskId` order) with each edge's estimated bytes.
    pub inputs: Rc<[(Slot, u64)]>,
    /// Consumers, in `TaskId` order.
    pub consumers: Rc<[Slot]>,
    state: TaskState,
    /// Unfinished producer count.
    pub pending_inputs: usize,
    /// Bumped on every reset; events of a superseded attempt carry the
    /// old value and are dropped on delivery.
    pub epoch: u32,
    /// How many times the task has been reset.
    pub attempts: u32,
    pub at: Attempt,
}

impl TaskSlot {
    pub fn state(&self) -> TaskState {
        self.state
    }

    /// True while the task occupies its node (counted in the node's load).
    pub fn resident(&self) -> bool {
        matches!(self.state, TaskState::Dispatched | TaskState::Running)
    }
}

/// The task table of one run.
#[derive(Debug, Default)]
pub(super) struct TaskTable {
    slots: Vec<TaskSlot>,
    /// Tasks not yet terminal. `job_done()` runs after every event, so
    /// at 10k nodes it must be an O(1) check, not a scan.
    unfinished: usize,
}

fn terminal(s: TaskState) -> bool {
    matches!(s, TaskState::Finished | TaskState::Failed)
}

impl TaskTable {
    pub fn new(job: &Job) -> Self {
        let ids: Vec<TaskId> = job.tasks.keys().copied().collect();
        let slot_of = |t: &TaskId| Slot(ids.binary_search(t).expect("job validated") as u32);
        let mut consumers: Vec<Vec<Slot>> = vec![Vec::new(); ids.len()];
        for (i, spec) in job.tasks.values().enumerate() {
            for dep in spec.inputs.keys() {
                consumers[slot_of(dep).index()].push(Slot(i as u32));
            }
        }
        let slots: Vec<TaskSlot> = job
            .tasks
            .values()
            .zip(consumers)
            .map(|(spec, consumers)| TaskSlot {
                inputs: spec.inputs.iter().map(|(p, b)| (slot_of(p), *b)).collect(),
                consumers: consumers.into(),
                state: if spec.inputs.is_empty() {
                    TaskState::Ready
                } else {
                    TaskState::Blocked
                },
                pending_inputs: spec.inputs.len(),
                epoch: 0,
                attempts: 0,
                at: Attempt::default(),
                spec: spec.clone(),
            })
            .collect();
        TaskTable {
            unfinished: slots.len(),
            slots,
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Every slot, in `TaskId` order.
    pub fn slots(&self) -> impl Iterator<Item = Slot> {
        (0..self.slots.len() as u32).map(Slot)
    }

    /// Every row with its slot, in `TaskId` order.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &TaskSlot)> {
        self.slots().zip(&self.slots)
    }

    pub fn slot_of(&self, t: TaskId) -> Option<Slot> {
        self.slots
            .binary_search_by_key(&t, |s| s.spec.id)
            .ok()
            .map(|i| Slot(i as u32))
    }

    pub fn unfinished(&self) -> usize {
        self.unfinished
    }

    /// The one place a task's state changes.
    pub fn set_state(&mut self, s: Slot, to: TaskState) {
        let slot = &mut self.slots[s.index()];
        match (terminal(slot.state), terminal(to)) {
            (false, true) => self.unfinished -= 1,
            (true, false) => self.unfinished += 1,
            _ => {}
        }
        slot.state = to;
    }

    /// Starts a new attempt: bumps the epoch and the attempt count and
    /// hands back the superseded attempt (for the caller to seal its
    /// span, delete its output and vacate its node).
    pub fn reset_attempt(&mut self, s: Slot) -> Attempt {
        let slot = &mut self.slots[s.index()];
        slot.epoch += 1;
        slot.attempts += 1;
        std::mem::take(&mut slot.at)
    }

    /// The size every downstream decision uses for `s`'s output: the
    /// measured payload when the data plane executed it, `estimate`
    /// otherwise. Estimate-only and executor-installed runs differ only
    /// in whether a payload is present.
    pub fn output_size(&self, s: Slot, estimate: u64) -> u64 {
        match &self[s].at.payload {
            Some(p) => (p.len() as u64).max(1),
            None => estimate,
        }
    }

    /// Recount of non-terminal tasks (invariant checker).
    pub fn recount_unfinished(&self) -> usize {
        self.slots.iter().filter(|s| !terminal(s.state)).count()
    }
}

impl Index<Slot> for TaskTable {
    type Output = TaskSlot;
    fn index(&self, s: Slot) -> &TaskSlot {
        &self.slots[s.index()]
    }
}

impl IndexMut<Slot> for TaskTable {
    fn index_mut(&mut self, s: Slot) -> &mut TaskSlot {
        &mut self.slots[s.index()]
    }
}

/// One node's row.
#[derive(Debug, Clone, Default)]
pub(super) struct NodeSlot {
    failed: bool,
    /// Tasks dispatched to or running on the node.
    pub load: u32,
    /// Set while an accelerator is in the provisioned (warm) pool: when
    /// it becomes usable.
    pub device_available_at: Option<SimTime>,
    /// Busy slot-time accumulated by finished tasks, microseconds.
    pub busy_us: f64,
}

impl NodeSlot {
    pub fn failed(&self) -> bool {
        self.failed
    }
}

/// The node table of one run, indexed by the dense `NodeId::index()`,
/// plus the per-class node lists (built once; `Topology`'s own
/// accessors scan every node and allocate per call).
#[derive(Debug)]
pub(super) struct NodeTable {
    slots: Vec<NodeSlot>,
    /// Every node of each placement class, in ID order, dead or alive:
    /// servers, GPUs, FPGAs.
    all: [Vec<NodeId>; 3],
    /// The alive subset of `all`, kept sorted. Placement at scale reads
    /// these instead of filtering the node set per decision.
    alive: [Vec<NodeId>; 3],
    /// Every accelerator device, in ID order.
    pub accels: Vec<NodeId>,
    /// Every memory blade, in ID order.
    pub blades: Vec<NodeId>,
    pub durable: Option<NodeId>,
}

fn class(b: Backend) -> usize {
    match b {
        Backend::Cpu => 0,
        Backend::Gpu => 1,
        Backend::Fpga => 2,
    }
}

/// The placement class a node serves; blades and durable storage are
/// never placement targets.
pub(super) fn backend_of(kind: &NodeKind) -> Option<Backend> {
    match kind {
        NodeKind::Server(_) => Some(Backend::Cpu),
        NodeKind::AccelDevice(AccelKind::Gpu, _) => Some(Backend::Gpu),
        NodeKind::AccelDevice(AccelKind::Fpga, _) => Some(Backend::Fpga),
        NodeKind::MemoryBlade(_) | NodeKind::DurableStorage(_) => None,
    }
}

impl NodeTable {
    pub fn new(topo: &Topology) -> Self {
        let mut all: [Vec<NodeId>; 3] = Default::default();
        for n in topo.nodes() {
            if let Some(b) = backend_of(&n.kind) {
                all[class(b)].push(n.id);
            }
        }
        NodeTable {
            slots: vec![NodeSlot::default(); topo.len()],
            alive: all.clone(),
            all,
            accels: topo.accel_devices(None),
            blades: topo.memory_blades(),
            durable: topo.durable_storage(),
        }
    }

    /// Every node able to run `b` tasks, dead or alive.
    pub fn all(&self, b: Backend) -> &[NodeId] {
        &self.all[class(b)]
    }

    /// The alive nodes able to run `b` tasks, sorted.
    pub fn alive(&self, b: Backend) -> &[NodeId] {
        &self.alive[class(b)]
    }

    /// Alive servers then alive blades: where replicas and EC shards go.
    pub fn alive_storage_hosts(&self) -> Vec<NodeId> {
        let blades = self.blades.iter().filter(|n| !self[**n].failed);
        self.alive(Backend::Cpu)
            .iter()
            .chain(blades)
            .copied()
            .collect()
    }

    /// Failed nodes, in ID order.
    pub fn failed(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.slots.len() as u32)
            .map(NodeId)
            .filter(|n| self[*n].failed)
    }

    /// The one place a node's liveness changes.
    pub fn set_failed(&mut self, topo: &Topology, node: NodeId, failed: bool) {
        self.slots[node.index()].failed = failed;
        let Some(b) = backend_of(&topo.node(node).kind) else {
            return;
        };
        let list = &mut self.alive[class(b)];
        match (list.binary_search(&node), failed) {
            (Err(i), false) => list.insert(i, node),
            (Ok(i), true) => {
                list.remove(i);
            }
            _ => {}
        }
    }

    /// Rebuild of the alive indexes from the failed flags (invariant
    /// checker): must equal what `set_failed` maintained.
    pub fn alive_index_consistent(&self) -> bool {
        (0..3).all(|c| {
            let want = self.all[c].iter().filter(|n| !self[**n].failed);
            want.eq(self.alive[c].iter())
        })
    }
}

impl Index<NodeId> for NodeTable {
    type Output = NodeSlot;
    fn index(&self, n: NodeId) -> &NodeSlot {
        &self.slots[n.index()]
    }
}

impl IndexMut<NodeId> for NodeTable {
    fn index_mut(&mut self, n: NodeId) -> &mut NodeSlot {
        &mut self.slots[n.index()]
    }
}
