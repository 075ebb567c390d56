//! Task specifications and lifecycle.
//!
//! One task executes one physical-graph vertex (one shard of one op). A
//! task produces exactly one output object; edges carry the producer's
//! output to consumers with per-edge byte counts.

use std::collections::BTreeMap;
use std::fmt;

use skadi_ir::Backend;

/// Identifies a task within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Identifies a gang of tasks that must start together (SPMD sub-graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GangId(pub u32);

/// Identifies a stateful actor. All of an actor's method tasks run on the
/// node where the actor was first placed, one at a time, in submission
/// order — Ray's actor semantics (§2.3.1: "stateless tasks or stateful
/// actors").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u64);

/// One schedulable unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Identity within the job.
    pub id: TaskId,
    /// Op name (diagnostics only).
    pub op: String,
    /// Hardware class the task was lowered for.
    pub backend: Backend,
    /// Compute time on that backend, microseconds.
    pub compute_us: f64,
    /// Producer tasks and the bytes each edge carries.
    pub inputs: BTreeMap<TaskId, u64>,
    /// Output object size in bytes.
    pub output_bytes: u64,
    /// Which data system of an integrated pipeline this task belongs to
    /// (drives the serverful silo model of Fig 1a).
    pub system: String,
    /// Gang membership, if any.
    pub gang: Option<GangId>,
    /// The actor this task is a method call on, if any: pinned to the
    /// actor's node and serialized with its other methods.
    pub actor: Option<ActorId>,
}

impl TaskSpec {
    /// A minimal CPU task, for tests and hand-built jobs.
    pub fn new(id: u64, compute_us: f64, output_bytes: u64) -> Self {
        TaskSpec {
            id: TaskId(id),
            op: format!("op{id}"),
            backend: Backend::Cpu,
            compute_us,
            inputs: BTreeMap::new(),
            output_bytes,
            system: "default".to_string(),
            gang: None,
            actor: None,
        }
    }

    /// Adds a dependency edge carrying `bytes`.
    pub fn after(mut self, dep: TaskId, bytes: u64) -> Self {
        self.inputs.insert(dep, bytes);
        self
    }

    /// Sets the backend.
    pub fn on(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the system label.
    pub fn in_system(mut self, system: &str) -> Self {
        self.system = system.to_string();
        self
    }

    /// Joins a gang.
    pub fn in_gang(mut self, gang: GangId) -> Self {
        self.gang = Some(gang);
        self
    }

    /// Marks this task as a method call on the given actor.
    pub fn on_actor(mut self, actor: ActorId) -> Self {
        self.actor = Some(actor);
        self
    }

    /// Sets the op name.
    pub fn named(mut self, op: &str) -> Self {
        self.op = op.to_string();
        self
    }
}

/// Lifecycle of one task during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting for producers to finish.
    Blocked,
    /// All inputs produced; waiting for placement.
    Ready,
    /// Placed on a node, waiting for a slot and for inputs to arrive.
    Dispatched,
    /// Executing.
    Running,
    /// Completed; output object exists.
    Finished,
    /// Aborted by a failure; may be retried via lineage.
    Failed,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let t = TaskSpec::new(3, 100.0, 1 << 10)
            .after(TaskId(1), 512)
            .after(TaskId(2), 256)
            .on(Backend::Gpu)
            .in_system("ml")
            .named("tensor.matmul");
        assert_eq!(t.id, TaskId(3));
        assert_eq!(t.inputs.len(), 2);
        assert_eq!(t.inputs[&TaskId(1)], 512);
        assert_eq!(t.backend, Backend::Gpu);
        assert_eq!(t.system, "ml");
        assert_eq!(t.op, "tensor.matmul");
    }
}
