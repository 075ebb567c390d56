//! Error type for the runtime.

use std::fmt;

use skadi_store::ec::EcConfig;

use crate::config::Deployment;
use crate::task::{GangId, TaskId};

/// Errors from job construction and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A task references an unknown dependency.
    UnknownDependency {
        /// The dependent task.
        task: TaskId,
        /// The missing producer.
        dep: TaskId,
    },
    /// The job's dependency graph has a cycle.
    CyclicJob,
    /// The simulation reached its event budget without draining — almost
    /// always a livelock bug.
    Livelock {
        /// Events processed before giving up.
        events: u64,
    },
    /// A task failed more times than the retry budget allows.
    TaskAbandoned(TaskId),
    /// The event queue drained while tasks were still pending — the job
    /// neither finished nor failed cleanly. Previously this surfaced as
    /// silently-partial [`crate::job::JobStats`]; now it is an error.
    Stalled {
        /// Tasks that reached `Finished`.
        finished: u64,
        /// Tasks stuck in a non-terminal state.
        stuck: u64,
    },
    /// A gang member reported ready for a gang that was never declared —
    /// releasing it alone as "the whole gang" would silently break the
    /// start-together guarantee, so it is a hard error.
    UndeclaredGang(GangId),
    /// The deployment routes data through durable storage, but the
    /// topology has none; refused before the run starts.
    NoDurableStorage(Deployment),
    /// Erasure coding with no data shards (`EcConfig::data == 0`):
    /// nothing to size a shard by; refused before the run starts.
    NoDataShards(EcConfig),
    /// The debug invariant checker found inconsistent cluster state
    /// (enabled via `RuntimeConfig::debug_invariants`).
    InvariantViolation(String),
    /// Job state is internally inconsistent.
    Internal(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownDependency { task, dep } => {
                write!(f, "task {task} depends on unknown task {dep}")
            }
            RuntimeError::CyclicJob => f.write_str("job dependency graph is cyclic"),
            RuntimeError::Livelock { events } => {
                write!(f, "simulation did not drain after {events} events")
            }
            RuntimeError::TaskAbandoned(t) => write!(f, "task {t} exceeded its retry budget"),
            RuntimeError::Stalled { finished, stuck } => {
                write!(
                    f,
                    "event queue drained with {stuck} tasks pending ({finished} finished)"
                )
            }
            RuntimeError::UndeclaredGang(g) => {
                write!(f, "gang {:?} was never declared", g)
            }
            RuntimeError::NoDurableStorage(d) => {
                write!(
                    f,
                    "the {d} deployment needs durable storage, which the topology lacks"
                )
            }
            RuntimeError::NoDataShards(c) => {
                write!(
                    f,
                    "erasure coding needs at least one data shard (got {} + {})",
                    c.data, c.parity
                )
            }
            RuntimeError::InvariantViolation(msg) => {
                write!(f, "cluster invariant violated: {msg}")
            }
            RuntimeError::Internal(msg) => write!(f, "internal runtime error: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}
