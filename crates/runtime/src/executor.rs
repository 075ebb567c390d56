//! The data-plane executor hook.
//!
//! The cluster simulates *when* and *where* tasks run; with a
//! [`TaskExecutor`] installed ([`Cluster::set_executor`]), a task's
//! simulated completion also runs its real computation: the executor is
//! handed its producers' stored [`Payload`]s and returns the task's own,
//! which the cluster then stores under the same pricing it applies to
//! estimated sizes — measured, not estimated, output sizes feed storage,
//! transfer, pass-by-value inlining, and caching decisions.
//!
//! The interface is bytes-level on purpose: the runtime crate knows
//! nothing about record batches. What it keeps per task is a [`Payload`]
//! — a length, which is all the simulator prices, and an opaque
//! [`Content`] it can ask for bytes when something reads them
//! ([`Cluster::task_payload`]). An executor whose bytes would cross no
//! link need not make them at all: the SQL data plane hands consumers
//! the producer's batch through the content and encodes it only when
//! asked (see the `skadi` crate's graph executor).
//!
//! Determinism contract: an executor must be a pure function of
//! `(task, inputs, link)`. The cluster drops a task's payload when
//! lineage resets it, and replays the executor on re-execution —
//! identical inputs must reproduce an identical payload, or recovery
//! would change the job's answer.
//!
//! [`Cluster::set_executor`]: crate::cluster::Cluster::set_executor
//! [`Cluster::task_payload`]: crate::cluster::Cluster::task_payload

use std::any::Any;
use std::cell::OnceCell;
use std::fmt;

use crate::task::TaskId;

/// What a payload holds beyond its length: whatever its executor kept,
/// able to make the payload's bytes on demand.
pub trait Content: Any {
    /// The payload's bytes. Called at most once per payload, and only
    /// when something reads them; must return exactly the length the
    /// payload was stored with.
    fn materialise(&self) -> Vec<u8>;
}

/// A task's stored output: its length, its bytes once anything has read
/// them, and the executor's [`Content`].
pub struct Payload {
    len: u64,
    bytes: OnceCell<Vec<u8>>,
    content: Option<Box<dyn Content>>,
}

impl Payload {
    /// A payload of `len` bytes that `content` makes when first read.
    pub fn lazy(len: u64, content: impl Content) -> Self {
        Payload {
            len,
            bytes: OnceCell::new(),
            content: Some(Box::new(content)),
        }
    }

    /// A payload whose bytes are already made, keeping `content` beside
    /// them for executors that read it.
    pub fn with_bytes(bytes: Vec<u8>, content: impl Content) -> Self {
        Payload {
            len: bytes.len() as u64,
            bytes: OnceCell::from(bytes),
            content: Some(Box::new(content)),
        }
    }

    /// The length every price reads.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for a zero-length payload.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload's bytes, made the first time they are asked for.
    pub fn bytes(&self) -> &[u8] {
        self.bytes.get_or_init(|| {
            let bytes = self
                .content
                .as_ref()
                .map_or_else(Vec::new, |c| c.materialise());
            debug_assert_eq!(
                bytes.len() as u64,
                self.len,
                "content made the wrong length"
            );
            bytes
        })
    }

    /// The executor's content, if it is a `T`.
    pub fn content<T: Content>(&self) -> Option<&T> {
        let content: &dyn Any = self.content.as_deref()?;
        content.downcast_ref()
    }
}

/// Bytes made by whoever built them: a payload without content.
impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload {
            len: bytes.len() as u64,
            bytes: OnceCell::from(bytes),
            content: None,
        }
    }
}

/// Two payloads are equal when their bytes are (which makes both).
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.bytes() == other.bytes()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Payload")
            .field("len", &self.len)
            .field("made", &self.bytes.get().is_some())
            .finish()
    }
}

/// One ready task: its producers' payloads, sorted by producer task ID,
/// and the modelled bytes per second of the link its output will be
/// written over — the durable store's when the deployment writes it
/// durably, the fabric NIC's otherwise. An executor that compresses
/// decides from this price, never from a measured time.
#[derive(Debug)]
pub struct ReadyTask<'a> {
    /// The task to run.
    pub task: TaskId,
    /// `(producer, its stored payload)`, by producer task ID.
    pub inputs: Vec<(TaskId, &'a Payload)>,
    /// Modelled bytes per second of the link the output is written over.
    pub link_bps: u64,
}

/// Executes a task's real computation from its inputs' payloads.
pub trait TaskExecutor {
    /// Runs one task. `inputs` holds one entry per producer task (each
    /// producer's full stored payload); the executor is responsible for
    /// any per-consumer partitioning. The returned payload is stored as
    /// the task's output, and its length is its measured output size.
    fn execute(&mut self, task: &ReadyTask<'_>) -> Result<Payload, String>;

    /// Runs a batch of tasks that all completed at the same simulated
    /// instant. `tasks` is sorted by task ID and results return in the
    /// same order. The default delegates to [`TaskExecutor::execute`]
    /// one task at a time; a parallel executor may overlap the batch on
    /// real threads — each result must still be the same pure function
    /// of that task's inputs, so batching can never change output bytes,
    /// only wall-clock time.
    fn execute_ready(&mut self, tasks: &[ReadyTask<'_>]) -> Vec<Result<Payload, String>> {
        tasks.iter().map(|t| self.execute(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    struct Counted {
        calls: Rc<Cell<u32>>,
    }

    impl Content for Counted {
        fn materialise(&self) -> Vec<u8> {
            self.calls.set(self.calls.get() + 1);
            vec![7; 3]
        }
    }

    #[test]
    fn a_lazy_payload_is_made_once_and_only_when_read() {
        let calls = Rc::new(Cell::new(0));
        let p = Payload::lazy(
            3,
            Counted {
                calls: Rc::clone(&calls),
            },
        );
        assert_eq!((p.len(), calls.get()), (3, 0));
        assert!(p.content::<Counted>().is_some());
        assert_eq!(p.bytes(), &[7, 7, 7]);
        assert_eq!(p.bytes(), &[7, 7, 7]);
        assert_eq!(calls.get(), 1);
        assert_eq!(p, Payload::from(vec![7, 7, 7]));
    }

    #[test]
    fn made_and_plain_payloads_never_call_their_content() {
        let calls = Rc::new(Cell::new(0));
        let made = Payload::with_bytes(
            vec![1, 2],
            Counted {
                calls: Rc::clone(&calls),
            },
        );
        assert_eq!((made.len(), made.bytes()), (2, &[1u8, 2][..]));
        assert_eq!(calls.get(), 0);
        let plain = Payload::from(vec![9]);
        assert!(plain.content::<Counted>().is_none());
        assert_eq!(plain.bytes(), &[9]);
    }
}
