//! The data-plane executor hook.
//!
//! The cluster simulates *when* and *where* tasks run; every task's
//! simulated completion also runs it through the cluster's
//! [`TaskExecutor`]: the executor is handed its producers' stored
//! [`Payload`]s and returns the task's own, which the cluster stores and
//! prices. A cluster starts with [`LengthOnly`], whose payloads are the
//! task spec's estimates and nothing else; installing a data plane
//! ([`Cluster::set_executor`]) runs each task's real computation instead,
//! and its measured lengths feed the same storage, transfer,
//! pass-by-value and caching decisions. There is one path either way.
//!
//! The interface is bytes-level on purpose: the runtime crate knows
//! nothing about record batches. What it keeps per task is a [`Payload`]
//! — its whole length, which storage, replication, erasure coding and
//! fetched-copy caching read; one [`EdgeSize`] per consumer, the bytes
//! and rows that consumer reads (a shuffle consumer reads its part, not
//! the whole output); and, unless it is length-only, an opaque
//! [`Content`] it can ask for bytes when something reads them
//! ([`Cluster::task_payload`]). The payloads are the one record of what
//! a task costs: placement counts a consumer's input bytes on each node
//! at their edge lengths, its input transfer is priced at them, and its
//! run time is priced when it starts from the rows its inputs hand it.
//! An executor whose bytes would cross no link need not make them at
//! all: the SQL data plane hands consumers the producer's batch through
//! the content and encodes it only when asked (see the `skadi` crate's
//! graph executor).
//!
//! The plan's estimates are read by [`LengthOnly`] alone, which stores
//! them as the payload, so a run without a data plane is priced exactly
//! as its job declares. With a data plane, prices move wherever the
//! measured bytes or rows differ from the plan. One price still reads
//! the whole output: an erasure-coded input is fetched as `k` shards of
//! the whole object, because a consumer's part of a shuffle is a row
//! selection spread over the striped object, not a byte range of it.
//!
//! Determinism contract: an executor must be a pure function of
//! `(task, inputs, link)`. The cluster drops a task's payload when
//! lineage resets it, and replays the executor on re-execution —
//! identical inputs must reproduce an identical payload, or recovery
//! would change the job's answer or its price.
//!
//! [`Cluster::set_executor`]: crate::cluster::Cluster::set_executor
//! [`Cluster::task_payload`]: crate::cluster::Cluster::task_payload

use std::any::Any;
use std::cell::OnceCell;
use std::fmt;

use crate::task::TaskId;

/// What a payload holds beyond its lengths: whatever its executor kept,
/// able to make the payload's bytes on demand.
pub trait Content: Any {
    /// The payload's bytes. Called at most once per payload, and only
    /// when something reads them; must return exactly the length the
    /// payload was stored with.
    fn materialise(&self) -> Vec<u8>;
}

/// What one consumer reads of a payload: the bytes its input transfer
/// is priced at, and the rows its run time is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeSize {
    /// Bytes the consumer reads.
    pub bytes: u64,
    /// Rows the consumer is handed.
    pub rows: u64,
}

/// A task's stored output: its whole length, what each consumer reads,
/// its bytes once anything has read them, and the executor's
/// [`Content`]. A length-only payload has neither bytes nor content.
pub struct Payload {
    len: u64,
    /// `(consumer, what it reads)`, by consumer task ID. A consumer not
    /// listed reads the whole payload's bytes, and its rows are unknown.
    edges: Vec<(TaskId, EdgeSize)>,
    bytes: OnceCell<Vec<u8>>,
    content: Option<Box<dyn Content>>,
}

impl Payload {
    /// A payload of lengths alone: `len` bytes whole, and `edges` (by
    /// consumer task ID) per consumer. It has no bytes to read.
    pub fn length_only(len: u64, edges: Vec<(TaskId, EdgeSize)>) -> Self {
        Payload {
            len,
            edges,
            bytes: OnceCell::new(),
            content: None,
        }
    }

    /// A payload of `len` bytes that `content` makes when first read.
    pub fn lazy(len: u64, content: impl Content) -> Self {
        Payload {
            content: Some(Box::new(content)),
            ..Payload::length_only(len, Vec::new())
        }
    }

    /// A payload whose bytes are already made, keeping `content` beside
    /// them for executors that read it.
    pub fn with_bytes(bytes: Vec<u8>, content: impl Content) -> Self {
        Payload {
            content: Some(Box::new(content)),
            ..Payload::from(bytes)
        }
    }

    /// The payload with what each of `edges`' consumers reads (by
    /// consumer task ID); every other consumer reads the whole payload's
    /// bytes, and its rows are unknown.
    pub fn with_edges(mut self, edges: Vec<(TaskId, EdgeSize)>) -> Self {
        debug_assert!(edges.is_sorted_by_key(|e| e.0), "edges by consumer");
        self.edges = edges;
        self
    }

    /// The whole length: what storage, replication, erasure coding and
    /// cached copies are priced at.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for a zero-length payload.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// What `consumer` reads of the payload.
    fn edge(&self, consumer: TaskId) -> Option<EdgeSize> {
        let at = self.edges.binary_search_by_key(&consumer, |e| e.0).ok()?;
        Some(self.edges[at].1)
    }

    /// The bytes `consumer` reads: what placement counts on the nodes
    /// holding the payload, and what its input transfer is priced at.
    pub fn edge_len(&self, consumer: TaskId) -> u64 {
        self.edge(consumer).map_or(self.len, |e| e.bytes)
    }

    /// The rows `consumer` is handed: what its run time is priced at.
    /// `None` for a consumer the payload does not list; a task priced by
    /// its rows that reads such a payload ends the run with an internal
    /// error rather than run on rows nobody measured.
    pub fn edge_rows(&self, consumer: TaskId) -> Option<u64> {
        self.edge(consumer).map(|e| e.rows)
    }

    /// True for a payload of lengths alone ([`Payload::length_only`]).
    pub fn is_length_only(&self) -> bool {
        self.content.is_none() && self.bytes.get().is_none()
    }

    /// The payload's bytes, made the first time they are asked for;
    /// none for a length-only payload.
    pub fn bytes(&self) -> &[u8] {
        let Some(content) = &self.content else {
            return self.bytes.get().map_or(&[], Vec::as_slice);
        };
        self.bytes.get_or_init(|| {
            let bytes = content.materialise();
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
            edges: Vec::new(),
            bytes: OnceCell::from(bytes),
            content: None,
        }
    }
}

/// Two payloads are equal when their lengths, edge lengths and bytes
/// are (which makes both).
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.edges == other.edges && self.bytes() == other.bytes()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Payload")
            .field("len", &self.len)
            .field("edges", &self.edges)
            .field("made", &self.bytes.get().is_some())
            .finish()
    }
}

/// One ready task: its producers' payloads, sorted by producer task ID;
/// the plan's estimates of what each consumer reads, which only
/// [`LengthOnly`] stores; and the modelled bytes per second of the link
/// its output will be written over — the durable store's when the
/// deployment writes it durably, the fabric NIC's otherwise. An executor
/// that compresses decides from this price, never from a measured time.
/// Nothing the cluster prices reads the estimates: it reads the payload
/// the executor returns.
#[derive(Debug)]
pub struct ReadyTask<'a> {
    /// The task to run.
    pub task: TaskId,
    /// `(producer, its stored payload)`, by producer task ID.
    pub inputs: Vec<(TaskId, &'a Payload)>,
    /// `(consumer, the plan's estimate of what it reads)`, by consumer
    /// task ID: the edge's estimated bytes, and the consumer's planned
    /// rows divided evenly among its producers, so the estimates of all
    /// its inputs add up to exactly the rows its compute was planned at.
    pub consumers: Vec<(TaskId, EdgeSize)>,
    /// The spec's estimated output bytes.
    pub output_bytes: u64,
    /// Modelled bytes per second of the link the output is written over.
    pub link_bps: u64,
}

/// Executes a task's real computation from its inputs' payloads.
pub trait TaskExecutor {
    /// Runs one task. `inputs` holds one entry per producer task (each
    /// producer's full stored payload); the executor is responsible for
    /// any per-consumer partitioning, and says what each consumer reads
    /// with [`Payload::with_edges`]. The returned payload is stored as
    /// the task's output. The cluster calls it once per attempt, when
    /// that attempt's own `Finish` commits, and never ahead of it: an
    /// attempt aborted before its finish is never run.
    fn execute(&mut self, task: &ReadyTask<'_>) -> Result<Payload, String>;
}

/// The executor every cluster starts with: it computes nothing, and a
/// task's payload is its spec's estimates alone — `output_bytes` whole
/// and each consumer's estimated bytes and rows — so a run without a
/// data plane is placed and priced at exactly the estimates its job
/// declares, its compute included.
#[derive(Debug, Clone, Copy, Default)]
pub struct LengthOnly;

impl TaskExecutor for LengthOnly {
    fn execute(&mut self, task: &ReadyTask<'_>) -> Result<Payload, String> {
        Ok(Payload::length_only(
            task.output_bytes,
            task.consumers.clone(),
        ))
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
    fn a_consumer_reads_its_edge_length_or_the_whole() {
        let size = |bytes, rows| EdgeSize { bytes, rows };
        let sized =
            Payload::length_only(40, vec![(TaskId(3), size(10, 5)), (TaskId(7), size(40, 9))]);
        assert!(sized.is_length_only());
        let reads = |p: &Payload| [3, 7, 9].map(|c| p.edge_len(TaskId(c)));
        let rows = |p: &Payload| [3, 7, 9].map(|c| p.edge_rows(TaskId(c)));
        assert_eq!((sized.len(), reads(&sized)), (40, [10, 40, 40]));
        assert_eq!(rows(&sized), [Some(5), Some(9), None]);
        assert!(sized.bytes().is_empty());
        assert!(sized.content::<Counted>().is_none());
        let made = Payload::from(vec![1, 2, 3]).with_edges(vec![(TaskId(7), size(2, 1))]);
        assert!(!made.is_length_only());
        assert_eq!(
            (reads(&made), rows(&made)),
            ([3, 2, 3], [None, Some(1), None])
        );
        assert_ne!(made, Payload::from(vec![1, 2, 3]));
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
