//! The distributed SQL data plane.
//!
//! [`GraphExecutor`] bridges the physical graph and the runtime's
//! [`TaskExecutor`] hook: when the simulated cluster finishes a task, the
//! executor runs that shard's [`ExecOp`] descriptor over real
//! `skadi-arrow` batches — taking this consumer's portion of each
//! producer's output (its rows of a hash partition for shuffles, a
//! contiguous slice for scatters, the whole batch for
//! pipelines/gathers/broadcasts) and executing the shard kernel from
//! `skadi_frontends::shard`. The output
//! becomes the task's stored [`Payload`], whose length every downstream
//! size the simulator prices (transfer bytes, pass-by-value inlining,
//! cache copies) reads: **measured**, not estimated.
//!
//! # Payloads: a length and the batch
//!
//! A shard's output crosses no real link, so its bytes are made only
//! where the model says they are worth making. The length is arithmetic
//! (`ipc::encoded_len`, the frame's buffer lengths summed), and
//! [`compression::pays`] decides from it and the modelled bytes per
//! second of the link the cluster will write the output over. Where no
//! ratio could pay — the fabric's 25 GiB/s NIC, so every output of the
//! default deployment — the payload is that length plus an `Output`
//! holding the batch, and the frame is encoded only if something reads
//! the payload's bytes (`Cluster::task_payload`), once. Where
//! compressing could pay (the durable store, a slow NIC), the frame is
//! made and compressed to learn its ratio, and stored compressed when the
//! rule says so; the batch stays beside the bytes either way.
//!
//! Consumers never read bytes. Each takes its share of its producer's
//! batch through the payload's content: the batch is divided once per
//! out-edge shape — a shuffle into one ascending row list per consumer
//! shard, a scatter into views — and every consumer shard takes its part
//! by reference. No row is copied until the consumer's merge-gather
//! copies it, once, into its input. A payload the content does not come
//! with (bytes handed over by a caller) is decoded — decompressed first
//! when it carries the block magic — to the same batch, buffer for
//! buffer: a frame *is* the batch's buffers.
//!
//! Determinism: task inputs are produced deterministically (scans slice
//! contiguous row ranges, row lists ascend, gathers merge into canonical
//! order on the hidden key columns), so re-executing a task
//! under lineage recovery reproduces an identical payload — the property
//! the runtime's replay contract requires, and the one
//! `tests/distributed_sql.rs` pins byte-for-byte against the
//! single-process reference engine.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::error::ArrowError;
use skadi_arrow::{compression, ipc};
use skadi_flowgraph::physical::{PEdgeKind, PVertexId, PhysicalGraph};
use skadi_flowgraph::profile::{OpProfile, QueryProfile, ShardStats};
use skadi_flowgraph::ExecOp;
use skadi_frontends::exec::pool;
use skadi_frontends::shard::{self, Part, ShardExecStats};
use skadi_frontends::sql::SqlError;
use skadi_runtime::{Content, Payload, ReadyTask, TaskExecutor, TaskId};

/// One shard's measured execution, recorded by [`GraphExecutor`].
#[derive(Debug, Clone)]
pub struct ShardTiming {
    /// The runtime task that ran this shard.
    pub task: TaskId,
    /// Stable operator id (shared by all shards of one operator).
    pub op_id: u32,
    /// Operator name (the physical vertex's op).
    pub op: String,
    /// Shard index within the operator.
    pub shard: u32,
    /// Total shards of the operator.
    pub shards: u32,
    /// Rows entering the shard kernel (after partition extraction).
    pub rows_in: usize,
    /// Rows the shard produced.
    pub rows_out: usize,
    /// Encoded output size in bytes (what the cluster stores).
    pub output_bytes: u64,
    /// Real wall-clock time spent in the shard kernel.
    pub wall: Duration,
    /// Kernel measurements: hash-table counters and filter row counts.
    pub exec_stats: ShardExecStats,
}

/// Measurements shared out of the executor (the cluster owns the
/// executor box; callers keep a clone of this handle).
#[derive(Debug, Clone, Default)]
pub struct DataPlaneStats {
    /// Per-task shard timings, in completion order (re-executions under
    /// recovery append again).
    pub timings: Vec<ShardTiming>,
    /// Rows delivered over each shuffle edge, keyed by
    /// `(producer task, consumer task)`. Deterministic across runs and
    /// seeds — the shuffle hash is data-dependent only.
    pub shuffle_rows: BTreeMap<(u64, u64), usize>,
    /// Rows delivered over EVERY physical edge (all kinds), keyed by
    /// `(producer task, consumer task)`. Re-executions overwrite, so the
    /// map holds each edge's final delivery.
    pub edge_rows: BTreeMap<(u64, u64), usize>,
    /// Payloads decoded back into batches: one per input that reached a
    /// consumer as bytes alone, without the batch its producer kept (none
    /// when one executor runs the job, under recovery too). A count, not
    /// a time — repeats exactly from run to run.
    pub payload_decodes: u64,
    /// Whole-batch hash-partition passes: one per producer with a shuffle
    /// out-edge, however many consumer shards share the result.
    pub partition_passes: u64,
    /// Outputs stored compressed: one per output whose link made
    /// compressing pay ([`compression::pays`]) — none on the fabric's NIC.
    pub compressed_outputs: u64,
    /// Frames made because something read a payload's bytes
    /// (`Cluster::task_payload`); zero until something does.
    pub payloads_materialised: u64,
}

impl DataPlaneStats {
    /// Total wall-clock across all shard executions.
    pub fn total_wall(&self) -> Duration {
        self.timings.iter().map(|t| t.wall).sum()
    }

    /// Joins that adaptively built on the nominal probe side (summed
    /// over every shard execution, re-executions included). Always zero
    /// when adaptive execution is off.
    pub fn build_swaps(&self) -> u64 {
        self.timings.iter().map(|t| t.exec_stats.build_swaps).sum()
    }

    /// Assembles the per-operator [`QueryProfile`] from the recorded
    /// shard timings and the physical graph's structure. When lineage
    /// recovery re-executed a task, the LAST recorded timing wins (it is
    /// the execution whose payload survived). Operator inputs come from
    /// the graph's edges, deduplicated to `(producer op_id, port)`.
    pub fn query_profile(
        &self,
        graph: &PhysicalGraph,
        query: &str,
        parallelism: u32,
        skew_multiple: f64,
    ) -> QueryProfile {
        // Last timing per task wins.
        let mut by_task: BTreeMap<u64, &ShardTiming> = BTreeMap::new();
        for t in &self.timings {
            by_task.insert(t.task.0, t);
        }
        let mut ops: BTreeMap<u32, OpProfile> = BTreeMap::new();
        for v in graph.vertices() {
            let op = ops.entry(v.op_id).or_insert_with(|| OpProfile {
                op_id: v.op_id,
                op: v.op.clone(),
                body: v.body.clone(),
                table: v
                    .exec
                    .as_ref()
                    .and_then(ExecOp::scanned_table)
                    .map(str::to_string),
                inputs: Vec::new(),
                shards: Vec::new(),
            });
            let timing = by_task.get(&(v.id.0 as u64));
            let mut s = ShardStats {
                shard: v.shard,
                ..ShardStats::default()
            };
            if let Some(t) = timing {
                s.rows_in = t.rows_in as u64;
                s.rows_out = t.rows_out as u64;
                s.output_bytes = t.output_bytes;
                s.wall_nanos = t.wall.as_nanos() as u64;
                s.selectivity = t.exec_stats.selectivity();
                s.hash_slots = t.exec_stats.kernel.hash_slots;
                s.hash_collisions = t.exec_stats.kernel.hash_collisions;
                s.groups = t.exec_stats.kernel.groups;
                s.rehashes = t.exec_stats.kernel.rehashes;
            }
            op.shards.push(s);
        }
        for e in graph.edges() {
            let from_op = graph.vertex(e.from).op_id;
            let to_op = graph.vertex(e.to).op_id;
            if let Some(op) = ops.get_mut(&to_op) {
                if !op.inputs.contains(&(from_op, e.port)) {
                    op.inputs.push((from_op, e.port));
                }
            }
        }
        let mut ops: Vec<OpProfile> = ops.into_values().collect();
        for op in &mut ops {
            op.shards.sort_by_key(|s| s.shard);
            op.inputs.sort_by_key(|&(id, port)| (port, id));
        }
        QueryProfile {
            query: query.to_string(),
            parallelism,
            skew_multiple,
            ops,
        }
    }
}

/// Executes physical-graph shards over real record batches.
///
/// The graph and base tables live behind `Arc` so shard computation —
/// a pure function of `(descriptor, inputs)` — can run on the shared
/// worker pool when the cluster hands over a same-instant batch via
/// [`TaskExecutor::execute_ready`]. Stats stay single-threaded: input
/// staging and timing commits happen on the calling thread, in task-ID
/// order, so measurements are as deterministic as the serial path.
pub struct GraphExecutor {
    graph: Arc<PhysicalGraph>,
    tables: Arc<BTreeMap<String, RecordBatch>>,
    stats: Rc<RefCell<DataPlaneStats>>,
    adaptive: bool,
}

/// How an edge divides its producer's batch among the consumer's shards.
#[derive(PartialEq, Eq)]
enum Split {
    /// Hash partitions on a key column (shuffle edges).
    ByKey {
        key: String,
        parts: usize,
        coerce: bool,
    },
    /// Contiguous even ranges (scatter edges).
    Even { parts: usize },
}

/// One shard's output as its payload keeps it (see the module docs).
struct Output {
    batch: RecordBatch,
    /// `batch` divided, once per distinct out-edge shape: one part per
    /// consumer shard.
    splits: RefCell<Vec<(Split, Vec<Part>)>>,
    /// Where partition passes and made frames are counted.
    stats: Rc<RefCell<DataPlaneStats>>,
}

impl Output {
    fn new(batch: RecordBatch, stats: &Rc<RefCell<DataPlaneStats>>) -> Self {
        Output {
            batch,
            splits: RefCell::new(Vec::new()),
            stats: Rc::clone(stats),
        }
    }

    /// Shard `shard`'s share under `split`, dividing the batch the first
    /// time the shape is asked for: one hash pass gives every consumer
    /// shard of a shuffle its row list.
    fn share(&self, split: Split, shard: u32) -> Result<Part, SqlError> {
        let mut splits = self.splits.borrow_mut();
        let at = match splits.iter().position(|(s, _)| *s == split) {
            Some(at) => at,
            None => {
                let parts = match &split {
                    Split::ByKey { key, parts, coerce } => {
                        self.stats.borrow_mut().partition_passes += 1;
                        let lists = shard::partition_by_key(&self.batch, key, *parts, *coerce)?;
                        let part = |rows| Part::selection(self.batch.clone(), Arc::new(rows));
                        lists.into_iter().map(part).collect()
                    }
                    Split::Even { parts } => shard::split_even(&self.batch, *parts)
                        .into_iter()
                        .map(Part::whole)
                        .collect(),
                };
                splits.push((split, parts));
                splits.len() - 1
            }
        };
        Ok(splits[at].1[shard as usize].clone())
    }
}

impl Content for Output {
    fn materialise(&self) -> Vec<u8> {
        self.stats.borrow_mut().payloads_materialised += 1;
        ipc::encode(&self.batch).to_vec()
    }
}

/// Decodes stored bytes — block-compressed or plain, told apart by
/// magic — back into the batch they were made from.
fn decode(bytes: &[u8]) -> Result<RecordBatch, ArrowError> {
    let frame = if compression::is_compressed(bytes) {
        compression::decompress(bytes)?
    } else {
        bytes.to_vec()
    };
    ipc::decode(Bytes::from(frame))
}

/// The batch a payload holds: the one its executor kept, or its bytes
/// decoded when it came without one.
pub(crate) fn payload_batch(payload: &Payload) -> Result<RecordBatch, ArrowError> {
    match payload.content::<Output>() {
        Some(output) => Ok(output.batch.clone()),
        None => decode(payload.bytes()),
    }
}

impl GraphExecutor {
    /// Builds an executor for `graph` reading base tables from `tables`.
    pub fn new(graph: PhysicalGraph, tables: BTreeMap<String, RecordBatch>) -> Self {
        GraphExecutor {
            graph: Arc::new(graph),
            tables: Arc::new(tables),
            stats: Rc::new(RefCell::new(DataPlaneStats::default())),
            adaptive: false,
        }
    }

    /// Toggles adaptive shard execution: joins whose gathered build
    /// input is observed (at runtime, from real row counts) to dwarf the
    /// probe input build their hash table on the smaller side. Results
    /// are byte-identical either way — the decision only changes which
    /// side pays the hash-table build.
    pub fn with_adaptive(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// A shared handle onto the executor's measurements; stays readable
    /// after the executor box moves into the cluster.
    pub fn stats(&self) -> Rc<RefCell<DataPlaneStats>> {
        Rc::clone(&self.stats)
    }
}

/// One task's shard, staged and ready to run: the exec descriptor plus
/// this shard's extracted portion of every input edge. Produced serially
/// by [`GraphExecutor::prepare`]; consumed by the pure
/// [`GraphExecutor::run_shard`] (safe to run on any thread).
struct PreparedShard {
    task: TaskId,
    op: ExecOp,
    op_id: u32,
    op_name: String,
    shard: u32,
    shards: u32,
    port0: Vec<Part>,
    port1: Vec<Part>,
    rows_in: usize,
    /// Modelled bytes per second of the link the output is written over.
    link_bps: u64,
}

/// A finished shard run, waiting to be committed on the calling thread:
/// the output batch, its frame's length, the compressed frame when the
/// rule chose to store it so, and measurements.
struct ShardRun {
    out: RecordBatch,
    len: usize,
    packed: Option<Vec<u8>>,
    wall: Duration,
    exec_stats: ShardExecStats,
}

impl GraphExecutor {
    /// Stages a ready task: takes this shard's portion of each in-edge
    /// from its producer's output and records edge row counts. Runs on
    /// the calling thread (it touches `stats`).
    fn prepare(&self, ready: &ReadyTask<'_>) -> Result<PreparedShard, String> {
        let t = ready.task;
        let idx = t.0 as usize;
        if idx >= self.graph.len() {
            return Err(format!("task {t} has no physical vertex"));
        }
        let graph = &self.graph;
        let v = graph.vertex(PVertexId(t.0 as u32));
        let op = v
            .exec
            .as_ref()
            .ok_or_else(|| format!("vertex {} ({}) has no exec descriptor", v.id, v.op))?;

        // This shard's view of each in-edge, ordered by (port, producer
        // shard): the order the shard kernels document for their inputs.
        let mut edges = graph.in_edges(v.id);
        edges.sort_by_key(|e| (e.port, graph.vertex(e.from).shard, e.from.0));
        let mut port0: Vec<Part> = Vec::new();
        let mut port1: Vec<Part> = Vec::new();
        let mut rows_in = 0usize;
        for e in &edges {
            let from = TaskId(e.from.0 as u64);
            let payload = ready
                .inputs
                .iter()
                .find(|(p, _)| *p == from)
                .ok_or_else(|| format!("missing payload from {} into {}", e.from, v.id))?
                .1;
            let decoded;
            let output = match payload.content::<Output>() {
                Some(output) => output,
                None => {
                    let batch = decode(payload.bytes())
                        .map_err(|err| format!("decode payload of {from}: {err}"))?;
                    self.stats.borrow_mut().payload_decodes += 1;
                    decoded = Output::new(batch, &self.stats);
                    &decoded
                }
            };
            let part = match &e.kind {
                PEdgeKind::Shuffle { key, .. } => {
                    let split = Split::ByKey {
                        key: key.clone(),
                        parts: v.shards as usize,
                        coerce: op.starts_with_join(),
                    };
                    let mine = output
                        .share(split, v.shard)
                        .map_err(|err| format!("shuffle into {}: {err}", v.id))?;
                    self.stats
                        .borrow_mut()
                        .shuffle_rows
                        .insert((from.0, t.0), mine.num_rows());
                    mine
                }
                PEdgeKind::Scatter => {
                    let split = Split::Even {
                        parts: v.shards as usize,
                    };
                    output
                        .share(split, v.shard)
                        .map_err(|err| format!("scatter into {}: {err}", v.id))?
                }
                PEdgeKind::Pipeline | PEdgeKind::Gather | PEdgeKind::Broadcast => {
                    Part::whole(output.batch.clone())
                }
            };
            self.stats
                .borrow_mut()
                .edge_rows
                .insert((from.0, t.0), part.num_rows());
            rows_in += part.num_rows();
            if e.port == 1 {
                port1.push(part);
            } else {
                port0.push(part);
            }
        }

        Ok(PreparedShard {
            task: t,
            op: op.clone(),
            op_id: v.op_id,
            op_name: v.op.clone(),
            shard: v.shard,
            shards: v.shards,
            port0,
            port1,
            rows_in,
            link_bps: ready.link_bps,
        })
    }

    /// Runs one staged shard: a pure function of the prepared inputs and
    /// the (shared, immutable) base tables — safe on any pool thread.
    fn run_shard(
        tables: &BTreeMap<String, RecordBatch>,
        p: &PreparedShard,
        adaptive: bool,
    ) -> Result<ShardRun, String> {
        let mut exec_stats = ShardExecStats::default();
        let started = std::time::Instant::now();
        let out = shard::execute_shard_adaptive(
            &p.op,
            tables,
            p.shard,
            p.shards,
            &p.port0,
            &p.port1,
            adaptive,
            &mut exec_stats,
        )
        .map_err(|e| format!("shard {}/{} of {}: {e}", p.shard, p.shards, p.op_name))?;
        let wall = started.elapsed();
        let len = ipc::encoded_len(&out);
        // The frame is made here only where compressing could pay on this
        // link, to learn its ratio; everywhere else the length is enough.
        let packed = if compression::pays(len, f64::INFINITY, p.link_bps) {
            compression::for_link(&ipc::encode(&out), &mut None, p.link_bps)
        } else {
            None
        };
        Ok(ShardRun {
            out,
            len,
            packed,
            wall,
            exec_stats,
        })
    }

    /// Records a finished run's measurements and wraps its output in the
    /// payload the cluster stores.
    fn commit(&mut self, p: &PreparedShard, run: ShardRun) -> Payload {
        let rows_out = run.out.num_rows();
        let output = Output::new(run.out, &self.stats);
        let payload = match run.packed {
            Some(bytes) => {
                self.stats.borrow_mut().compressed_outputs += 1;
                Payload::with_bytes(bytes, output)
            }
            None => Payload::lazy(run.len as u64, output),
        };
        self.stats.borrow_mut().timings.push(ShardTiming {
            task: p.task,
            op_id: p.op_id,
            op: p.op_name.clone(),
            shard: p.shard,
            shards: p.shards,
            rows_in: p.rows_in,
            rows_out,
            output_bytes: payload.len(),
            wall: run.wall,
            exec_stats: run.exec_stats,
        });
        payload
    }
}

impl TaskExecutor for GraphExecutor {
    fn execute(&mut self, ready: &ReadyTask<'_>) -> Result<Payload, String> {
        let p = self.prepare(ready)?;
        let run = Self::run_shard(&self.tables, &p, self.adaptive)?;
        Ok(self.commit(&p, run))
    }

    /// Same-instant batch: staging and commits stay serial in task-ID
    /// order (the order the cluster hands us), while the shard kernels —
    /// pure functions of their staged inputs — overlap on the shared
    /// worker pool. Payloads, row counts, and every stat except wall
    /// nanos are identical to running the batch one task at a time.
    fn execute_ready(&mut self, tasks: &[ReadyTask<'_>]) -> Vec<Result<Payload, String>> {
        let prepared: Vec<Result<PreparedShard, String>> =
            tasks.iter().map(|t| self.prepare(t)).collect();
        let prepared = Arc::new(prepared);
        let prepared2 = Arc::clone(&prepared);
        let tables = Arc::clone(&self.tables);
        let adaptive = self.adaptive;
        let runs = pool::global().run_indexed(prepared.len(), move |i| {
            Self::run_shard(&tables, prepared2[i].as_ref()?, adaptive)
        });
        prepared
            .iter()
            .zip(runs)
            .map(|(p, run)| Ok(self.commit(p.as_ref()?, run?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_arrow::array::Array;
    use skadi_arrow::datatype::DataType;
    use skadi_arrow::schema::{Field, Schema};
    use skadi_flowgraph::lower::{lower_graph, LowerConfig};
    use skadi_frontends::exec::MemDb;
    use skadi_frontends::sql;
    use skadi_ir::BackendPolicy;

    /// Drives an executor by hand, task by task, the way the cluster
    /// does, over the fabric's NIC: every output is a length and its
    /// batch, nothing is compressed, decoded or encoded on the way, and a
    /// payload read afterwards is its batch's frame, made once. The same
    /// bytes handed to a second executor decode to the same batches and
    /// store the same bytes.
    #[test]
    fn payloads_are_lengths_until_read() {
        const FABRIC: u64 = 25 << 30;
        let n = 200i64;
        let tags: Vec<&str> = (0..n).map(|i| ["x", "y", "z"][i as usize % 3]).collect();
        let t = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("v", DataType::Float64, true),
                Field::new("tag", DataType::Utf8, false),
            ]),
            vec![
                Array::from_i64((0..n).map(|i| i % 7).collect()),
                Array::from_opt_f64((0..n).map(|i| (i % 5 != 0).then_some(i as f64)).collect()),
                Array::from_utf8(&tags),
            ],
        )
        .unwrap();
        let db = MemDb::new().register("t", t);
        let query = "SELECT tag, sum(v) AS s, count(*) AS n FROM t WHERE k > 1 GROUP BY tag";
        let (graph, _sink) = sql::plan_sql(query, &db.catalog()).unwrap();
        let lower = LowerConfig::new(4, BackendPolicy::cost_based());
        let phys = lower_graph(&graph, &lower).unwrap();

        // Each consumer reads its producers' stored payloads — or, `cold`,
        // only their bytes.
        let run = |exec: &mut GraphExecutor, cold: bool| {
            let mut stored: BTreeMap<u32, Payload> = BTreeMap::new();
            for v in phys.topo_order().unwrap() {
                let mut producers: Vec<u32> = phys.in_edges(v).iter().map(|e| e.from.0).collect();
                producers.sort_unstable();
                producers.dedup();
                let bytes: Vec<Payload> = producers
                    .iter()
                    .filter(|_| cold)
                    .map(|p| Payload::from(stored[p].bytes().to_vec()))
                    .collect();
                let inputs = producers
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (TaskId(*p as u64), bytes.get(i).unwrap_or(&stored[p])))
                    .collect();
                let ready = ReadyTask {
                    task: TaskId(v.0 as u64),
                    inputs,
                    link_bps: FABRIC,
                };
                let out = exec.execute(&ready).unwrap();
                stored.insert(v.0, out);
            }
            stored
        };
        let mut warm = GraphExecutor::new(phys.clone(), db.tables().clone());
        let stored = run(&mut warm, false);
        let counts = |e: &GraphExecutor| {
            let s = e.stats.borrow();
            (
                s.compressed_outputs,
                s.payload_decodes,
                s.payloads_materialised,
            )
        };
        assert_eq!(counts(&warm), (0, 0, 0));
        assert!(
            warm.stats.borrow().partition_passes > 0,
            "the plan shuffles"
        );
        for (v, payload) in &stored {
            let batch = &payload.content::<Output>().unwrap().batch;
            assert_eq!(payload.len(), ipc::encode(batch).len() as u64, "task {v}");
            assert_eq!(payload.bytes(), ipc::encode(batch).as_slice(), "task {v}");
            assert_eq!(payload.bytes(), ipc::encode(batch).as_slice(), "task {v}");
        }
        assert_eq!(counts(&warm), (0, 0, stored.len() as u64), "each made once");

        let mut cold = GraphExecutor::new(phys.clone(), db.tables().clone());
        let again = run(&mut cold, true);
        assert_eq!(again, stored);
        assert!(cold.stats.borrow().payload_decodes > 0);
    }
}
