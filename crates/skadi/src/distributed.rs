//! The distributed SQL data plane.
//!
//! [`GraphExecutor`] bridges the physical graph and the runtime's
//! [`TaskExecutor`] hook: when the simulated cluster finishes a task, the
//! executor runs that shard's [`ExecOp`] descriptor over real
//! `skadi-arrow` batches — taking this consumer's portion of each
//! producer's output (hash partition for shuffles, contiguous slice for
//! scatters, the whole batch for pipelines/gathers/broadcasts),
//! executing the shard kernel from `skadi_frontends::shard`, and encoding
//! the result. The returned bytes become the task's stored payload, so
//! every downstream size the simulator prices (transfer bytes,
//! pass-by-value inlining, cache copies) is **measured**, not estimated.
//!
//! # Staging
//!
//! Every output is still encoded and compressed to the bytes the cluster
//! stores and prices, but its consumers do not each decode those bytes
//! again: the executor keeps the producer's batch when its shard commits
//! and divides it once per out-edge shape, and each consumer takes its
//! share by reference. The kept batch is trusted only for the payload it
//! was encoded to — the address and length of the shared buffer the
//! cluster hands every consumer. Anything else (a cold executor, an entry
//! already released, a producer that ran again under recovery) decodes
//! the bytes it was given, which yields the same batch: the frame *is*
//! the batch's buffers. An entry is dropped once as many consumers have
//! been prepared as the producer has, so a job holds at most the outputs
//! still waiting to be read.
//!
//! Determinism: task inputs are produced deterministically (scans slice
//! contiguous row ranges, partitions preserve row order, gathers
//! canonicalize on the hidden row-id column), so re-executing a task
//! under lineage recovery reproduces identical bytes — the property the
//! runtime's replay contract requires, and the one
//! `tests/distributed_sql.rs` pins byte-for-byte against the
//! single-process reference engine.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::{compression, ipc};
use skadi_flowgraph::physical::{PEdgeKind, PVertexId, PhysicalGraph};
use skadi_flowgraph::profile::{OpProfile, QueryProfile, ShardStats};
use skadi_flowgraph::ExecOp;
use skadi_frontends::exec::pool;
use skadi_frontends::shard::{self, ShardExecStats};
use skadi_frontends::sql::SqlError;
use skadi_runtime::{TaskExecutor, TaskId};

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
    /// Stored payloads decompressed and decoded back into batches: one
    /// per producer whose kept batch was not there to hand over (none in
    /// a failure-free run of one executor). A count, not a time —
    /// repeats exactly from run to run.
    pub payload_decodes: u64,
    /// Whole-batch hash-partition passes: one per producer with a shuffle
    /// out-edge, however many consumer shards share the result.
    pub partition_passes: u64,
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

/// True if this vertex's kernel starts with a join — its keyed inputs
/// must then co-locate mixed `Int64`/`Float64` keys, so shuffle
/// partitioning hashes integers through their `f64` bit pattern exactly
/// like the join probe does.
fn is_join_consumer(op: &ExecOp) -> bool {
    match op {
        ExecOp::Join { .. } => true,
        ExecOp::Fused(ops) => ops.first().is_some_and(is_join_consumer),
        _ => false,
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
    compress: bool,
    adaptive: bool,
    /// Distinct consumer tasks of each vertex, by vertex id.
    consumers: Vec<usize>,
    /// Producer outputs waiting to be read, by producer task.
    staged: BTreeMap<u64, Staged>,
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

/// One producer's output, staged for its consumers (see the module docs).
struct Staged {
    /// Address and length of the stored payload `batch` corresponds to.
    payload: (usize, usize),
    batch: RecordBatch,
    /// `batch` divided, once per distinct out-edge shape.
    splits: Vec<(Split, Vec<RecordBatch>)>,
    /// Consumers yet to be prepared; the entry is dropped with the last.
    consumers_left: usize,
}

impl Staged {
    fn identity(payload: &[u8]) -> (usize, usize) {
        (payload.as_ptr() as usize, payload.len())
    }

    /// Shard `shard`'s share under `split`, dividing the batch the first
    /// time the shape is asked for.
    fn share(
        &mut self,
        split: Split,
        shard: u32,
        stats: &RefCell<DataPlaneStats>,
    ) -> Result<RecordBatch, SqlError> {
        let at = match self.splits.iter().position(|(s, _)| *s == split) {
            Some(at) => at,
            None => {
                let parts = match &split {
                    Split::ByKey { key, parts, coerce } => {
                        stats.borrow_mut().partition_passes += 1;
                        shard::partition_by_key(&self.batch, key, *parts, *coerce)?
                    }
                    Split::Even { parts } => shard::split_even(&self.batch, *parts),
                };
                self.splits.push((split, parts));
                self.splits.len() - 1
            }
        };
        Ok(self.splits[at].1[shard as usize].clone())
    }
}

impl GraphExecutor {
    /// Builds an executor for `graph` reading base tables from `tables`.
    /// Stored payloads are block-compressed by default (see
    /// [`GraphExecutor::with_compression`]).
    pub fn new(graph: PhysicalGraph, tables: BTreeMap<String, RecordBatch>) -> Self {
        let mut pairs: Vec<(u32, u32)> = graph.edges().iter().map(|e| (e.from.0, e.to.0)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut consumers = vec![0usize; graph.len()];
        for (from, _) in pairs {
            consumers[from as usize] += 1;
        }
        GraphExecutor {
            graph: Arc::new(graph),
            tables: Arc::new(tables),
            stats: Rc::new(RefCell::new(DataPlaneStats::default())),
            compress: true,
            adaptive: false,
            consumers,
            staged: BTreeMap::new(),
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

    /// Toggles block compression of stored task payloads. When on, each
    /// shard's IPC frame goes through [`compression::maybe_compress`]
    /// before the cluster stores it, so every byte size the simulator
    /// prices (transfer, inlining, caching) reflects the compressed
    /// frame. Decode auto-detects by magic, so producers and consumers
    /// never need to agree out of band.
    ///
    /// [`compression::maybe_compress`]: skadi_arrow::compression::maybe_compress
    pub fn with_compression(mut self, on: bool) -> Self {
        self.compress = on;
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
    port0: Vec<RecordBatch>,
    port1: Vec<RecordBatch>,
    rows_in: usize,
}

/// A finished shard run: the output batch, its encoded payload and
/// measurements, waiting to be committed on the calling thread.
struct ShardRun {
    out: RecordBatch,
    bytes: Vec<u8>,
    wall: Duration,
    exec_stats: ShardExecStats,
}

impl GraphExecutor {
    /// The staged output of producer `p`, which the cluster stored as
    /// `payload`: the batch kept at commit if it is the one these bytes
    /// were encoded from, the bytes decoded (block-compressed or plain,
    /// told apart by magic) otherwise.
    fn stage(&mut self, p: TaskId, payload: &[u8]) -> Result<&mut Staged, String> {
        let identity = Staged::identity(payload);
        if self.staged.get(&p.0).is_none_or(|s| s.payload != identity) {
            let frame = if compression::is_compressed(payload) {
                compression::decompress(payload)
                    .map_err(|e| format!("decompress payload of {p}: {e}"))?
            } else {
                payload.to_vec()
            };
            let batch = ipc::decode(Bytes::from(frame))
                .map_err(|e| format!("decode payload of {p}: {e}"))?;
            self.stats.borrow_mut().payload_decodes += 1;
            let staged = Staged {
                payload: identity,
                batch,
                splits: Vec::new(),
                consumers_left: self.consumers[p.0 as usize],
            };
            self.staged.insert(p.0, staged);
        }
        Ok(self.staged.get_mut(&p.0).expect("staged above"))
    }

    /// Stages task `t`: takes this shard's portion of each in-edge from
    /// its producer's staged output and records edge row counts. Runs on
    /// the calling thread (it touches `stats` and the staged outputs).
    fn prepare(&mut self, t: TaskId, inputs: &[(TaskId, &[u8])]) -> Result<PreparedShard, String> {
        let idx = t.0 as usize;
        if idx >= self.graph.len() {
            return Err(format!("task {t} has no physical vertex"));
        }
        let graph = Arc::clone(&self.graph);
        let v = graph.vertex(PVertexId(t.0 as u32));
        let op = v
            .exec
            .as_ref()
            .ok_or_else(|| format!("vertex {} ({}) has no exec descriptor", v.id, v.op))?;

        // This shard's view of each in-edge, ordered by (port, producer
        // shard): the order the shard kernels document for their inputs.
        let mut edges = graph.in_edges(v.id);
        edges.sort_by_key(|e| (e.port, graph.vertex(e.from).shard, e.from.0));
        let mut port0: Vec<RecordBatch> = Vec::new();
        let mut port1: Vec<RecordBatch> = Vec::new();
        let mut rows_in = 0usize;
        let stats = Rc::clone(&self.stats);
        for e in &edges {
            let from = TaskId(e.from.0 as u64);
            let payload = inputs
                .iter()
                .find(|(p, _)| *p == from)
                .ok_or_else(|| format!("missing payload from {} into {}", e.from, v.id))?
                .1;
            let staged = self.stage(from, payload)?;
            let part = match &e.kind {
                PEdgeKind::Shuffle { key, .. } => {
                    let split = Split::ByKey {
                        key: key.clone(),
                        parts: v.shards as usize,
                        coerce: is_join_consumer(op),
                    };
                    let mine = staged
                        .share(split, v.shard, &stats)
                        .map_err(|err| format!("shuffle into {}: {err}", v.id))?;
                    stats
                        .borrow_mut()
                        .shuffle_rows
                        .insert((from.0, t.0), mine.num_rows());
                    mine
                }
                PEdgeKind::Scatter => {
                    let split = Split::Even {
                        parts: v.shards as usize,
                    };
                    staged
                        .share(split, v.shard, &stats)
                        .map_err(|err| format!("scatter into {}: {err}", v.id))?
                }
                PEdgeKind::Pipeline | PEdgeKind::Gather | PEdgeKind::Broadcast => {
                    staged.batch.clone()
                }
            };
            stats
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

        // This consumer is served: release what nobody else will read.
        let mut producers: Vec<u64> = edges.iter().map(|e| e.from.0 as u64).collect();
        producers.sort_unstable();
        producers.dedup();
        for p in producers {
            if let Some(staged) = self.staged.get_mut(&p) {
                staged.consumers_left = staged.consumers_left.saturating_sub(1);
                if staged.consumers_left == 0 {
                    self.staged.remove(&p);
                }
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
        })
    }

    /// Runs one staged shard: a pure function of the prepared inputs and
    /// the (shared, immutable) base tables — safe on any pool thread.
    fn run_shard(
        tables: &BTreeMap<String, RecordBatch>,
        p: &PreparedShard,
        compress: bool,
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
        let frame = ipc::encode(&out);
        let bytes = if compress {
            compression::maybe_compress(&frame)
        } else {
            frame.to_vec()
        };
        Ok(ShardRun {
            out,
            bytes,
            wall,
            exec_stats,
        })
    }

    /// Records a finished run's measurements, keeps its batch for the
    /// consumers of the payload and releases the payload.
    fn commit(&mut self, p: &PreparedShard, run: ShardRun) -> Vec<u8> {
        self.stats.borrow_mut().timings.push(ShardTiming {
            task: p.task,
            op_id: p.op_id,
            op: p.op_name.clone(),
            shard: p.shard,
            shards: p.shards,
            rows_in: p.rows_in,
            rows_out: run.out.num_rows(),
            output_bytes: run.bytes.len() as u64,
            wall: run.wall,
            exec_stats: run.exec_stats,
        });
        let consumers_left = self.consumers[p.task.0 as usize];
        if consumers_left > 0 {
            let staged = Staged {
                payload: Staged::identity(&run.bytes),
                batch: run.out,
                splits: Vec::new(),
                consumers_left,
            };
            self.staged.insert(p.task.0, staged);
        }
        run.bytes
    }
}

impl TaskExecutor for GraphExecutor {
    fn execute(&mut self, t: TaskId, inputs: &[(TaskId, &[u8])]) -> Result<Vec<u8>, String> {
        let p = self.prepare(t, inputs)?;
        let run = Self::run_shard(&self.tables, &p, self.compress, self.adaptive)?;
        Ok(self.commit(&p, run))
    }

    /// Same-instant batch: staging and commits stay serial in task-ID
    /// order (the order the cluster hands us), while the shard kernels —
    /// pure functions of their staged inputs — overlap on the shared
    /// worker pool. Output bytes, row counts, and every stat except wall
    /// nanos are identical to running the batch one task at a time.
    fn execute_ready(
        &mut self,
        tasks: &[(TaskId, Vec<(TaskId, &[u8])>)],
    ) -> Vec<Result<Vec<u8>, String>> {
        let prepared: Vec<Result<PreparedShard, String>> = tasks
            .iter()
            .map(|(t, inputs)| self.prepare(*t, inputs))
            .collect();
        let prepared = Arc::new(prepared);
        let prepared2 = Arc::clone(&prepared);
        let tables = Arc::clone(&self.tables);
        let compress = self.compress;
        let adaptive = self.adaptive;
        let runs = pool::global().run_indexed(prepared.len(), move |i| match &prepared2[i] {
            Ok(p) => Some(Self::run_shard(&tables, p, compress, adaptive)),
            Err(_) => None,
        });
        prepared
            .iter()
            .zip(runs)
            .map(|(p, run)| match (p, run) {
                (Ok(p), Some(Ok(run))) => Ok(self.commit(p, run)),
                (Ok(_), Some(Err(e))) => Err(e),
                (Err(e), _) => Err(e.clone()),
                (Ok(_), None) => unreachable!("prepared shard must produce a run"),
            })
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
    /// does: every consumer is handed the one buffer its producer's
    /// payload lives in. Each kept batch must re-encode to exactly the
    /// frame that was stored, no payload is ever decoded, and an entry is
    /// gone once its last consumer has been prepared.
    #[test]
    fn kept_batches_are_the_stored_frames_and_are_released() {
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
        let mut exec = GraphExecutor::new(phys.clone(), db.tables().clone());

        let mut stored: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        let mut kept = 0;
        for v in phys.topo_order().unwrap() {
            let mut producers: Vec<u32> = phys.in_edges(v).iter().map(|e| e.from.0).collect();
            producers.sort_unstable();
            producers.dedup();
            let inputs: Vec<(TaskId, &[u8])> = producers
                .iter()
                .map(|p| (TaskId(*p as u64), stored[p].as_slice()))
                .collect();
            let out = exec.execute(TaskId(v.0 as u64), &inputs).unwrap();
            if let Some(staged) = exec.staged.get(&(v.0 as u64)) {
                let frame = ipc::encode(&staged.batch);
                assert_eq!(compression::maybe_compress(&frame), out, "task {v}");
                assert_eq!(staged.payload, Staged::identity(&out));
                kept += 1;
            }
            stored.insert(v.0, out);
        }
        assert_eq!(kept, phys.len() - 1, "every output but the sink's is kept");
        assert_eq!(exec.stats.borrow().payload_decodes, 0);
        assert!(
            exec.stats.borrow().partition_passes > 0,
            "the plan shuffles"
        );
        assert!(exec.staged.is_empty(), "every consumer has been served");
    }

    #[test]
    fn join_consumer_detection_sees_through_fusion() {
        let join = ExecOp::Join {
            left_key: "k".into(),
            right_key: "k".into(),
            right_rows: 10,
        };
        let filt = ExecOp::Filter { conjuncts: vec![] };
        assert!(is_join_consumer(&join));
        assert!(is_join_consumer(&ExecOp::Fused(vec![
            join.clone(),
            filt.clone()
        ])));
        assert!(!is_join_consumer(&filt));
        assert!(!is_join_consumer(&ExecOp::Fused(vec![filt, join])));
    }
}
