//! The distributed SQL data plane.
//!
//! [`GraphExecutor`] is the data plane a session installs in place of
//! the runtime's length-only executor: when the simulated cluster
//! finishes a task, the executor runs that shard's [`ExecOp`] descriptor
//! over real `skadi-arrow` batches — taking this consumer's part of each
//! producer's output (its rows of a hash partition for shuffles, a
//! contiguous slice for scatters, the whole batch for
//! pipelines/gathers/broadcasts) and executing the shard kernel from
//! `skadi_frontends::shard`. The output becomes the task's stored
//! [`Payload`], whose lengths every downstream size the simulator prices
//! reads: **measured**, not estimated — the whole output for storage,
//! replication and cached copies, each consumer's part for its transfer
//! and pass-by-value inlining. The kernels are the local engine's, with
//! no switch of their own: a join shard builds on whichever of its
//! gathered sides is smaller, as `MemDb` does, and
//! [`DataPlaneStats::build_swaps`] counts the shards that built on their
//! probe side.
//!
//! # Payloads: lengths and the batch
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
//! Consumers never read bytes. When a shard runs, its output is divided
//! once per split its consumers read — a shuffle into one ascending row
//! list per consumer shard, a scatter into views — and each consumer's
//! part is kept in the `Output` beside its length, the frame the part's
//! rows would make (`ipc::encoded_len_of_rows`, summed without gathering
//! them; a part of a compressed output is that length scaled by the
//! output's stored/plain ratio, rounded up). Every consumer shard takes
//! its part by reference: no row is copied until its merge-gather copies
//! it, once, into its input. A payload that arrives without its `Output`
//! is an internal error: every payload a run hands over was made by the
//! one executor of that run.
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

use skadi_arrow::batch::RecordBatch;
use skadi_arrow::{compression, ipc};
use skadi_flowgraph::physical::{
    PEdgeKind, PVertexId, PhysicalEdge, PhysicalGraph, PhysicalVertex,
};
use skadi_flowgraph::profile::{OpProfile, QueryProfile, ShardStats};
use skadi_flowgraph::ExecOp;
use skadi_frontends::shard::{self, Part};
use skadi_frontends::sql::SqlError;
use skadi_runtime::{Content, EdgeSize, Payload, ReadyTask, TaskExecutor, TaskId};

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
    /// What the shard's kernels measured: hash-table counters, build
    /// swaps and filter selectivity. Its shard, rows, bytes and wall are
    /// the fields above, which the profile takes from there.
    pub exec_stats: ShardStats,
}

/// Measurements shared out of the executor (the cluster owns the
/// executor box; callers keep a clone of this handle).
#[derive(Debug, Clone, Default)]
pub struct DataPlaneStats {
    /// Per-task shard timings, in the order the tasks' simulated finishes
    /// committed (re-executions under recovery append again).
    pub timings: Vec<ShardTiming>,
    /// Rows delivered over each shuffle edge, keyed by
    /// `(producer task, consumer task)`. Deterministic across runs and
    /// seeds — the shuffle hash is data-dependent only.
    pub shuffle_rows: BTreeMap<(u64, u64), usize>,
    /// Rows delivered over EVERY physical edge (all kinds), keyed by
    /// `(producer task, consumer task)`. Re-executions overwrite, so the
    /// map holds each edge's final delivery.
    pub edge_rows: BTreeMap<(u64, u64), usize>,
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
    /// Join shards that built their table on the probe side, because
    /// their build side held more than twice the probe side's rows
    /// (summed over every shard execution, re-executions included).
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
            op.shards.push(match by_task.get(&(v.id.0 as u64)) {
                Some(t) => ShardStats {
                    shard: v.shard,
                    rows_in: t.rows_in as u64,
                    rows_out: t.rows_out as u64,
                    output_bytes: t.output_bytes,
                    wall_nanos: t.wall.as_nanos() as u64,
                    ..t.exec_stats.clone()
                },
                None => ShardStats {
                    shard: v.shard,
                    ..ShardStats::default()
                },
            });
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

/// Executes physical-graph shards over real record batches, one task
/// at a time: the cluster calls [`TaskExecutor::execute`] once per
/// attempt, when its simulated `Finish` commits, and the shard's input
/// staging, kernel run and measurements all happen inside that call, in
/// finish order. A shard's kernels may still spread their morsels over
/// the shared worker pool; nothing the executor records depends on it.
pub struct GraphExecutor {
    graph: PhysicalGraph,
    tables: BTreeMap<String, RecordBatch>,
    stats: Rc<RefCell<DataPlaneStats>>,
}

/// How an edge divides its producer's batch among the consumer's shards.
#[derive(PartialEq, Eq)]
enum Split {
    /// Hash partitions on a key column (shuffle edges).
    ByKey { key: String, parts: usize },
    /// Contiguous even ranges (scatter edges).
    Even { parts: usize },
}

impl Split {
    /// `batch` divided: one part per consumer shard. A shuffle's one hash
    /// pass gives every shard its row list.
    fn divide(&self, batch: &RecordBatch) -> Result<Vec<Part>, SqlError> {
        Ok(match self {
            Split::ByKey { key, parts } => shard::partition_by_key(batch, key, *parts)?
                .into_iter()
                .map(|rows| Part::selection(batch.clone(), Arc::new(rows)))
                .collect(),
            Split::Even { parts } => shard::split_even(batch, *parts)
                .into_iter()
                .map(Part::whole)
                .collect(),
        })
    }
}

/// What a consumer reads of its producer's output: shard `.1` of a
/// split, or (`None`) the whole batch.
type Share = Option<(Split, u32)>;

/// One shard's output as its payload keeps it (see the module docs).
struct Output {
    batch: RecordBatch,
    /// Each consumer's part of `batch`, by consumer task ID: made once,
    /// when the shard ran, where its length was computed.
    parts: Vec<(TaskId, Part)>,
    /// Where made frames are counted.
    stats: Rc<RefCell<DataPlaneStats>>,
}

impl Output {
    /// The part `consumer` reads.
    fn part(&self, consumer: TaskId) -> Option<&Part> {
        let at = self.parts.binary_search_by_key(&consumer, |p| p.0).ok()?;
        Some(&self.parts[at].1)
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
/// The batch a payload's executor kept; a payload made elsewhere has
/// none.
pub(crate) fn payload_batch(payload: &Payload) -> Option<&RecordBatch> {
    payload.content::<Output>().map(|output| &output.batch)
}

impl GraphExecutor {
    /// Builds an executor for `graph` reading base tables from `tables`.
    pub fn new(graph: PhysicalGraph, tables: BTreeMap<String, RecordBatch>) -> Self {
        GraphExecutor {
            graph,
            tables,
            stats: Rc::new(RefCell::new(DataPlaneStats::default())),
        }
    }

    /// A shared handle onto the executor's measurements; stays readable
    /// after the executor box moves into the cluster.
    pub fn stats(&self) -> Rc<RefCell<DataPlaneStats>> {
        Rc::clone(&self.stats)
    }
}

impl GraphExecutor {
    /// This shard's part of each in-edge, by port, ordered by (port,
    /// producer shard): the order the shard kernels document for their
    /// inputs. Records each edge's delivered rows as it takes them.
    fn stage_inputs(
        &self,
        ready: &ReadyTask<'_>,
        v: &PhysicalVertex,
    ) -> Result<[Vec<Part>; 2], String> {
        let t = ready.task;
        let mut edges = self.graph.in_edges(v.id);
        edges.sort_by_key(|e| (e.port, self.graph.vertex(e.from).shard, e.from.0));
        let mut ports: [Vec<Part>; 2] = [Vec::new(), Vec::new()];
        for e in &edges {
            let from = TaskId(e.from.0 as u64);
            let payload = ready
                .inputs
                .iter()
                .find(|(p, _)| *p == from)
                .ok_or_else(|| format!("missing payload from {} into {}", e.from, v.id))?
                .1;
            let output = payload
                .content::<Output>()
                .ok_or_else(|| format!("payload of {from} holds no executor output"))?;
            let part = output
                .part(t)
                .cloned()
                .ok_or_else(|| format!("{from} kept no part of its output for {}", v.id))?;
            let mut stats = self.stats.borrow_mut();
            if let PEdgeKind::Shuffle { .. } = e.kind {
                stats.shuffle_rows.insert((from.0, t.0), part.num_rows());
            }
            stats.edge_rows.insert((from.0, t.0), part.num_rows());
            ports[usize::from(e.port == 1)].push(part);
        }
        Ok(ports)
    }

    /// What `e`'s consumer reads of its producer's output: its shard's
    /// part of a shuffle or scatter, the whole batch otherwise.
    fn share(&self, e: &PhysicalEdge) -> Share {
        let to = self.graph.vertex(e.to);
        let parts = to.shards as usize;
        let split = match &e.kind {
            PEdgeKind::Shuffle { key } => Split::ByKey {
                key: key.clone(),
                parts,
            },
            PEdgeKind::Scatter => Split::Even { parts },
            PEdgeKind::Pipeline | PEdgeKind::Gather | PEdgeKind::Broadcast => return None,
        };
        Some((split, to.shard))
    }
}

impl TaskExecutor for GraphExecutor {
    /// Runs one task's shard: takes this shard's part of each in-edge,
    /// runs the shard kernel over them and the base tables, divides the
    /// output once per split its consumers read, and records the run's
    /// measurements.
    fn execute(&mut self, ready: &ReadyTask<'_>) -> Result<Payload, String> {
        let t = ready.task;
        if t.0 as usize >= self.graph.len() {
            return Err(format!("task {t} has no physical vertex"));
        }
        let v = self.graph.vertex(PVertexId(t.0 as u32));
        let op = v
            .exec
            .as_ref()
            .ok_or_else(|| format!("vertex {} ({}) has no exec descriptor", v.id, v.op))?;
        let [port0, port1] = self.stage_inputs(ready, v)?;
        let rows_in = port0.iter().chain(&port1).map(Part::num_rows).sum();

        // What each consumer will read of this shard's output.
        let outs = self.graph.out_edges(v.id);
        let consumers = ready
            .consumers
            .iter()
            .map(|&(c, _)| {
                let e = outs.iter().find(|e| e.to.0 as u64 == c.0);
                let e = e.ok_or_else(|| format!("no edge from {} to task {c}", v.id))?;
                Ok((c, self.share(e)))
            })
            .collect::<Result<Vec<(TaskId, Share)>, String>>()?;

        let mut exec_stats = ShardStats::default();
        let started = std::time::Instant::now();
        let out = shard::execute_shard(
            op,
            &self.tables,
            v.shard,
            v.shards,
            &port0,
            &port1,
            &mut exec_stats,
        )
        .map_err(|e| format!("shard {}/{} of {}: {e}", v.shard, v.shards, v.op))?;
        let wall = started.elapsed();
        let len = ipc::encoded_len(&out);
        // The frame is made here only where compressing could pay on this
        // link, to learn its ratio; everywhere else the length is enough.
        let packed = if compression::pays(len, f64::INFINITY, ready.link_bps) {
            compression::for_link(&ipc::encode(&out), &mut None, ready.link_bps)
        } else {
            None
        };
        let stored = packed.as_ref().map_or(len, Vec::len) as u64;

        // Divide the output once per split its consumers read, and size
        // each consumer's part: its rows, and its bytes — a part of a
        // compressed output is its plain length scaled by the output's
        // stored/plain ratio, rounded up.
        let mut splits: Vec<(&Split, Vec<Part>)> = Vec::new();
        let mut parts = Vec::with_capacity(consumers.len());
        let mut edges = Vec::with_capacity(consumers.len());
        for (c, share) in &consumers {
            let Some((split, shard)) = share else {
                parts.push((*c, Part::whole(out.clone())));
                let rows = out.num_rows() as u64;
                edges.push((
                    *c,
                    EdgeSize {
                        bytes: stored,
                        rows,
                    },
                ));
                continue;
            };
            let at = match splits.iter().position(|(s, _)| *s == split) {
                Some(at) => at,
                None => {
                    let divided = split
                        .divide(&out)
                        .map_err(|e| format!("dividing the output of {}: {e}", v.op))?;
                    splits.push((split, divided));
                    splits.len() - 1
                }
            };
            let part = splits[at].1[*shard as usize].clone();
            let plain = part.encoded_len() as u128;
            let bytes = (plain * stored as u128).div_ceil(len.max(1) as u128) as u64;
            let rows = part.num_rows() as u64;
            parts.push((*c, part));
            edges.push((*c, EdgeSize { bytes, rows }));
        }

        let mut stats = self.stats.borrow_mut();
        stats.partition_passes += splits
            .iter()
            .filter(|(s, _)| matches!(s, Split::ByKey { .. }))
            .count() as u64;
        let rows_out = out.num_rows();
        let output = Output {
            batch: out,
            parts,
            stats: Rc::clone(&self.stats),
        };
        let payload = match packed {
            Some(bytes) => {
                stats.compressed_outputs += 1;
                Payload::with_bytes(bytes, output)
            }
            None => Payload::lazy(len as u64, output),
        }
        .with_edges(edges);
        stats.timings.push(ShardTiming {
            task: t,
            op_id: v.op_id,
            op: v.op.clone(),
            shard: v.shard,
            shards: v.shards,
            rows_in,
            rows_out,
            output_bytes: payload.len(),
            wall,
            exec_stats,
        });
        Ok(payload)
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
    /// does: every output is a length and its batch, and a payload read
    /// afterwards is its batch's frame, made once. On the fabric's NIC
    /// nothing is compressed; on a 100 MiB/s link every output whose
    /// compressing pays is stored compressed. Either way each stored
    /// payload's bytes, decompressed where they carry the block magic,
    /// decode to the very batch its `Output` kept.
    #[test]
    fn stored_bytes_decode_to_the_kept_batch() {
        const FABRIC: u64 = 25 << 30;
        const SLOW: u64 = 100 << 20;
        let n = 2_000i64;
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
        let d = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("label", DataType::Utf8, false),
            ]),
            vec![
                Array::from_i64((0..7).collect()),
                Array::from_utf8(&["a", "b", "a", "c", "b", "a", "d"]),
            ],
        )
        .unwrap();
        let db = MemDb::new().register("t", t).register("d", d);
        let mut compressed = 0;
        for query in [
            "SELECT tag, sum(v) AS s, count(*) AS n FROM t WHERE k > 1 GROUP BY tag",
            "SELECT label, tag, v FROM t JOIN d ON k = k WHERE v > 10 ORDER BY v DESC LIMIT 50",
            "SELECT k, v FROM t",
        ] {
            let (graph, _sink) = sql::plan_sql(query, &db.catalog()).unwrap();
            let lower = LowerConfig::new(4, BackendPolicy::cost_based());
            let phys = lower_graph(&graph, &lower).unwrap();
            for link_bps in [FABRIC, SLOW] {
                let mut exec = GraphExecutor::new(phys.clone(), db.tables().clone());
                let mut stored: BTreeMap<u32, Payload> = BTreeMap::new();
                for v in phys.topo_order().unwrap() {
                    let mut producers: Vec<u32> =
                        phys.in_edges(v).iter().map(|e| e.from.0).collect();
                    producers.sort_unstable();
                    producers.dedup();
                    let inputs = producers
                        .iter()
                        .map(|p| (TaskId(*p as u64), &stored[p]))
                        .collect();
                    let mut consumers: Vec<(TaskId, EdgeSize)> = phys
                        .out_edges(v)
                        .iter()
                        .map(|e| {
                            let size = EdgeSize {
                                bytes: e.bytes,
                                rows: 0,
                            };
                            (TaskId(e.to.0 as u64), size)
                        })
                        .collect();
                    consumers.sort_unstable_by_key(|c| c.0);
                    let ready = ReadyTask {
                        task: TaskId(v.0 as u64),
                        inputs,
                        consumers,
                        output_bytes: phys.vertex(v).output_bytes,
                        link_bps,
                    };
                    let out = exec.execute(&ready).unwrap();
                    stored.insert(v.0, out);
                }
                let counts = |e: &GraphExecutor| {
                    let s = e.stats.borrow();
                    (s.compressed_outputs, s.payloads_materialised)
                };
                let (packed, made) = counts(&exec);
                assert_eq!(made, 0, "{query}: no frame made before a read");
                if link_bps == FABRIC {
                    assert_eq!(packed, 0, "{query}: the fabric never compresses");
                }
                compressed += packed;
                for (v, payload) in &stored {
                    let kept = payload_batch(payload).unwrap();
                    let bytes = payload.bytes();
                    let frame = if compression::is_compressed(bytes) {
                        compression::decompress(bytes).unwrap()
                    } else {
                        bytes.to_vec()
                    };
                    assert_eq!(payload.len(), bytes.len() as u64, "{query}: task {v}");
                    let decoded = ipc::decode(bytes::Bytes::from(frame)).unwrap();
                    assert_eq!(&decoded, kept, "{query}: task {v}");
                    // `DictUtf8` equality is logical: compare the frames too.
                    assert_eq!(
                        ipc::encode(&decoded),
                        ipc::encode(kept),
                        "{query}: task {v}"
                    );
                }
                // A compressed output was stored as bytes when it ran.
                let made = counts(&exec).1;
                assert_eq!(
                    made + packed,
                    stored.len() as u64,
                    "{query}: each made once"
                );
            }
        }
        assert!(compressed > 0, "the slow link compresses some output");
    }
}
