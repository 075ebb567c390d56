//! Adaptive query execution: measured re-planning before submission.
//!
//! Static lowering shards every keyed consumer to the session's default
//! parallelism, sight unseen. On skewed data that wastes tasks: a
//! shuffle key with three distinct values hashed into eight partitions
//! leaves five shards permanently empty, yet each still schedules, ships
//! control messages, and occupies a node slot.
//!
//! The adaptive path runs a **pilot pass** first: the logical graph's
//! operators execute once, single-sharded, through the same pure shard
//! kernels the distributed data plane uses ([`shard::execute_shard`]).
//! The pilot's *measured* outputs — not estimates — drive re-planning:
//! for every keyed edge, the producer's real rows are hashed with the
//! exact partitioner the shuffle will use, and consumers whose key space
//! fills only `k < parallelism` buckets are re-lowered to `k` shards.
//! The pilot only re-plans shard counts. Which side a join builds on is
//! not part of it: every join, adaptive or not, builds on its smaller
//! side (`exec::join_rows`).
//!
//! Every decision is a pure function of data (row counts and key
//! histograms), never of wall clock, thread count, or node placement —
//! so an adaptive run is deterministic, and its collected result is
//! **byte-identical** to the static plan's (the data plane already
//! guarantees identical bytes at any shard count; see
//! `tests/parallel_equiv.rs`).

use std::collections::{BTreeMap, HashMap};

use skadi_arrow::batch::RecordBatch;
use skadi_flowgraph::logical::{EdgeKind, FlowGraph, VertexBody, VertexId};
use skadi_flowgraph::lower::LowerConfig;
use skadi_flowgraph::profile::ShardStats;
use skadi_frontends::shard::{self, Part};

/// One re-planning decision the pilot made: a keyed consumer re-sharded
/// from the static default to the measured non-empty bucket count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replan {
    /// The logical vertex whose shard count changed.
    pub vertex: VertexId,
    /// Shards static lowering would have used.
    pub from_shards: u32,
    /// Shards after observing the pilot's key histogram.
    pub to_shards: u32,
    /// The shuffle key whose histogram drove the decision (the widest
    /// key, for consumers fed by several keyed edges).
    pub key: String,
}

/// The pilot pass's outcome: the re-plan list, ready to apply to a
/// [`LowerConfig`] as per-vertex overrides.
#[derive(Debug, Clone, Default)]
pub struct AdaptivePlan {
    /// Re-planned consumers, in vertex order.
    pub replans: Vec<Replan>,
}

impl AdaptivePlan {
    /// Applies the re-plans to a lowering config as parallelism
    /// overrides; lowering then runs once more over the adjusted config.
    pub fn apply(&self, mut cfg: LowerConfig) -> LowerConfig {
        for r in &self.replans {
            cfg.overrides.insert(r.vertex, r.to_shards.max(1));
        }
        cfg
    }
}

/// Executes the logical graph once, single-sharded, purely locally.
/// Returns each non-sink vertex's output batch, or `None` when the
/// graph has a vertex the pilot cannot run (no exec descriptor — only
/// hand-built graphs; SQL plans always carry one).
fn pilot_outputs(
    g: &FlowGraph,
    tables: &BTreeMap<String, RecordBatch>,
) -> Option<HashMap<VertexId, RecordBatch>> {
    let order = g.topo_order().ok()?;
    let mut out: HashMap<VertexId, RecordBatch> = HashMap::new();
    for v in order {
        let vx = g.vertex(v);
        if matches!(vx.body, VertexBody::Sink { .. }) {
            continue;
        }
        let exec = vx.exec.as_ref()?;
        let mut ins: Vec<_> = g.edges().iter().filter(|e| e.to == v).collect();
        ins.sort_by_key(|e| (e.port, e.from.0));
        let mut port0: Vec<Part> = Vec::new();
        let mut port1: Vec<Part> = Vec::new();
        for e in ins {
            let b = Part::whole(out.get(&e.from)?.clone());
            if e.port == 1 {
                port1.push(b);
            } else {
                port0.push(b);
            }
        }
        let stats = &mut ShardStats::default();
        let b = shard::execute_shard(exec, tables, 0, 1, &port0, &port1, stats).ok()?;
        out.insert(v, b);
    }
    Some(out)
}

/// Runs the pilot pass and derives the re-plan list. For every keyed
/// edge whose consumer would statically shard to
/// `cfg.default_parallelism`, the producer's pilot output is partitioned
/// with the exact shuffle hash; if only `k` buckets are non-empty the
/// consumer re-lowers to `k` shards. Consumers fed by several keyed
/// edges (joins) take the **max** non-empty count across their edges, so
/// no side's keys collapse into fewer shards than they fill.
///
/// Infallible by design: a graph the pilot can't execute (missing exec
/// descriptors, unknown tables) yields an empty plan — execution then
/// proceeds exactly as the static path would.
pub fn plan(
    g: &FlowGraph,
    tables: &BTreeMap<String, RecordBatch>,
    cfg: &LowerConfig,
) -> AdaptivePlan {
    let parts = cfg.default_parallelism;
    if parts <= 1 {
        return AdaptivePlan::default();
    }
    let Some(outputs) = pilot_outputs(g, tables) else {
        return AdaptivePlan::default();
    };
    // Widest measured need per consumer, and the key that set it.
    let mut needed: BTreeMap<u32, (u32, String)> = BTreeMap::new();
    for e in g.edges() {
        let EdgeKind::Keyed(key) = &e.kind else {
            continue;
        };
        let to = g.vertex(e.to);
        if matches!(to.body, VertexBody::Sink { .. }) || cfg.overrides.contains_key(&e.to) {
            continue;
        }
        if to.exec.as_ref().is_some_and(|x| x.requires_single_shard()) {
            continue;
        }
        let Some(batch) = outputs.get(&e.from) else {
            continue;
        };
        let Ok(buckets) = shard::partition_by_key(batch, key, parts as usize) else {
            continue;
        };
        let non_empty = buckets
            .iter()
            .filter(|rows| !rows.is_empty())
            .count()
            .max(1) as u32;
        let entry = needed.entry(e.to.0).or_insert((0, key.clone()));
        if non_empty > entry.0 {
            *entry = (non_empty, key.clone());
        }
    }
    let replans = needed
        .into_iter()
        .filter(|&(_, (k, _))| k < parts)
        .map(|(v, (k, key))| Replan {
            vertex: VertexId(v),
            from_shards: parts,
            to_shards: k,
            key,
        })
        .collect();
    AdaptivePlan { replans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_arrow::array::Array;
    use skadi_arrow::datatype::DataType;
    use skadi_arrow::schema::{Field, Schema};
    use skadi_frontends::exec::MemDb;
    use skadi_frontends::sql;
    use skadi_ir::BackendPolicy;

    fn skewed_db() -> MemDb {
        // Two distinct group keys: an 8-way shuffle leaves >= 6 buckets
        // empty, so the pilot must coalesce.
        let n = 64i64;
        MemDb::new().register(
            "t",
            RecordBatch::try_new(
                Schema::new(vec![
                    Field::new("k", DataType::Int64, false),
                    Field::new("v", DataType::Int64, false),
                ]),
                vec![
                    Array::from_i64((0..n).map(|i| i % 2).collect()),
                    Array::from_i64((0..n).collect()),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn pilot_coalesces_sparse_shuffle_keys() {
        let db = skewed_db();
        let (g, _sink) =
            sql::plan_sql("SELECT k, sum(v) FROM t GROUP BY k", &db.catalog()).unwrap();
        let cfg = LowerConfig::new(8, BackendPolicy::cost_based());
        let p = plan(&g, db.tables(), &cfg);
        assert_eq!(p.replans.len(), 1, "one keyed consumer: {:?}", p.replans);
        let r = &p.replans[0];
        assert_eq!(r.from_shards, 8);
        assert!(r.to_shards <= 2, "two distinct keys: {r:?}");
        assert_eq!(r.key, "k");
        let lowered = p.apply(cfg);
        assert_eq!(lowered.overrides.get(&r.vertex), Some(&r.to_shards));
    }

    #[test]
    fn pilot_leaves_dense_keys_alone() {
        let n = 512i64;
        let db = MemDb::new().register(
            "t",
            RecordBatch::try_new(
                Schema::new(vec![
                    Field::new("k", DataType::Int64, false),
                    Field::new("v", DataType::Int64, false),
                ]),
                vec![
                    Array::from_i64((0..n).collect()),
                    Array::from_i64((0..n).collect()),
                ],
            )
            .unwrap(),
        );
        let (g, _sink) =
            sql::plan_sql("SELECT k, sum(v) FROM t GROUP BY k", &db.catalog()).unwrap();
        let cfg = LowerConfig::new(4, BackendPolicy::cost_based());
        let p = plan(&g, db.tables(), &cfg);
        assert!(
            p.replans.is_empty(),
            "512 keys fill 4 buckets: {:?}",
            p.replans
        );
    }

    #[test]
    fn parallelism_one_never_replans() {
        let db = skewed_db();
        let (g, _sink) =
            sql::plan_sql("SELECT k, sum(v) FROM t GROUP BY k", &db.catalog()).unwrap();
        let cfg = LowerConfig::new(1, BackendPolicy::cost_based());
        assert!(plan(&g, db.tables(), &cfg).replans.is_empty());
    }
}
