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
//! exact partitioner the shuffle will use, and each keyed consumer is
//! re-lowered to the fewest shards whose hottest shard gets no more rows
//! than static lowering's hottest would. Empty shards go; keys static
//! hashing kept apart are not stacked onto a hotter shard, since a
//! shard's run is priced by the rows it is handed.
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
/// from the static default to fewer shards, none hotter than static's
/// hottest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replan {
    /// The logical vertex whose shard count changed.
    pub vertex: VertexId,
    /// Shards static lowering would have used.
    pub from_shards: u32,
    /// Shards after observing the pilot's key histogram.
    pub to_shards: u32,
    /// The shuffle key of the consumer's first keyed input.
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
/// consumer that would statically shard to `cfg.default_parallelism`,
/// its producers' pilot outputs are partitioned with the exact shuffle
/// hash, and a shard's load is the rows it would be handed over every
/// keyed input (a join's two sides land on the same shard). The consumer
/// re-lowers to the fewest shards whose hottest shard is no hotter than
/// the static plan's: coalescing drops empty shards, but never stacks
/// keys that static hashing kept apart onto a hotter shard.
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
    // Each consumer's keyed inputs: the producer's pilot output and key.
    let mut feeds: BTreeMap<u32, Vec<(&RecordBatch, &String)>> = BTreeMap::new();
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
        if let Some(batch) = outputs.get(&e.from) {
            feeds.entry(e.to.0).or_default().push((batch, key));
        }
    }
    let replans = feeds
        .into_iter()
        .filter_map(|(v, feeds)| {
            // Rows per shard at `k` shards.
            let load = |k: u32| {
                let mut rows = vec![0usize; k as usize];
                for &(batch, key) in &feeds {
                    let buckets = shard::partition_by_key(batch, key, k as usize).ok()?;
                    for (r, b) in rows.iter_mut().zip(&buckets) {
                        *r += b.len();
                    }
                }
                Some(rows)
            };
            let hottest = load(parts)?.into_iter().max();
            let to_shards = (1..parts)
                .find(|&k| load(k).is_some_and(|rows| rows.into_iter().max() <= hottest))?;
            Some(Replan {
                vertex: VertexId(v),
                from_shards: parts,
                to_shards,
                key: feeds[0].1.clone(),
            })
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
    fn pilot_keeps_hot_keys_apart() {
        // Three keys, a third of the rows each: static hashing into 16
        // shards keeps them apart, while 3 shards would stack two of them
        // on one shard twice as hot.
        let n = 3_000i64;
        let t = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("v", DataType::Int64, false),
            ]),
            vec![
                Array::from_i64((0..n).map(|i| i % 3).collect()),
                Array::from_i64((0..n).collect()),
            ],
        )
        .unwrap();
        let db = MemDb::new().register("t", t.clone());
        let (g, _sink) =
            sql::plan_sql("SELECT k, sum(v) FROM t GROUP BY k", &db.catalog()).unwrap();
        let p = plan(
            &g,
            db.tables(),
            &LowerConfig::new(16, BackendPolicy::cost_based()),
        );
        assert_eq!(p.replans.len(), 1, "{:?}", p.replans);
        let hottest = |k: u32| {
            let buckets = shard::partition_by_key(&t, "k", k as usize).unwrap();
            buckets.iter().map(Vec::len).max().unwrap()
        };
        let to = p.replans[0].to_shards;
        assert_eq!(hottest(16), 1_000);
        assert_eq!(hottest(3), 2_000, "3 shards stack two keys");
        assert_eq!(hottest(to), 1_000, "coalesced to {to}");
        assert!(
            (1..to).all(|k| hottest(k) > 1_000),
            "{to} is not the fewest"
        );
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
