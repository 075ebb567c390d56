//! Executable shard descriptors.
//!
//! Physical lowering used to emit shards that carried only *cost* (rows,
//! bytes, microseconds); the runtime priced them but nothing executed.
//! An [`ExecOp`] is the missing half: a self-contained description of the
//! relational work one shard performs, attached to a logical vertex by
//! the planner and carried through optimization and lowering unchanged.
//! The executor layer (in `skadi-frontends`/`skadi`) interprets it
//! against real `skadi-arrow` record batches.
//!
//! Descriptors are plain data — no column references into any particular
//! batch, no engine types — so the same descriptor can be replayed
//! deterministically under lineage recovery.

use skadi_ir::Op;

/// A literal in a filter predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecLiteral {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

/// One comparison conjunct: `column op literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecCompare {
    /// Column name.
    pub column: String,
    /// Operator: one of `=`, `!=`, `<`, `<=`, `>`, `>=`.
    pub op: String,
    /// Right-hand literal.
    pub value: ExecLiteral,
}

/// One aggregate item: `func(column) AS name`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecAgg {
    /// Aggregate function: `count`, `sum`, `min`, `max`, `avg`.
    pub func: String,
    /// Input column (`*` for `count(*)`).
    pub column: String,
    /// Output column name.
    pub name: String,
}

/// What one shard of a vertex executes.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOp {
    /// Read a contiguous slice of a base table.
    Scan {
        /// Table name.
        table: String,
    },
    /// Keep rows passing every conjunct.
    Filter {
        /// The conjuncts, ANDed.
        conjuncts: Vec<ExecCompare>,
    },
    /// Keep the named columns, in order.
    Project {
        /// Output columns.
        columns: Vec<String>,
    },
    /// Hash equi-join; port-0 inputs are the probe (left) side, port-1
    /// inputs the build (right) side.
    Join {
        /// Probe-side key column.
        left_key: String,
        /// Build-side key column.
        right_key: String,
        /// Total rows of the build relation (the row-id stride that keeps
        /// output row ids globally ordered like the single-process join).
        right_rows: u64,
    },
    /// Grouped or global aggregation.
    Aggregate {
        /// GROUP BY columns (empty = global aggregate, forced to one
        /// shard by lowering).
        group_by: Vec<String>,
        /// Aggregate outputs, in select order.
        aggs: Vec<ExecAgg>,
    },
    /// Per-shard top-N: each shard keeps its local first `n` rows under
    /// the query order (a superset of the global top-N). Ties at the cut
    /// break by canonical position, exactly as the sink breaks them, so
    /// the shard's order is the restriction of the sink's total order.
    Limit {
        /// Row cap.
        n: u64,
        /// The query's ORDER BY, if any: (column, descending).
        order: Option<(String, bool)>,
    },
    /// Sink: gather every shard output, restore the query's total order,
    /// apply ORDER BY / LIMIT, and strip bookkeeping columns.
    Collect {
        /// The query's ORDER BY, if any: (column, descending).
        order_by: Option<(String, bool)>,
        /// The query's LIMIT, if any.
        limit: Option<u64>,
    },
    /// A fused chain (produced by the optimizer): run each op in order.
    Fused(Vec<ExecOp>),
}

impl ExecOp {
    /// The IR ops this descriptor performs, in order (a sink's gather
    /// performs none).
    pub fn ops(&self) -> Vec<Op> {
        match self {
            ExecOp::Scan { .. } => vec![Op::Scan],
            ExecOp::Filter { .. } => vec![Op::Filter],
            ExecOp::Project { .. } => vec![Op::Project],
            ExecOp::Join { .. } => vec![Op::Join],
            ExecOp::Aggregate { .. } => vec![Op::Aggregate],
            ExecOp::Limit { .. } => vec![Op::Limit],
            ExecOp::Collect { .. } => Vec::new(),
            ExecOp::Fused(ops) => ops.iter().flat_map(ExecOp::ops).collect(),
        }
    }

    /// True for a global (ungrouped) aggregate, which must run on exactly
    /// one shard to produce its single output row.
    pub fn requires_single_shard(&self) -> bool {
        match self {
            ExecOp::Aggregate { group_by, .. } => group_by.is_empty(),
            ExecOp::Fused(ops) => ops.iter().any(ExecOp::requires_single_shard),
            _ => false,
        }
    }

    /// The base table this descriptor reads: a scan's, or that of the
    /// scan at the head of a fused chain.
    pub fn scanned_table(&self) -> Option<&str> {
        match self {
            ExecOp::Scan { table } => Some(table),
            ExecOp::Fused(ops) => ops.first()?.scanned_table(),
            _ => None,
        }
    }

    /// True if this kernel starts with a join — a join at the head of a
    /// fused chain included. Its keyed inputs must then co-locate mixed
    /// `Int64`/`Float64` keys, so the shuffle (and the adaptive pilot's
    /// histogram) hash integers through their `f64` bit pattern exactly
    /// like the join probe does.
    pub fn starts_with_join(&self) -> bool {
        match self {
            ExecOp::Join { .. } => true,
            ExecOp::Fused(ops) => ops.first().is_some_and(ExecOp::starts_with_join),
            _ => false,
        }
    }

    /// Flattens into a sequential op list (`Fused` bodies inline).
    pub fn flatten(self) -> Vec<ExecOp> {
        match self {
            ExecOp::Fused(ops) => ops.into_iter().flat_map(ExecOp::flatten).collect(),
            other => vec![other],
        }
    }

    /// Composes two optional descriptors into the descriptor of a fused
    /// vertex (producer first). If either side has none, the fused vertex
    /// has none — partial execution would silently diverge.
    pub fn fuse(producer: Option<ExecOp>, consumer: Option<ExecOp>) -> Option<ExecOp> {
        match (producer, consumer) {
            (Some(p), Some(c)) => {
                let mut ops = p.flatten();
                ops.extend(c.flatten());
                Some(ExecOp::Fused(ops))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_aggregate_requires_single_shard() {
        let global = ExecOp::Aggregate {
            group_by: vec![],
            aggs: vec![],
        };
        let grouped = ExecOp::Aggregate {
            group_by: vec!["k".into()],
            aggs: vec![],
        };
        assert!(global.requires_single_shard());
        assert!(!grouped.requires_single_shard());
        assert!(ExecOp::Fused(vec![grouped.clone(), global.clone()]).requires_single_shard());
        assert!(!ExecOp::Scan { table: "t".into() }.requires_single_shard());
    }

    #[test]
    fn fuse_flattens_nested_chains() {
        let f = ExecOp::Filter { conjuncts: vec![] };
        let p = ExecOp::Project { columns: vec![] };
        let s = ExecOp::Limit { n: 3, order: None };
        let ab = ExecOp::fuse(Some(f.clone()), Some(p.clone())).unwrap();
        let abc = ExecOp::fuse(Some(ab), Some(s.clone())).unwrap();
        assert_eq!(abc, ExecOp::Fused(vec![f, p, s]));
        assert_eq!(abc.ops(), [Op::Filter, Op::Project, Op::Limit]);
        assert_eq!(
            ExecOp::fuse(None, Some(ExecOp::Filter { conjuncts: vec![] })),
            None
        );
    }

    #[test]
    fn join_consumer_detection_sees_through_fusion() {
        let join = ExecOp::Join {
            left_key: "k".into(),
            right_key: "k".into(),
            right_rows: 10,
        };
        let filt = ExecOp::Filter { conjuncts: vec![] };
        assert!(join.starts_with_join());
        assert!(ExecOp::Fused(vec![join.clone(), filt.clone()]).starts_with_join());
        assert!(!filt.starts_with_join());
        assert!(!ExecOp::Fused(vec![filt, join]).starts_with_join());
    }
}
