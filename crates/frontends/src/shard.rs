//! Single-shard execution of physical-graph operators.
//!
//! The distributed runtime executes a physical graph one task per shard;
//! each task's compute is described by an [`ExecOp`] attached during SQL
//! planning. This module interprets those descriptors over real
//! [`RecordBatch`]es, reusing the local engine's vectorized kernels
//! (`exec::join_rows`, `exec::aggregate_spec`, ...), so the distributed
//! data plane and the single-process reference engine share one code
//! path per operator.
//!
//! # Determinism and byte-identity
//!
//! The contract is that collecting a distributed run yields a batch
//! **byte-identical** to [`MemDb`](crate::exec::MemDb) at any
//! parallelism. Two hidden columns make that possible:
//!
//! - `__rid` ([`RID`]): a row id threaded from the scans. Shard `i` of an
//!   `n`-row table scans the contiguous row range `[i*n/N, (i+1)*n/N)`,
//!   so a row's id is its position in the full table; a join emits
//!   `left_rid * right_table_rows + right_rid`, which reproduces the
//!   reference engine's probe-order output as an ascending sort key.
//! - `__gkey` ([`GKEY`]): the rendered group key of an aggregate output
//!   row. The reference engine orders groups by rendered key; sorting
//!   shard outputs by `__gkey` merges hash-partitioned groups back into
//!   that order (with min-`__rid` kept as a deterministic tiebreak).
//!
//! Every shard first puts its gathered input into **canonical order**
//! (stable sort by `__rid`, then by `__gkey` — so the group key is the
//! primary key where present). That makes per-group fold order equal to
//! the reference engine's row order bit-for-bit (floating-point sums
//! included), no matter how batches were partitioned or which failed
//! task recomputed them. The sink strips both hidden columns.
//!
//! # Shuffle-hash compatibility
//!
//! [`partition_by_key`] buckets rows by `hash_key_column(col) % parts` —
//! the same FNV-1a-over-key-bytes scheme the physical graph's
//! [`Partitioner::Hash`](skadi_flowgraph::Partitioner) prices, and the
//! same hash the join/aggregate kernels probe with. Edges into a join
//! pass `coerce = true` so mixed `Int64`/`Float64` key pairs co-locate
//! by their `f64` bit pattern.

use std::collections::BTreeMap;

use skadi_arrow::array::Array;
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::compute;
use skadi_arrow::datatype::DataType;
use skadi_arrow::schema::{Field, Schema};
use skadi_flowgraph::{ExecAgg, ExecCompare, ExecLiteral, ExecOp};

use crate::exec::{self, sort_by, wrap};
use crate::sql::ast::{Comparison, Literal};
use crate::sql::SqlError;

/// Hidden row-id column threaded from scans through joins.
pub const RID: &str = "__rid";
/// Hidden rendered-group-key column emitted by aggregate shards.
pub const GKEY: &str = "__gkey";

/// True if `name` is reserved for the data plane's hidden columns.
pub fn is_hidden(name: &str) -> bool {
    name == RID || name == GKEY
}

/// Per-shard kernel measurements from one [`execute_shard_adaptive`] call:
/// hash-table counters from join/group-by kernels plus filter-step row
/// counts (for selectivity). Chains with several filter steps accumulate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardExecStats {
    /// Join / group-by hash-table counters.
    pub kernel: exec::KernelStats,
    /// Rows entering filter steps.
    pub filter_rows_in: u64,
    /// Rows surviving filter steps.
    pub filter_rows_out: u64,
    /// Joins that built their hash table on the nominal probe side
    /// because the adaptive executor observed the build input to be the
    /// larger one. Zero unless adaptive execution is on.
    pub build_swaps: u64,
}

impl ShardExecStats {
    /// Fraction of rows surviving the shard's filter steps, if any ran
    /// over a non-empty input.
    pub fn selectivity(&self) -> Option<f64> {
        (self.filter_rows_in > 0).then(|| self.filter_rows_out as f64 / self.filter_rows_in as f64)
    }
}

/// Executes one shard's operator chain. `port0` holds the (probe-side)
/// input batches in producer shard order, `port1` the build side of a
/// join; scans ignore both and read `tables` directly.
pub fn execute_shard(
    op: &ExecOp,
    tables: &BTreeMap<String, RecordBatch>,
    shard: u32,
    shards: u32,
    port0: &[RecordBatch],
    port1: &[RecordBatch],
) -> Result<RecordBatch, SqlError> {
    let mut stats = ShardExecStats::default();
    execute_shard_adaptive(op, tables, shard, shards, port0, port1, false, &mut stats)
}

/// When the nominal build input of an adaptive join holds more than this
/// multiple of the probe input's rows, the join builds on the probe side
/// instead. A pure function of gathered row counts — never of timing.
pub const SWAP_BUILD_MULTIPLE: usize = 2;

/// [`execute_shard`] with kernel measurements accumulated into `stats`
/// and optional adaptive execution: when `adaptive` is true, a join whose
/// gathered build side (`port1`) exceeds [`SWAP_BUILD_MULTIPLE`]× the
/// probe side builds its hash table on the smaller side and restores
/// probe order afterwards, so the output stays byte-identical to the
/// static plan (see [`join_shard`]).
#[allow(clippy::too_many_arguments)]
pub fn execute_shard_adaptive(
    op: &ExecOp,
    tables: &BTreeMap<String, RecordBatch>,
    shard: u32,
    shards: u32,
    port0: &[RecordBatch],
    port1: &[RecordBatch],
    adaptive: bool,
    stats: &mut ShardExecStats,
) -> Result<RecordBatch, SqlError> {
    let mut current: Option<RecordBatch> = None;
    for step in op.clone().flatten() {
        let out = match step {
            ExecOp::Scan { table } => {
                let t = tables
                    .get(&table)
                    .ok_or_else(|| SqlError::Plan(format!("unknown table {table:?}")))?;
                scan_shard(t, shard, shards)?
            }
            ExecOp::Join {
                left_key,
                right_key,
                right_rows,
            } => {
                if current.is_some() {
                    return Err(SqlError::Plan("join cannot be mid-chain".into()));
                }
                join_shard(
                    port0, port1, &left_key, &right_key, right_rows, adaptive, stats,
                )?
            }
            other => {
                let input = match current.take() {
                    Some(b) => b,
                    None => gather(port0)?,
                };
                match other {
                    ExecOp::Filter { conjuncts } => {
                        stats.filter_rows_in += input.num_rows() as u64;
                        let out = filter_shard(&input, &conjuncts)?;
                        stats.filter_rows_out += out.num_rows() as u64;
                        out
                    }
                    ExecOp::Project { columns } => project_shard(&input, &columns)?,
                    ExecOp::Aggregate { group_by, aggs } => {
                        aggregate_shard(&input, &group_by, &aggs, &mut stats.kernel)?
                    }
                    ExecOp::Limit { n, order } => {
                        // The stable sort breaks ties by position, so this
                        // shard's first `n` are the sink's order restricted
                        // to the shard only if the input is in canonical
                        // order. Gathered input is, and so is what a scan,
                        // a join or an aggregate hands on mid-chain; any
                        // other batch is put in order here.
                        let mut cur = canonicalize(&input)?;
                        if let Some((col, desc)) = order {
                            cur = sort_by(&cur, &col, desc)?;
                        }
                        truncate(&cur, n as usize)
                    }
                    ExecOp::Collect { order_by, limit } => {
                        let mut cur = input;
                        if let Some((col, desc)) = order_by {
                            cur = sort_by(&cur, &col, desc)?;
                        }
                        if let Some(n) = limit {
                            cur = truncate(&cur, n as usize);
                        }
                        // Output boundary: deliver plain columns so the
                        // result matches the reference engine regardless
                        // of which columns ran dictionary-encoded.
                        strip_hidden(&cur)?.dict_decoded()
                    }
                    ExecOp::Scan { .. } | ExecOp::Join { .. } | ExecOp::Fused(_) => {
                        unreachable!("handled above / flattened")
                    }
                }
            }
        };
        current = Some(out);
    }
    current.ok_or_else(|| SqlError::Plan("empty exec descriptor".into()))
}

/// Splits `batch` into hash partitions on `key`, preserving row order
/// within each partition. The partition index is
/// `hash_key_column(row) % parts` — byte-compatible with the physical
/// graph's FNV-1a `Partitioner::Hash` and with the hash the join and
/// group-by kernels bucket on. `coerce` hashes `Int64` keys through
/// their `f64` bit pattern (used for edges into joins, where a mixed
/// `Int64`/`Float64` key pair must co-locate).
pub fn partition_by_key(
    batch: &RecordBatch,
    key: &str,
    parts: usize,
    coerce: bool,
) -> Result<Vec<RecordBatch>, SqlError> {
    let col = batch.column_by_name(key).map_err(wrap)?;
    let hashes = compute::hash_key_column(col, coerce);
    let parts = parts.max(1);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for (r, &h) in hashes.iter().enumerate() {
        buckets[(h % parts as u64) as usize].push(r);
    }
    buckets
        .iter()
        .map(|idx| compute::take_indices(batch, idx).map_err(wrap))
        .collect()
}

/// Splits `batch` into `parts` contiguous even slices (scatter edges).
pub fn split_even(batch: &RecordBatch, parts: usize) -> Vec<RecordBatch> {
    let n = batch.num_rows();
    let parts = parts.max(1);
    (0..parts)
        .map(|i| batch.slice(i * n / parts, (i + 1) * n / parts))
        .collect()
}

/// Concatenates input batches (producer shard order) and puts the result
/// into canonical order.
fn gather(parts: &[RecordBatch]) -> Result<RecordBatch, SqlError> {
    if parts.is_empty() {
        return Err(SqlError::Plan("operator shard received no input".into()));
    }
    let all = RecordBatch::concat(parts).map_err(wrap)?;
    canonicalize(&all)
}

/// True when a stable ascending sort on `col` would leave every row where
/// it is. Covers the two hidden key columns (`Int64`, `Utf8`) when they
/// hold no null; anything else answers `false` and is sorted.
fn already_ascending(col: &Array) -> bool {
    match col {
        Array::Int64(a) if a.validity().is_none() => {
            a.iter_raw().zip(a.iter_raw().skip(1)).all(|(x, y)| x <= y)
        }
        Array::Utf8(a) if a.validity().is_none() => {
            (1..a.len()).all(|i| a.key_bytes(i - 1) <= a.key_bytes(i))
        }
        _ => false,
    }
}

/// Canonical order: stable sort by `__rid`, then (stable) by `__gkey`,
/// making the group key primary where both exist. Batches with neither
/// column pass through unchanged, and so does a key column that is
/// already in order (scan shards gathered in shard order always are).
pub fn canonicalize(batch: &RecordBatch) -> Result<RecordBatch, SqlError> {
    let mut out = batch.clone();
    for key in [RID, GKEY] {
        if let Ok(col) = out.column_by_name(key) {
            if !already_ascending(col) {
                out = sort_by(&out, key, false)?;
            }
        }
    }
    Ok(out)
}

/// Drops the hidden columns (the sink does this before delivering).
fn strip_hidden(batch: &RecordBatch) -> Result<RecordBatch, SqlError> {
    let keep: Vec<&str> = batch
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .filter(|n| !is_hidden(n))
        .collect();
    batch.project(&keep).map_err(wrap)
}

fn truncate(batch: &RecordBatch, n: usize) -> RecordBatch {
    batch.slice(0, n.min(batch.num_rows()))
}

fn append_column(batch: &RecordBatch, field: Field, col: Array) -> Result<RecordBatch, SqlError> {
    let mut fields = batch.schema().fields().to_vec();
    fields.push(field);
    let mut cols = batch.columns().to_vec();
    cols.push(col);
    RecordBatch::try_new(Schema::new(fields), cols).map_err(wrap)
}

/// Shard `shard` of a base-table scan: the contiguous row range
/// `[shard*n/shards, (shard+1)*n/shards)` plus its `__rid` column.
///
/// Eligible `Utf8` columns dictionary-encode here, at the data plane's
/// entry point, so every downstream shuffle ships keys instead of string
/// bytes. The encode decision is made on the *whole table* (not the
/// slice) so every shard agrees on the column type — once per column for
/// the life of the table, whose arrays keep the result; the shard is then
/// an offset view sharing the table-level dictionary. The Collect sink
/// decodes, keeping results byte-identical to the plain reference engine.
fn scan_shard(table: &RecordBatch, shard: u32, shards: u32) -> Result<RecordBatch, SqlError> {
    let n = table.num_rows() as u64;
    let shards = shards.max(1) as u64;
    let lo = (shard as u64 * n / shards) as usize;
    let hi = ((shard as u64 + 1) * n / shards) as usize;
    let slice = table.dict_encoded().slice(lo, hi);
    let rid = Array::from_i64((lo..hi).map(|r| r as i64).collect());
    append_column(&slice, Field::new(RID, DataType::Int64, true), rid)
}

fn to_comparisons(conjuncts: &[ExecCompare]) -> Vec<Comparison> {
    conjuncts
        .iter()
        .map(|c| Comparison {
            column: c.column.clone(),
            op: c.op.clone(),
            value: match &c.value {
                ExecLiteral::Int(v) => Literal::Int(*v),
                ExecLiteral::Float(v) => Literal::Float(*v),
                ExecLiteral::Str(s) => Literal::Str(s.clone()),
            },
        })
        .collect()
}

fn filter_shard(input: &RecordBatch, conjuncts: &[ExecCompare]) -> Result<RecordBatch, SqlError> {
    let cs = to_comparisons(conjuncts);
    let refs: Vec<&Comparison> = cs.iter().collect();
    exec::apply_conjuncts(input, &refs)
}

/// Projection keeps the hidden columns alongside the requested ones.
fn project_shard(input: &RecordBatch, columns: &[String]) -> Result<RecordBatch, SqlError> {
    let mut keep: Vec<&str> = columns.iter().map(String::as_str).collect();
    for h in [RID, GKEY] {
        if input.schema().index_of(h).is_ok() && !keep.contains(&h) {
            keep.push(h);
        }
    }
    input.project(&keep).map_err(wrap)
}

fn rid_values(batch: &RecordBatch) -> Result<Vec<i64>, SqlError> {
    let col = batch.column_by_name(RID).map_err(wrap)?;
    let a = col.as_i64().map_err(wrap)?;
    Ok((0..a.len()).map(|r| a.get(r).unwrap_or(0)).collect())
}

/// One shard of a hash join. Both sides are gathered into canonical
/// (row-id) order so the probe order matches the reference engine's,
/// restricted to the keys hashed to this shard. The output row id is
/// `left_rid * right_table_rows + right_rid`, which orders join outputs
/// exactly like the reference engine's probe-order emission.
///
/// # Adaptive build-side swap
///
/// With `adaptive` on and the gathered build side more than
/// [`SWAP_BUILD_MULTIPLE`]× larger than the probe side, the kernel runs
/// with the roles reversed (build on the smaller left side, probe the
/// right) and the match pairs are transposed back. The inner-join pair
/// *set* is symmetric, and the static path's emission order — probe rows
/// ascending, build chains ascending — is exactly ascending row-id order
/// (both inputs are rid-canonical and the rid encoding is lexicographic
/// in `(left_rid, right_rid)`), so a stable sort of the swapped output by
/// row id reproduces the static output byte for byte.
fn join_shard(
    port0: &[RecordBatch],
    port1: &[RecordBatch],
    left_key: &str,
    right_key: &str,
    right_rows: u64,
    adaptive: bool,
    stats: &mut ShardExecStats,
) -> Result<RecordBatch, SqlError> {
    let left = gather(port0)?;
    let right = gather(port1)?;
    let l_rid = rid_values(&left)?;
    let r_rid = rid_values(&right)?;
    let left_vis = strip_hidden(&left)?;
    let right_vis = strip_hidden(&right)?;
    let swap = adaptive && right_vis.num_rows() > SWAP_BUILD_MULTIPLE * left_vis.num_rows();
    let (lrows, rrows) = if swap {
        stats.build_swaps += 1;
        let (probe, build) = exec::join_rows(
            &right_vis,
            &left_vis,
            right_key,
            left_key,
            &mut stats.kernel,
        )?;
        (build, probe)
    } else {
        exec::join_rows(
            &left_vis,
            &right_vis,
            left_key,
            right_key,
            &mut stats.kernel,
        )?
    };
    let mut out = exec::assemble_join(&left_vis, &right_vis, right_key, &lrows, &rrows)?;
    let stride = (right_rows as i64).max(1);
    let mut rid: Vec<i64> = lrows
        .iter()
        .zip(&rrows)
        .map(|(&l, &r)| l_rid[l].wrapping_mul(stride).wrapping_add(r_rid[r]))
        .collect();
    if swap {
        let mut order: Vec<usize> = (0..rid.len()).collect();
        order.sort_by_key(|&i| rid[i]);
        out = compute::take_indices(&out, &order).map_err(wrap)?;
        rid = order.iter().map(|&i| rid[i]).collect();
    }
    append_column(
        &out,
        Field::new(RID, DataType::Int64, true),
        Array::from_i64(rid),
    )
}

/// One shard of an aggregation. The gathered input is in row-id order,
/// so per-group folds run in exactly the reference engine's row order.
/// Two extra output columns ride along: `min(__rid)` per group (a
/// deterministic tiebreak, and the canonical secondary sort key) and the
/// rendered `__gkey` (the canonical primary sort key — the reference
/// engine's group output order).
fn aggregate_shard(
    input: &RecordBatch,
    group_by: &[String],
    aggs: &[ExecAgg],
    kernel: &mut exec::KernelStats,
) -> Result<RecordBatch, SqlError> {
    let mut spec: Vec<(String, String, String)> = aggs
        .iter()
        .map(|a| (a.func.clone(), a.column.clone(), a.name.clone()))
        .collect();
    spec.push(("min".into(), RID.into(), RID.into()));
    let out = exec::aggregate_spec(group_by, &spec, input, kernel)?;
    let mut keys: Vec<String> = Vec::with_capacity(out.num_rows());
    for r in 0..out.num_rows() {
        let parts: Vec<String> = group_by
            .iter()
            .map(|g| {
                out.column_by_name(g)
                    .map(|c| c.value_at(r).to_string())
                    .map_err(wrap)
            })
            .collect::<Result<_, _>>()?;
        keys.push(parts.join("\u{1}"));
    }
    let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    append_column(
        &out,
        Field::new(GKEY, DataType::Utf8, false),
        Array::from_utf8(&refs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_arrow::array::Value;
    use skadi_flowgraph::Partitioner;

    fn table() -> RecordBatch {
        RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("v", DataType::Float64, true),
            ]),
            vec![
                Array::from_i64(vec![3, 1, 2, 1, 3, 2, 1, 4]),
                Array::from_opt_f64(vec![
                    Some(1.0),
                    Some(2.0),
                    None,
                    Some(4.0),
                    Some(5.0),
                    Some(6.0),
                    Some(7.0),
                    Some(8.0),
                ]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn scan_shards_cover_table_contiguously() {
        let t = table();
        let tables = BTreeMap::from([("t".to_string(), t.clone())]);
        let op = ExecOp::Scan { table: "t".into() };
        let mut total = 0;
        let mut next_rid = 0i64;
        for s in 0..3 {
            let out = execute_shard(&op, &tables, s, 3, &[], &[]).unwrap();
            total += out.num_rows();
            let rid = out.column_by_name(RID).unwrap();
            for r in 0..out.num_rows() {
                assert_eq!(rid.value_at(r), Value::I64(next_rid));
                next_rid += 1;
            }
        }
        assert_eq!(total, t.num_rows());
    }

    #[test]
    fn partition_matches_physical_partitioner_on_int_keys() {
        // The shuffle the physical graph prices (FNV-1a over hash_row key
        // bytes) and the shuffle the data plane performs must agree.
        let t = table();
        let parts = 4;
        let split = partition_by_key(&t, "k", parts, false).unwrap();
        let p = Partitioner::Hash;
        let keys = t.column(0).as_i64().unwrap();
        let mut want = vec![0usize; parts];
        for r in 0..t.num_rows() {
            // hash_row's Int64 key-byte encoding.
            let key = keys.get(r).unwrap().to_le_bytes();
            want[p.assign(&key, r as u64, parts as u32) as usize] += 1;
        }
        let got: Vec<usize> = split.iter().map(|b| b.num_rows()).collect();
        assert_eq!(got, want);
        assert_eq!(got.iter().sum::<usize>(), t.num_rows());
    }

    #[test]
    fn canonicalize_restores_row_order_after_shuffle() {
        let t = table();
        let tables = BTreeMap::from([("t".to_string(), t.clone())]);
        let op = ExecOp::Scan { table: "t".into() };
        let a = execute_shard(&op, &tables, 0, 2, &[], &[]).unwrap();
        let b = execute_shard(&op, &tables, 1, 2, &[], &[]).unwrap();
        // Re-partition by key, then gather everything back: canonical
        // order equals the original scan order.
        let mut parts = partition_by_key(&a, "k", 2, false).unwrap();
        parts.extend(partition_by_key(&b, "k", 2, false).unwrap());
        let back = gather(&parts).unwrap();
        assert_eq!(back.num_rows(), t.num_rows());
        for r in 0..t.num_rows() {
            assert_eq!(
                back.column_by_name(RID).unwrap().value_at(r),
                Value::I64(r as i64)
            );
            assert_eq!(
                back.column_by_name("k").unwrap().value_at(r),
                t.column(0).value_at(r)
            );
        }
    }

    #[test]
    fn adaptive_join_swap_is_byte_identical() {
        // Small probe side, large skewed build side (with null keys):
        // adaptive execution builds on the probe side, yet every shard
        // must emit bytes identical to the static plan.
        let left = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, true),
                Field::new("a", DataType::Int64, false),
            ]),
            vec![
                Array::from_opt_i64(vec![Some(1), Some(2), None, Some(3)]),
                Array::from_i64(vec![10, 20, 25, 30]),
            ],
        )
        .unwrap();
        let rkeys: Vec<Option<i64>> = (0..24i64)
            .map(|i| if i % 7 == 0 { None } else { Some(i % 3 + 1) })
            .collect();
        let right = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, true),
                Field::new("b", DataType::Int64, false),
            ]),
            vec![
                Array::from_opt_i64(rkeys),
                Array::from_i64((0..24i64).map(|i| i * 100).collect()),
            ],
        )
        .unwrap();
        let tables = BTreeMap::from([("l".to_string(), left), ("r".to_string(), right)]);
        let lscan =
            execute_shard(&ExecOp::Scan { table: "l".into() }, &tables, 0, 1, &[], &[]).unwrap();
        let rscan =
            execute_shard(&ExecOp::Scan { table: "r".into() }, &tables, 0, 1, &[], &[]).unwrap();
        let op = ExecOp::Join {
            left_key: "k".into(),
            right_key: "k".into(),
            right_rows: 24,
        };
        let mut swaps = 0;
        let mut matched = 0;
        for shard in 0..2u32 {
            let p0 = partition_by_key(&lscan, "k", 2, true).unwrap();
            let p1 = partition_by_key(&rscan, "k", 2, true).unwrap();
            let port0 = vec![p0[shard as usize].clone()];
            let port1 = vec![p1[shard as usize].clone()];
            let mut st = ShardExecStats::default();
            let fixed =
                execute_shard_adaptive(&op, &tables, shard, 2, &port0, &port1, false, &mut st)
                    .unwrap();
            assert_eq!(st.build_swaps, 0);
            let mut ad = ShardExecStats::default();
            let swapped =
                execute_shard_adaptive(&op, &tables, shard, 2, &port0, &port1, true, &mut ad)
                    .unwrap();
            assert_eq!(fixed, swapped);
            swaps += ad.build_swaps;
            matched += fixed.num_rows();
        }
        assert!(swaps >= 1, "the skewed shard should have swapped");
        // Null keys never match; every non-null left key matches 7 or 8
        // duplicated right rows.
        assert!(matched > 0);
    }

    #[test]
    fn split_even_is_contiguous_and_total() {
        let t = table();
        let parts = split_even(&t, 3);
        assert_eq!(parts.iter().map(|b| b.num_rows()).sum::<usize>(), 8);
        assert_eq!(parts[0].column(0).value_at(0), Value::I64(3));
    }
}
