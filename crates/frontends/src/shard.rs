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
//! parallelism. One hidden column makes that possible: `__rid` ([`RID`]),
//! a row id threaded from the scans. Shard `i` of an `n`-row table scans
//! the contiguous row range `[i*n/N, (i+1)*n/N)`, so a row's id is its
//! position in the full table; a join emits
//! `left_rid * right_table_rows + right_rid`, which reproduces the
//! reference engine's probe-order output as an ascending sort key (an id
//! outside the `i64` range is an error, not a wrapped id); an
//! aggregate emits each group's least input row id, the id of the row
//! where the group first appears.
//!
//! A join shard emits what the local engine's join emits — the planned
//! columns, every build-side string as dictionary codes — through the
//! same join and assembly (`exec::join_rows`, `exec::assemble_join`).
//! The join builds its table on the smaller side, on every engine, and
//! hands its pairs back in probe order, so which side it built on never
//! shows in the output. The codes rule reads no row count, so every
//! shard hands the sink one column type.
//!
//! Every shard gathers its input in **canonical order**: by `__rid`
//! (nulls first), ties to the earlier producer and then the earlier row —
//! what laying the inputs end to end and stable-sorting by `__rid` gives.
//! That makes per-group fold order equal to the reference engine's row
//! order bit-for-bit (floating-point sums included), no matter how
//! batches were partitioned or which failed task recomputed them, and it
//! merges hash-partitioned groups back into the reference engine's group
//! order, first appearance. The sink strips the hidden column.
//!
//! # Shuffle-hash compatibility
//!
//! [`partition_by_key`] buckets rows by `hash_key_column(col) % parts` —
//! the physical graph's one FNV-1a-over-key-bytes rule
//! ([`hash_shard`](skadi_flowgraph::partition::hash_shard)), and the
//! same hash the join kernel probes with. A `Float64` key equal to an
//! integer hashes as that integer's `Int64` bytes on every keyed edge, so
//! a mixed `Int64`/`Float64` join key pair co-locates without the edge
//! knowing what it feeds.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use skadi_arrow::array::Array;
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::buffer::{Bitmap, Native};
use skadi_arrow::datatype::DataType;
use skadi_arrow::schema::{Field, Schema};
use skadi_arrow::{compute, ipc};
use skadi_flowgraph::profile::ShardStats;
use skadi_flowgraph::{AggFunc, AggItem, Comparison, ExecOp};

use crate::exec::{self, wrap};
use crate::sql::SqlError;

/// Hidden row-id column threaded from scans through joins and aggregates.
pub const RID: &str = "__rid";

/// True if `name` is reserved for the data plane's hidden column.
pub fn is_hidden(name: &str) -> bool {
    name == RID
}

/// One producer's output as a consumer shard takes it: the whole batch
/// and which of its rows are the shard's. A shuffle selects rows and
/// never copies them; the one copy a row gets is the consumer's gather.
#[derive(Debug, Clone)]
pub struct Part {
    /// The producer's output.
    batch: RecordBatch,
    /// The shard's rows of it, ascending; `None` is every row.
    rows: Option<Arc<Vec<u32>>>,
}

impl Part {
    /// Every row of `batch`.
    pub fn whole(batch: RecordBatch) -> Part {
        Part { batch, rows: None }
    }

    /// The `rows` of `batch`, which ascend: one of the row lists
    /// [`partition_by_key`] makes.
    pub fn selection(batch: RecordBatch, rows: Arc<Vec<u32>>) -> Part {
        debug_assert!(rows.is_sorted(), "a part's rows ascend");
        Part {
            batch,
            rows: Some(rows),
        }
    }

    /// Rows the shard takes.
    pub fn num_rows(&self) -> usize {
        self.rows
            .as_ref()
            .map_or(self.batch.num_rows(), |r| r.len())
    }

    /// The length of the frame of the shard's rows gathered into a batch
    /// of their own, summed without gathering them.
    pub fn encoded_len(&self) -> usize {
        match &self.rows {
            None => ipc::encoded_len(&self.batch),
            Some(rows) => ipc::encoded_len_of_rows(&self.batch, rows),
        }
    }
}

/// Executes one shard's operator chain. `port0` holds the (probe-side)
/// input parts in producer shard order, `port1` the build side of a
/// join; scans ignore both and read `tables` directly. The kernels'
/// measurements — hash-table counters, build swaps, and the selectivity
/// of the chain's filter steps taken together — are filled into `stats`.
pub fn execute_shard(
    op: &ExecOp,
    tables: &BTreeMap<String, RecordBatch>,
    shard: u32,
    shards: u32,
    port0: &[Part],
    port1: &[Part],
    stats: &mut ShardStats,
) -> Result<RecordBatch, SqlError> {
    let mut current: Option<RecordBatch> = None;
    let (mut filter_in, mut filter_out) = (0usize, 0usize);
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
                columns,
            } => {
                if current.is_some() {
                    return Err(SqlError::Plan("join cannot be mid-chain".into()));
                }
                let ports = (port0, port1);
                join_shard(ports, &left_key, &right_key, right_rows, &columns, stats)?
            }
            ExecOp::Filter { conjuncts } => {
                let input = step_input(&mut current, port0)?;
                let out = filter_shard(&input, &conjuncts)?;
                filter_in += input.num_rows();
                filter_out += out.num_rows();
                out
            }
            ExecOp::Project { columns } => {
                project_shard(&step_input(&mut current, port0)?, &columns)?
            }
            ExecOp::Aggregate { group_by, aggs } => {
                let input = step_input(&mut current, port0)?;
                aggregate_shard(&input, &group_by, &aggs, stats)?
            }
            ExecOp::Limit { n, order } => {
                // The top-N kernel breaks ties by position, so this
                // shard's first `n` are the sink's order restricted to
                // the shard only if the input is in canonical order.
                // Gathered input is, and so is what a scan, a join or an
                // aggregate hands on mid-chain; any other batch is put in
                // order here.
                let cur = canonicalize(&step_input(&mut current, port0)?)?;
                exec::order_limit(&cur, order.as_ref(), Some(n))?
            }
            ExecOp::Collect { order_by, limit } => {
                let input = step_input(&mut current, port0)?;
                let cur = exec::order_limit(&input, order_by.as_ref(), limit)?;
                // Output boundary: deliver plain columns so the result
                // matches the reference engine regardless of which
                // columns ran dictionary-encoded.
                strip_hidden(&cur)?.dict_decoded()
            }
            ExecOp::Fused(_) => {
                return Err(SqlError::Plan("a fused step in a flattened chain".into()));
            }
        };
        current = Some(out);
    }
    stats.selectivity = (filter_in > 0).then(|| filter_out as f64 / filter_in as f64);
    current.ok_or_else(|| SqlError::Plan("empty exec descriptor".into()))
}

/// What a chain step other than a scan or a join reads: the batch the
/// step before it made or, first in the chain, its gathered inputs.
fn step_input(current: &mut Option<RecordBatch>, port0: &[Part]) -> Result<RecordBatch, SqlError> {
    current.take().map_or_else(|| gather(port0), Ok)
}

/// Divides `batch`'s rows into hash partitions on `key`: one ascending
/// row list per partition, no row copied. The partition index is
/// `hash_key_column(row) % parts` — byte-compatible with the physical
/// graph's FNV-1a `partition::hash_shard` (a `Float64` key equal to an
/// integer hashed as that integer) and with the hash the join kernel
/// buckets on.
pub fn partition_by_key(
    batch: &RecordBatch,
    key: &str,
    parts: usize,
) -> Result<Vec<Vec<u32>>, SqlError> {
    let col = batch.column_by_name(key).map_err(wrap)?;
    let hashes = compute::hash_key_column(col);
    let parts = parts.max(1);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::with_capacity(hashes.len() / parts); parts];
    for (r, &h) in hashes.iter().enumerate() {
        buckets[(h % parts as u64) as usize].push(r as u32);
    }
    Ok(buckets)
}

/// Splits `batch` into `parts` contiguous even slices (scatter edges).
pub fn split_even(batch: &RecordBatch, parts: usize) -> Vec<RecordBatch> {
    let n = batch.num_rows();
    let parts = parts.max(1);
    (0..parts)
        .map(|i| batch.slice(i * n / parts, (i + 1) * n / parts))
        .collect()
}

/// A `__rid` column's stored bytes and validity.
type RowIds<'a> = (&'a [u8], Option<&'a Bitmap>);

/// A row's place in canonical order: its row id, null (or absent) first.
type Key = Option<i64>;

/// The canonical order over the rows of several parts: by `__rid`, nulls
/// first; a part without the column holds only null keys.
struct CanonOrder<'a> {
    /// Per part, its `__rid` column's stored bytes and validity, where
    /// present.
    rids: Vec<Option<RowIds<'a>>>,
}

impl<'a> CanonOrder<'a> {
    /// The order over the rows of `batches`.
    fn new(batches: &[&'a RecordBatch]) -> Result<Self, SqlError> {
        let mut rids = Vec::with_capacity(batches.len());
        for batch in batches {
            let rid = match batch.schema().index_of(RID) {
                Ok(i) => Some(batch.column(i).as_i64().map_err(wrap)?),
                Err(_) => None,
            };
            rids.push(rid.map(|a| (a.values().as_slice(), a.validity())));
        }
        Ok(CanonOrder { rids })
    }

    /// The key of part `part`'s row `r`, as a function of `r`: the part's
    /// column is looked up once, not per row.
    #[inline]
    fn key(&self, part: usize) -> impl Fn(u32) -> Key + 'a {
        let rid = self.rids[part];
        move |r| {
            let (raw, valid) = rid?;
            let r = r as usize;
            let valid = valid.is_none_or(|v| v.get(r));
            valid.then(|| <i64 as Native>::from_le(&raw[r * 8..r * 8 + 8]))
        }
    }

    /// The keys of part `part`'s `rows`.
    fn keys(&self, part: usize, rows: &[u32]) -> Vec<Key> {
        rows.iter().copied().map(self.key(part)).collect()
    }

    /// Whether part `part`'s `rows` already ascend in canonical order.
    fn ascends(&self, part: usize, rows: &[u32]) -> bool {
        rows.iter().copied().map(self.key(part)).is_sorted()
    }
}

/// A part's `rows` (ascending) beside their `keys`: as they are when they
/// `ascend`, else stably sorted alone.
fn in_order(rows: Cow<[u32]>, keys: Vec<Key>, ascend: bool) -> (Cow<[u32]>, Vec<Key>) {
    if ascend {
        return (rows, keys);
    }
    // Rows are distinct and ascend, so `(key, row)` order is the stable
    // order by key.
    let mut pairs: Vec<(Key, u32)> = keys.into_iter().zip(rows.iter().copied()).collect();
    pairs.sort_unstable();
    let (keys, rows) = pairs.into_iter().unzip();
    (Cow::Owned(rows), keys)
}

/// The parts' `rows` merged into one canonical sequence of `(part, row)`
/// picks: each part's rows sorted alone unless they `ascend`, then a row
/// at a time from the part with the least head key, ties to the earlier
/// part.
fn merge(order: &CanonOrder, rows: Vec<Cow<[u32]>>, ascend: Vec<bool>) -> Vec<(u32, u32)> {
    let parts: Vec<_> = rows
        .into_iter()
        .zip(ascend)
        .enumerate()
        .map(|(p, (rows, ascend))| {
            let part_keys = order.keys(p, &rows);
            in_order(rows, part_keys, ascend)
        })
        .collect();
    let mut picks: Vec<(u32, u32)> = Vec::with_capacity(parts.iter().map(|p| p.0.len()).sum());
    let mut at = vec![0usize; parts.len()];
    // The parts with rows left, in part order, and each one's next key.
    let mut live: Vec<usize> = (0..parts.len())
        .filter(|&p| !parts[p].1.is_empty())
        .collect();
    let mut heads: Vec<Key> = live.iter().map(|&p| parts[p].1[0]).collect();
    while !live.is_empty() {
        let mut least = 0;
        for (i, head) in heads.iter().enumerate().skip(1) {
            if *head < heads[least] {
                least = i;
            }
        }
        let p = live[least];
        picks.push((p as u32, parts[p].0[at[p]]));
        at[p] += 1;
        match parts[p].1.get(at[p]) {
            Some(&next) => heads[least] = next,
            None => {
                live.remove(least);
                heads.remove(least);
            }
        }
    }
    picks
}

/// A shard's input: its parts merged into canonical order and gathered
/// once, every row's bytes copied from its producer's buffers straight
/// into the output's ([`RecordBatch::gather`]). A part whose rows are not
/// in canonical order by themselves (a `Limit` output, sorted by its own
/// key) is sorted alone first; parts that each ascend and follow one
/// another — scan shards, in shard order, and shuffled selections of them
/// — are laid end to end without a merge. The result is the parts laid
/// end to end and stable-sorted by `__rid` — dictionaries included.
fn gather(parts: &[Part]) -> Result<RecordBatch, SqlError> {
    if parts.is_empty() {
        return Err(SqlError::Plan("operator shard received no input".into()));
    }
    let rows: Vec<Cow<[u32]>> = parts
        .iter()
        .map(|p| match &p.rows {
            Some(rows) => Cow::Borrowed(rows.as_slice()),
            None => Cow::Owned((0..p.batch.num_rows() as u32).collect()),
        })
        .collect();
    let batches: Vec<&RecordBatch> = parts.iter().map(|p| &p.batch).collect();
    let order = CanonOrder::new(&batches)?;
    let ascend: Vec<bool> = rows
        .iter()
        .enumerate()
        .map(|(p, r)| order.ascends(p, r))
        .collect();
    let ends: Vec<(Key, Key)> = (0..rows.len())
        .filter_map(|p| Some((p, *rows[p].first()?, *rows[p].last()?)))
        .map(|(p, first, last)| (order.key(p)(first), order.key(p)(last)))
        .collect();
    let in_sequence = ascend.iter().all(|&a| a) && ends.windows(2).all(|w| w[0].1 <= w[1].0);
    let picks = if in_sequence {
        let every = rows.iter().enumerate();
        every
            .flat_map(|(p, rows)| rows.iter().map(move |&r| (p as u32, r)))
            .collect()
    } else {
        merge(&order, rows, ascend)
    };
    RecordBatch::gather(&batches, &picks).map_err(wrap)
}

/// One batch in canonical order: a shard input's merge order for a
/// single part, its rows moved only when they are out of order (the
/// dictionaries stay as they are).
pub fn canonicalize(batch: &RecordBatch) -> Result<RecordBatch, SqlError> {
    let every: Vec<u32> = (0..batch.num_rows() as u32).collect();
    let order = CanonOrder::new(&[batch])?;
    if order.ascends(0, &every) {
        return Ok(batch.clone());
    }
    let (moved, _) = in_order(Cow::Borrowed(&every), order.keys(0, &every), false);
    let rows: Vec<usize> = moved.iter().map(|&r| r as usize).collect();
    compute::take_indices(batch, &rows).map_err(wrap)
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

fn filter_shard(input: &RecordBatch, conjuncts: &[Comparison]) -> Result<RecordBatch, SqlError> {
    let refs: Vec<&Comparison> = conjuncts.iter().collect();
    exec::apply_conjuncts(input, &refs)
}

/// Projection keeps the hidden column alongside the requested ones.
fn project_shard(input: &RecordBatch, columns: &[String]) -> Result<RecordBatch, SqlError> {
    let mut keep: Vec<&str> = columns.iter().map(String::as_str).collect();
    if input.schema().index_of(RID).is_ok() && !keep.contains(&RID) {
        keep.push(RID);
    }
    input.project(&keep).map_err(wrap)
}

fn rid_values(batch: &RecordBatch) -> Result<Vec<i64>, SqlError> {
    let col = batch.column_by_name(RID).map_err(wrap)?;
    let a = col.as_i64().map_err(wrap)?;
    Ok((0..a.len()).map(|r| a.get(r).unwrap_or(0)).collect())
}

/// One shard of a hash join of `ports` (probe side, build side) on
/// `left_key` = `right_key`. Both sides are gathered into canonical
/// (row-id) order so the probe order matches the reference engine's,
/// restricted to the keys hashed to this shard, and the output is what
/// the local engine's join emits ([`exec::assemble_join`]: the planned
/// `columns`, build strings as codes). The join ([`exec::join_rows`])
/// returns its pairs in probe order whichever side it built on, so the
/// output row id `left_rid * right_rows + right_rid` ascends with them
/// and orders join outputs exactly like the reference engine's
/// probe-order emission; an id that leaves the `i64` range is an error,
/// never a wrapped id that would reorder the answer.
fn join_shard(
    (port0, port1): (&[Part], &[Part]),
    left_key: &str,
    right_key: &str,
    right_rows: u64,
    columns: &[String],
    stats: &mut ShardStats,
) -> Result<RecordBatch, SqlError> {
    let left = gather(port0)?;
    let right = gather(port1)?;
    let l_rid = rid_values(&left)?;
    let r_rid = rid_values(&right)?;
    let left_vis = strip_hidden(&left)?;
    let right_vis = strip_hidden(&right)?;
    let (lrows, rrows) = exec::join_rows(&left_vis, &right_vis, left_key, right_key, stats)?;
    let out = exec::assemble_join(&left_vis, &right_vis, columns, &lrows, &rrows)?;
    let rid = lrows.iter().zip(&rrows);
    let rid = rid.map(|(&l, &r)| join_rid(l_rid[l as usize], right_rows, r_rid[r as usize]));
    let rid: Vec<i64> = rid.collect::<Result<_, _>>()?;
    append_column(
        &out,
        Field::new(RID, DataType::Int64, true),
        Array::from_i64(rid),
    )
}

/// The row id of a join output row: `left * right_rows + right`, or an
/// error where that leaves the `i64` range, since a wrapped id would
/// silently reorder the answer.
fn join_rid(left: i64, right_rows: u64, right: i64) -> Result<i64, SqlError> {
    let stride = i64::try_from(right_rows.max(1)).ok();
    let id = stride.and_then(|s| left.checked_mul(s)?.checked_add(right));
    id.ok_or_else(|| {
        let at = format!("{left} * {right_rows} + {right}");
        SqlError::Plan(format!("execution: join row id {at} overflowed Int64"))
    })
}

/// One shard of an aggregation. The gathered input is in row-id order,
/// so per-group folds run in exactly the reference engine's row order and
/// groups come out in order of first appearance. `min(__rid)` rides along
/// per group: the id of the group's first row, which ascends with the
/// group, so the canonical order merges every shard's groups back into
/// the reference engine's order.
fn aggregate_shard(
    input: &RecordBatch,
    group_by: &[String],
    aggs: &[AggItem],
    stats: &mut ShardStats,
) -> Result<RecordBatch, SqlError> {
    let mut items = aggs.to_vec();
    items.push(AggItem {
        func: AggFunc::Min,
        column: RID.into(),
        name: RID.into(),
    });
    exec::aggregate_spec(group_by, &items, input, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_arrow::array::Value;
    use skadi_flowgraph::partition::hash_shard;

    /// [`execute_shard`], its measurements dropped.
    fn execute(
        op: &ExecOp,
        tables: &BTreeMap<String, RecordBatch>,
        shard: u32,
        shards: u32,
        port0: &[Part],
        port1: &[Part],
    ) -> Result<RecordBatch, SqlError> {
        let mut stats = ShardStats::default();
        execute_shard(op, tables, shard, shards, port0, port1, &mut stats)
    }

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
            let out = execute(&op, &tables, s, 3, &[], &[]).unwrap();
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
        let split = partition_by_key(&t, "k", parts).unwrap();
        let keys = t.column(0).as_i64().unwrap();
        let mut want = vec![0usize; parts];
        for r in 0..t.num_rows() {
            // hash_row's Int64 key-byte encoding.
            let key = keys.get(r).unwrap().to_le_bytes();
            want[hash_shard(&key, parts as u32) as usize] += 1;
        }
        let got: Vec<usize> = split.iter().map(Vec::len).collect();
        assert_eq!(got, want);
        assert_eq!(got.iter().sum::<usize>(), t.num_rows());
        assert!(split.iter().all(|rows| rows.is_sorted()), "{split:?}");
    }

    /// Every row list of `batch` split `parts` ways by `key`, as parts.
    fn shuffled(batch: &RecordBatch, key: &str, parts: usize) -> Vec<Part> {
        let lists = partition_by_key(batch, key, parts).unwrap();
        let part = |rows| Part::selection(batch.clone(), Arc::new(rows));
        lists.into_iter().map(part).collect()
    }

    #[test]
    fn canonicalize_restores_row_order_after_shuffle() {
        let t = table();
        let tables = BTreeMap::from([("t".to_string(), t.clone())]);
        let op = ExecOp::Scan { table: "t".into() };
        let a = execute(&op, &tables, 0, 2, &[], &[]).unwrap();
        let b = execute(&op, &tables, 1, 2, &[], &[]).unwrap();
        // Re-partition by key, then gather everything back: canonical
        // order equals the original scan order.
        let mut parts = shuffled(&a, "k", 2);
        parts.extend(shuffled(&b, "k", 2));
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
    fn join_shard_built_on_the_smaller_side_matches_nested_loop() {
        // Small probe side, large skewed build side (with null keys): the
        // join builds on the probe side, yet every shard must emit the
        // rows of a nested loop over its parts, in probe order.
        let lkeys = vec![Some(1), Some(2), None, Some(3)];
        let left = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, true),
                Field::new("a", DataType::Int64, false),
            ]),
            vec![
                Array::from_opt_i64(lkeys.clone()),
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
                Array::from_opt_i64(rkeys.clone()),
                Array::from_i64((0..24i64).map(|i| i * 100).collect()),
            ],
        )
        .unwrap();
        let tables = BTreeMap::from([("l".to_string(), left), ("r".to_string(), right)]);
        let lscan = execute(&ExecOp::Scan { table: "l".into() }, &tables, 0, 1, &[], &[]).unwrap();
        let rscan = execute(&ExecOp::Scan { table: "r".into() }, &tables, 0, 1, &[], &[]).unwrap();
        let op = ExecOp::Join {
            left_key: "k".into(),
            right_key: "k".into(),
            right_rows: 24,
            columns: vec!["k".into(), "a".into(), "b".into()],
        };
        let (mut swaps, mut matched) = (0, 0);
        for shard in 0..2usize {
            let port0 = vec![shuffled(&lscan, "k", 2)[shard].clone()];
            let port1 = vec![shuffled(&rscan, "k", 2)[shard].clone()];
            let mut stats = ShardStats::default();
            let out =
                execute_shard(&op, &tables, shard as u32, 2, &port0, &port1, &mut stats).unwrap();
            swaps += stats.build_swaps;
            // The shard's rows of each table are its row ids, ascending.
            let rows = |p: &Part| p.rows.as_ref().unwrap().to_vec();
            let mut want = Vec::new();
            for l in rows(&port0[0]) {
                for r in rows(&port1[0]) {
                    let (l, r) = (l as usize, r as usize);
                    if let Some(k) = lkeys[l].filter(|&k| rkeys[r] == Some(k)) {
                        let (a, b) = ([10, 20, 25, 30][l], r as i64 * 100);
                        want.push([k, a, b, (l * 24 + r) as i64].map(Value::I64));
                    }
                }
            }
            let col = |c: &str, r| out.column_by_name(c).unwrap().value_at(r);
            let got: Vec<[Value; 4]> = (0..out.num_rows())
                .map(|r| [col("k", r), col("a", r), col("b", r), col(RID, r)])
                .collect();
            assert_eq!(got, want, "shard {shard}");
            matched += got.len();
        }
        assert!(
            swaps >= 1,
            "the skewed shard should have built on its probe side"
        );
        // Null keys never match; the three non-null left keys match the 6,
        // 7 and 7 build rows holding theirs.
        assert_eq!(matched, 20);
    }

    #[test]
    fn join_row_ids_that_leave_i64_are_an_error() {
        // Four probe rows (ids 0..4) all matching both build rows (ids 0
        // and 1), joined as if the build relation had `right_rows` rows.
        let one_key = |n: usize| {
            let schema = Schema::new(vec![Field::new("k", DataType::Int64, false)]);
            RecordBatch::try_new(schema, vec![Array::from_i64(vec![1; n])]).unwrap()
        };
        let tables = BTreeMap::from([("l".to_string(), one_key(4)), ("r".to_string(), one_key(2))]);
        let scan = |t: &str| {
            let op = ExecOp::Scan { table: t.into() };
            Part::whole(execute(&op, &tables, 0, 1, &[], &[]).unwrap())
        };
        let join = |right_rows| {
            let op = ExecOp::Join {
                left_key: "k".into(),
                right_key: "k".into(),
                right_rows,
                columns: vec!["k".into()],
            };
            execute(&op, &tables, 0, 1, &[scan("l")], &[scan("r")])
        };
        let out = join(2).unwrap();
        let rid = out.column_by_name(RID).unwrap();
        let rids: Vec<Value> = (0..out.num_rows()).map(|r| rid.value_at(r)).collect();
        assert_eq!(rids, (0..8).map(Value::I64).collect::<Vec<_>>());
        // Probe row 2 times a stride of 2^62 is 2^63; a stride above
        // `i64::MAX` overflows at once. Both used to wrap.
        for right_rows in [1 << 62, u64::MAX] {
            let err = join(right_rows).unwrap_err().to_string();
            assert!(err.contains("overflowed Int64"), "{right_rows}: {err}");
        }
    }

    #[test]
    fn split_even_is_contiguous_and_total() {
        let t = table();
        let parts = split_even(&t, 3);
        assert_eq!(parts.iter().map(|b| b.num_rows()).sum::<usize>(), 8);
        assert_eq!(parts[0].column(0).value_at(0), Value::I64(3));
    }

    /// The gather as it stood before shuffles handed over row lists, kept
    /// as the oracle: each part's rows taken into a batch of their own,
    /// the batches laid end to end value by value (dictionaries rebuilt by
    /// first appearance: what `RecordBatch::concat` built), then a stable
    /// sort by `__rid`, skipped when the column already ascended.
    mod before {
        use super::*;

        fn already_ascending(col: &Array) -> bool {
            match col {
                Array::Int64(a) if a.validity().is_none() => {
                    a.iter_raw().zip(a.iter_raw().skip(1)).all(|(x, y)| x <= y)
                }
                _ => false,
            }
        }

        pub fn canonicalize(batch: &RecordBatch) -> RecordBatch {
            match batch.column_by_name(RID) {
                Ok(col) if !already_ascending(col) => exec::sort_by(batch, RID, false).unwrap(),
                _ => batch.clone(),
            }
        }

        pub fn gather(parts: &[Part]) -> RecordBatch {
            let taken: Vec<RecordBatch> = parts
                .iter()
                .map(|p| match &p.rows {
                    Some(rows) => {
                        let rows: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
                        compute::take_indices(&p.batch, &rows).unwrap()
                    }
                    None => p.batch.clone(),
                })
                .collect();
            let schema = taken[0].schema().clone();
            let columns = (0..schema.len())
                .map(|c| {
                    let values: Vec<Value> = taken
                        .iter()
                        .flat_map(|b| (0..b.num_rows()).map(move |r| b.column(c).value_at(r)))
                        .collect();
                    Array::from_values(schema.field(c).data_type, &values).unwrap()
                })
                .collect();
            canonicalize(&RecordBatch::try_new(schema, columns).unwrap())
        }
    }

    /// A splitmix64 stream: each case below is a pure function of a seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    const WORDS: [&str; 5] = ["", "a", "bb", "héllo", "z"];

    /// One producer's output: a nullable column in each of the five
    /// encodings and, unless `bare`, `__rid` ascending or out of order
    /// (ties either way, a null now and then). The `DictUtf8` column's
    /// dictionary is this producer's own: the words in an order of its own
    /// after a spare entry, none of them necessarily used by a row.
    fn producer(rng: &mut Rng, bare: bool) -> RecordBatch {
        let n = rng.below(12) as usize;
        let mut draw = |pick: &mut dyn FnMut(&mut Rng) -> usize| -> Vec<Option<usize>> {
            (0..n)
                .map(|_| (!rng.chance(20)).then(|| pick(&mut *rng)))
                .collect()
        };
        let ints = draw(&mut |r| r.below(6) as usize);
        let floats = draw(&mut |r| r.below(5) as usize);
        let bools = draw(&mut |r| r.below(2) as usize);
        let strs = draw(&mut |r| r.below(5) as usize);
        let dicts = draw(&mut |r| r.below(5) as usize);
        const FLOATS: [f64; 5] = [f64::NAN, -0.0, 0.0, 1.5, -2.0];
        let mut order: Vec<&str> = WORDS.to_vec();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let prefix: Vec<Option<&str>> = std::iter::once("spare").chain(order).map(Some).collect();
        let skip = prefix.len();
        let words = dicts.iter().map(|w| w.map(|w| WORDS[w]));
        let dict = Array::from_opt_dict_utf8(prefix.into_iter().chain(words)).slice(skip, skip + n);
        // Row ids ascending or not, ties either way, now and then a null.
        let mut rids: Vec<Option<i64>> = (0..n)
            .map(|_| (!rng.chance(3)).then(|| rng.below(20) as i64 - 2))
            .collect();
        if rng.chance(50) {
            rids.sort_unstable();
        }
        let mut fields = vec![
            Field::new("i", DataType::Int64, true),
            Field::new("f", DataType::Float64, true),
            Field::new("b", DataType::Bool, true),
            Field::new("s", DataType::Utf8, true),
            Field::new("d", DataType::DictUtf8, true),
        ];
        let mut columns = vec![
            Array::from_opt_i64(ints.iter().map(|v| v.map(|v| v as i64 - 2)).collect()),
            Array::from_opt_f64(floats.iter().map(|v| v.map(|v| FLOATS[v])).collect()),
            Array::from_opt_bool(bools.iter().map(|v| v.map(|v| v == 1)).collect()),
            Array::from_opt_utf8(strs.iter().map(|v| v.map(|v| WORDS[v]))),
            dict,
        ];
        if !bare {
            fields.push(Field::new(RID, DataType::Int64, true));
            columns.push(Array::from_opt_i64(rids));
        }
        RecordBatch::try_new(Schema::new(fields), columns).unwrap()
    }

    /// Zero to six parts, some empty, some taking every row and some a
    /// selection of them.
    fn parts_for(seed: u64) -> Vec<Part> {
        let mut rng = Rng(seed);
        let bare = rng.chance(10);
        (0..rng.below(7))
            .map(|_| {
                let batch = producer(&mut rng, bare);
                let n = batch.num_rows() as u32;
                let rows = match rng.below(3) {
                    0 => None,
                    _ => Some(Arc::new((0..n).filter(|_| rng.chance(60)).collect())),
                };
                Part { batch, rows }
            })
            .collect()
    }

    /// [`parts_for`] merge-gathered and compared, as frames, with the
    /// oracle; and every part's batch canonicalized alone.
    fn check_merge_gather(seed: u64) {
        let parts = parts_for(seed);
        if parts.is_empty() {
            assert!(
                gather(&parts).is_err(),
                "seed {seed}: no part gathers nothing"
            );
            return;
        }
        let got = ipc::encode(&gather(&parts).unwrap());
        let want = ipc::encode(&before::gather(&parts));
        assert_eq!(got.as_slice(), want.as_slice(), "seed {seed}: gather");
        for (i, p) in parts.iter().enumerate() {
            let got = ipc::encode(&canonicalize(&p.batch).unwrap());
            let want = ipc::encode(&before::canonicalize(&p.batch));
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "seed {seed}: canonicalize {i}"
            );
        }
    }

    #[test]
    fn merge_gather_cases_cover_what_they_claim() {
        // Across these seeds the cases hold every shape the property is
        // about: no part, empty parts, several parts, parts out of order,
        // row ids tied, null row ids, parts without row ids.
        let (mut none, mut empty, mut many, mut unordered, mut tied) =
            (false, false, false, false, false);
        let (mut null, mut bare) = (false, false);
        for seed in 0..200 {
            check_merge_gather(seed);
            let parts = parts_for(seed);
            none |= parts.is_empty();
            many |= parts.len() >= 3;
            for p in &parts {
                empty |= p.num_rows() == 0;
                bare |= p.batch.column_by_name(RID).is_err();
                let rows: Vec<u32> = (0..p.batch.num_rows() as u32).collect();
                let keys = CanonOrder::new(&[&p.batch]).unwrap().keys(0, &rows);
                unordered |= !keys.is_sorted();
                tied |= keys.windows(2).any(|w| w[0].is_some() && w[0] == w[1]);
                null |= p.batch.column_by_name(RID).is_ok() && keys.contains(&None);
            }
        }
        assert!(none && empty && many && unordered && tied && null && bare);
    }

    use proptest::prelude::*;
    use skadi_arrow::ipc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_merge_gather_equals_concat_then_canonicalize(seed in any::<u64>()) {
            check_merge_gather(seed);
        }
    }
}
