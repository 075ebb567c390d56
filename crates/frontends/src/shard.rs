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
//! Every shard gathers its input in **canonical order**: by `__gkey`,
//! then by `__rid` (each where present), ties to the earlier producer
//! and then the earlier row — what laying the inputs end to end and
//! stable-sorting by `__rid` and then by `__gkey` gives. That makes
//! per-group fold order equal to the reference engine's row order
//! bit-for-bit (floating-point sums included), no matter how batches
//! were partitioned or which failed task recomputed them. The sink
//! strips both hidden columns.
//!
//! # Shuffle-hash compatibility
//!
//! [`partition_by_key`] buckets rows by `hash_key_column(col) % parts` —
//! the same FNV-1a-over-key-bytes scheme the physical graph's
//! [`Partitioner::Hash`](skadi_flowgraph::Partitioner) prices, and the
//! same hash the join/aggregate kernels probe with. Edges into a join
//! pass `coerce = true` so mixed `Int64`/`Float64` key pairs co-locate
//! by their `f64` bit pattern.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use skadi_arrow::array::{Array, Utf8Array};
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::buffer::{Bitmap, Native};
use skadi_arrow::compute;
use skadi_arrow::datatype::DataType;
use skadi_arrow::schema::{Field, Schema};
use skadi_flowgraph::{ExecAgg, ExecCompare, ExecLiteral, ExecOp};

use crate::exec::{self, wrap};
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
/// input parts in producer shard order, `port1` the build side of a
/// join; scans ignore both and read `tables` directly.
pub fn execute_shard(
    op: &ExecOp,
    tables: &BTreeMap<String, RecordBatch>,
    shard: u32,
    shards: u32,
    port0: &[Part],
    port1: &[Part],
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
    port0: &[Part],
    port1: &[Part],
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
                        // The top-N kernel breaks ties by position, so
                        // this shard's first `n` are the sink's order
                        // restricted to the shard only if the input is in
                        // canonical order. Gathered input is, and so is
                        // what a scan, a join or an aggregate hands on
                        // mid-chain; any other batch is put in order here.
                        let cur = canonicalize(&input)?;
                        let order = order.as_ref().map(|(col, desc)| (col.as_str(), *desc));
                        exec::order_limit(&cur, order, Some(n as usize))?
                    }
                    ExecOp::Collect { order_by, limit } => {
                        let order = order_by.as_ref().map(|(col, desc)| (col.as_str(), *desc));
                        let cur = exec::order_limit(&input, order, limit.map(|n| n as usize))?;
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

/// Divides `batch`'s rows into hash partitions on `key`: one ascending
/// row list per partition, no row copied. The partition index is
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
) -> Result<Vec<Vec<u32>>, SqlError> {
    let col = batch.column_by_name(key).map_err(wrap)?;
    let hashes = compute::hash_key_column(col, coerce);
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

/// The canonical order over the rows of several parts. A row's key is
/// one integer that orders like `(__gkey, __rid)`: its group key as its
/// rank among the parts' group keys (0: absent or null), then its row
/// id's validity and order-preserving bits (nulls first) — or, where no
/// row carries a group key and no row id is null, those bits alone, so a
/// comparison is one `u64` compare.
struct CanonOrder<'a> {
    /// Per part, its `__gkey` column and its `__rid` column's stored
    /// bytes and validity, where present.
    columns: Vec<(Option<&'a Utf8Array>, Option<RowIds<'a>>)>,
    /// Every group key the parts' rows carry, sorted and distinct.
    groups: Vec<&'a [u8]>,
}

/// A row id's order-preserving bits.
fn rid_bits(raw: &[u8], r: usize) -> u64 {
    <i64 as Native>::from_le(&raw[r * 8..r * 8 + 8]) as u64 ^ 1 << 63
}

impl<'a> CanonOrder<'a> {
    /// The order over `rows` (each part's, ascending) of `batches`.
    fn new(batches: &[&'a RecordBatch], rows: &[Cow<[u32]>]) -> Result<Self, SqlError> {
        let mut columns = Vec::with_capacity(batches.len());
        for batch in batches {
            let column = |name| batch.schema().index_of(name).ok().map(|i| batch.column(i));
            let gkey = column(GKEY).map(Array::as_utf8).transpose().map_err(wrap)?;
            let rid = column(RID).map(Array::as_i64).transpose().map_err(wrap)?;
            let rid = rid.map(|a| (a.values().as_slice(), a.validity()));
            columns.push((gkey, rid));
        }
        let mut groups: Vec<&[u8]> = Vec::new();
        for ((gkey, _), rows) in columns.iter().zip(rows) {
            if let Some(g) = gkey {
                groups.extend(rows.iter().filter_map(|&r| g.key_bytes(r as usize)));
            }
        }
        groups.sort_unstable();
        groups.dedup();
        Ok(CanonOrder { columns, groups })
    }

    /// Whether the row ids' bits alone order every row.
    fn narrow(&self) -> bool {
        let no_null = |(_, rid): &(_, Option<RowIds>)| rid.is_none_or(|(_, valid)| valid.is_none());
        self.groups.is_empty() && self.columns.iter().all(no_null)
    }

    /// The keys of part `part`'s `rows` when the order is [`Self::narrow`].
    fn narrow_keys(&self, part: usize, rows: &[u32]) -> Vec<u64> {
        match self.columns[part].1 {
            Some((raw, _)) => rows.iter().map(|&r| rid_bits(raw, r as usize)).collect(),
            None => vec![0; rows.len()],
        }
    }

    /// The keys of part `part`'s `rows`.
    fn keys(&self, part: usize, rows: &[u32]) -> Vec<u128> {
        let (gkey, rid) = self.columns[part];
        let rank = |r: usize| {
            let group = gkey.and_then(|g| g.key_bytes(r));
            group.map_or(0, |k| self.groups.partition_point(|&g| g < k) + 1) as u128
        };
        let rid = |r: usize| match rid {
            Some((raw, valid)) if valid.is_none_or(|v| v.get(r)) => {
                1 << 64 | rid_bits(raw, r) as u128
            }
            _ => 0,
        };
        rows.iter()
            .map(|&r| rank(r as usize) << 65 | rid(r as usize))
            .collect()
    }

    /// Whether part `part`'s `rows` already ascend in canonical order:
    /// read off the stored row ids alone where they are the whole key.
    fn ascends(&self, part: usize, rows: &[u32]) -> bool {
        match self.columns[part] {
            (None, Some((raw, None))) => {
                let rid = |r: u32| rid_bits(raw, r as usize);
                rows.windows(2).all(|w| rid(w[0]) <= rid(w[1]))
            }
            _ => self.keys(part, rows).is_sorted(),
        }
    }
}

/// A part's `rows` (ascending) beside their `keys`: as they are when they
/// `ascend`, else stably sorted alone.
fn in_order<K: Ord + Copy>(rows: Cow<[u32]>, keys: Vec<K>, ascend: bool) -> (Cow<[u32]>, Vec<K>) {
    if ascend {
        return (rows, keys);
    }
    // Rows are distinct and ascend, so `(key, row)` order is the stable
    // order by key.
    let mut pairs: Vec<(K, u32)> = keys.into_iter().zip(rows.iter().copied()).collect();
    pairs.sort_unstable();
    let (keys, rows) = pairs.into_iter().unzip();
    (Cow::Owned(rows), keys)
}

/// The parts' `rows` merged into one canonical sequence of `(part, row)`
/// picks under `keys`: each part's rows sorted alone unless they
/// `ascend`, then a row at a time from the part with the least head key,
/// ties to the earlier part.
fn merge<K: Ord + Copy>(
    rows: Vec<Cow<[u32]>>,
    ascend: Vec<bool>,
    keys: impl Fn(usize, &[u32]) -> Vec<K>,
) -> Vec<(u32, u32)> {
    let parts: Vec<_> = rows
        .into_iter()
        .zip(ascend)
        .enumerate()
        .map(|(p, (rows, ascend))| {
            let part_keys = keys(p, &rows);
            in_order(rows, part_keys, ascend)
        })
        .collect();
    let mut picks: Vec<(u32, u32)> = Vec::with_capacity(parts.iter().map(|p| p.0.len()).sum());
    let mut at = vec![0usize; parts.len()];
    // The parts with rows left, in part order, and each one's next key.
    let mut live: Vec<usize> = (0..parts.len())
        .filter(|&p| !parts[p].1.is_empty())
        .collect();
    let mut heads: Vec<K> = live.iter().map(|&p| parts[p].1[0]).collect();
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
/// end to end and stable-sorted by `__rid`, then by `__gkey` —
/// dictionaries included.
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
    let order = CanonOrder::new(&batches, &rows)?;
    let ascend: Vec<bool> = rows
        .iter()
        .enumerate()
        .map(|(p, r)| order.ascends(p, r))
        .collect();
    let ends: Vec<(u128, u128)> = (0..rows.len())
        .filter_map(|p| Some((p, *rows[p].first()?, *rows[p].last()?)))
        .map(|(p, first, last)| (order.keys(p, &[first])[0], order.keys(p, &[last])[0]))
        .collect();
    let in_sequence = ascend.iter().all(|&a| a) && ends.windows(2).all(|w| w[0].1 <= w[1].0);
    let picks = if in_sequence {
        let every = rows.iter().enumerate();
        every
            .flat_map(|(p, rows)| rows.iter().map(move |&r| (p as u32, r)))
            .collect()
    } else if order.narrow() {
        merge(rows, ascend, |p, rows| order.narrow_keys(p, rows))
    } else {
        merge(rows, ascend, |p, rows| order.keys(p, rows))
    };
    RecordBatch::gather(&batches, &picks).map_err(wrap)
}

/// One batch in canonical order: a shard input's merge order for a
/// single part, its rows moved only when they are out of order (the
/// dictionaries stay as they are).
pub fn canonicalize(batch: &RecordBatch) -> Result<RecordBatch, SqlError> {
    let every: Vec<u32> = (0..batch.num_rows() as u32).collect();
    let order = CanonOrder::new(&[batch], &[Cow::Borrowed(&every)])?;
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
    port0: &[Part],
    port1: &[Part],
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
        let got: Vec<usize> = split.iter().map(Vec::len).collect();
        assert_eq!(got, want);
        assert_eq!(got.iter().sum::<usize>(), t.num_rows());
        assert!(split.iter().all(|rows| rows.is_sorted()), "{split:?}");
    }

    /// Every row list of `batch` split `parts` ways by `key`, as parts.
    fn shuffled(batch: &RecordBatch, key: &str, parts: usize, coerce: bool) -> Vec<Part> {
        let lists = partition_by_key(batch, key, parts, coerce).unwrap();
        let part = |rows| Part::selection(batch.clone(), Arc::new(rows));
        lists.into_iter().map(part).collect()
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
        let mut parts = shuffled(&a, "k", 2, false);
        parts.extend(shuffled(&b, "k", 2, false));
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
            let port0 = vec![shuffled(&lscan, "k", 2, true)[shard as usize].clone()];
            let port1 = vec![shuffled(&rscan, "k", 2, true)[shard as usize].clone()];
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

    /// The gather as it stood before shuffles handed over row lists, kept
    /// as the oracle: each part's rows taken into a batch of their own,
    /// the batches laid end to end value by value (dictionaries rebuilt by
    /// first appearance: what `RecordBatch::concat` built), then stable
    /// sorts by `__rid` and by `__gkey`, each skipped when its column
    /// already ascended.
    mod before {
        use super::*;

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

        pub fn canonicalize(batch: &RecordBatch) -> RecordBatch {
            let mut out = batch.clone();
            for key in [RID, GKEY] {
                if let Ok(col) = out.column_by_name(key) {
                    if !already_ascending(col) {
                        out = exec::sort_by(&out, key, false).unwrap();
                    }
                }
            }
            out
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
    /// encodings, `__rid` ascending or out of order (ties either way, a
    /// null now and then) and,
    /// when `grouped`, a `__gkey` drawn from three values so keys tie. The
    /// `DictUtf8` column's dictionary is this producer's own: the words in
    /// an order of its own after a spare entry, none of them necessarily
    /// used by a row.
    fn producer(rng: &mut Rng, grouped: bool) -> RecordBatch {
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
            Field::new(RID, DataType::Int64, true),
        ];
        let mut columns = vec![
            Array::from_opt_i64(ints.iter().map(|v| v.map(|v| v as i64 - 2)).collect()),
            Array::from_opt_f64(floats.iter().map(|v| v.map(|v| FLOATS[v])).collect()),
            Array::from_opt_bool(bools.iter().map(|v| v.map(|v| v == 1)).collect()),
            Array::from_opt_utf8(strs.iter().map(|v| v.map(|v| WORDS[v]))),
            dict,
            Array::from_opt_i64(rids),
        ];
        if grouped {
            let keys: Vec<&str> = (0..n)
                .map(|_| ["g", "", "h"][rng.below(3) as usize])
                .collect();
            fields.push(Field::new(GKEY, DataType::Utf8, false));
            columns.push(Array::from_utf8(&keys));
        }
        RecordBatch::try_new(Schema::new(fields), columns).unwrap()
    }

    /// Zero to six parts, some empty, some taking every row and some a
    /// selection of them.
    fn parts_for(seed: u64) -> Vec<Part> {
        let mut rng = Rng(seed);
        let grouped = rng.chance(50);
        (0..rng.below(7))
            .map(|_| {
                let batch = producer(&mut rng, grouped);
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
        // group keys tied.
        let (mut none, mut empty, mut many, mut unordered, mut tied) =
            (false, false, false, false, false);
        for seed in 0..200 {
            check_merge_gather(seed);
            let parts = parts_for(seed);
            none |= parts.is_empty();
            many |= parts.len() >= 3;
            for p in &parts {
                empty |= p.num_rows() == 0;
                let rows: Vec<u32> = (0..p.batch.num_rows() as u32).collect();
                let order = CanonOrder::new(&[&p.batch], &[Cow::Borrowed(&rows)]).unwrap();
                let keys = order.keys(0, &rows);
                unordered |= !keys.is_sorted();
                tied |= keys
                    .windows(2)
                    .any(|w| w[0] >> 65 > 0 && w[0] >> 65 == w[1] >> 65);
            }
        }
        assert!(none && empty && many && unordered && tied);
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
