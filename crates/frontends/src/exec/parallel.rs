//! The relational kernels: hash join, group-by, run-merge sort, conjunct
//! masks and gathers.
//!
//! There is one implementation per operator. Small inputs run it as a
//! single morsel, inline on the calling thread, and large inputs with one
//! pool job per morsel. The invariant every kernel keeps is that **thread
//! count changes neither output bytes nor profile counters**, because all
//! structure derives from the data —
//!
//! * morsel boundaries come from [`pool::morsels`] (fixed row ranges);
//! * a join's one table is sized from its build side's exact non-null row
//!   count, so it never rehashes;
//! * merges are deterministic: join morsel outputs concatenate in morsel
//!   order (probe order), and sorted runs merge under a total order (key,
//!   then row index).
//!
//! A join builds one chained table over its right column and probes it
//! morsel by morsel; chains ascend in row order, so the concatenated
//! morsel outputs are the probe-order pair sequence. `exec::join_rows`
//! builds on the smaller side: it runs [`join_pairs`] with the sides
//! reversed when the right side is the larger, and [`probe_order`] puts
//! the pairs back in probe order, so which side was built never shows in
//! a result — only in the join's hash-table counters in [`ShardStats`].
//!
//! A group-by does not split: its group ids come from the key columns'
//! codes ([`compute::group_ids`]) and each aggregate folds in one
//! streamed pass in row order, so float accumulations are bit-identical
//! and the code tables' counters are the same at every thread count.

use std::sync::Arc;

use skadi_arrow::array::{Array, Float64Array, Int64Array, PrimitiveArray, Value};
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::buffer::{Bitmap, Native};
use skadi_arrow::compute::{self, CmpOp, SortOrder};
use skadi_arrow::datatype::DataType;
use skadi_arrow::each_variant;
use skadi_arrow::error::ArrowError;
use skadi_arrow::schema::{Field, Schema};
use skadi_flowgraph::profile::ShardStats;

use super::pool::{self, morsels, PARALLEL_MIN_ROWS};
use super::{aggregate_type, compared_value, fold_hash, wrap};
use super::{JoinKeyRule, EMPTY_SLOT};
use crate::sql::ast::{AggFunc, AggItem, Comparison};
use crate::sql::SqlError;

/// Fuses a conjunction into one boolean mask (`None` for an empty
/// conjunction, meaning "keep everything"). Each conjunct's comparison
/// mask is an independent column scan, so several of them over a large
/// batch evaluate concurrently; the `AND` combine runs in conjunct order,
/// as do column resolution and type errors ([`compared_value`]). The
/// pool-or-inline choice keys on data size only and changes no mask byte.
pub(crate) fn conjunct_mask(
    batch: &RecordBatch,
    conjuncts: &[&Comparison],
) -> Result<Option<Array>, SqlError> {
    let mut jobs: Vec<(Array, CmpOp, Value)> = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        let col = batch.column_by_name(&c.column).map_err(wrap)?;
        jobs.push((col.clone(), c.op, compared_value(c, col.data_type())?));
    }
    let n = jobs.len();
    let eval = move |i: usize| {
        let (col, op, v) = &jobs[i];
        compute::cmp_scalar(col, *op, v)
    };
    let pooled = n >= 2 && batch.num_rows() >= PARALLEL_MIN_ROWS;
    let masks: Vec<Result<Array, ArrowError>> = if pooled {
        pool::global().run_indexed(n, eval)
    } else {
        (0..n).map(eval).collect()
    };
    let mut mask: Option<Array> = None;
    for m in masks {
        let m = m.map_err(wrap)?;
        mask = Some(match mask {
            Some(prev) => compute::and(&prev, &m).map_err(wrap)?,
            None => m,
        });
    }
    Ok(mask)
}

/// [`compute::take_indices`] with the per-column gathers spread across
/// the pool. Small gathers (or single-column batches) stay inline.
pub(crate) fn take_batch(
    batch: &RecordBatch,
    indices: &[usize],
) -> Result<RecordBatch, ArrowError> {
    let pool = pool::global();
    if pool.threads() == 1 || indices.len() < PARALLEL_MIN_ROWS || batch.num_columns() < 2 {
        return compute::take_indices(batch, indices);
    }
    for &i in indices {
        if i >= batch.num_rows() {
            return Err(ArrowError::IndexOutOfBounds {
                index: i,
                len: batch.num_rows(),
            });
        }
    }
    let cols: Arc<Vec<Array>> = Arc::new(batch.columns().to_vec());
    let idx: Arc<Vec<usize>> = Arc::new(indices.to_vec());
    let ncols = cols.len();
    let gathered = pool.run_indexed(ncols, move |c| cols[c].take_rows(&idx));
    RecordBatch::try_new(batch.schema().clone(), gathered)
}

/// A gather of a column's rows by a join's row list.
pub(crate) type Take = fn(&Array, &[u32]) -> Array;

/// One column of a join's output: the column it is gathered from, whether
/// by the build side's rows, and the gather that makes it.
pub(crate) struct JoinColumn {
    pub(crate) source: Array,
    pub(crate) build: bool,
    pub(crate) take: Take,
}

impl JoinColumn {
    fn gather(&self, left_rows: &[u32], right_rows: &[u32]) -> Array {
        let rows = if self.build { right_rows } else { left_rows };
        (self.take)(&self.source, rows)
    }
}

/// Gathers a join's output columns from the matched pairs, one pool job
/// per column when the match set is large.
pub(crate) fn gather_join_columns(
    columns: Vec<JoinColumn>,
    left_rows: &[u32],
    right_rows: &[u32],
) -> Vec<Array> {
    let pool = pool::global();
    if pool.threads() == 1 || left_rows.len() < PARALLEL_MIN_ROWS || columns.len() < 2 {
        let gather = |c: &JoinColumn| c.gather(left_rows, right_rows);
        return columns.iter().map(gather).collect();
    }
    let columns = Arc::new(columns);
    let lr: Arc<Vec<u32>> = Arc::new(left_rows.to_vec());
    let rr: Arc<Vec<u32>> = Arc::new(right_rows.to_vec());
    pool.run_indexed(columns.len(), move |i| columns[i].gather(&lr, &rr))
}

/// A join's key columns with the comparison their [`JoinKeyRule`] makes,
/// the typed sides resolved once, before any row is probed: a pair the
/// rule does not cover is an error here, never a panic mid-probe.
enum Keys {
    /// One logical type on both sides ([`JoinKeyRule::Bytes`]).
    Same(Array, Array),
    /// The `Int64` and the `Float64` side of [`JoinKeyRule::Numeric`], and
    /// whether the `Float64` side is the left one.
    Numeric(Int64Array, Float64Array, bool),
}

impl Keys {
    fn of(lcol: &Array, rcol: &Array) -> Result<Keys, SqlError> {
        if JoinKeyRule::of(lcol.data_type(), rcol.data_type())? == JoinKeyRule::Bytes {
            return Ok(Keys::Same(lcol.clone(), rcol.clone()));
        }
        let flip = lcol.data_type() == DataType::Float64;
        let (ints, floats) = if flip { (rcol, lcol) } else { (lcol, rcol) };
        let (ints, floats) = (ints.as_i64().map_err(wrap)?, floats.as_f64().map_err(wrap)?);
        Ok(Keys::Numeric(ints.clone(), floats.clone(), flip))
    }
}

/// One probe morsel of a join: left rows `rows.0..rows.1` against the
/// build table, a chained bucket table over the right column's non-null
/// rows (`head` per bucket, `next` per right row).
struct Probe<'a> {
    rows: (usize, usize),
    l_validity: Option<&'a Bitmap>,
    /// Key hashes of the left and the right column.
    lh: &'a [u64],
    rh: &'a [u64],
    head: &'a [u32],
    next: &'a [u32],
}

impl Probe<'_> {
    /// Appends the matched `(left, right)` rows, in probe order, to `out`
    /// and returns the failed chain visits. `eq` decides a hash-equal
    /// candidate pair, so the loop is compiled once per key comparison —
    /// per pair of encodings — and never dispatches per row.
    fn run(&self, eq: impl Fn(usize, usize) -> bool, out: &mut (Vec<u32>, Vec<u32>)) -> u64 {
        let mask = self.head.len() as u64 - 1;
        let mut collisions = 0u64;
        for l in self.rows.0..self.rows.1 {
            if self.l_validity.is_some_and(|v| !v.get(l)) {
                continue;
            }
            let h = self.lh[l];
            let mut r = self.head[(fold_hash(h) & mask) as usize];
            while r != EMPTY_SLOT {
                let ri = r as usize;
                if self.rh[ri] == h && eq(l, ri) {
                    out.0.push(l as u32);
                    out.1.push(r);
                } else {
                    collisions += 1;
                }
                r = self.next[ri];
            }
        }
        collisions
    }

    /// [`Probe::run`] under the keys' comparison.
    fn run_keys(&self, keys: &Keys, out: &mut (Vec<u32>, Vec<u32>)) -> u64 {
        match keys {
            // Int64 keys compare as values, not as byte slices.
            Keys::Same(lcol, rcol) => match (lcol.as_i64(), rcol.as_i64()) {
                (Ok(l), Ok(r)) => {
                    let (l, r) = (l.values(), r.values());
                    self.run(|li, ri| l.get::<i64>(li) == r.get::<i64>(ri), out)
                }
                _ => each_variant!(lcol, l => each_variant!(rcol, r => self.run(
                    |li, ri| l.key_bytes(li).is_some_and(|x| r.key_bytes(ri) == Some(x)),
                    out,
                ))),
            },
            Keys::Numeric(ints, floats, flip) => {
                let eq = |li, ri| {
                    let (i, f) = if *flip { (ri, li) } else { (li, ri) };
                    matches!(
                        (ints.get(i), floats.get(f)),
                        (Some(x), Some(y)) if compute::i64_f64_key_eq(x, y)
                    )
                };
                self.run(eq, out)
            }
        }
    }
}

/// Checks that a join side's rows can be numbered in `u32`.
fn u32_rows(rows: usize) -> Result<(), SqlError> {
    if u32::try_from(rows).is_ok() {
        return Ok(());
    }
    let text = format!("execution: a join side of {rows} rows passes the u32 row limit");
    Err(SqlError::Plan(text))
}

/// The hash-join kernel, built on the right column: matching
/// `(left_row, right_row)` index pairs in probe order — left rows
/// ascending, each one's matches in ascending right-row order. Null keys
/// match nothing; keys whose types cannot be compared
/// ([`JoinKeyRule::of`]) are an error.
///
/// Keys bucket by their raw-byte FNV-1a hash ([`compute::hash_key_column`])
/// with the join's [`JoinKeyRule`] deciding each candidate — no per-row key
/// rendering. The right column's non-null rows fill one chained table
/// (`head` + `next` arrays, zero allocations per bucket); probe morsels
/// walk its chains and their outputs concatenate in morsel order. The
/// table's capacity and the failed chain visits accumulate into `stats`.
/// Rows are numbered in `u32`, so a side of more than `u32::MAX` rows is
/// an error.
pub(crate) fn join_pairs(
    lcol: &Array,
    rcol: &Array,
    stats: &mut ShardStats,
) -> Result<(Vec<u32>, Vec<u32>), SqlError> {
    let pool = pool::global();
    let keys = Keys::of(lcol, rcol)?;
    u32_rows(lcol.len())?;
    u32_rows(rcol.len())?;
    let lh = compute::hash_key_column(lcol);
    let rh = compute::hash_key_column(rcol);
    // Sized from the exact non-null row count, so the table never grows,
    // and filled in reverse, so every chain ascends in row order.
    let cap = ((rcol.len() - rcol.null_count()) * 2)
        .next_power_of_two()
        .max(16);
    let mut head = vec![EMPTY_SLOT; cap];
    let mut next = vec![EMPTY_SLOT; rh.len()];
    let r_validity = rcol.validity();
    for r in (0..rh.len()).rev() {
        if r_validity.is_none_or(|v| v.get(r)) {
            let b = (fold_hash(rh[r]) & (cap as u64 - 1)) as usize;
            next[r] = head[b];
            head[b] = r as u32;
        }
    }
    stats.hash_slots += cap as u64;

    // One probe over every row into one buffer sized for a match per
    // probe row, unless the pool has morsels to run side by side.
    let n = lcol.len();
    let l_validity = lcol.validity().cloned();
    let probe = move |rows: (usize, usize), out: &mut (Vec<u32>, Vec<u32>)| {
        let probe = Probe {
            rows,
            l_validity: l_validity.as_ref(),
            lh: &lh,
            rh: &rh,
            head: &head,
            next: &next,
        };
        probe.run_keys(&keys, out)
    };
    let ranges = morsels(n);
    if pool.threads() == 1 || ranges.len() == 1 {
        let mut out = (Vec::with_capacity(n), Vec::with_capacity(n));
        stats.hash_collisions += probe((0, n), &mut out);
        return Ok(out);
    }
    let chunks = pool.run_indexed(ranges.len(), move |m| {
        let mut out = (Vec::new(), Vec::new());
        let collisions = probe(ranges[m], &mut out);
        (out, collisions)
    });
    let total = chunks.iter().map(|(out, _)| out.0.len()).sum();
    let mut pairs = (Vec::with_capacity(total), Vec::with_capacity(total));
    for ((lr, rr), c) in chunks {
        pairs.0.extend(lr);
        pairs.1.extend(rr);
        stats.hash_collisions += c;
    }
    Ok(pairs)
}

/// Puts the pairs of a join run with its sides reversed back in probe
/// order. `swapped` is what [`join_pairs`] returned with the right column
/// probing a table built on the left one: right rows ascending, each
/// one's left matches ascending. One stable counting pass over the left
/// rows (`left_len` of them) gives left rows ascending, each one's
/// matches in ascending right-row order — the pairs of the unswapped join.
pub(crate) fn probe_order(swapped: (Vec<u32>, Vec<u32>), left_len: usize) -> (Vec<u32>, Vec<u32>) {
    let (right_rows, left_rows) = swapped;
    // `at[l]` is where left row `l`'s next pair goes.
    let mut at = vec![0usize; left_len + 1];
    for &l in &left_rows {
        at[l as usize + 1] += 1;
    }
    for l in 1..at.len() {
        at[l] += at[l - 1];
    }
    let mut pairs = (vec![0u32; left_rows.len()], vec![0u32; left_rows.len()]);
    for (&l, &r) in left_rows.iter().zip(&right_rows) {
        let slot = &mut at[l as usize];
        pairs.0[*slot] = l;
        pairs.1[*slot] = r;
        *slot += 1;
    }
    pairs
}

/// The groups of an aggregate's input: every row's group id and how many
/// groups there are.
struct RowGroups<'a> {
    ids: &'a [u32],
    count: usize,
}

impl RowGroups<'_> {
    /// Calls `f(group, value)` for every input row in ascending row order,
    /// `values` yielding each row's value in turn, so every group folds in
    /// global row order.
    #[inline]
    fn each<V>(&self, values: impl Iterator<Item = V>, mut f: impl FnMut(usize, V)) {
        for (&g, v) in self.ids.iter().zip(values) {
            f(g as usize, v);
        }
    }
}

/// Grouped aggregation over group ids read from the key columns' codes
/// ([`compute::group_ids`]: dictionary keys index a direct table, other
/// key columns probe one table typed to the column). Each aggregate folds
/// in one pass over the rows in ascending order into one accumulator per
/// group, so float sums are bit-identical to a row-order fold; groups
/// come out in order of first appearance, each key read at its group's
/// first row. A global aggregate (no group columns) is one group. The
/// code tables' slots, probe steps and doublings and the group count
/// accumulate into `stats`.
pub(crate) fn aggregate_grouped(
    group_cols: &[usize],
    aggs: &[AggItem],
    input: &RecordBatch,
    stats: &mut ShardStats,
) -> Result<RecordBatch, SqlError> {
    // A global aggregate is one group even over no rows, so `count(*)` of
    // nothing is one row holding `0`.
    let groups = if group_cols.is_empty() {
        compute::GroupIds {
            ids: vec![0; input.num_rows()],
            first_rows: vec![0],
            ..Default::default()
        }
    } else {
        compute::group_ids(input, group_cols)
    };
    stats.hash_slots += groups.slots;
    stats.hash_collisions += groups.collisions;
    stats.rehashes += groups.rehashes;
    stats.groups += groups.first_rows.len() as u64;

    // Output schema: group columns then one column per aggregate, typed
    // by the rule the planner checked ([`aggregate_type`]).
    let mut fields: Vec<Field> = group_cols
        .iter()
        .map(|&c| input.schema().field(c).clone())
        .collect();
    let mut resolved: Vec<(AggFunc, Option<usize>)> = Vec::with_capacity(aggs.len());
    for agg in aggs {
        let column = agg.input().map(|c| input.schema().index_of(c));
        let column = column.transpose().map_err(wrap)?;
        let data_type = aggregate_type(agg, column.map(|c| input.column(c).data_type()))?;
        fields.push(Field::new(agg.name.clone(), data_type, true));
        resolved.push((agg.func, column));
    }
    let by_group = RowGroups {
        ids: &groups.ids,
        count: groups.first_rows.len(),
    };
    let agg_cols = resolved
        .iter()
        .map(|&(func, column)| accumulate_rows(func, column, input, &by_group))
        .collect::<Result<Vec<Array>, SqlError>>()?;

    // Groups are numbered by first appearance, so each key column is its
    // first rows in group order and the folds are already in that order.
    let firsts: Vec<usize> = groups.first_rows.iter().map(|&r| r as usize).collect();
    let mut columns: Vec<Array> = group_cols
        .iter()
        .map(|&c| input.column(c).take_rows(&firsts))
        .collect();
    columns.extend(agg_cols);
    RecordBatch::try_new(Schema::new(fields), columns).map_err(wrap)
}

/// Streams a value per row ([`RowGroups::each`]) into one accumulator per
/// group, starting each group from `identity`; groups with no non-null
/// value stay null. Rows ascend, so every group folds in global row order.
fn fold_rows<T: Copy>(
    groups: &RowGroups,
    values: impl Iterator<Item = Option<T>>,
    identity: T,
    mut op: impl FnMut(T, T) -> T,
) -> Vec<Option<T>> {
    let mut acc: Vec<Option<T>> = vec![None; groups.count];
    groups.each(values, |g, v| {
        if let Some(v) = v {
            acc[g] = Some(op(acc[g].unwrap_or(identity), v));
        }
    });
    acc
}

/// Rows per group whose value ([`RowGroups::each`]) is `true`.
fn count_rows(groups: &RowGroups, values: impl Iterator<Item = bool>) -> Vec<i64> {
    let mut counts = vec![0i64; groups.count];
    groups.each(values, |g, counted| counts[g] += counted as i64);
    counts
}

/// Runs one aggregate — `func` over input column `column`, or over no
/// column for `count(*)` — in a single column-at-a-time pass. `Int64` and
/// `Float64` columns fold ([`fold_numbers`]); any other column only
/// reaches here under `count` ([`aggregate_type`] refused the rest). An
/// `Int64` sum that leaves the `i64` range ends the query with an error
/// instead of wrapping.
fn accumulate_rows(
    func: AggFunc,
    column: Option<usize>,
    input: &RecordBatch,
    groups: &RowGroups,
) -> Result<Array, SqlError> {
    let Some(c) = column else {
        return Ok(Array::from_i64(count_rows(groups, std::iter::repeat(true))));
    };
    let folded = match input.column(c) {
        Array::Int64(a) => fold_numbers(func, a, groups),
        Array::Float64(a) => fold_numbers(func, a, groups),
        col => {
            let valid = (0..col.len()).map(|r| !col.is_null(r));
            Some(Array::from_i64(count_rows(groups, valid)))
        }
    };
    folded.ok_or_else(|| {
        let name = &input.schema().field(c).name;
        SqlError::Plan(format!("execution: sum({name}) overflowed Int64"))
    })
}

/// What the folds need of a numeric column's values. Each fold starts a
/// group from an identity and goes on in row order: a sum starts from
/// `T::ZERO` (so the `Float64` sum of `-0.0` alone is `0.0`), and
/// `min`/`max` are `Ord::min`/`max` for `Int64` and `f64::min`/`max` for
/// `Float64` (which pass over a NaN: a group of NaNs alone folds to the
/// identity, `±inf`).
trait Number: Native + PartialOrd
where
    PrimitiveArray<Self>: Into<Array>,
{
    /// The identity of `min`.
    const GREATEST: Self;
    /// The identity of `max`.
    const LEAST: Self;
    /// `a + b`, or `None` if it leaves the type's range.
    fn sum(a: Self, b: Self) -> Option<Self>;
    fn min(a: Self, b: Self) -> Self;
    fn max(a: Self, b: Self) -> Self;
    /// The value as `avg` sums it.
    fn to_f64(self) -> f64;
    /// A folded value as the answer holds it: a `Float64` NaN is the one
    /// quiet NaN, whatever sign and payload the additions left it (which
    /// NaN an addition of two passes on depends on the order the compiler
    /// put its operands in, and ORDER BY tells the signs apart).
    fn canonical(self) -> Self;
}

impl Number for i64 {
    const GREATEST: i64 = i64::MAX;
    const LEAST: i64 = i64::MIN;
    fn sum(a: i64, b: i64) -> Option<i64> {
        a.checked_add(b)
    }
    fn min(a: i64, b: i64) -> i64 {
        Ord::min(a, b)
    }
    fn max(a: i64, b: i64) -> i64 {
        Ord::max(a, b)
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn canonical(self) -> i64 {
        self
    }
}

impl Number for f64 {
    const GREATEST: f64 = f64::INFINITY;
    const LEAST: f64 = f64::NEG_INFINITY;
    fn sum(a: f64, b: f64) -> Option<f64> {
        Some(a + b)
    }
    fn min(a: f64, b: f64) -> f64 {
        f64::min(a, b)
    }
    fn max(a: f64, b: f64) -> f64 {
        f64::max(a, b)
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn canonical(self) -> f64 {
        if self.is_nan() {
            f64::NAN
        } else {
            self
        }
    }
}

/// One aggregate over a numeric column: `sum`, `min` and `max` keep the
/// column's type, `avg` sums in `f64` and divides by the non-null count;
/// a NaN sum or mean is the quiet NaN ([`Number::canonical`]). Groups
/// with no non-null value are null. `None` if a sum overflowed.
fn fold_numbers<T: Number>(
    func: AggFunc,
    a: &PrimitiveArray<T>,
    groups: &RowGroups,
) -> Option<Array>
where
    PrimitiveArray<T>: Into<Array>,
{
    let valid = || a.iter().map(|v| v.is_some());
    match func {
        AggFunc::Count => Some(Array::from_i64(count_rows(groups, valid()))),
        AggFunc::Sum => {
            let mut overflowed = false;
            let add = |x, y| {
                T::sum(x, y).unwrap_or_else(|| {
                    overflowed = true;
                    T::ZERO
                })
            };
            let sums = fold_rows(groups, a.iter(), T::ZERO, add);
            let sums = sums.into_iter().map(|s| s.map(T::canonical));
            (!overflowed).then(|| PrimitiveArray::from_options(sums).into())
        }
        AggFunc::Min => {
            let mins = fold_rows(groups, a.iter(), T::GREATEST, T::min);
            Some(PrimitiveArray::from_options(mins).into())
        }
        AggFunc::Max => {
            let maxes = fold_rows(groups, a.iter(), T::LEAST, T::max);
            Some(PrimitiveArray::from_options(maxes).into())
        }
        AggFunc::Avg => {
            let as_f64 = a.iter().map(|v| v.map(T::to_f64));
            let sums = fold_rows(groups, as_f64, 0.0, |x, y| x + y);
            let counts = count_rows(groups, valid());
            let means = sums.into_iter().zip(counts);
            Some(Array::from_opt_f64(
                means
                    .map(|(s, n)| Some((s? / n as f64).canonical()))
                    .collect(),
            ))
        }
    }
}

/// The sort permutation: per-morsel stable
/// [`compute::SortKeys::sort_range`] runs, then pairwise
/// [`compute::SortKeys::merge`] rounds on the pool (an input of one
/// morsel is one run and no merge). The merge tie-breaks equal keys by row index, a total order — so any
/// merge shape yields the unique permutation of the full stable sort,
/// identical to [`compute::sort_to_indices`].
pub(crate) fn sort_permutation(col: &Array, order: SortOrder) -> Vec<usize> {
    let pool = pool::global();
    let keys = Arc::new(compute::SortKeys::new(col));
    let ranges = morsels(col.len());
    let ranges2 = ranges.clone();
    let k2 = Arc::clone(&keys);
    let mut runs: Vec<Vec<u32>> = pool.run_indexed(ranges.len(), move |m| {
        let (lo, hi) = ranges2[m];
        k2.sort_range(order, lo as u32, hi as u32)
    });
    while runs.len() > 1 {
        let pairs = runs.len() / 2;
        let prev = Arc::new(runs);
        let prev2 = Arc::clone(&prev);
        let k2 = Arc::clone(&keys);
        let mut merged = pool.run_indexed(pairs, move |i| {
            k2.merge(order, &prev2[2 * i], &prev2[2 * i + 1])
        });
        if prev.len() % 2 == 1 {
            merged.push(prev[prev.len() - 1].clone());
        }
        runs = merged;
    }
    runs.pop()
        .map_or_else(Vec::new, |r| r.into_iter().map(|i| i as usize).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random i64s (splitmix-style), no rand dep.
    fn pseudo(n: usize, seed: u64, modulus: i64) -> Vec<i64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as i64).rem_euclid(modulus)
            })
            .collect()
    }

    fn item(func: AggFunc, column: &str, name: &str) -> AggItem {
        AggItem {
            func,
            column: column.into(),
            name: name.into(),
        }
    }

    #[test]
    fn a_join_side_past_u32_rows_is_an_error() {
        assert!(u32_rows(u32::MAX as usize).is_ok());
        let err = u32_rows(u32::MAX as usize + 1).unwrap_err().to_string();
        assert!(err.contains("passes the u32 row limit"), "{err}");
    }

    /// One-column batches of `lcol` and `rcol` joined by
    /// [`crate::exec::join_rows`], the join every engine runs.
    fn join(lcol: &Array, rcol: &Array, stats: &mut ShardStats) -> (Vec<u32>, Vec<u32>) {
        let batch = |col: &Array| {
            let schema = Schema::new(vec![Field::new("k", col.data_type(), true)]);
            RecordBatch::try_new(schema, vec![col.clone()]).unwrap()
        };
        crate::exec::join_rows(&batch(lcol), &batch(rcol), "k", "k", stats).unwrap()
    }

    #[test]
    fn join_matches_bruteforce_and_is_thread_invariant() {
        let _guard = pool::test_guard();
        let n = PARALLEL_MIN_ROWS + 1234;
        let lkeys = pseudo(n, 7, 97);
        let rkeys: Vec<i64> = (0..97).map(|i| (i * 31) % 97).collect();
        let lcol = Array::from_i64(lkeys.clone());
        let rcol = Array::from_i64(rkeys.clone());

        let nested = |left: &[i64], right: &[i64]| {
            let mut pairs: (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
            for (l, lk) in left.iter().enumerate() {
                for (r, rk) in right.iter().enumerate() {
                    if lk == rk {
                        pairs.0.push(l as u32);
                        pairs.1.push(r as u32);
                    }
                }
            }
            pairs
        };
        let expected = nested(&lkeys, &rkeys);
        let swapped = nested(&rkeys, &lkeys);

        let mut baseline = None;
        for threads in [1, 2, 4] {
            pool::set_global_threads(threads);
            let mut stats = ShardStats::default();
            // Either side builds: the 97 rows, whichever side holds them.
            let got = join(&lcol, &rcol, &mut stats);
            assert_eq!(got, expected, "threads={threads}");
            let got = join(&rcol, &lcol, &mut stats);
            assert_eq!(got, swapped, "97 rows on the left, threads={threads}");
            assert_eq!((stats.rehashes, stats.build_swaps), (0, 1));
            let sig = (stats.hash_slots, stats.hash_collisions);
            if let Some(prev) = baseline {
                assert_eq!(sig, prev, "stats must not depend on threads");
            }
            baseline = Some(sig);
        }
    }

    /// Keys of `kind` for row values `ks`: `None` is a null key. Floats
    /// carry NaN and `-0.0` beside `0.0`; the mixed pair is an `Int64`
    /// left against a `Float64` right holding some non-integers.
    fn key_column(kind: &str, ks: &[Option<i64>], right: bool) -> Array {
        let float = |k: i64| match k % 128 {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => k as f64 + 0.5,
            _ => k as f64,
        };
        let strs: Vec<Option<String>> = ks.iter().map(|k| k.map(|k| format!("k{k}"))).collect();
        let str_refs = || strs.iter().map(|s| s.as_deref()).collect::<Vec<_>>();
        match (kind, right) {
            ("int", _) | ("mixed", false) => Array::from_opt_i64(ks.to_vec()),
            ("float", _) | ("mixed", true) => {
                Array::from_opt_f64(ks.iter().map(|k| k.map(float)).collect())
            }
            ("utf8", _) => Array::from_opt_utf8(str_refs()),
            ("dict", _) => Array::from_opt_dict_utf8(str_refs()),
            _ => unreachable!("unknown key kind {kind}"),
        }
    }

    /// Thread count never changes a join's output or counters: the join
    /// runs at pool sizes 1 and 4 on the same input, at sizes either side
    /// of the pool's row gate, over every key type with null keys on both
    /// sides, and must produce the same pair sequence and counters.
    #[test]
    fn thread_count_never_changes_join_output() {
        let _guard = pool::test_guard();
        let min = PARALLEL_MIN_ROWS;
        for n in [0, 1, min - 1, min, min + 1, 2 * min + 5] {
            // ~2 matches per probe row; every 11th / 13th key is null.
            let modulus = (n as i64 / 2).max(1);
            let nullable = |seed: u64, every: usize| -> Vec<Option<i64>> {
                pseudo(n, seed, modulus)
                    .into_iter()
                    .enumerate()
                    .map(|(r, k)| (r % every != 0).then_some(k))
                    .collect()
            };
            let (lks, rks) = (nullable(7, 11), nullable(9, 13));
            for kind in ["int", "float", "utf8", "dict", "mixed"] {
                let lcol = key_column(kind, &lks, false);
                let rcol = key_column(kind, &rks, true);
                let at = format!("{kind} keys, {n} rows");
                let run = |threads| {
                    pool::set_global_threads(threads);
                    let mut stats = ShardStats::default();
                    let pairs = join(&lcol, &rcol, &mut stats);
                    (pairs, stats)
                };
                let (pairs, stats) = run(1);
                assert_eq!((pairs.clone(), stats), run(4), "join: {at}");
                assert!(n < 100 || !pairs.0.is_empty(), "join matched nothing: {at}");
            }
        }
    }

    /// One key column per encoding, each holding its type's edge cases
    /// beside nulls and duplicates, and between them the keys whose bytes
    /// (and so hashes) coincide across types: `0x3837363534333231` is
    /// `"12345678"` as an `Int64` and as a `Float64` bit pattern, and
    /// `true` is the one byte of `"\u{1}"`.
    fn edge_key_columns() -> Vec<Array> {
        let big = 1i64 << 53;
        let digits = 0x3837_3635_3433_3231;
        vec![
            Array::from_opt_i64(vec![
                Some(0),
                None,
                Some(1),
                Some(big),
                Some(big + 1),
                Some(digits),
                Some(1),
                Some(i64::MIN),
            ]),
            Array::from_opt_f64(vec![
                Some(0.0),
                Some(-0.0),
                None,
                Some(f64::NAN),
                Some(1.0),
                Some(big as f64),
                Some(f64::from_bits(digits as u64)),
                Some(f64::NAN),
                Some(1.5),
                Some(i64::MIN as f64),
            ]),
            Array::from_opt_bool(vec![Some(true), None, Some(false), Some(true)]),
            Array::from_opt_utf8(vec![
                Some("12345678"),
                Some("\u{1}"),
                None,
                Some(""),
                Some("a"),
                Some("a"),
                Some("\u{0}"),
            ]),
            Array::from_opt_dict_utf8(vec![
                Some("a"),
                None,
                Some("12345678"),
                Some("\u{1}"),
                Some(""),
                Some("b"),
                Some("a"),
            ]),
        ]
    }

    /// The join rule over `Value`s, sharing nothing with `key_bytes`: one
    /// type compares by value (floats by bit pattern), an integer and a
    /// float exactly, widened to where both fit (`-0.0` is no integer) —
    /// and nothing else matches, nulls included.
    fn value_key_eq(l: &Value, r: &Value) -> bool {
        match (l, r) {
            (Value::I64(a), Value::I64(b)) => a == b,
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::I64(i), Value::F64(f)) | (Value::F64(f), Value::I64(i)) => {
                let whole = f.fract() == 0.0 && f.to_bits() != (-0.0f64).to_bits();
                whole && *f as i128 == *i as i128
            }
            _ => false,
        }
    }

    /// All 5 x 5 pairs of key encodings against a nested loop over
    /// `Value`s, at pool sizes 1 and 4. A bytes-only equality fails it on
    /// every cross-type pair whose key bytes coincide.
    #[test]
    fn join_over_every_encoding_pair_matches_value_level_nested_loop() {
        let _guard = pool::test_guard();
        let cols = edge_key_columns();
        let mut matched = 0;
        for lcol in &cols {
            for rcol in &cols {
                let mut want: (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
                for l in 0..lcol.len() {
                    for r in 0..rcol.len() {
                        if value_key_eq(&lcol.value_at(l), &rcol.value_at(r)) {
                            want.0.push(l as u32);
                            want.1.push(r as u32);
                        }
                    }
                }
                let pair = (lcol.data_type(), rcol.data_type());
                // A pair of types that cannot be compared is refused before
                // any join runs (`tests/type_rules.rs`); the fixture reaches
                // every pair that can join.
                if JoinKeyRule::of(pair.0, pair.1).is_err() {
                    continue;
                }
                assert!(!want.0.is_empty(), "{pair:?}");
                matched += want.0.len();
                for threads in [1, 4] {
                    pool::set_global_threads(threads);
                    let got = join(lcol, rcol, &mut ShardStats::default());
                    assert_eq!(got, want, "{pair:?}, {threads} threads");
                }
            }
        }
        // 9 + 11 + 5 + 8 + 8 within one encoding (NaN and every duplicate
        // self-join), 7 + 7 across the string encodings, 5 + 5 across the
        // numeric ones (2^53 + 1 meets no float, -0.0 no integer).
        assert_eq!(matched, 65);
        let (ints, floats) = (&cols[0], &cols[1]);
        let pairs = join(ints, floats, &mut ShardStats::default());
        assert_eq!(pairs, (vec![0, 2, 3, 6, 7], vec![0, 4, 5, 4, 9]));
    }

    /// A splitmix64 stream for the join property's inputs.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// `n` random keys of `kind`, about one in six null, each drawn from a
    /// handful of values so that keys repeat: for `Int64` the integers
    /// around 2^53 and `i64::MIN`, for `Float64` -0.0, NaN and ±2^53, for
    /// the string encodings the empty string and `"12345678"`, whose bytes
    /// are an `Int64`'s.
    fn random_keys(kind: &str, n: usize, rng: &mut Gen) -> Array {
        let big = 1i64 << 53;
        let ints = [0, 1, -1, 7, big, big + 1, i64::MIN];
        let two_53 = big as f64;
        let floats = [0.0, -0.0, f64::NAN, 1.0, 1.5, 7.0, two_53, -two_53];
        let words = ["", "a", "bb", "12345678", "\u{1}"];
        let len = match kind {
            "int" => ints.len(),
            "float" => floats.len(),
            _ => words.len(),
        };
        let picks: Vec<Option<usize>> = (0..n)
            .map(|_| (rng.below(6) != 0).then(|| rng.below(len as u64) as usize))
            .collect();
        let strs = picks.iter().map(|i| i.map(|i| words[i]));
        match kind {
            "int" => Array::from_opt_i64(picks.iter().map(|i| i.map(|i| ints[i])).collect()),
            "float" => Array::from_opt_f64(picks.iter().map(|i| i.map(|i| floats[i])).collect()),
            "utf8" => Array::from_opt_utf8(strs),
            "dict" => Array::from_opt_dict_utf8(strs),
            _ => unreachable!("unknown key kind {kind}"),
        }
    }

    /// The join property for one seed: random key columns of a pair of
    /// types that join — `Int64` or `Float64` alone, `Int64` against
    /// `Float64` and `Utf8` against `DictUtf8` either way round — in both
    /// size orders, so the join builds on either side, now and then with
    /// a side past the pool's row gate. At pool sizes 1, 2 and 4 the join
    /// must return the pairs of a nested loop over `Value`s, in probe
    /// order: left rows ascending, then right rows ascending.
    fn check_join(seed: u64) {
        const PAIRS: [(&str, &str); 6] = [
            ("int", "int"),
            ("float", "float"),
            ("int", "float"),
            ("float", "int"),
            ("utf8", "dict"),
            ("dict", "utf8"),
        ];
        let mut rng = Gen(seed);
        let (lkind, rkind) = PAIRS[rng.below(PAIRS.len() as u64) as usize];
        let small = rng.below(13) as usize;
        let large = if rng.below(8) == 0 {
            PARALLEL_MIN_ROWS + rng.below(2_000) as usize
        } else {
            2 * small + 1 + rng.below(30) as usize
        };
        let small = small.min(if large >= PARALLEL_MIN_ROWS { 4 } else { small });
        let (nl, nr) = if rng.below(2) == 0 {
            (small, large)
        } else {
            (large, small)
        };
        let lcol = random_keys(lkind, nl, &mut rng);
        let rcol = random_keys(rkind, nr, &mut rng);
        let mut want: (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        for l in 0..nl {
            let lv = lcol.value_at(l);
            for r in 0..nr {
                if value_key_eq(&lv, &rcol.value_at(r)) {
                    want.0.push(l as u32);
                    want.1.push(r as u32);
                }
            }
        }
        let _guard = pool::test_guard();
        for threads in [1, 2, 4] {
            pool::set_global_threads(threads);
            let got = join(&lcol, &rcol, &mut ShardStats::default());
            let at = format!("seed {seed}: {lkind} x {rkind}, {nl} x {nr} rows, {threads} threads");
            assert_eq!(got, want, "{at}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_join_rows_equal_nested_loop_in_probe_order(seed in any::<u64>()) {
            check_join(seed);
        }
    }

    /// A group-by over two key columns of different encodings, with rows
    /// whose concatenated key bytes — and so row hashes — coincide
    /// (`"ab","c"` / `"a","bc"`), nulls in either column and the string
    /// `"null"` beside them, against a count per `Value` pair in order of
    /// first row.
    #[test]
    fn two_column_group_by_across_encodings_matches_value_level_count() {
        let _guard = pool::test_guard();
        let firsts = [
            Some("ab"),
            Some("a"),
            None,
            Some("ab"),
            Some(""),
            None,
            Some("a"),
            Some("null"),
        ];
        let seconds = [
            Some("c"),
            Some("bc"),
            Some("c"),
            Some("c"),
            None,
            Some("c"),
            Some("bc"),
            Some("c"),
        ];
        let strings = |v: &[Option<&str>]| {
            [
                Array::from_opt_utf8(v.to_vec()),
                Array::from_opt_dict_utf8(v.to_vec()),
            ]
        };
        let ints = [
            Some(1),
            Some(1),
            None,
            Some(1),
            Some(2),
            None,
            Some(1),
            Some(10),
        ];
        let ints = Array::from_opt_i64(ints.to_vec());
        let mut key_columns: Vec<(Array, Array)> = Vec::new();
        for second in strings(&seconds) {
            for first in strings(&firsts) {
                key_columns.push((first, second.clone()));
            }
            key_columns.push((ints.clone(), second));
        }
        let aggs = vec![item(AggFunc::Count, "*", "n")];
        for (a, b) in key_columns {
            // No float key: `Value` equality is the key's, NULL included.
            let mut want: Vec<((Value, Value), i64)> = Vec::new();
            for r in 0..a.len() {
                let key = (a.value_at(r), b.value_at(r));
                match want.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, n)) => *n += 1,
                    None => want.push((key, 1)),
                }
            }
            let at = format!("{} x {}", a.data_type(), b.data_type());
            let input = RecordBatch::try_new(
                Schema::new(vec![
                    Field::new("a", a.data_type(), true),
                    Field::new("b", b.data_type(), true),
                ]),
                vec![a, b],
            )
            .unwrap();
            let mut stats = ShardStats::default();
            let out = aggregate_grouped(&[0, 1], &aggs, &input, &mut stats).unwrap();
            let got: Vec<((Value, Value), i64)> = (0..out.num_rows())
                .map(|r| {
                    let key = (out.column(0).value_at(r), out.column(1).value_at(r));
                    (key, out.column(2).as_i64().unwrap().get(r).unwrap())
                })
                .collect();
            assert_eq!(got, want, "{at}");
        }
    }

    #[test]
    fn partitioned_aggregate_matches_direct_computation() {
        let _guard = pool::test_guard();
        let n = PARALLEL_MIN_ROWS + 777;
        let keys = pseudo(n, 3, 37);
        let vals = pseudo(n, 5, 1000);
        let input = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("v", DataType::Int64, false),
            ]),
            vec![Array::from_i64(keys.clone()), Array::from_i64(vals.clone())],
        )
        .unwrap();
        let aggs = vec![item(AggFunc::Sum, "v", "s"), item(AggFunc::Count, "*", "n")];

        // `(key, sum, count)` per key, in order of first row.
        let mut by_key: Vec<(i64, i64, i64)> = Vec::new();
        let mut slot: std::collections::HashMap<i64, usize> = Default::default();
        for (&k, &v) in keys.iter().zip(&vals) {
            let at = *slot.entry(k).or_insert_with(|| {
                by_key.push((k, 0, 0));
                by_key.len() - 1
            });
            by_key[at].1 += v;
            by_key[at].2 += 1;
        }

        for threads in [1, 4] {
            pool::set_global_threads(threads);
            let mut stats = ShardStats::default();
            let out = aggregate_grouped(&[0], &aggs, &input, &mut stats).unwrap();
            assert_eq!(out.num_rows(), by_key.len());
            assert_eq!(stats.groups, by_key.len() as u64);
            // 37 keys: one table grown from 16 to 128 slots.
            assert_eq!((stats.hash_slots, stats.rehashes), (128, 3));
            for (i, &(k, s, c)) in by_key.iter().enumerate() {
                assert_eq!(out.column(0).value_at(i), Value::I64(k), "row {i} key");
                assert_eq!(out.column(1).value_at(i), Value::I64(s), "row {i} sum");
                assert_eq!(out.column(2).value_at(i), Value::I64(c), "row {i} count");
            }
        }

        // The folds' edge cases, pinned.
        // Group 1: `avg` over Int64 converts each value to f64 before
        // summing (2^53 + 1 becomes 2^53, so the mean is 2^52, not
        // 2^52 + 1), and min/max pass over a NaN. Group 2: every value
        // null. Group 3: -0.0 and 0.0, which min/max order as `f64::min`
        // and `f64::max` do. Group 4: a NaN alone folds to the identities.
        // Group 5: a Float64 sum starts from 0.0, so -0.0 alone sums to 0.0.
        let big = (1i64 << 53) + 1;
        let rows: [(i64, Option<i64>, Option<f64>); 9] = [
            (1, Some(big), Some(f64::NAN)),
            (2, None, None),
            (3, Some(-4), Some(-0.0)),
            (4, Some(5), Some(f64::NAN)),
            (1, Some(1), Some(1.5)),
            (5, None, Some(-0.0)),
            (3, Some(7), Some(0.0)),
            (2, None, None),
            (3, None, Some(-0.0)),
        ];
        let input = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("i", DataType::Int64, true),
                Field::new("f", DataType::Float64, true),
            ]),
            vec![
                Array::from_i64(rows.iter().map(|r| r.0).collect()),
                Array::from_opt_i64(rows.iter().map(|r| r.1).collect()),
                Array::from_opt_f64(rows.iter().map(|r| r.2).collect()),
            ],
        )
        .unwrap();
        use AggFunc::*;
        let aggs = [
            item(Count, "*", "n"),
            item(Count, "i", "ni"),
            item(Sum, "i", "si"),
            item(Avg, "i", "ai"),
            item(Min, "f", "lo"),
            item(Max, "f", "hi"),
            item(Sum, "f", "sf"),
            item(Avg, "f", "af"),
        ];
        // Per group, the non-null floats in row order folded as the kernel
        // must: from the identity, by `f64::min` / `f64::max` / `+`.
        let fold = |k: i64, init: f64, op: fn(f64, f64) -> f64| {
            let mut vals = rows
                .iter()
                .filter(|r| r.0 == k)
                .filter_map(|r| r.2)
                .peekable();
            vals.peek()?;
            Some(vals.fold(init, op).to_bits())
        };
        let bits = |a: &Array, r: usize| a.as_f64().unwrap().get(r).map(f64::to_bits);
        let two_52 = (1i64 << 52) as f64;
        let mut stats = ShardStats::default();
        let out = aggregate_grouped(&[0], &aggs, &input, &mut stats).unwrap();
        let col = |name: &str| out.column_by_name(name).unwrap();
        assert_eq!(out.num_rows(), 5);
        assert_eq!(
            col("n").as_i64().unwrap().iter().collect::<Vec<_>>(),
            [2, 2, 3, 1, 1].map(Some)
        );
        assert_eq!(
            col("ni").as_i64().unwrap().iter().collect::<Vec<_>>(),
            [2, 0, 2, 1, 0].map(Some)
        );
        let sums = [Some(big + 1), None, Some(3), Some(5), None];
        assert_eq!(col("si").as_i64().unwrap().iter().collect::<Vec<_>>(), sums);
        let means = [Some(two_52), None, Some(1.5), Some(5.0), None];
        assert_eq!(
            col("ai").as_f64().unwrap().iter().collect::<Vec<_>>(),
            means
        );
        for (r, k) in (1..=5).enumerate() {
            assert_eq!(
                bits(col("lo"), r),
                fold(k, f64::INFINITY, f64::min),
                "min {k}"
            );
            assert_eq!(
                bits(col("hi"), r),
                fold(k, f64::NEG_INFINITY, f64::max),
                "max {k}"
            );
            assert_eq!(bits(col("sf"), r), fold(k, 0.0, |a, b| a + b), "sum {k}");
        }
        // The identities, spelled out where they show.
        assert_eq!(col("lo").value_at(0), Value::F64(1.5));
        assert_eq!(col("lo").value_at(3), Value::F64(f64::INFINITY));
        assert_eq!(col("hi").value_at(3), Value::F64(f64::NEG_INFINITY));
        assert_eq!(bits(col("sf"), 4), Some(0.0f64.to_bits()));
        assert!(col("af").as_f64().unwrap().get(3).unwrap().is_nan());
        for name in ["si", "ai", "lo", "hi", "sf", "af"] {
            assert!(col(name).is_null(1), "{name} of an all-null group");
        }

        // An Int64 sum that leaves the i64 range is an error, not a wrap.
        let input = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("v", DataType::Int64, false),
            ]),
            vec![
                Array::from_i64(vec![1, 2, 1]),
                Array::from_i64(vec![i64::MAX, 1, 1]),
            ],
        )
        .unwrap();
        let sum = [item(Sum, "v", "s")];
        let got = aggregate_grouped(&[0], &sum, &input, &mut ShardStats::default());
        let want = SqlError::Plan("execution: sum(v) overflowed Int64".into());
        assert_eq!(got.unwrap_err(), want);
    }

    #[test]
    fn sort_permutation_matches_serial_kernel() {
        let _guard = pool::test_guard();
        let n = PARALLEL_MIN_ROWS * 2 + 321;
        let vals = pseudo(n, 13, 500);
        let col = Array::from_i64(vals);
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let serial: Vec<usize> = {
                let idx = compute::sort_to_indices(&col, order);
                let a = idx.as_i64().unwrap();
                (0..a.len()).map(|i| a.get(i).unwrap() as usize).collect()
            };
            for threads in [1, 4] {
                pool::set_global_threads(threads);
                assert_eq!(sort_permutation(&col, order), serial);
            }
        }
    }

    #[test]
    fn take_batch_matches_take_indices() {
        let _guard = pool::test_guard();
        let n = PARALLEL_MIN_ROWS + 50;
        let a = pseudo(n, 17, 1_000_000);
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("a", DataType::Int64, false),
                Field::new("b", DataType::Int64, false),
            ]),
            vec![Array::from_i64(a.clone()), Array::from_i64(a)],
        )
        .unwrap();
        let idx: Vec<usize> = (0..n).rev().collect();
        pool::set_global_threads(4);
        let par = take_batch(&batch, &idx).unwrap();
        let ser = compute::take_indices(&batch, &idx).unwrap();
        assert_eq!(par, ser);
        assert!(take_batch(&batch, &[n]).is_err(), "bounds still checked");
    }
}
