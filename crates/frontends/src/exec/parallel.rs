//! The relational kernels: partitioned hash join, partitioned group-by,
//! run-merge sort, conjunct masks and gathers.
//!
//! There is one implementation per operator. Small inputs run it with a
//! single partition and a single morsel — inline on the calling thread,
//! with no partition pass — and large inputs with [`PARTITIONS`]
//! partitions and one pool job per morsel; [`partition_count`] picks
//! between the two from the input's row count alone. The invariant every
//! kernel keeps is that **neither thread count nor partition count changes
//! output bytes**, because all structure derives from the data —
//!
//! * morsel boundaries come from [`pool::morsels`] (fixed row ranges);
//! * join and group-by inputs split by the *top* bits of the folded key
//!   hash (tables bucket by the *low* bits, so partitioning preserves
//!   bucket entropy);
//! * per-partition tables size themselves from exact partition row
//!   counts, so they never rehash ([`GroupTable::rehashes`] proves it);
//! * merges are deterministic: join morsel outputs concatenate in morsel
//!   order (probe order), group partitions merge by sorting `(rendered
//!   key, representative row)` (rendered-key order with first-appearance
//!   ties), and sorted runs merge under a total order (key, then row
//!   index).
//!
//! Every true join match shares the full key hash, so matches land in the
//! probe row's own partition and per-partition chains ascend in global
//! row order: the concatenated morsel outputs are the probe-order pair
//! sequence whatever the partition count. Likewise every group lives
//! wholly inside one partition, so per-group fold order equals global row
//! order and float accumulations stay bit-identical. Only the hash-table
//! counters in [`KernelStats`] depend on the partition count, which is
//! why it stays a pure function of row count.

use std::sync::Arc;

use skadi_arrow::array::{Array, Value};
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::buffer::Bitmap;
use skadi_arrow::compute::{self, CmpOp, SortOrder};
use skadi_arrow::datatype::DataType;
use skadi_arrow::each_variant;
use skadi_arrow::error::ArrowError;
use skadi_arrow::schema::{Field, Schema};

use super::pool::{self, morsels, PARALLEL_MIN_ROWS};
use super::{
    fold_hash, group_key_eq, resolve_agg, wrap, AggKind, JoinKeyRule, KernelStats, EMPTY_SLOT,
};
use crate::sql::ast::Comparison;
use crate::sql::SqlError;

/// Hash partitions of a large join or group-by. Fixed (never derived from
/// thread count); selected by the top `log2(PARTITIONS)` bits of the
/// folded hash.
pub const PARTITIONS: usize = 8;

/// Partitions a join or group-by over `rows` input rows runs with: one
/// below [`PARALLEL_MIN_ROWS`], [`PARTITIONS`] from there up. Partition
/// count never changes a result, but table capacities are sized per
/// partition and show up in profiles (the `EXPLAIN ANALYZE` goldens pin
/// `ht[slots=16]` for small inputs), so the choice is a function of row
/// count and nothing else.
pub(crate) fn partition_count(rows: usize) -> usize {
    if rows >= PARALLEL_MIN_ROWS {
        PARTITIONS
    } else {
        1
    }
}

/// The partition of hash `h` among `parts` (1 or [`PARTITIONS`]).
#[inline]
fn partition_of(h: u64, parts: usize) -> usize {
    (fold_hash(h) >> 61) as usize & (parts - 1)
}

/// Splits rows `0..n` into `parts` ascending row lists by hash prefix,
/// dropping rows that `validity` marks null. A single partition is every
/// kept row in order and never reads `hashes`.
fn partition_rows(
    n: usize,
    hashes: &Arc<Vec<u64>>,
    validity: Option<&Bitmap>,
    parts: usize,
) -> Vec<Vec<u32>> {
    if parts == 1 {
        let rows = (0..n).filter(|&r| validity.is_none_or(|v| v.get(r)));
        return vec![rows.map(|r| r as u32).collect()];
    }
    let ranges = morsels(n);
    let hashes = Arc::clone(hashes);
    let validity = validity.cloned();
    let chunks = pool::global().run_indexed(ranges.len(), move |m| {
        let (lo, hi) = ranges[m];
        let mut out = vec![Vec::new(); parts];
        for r in lo..hi {
            if validity.as_ref().is_none_or(|v| v.get(r)) {
                out[partition_of(hashes[r], parts)].push(r as u32);
            }
        }
        out
    });
    // Concatenating morsel outputs keeps each list ascending.
    let mut part_rows = vec![Vec::new(); parts];
    for chunk in chunks {
        for (p, rows) in chunk.into_iter().enumerate() {
            part_rows[p].extend(rows);
        }
    }
    part_rows
}

/// A linear-probing hash table assigning dense group ids, preallocated
/// from a row-count hint (capacity `next_pow2(rows * 2)`, load factor
/// under 0.5). If the hint was too small it doubles and reinserts,
/// counting each growth in [`GroupTable::rehashes`] — with exact hints,
/// as every kernel here supplies, that counter stays 0.
struct GroupTable {
    slots: Vec<u32>,
    group_hashes: Vec<u64>,
    /// Capacity-growth events (0 when the capacity hint was sufficient).
    rehashes: u64,
}

impl GroupTable {
    fn with_capacity_hint(rows: usize) -> GroupTable {
        let cap = (rows * 2).next_power_of_two().max(16);
        GroupTable {
            slots: vec![EMPTY_SLOT; cap],
            group_hashes: Vec::new(),
            rehashes: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Looks up the group for hash `h`, inserting a fresh id when no
    /// existing group matches. `eq(g)` answers whether group `g`'s key
    /// equals the probed row's; every visit to an occupied non-matching
    /// slot increments `collisions` (hash compared before `eq`). Returns
    /// `(group_id, inserted)`.
    fn find_or_insert(
        &mut self,
        h: u64,
        eq: impl Fn(u32) -> bool,
        collisions: &mut u64,
    ) -> (u32, bool) {
        if (self.group_hashes.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() as u64 - 1;
        let mut b = (fold_hash(h) & mask) as usize;
        loop {
            match self.slots[b] {
                EMPTY_SLOT => {
                    let g = self.group_hashes.len() as u32;
                    self.slots[b] = g;
                    self.group_hashes.push(h);
                    return (g, true);
                }
                g if self.group_hashes[g as usize] == h && eq(g) => return (g, false),
                _ => {
                    *collisions += 1;
                    b = (b + 1) & mask as usize;
                }
            }
        }
    }

    fn grow(&mut self) {
        self.rehashes += 1;
        let cap = self.slots.len() * 2;
        let mask = cap - 1;
        let mut slots = vec![EMPTY_SLOT; cap];
        for (g, &h) in self.group_hashes.iter().enumerate() {
            let mut b = (fold_hash(h) as usize) & mask;
            while slots[b] != EMPTY_SLOT {
                b = (b + 1) & mask;
            }
            slots[b] = g as u32;
        }
        self.slots = slots;
    }
}

/// Fuses a conjunction into one boolean mask (`None` for an empty
/// conjunction, meaning "keep everything"). Each conjunct's comparison
/// mask is an independent column scan, so several of them over a large
/// batch evaluate concurrently; the `AND` combine runs in conjunct order,
/// as do column/operator resolution errors. The pool-or-inline choice
/// keys on data size only and changes no mask byte.
pub(crate) fn conjunct_mask(
    batch: &RecordBatch,
    conjuncts: &[&Comparison],
) -> Result<Option<Array>, SqlError> {
    let mut jobs: Vec<(Array, CmpOp, Value)> = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        jobs.push((
            batch.column_by_name(&c.column).map_err(wrap)?.clone(),
            super::cmp_op(&c.op)?,
            super::literal_value(&c.value),
        ));
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

/// Gathers join output columns (all left columns by `left_rows`, the
/// selected right columns by `right_rows`), one pool job per column when
/// the match set is large.
pub(crate) fn gather_join_columns(
    left: &RecordBatch,
    right: &RecordBatch,
    right_cols: &[usize],
    left_rows: &[usize],
    right_rows: &[usize],
) -> Vec<Array> {
    let pool = pool::global();
    let ncols = left.num_columns() + right_cols.len();
    if pool.threads() == 1 || left_rows.len() < PARALLEL_MIN_ROWS || ncols < 2 {
        let mut columns = Vec::with_capacity(ncols);
        for c in 0..left.num_columns() {
            columns.push(left.column(c).take_rows(left_rows));
        }
        for &c in right_cols {
            columns.push(right.column(c).take_rows(right_rows));
        }
        return columns;
    }
    let jobs: Arc<Vec<(Array, bool)>> = Arc::new(
        (0..left.num_columns())
            .map(|c| (left.column(c).clone(), true))
            .chain(right_cols.iter().map(|&c| (right.column(c).clone(), false)))
            .collect(),
    );
    let lr: Arc<Vec<usize>> = Arc::new(left_rows.to_vec());
    let rr: Arc<Vec<usize>> = Arc::new(right_rows.to_vec());
    let jobs2 = Arc::clone(&jobs);
    pool.run_indexed(jobs.len(), move |i| {
        let (col, is_left) = &jobs2[i];
        col.take_rows(if *is_left { &lr } else { &rr })
    })
}

/// One partition's build side: a chained bucket table over the partition's
/// right rows. Chain links are indices into the partition's row list.
struct BuildPart {
    head: Vec<u32>,
    next: Vec<u32>,
    cap: usize,
}

/// One probe morsel of a join: left rows `rows.0..rows.1` against the
/// build tables.
struct Probe<'a> {
    rows: (usize, usize),
    l_validity: Option<&'a Bitmap>,
    /// Key hashes of the left and the right column.
    lh: &'a [u64],
    rh: &'a [u64],
    tables: &'a [BuildPart],
    part_rows: &'a [Vec<u32>],
}

impl Probe<'_> {
    /// The matched `(left, right)` rows in probe order and the failed
    /// chain visits. `eq` decides a hash-equal candidate pair, so the loop
    /// is compiled once per key comparison — per pair of encodings — and
    /// never dispatches per row.
    fn run(&self, eq: impl Fn(usize, usize) -> bool) -> (Vec<usize>, Vec<usize>, u64) {
        let mut lrows: Vec<usize> = Vec::new();
        let mut rrows: Vec<usize> = Vec::new();
        let mut collisions = 0u64;
        for l in self.rows.0..self.rows.1 {
            if self.l_validity.is_some_and(|v| !v.get(l)) {
                continue;
            }
            let h = self.lh[l];
            let p = partition_of(h, self.tables.len());
            let t = &self.tables[p];
            let mut slot = t.head[(fold_hash(h) & (t.cap as u64 - 1)) as usize];
            while slot != EMPTY_SLOT {
                let li = slot as usize;
                let ri = self.part_rows[p][li] as usize;
                if self.rh[ri] == h && eq(l, ri) {
                    lrows.push(l);
                    rrows.push(ri);
                } else {
                    collisions += 1;
                }
                slot = t.next[li];
            }
        }
        (lrows, rrows, collisions)
    }
}

/// The hash-join core: matching `(left_row, right_row)` index pairs in
/// probe order — left rows ascending, each one's matches in ascending
/// right-row order. Null keys match nothing.
///
/// Keys bucket by their raw-byte FNV-1a hash ([`compute::hash_key_column`])
/// with the join's [`JoinKeyRule`] deciding each candidate — no per-row key
/// rendering. Build rows split into `parts` partitions by hash prefix;
/// each partition builds a chained table (`head` + `next` arrays, zero
/// allocations per bucket) sized from its exact row count, inserting in
/// reverse so chains ascend; probe morsels walk the chains and their
/// outputs concatenate in morsel order. Table capacities and failed chain
/// visits accumulate into `stats`.
pub(crate) fn join_rows_partitioned(
    lcol: &Array,
    rcol: &Array,
    parts: usize,
    stats: &mut KernelStats,
) -> (Vec<usize>, Vec<usize>) {
    let pool = pool::global();
    let rule = JoinKeyRule::of(lcol.data_type(), rcol.data_type());
    let mixed = rule == JoinKeyRule::Numeric;
    let lh: Arc<Vec<u64>> = Arc::new(compute::hash_key_column(lcol, mixed));
    let rh: Arc<Vec<u64>> = Arc::new(compute::hash_key_column(rcol, mixed));
    let part_rows = Arc::new(partition_rows(rh.len(), &rh, rcol.validity(), parts));

    let pr2 = Arc::clone(&part_rows);
    let rh2 = Arc::clone(&rh);
    let tables: Arc<Vec<BuildPart>> = Arc::new(pool.run_indexed(parts, move |p| {
        let rows = &pr2[p];
        let cap = (rows.len() * 2).next_power_of_two().max(16);
        let mask = cap as u64 - 1;
        let mut head = vec![EMPTY_SLOT; cap];
        let mut next = vec![EMPTY_SLOT; rows.len()];
        for (li, &r) in rows.iter().enumerate().rev() {
            let b = (fold_hash(rh2[r as usize]) & mask) as usize;
            next[li] = head[b];
            head[b] = li as u32;
        }
        BuildPart { head, next, cap }
    }));
    stats.hash_slots += tables.iter().map(|t| t.cap as u64).sum::<u64>();

    let ranges = morsels(lh.len());
    let lcol = lcol.clone();
    let rcol = rcol.clone();
    let chunks = pool.run_indexed(ranges.len(), move |m| {
        let probe = Probe {
            rows: ranges[m],
            l_validity: lcol.validity(),
            lh: &lh,
            rh: &rh,
            tables: &tables,
            part_rows: &part_rows,
        };
        match rule {
            JoinKeyRule::Bytes => each_variant!(&lcol, l => each_variant!(&rcol, r => probe.run(
                |li, ri| matches!((l.key_bytes(li), r.key_bytes(ri)), (Some(x), Some(y)) if x == y)
            ))),
            JoinKeyRule::Numeric => {
                let flip = lcol.data_type() == DataType::Float64;
                let (ints, floats) = if flip { (&rcol, &lcol) } else { (&lcol, &rcol) };
                let ints = ints.as_i64().expect("numeric rule: an Int64 side");
                let floats = floats.as_f64().expect("numeric rule: a Float64 side");
                probe.run(|li, ri| {
                    let (i, f) = if flip { (ri, li) } else { (li, ri) };
                    matches!(
                        (ints.get(i), floats.get(f)),
                        (Some(x), Some(y)) if compute::i64_f64_key_eq(x, y)
                    )
                })
            }
            JoinKeyRule::Never => probe.run(|_, _| false),
        }
    });
    let mut left_rows: Vec<usize> = Vec::new();
    let mut right_rows: Vec<usize> = Vec::new();
    for (lr, rr, c) in chunks {
        left_rows.extend(lr);
        right_rows.extend(rr);
        stats.hash_collisions += c;
    }
    (left_rows, right_rows)
}

/// Dense group ids for one partition's rows.
struct Groups {
    /// `row_group[k]` is the group of the partition's `k`-th row.
    row_group: Vec<u32>,
    /// First row seen per group (global row ids, ascending in group id).
    rep_rows: Vec<usize>,
    /// Rows per group.
    sizes: Vec<i64>,
    cap: usize,
    collisions: u64,
    rehashes: u64,
}

/// Assigns each of the partition's `rows` a dense group id from a
/// `u64`-hash table with typed collision-checked key equality. No group
/// columns means a global aggregate: one group holding every row — even
/// over an empty input, so `count(*)` of nothing is one row holding `0` —
/// and no table.
fn assign_groups(
    input: &RecordBatch,
    group_cols: &[usize],
    hashes: &[u64],
    rows: &[u32],
) -> Groups {
    if group_cols.is_empty() {
        return Groups {
            row_group: vec![0; rows.len()],
            rep_rows: vec![0],
            sizes: vec![rows.len() as i64],
            cap: 0,
            collisions: 0,
            rehashes: 0,
        };
    }
    let mut table = GroupTable::with_capacity_hint(rows.len());
    let mut g = Groups {
        row_group: Vec::with_capacity(rows.len()),
        rep_rows: Vec::new(),
        sizes: Vec::new(),
        cap: table.capacity(),
        collisions: 0,
        rehashes: 0,
    };
    for &r in rows {
        let r = r as usize;
        let (id, inserted) = table.find_or_insert(
            hashes[r],
            |id| group_key_eq(input, group_cols, g.rep_rows[id as usize], r),
            &mut g.collisions,
        );
        if inserted {
            g.rep_rows.push(r);
            g.sizes.push(1);
        } else {
            g.sizes[id as usize] += 1;
        }
        g.row_group.push(id);
    }
    g.rehashes = table.rehashes;
    g
}

/// One partition's aggregation result, pre-merge.
struct PartAgg {
    groups: Groups,
    /// Rendered group key per group (the output ordering key).
    keys: Vec<String>,
    /// One accumulated column per aggregate, one row per group.
    agg_cols: Vec<Array>,
}

/// Grouped aggregation keyed on raw-byte row hashes; `aggs` is
/// `(func, column, output_name)` triples. Rows split into `parts`
/// partitions by hash prefix; each partition assigns group ids and folds
/// its aggregates independently (a group lives wholly in one partition
/// and folds in global row order, so float sums are bit-identical at any
/// partition count); the merge orders all groups by `(rendered key,
/// first row)` — one rendered string per *group*, not per row. A global
/// aggregate (no group columns) is the one-partition, one-group case.
/// Table capacity, linear-probe steps and the group count accumulate into
/// `stats`.
pub(crate) fn aggregate_partitioned(
    group_cols: &[usize],
    aggs: &[(String, String, String)],
    input: &RecordBatch,
    parts: usize,
    stats: &mut KernelStats,
) -> Result<RecordBatch, SqlError> {
    // A global aggregate is one group: a single partition, nothing to hash.
    let (parts, hashes) = if group_cols.is_empty() {
        (1, Vec::new())
    } else {
        (parts, compute::hash_rows(input, group_cols))
    };
    let hashes = Arc::new(hashes);

    // Output schema: group columns then one column per aggregate.
    let mut fields: Vec<Field> = group_cols
        .iter()
        .map(|&c| input.schema().field(c).clone())
        .collect();
    let mut kinds: Vec<AggKind> = Vec::new();
    for (func, column, name) in aggs {
        let kind = resolve_agg(func, column, input)?;
        fields.push(Field::new(name.clone(), kind.data_type(), true));
        kinds.push(kind);
    }
    let kinds = Arc::new(kinds);

    // Null keys group like any other key, so no row is dropped.
    let part_rows = partition_rows(input.num_rows(), &hashes, None, parts);
    let k2 = Arc::clone(&kinds);
    let gcols: Vec<usize> = group_cols.to_vec();
    let input2 = input.clone();
    let part_aggs: Vec<PartAgg> = pool::global()
        .run_indexed(parts, move |p| {
            let rows = &part_rows[p];
            let groups = assign_groups(&input2, &gcols, &hashes, rows);
            let keys: Vec<String> = groups
                .rep_rows
                .iter()
                .map(|&r| {
                    gcols
                        .iter()
                        .map(|&c| input2.column(c).value_at(r).to_string())
                        .collect::<Vec<_>>()
                        .join("\u{1}")
                })
                .collect();
            let agg_cols = k2
                .iter()
                .map(|kind| accumulate_rows(kind, &input2, rows, &groups))
                .collect::<Result<Vec<Array>, SqlError>>()?;
            Ok(PartAgg {
                groups,
                keys,
                agg_cols,
            })
        })
        .into_iter()
        .collect::<Result<_, SqlError>>()?;

    for p in &part_aggs {
        stats.hash_slots += p.groups.cap as u64;
        stats.hash_collisions += p.groups.collisions;
        stats.rehashes += p.groups.rehashes;
        stats.groups += p.groups.rep_rows.len() as u64;
    }

    // Deterministic merge. All groups in partition order — the order
    // their aggregate columns lay end to end in — sorted by rendered key
    // with first-appearance ties, and first appearance is ascending
    // representative row.
    let keys: Vec<&String> = part_aggs.iter().flat_map(|p| &p.keys).collect();
    let reps: Vec<usize> = part_aggs
        .iter()
        .flat_map(|p| p.groups.rep_rows.iter().copied())
        .collect();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| keys[a].cmp(keys[b]).then(reps[a].cmp(&reps[b])));
    let ordered_reps: Vec<usize> = order.iter().map(|&g| reps[g]).collect();

    let mut columns: Vec<Array> = group_cols
        .iter()
        .map(|&c| input.column(c).take_rows(&ordered_reps))
        .collect();
    for k in 0..kinds.len() {
        let cols: Vec<&Array> = part_aggs.iter().map(|p| &p.agg_cols[k]).collect();
        columns.push(Array::concat(&cols).map_err(wrap)?.take_rows(&order));
    }
    RecordBatch::try_new(Schema::new(fields), columns).map_err(wrap)
}

/// Streams `get(row)` over one partition's rows into one accumulator per
/// group, starting each group from `identity`; groups with no non-null
/// value stay null. `rows` ascends, so every group folds in global row
/// order.
fn fold_rows<T: Copy>(
    rows: &[u32],
    groups: &Groups,
    get: impl Fn(usize) -> Option<T>,
    identity: T,
    mut op: impl FnMut(T, T) -> T,
) -> Vec<Option<T>> {
    let mut acc: Vec<Option<T>> = vec![None; groups.sizes.len()];
    for (k, &r) in rows.iter().enumerate() {
        if let Some(v) = get(r as usize) {
            let g = groups.row_group[k] as usize;
            acc[g] = Some(op(acc[g].unwrap_or(identity), v));
        }
    }
    acc
}

/// Runs one aggregate over one partition's rows in a single
/// column-at-a-time pass. An `Int64` sum that leaves the `i64` range ends
/// the query with an error instead of wrapping.
fn accumulate_rows(
    kind: &AggKind,
    input: &RecordBatch,
    rows: &[u32],
    groups: &Groups,
) -> Result<Array, SqlError> {
    let i64s = |c: usize| input.column(c).as_i64().expect("resolved as Int64");
    let fold_i64 = |c: usize, identity: i64, op: fn(i64, i64) -> i64| {
        let a = i64s(c);
        Array::from_opt_i64(fold_rows(rows, groups, |r| a.get(r), identity, op))
    };
    let fold_f64 = |c: usize, identity: f64, op: fn(f64, f64) -> f64| {
        let a = input.column(c).as_f64().expect("resolved as Float64");
        Array::from_opt_f64(fold_rows(rows, groups, |r| a.get(r), identity, op))
    };
    let counts = |c: usize| {
        let col = input.column(c);
        fold_rows(
            rows,
            groups,
            |r| (!col.is_null(r)).then_some(1),
            0i64,
            |n, one| n + one,
        )
    };
    Ok(match *kind {
        AggKind::CountStar => Array::from_i64(groups.sizes.clone()),
        AggKind::Count(c) => {
            Array::from_i64(counts(c).into_iter().map(|n| n.unwrap_or(0)).collect())
        }
        AggKind::SumI64(c) => {
            let a = i64s(c);
            let mut overflowed = false;
            let sums = fold_rows(
                rows,
                groups,
                |r| a.get(r),
                0,
                |a, b| {
                    a.checked_add(b).unwrap_or_else(|| {
                        overflowed = true;
                        0
                    })
                },
            );
            if overflowed {
                return Err(SqlError::Plan(format!(
                    "execution: sum({}) overflowed Int64",
                    input.schema().field(c).name
                )));
            }
            Array::from_opt_i64(sums)
        }
        AggKind::MinI64(c) => fold_i64(c, i64::MAX, i64::min),
        AggKind::MaxI64(c) => fold_i64(c, i64::MIN, i64::max),
        AggKind::SumF64(c) => fold_f64(c, 0.0, |a, b| a + b),
        AggKind::MinF64(c) => fold_f64(c, f64::INFINITY, f64::min),
        AggKind::MaxF64(c) => fold_f64(c, f64::NEG_INFINITY, f64::max),
        AggKind::Avg(c) => {
            let sums = match input.column(c) {
                Array::Int64(a) => fold_rows(
                    rows,
                    groups,
                    |r| a.get(r).map(|v| v as f64),
                    0.0,
                    |a, b| a + b,
                ),
                Array::Float64(a) => fold_rows(rows, groups, |r| a.get(r), 0.0, |a, b| a + b),
                _ => unreachable!("avg resolved only for numeric columns"),
            };
            Array::from_opt_f64(
                sums.into_iter()
                    .zip(counts(c))
                    .map(|(s, n)| Some(s? / n? as f64))
                    .collect(),
            )
        }
        AggKind::NonNumeric => Array::from_opt_f64(vec![None; groups.sizes.len()]),
    })
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

    #[test]
    fn group_table_grows_and_counts_rehashes() {
        let mut t = GroupTable::with_capacity_hint(0);
        assert_eq!(t.capacity(), 16);
        let mut collisions = 0u64;
        for h in 0..100u64 {
            // All keys distinct: eq by hash identity.
            let (_, inserted) = t.find_or_insert(
                h.wrapping_mul(0x9E3779B97F4A7C15),
                |_| false,
                &mut collisions,
            );
            assert!(inserted);
        }
        assert!(
            t.rehashes >= 4,
            "expected growth events, got {}",
            t.rehashes
        );
        assert!(t.capacity() >= 200);

        // An exact hint never rehashes.
        let mut t = GroupTable::with_capacity_hint(100);
        let mut collisions = 0u64;
        for h in 0..100u64 {
            t.find_or_insert(
                h.wrapping_mul(0x9E3779B97F4A7C15),
                |_| false,
                &mut collisions,
            );
        }
        assert_eq!(t.rehashes, 0);
    }

    #[test]
    fn partitioned_join_matches_bruteforce_and_is_thread_invariant() {
        let _guard = pool::test_guard();
        let n = PARALLEL_MIN_ROWS + 1234;
        let lkeys = pseudo(n, 7, 97);
        let rkeys: Vec<i64> = (0..97).map(|i| (i * 31) % 97).collect();
        let lcol = Array::from_i64(lkeys.clone());
        let rcol = Array::from_i64(rkeys.clone());

        let mut expected: (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        for (l, lk) in lkeys.iter().enumerate() {
            for (r, rk) in rkeys.iter().enumerate() {
                if lk == rk {
                    expected.0.push(l);
                    expected.1.push(r);
                }
            }
        }

        let mut baseline = None;
        for threads in [1, 2, 4] {
            pool::set_global_threads(threads);
            let mut stats = KernelStats::default();
            let got = join_rows_partitioned(&lcol, &rcol, PARTITIONS, &mut stats);
            assert_eq!(got, expected, "threads={threads}");
            assert_eq!(stats.rehashes, 0);
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

    /// Partition count never changes output: the join and group-by
    /// kernels run with 1 and with [`PARTITIONS`] partitions on the same
    /// input, at sizes either side of the row-count gate, over every key
    /// type with null keys on both sides, for a global and a grouped
    /// aggregate of every [`AggKind`], at pool sizes 1 and 4 — and must
    /// produce the same pair sequence and the same encoded batch.
    #[test]
    fn partition_count_never_changes_output() {
        let _guard = pool::test_guard();
        let min = PARALLEL_MIN_ROWS;
        let aggs: Vec<(String, String, String)> = [
            ("count", "*"),
            ("count", "i"),
            ("sum", "i"),
            ("min", "i"),
            ("max", "i"),
            ("sum", "f"),
            ("min", "f"),
            ("max", "f"),
            ("avg", "i"),
            ("avg", "f"),
            ("sum", "s"),
        ]
        .iter()
        .enumerate()
        .map(|(n, (func, col))| (func.to_string(), col.to_string(), format!("a{n}")))
        .collect();
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
            let ints = nullable(21, 5);
            let floats: Vec<Option<f64>> = nullable(23, 6)
                .into_iter()
                .map(|v| v.map(|v| v as f64 / 3.0))
                .collect();
            let strs: Vec<String> = (0..n).map(|r| format!("s{}", r % 3)).collect();
            for kind in ["int", "float", "utf8", "dict", "mixed"] {
                let lcol = key_column(kind, &lks, false);
                let rcol = key_column(kind, &rks, true);
                let input = RecordBatch::try_new(
                    Schema::new(vec![
                        Field::new("k", lcol.data_type(), true),
                        Field::new("i", DataType::Int64, true),
                        Field::new("f", DataType::Float64, true),
                        Field::new("s", DataType::Utf8, false),
                    ]),
                    vec![
                        lcol.clone(),
                        Array::from_opt_i64(ints.clone()),
                        Array::from_opt_f64(floats.clone()),
                        Array::from_utf8(&strs),
                    ],
                )
                .unwrap();
                for threads in [1, 4] {
                    pool::set_global_threads(threads);
                    let at = format!("{kind} keys, {n} rows, {threads} threads");
                    let join = |parts| {
                        join_rows_partitioned(&lcol, &rcol, parts, &mut KernelStats::default())
                    };
                    let pairs = join(1);
                    assert_eq!(pairs, join(PARTITIONS), "join: {at}");
                    assert!(n < 100 || !pairs.0.is_empty(), "join matched nothing: {at}");
                    for group_cols in [&[][..], &[0][..]] {
                        let agg = |parts| {
                            let mut stats = KernelStats::default();
                            let out =
                                aggregate_partitioned(group_cols, &aggs, &input, parts, &mut stats)
                                    .unwrap();
                            assert_eq!(stats.rehashes, 0, "{at}");
                            (skadi_arrow::ipc::encode(&out).to_vec(), stats.groups)
                        };
                        assert_eq!(agg(1), agg(PARTITIONS), "group by {group_cols:?}: {at}");
                    }
                }
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
    /// `Value`s, at 1 and [`PARTITIONS`] partitions and pool sizes 1 and 4.
    /// A bytes-only equality fails it on every cross-type pair whose key
    /// bytes coincide.
    #[test]
    fn join_over_every_encoding_pair_matches_value_level_nested_loop() {
        let _guard = pool::test_guard();
        let cols = edge_key_columns();
        let mut matched = 0;
        for lcol in &cols {
            for rcol in &cols {
                let mut want: (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
                for l in 0..lcol.len() {
                    for r in 0..rcol.len() {
                        if value_key_eq(&lcol.value_at(l), &rcol.value_at(r)) {
                            want.0.push(l);
                            want.1.push(r);
                        }
                    }
                }
                let pair = (lcol.data_type(), rcol.data_type());
                // The fixture reaches every pair of types that can join.
                let joinable = JoinKeyRule::of(pair.0, pair.1) != JoinKeyRule::Never;
                assert_eq!(!want.0.is_empty(), joinable, "{pair:?}");
                matched += want.0.len();
                for threads in [1, 4] {
                    pool::set_global_threads(threads);
                    for parts in [1, PARTITIONS] {
                        let got =
                            join_rows_partitioned(lcol, rcol, parts, &mut KernelStats::default());
                        assert_eq!(got, want, "{pair:?}, {parts} partitions, {threads} threads");
                    }
                }
            }
        }
        // 9 + 11 + 5 + 8 + 8 within one encoding (NaN and every duplicate
        // self-join), 7 + 7 across the string encodings, 5 + 5 across the
        // numeric ones (2^53 + 1 meets no float, -0.0 no integer).
        assert_eq!(matched, 65);
        let (ints, floats) = (&cols[0], &cols[1]);
        let pairs = join_rows_partitioned(ints, floats, 1, &mut KernelStats::default());
        assert_eq!(pairs, (vec![0, 2, 3, 6, 7], vec![0, 4, 5, 4, 9]));
    }

    /// A group-by over two key columns of different encodings, with rows
    /// whose concatenated key bytes — and so row hashes — coincide
    /// (`"ab","c"` / `"a","bc"`) and nulls in either column, against a
    /// `Value`-level count per rendered key.
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
        ];
        let seconds = [
            Some("c"),
            Some("bc"),
            Some("c"),
            Some("c"),
            None,
            Some("c"),
            Some("bc"),
        ];
        let strings = |v: &[Option<&str>]| {
            [
                Array::from_opt_utf8(v.to_vec()),
                Array::from_opt_dict_utf8(v.to_vec()),
            ]
        };
        let ints =
            Array::from_opt_i64([Some(1), Some(1), None, Some(1), Some(2), None, Some(1)].to_vec());
        let mut key_columns: Vec<(Array, Array)> = Vec::new();
        for second in strings(&seconds) {
            for first in strings(&firsts) {
                key_columns.push((first, second.clone()));
            }
            key_columns.push((ints.clone(), second));
        }
        let aggs = vec![("count".to_string(), "*".to_string(), "n".to_string())];
        for (a, b) in key_columns {
            let mut want: std::collections::BTreeMap<String, i64> = Default::default();
            for r in 0..a.len() {
                *want
                    .entry(format!("{}\u{1}{}", a.value_at(r), b.value_at(r)))
                    .or_default() += 1;
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
            for threads in [1, 4] {
                pool::set_global_threads(threads);
                for parts in [1, PARTITIONS] {
                    let mut stats = KernelStats::default();
                    let out =
                        aggregate_partitioned(&[0, 1], &aggs, &input, parts, &mut stats).unwrap();
                    let got: Vec<(String, i64)> = (0..out.num_rows())
                        .map(|r| {
                            let key = format!(
                                "{}\u{1}{}",
                                out.column(0).value_at(r),
                                out.column(1).value_at(r)
                            );
                            (key, out.column(2).as_i64().unwrap().get(r).unwrap())
                        })
                        .collect();
                    let want: Vec<(String, i64)> = want.clone().into_iter().collect();
                    assert_eq!(got, want, "{at}, {parts} partitions, {threads} threads");
                }
            }
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
        let aggs = vec![
            ("sum".to_string(), "v".to_string(), "s".to_string()),
            ("count".to_string(), "*".to_string(), "n".to_string()),
        ];

        let mut by_key: std::collections::BTreeMap<String, (i64, i64, i64)> =
            std::collections::BTreeMap::new();
        for (k, v) in keys.iter().zip(&vals) {
            let e = by_key.entry(k.to_string()).or_insert((*k, 0, 0));
            e.1 += v;
            e.2 += 1;
        }

        for threads in [1, 4] {
            pool::set_global_threads(threads);
            let mut stats = KernelStats::default();
            let out = aggregate_partitioned(&[0], &aggs, &input, PARTITIONS, &mut stats).unwrap();
            assert_eq!(out.num_rows(), by_key.len());
            assert_eq!(stats.groups, by_key.len() as u64);
            assert_eq!(stats.rehashes, 0);
            for (i, (_, &(k, s, c))) in by_key.iter().enumerate() {
                assert_eq!(out.column(0).value_at(i), Value::I64(k), "row {i} key");
                assert_eq!(out.column(1).value_at(i), Value::I64(s), "row {i} sum");
                assert_eq!(out.column(2).value_at(i), Value::I64(c), "row {i} count");
            }
        }
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
