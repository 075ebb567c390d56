//! The differential oracle: the benchmark tables and the row-at-a-time
//! reference engine, in one place.
//!
//! The baseline functions here are row-at-a-time replicas of the engine
//! *before* the vectorization pass: per-row [`Value`] boxing, stringly
//! `BTreeMap` join keys, boxed key tuples and `Vec<f64>` staging per
//! group. They serve two purposes: the "before" series in `BENCH_exec.json`
//! ([`crate::exec_bench`] cross-checks `baseline == vectorized` on the
//! full result batch before timing anything), and the semantics
//! reference of the golden and thread-invariance suites
//! (`tests/exec_golden.rs`, `tests/parallel_equiv.rs`).

use std::collections::BTreeMap;

use skadi_arrow::array::{Array, Value};
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::compute::CmpOp;
use skadi_arrow::datatype::DataType;
use skadi_arrow::ipc;
use skadi_arrow::schema::{Field, Schema};
use skadi_dcsim::rng::DetRng;

// ---------------------------------------------------------------------
// Datasets
// ---------------------------------------------------------------------

const KINDS: [&str; 4] = ["click", "view", "scroll", "purchase"];
const COUNTRIES: [&str; 8] = ["DE", "US", "FR", "JP", "BR", "IN", "GB", "KE"];

/// `n` events: `user_id` over `n/10` users, one of four kinds, a float
/// value with ~5% nulls. Deterministic for a given `(n, seed)`.
pub fn events_batch(n: usize, seed: u64) -> RecordBatch {
    let mut rng = DetRng::seed(seed);
    let users = (n / 10).max(1) as u64;
    let mut ids = Vec::with_capacity(n);
    let mut kinds = Vec::with_capacity(n);
    let mut values: Vec<Option<f64>> = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(rng.below(users) as i64);
        kinds.push(*rng.pick(&KINDS));
        values.push((!rng.chance(0.05)).then(|| rng.unit() * 100.0));
    }
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("kind", DataType::Utf8, false),
            Field::new("value", DataType::Float64, true),
        ]),
        vec![
            Array::from_i64(ids),
            Array::from_utf8(&kinds),
            Array::from_opt_f64(values),
        ],
    )
    .expect("events batch")
}

/// Number of distinct string codes in [`coded_events_batch`]: low
/// cardinality relative to the row count, so the dictionary policy
/// (`distinct * 2 <= len`) encodes the key column.
pub const N_CODES: usize = 256;

/// `n` events keyed by a low-cardinality string `code` (zero-padded so
/// lexicographic order equals natural order) plus the usual float value.
/// The dictionary-friendly counterpart of [`events_batch`].
pub fn coded_events_batch(n: usize, seed: u64) -> RecordBatch {
    let mut rng = DetRng::seed(seed);
    let codes: Vec<String> = (0..n)
        .map(|_| format!("c{:04}", rng.below(N_CODES as u64)))
        .collect();
    let code_refs: Vec<&str> = codes.iter().map(String::as_str).collect();
    let values: Vec<f64> = (0..n).map(|_| rng.unit() * 100.0).collect();
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("code", DataType::Utf8, false),
            Field::new("value", DataType::Float64, false),
        ]),
        vec![Array::from_utf8(&code_refs), Array::from_f64(values)],
    )
    .expect("coded events batch")
}

/// One row per code `c0000..c{N_CODES-1}` with a region attribute — the
/// dimension side of the dict-keyed join.
pub fn codes_batch(seed: u64) -> RecordBatch {
    let mut rng = DetRng::seed(seed);
    let codes: Vec<String> = (0..N_CODES).map(|i| format!("c{i:04}")).collect();
    let code_refs: Vec<&str> = codes.iter().map(String::as_str).collect();
    let regions: Vec<&str> = (0..N_CODES).map(|_| *rng.pick(&COUNTRIES)).collect();
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("code", DataType::Utf8, false),
            Field::new("region", DataType::Utf8, false),
        ]),
        vec![Array::from_utf8(&code_refs), Array::from_utf8(&regions)],
    )
    .expect("codes batch")
}

/// One row per user id `0..n_users` with a country attribute.
pub fn users_batch(n_users: usize, seed: u64) -> RecordBatch {
    let mut rng = DetRng::seed(seed);
    let countries: Vec<&str> = (0..n_users).map(|_| *rng.pick(&COUNTRIES)).collect();
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("country", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64((0..n_users as i64).collect()),
            Array::from_utf8(&countries),
        ],
    )
    .expect("users batch")
}

/// `n` ids, half of them on 16 hot values out of `users`: the `user_id`
/// column of the end-to-end benchmark's `events` table (1,024 users).
fn hot_key_ids(n: usize, users: u64, rng: &mut DetRng) -> Vec<i64> {
    (0..n)
        .map(|_| {
            let users = if rng.chance(0.5) { 16 } else { users };
            rng.below(users) as i64
        })
        .collect()
}

/// The end-to-end benchmark's `join` template at `n` probe rows:
/// `events` (`user_id` over `n / 64` users, half of the rows on 16 hot
/// ones, and a `value`) and `people`, one row per user with a distinct
/// name, in seeded order. Every event meets one person, so the join
/// repeats each name ~64 times.
pub fn join_tables(n: usize, seed: u64) -> (RecordBatch, RecordBatch) {
    let mut rng = DetRng::seed(seed);
    let users = (n / 64).max(16) as u64;
    let ids = hot_key_ids(n, users, &mut rng);
    let values: Vec<f64> = (0..n).map(|_| rng.unit() * 10.0).collect();
    let events = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("value", DataType::Float64, false),
        ]),
        vec![Array::from_i64(ids), Array::from_f64(values)],
    )
    .expect("join events batch");
    let mut order: Vec<u64> = (0..users).collect();
    rng.shuffle(&mut order);
    let names: Vec<String> = order.iter().map(|u| format!("user-{u:06}")).collect();
    let people = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("name", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64((0..users as i64).collect()),
            Array::from_utf8(&names),
        ],
    )
    .expect("people batch");
    (events, people)
}

/// The IPC frame of `n` rows shaped like a `scan` block of the
/// end-to-end benchmark: a hot-key `user_id`, an 8-value
/// dictionary-encoded `kind`, a uniform `Float64` `value` (the
/// incompressible 40 % of the frame).
pub fn sklz_events_frame(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::seed(seed);
    let ids = hot_key_ids(n, 1_024, &mut rng);
    let kinds: Vec<&str> = (0..n).map(|_| *rng.pick(&COUNTRIES)).collect();
    let values: Vec<f64> = (0..n).map(|_| rng.unit() * 10.0).collect();
    let batch = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("kind", DataType::Utf8, false),
            Field::new("value", DataType::Float64, false),
        ]),
        vec![
            Array::from_i64(ids),
            Array::from_utf8(&kinds),
            Array::from_f64(values),
        ],
    )
    .expect("events frame")
    .dict_encoded();
    assert!(matches!(batch.column(1), Array::DictUtf8(_)));
    ipc::encode(&batch).to_vec()
}

/// The IPC frame of the two `Int64` columns every shard payload carries:
/// an ascending `__rid` and a hot-key `user_id` — matches every few
/// bytes, where the codec's cost is per sequence, not per probe.
pub fn sklz_keys_frame(n: usize, seed: u64) -> Vec<u8> {
    let batch = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("__rid", DataType::Int64, false),
            Field::new("user_id", DataType::Int64, false),
        ]),
        vec![
            Array::from_i64((0..n as i64).collect()),
            Array::from_i64(hot_key_ids(n, 1_024, &mut DetRng::seed(seed))),
        ],
    )
    .expect("keys frame");
    ipc::encode(&batch).to_vec()
}

// ---------------------------------------------------------------------
// Baseline engine (pre-vectorization replica)
// ---------------------------------------------------------------------

fn gather_by_rows(batch: &RecordBatch, rows: &[usize]) -> RecordBatch {
    let columns: Vec<Array> = (0..batch.num_columns())
        .map(|c| {
            let values: Vec<Value> = rows.iter().map(|&r| batch.column(c).value_at(r)).collect();
            Array::from_values(batch.column(c).data_type(), &values).expect("gather")
        })
        .collect();
    RecordBatch::try_new(batch.schema().clone(), columns).expect("gather batch")
}

fn value_cmp(v: &Value, op: CmpOp, rhs: &Value) -> bool {
    // Row-at-a-time comparison over boxed values, numeric via f64.
    let ord = match (v, rhs) {
        (Value::Null, _) | (_, Value::Null) => return false,
        (Value::Str(a), Value::Str(b)) => a.as_str().cmp(b.as_str()),
        (a, b) => {
            let num = |x: &Value| match x {
                Value::I64(i) => Some(*i as f64),
                Value::F64(f) => Some(*f),
                _ => None,
            };
            match (num(a), num(b)) {
                (Some(x), Some(y)) => match x.partial_cmp(&y) {
                    Some(o) => o,
                    None => return false,
                },
                _ => return false,
            }
        }
    };
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

/// Row-at-a-time conjunctive filter: box every cell, keep matching rows.
pub fn baseline_filter(batch: &RecordBatch, conjuncts: &[(&str, CmpOp, Value)]) -> RecordBatch {
    let cols: Vec<usize> = conjuncts
        .iter()
        .map(|(c, _, _)| batch.schema().index_of(c).expect("filter column"))
        .collect();
    let rows: Vec<usize> = (0..batch.num_rows())
        .filter(|&r| {
            conjuncts
                .iter()
                .zip(&cols)
                .all(|((_, op, rhs), &c)| value_cmp(&batch.column(c).value_at(r), *op, rhs))
        })
        .collect();
    gather_by_rows(batch, &rows)
}

/// Stringly hash join: build a `BTreeMap<String, Vec<usize>>` over the
/// rendered right key, probe with rendered left keys (the old engine).
pub fn baseline_join(
    left: &RecordBatch,
    right: &RecordBatch,
    left_key: &str,
    right_key: &str,
) -> RecordBatch {
    let lk = left.schema().index_of(left_key).expect("left key");
    let rk = right.schema().index_of(right_key).expect("right key");

    let mut index: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for r in 0..right.num_rows() {
        let key = right.column(rk).value_at(r);
        if key == Value::Null {
            continue;
        }
        index.entry(key.to_string()).or_default().push(r);
    }
    let mut left_rows: Vec<usize> = Vec::new();
    let mut right_rows: Vec<usize> = Vec::new();
    for l in 0..left.num_rows() {
        let key = left.column(lk).value_at(l);
        if key == Value::Null {
            continue;
        }
        if let Some(matches) = index.get(&key.to_string()) {
            for &r in matches {
                left_rows.push(l);
                right_rows.push(r);
            }
        }
    }

    let mut fields: Vec<Field> = left.schema().fields().to_vec();
    let mut right_cols: Vec<usize> = Vec::new();
    for (i, f) in right.schema().fields().iter().enumerate() {
        if i == rk || fields.iter().any(|lf| lf.name == f.name) {
            continue;
        }
        fields.push(f.clone());
        right_cols.push(i);
    }
    let mut columns: Vec<Array> = Vec::with_capacity(fields.len());
    for c in 0..left.num_columns() {
        let values: Vec<Value> = left_rows
            .iter()
            .map(|&r| left.column(c).value_at(r))
            .collect();
        columns.push(Array::from_values(left.column(c).data_type(), &values).expect("join gather"));
    }
    for &c in &right_cols {
        let values: Vec<Value> = right_rows
            .iter()
            .map(|&r| right.column(c).value_at(r))
            .collect();
        columns
            .push(Array::from_values(right.column(c).data_type(), &values).expect("join gather"));
    }
    RecordBatch::try_new(Schema::new(fields), columns).expect("join batch")
}

/// A group key's value as the oracle compares it: by type and value,
/// NULL apart from every string (`"null"` included) and a float by its
/// bits, so a NaN payload is one group and `-0.0` is not `0.0`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum KeyValue {
    Null,
    Int(i64),
    Float(u64),
    Bool(bool),
    Str(String),
}

impl From<Value> for KeyValue {
    fn from(v: Value) -> KeyValue {
        match v {
            Value::Null => KeyValue::Null,
            Value::I64(x) => KeyValue::Int(x),
            Value::F64(x) => KeyValue::Float(x.to_bits()),
            Value::Bool(x) => KeyValue::Bool(x),
            Value::Str(x) => KeyValue::Str(x),
        }
    }
}

/// The groups of `batch`'s rows under the key columns `cols`: each
/// group's rows ascending, keyed by the boxed tuple of its key values in a
/// `BTreeMap`, then the groups sorted by their first row.
pub fn baseline_groups(batch: &RecordBatch, cols: &[usize]) -> Vec<Vec<usize>> {
    let mut groups: BTreeMap<Vec<KeyValue>, Vec<usize>> = BTreeMap::new();
    for r in 0..batch.num_rows() {
        let key = cols
            .iter()
            .map(|&c| KeyValue::from(batch.column(c).value_at(r)))
            .collect();
        groups.entry(key).or_default().push(r);
    }
    let mut groups: Vec<Vec<usize>> = groups.into_values().collect();
    groups.sort_by_key(|rows| rows[0]);
    groups
}

/// Boxed group-by ([`baseline_groups`]): a `Vec<f64>` per group summed in
/// row order, emitting `group_cols.., sum(val) AS s, count(*) AS n`.
/// Groups come out in order of first appearance, each key column holding
/// its first row's value.
pub fn baseline_group_sum_count(
    batch: &RecordBatch,
    group_cols: &[&str],
    val_col: &str,
) -> RecordBatch {
    let g: Vec<usize> = group_cols
        .iter()
        .map(|c| batch.schema().index_of(c).expect("group column"))
        .collect();
    let v = batch.schema().index_of(val_col).expect("value column");
    let groups = baseline_groups(batch, &g);
    let mut key_vals: Vec<Vec<Value>> = vec![Vec::with_capacity(groups.len()); g.len()];
    let mut sums: Vec<Value> = Vec::with_capacity(groups.len());
    let mut counts: Vec<Value> = Vec::with_capacity(groups.len());
    for rows in &groups {
        for (vals, &c) in key_vals.iter_mut().zip(&g) {
            vals.push(batch.column(c).value_at(rows[0]));
        }
        let nums: Vec<f64> = rows
            .iter()
            .filter_map(|&r| match batch.column(v).value_at(r) {
                Value::I64(x) => Some(x as f64),
                Value::F64(x) => Some(x),
                _ => None,
            })
            .collect();
        sums.push(if nums.is_empty() {
            Value::Null
        } else {
            Value::F64(nums.iter().fold(0.0, |s, x| s + x))
        });
        counts.push(Value::I64(rows.len() as i64));
    }
    let mut fields: Vec<Field> = g.iter().map(|&c| batch.schema().field(c).clone()).collect();
    fields.push(Field::new("s", DataType::Float64, true));
    fields.push(Field::new("n", DataType::Int64, true));
    let mut columns: Vec<Array> = g
        .iter()
        .zip(&key_vals)
        .map(|(&c, vals)| {
            Array::from_values(batch.column(c).data_type(), vals).expect("group keys")
        })
        .collect();
    columns.push(Array::from_values(DataType::Float64, &sums).expect("group sums"));
    columns.push(Array::from_values(DataType::Int64, &counts).expect("group counts"));
    RecordBatch::try_new(Schema::new(fields), columns).expect("group batch")
}

/// Row-at-a-time sort: comparator over boxed values (nulls lowest),
/// then a boxed gather.
pub fn baseline_sort(batch: &RecordBatch, column: &str, descending: bool) -> RecordBatch {
    let c = batch.schema().index_of(column).expect("sort column");
    let col = batch.column(c);
    let mut rows: Vec<usize> = (0..batch.num_rows()).collect();
    let key_ord = |a: usize, b: usize| -> std::cmp::Ordering {
        match (col.value_at(a), col.value_at(b)) {
            (Value::Null, Value::Null) => std::cmp::Ordering::Equal,
            (Value::Null, _) => std::cmp::Ordering::Less,
            (_, Value::Null) => std::cmp::Ordering::Greater,
            (Value::I64(x), Value::I64(y)) => x.cmp(&y),
            (Value::F64(x), Value::F64(y)) => {
                x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
            }
            (Value::Str(x), Value::Str(y)) => x.cmp(&y),
            (Value::Bool(x), Value::Bool(y)) => x.cmp(&y),
            (x, y) => x.to_string().cmp(&y.to_string()),
        }
    };
    rows.sort_by(|&a, &b| {
        let o = key_ord(a, b);
        if descending {
            o.reverse()
        } else {
            o
        }
    });
    gather_by_rows(batch, &rows)
}

/// Baseline TopN: full row-at-a-time sort, then keep the first `n`.
pub fn baseline_topn(batch: &RecordBatch, column: &str, n: usize) -> RecordBatch {
    let sorted = baseline_sort(batch, column, true);
    let keep: Vec<usize> = (0..n.min(sorted.num_rows())).collect();
    gather_by_rows(&sorted, &keep)
}
