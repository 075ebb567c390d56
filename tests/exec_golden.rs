//! Golden-result equivalence suite for the vectorized SQL engine.
//!
//! The engine's hash-keyed join and group-by replaced a stringly
//! row-at-a-time implementation; these tests pin the tricky corners —
//! nulls in keys, duplicate join keys, mixed int/float comparisons,
//! empty inputs — against hand-computed expected results, and
//! property-test the hash-keyed paths against the naive stringly
//! reference preserved in `skadi_bench::baseline`.

use proptest::prelude::*;

use skadi::arrow::array::{Array, Value};
use skadi::arrow::batch::RecordBatch;
use skadi::arrow::datatype::DataType;
use skadi::arrow::schema::{Field, Schema};
use skadi::frontends::exec::{self, MemDb};
use skadi::frontends::sql::{parse, tokenize};
use skadi_bench::baseline::{baseline_group_sum_count, baseline_join};

fn golden_db() -> MemDb {
    let orders = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("order_id", DataType::Int64, false),
            Field::new("cust", DataType::Int64, true),
            Field::new("amount", DataType::Float64, true),
            Field::new("tag", DataType::Utf8, true),
        ]),
        vec![
            Array::from_i64(vec![1, 2, 3, 4, 5, 6]),
            Array::from_opt_i64(vec![Some(10), Some(20), None, Some(10), Some(30), Some(20)]),
            Array::from_opt_f64(vec![
                Some(5.0),
                Some(2.5),
                Some(9.0),
                None,
                Some(1.0),
                Some(4.0),
            ]),
            Array::from_opt_utf8(vec![Some("a"), Some("b"), Some("a"), None, Some("b"), None]),
        ],
    )
    .unwrap();
    // Duplicate key 10 on the build side multiplies matches; key 99
    // matches nothing; a null key matches nothing.
    let custs = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("cust", DataType::Int64, true),
            Field::new("name", DataType::Utf8, false),
        ]),
        vec![
            Array::from_opt_i64(vec![Some(10), Some(10), Some(20), Some(99), None]),
            Array::from_utf8(&["ten-a", "ten-b", "twenty", "none", "null-key"]),
        ],
    )
    .unwrap();
    // Float keys for the mixed int/float join: 10.0 and 20.5.
    let ratios = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("fkey", DataType::Float64, false),
            Field::new("ratio", DataType::Float64, false),
        ]),
        vec![
            Array::from_f64(vec![10.0, 20.5]),
            Array::from_f64(vec![0.5, 0.25]),
        ],
    )
    .unwrap();
    let empty = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("v", DataType::Float64, true),
        ]),
        vec![Array::from_i64(vec![]), Array::from_opt_f64(vec![])],
    )
    .unwrap();
    MemDb::new()
        .register("orders", orders)
        .register("custs", custs)
        .register("ratios", ratios)
        .register("empty", empty)
}

fn col<'a>(batch: &'a RecordBatch, name: &str) -> &'a Array {
    batch.column_by_name(name).unwrap()
}

#[test]
fn join_null_keys_match_nothing_duplicates_multiply() {
    let out = golden_db()
        .query("SELECT order_id, name FROM orders JOIN custs ON cust = cust ORDER BY order_id")
        .unwrap();
    // Orders with cust=10 (ids 1, 4) match BOTH duplicate build rows;
    // cust=20 (ids 2, 6) match one; cust=NULL (id 3) and cust=30 (id 5)
    // match nothing; build-side NULL and 99 match nothing.
    assert_eq!(out.num_rows(), 6);
    let ids: Vec<Value> = (0..6).map(|r| col(&out, "order_id").value_at(r)).collect();
    assert_eq!(
        ids,
        vec![
            Value::I64(1),
            Value::I64(1),
            Value::I64(2),
            Value::I64(4),
            Value::I64(4),
            Value::I64(6),
        ]
    );
    // Duplicate matches keep build-side row order: ten-a before ten-b.
    assert_eq!(col(&out, "name").value_at(0), Value::Str("ten-a".into()));
    assert_eq!(col(&out, "name").value_at(1), Value::Str("ten-b".into()));
    assert_eq!(col(&out, "name").value_at(2), Value::Str("twenty".into()));
}

#[test]
fn join_mixed_int_float_keys_compare_numerically() {
    let out = golden_db()
        .query("SELECT order_id, ratio FROM orders JOIN ratios ON cust = fkey ORDER BY order_id")
        .unwrap();
    // Int cust=10 joins float fkey=10.0 (orders 1 and 4); 20 vs 20.5
    // does not join.
    assert_eq!(out.num_rows(), 2);
    assert_eq!(col(&out, "order_id").value_at(0), Value::I64(1));
    assert_eq!(col(&out, "order_id").value_at(1), Value::I64(4));
    assert_eq!(col(&out, "ratio").value_at(0), Value::F64(0.5));
}

#[test]
fn group_by_nullable_key_groups_nulls_together() {
    let out = golden_db()
        .query("SELECT tag, count(*) AS n, sum(amount) AS s FROM orders GROUP BY tag")
        .unwrap();
    // Rendered-key order: "a" < "b" < "null".
    assert_eq!(out.num_rows(), 3);
    assert_eq!(col(&out, "tag").value_at(0), Value::Str("a".into()));
    assert_eq!(col(&out, "n").value_at(0), Value::I64(2));
    assert_eq!(col(&out, "s").value_at(0), Value::F64(14.0));
    assert_eq!(col(&out, "tag").value_at(1), Value::Str("b".into()));
    assert_eq!(col(&out, "s").value_at(1), Value::F64(3.5));
    // The two null-tag rows (ids 4, 6) form one group; amount NULL is
    // skipped by sum but counted by count(*).
    assert_eq!(col(&out, "tag").value_at(2), Value::Null);
    assert_eq!(col(&out, "n").value_at(2), Value::I64(2));
    assert_eq!(col(&out, "s").value_at(2), Value::F64(4.0));
}

#[test]
fn int_aggregates_are_int64_typed() {
    let out = golden_db()
        .query(
            "SELECT sum(cust) AS s, min(cust) AS lo, max(cust) AS hi, avg(cust) AS m FROM orders",
        )
        .unwrap();
    assert_eq!(out.schema().field(0).data_type, DataType::Int64);
    assert_eq!(out.schema().field(1).data_type, DataType::Int64);
    assert_eq!(out.schema().field(2).data_type, DataType::Int64);
    assert_eq!(out.schema().field(3).data_type, DataType::Float64);
    assert_eq!(col(&out, "s").value_at(0), Value::I64(90));
    assert_eq!(col(&out, "lo").value_at(0), Value::I64(10));
    assert_eq!(col(&out, "hi").value_at(0), Value::I64(30));
    assert_eq!(col(&out, "m").value_at(0), Value::F64(18.0));
}

#[test]
fn global_aggregate_over_empty_relation_yields_one_row() {
    let db = golden_db();
    for sql in [
        "SELECT count(*) AS n, sum(v) AS s FROM empty",
        "SELECT count(*) AS n, sum(amount) AS s FROM orders WHERE amount > 1000",
    ] {
        let out = db.query(sql).unwrap();
        assert_eq!(out.num_rows(), 1, "{sql}");
        assert_eq!(col(&out, "n").value_at(0), Value::I64(0), "{sql}");
        assert_eq!(col(&out, "s").value_at(0), Value::Null, "{sql}");
    }
    // A grouped aggregate over no rows stays empty.
    let out = db
        .query("SELECT k, count(*) AS n FROM empty GROUP BY k")
        .unwrap();
    assert_eq!(out.num_rows(), 0);
}

#[test]
fn mixed_int_float_comparisons_filter_numerically() {
    let out = golden_db()
        .query("SELECT order_id FROM orders WHERE cust >= 15.5 ORDER BY order_id")
        .unwrap();
    // 20, 30, 20 pass; 10s fail; NULL cust drops.
    assert_eq!(out.num_rows(), 3);
    assert_eq!(out.column(0).value_at(0), Value::I64(2));
    let out = golden_db()
        .query("SELECT order_id FROM orders WHERE amount < 5 AND cust = 20 ORDER BY order_id")
        .unwrap();
    // Fused conjuncts: amount NULL and cust NULL rows drop.
    assert_eq!(out.num_rows(), 2);
    assert_eq!(out.column(0).value_at(0), Value::I64(2));
    assert_eq!(out.column(0).value_at(1), Value::I64(6));
}

#[test]
fn order_by_nullable_column_puts_nulls_first() {
    let out = golden_db()
        .query("SELECT order_id, amount FROM orders ORDER BY amount LIMIT 3")
        .unwrap();
    // NULL amount (id 4) sorts lowest, then 1.0 (id 5), 2.5 (id 2).
    assert_eq!(out.column(0).value_at(0), Value::I64(4));
    assert_eq!(out.column(0).value_at(1), Value::I64(5));
    assert_eq!(out.column(0).value_at(2), Value::I64(2));
}

// ---------------------------------------------------------------------
// Properties: hash-keyed paths vs the naive stringly reference
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hash-keyed group-by produces byte-identical batches to the
    /// stringly BTreeMap reference, for any null/duplicate pattern.
    #[test]
    fn hash_group_by_matches_stringly_reference(
        keys in prop::collection::vec(prop::option::of(-3i64..6), 0..80),
        vals in prop::collection::vec(prop::option::of(-10.0f64..10.0), 0..80),
    ) {
        let n = keys.len().min(vals.len());
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, true),
                Field::new("v", DataType::Float64, true),
            ]),
            vec![
                Array::from_opt_i64(keys[..n].to_vec()),
                Array::from_opt_f64(vals[..n].to_vec()),
            ],
        )
        .unwrap();
        let q = parse(&tokenize(
            "SELECT k, sum(v) AS s, count(*) AS n FROM t GROUP BY k",
        ).unwrap()).unwrap();
        let vectorized = exec::aggregate(&q, &batch).unwrap();
        let reference = baseline_group_sum_count(&batch, "k", "v");
        prop_assert_eq!(vectorized, reference);
    }

    /// Hash join agrees with the stringly BTreeMap reference — same
    /// rows, same order — under nulls and duplicate keys on both sides.
    #[test]
    fn hash_join_matches_stringly_reference(
        lkeys in prop::collection::vec(prop::option::of(0i64..8), 0..60),
        rkeys in prop::collection::vec(prop::option::of(0i64..8), 0..30),
    ) {
        let left = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, true),
                Field::new("lrow", DataType::Int64, false),
            ]),
            vec![
                Array::from_opt_i64(lkeys.clone()),
                Array::from_i64((0..lkeys.len() as i64).collect()),
            ],
        )
        .unwrap();
        let right = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, true),
                Field::new("rrow", DataType::Int64, false),
            ]),
            vec![
                Array::from_opt_i64(rkeys.clone()),
                Array::from_i64((0..rkeys.len() as i64).collect()),
            ],
        )
        .unwrap();
        let vectorized = exec::hash_join(&left, &right, "k", "k").unwrap();
        let reference = baseline_join(&left, &right, "k", "k");
        prop_assert_eq!(vectorized, reference);
    }

    /// Dictionary-encoding the stored tables is observationally
    /// invisible: every query answers identically to the plain-Utf8
    /// tables, for any null pattern and cardinality (including inputs
    /// where the policy declines to encode).
    #[test]
    fn dict_tables_match_plain_tables(
        tags in prop::collection::vec(prop::option::of(0usize..4), 4..80),
        vals in prop::collection::vec(-10.0f64..10.0, 4..80),
    ) {
        let pool = ["alpha", "beta", "gamma", "delta"];
        let n = tags.len().min(vals.len());
        let tag_col: Vec<Option<&str>> =
            tags[..n].iter().map(|t| t.map(|i| pool[i])).collect();
        let facts = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("tag", DataType::Utf8, true),
                Field::new("v", DataType::Float64, false),
            ]),
            vec![
                Array::from_opt_utf8(tag_col),
                Array::from_f64(vals[..n].to_vec()),
            ],
        )
        .unwrap();
        let dims = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("tag", DataType::Utf8, false),
                Field::new("weight", DataType::Int64, false),
            ]),
            vec![Array::from_utf8(&pool), Array::from_i64(vec![1, 2, 3, 4])],
        )
        .unwrap();
        let plain = MemDb::new()
            .register("t", facts.clone())
            .register("d", dims.clone());
        let dict = MemDb::new()
            .register("t", facts.dict_encoded())
            .register("d", dims.dict_encoded());
        for sql in [
            "SELECT tag, v FROM t WHERE tag = 'beta' ORDER BY v",
            "SELECT tag, count(*) AS n, sum(v) AS s FROM t GROUP BY tag",
            "SELECT tag, v FROM t ORDER BY tag LIMIT 5",
            "SELECT weight, v FROM t JOIN d ON tag = tag ORDER BY v",
        ] {
            prop_assert_eq!(
                plain.query(sql).unwrap(),
                dict.query(sql).unwrap(),
                "plain and dict answers diverge for {}",
                sql
            );
        }
    }
}
