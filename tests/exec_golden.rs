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
    // GROUP BY order: the key 9 appears before 10 and 2, and `s` holds the
    // string "null" beside NULL and a value with `\u{0}`.
    let marks = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("s", DataType::Utf8, true),
            Field::new("v", DataType::Float64, false),
        ]),
        vec![
            Array::from_i64(vec![9, 10, 9, 2, 10, 2, 9, 10]),
            Array::from_opt_utf8(vec![
                Some("null"),
                None,
                Some("a\u{0}"),
                None,
                Some("null"),
                Some("a"),
                Some("a\u{0}"),
                None,
            ]),
            Array::from_f64(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
        ],
    )
    .unwrap();
    // A build side for the join goldens: `team` repeats "red" and holds
    // a NULL, and is too distinct to be dictionary-encoded at the scan
    // (3 values over 5 rows), so only a join gathers it as codes; `tag`
    // is also a column of `orders`. `members` matches
    // each `teams` row once, a 1:1 join of equal row counts.
    let teams = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("cust", DataType::Int64, false),
            Field::new("team", DataType::Utf8, true),
            Field::new("tag", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64(vec![10, 20, 30, 40, 50]),
            Array::from_opt_utf8(vec![
                Some("red"),
                None,
                Some("red"),
                Some("blue"),
                Some("green"),
            ]),
            Array::from_utf8(&["x", "y", "x", "z", "w"]),
        ],
    )
    .unwrap();
    let members = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("cust", DataType::Int64, false),
            Field::new("level", DataType::Int64, false),
        ]),
        vec![
            Array::from_i64(vec![50, 40, 30, 20, 10]),
            Array::from_i64(vec![1, 2, 3, 4, 5]),
        ],
    )
    .unwrap();
    MemDb::new()
        .register("orders", orders)
        .register("custs", custs)
        .register("ratios", ratios)
        .register("empty", empty)
        .register("marks", marks)
        .register("teams", teams)
        .register("members", members)
}

fn col<'a>(batch: &'a RecordBatch, name: &str) -> &'a Array {
    batch.column_by_name(name).unwrap()
}

/// Every row of `batch`, as values.
fn rows(batch: &RecordBatch) -> Vec<Vec<Value>> {
    let row = |r| (0..batch.num_columns()).map(move |c| batch.column(c).value_at(r));
    (0..batch.num_rows()).map(|r| row(r).collect()).collect()
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
fn join_that_reads_no_column_keeps_its_rows() {
    // Orders 1, 2, 4, 5 and 6 each match one team; order 3's NULL key
    // matches nothing. Nothing above the join reads a column of it.
    let out = golden_db()
        .query("SELECT count(*) AS n FROM orders JOIN teams ON cust = cust")
        .unwrap();
    assert_eq!(rows(&out), vec![vec![Value::I64(5)]]);
}

#[test]
fn group_by_a_build_side_string_through_expanding_and_1_1_joins() {
    let db = golden_db();
    let row = |team: Option<&str>, n, s: Value| {
        let team = team.map_or(Value::Null, |t| Value::Str(t.into()));
        vec![team, Value::I64(n), s]
    };
    // Expanding: 6 probe rows over 5 build rows, cust 10 twice. Orders 1,
    // 4 (10) and 5 (30) are "red" from two build rows; orders 2 and 6
    // (20) meet the NULL team. Groups in order of first appearance.
    let out = db
        .query(
            "SELECT team, count(*) AS n, sum(amount) AS s FROM orders \
             JOIN teams ON cust = cust GROUP BY team",
        )
        .unwrap();
    let want = vec![
        row(Some("red"), 3, Value::F64(6.0)),
        row(None, 2, Value::F64(6.5)),
    ];
    assert_eq!(rows(&out), want);
    assert_eq!(out.schema().field(0).data_type, DataType::Utf8);
    // 1:1: every member meets one team, in the members' order.
    let out = db
        .query(
            "SELECT team, count(*) AS n, sum(level) AS s FROM members \
             JOIN teams ON cust = cust GROUP BY team",
        )
        .unwrap();
    let want = vec![
        row(Some("green"), 1, Value::I64(1)),
        row(Some("blue"), 1, Value::I64(2)),
        row(Some("red"), 2, Value::I64(8)),
        row(None, 1, Value::I64(4)),
    ];
    assert_eq!(rows(&out), want);
}

#[test]
fn a_left_column_shadows_the_build_column_of_its_name() {
    // `tag` is the orders' column (a, b, NULL, b, NULL), never teams'.
    let out = golden_db()
        .query("SELECT order_id, tag, team FROM orders JOIN teams ON cust = cust ORDER BY order_id")
        .unwrap();
    let s = |v: &str| Value::Str(v.into());
    let want = vec![
        vec![Value::I64(1), s("a"), s("red")],
        vec![Value::I64(2), s("b"), Value::Null],
        vec![Value::I64(4), Value::Null, s("red")],
        vec![Value::I64(5), s("b"), s("red")],
        vec![Value::I64(6), Value::Null, Value::Null],
    ];
    assert_eq!(rows(&out), want);
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
    // First-appearance order: "a" (id 1), "b" (id 2), NULL (id 4).
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
fn group_by_orders_groups_by_first_appearance() {
    let db = golden_db();
    // 9 (rows 0, 2, 6) before 10 (rows 1, 4, 7) before 2 (rows 3, 5): no
    // sorted order, numeric or by rendered text, gives 9, 10, 2.
    let out = db
        .query("SELECT k, count(*) AS n, sum(v) AS t FROM marks GROUP BY k")
        .unwrap();
    let want = [(9, 3, 69.0), (10, 3, 146.0), (2, 2, 40.0)]
        .map(|(k, n, t)| vec![Value::I64(k), Value::I64(n), Value::F64(t)]);
    assert_eq!(rows(&out), want);
    // The string "null" and NULL are two groups, and "a\u{0}" is a key of
    // its own beside "a".
    let out = db
        .query("SELECT s, k, count(*) AS n, sum(v) AS t FROM marks GROUP BY s, k")
        .unwrap();
    let row = |s: Option<&str>, k, n, t| {
        let s = s.map_or(Value::Null, |s| Value::Str(s.into()));
        vec![s, Value::I64(k), Value::I64(n), Value::F64(t)]
    };
    let want = vec![
        row(Some("null"), 9, 1, 1.0),
        row(None, 10, 2, 130.0),
        row(Some("a\u{0}"), 9, 2, 68.0),
        row(None, 2, 1, 8.0),
        row(Some("null"), 10, 1, 16.0),
        row(Some("a"), 2, 1, 32.0),
    ];
    assert_eq!(rows(&out), want);
}

/// An aggregate answers its select list in that list's order, and a
/// GROUP BY key the list leaves out is not answered; ORDER BY names an
/// output column.
#[test]
fn an_aggregate_answers_its_select_list_in_order() {
    let db = golden_db();
    let names = |b: &RecordBatch| -> Vec<String> {
        b.schema().fields().iter().map(|f| f.name.clone()).collect()
    };
    let out = db
        .query("SELECT count(*) AS n, k FROM marks GROUP BY k")
        .unwrap();
    assert_eq!(names(&out), ["n", "k"]);
    let want = [(3, 9), (3, 10), (2, 2)].map(|(n, k)| vec![Value::I64(n), Value::I64(k)]);
    assert_eq!(rows(&out), want);

    let out = db
        .query("SELECT sum(v) AS t FROM marks GROUP BY k")
        .unwrap();
    assert_eq!(names(&out), ["t"]);
    assert_eq!(rows(&out), [69.0, 146.0, 40.0].map(|t| vec![Value::F64(t)]));

    // Six (s, k) groups, answered by k alone, in first-appearance order.
    let out = db
        .query("SELECT k, count(*) AS n FROM marks GROUP BY s, k")
        .unwrap();
    assert_eq!(names(&out), ["k", "n"]);
    let want = [(9, 1), (10, 2), (9, 2), (2, 1), (10, 1), (2, 1)]
        .map(|(k, n)| vec![Value::I64(k), Value::I64(n)]);
    assert_eq!(rows(&out), want);

    let out = db
        .query("SELECT sum(v) AS t, s FROM marks GROUP BY k, s ORDER BY t DESC LIMIT 2")
        .unwrap();
    assert_eq!(names(&out), ["t", "s"]);
    let want = vec![
        vec![Value::F64(130.0), Value::Null],
        vec![Value::F64(68.0), Value::Str("a\u{0}".into())],
    ];
    assert_eq!(rows(&out), want);

    let err = db
        .query("SELECT sum(v) AS t FROM marks GROUP BY k ORDER BY k")
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "planning error: ORDER BY column \"k\" is not an output column"
    );
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
    /// row-at-a-time `BTreeMap` reference (boxed key tuples, groups in
    /// order of first row), for any null/duplicate pattern.
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
        let reference = baseline_group_sum_count(&batch, &["k"], "v");
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
