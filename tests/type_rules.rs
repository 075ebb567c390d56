//! The planner's three type rules, as a table: every literal kind against
//! every comparison operator, every aggregate function and every pair of
//! join keys, over one small table per column type (nulls in each).
//!
//! A statement the rules accept answers the same from [`MemDb::query`] and
//! from [`Session::sql_distributed`] at parallelism 1 and 4 — the same IPC
//! frame. A statement they refuse fails on both engines with one
//! `SqlError::Plan` text, before any task runs, and over the wire with
//! that text as a `code::SQL` exception. The expectation is written
//! here from the rules themselves, not read from the code under test.

use skadi::arrow::array::Array;
use skadi::arrow::batch::RecordBatch;
use skadi::arrow::datatype::DataType;
use skadi::arrow::ipc;
use skadi::arrow::schema::{Field, Schema};
use skadi::frontends::exec::MemDb;
use skadi::frontends::sql::SqlError;
use skadi::prelude::*;
use skadi::server::{Server, ServerConfig, SessionEnd};
use skadi::wire::codec::WireError;
use skadi::wire::packet::code;
use skadi::wire::Client;

/// One table per column type, named by it: `x` holds the typed values
/// (nulls included), `g` a small Int64 group key.
fn typed_db() -> MemDb {
    let strs = [Some("a"), None, Some("b"), Some("a"), Some(""), Some("c")];
    let columns = [
        (
            "int64",
            Array::from_opt_i64(vec![Some(1), None, Some(2), Some(1), Some(-3), Some(0)]),
        ),
        (
            "float64",
            Array::from_opt_f64(vec![
                Some(1.0),
                Some(2.5),
                None,
                Some(-0.0),
                Some(2.0),
                Some(f64::NAN),
            ]),
        ),
        ("utf8", Array::from_opt_utf8(strs.to_vec())),
        ("dict", Array::from_opt_dict_utf8(strs.to_vec())),
        (
            "bool",
            Array::from_opt_bool(vec![
                Some(true),
                None,
                Some(false),
                Some(true),
                Some(false),
                None,
            ]),
        ),
    ];
    let mut db = MemDb::new();
    for (name, x) in columns {
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("x", x.data_type(), true),
                Field::new("g", DataType::Int64, false),
            ]),
            vec![x, Array::from_i64(vec![0, 1, 0, 1, 2, 2])],
        )
        .unwrap();
        db = db.register(name, batch);
    }
    db
}

const TABLES: [(&str, DataType); 5] = [
    ("int64", DataType::Int64),
    ("float64", DataType::Float64),
    ("utf8", DataType::Utf8),
    ("dict", DataType::DictUtf8),
    ("bool", DataType::Bool),
];

fn numeric(t: DataType) -> bool {
    matches!(t, DataType::Int64 | DataType::Float64)
}

fn textual(t: DataType) -> bool {
    matches!(t, DataType::Utf8 | DataType::DictUtf8)
}

/// Every statement of the table, with whether the rules accept it.
fn statements() -> Vec<(String, bool)> {
    let mut out = Vec::new();
    // A comparison's literal fits its column: numbers take an integer or
    // a float, strings take a string, and nothing fits a Bool.
    let literals = [("1", false), ("2.5", false), ("'a'", true)];
    for (table, t) in TABLES {
        for (lit, is_str) in literals {
            for op in ["=", "!=", "<", "<=", ">", ">="] {
                let fits = if is_str { textual(t) } else { numeric(t) };
                out.push((format!("SELECT * FROM {table} WHERE x {op} {lit}"), fits));
            }
        }
    }
    // `count` takes any column; the others take Int64 or Float64.
    for (table, t) in TABLES {
        for f in ["count", "sum", "min", "max", "avg"] {
            let fits = f == "count" || numeric(t);
            out.push((format!("SELECT {f}(x) AS a FROM {table}"), fits));
            out.push((
                format!("SELECT g, {f}(x) AS a FROM {table} GROUP BY g"),
                fits,
            ));
            // The answer is the select list in its own order, a key it
            // leaves out dropped; ORDER BY names an output column.
            out.push((
                format!("SELECT {f}(x) AS a, g FROM {table} GROUP BY g ORDER BY g"),
                fits,
            ));
            out.push((
                format!("SELECT {f}(x) AS a FROM {table} GROUP BY g ORDER BY a DESC"),
                fits,
            ));
        }
    }
    // Join keys share a logical type, or are Int64 against Float64.
    for (left, l) in TABLES {
        for (right, r) in TABLES {
            let fits = (numeric(l) && numeric(r)) || (textual(l) && textual(r)) || l == r;
            out.push((format!("SELECT * FROM {left} JOIN {right} ON x = x"), fits));
        }
    }
    // An aggregate answers its GROUP BY keys and its aggregates: `*` and a
    // plain column the GROUP BY does not list are refused, whatever the
    // column's type, and a name no table has is an unknown column.
    for (table, _) in TABLES {
        for sql in [
            format!("SELECT x FROM {table} GROUP BY g"),
            format!("SELECT x, count(*) AS n FROM {table} GROUP BY g"),
            format!("SELECT g, x FROM {table} GROUP BY g"),
            format!("SELECT * FROM {table} GROUP BY g"),
            format!("SELECT x, count(x) AS n FROM {table}"),
            format!("SELECT nope, count(*) AS n FROM {table} GROUP BY g"),
            // ORDER BY may name only an output column.
            format!("SELECT count(x) AS n FROM {table} GROUP BY g ORDER BY g"),
            format!("SELECT g FROM {table} ORDER BY x LIMIT 2"),
        ] {
            out.push((sql, false));
        }
    }
    out
}

fn session(parallelism: u32) -> Session {
    Session::builder()
        .topology(presets::small_disagg_cluster())
        .parallelism(parallelism)
        .build()
}

#[test]
fn type_rules_agree_on_every_engine() {
    let db = typed_db();
    let sessions = [session(1), session(4)];
    let (mut accepted, mut rejected) = (0, 0);
    for (sql, fits) in statements() {
        match db.query(&sql) {
            Ok(want) => {
                assert!(fits, "{sql}: accepted, but the rules refuse it");
                let want = ipc::encode(&want);
                for s in &sessions {
                    let run = s
                        .sql_distributed(&db, &sql)
                        .unwrap_or_else(|e| panic!("{sql}: {e}"));
                    assert_eq!(ipc::encode(&run.batch).as_slice(), want.as_slice(), "{sql}");
                }
                accepted += 1;
            }
            Err(SqlError::Plan(text)) => {
                assert!(!fits, "{sql}: refused, but the rules accept it: {text}");
                for s in &sessions {
                    match s.sql_distributed(&db, &sql) {
                        Err(SkadiError::Sql(SqlError::Plan(got))) => assert_eq!(got, text, "{sql}"),
                        other => panic!("{sql}: want the planning error {text:?}, got {other:?}"),
                    }
                }
                rejected += 1;
            }
            Err(e) => panic!("{sql}: not a planning error: {e:?}"),
        }
    }
    // Comparisons 36 + 54, aggregates 52 + 48, joins 9 + 16, aggregate
    // select lists and ORDER BY names 0 + 40.
    assert_eq!((accepted, rejected), (97, 158));
}

/// The texts name what is wrong: the column and its type, the aggregate
/// and its argument, the two key types.
#[test]
fn type_errors_say_what_does_not_fit() {
    let db = typed_db();
    for (sql, text) in [
        (
            "SELECT * FROM utf8 WHERE x > 5",
            "cannot compare utf8 column \"x\" with an integer literal",
        ),
        (
            "SELECT * FROM float64 WHERE x = 'x'",
            "cannot compare float64 column \"x\" with a string literal",
        ),
        (
            "SELECT * FROM bool WHERE x = 1",
            "cannot compare bool column \"x\" with an integer literal",
        ),
        (
            "SELECT min(x) AS lo FROM dict",
            "min(x) takes an int64 or float64 column, not dict<utf8>",
        ),
        (
            "SELECT * FROM utf8 JOIN int64 ON x = x",
            "cannot join utf8 keys with int64 keys",
        ),
        (
            "SELECT x FROM int64 GROUP BY g",
            "column \"x\" is selected but not a GROUP BY key",
        ),
        (
            "SELECT x, count(x) AS n FROM bool",
            "column \"x\" is selected but not a GROUP BY key",
        ),
        (
            "SELECT * FROM utf8 GROUP BY g",
            "SELECT * in an aggregate query: list its GROUP BY keys and aggregates",
        ),
        (
            "SELECT nope, count(*) AS n FROM dict GROUP BY g",
            "unknown column \"nope\"",
        ),
        (
            "SELECT count(x) AS n FROM utf8 GROUP BY g ORDER BY g",
            "ORDER BY column \"g\" is not an output column",
        ),
    ] {
        let want = SqlError::Plan(text.to_string());
        assert_eq!(db.query(sql).unwrap_err(), want, "{sql}");
    }
}

/// Over the wire, on either engine, every refused statement ends its
/// query with a `code::SQL` exception carrying the local engine's text,
/// and the session answers the next statement.
#[test]
fn refused_statements_give_one_text_over_the_wire() {
    let db = typed_db();
    let refused: Vec<(String, String)> = statements()
        .into_iter()
        .filter(|(_, fits)| !fits)
        .map(|(sql, _)| {
            let text = db.query(&sql).unwrap_err().to_string();
            (sql, text)
        })
        .collect();
    for distributed in [false, true] {
        let cfg = ServerConfig {
            distributed,
            ..ServerConfig::default()
        };
        let server = Server::new(session(4), typed_db(), cfg);
        let (stream, server_thread) = server.connect();
        let mut client = Client::connect(stream, "type-rules").unwrap();
        for (sql, text) in &refused {
            match client.query(sql) {
                Err(WireError::Server { code: c, message }) => {
                    assert_eq!((c, &message), (code::SQL, text), "{sql} ({distributed})");
                }
                other => panic!("{sql} ({distributed}): want {text:?}, got {other:?}"),
            }
        }
        let ok = client.query("SELECT g, count(x) AS n FROM int64 GROUP BY g");
        assert_eq!(ok.expect("session still usable").batch.num_rows(), 3);
        drop(client);
        assert_eq!(server_thread.join().unwrap(), SessionEnd::CleanClose);
    }
}
