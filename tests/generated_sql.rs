//! Generated GROUP BY statements, checked four ways.
//!
//! Seeded tables are built over nullable `Int64`, `Float64`, `Bool`, `Utf8`
//! and dictionary columns: NaN, both zeros and infinities, ±2^53 and
//! 2^53 + 1, values at the `Int64` edge, floats whose sums cancel, and one
//! table with no rows. From their schemas (`MemDb::catalog`) the test
//! generates `SELECT <keys and aggregates> FROM t [WHERE ...] GROUP BY
//! <1-2 keys> [ORDER BY ...] [LIMIT n]`, select lists in any order and
//! leaving keys out, and answers each statement four ways:
//!
//! - an oracle written here over [`Value`]s, from the statement's text: rows
//!   fold in row order and groups come out in order of first appearance.
//!   It shares no code with the kernels or the SQL frontend;
//! - [`MemDb::query`];
//! - [`Session::sql_distributed`] at parallelism 1 and 8;
//! - a [`Server::connect`] client on the local and the distributed engine.
//!
//! A well-typed statement answers the same IPC frame on all of them, or
//! (an `Int64` sum that leaves the range) fails on all of them. The test
//! also generates statements the planner refuses — a literal that does
//! not fit its column (`compared_value`), an aggregate over a column it
//! does not take (`aggregate_type`), join keys of two types
//! (`JoinKeyRule::of`) and an ORDER BY that names no output column — and
//! each must fail as `code::SQL` with `MemDb`'s text on every engine.
//!
//! [`GENERATED_REGRESSIONS`] runs first: statements that once made two
//! engines disagree, with the seed of the tables they ran on.

use skadi::arrow::array::{Array, Value};
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
use skadi_dcsim::rng::DetRng;

/// Statements that made two engines disagree, each with the seed of the
/// tables it ran on. They run before the generated ones; add to the list,
/// never replace it.
const GENERATED_REGRESSIONS: &[(u64, &str)] = &[
    // A group's Float64 sum met a negative NaN (inf + -inf) and the
    // table's positive one: which the addition passed on depended on how
    // the compiler ordered its operands, so the answer's NaN sign did.
    (
        1,
        "SELECT max(g) AS a2, avg(f) AS a1, count(i) AS a0, b FROM t GROUP BY b ORDER BY a2 DESC",
    ),
];

/// Table seeds, and statements generated per seed (each well-typed
/// statement comes with one the planner refuses).
const SEEDS: [u64; 8] = [1, 7, 13, 42, 2023, 0x5ead, 0xdead_beef, 20230622];
const CASES: usize = 50;

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// The column types the generator knows, by logical meaning.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ty {
    Int,
    Float,
    Bool,
    Str,
}

/// `t`'s columns: name, storage type, nullable.
const COLUMNS: [(&str, DataType, bool); 7] = [
    ("g", DataType::Int64, false),
    ("i", DataType::Int64, true),
    ("e", DataType::Int64, true),
    ("f", DataType::Float64, true),
    ("b", DataType::Bool, true),
    ("s", DataType::Utf8, true),
    ("d", DataType::DictUtf8, true),
];

fn ty(t: DataType) -> Ty {
    match t {
        DataType::Int64 => Ty::Int,
        DataType::Float64 => Ty::Float,
        DataType::Bool => Ty::Bool,
        _ => Ty::Str,
    }
}

const P53: i64 = 1 << 53;
const INTS: [i64; 9] = [-2, -1, 0, 1, 2, 3, P53, -P53, P53 + 1];
const EDGES: [i64; 6] = [i64::MAX, i64::MIN, i64::MAX - 1, -1, 0, 1];
const FLOATS: [f64; 14] = [
    f64::NAN,
    -0.0,
    0.0,
    1.5,
    -2.25,
    1e16,
    -1e16,
    1.0,
    0.1,
    0.2,
    -0.3,
    9007199254740992.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
];
const STRS: [&str; 4] = ["a", "b", "", "ab"];
const DICT: [&str; 4] = ["x", "y", "", "xy"];

/// `t` (9-40 seeded rows) and `z` (the same schema, no rows).
fn tables(seed: u64) -> MemDb {
    let mut rng = DetRng::seed(seed);
    let n = 9 + rng.below(32) as usize;
    let opt = |rng: &mut DetRng| !rng.chance(0.15);
    let mut columns = Vec::new();
    for (name, _, _) in COLUMNS {
        let mut rng = rng.fork(name.as_bytes()[0] as u64);
        columns.push(match name {
            "g" => Array::from_i64((0..n).map(|_| rng.below(4) as i64).collect()),
            "i" => Array::from_opt_i64(
                (0..n)
                    .map(|_| opt(&mut rng).then(|| *rng.pick(&INTS)))
                    .collect(),
            ),
            "e" => Array::from_opt_i64(
                (0..n)
                    .map(|_| opt(&mut rng).then(|| *rng.pick(&EDGES)))
                    .collect(),
            ),
            "f" => Array::from_opt_f64(
                (0..n)
                    .map(|_| opt(&mut rng).then(|| *rng.pick(&FLOATS)))
                    .collect(),
            ),
            "b" => Array::from_opt_bool(
                (0..n)
                    .map(|_| opt(&mut rng).then(|| rng.chance(0.5)))
                    .collect(),
            ),
            "s" => Array::from_opt_utf8(
                (0..n)
                    .map(|_| opt(&mut rng).then(|| *rng.pick(&STRS)))
                    .collect::<Vec<_>>(),
            ),
            _ => Array::from_opt_dict_utf8(
                (0..n)
                    .map(|_| opt(&mut rng).then(|| *rng.pick(&DICT)))
                    .collect::<Vec<_>>(),
            ),
        });
    }
    let schema = || {
        let fields = COLUMNS.iter().map(|&(n, t, null)| Field::new(n, t, null));
        Schema::new(fields.collect())
    };
    let t = RecordBatch::try_new(schema(), columns).unwrap();
    let empty = COLUMNS.iter().map(|&(_, t, _)| match t {
        DataType::Int64 => Array::from_opt_i64(vec![]),
        DataType::Float64 => Array::from_opt_f64(vec![]),
        DataType::Bool => Array::from_opt_bool(vec![]),
        DataType::Utf8 => Array::from_opt_utf8(Vec::<Option<&str>>::new()),
        _ => Array::from_opt_dict_utf8(Vec::<Option<&str>>::new()),
    });
    let z = RecordBatch::try_new(schema(), empty.collect()).unwrap();
    MemDb::new().register("t", t).register("z", z)
}

// ---------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------

/// A schema as the generator reads it: name, logical type.
type Cols = Vec<(String, Ty)>;

fn schema_of(db: &MemDb, table: &str) -> Cols {
    let catalog = db.catalog();
    let def = catalog.get(table).expect("generated table");
    let fields = def.schema.fields().iter();
    fields.map(|f| (f.name.clone(), ty(f.data_type))).collect()
}

fn pick_where(rng: &mut DetRng, cols: &Cols, fit: bool) -> String {
    let ops = ["=", "!=", "<", "<=", ">", ">="];
    let ints = [
        "0",
        "1",
        "-1",
        "3",
        "9007199254740993",
        "-9223372036854775808",
    ];
    let floats = ["1.5", "-0.0", "0.0", "9007199254740992.0", "0.1", "-2.25"];
    let strs = ["'a'", "'x'", "''", "'ab'", "'b'"];
    let (name, t) = loop {
        let (name, t) = rng.pick(cols);
        // A Bool column takes no literal: only a refused statement names it.
        if !fit || *t != Ty::Bool {
            break (name, *t);
        }
    };
    let numbers: &[&str] = if rng.chance(0.5) { &ints } else { &floats };
    let number = *rng.pick(numbers);
    let string = *rng.pick(&strs);
    let lit = match (t, fit) {
        (Ty::Str, true) | (Ty::Int | Ty::Float, false) => string,
        (Ty::Bool, _) if rng.chance(0.5) => string,
        _ => number,
    };
    format!("{name} {} {lit}", rng.pick(&ops))
}

/// The ways a generated statement is refused.
#[derive(Debug, Clone, Copy)]
enum Refusal {
    Literal,
    Aggregate,
    JoinKeys,
    OrderBy,
}

/// One statement over `table`: well typed when `refuse` is `None`,
/// otherwise broken the way it says.
fn statement(rng: &mut DetRng, table: &str, cols: &Cols, refuse: Option<Refusal>) -> String {
    let numeric: Vec<&String> = cols
        .iter()
        .filter(|(_, t)| matches!(t, Ty::Int | Ty::Float))
        .map(|(n, _)| n)
        .collect();
    let other: Vec<&String> = cols
        .iter()
        .filter(|(_, t)| matches!(t, Ty::Bool | Ty::Str))
        .map(|(n, _)| n)
        .collect();
    let mut names: Vec<&String> = cols.iter().map(|(n, _)| n).collect();
    rng.shuffle(&mut names);
    let keys: Vec<&String> = names[..1 + rng.below(2) as usize].to_vec();

    let mut aggs = Vec::new();
    for a in 0..1 + rng.below(3) {
        let call = match rng.below(4) {
            0 => "count(*)".to_string(),
            1 => format!("count({})", rng.pick(&names)),
            _ => {
                let f = rng.pick(&["sum", "min", "max", "avg"]);
                format!("{f}({})", rng.pick(&numeric))
            }
        };
        aggs.push(format!("{call} AS a{a}"));
    }
    if matches!(refuse, Some(Refusal::Aggregate)) {
        let f = rng.pick(&["sum", "min", "max", "avg"]);
        let at = rng.below(aggs.len() as u64) as usize;
        aggs[at] = format!("{f}({}) AS a{at}", rng.pick(&other));
    }
    // The select list: any of the keys (possibly none), every aggregate,
    // in any order; never empty.
    let mut select: Vec<String> = keys
        .iter()
        .filter(|_| rng.chance(0.7))
        .map(|k| k.to_string())
        .collect();
    select.extend(aggs.iter().cloned());
    rng.shuffle(&mut select);
    let outputs: Vec<&str> = select
        .iter()
        .map(|s| s.rsplit(' ').next().unwrap_or(s))
        .collect();

    let mut sql = format!("SELECT {} FROM {table}", select.join(", "));
    if matches!(refuse, Some(Refusal::JoinKeys)) {
        // Key types no rule joins: a number or a Bool against a string,
        // or a number against a Bool.
        let (l, r) = loop {
            let (l, lt) = rng.pick(cols);
            let (r, rt) = rng.pick(cols);
            let joins = lt == rt || matches!((lt, rt), (Ty::Int | Ty::Float, Ty::Int | Ty::Float));
            if !joins {
                break (l, r);
            }
        };
        sql += &format!(" JOIN z ON {l} = {r}");
    }
    let conjuncts = rng.below(3) as usize;
    let broken =
        matches!(refuse, Some(Refusal::Literal)).then(|| rng.below(conjuncts.max(1) as u64));
    let mut filter = Vec::new();
    for c in 0..conjuncts.max(broken.is_some() as usize) {
        filter.push(pick_where(rng, cols, broken != Some(c as u64)));
    }
    if !filter.is_empty() {
        sql += &format!(" WHERE {}", filter.join(" AND "));
    }
    let group: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
    sql += &format!(" GROUP BY {}", group.join(", "));
    let order = match refuse {
        Some(Refusal::OrderBy) => {
            // A column of the table that the select list does not answer.
            let unselected: Vec<&&String> = names
                .iter()
                .filter(|n| !outputs.contains(&n.as_str()))
                .collect();
            Some(rng.pick(&unselected).to_string())
        }
        _ => rng.chance(0.5).then(|| rng.pick(&outputs).to_string()),
    };
    if let Some(column) = order {
        let dir = if rng.chance(0.5) { " DESC" } else { "" };
        sql += &format!(" ORDER BY {column}{dir}");
    }
    if rng.chance(0.4) {
        sql += &format!(" LIMIT {}", rng.pick(&[0, 1, 2, 3, 50]));
    }
    sql
}

// ---------------------------------------------------------------------
// The oracle: the statement's text, read by the grammar above
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Item {
    Key(String),
    /// Function, argument (`None` for `count(*)`), output name.
    Agg(String, Option<String>, String),
}

#[derive(Debug)]
struct Stmt {
    items: Vec<Item>,
    table: String,
    join: Option<(String, String)>,
    filter: Vec<(String, String, String)>,
    group_by: Vec<String>,
    order_by: Option<(String, bool)>,
    limit: Option<usize>,
}

/// Reads a statement of the generator's grammar (and only that).
fn read(sql: &str) -> Stmt {
    let rest = sql.strip_prefix("SELECT ").expect("SELECT");
    let (list, rest) = rest.split_once(" FROM ").expect("FROM");
    let items = list
        .split(", ")
        .map(|item| match item.split_once(" AS ") {
            Some((call, name)) => {
                let (func, arg) = call.trim_end_matches(')').split_once('(').expect("call");
                let arg = (arg != "*").then(|| arg.to_string());
                Item::Agg(func.to_string(), arg, name.to_string())
            }
            None => Item::Key(item.to_string()),
        })
        .collect();
    let mut words = rest.split(' ').peekable();
    let table = words.next().expect("table").to_string();
    let mut stmt = Stmt {
        items,
        table,
        join: None,
        filter: Vec::new(),
        group_by: Vec::new(),
        order_by: None,
        limit: None,
    };
    while let Some(word) = words.next() {
        match word {
            "JOIN" => {
                let _right = words.next();
                assert_eq!(words.next(), Some("ON"));
                let l = words.next().expect("left key").to_string();
                assert_eq!(words.next(), Some("="));
                let r = words.next().expect("right key").to_string();
                stmt.join = Some((l, r));
            }
            "WHERE" | "AND" => {
                let column = words.next().expect("column").to_string();
                let op = words.next().expect("operator").to_string();
                let lit = words.next().expect("literal").to_string();
                stmt.filter.push((column, op, lit));
            }
            "GROUP" => {
                assert_eq!(words.next(), Some("BY"));
                for k in words.by_ref() {
                    let more = k.ends_with(',');
                    stmt.group_by.push(k.trim_end_matches(',').to_string());
                    if !more {
                        break;
                    }
                }
            }
            "ORDER" => {
                assert_eq!(words.next(), Some("BY"));
                let column = words.next().expect("column").to_string();
                let desc = words.next_if_eq(&"DESC").is_some();
                stmt.order_by = Some((column, desc));
            }
            "LIMIT" => stmt.limit = Some(words.next().expect("n").parse().expect("n")),
            other => panic!("unexpected {other:?} in {sql:?}"),
        }
    }
    stmt
}

/// What the oracle says a statement answers.
#[derive(Debug)]
enum Verdict {
    /// The planner refuses it, for the reason given.
    Refused(&'static str),
    /// An `Int64` sum of this column leaves the range.
    Overflow(String),
    /// The answer.
    Rows(RecordBatch),
}

/// A literal of the grammar, as a value.
fn literal(text: &str) -> Value {
    if let Some(s) = text.strip_prefix('\'') {
        Value::Str(s.trim_end_matches('\'').to_string())
    } else if text.contains('.') {
        Value::F64(text.parse().expect("float literal"))
    } else {
        Value::I64(text.parse().expect("integer literal"))
    }
}

/// `x op lit`, SQL's way: a NULL never passes, numbers compare as `i64`
/// when both are integers and as `f64` otherwise (IEEE, so NaN passes
/// only `!=`), strings by their bytes.
fn passes(x: &Value, op: &str, lit: &Value) -> bool {
    use std::cmp::Ordering;
    let ord: Option<Ordering> = match (x, lit) {
        (Value::Null, _) => return false,
        (Value::I64(a), Value::I64(b)) => Some(a.cmp(b)),
        (Value::I64(a), Value::F64(b)) => (*a as f64).partial_cmp(b),
        (Value::F64(a), Value::I64(b)) => a.partial_cmp(&(*b as f64)),
        (Value::F64(a), Value::F64(b)) => a.partial_cmp(b),
        (Value::Str(a), Value::Str(b)) => Some(a.as_bytes().cmp(b.as_bytes())),
        other => panic!("ill-typed comparison {other:?}"),
    };
    match (op, ord) {
        ("!=", None) => true,
        (_, None) => false,
        ("=", Some(o)) => o == Ordering::Equal,
        ("!=", Some(o)) => o != Ordering::Equal,
        ("<", Some(o)) => o == Ordering::Less,
        ("<=", Some(o)) => o != Ordering::Greater,
        (">", Some(o)) => o == Ordering::Greater,
        (">=", Some(o)) => o != Ordering::Less,
        _ => panic!("operator {op}"),
    }
}

/// Group keys are equal when their values are; floats by their bits, so
/// NaN is one group and `-0.0` is not `0.0`.
fn same_key(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// One aggregate over a group's rows, in row order. `sum` starts from
/// zero and stays in the column's type (`Int64` overflow ends the
/// statement), `min`/`max` pass over NaN from ±inf and keep the first of
/// equal values, `avg` sums in `f64`, and a NaN sum or mean is the quiet
/// NaN; a group with no non-null value is NULL, except under `count`.
fn fold(func: &str, values: &[Value], column: &str) -> Result<Value, String> {
    let present: Vec<&Value> = values.iter().filter(|v| **v != Value::Null).collect();
    if func == "count" {
        return Ok(Value::I64(present.len() as i64));
    }
    if present.is_empty() {
        return Ok(Value::Null);
    }
    let f64s = || {
        present.iter().map(|v| match v {
            Value::I64(x) => *x as f64,
            Value::F64(x) => *x,
            other => panic!("{func} over {other:?}"),
        })
    };
    Ok(match (func, present[0]) {
        ("sum", Value::I64(_)) => {
            let mut acc = 0i64;
            for v in &present {
                let Value::I64(x) = v else { unreachable!() };
                acc = acc.checked_add(*x).ok_or_else(|| column.to_string())?;
            }
            Value::I64(acc)
        }
        ("sum", _) => Value::F64(quiet(f64s().fold(0.0, |acc, x| acc + x))),
        ("avg", _) => {
            let sum = f64s().fold(0.0, |acc, x| acc + x);
            Value::F64(quiet(sum / present.len() as f64))
        }
        ("min" | "max", Value::I64(_)) => {
            let ints = present.iter().map(|v| match v {
                Value::I64(x) => *x,
                _ => unreachable!(),
            });
            Value::I64(
                if func == "min" {
                    ints.min()
                } else {
                    ints.max()
                }
                .unwrap(),
            )
        }
        ("min" | "max", _) => {
            let mut acc = if func == "min" {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
            for x in f64s().filter(|x| !x.is_nan()) {
                if (func == "min" && x < acc) || (func == "max" && x > acc) {
                    acc = x;
                }
            }
            Value::F64(acc)
        }
        other => panic!("aggregate {other:?}"),
    })
}

/// A NaN sum or mean is the quiet NaN, whatever its sign.
fn quiet(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

/// NULL lowest, floats by `total_cmp`, strings by their bytes.
fn order(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Less,
        (_, Value::Null) => Ordering::Greater,
        (Value::I64(x), Value::I64(y)) => x.cmp(y),
        (Value::F64(x), Value::F64(y)) => x.total_cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.as_bytes().cmp(y.as_bytes()),
        other => panic!("one type per column: {other:?}"),
    }
}

/// A column of values as the engines answer it: `DictUtf8` leaves as
/// `Utf8`.
fn column(t: DataType, values: &[Value]) -> Array {
    let ints = || {
        values.iter().map(|v| match v {
            Value::I64(x) => Some(*x),
            _ => None,
        })
    };
    match t {
        DataType::Int64 => Array::from_opt_i64(ints().collect()),
        DataType::Float64 => Array::from_opt_f64(
            values
                .iter()
                .map(|v| match v {
                    Value::F64(x) => Some(*x),
                    _ => None,
                })
                .collect(),
        ),
        DataType::Bool => Array::from_opt_bool(
            values
                .iter()
                .map(|v| match v {
                    Value::Bool(x) => Some(*x),
                    _ => None,
                })
                .collect(),
        ),
        _ => Array::from_opt_utf8(
            values
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect::<Vec<_>>(),
        ),
    }
}

/// The oracle: the type rules, then the statement over `db`'s rows.
fn oracle(db: &MemDb, sql: &str) -> Verdict {
    let stmt = read(sql);
    let table = db.table(&stmt.table).expect("table");
    let schema = table.schema();
    let field = |name: &str| schema.fields().iter().position(|f| f.name == name);
    let type_of = |name: &str| ty(schema.field(field(name).expect("column")).data_type);
    let numeric = |t: Ty| matches!(t, Ty::Int | Ty::Float);

    // The rules, in the order the planner meets them: WHERE literals,
    // join keys, aggregate arguments, the select list, ORDER BY.
    for (column, _, lit) in &stmt.filter {
        let fits = match (type_of(column), literal(lit)) {
            (t, Value::I64(_) | Value::F64(_)) => numeric(t),
            (t, _) => t == Ty::Str,
        };
        if !fits {
            return Verdict::Refused("literal");
        }
    }
    if let Some((l, r)) = &stmt.join {
        let (l, r) = (type_of(l), type_of(r));
        if l != r && !(numeric(l) && numeric(r)) {
            return Verdict::Refused("join keys");
        }
        panic!("the oracle answers no join: {sql}");
    }
    for item in &stmt.items {
        match item {
            Item::Agg(func, Some(c), _) if func != "count" && !numeric(type_of(c)) => {
                return Verdict::Refused("aggregate");
            }
            Item::Key(k) if !stmt.group_by.contains(k) => return Verdict::Refused("select"),
            _ => {}
        }
    }
    let names: Vec<&str> = stmt
        .items
        .iter()
        .map(|i| match i {
            Item::Key(k) => k.as_str(),
            Item::Agg(_, _, name) => name.as_str(),
        })
        .collect();
    if let Some((c, _)) = &stmt.order_by {
        if !names.contains(&c.as_str()) {
            return Verdict::Refused("order by");
        }
    }

    // Rows, filtered, in row order.
    let rows: Vec<Vec<Value>> = (0..table.num_rows())
        .map(|r| {
            (0..table.num_columns())
                .map(|c| table.column(c).value_at(r))
                .collect()
        })
        .filter(|row: &Vec<Value>| {
            let value = |c: &str| &row[field(c).unwrap()];
            stmt.filter
                .iter()
                .all(|(c, op, lit)| passes(value(c), op, &literal(lit)))
        })
        .collect();
    // Groups by first appearance, each holding its rows in order.
    let keys: Vec<usize> = stmt.group_by.iter().map(|k| field(k).unwrap()).collect();
    let mut groups: Vec<(Vec<Value>, Vec<&Vec<Value>>)> = Vec::new();
    for row in &rows {
        let key: Vec<Value> = keys.iter().map(|&k| row[k].clone()).collect();
        let at = groups
            .iter()
            .position(|(g, _)| g.iter().zip(&key).all(|(a, b)| same_key(a, b)));
        match at {
            Some(at) => groups[at].1.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    let mut out: Vec<Vec<Value>> = Vec::with_capacity(groups.len());
    for (key, members) in &groups {
        let mut row = Vec::new();
        for item in &stmt.items {
            row.push(match item {
                Item::Key(k) => key[stmt.group_by.iter().position(|g| g == k).unwrap()].clone(),
                Item::Agg(_, None, _) => Value::I64(members.len() as i64),
                Item::Agg(func, Some(c), _) => {
                    let at = field(c).unwrap();
                    let values: Vec<Value> = members.iter().map(|r| r[at].clone()).collect();
                    match fold(func, &values, c) {
                        Ok(v) => v,
                        Err(column) => return Verdict::Overflow(column),
                    }
                }
            });
        }
        out.push(row);
    }
    if let Some((c, desc)) = &stmt.order_by {
        let at = names.iter().position(|n| n == c).unwrap();
        out.sort_by(|a, b| {
            let o = order(&a[at], &b[at]);
            if *desc {
                o.reverse()
            } else {
                o
            }
        });
    }
    if let Some(n) = stmt.limit {
        out.truncate(n);
    }

    // The answer's schema: a key keeps its column's type (a dictionary
    // leaves as `Utf8`) and nullability; `count` is `Int64`, `avg`
    // `Float64`, `sum`/`min`/`max` their column's type, all nullable.
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (at, item) in stmt.items.iter().enumerate() {
        let (name, t, nullable) = match item {
            Item::Key(k) => {
                let f = schema.field(field(k).unwrap());
                let t = if f.data_type == DataType::DictUtf8 {
                    DataType::Utf8
                } else {
                    f.data_type
                };
                (k.clone(), t, f.nullable)
            }
            Item::Agg(func, arg, name) => {
                let t = match (func.as_str(), arg) {
                    ("count", _) | (_, None) => DataType::Int64,
                    ("avg", _) => DataType::Float64,
                    (_, Some(c)) => schema.field(field(c).unwrap()).data_type,
                };
                (name.clone(), t, true)
            }
        };
        let values: Vec<Value> = out.iter().map(|r| r[at].clone()).collect();
        fields.push(Field::new(&name, t, nullable));
        columns.push(column(t, &values));
    }
    Verdict::Rows(RecordBatch::try_new(Schema::new(fields), columns).unwrap())
}

// ---------------------------------------------------------------------
// The four ways
// ---------------------------------------------------------------------

fn session(parallelism: u32) -> Session {
    Session::builder()
        .topology(presets::small_disagg_cluster())
        .parallelism(parallelism)
        .build()
}

/// The engines a statement runs on for one seed's tables: the two
/// distributed sessions and a client of each wire engine.
struct Engines {
    db: MemDb,
    sessions: Vec<(u32, Session)>,
    clients: Vec<(&'static str, Client<skadi::wire::DuplexStream>)>,
    servers: Vec<std::thread::JoinHandle<SessionEnd>>,
}

impl Engines {
    fn new(db: MemDb) -> Engines {
        let sessions = vec![(1, session(1)), (8, session(8))];
        let (mut clients, mut servers) = (Vec::new(), Vec::new());
        for (name, distributed) in [("local", false), ("distributed", true)] {
            let cfg = ServerConfig {
                distributed,
                ..ServerConfig::default()
            };
            let server = Server::new(session(4), db.clone(), cfg);
            let (stream, handle) = server.connect();
            clients.push((name, Client::connect(stream, "generated-sql").unwrap()));
            servers.push(handle);
        }
        Engines {
            db,
            sessions,
            clients,
            servers,
        }
    }

    fn close(self) {
        drop(self.clients);
        for handle in self.servers {
            assert_eq!(handle.join().unwrap(), SessionEnd::CleanClose);
        }
    }

    /// Checks one statement on every engine against the oracle.
    fn check(&mut self, sql: &str, ctx: &str) {
        let db = &self.db;
        match oracle(db, sql) {
            Verdict::Rows(oracle) => {
                let want = ipc::encode(&oracle);
                let got = db
                    .query(sql)
                    .unwrap_or_else(|e| panic!("{ctx}: MemDb refused {sql:?}: {e}"));
                assert_eq!(
                    ipc::encode(&got).as_slice(),
                    want.as_slice(),
                    "{ctx}: MemDb against the oracle: {sql:?}\nMemDb:\n{got}\noracle:\n{oracle}"
                );
                for (p, s) in &self.sessions {
                    let run = s
                        .sql_distributed(db, sql)
                        .unwrap_or_else(|e| panic!("{ctx} x{p}: {sql:?}: {e}"));
                    let bytes = ipc::encode(&run.batch);
                    assert_eq!(bytes.as_slice(), want.as_slice(), "{ctx} x{p}: {sql:?}");
                }
                for (engine, client) in &mut self.clients {
                    let r = client
                        .query(sql)
                        .unwrap_or_else(|e| panic!("{ctx} wire {engine}: {sql:?}: {e}"));
                    let bytes = ipc::encode(&r.batch);
                    assert_eq!(
                        bytes.as_slice(),
                        want.as_slice(),
                        "{ctx} wire {engine}: {sql:?}"
                    );
                }
            }
            Verdict::Overflow(column) => {
                let needle = format!("sum({column}) overflowed Int64");
                let local = db.query(sql).map(|_| ()).unwrap_err().to_string();
                assert!(local.contains(&needle), "{ctx}: {sql:?}: {local}");
                for (p, s) in &self.sessions {
                    let err = s.sql_distributed(db, sql).map(|_| ()).unwrap_err();
                    let err = err.to_string();
                    assert!(err.contains(&needle), "{ctx} x{p}: {sql:?}: {err}");
                }
                for (engine, client) in &mut self.clients {
                    match client.query(sql) {
                        Err(WireError::Server { message, .. }) => {
                            assert!(message.contains(&needle), "{ctx} wire {engine}: {message}")
                        }
                        other => panic!("{ctx} wire {engine}: {sql:?}: got {other:?}"),
                    }
                }
            }
            Verdict::Refused(rule) => {
                let text = match db.query(sql) {
                    Err(SqlError::Plan(text)) => text,
                    other => panic!("{ctx}: {sql:?} breaks the {rule} rule, MemDb: {other:?}"),
                };
                for (p, s) in &self.sessions {
                    match s.sql_distributed(db, sql) {
                        Err(SkadiError::Sql(SqlError::Plan(got))) => {
                            assert_eq!(got, text, "{ctx} x{p}: {sql:?}")
                        }
                        other => panic!("{ctx} x{p}: {sql:?}: want {text:?}, got {other:?}"),
                    }
                }
                let message = SqlError::Plan(text).to_string();
                for (engine, client) in &mut self.clients {
                    match client.query(sql) {
                        Err(WireError::Server {
                            code: c,
                            message: m,
                        }) => {
                            assert_eq!(
                                (c, &m),
                                (code::SQL, &message),
                                "{ctx} wire {engine}: {sql:?}"
                            )
                        }
                        other => {
                            panic!("{ctx} wire {engine}: {sql:?}: want {message:?}, got {other:?}")
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn generated_group_by_statements_agree_four_ways() {
    for &(seed, sql) in GENERATED_REGRESSIONS {
        let mut engines = Engines::new(tables(seed));
        engines.check(sql, &format!("regression (seed {seed})"));
        engines.close();
    }
    let refusals = [
        Refusal::Literal,
        Refusal::Aggregate,
        Refusal::JoinKeys,
        Refusal::OrderBy,
    ];
    let (mut answered, mut refused) = (0, 0);
    for seed in SEEDS {
        let mut engines = Engines::new(tables(seed));
        let mut rng = DetRng::seed(seed).fork(0x5e1ec7);
        for case in 0..CASES {
            let table = if case % 8 == 7 { "z" } else { "t" };
            let cols = schema_of(&engines.db, table);
            let ctx = format!("seed {seed} case {case}");
            let sql = statement(&mut rng, table, &cols, None);
            engines.check(&sql, &ctx);
            answered += 1;
            let rule = refusals[case % refusals.len()];
            let sql = statement(&mut rng, table, &cols, Some(rule));
            assert!(
                matches!(oracle(&engines.db, &sql), Verdict::Refused(_)),
                "{ctx}: {sql:?} should break the {rule:?} rule"
            );
            engines.check(&sql, &ctx);
            refused += 1;
        }
        engines.close();
    }
    assert_eq!(
        (answered, refused),
        (SEEDS.len() * CASES, SEEDS.len() * CASES)
    );
}
