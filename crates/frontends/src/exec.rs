//! Local SQL execution engine.
//!
//! Executes parsed queries against real in-memory [`RecordBatch`]es using
//! the `skadi-arrow` kernels. The distributed runtime *prices* execution
//! on the simulated cluster; this engine *computes actual answers*, which
//! (a) validates the planner's semantics and (b) powers the examples that
//! want to show real results.
//!
//! Supported: projection, WHERE conjunctions, equi-joins, GROUP BY with
//! `sum`/`count`/`min`/`max`/`avg`, ORDER BY, LIMIT.
//!
//! The hot paths are vectorized: WHERE conjuncts fuse into a single
//! boolean mask ([`compute::and`]) applied once; joins key on FNV-1a
//! hashes of the raw column bytes with a typed equality check on
//! collision, in one table built on the smaller side (`join_rows`, the
//! join of every engine), and group-bys number their rows from each key
//! column's codes ([`compute::group_ids`]) — no per-row `String`
//! rendering anywhere on the join or group-by key path. A join emits what its
//! planned descriptor ([`ExecOp::Join`]) names and nothing else: the
//! columns read above it, with every build-side string gathered as
//! dictionary codes, so a GROUP BY over it reads codes too.
//! `assemble_join` is that one assembly for this engine and for every
//! join shard of the distributed one. Every execution also
//! records its operator chain — one [`ShardStats`] per relational
//! operator, named by its [`Op`] as the planner's vertices are — which
//! [`MemDb::query_profiled`] returns as a [`QueryProfile`] and
//! [`MemDb::query`] drops.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use skadi_arrow::array::{Array, Value};
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::compute;
use skadi_arrow::datatype::DataType;
use skadi_arrow::schema::{Field, Schema};
use skadi_flowgraph::profile::{QueryProfile, ShardStats, SKEW_MULTIPLE};
use skadi_flowgraph::{ExecOp, FlowGraph};
use skadi_ir::Op;

use crate::catalog::{Catalog, TableDef};
use crate::sql::ast::{AggFunc, AggItem, Comparison, Literal, OrderBy, Query};
use crate::sql::{parse, plan_query, tokenize, SqlError};

pub mod parallel;
pub mod pool;

/// An in-memory database: named tables of record batches.
#[derive(Debug, Clone, Default)]
pub struct MemDb {
    tables: BTreeMap<String, RecordBatch>,
}

impl MemDb {
    /// An empty database.
    pub fn new() -> Self {
        MemDb::default()
    }

    /// Registers a table.
    pub fn register(mut self, name: &str, batch: RecordBatch) -> Self {
        self.tables.insert(name.to_string(), batch);
        self
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&RecordBatch, SqlError> {
        self.tables
            .get(name)
            .ok_or_else(|| SqlError::Plan(format!("unknown table {name:?}")))
    }

    /// All registered tables, by name.
    pub fn tables(&self) -> &BTreeMap<String, RecordBatch> {
        &self.tables
    }

    /// Parses and executes a query, returning the result batch.
    pub fn query(&self, sql: &str) -> Result<RecordBatch, SqlError> {
        let q = parse(&tokenize(sql)?)?;
        execute(&q, self)
    }

    /// Like [`MemDb::query`], but also returns a per-operator
    /// [`QueryProfile`] (single-shard chain: scan → filter → join → … in
    /// execution order). Accepts the query with or without an
    /// `EXPLAIN ANALYZE` prefix. The profile's deterministic portion
    /// (everything except wall time) is a pure function of the query and
    /// the data.
    pub fn query_profiled(&self, sql: &str) -> Result<(RecordBatch, QueryProfile), SqlError> {
        let body = crate::sql::strip_explain_analyze(sql).unwrap_or(sql);
        let q = parse(&tokenize(body)?)?;
        let (out, chain) = run(&q, self)?;
        let chain = chain.0.into_iter();
        let chain = chain.map(|(op, s)| (op.name().to_string(), s)).collect();
        Ok((out, QueryProfile::from_chain(body, SKEW_MULTIPLE, chain)))
    }

    /// Executes `EXPLAIN ANALYZE <query>` (prefix optional) and renders
    /// the annotated plan tree with measured wall times.
    pub fn explain_analyze(&self, sql: &str) -> Result<String, SqlError> {
        let (_, profile) = self.query_profiled(sql)?;
        Ok(profile.render(true))
    }

    /// Derives a planner [`Catalog`] from the registered tables: each
    /// batch's schema (shared, not copied), cardinalities from their actual
    /// row counts and byte sizes — so the same database drives both real
    /// execution and simulated distributed execution.
    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for (name, batch) in &self.tables {
            let (rows, bytes) = (batch.num_rows() as u64, batch.byte_size() as u64);
            c = c.table(name, TableDef::new(Arc::clone(batch.schema()), rows, bytes));
        }
        c
    }
}

pub(crate) fn wrap(e: skadi_arrow::error::ArrowError) -> SqlError {
    SqlError::Plan(format!("execution: {e}"))
}

/// What one local execution measured: a [`ShardStats`] per relational
/// operator, in execution order.
struct Chain(Vec<(Op, ShardStats)>);

impl Chain {
    /// Records an operator that started at `start`, read `rows_in` rows
    /// and handed on `out`. `stats` holds what its kernel counted; a
    /// filter's selectivity is filled in here.
    fn record(
        &mut self,
        op: Op,
        start: Instant,
        rows_in: usize,
        out: &RecordBatch,
        stats: ShardStats,
    ) {
        let rows_out = out.num_rows();
        let stats = ShardStats {
            rows_in: rows_in as u64,
            rows_out: rows_out as u64,
            output_bytes: out.byte_size() as u64,
            selectivity: (op == Op::Filter && rows_in > 0)
                .then(|| rows_out as f64 / rows_in as f64),
            ..stats
        };
        let wall_nanos = start.elapsed().as_nanos() as u64;
        self.0.push((
            op,
            ShardStats {
                wall_nanos,
                ..stats
            },
        ));
    }
}

/// Applies a conjunction of comparisons as ONE filter: each conjunct
/// becomes a boolean mask ([`compute::cmp_scalar`]), the masks fuse with
/// [`compute::and`] (SQL three-valued logic), and the batch is gathered
/// once — instead of materializing an intermediate batch per conjunct.
pub(crate) fn apply_conjuncts(
    batch: &RecordBatch,
    conjuncts: &[&Comparison],
) -> Result<RecordBatch, SqlError> {
    match parallel::conjunct_mask(batch, conjuncts)? {
        Some(m) => {
            let idx = compute::mask_to_indices(&m).map_err(wrap)?;
            parallel::take_batch(batch, &idx).map_err(wrap)
        }
        None => Ok(batch.clone()),
    }
}

// The type rules. The planner applies each one to the columns it types,
// so an ill-typed statement fails before any task runs; the kernel that
// implements the operator calls the same function on the batch it is
// handed.

/// The types that hold numbers.
fn numeric(t: DataType) -> bool {
    matches!(t, DataType::Int64 | DataType::Float64)
}

/// The types that hold strings (one logical type, two encodings).
fn textual(t: DataType) -> bool {
    matches!(t, DataType::Utf8 | DataType::DictUtf8)
}

/// The value a comparison compares its column with, if the literal fits
/// the column: `Int64` and `Float64` take an integer or a float literal,
/// `Utf8` and `DictUtf8` a string, and nothing else is accepted (no literal
/// compares with a `Bool`).
pub(crate) fn compared_value(c: &Comparison, column_type: DataType) -> Result<Value, SqlError> {
    let (fits, literal, value) = match &c.value {
        Literal::Int(v) => (numeric(column_type), "an integer", Value::I64(*v)),
        Literal::Float(v) => (numeric(column_type), "a float", Value::F64(*v)),
        Literal::Str(s) => (textual(column_type), "a string", Value::Str(s.clone())),
    };
    let column = &c.column;
    fits.then_some(value).ok_or_else(|| {
        SqlError::Plan(format!(
            "cannot compare {column_type} column {column:?} with {literal} literal"
        ))
    })
}

/// The type an aggregate yields over an input column of type `input`
/// (`None`: no column, which only `count(*)` has): `count` takes any type
/// and yields `Int64`; `sum`, `min` and `max` take `Int64` or `Float64`
/// and keep it; `avg` takes either and yields `Float64`.
pub(crate) fn aggregate_type(agg: &AggItem, input: Option<DataType>) -> Result<DataType, SqlError> {
    match (agg.func, input) {
        (AggFunc::Count, _) | (_, None) => Ok(DataType::Int64),
        (AggFunc::Avg, Some(t)) if numeric(t) => Ok(DataType::Float64),
        (_, Some(t)) if numeric(t) => Ok(t),
        (func, Some(t)) => Err(SqlError::Plan(format!(
            "{}({}) takes an int64 or float64 column, not {t}",
            func.name(),
            agg.column
        ))),
    }
}

/// How the key columns of a join compare, decided once per join from
/// their two types and never from the bytes: an `Int64` and an 8-byte
/// string can share key bytes *and* hash. Null keys never join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinKeyRule {
    /// One logical type on both sides (`Utf8` and `DictUtf8` are one):
    /// rows match when their `key_bytes` do. For floats that is the bit
    /// pattern, so NaN keys self-join and `-0.0` stays distinct from `0.0`.
    Bytes,
    /// `Int64` against `Float64`, either way round: *exact* numeric
    /// equality via [`compute::i64_f64_key_eq`] — no lossy `i64 -> f64`
    /// cast, so distinct integers above 2^53 never collide. Both sides
    /// bucket alike because a whole `Float64` key hashes as its integer.
    Numeric,
}

impl JoinKeyRule {
    /// The rule for keys of types `left` and `right`; any other pair of
    /// types cannot be compared, and the join is a planning error.
    pub(crate) fn of(left: DataType, right: DataType) -> Result<JoinKeyRule, SqlError> {
        if left == right || (textual(left) && textual(right)) {
            Ok(JoinKeyRule::Bytes)
        } else if numeric(left) && numeric(right) {
            Ok(JoinKeyRule::Numeric)
        } else {
            Err(SqlError::Plan(format!(
                "cannot join {left} keys with {right} keys"
            )))
        }
    }
}

/// Folds the high hash bits down before masking to a table bucket, so
/// power-of-two tables see entropy from the whole 64-bit FNV hash.
#[inline]
fn fold_hash(h: u64) -> u64 {
    h ^ (h >> 32)
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Hash equi-join (inner). Right-side key column is dropped from the
/// output; other right columns are appended. Null keys match nothing.
/// Every column comes out with its input type.
pub fn hash_join(
    left: &RecordBatch,
    right: &RecordBatch,
    left_key: &str,
    right_key: &str,
) -> Result<RecordBatch, SqlError> {
    let mut stats = ShardStats::default();
    let (lr, rr) = join_rows(left, right, left_key, right_key, &mut stats)?;
    let rk = right.schema().index_of(right_key).map_err(wrap)?;
    let names = left.schema().fields().iter().map(|f| &f.name);
    let mut columns: Vec<String> = names.cloned().collect();
    for (i, f) in right.schema().fields().iter().enumerate() {
        if i != rk && !columns.contains(&f.name) {
            columns.push(f.name.clone());
        }
    }
    gather_join(left, right, &columns, Array::take_rows, &lr, &rr)
}

/// A join whose right side holds more than this multiple of its left
/// side's rows builds its table on the left side instead. A pure function
/// of row counts — never of timing.
pub(crate) const SWAP_BUILD_MULTIPLE: usize = 2;

/// The one hash join of every engine: resolves the key columns and runs
/// the kernel ([`parallel::join_pairs`]), which builds one table on the
/// right side — or, when the right side holds more than
/// [`SWAP_BUILD_MULTIPLE`]x the left side's rows, on the left side, with
/// the pairs put back in probe order ([`parallel::probe_order`]) and the
/// swap counted in `stats`. Either way the pairs come out in probe order:
/// left rows ascending, each one's matches in ascending right-row order.
pub(crate) fn join_rows(
    left: &RecordBatch,
    right: &RecordBatch,
    left_key: &str,
    right_key: &str,
    stats: &mut ShardStats,
) -> Result<(Vec<u32>, Vec<u32>), SqlError> {
    let lcol = left.column_by_name(left_key).map_err(wrap)?;
    let rcol = right.column_by_name(right_key).map_err(wrap)?;
    // Types that cannot be compared are refused in the join's own
    // orientation, whichever side builds.
    JoinKeyRule::of(lcol.data_type(), rcol.data_type())?;
    if rcol.len() > SWAP_BUILD_MULTIPLE * lcol.len() {
        stats.build_swaps += 1;
        let swapped = parallel::join_pairs(rcol, lcol, stats)?;
        return Ok(parallel::probe_order(swapped, lcol.len()));
    }
    parallel::join_pairs(lcol, rcol, stats)
}

/// The join's output batch, as the plan describes it ([`ExecOp::Join`]):
/// each of `columns` and nothing else, gathered from the matched pairs. A
/// name the left side has comes from the left, any other from the build
/// side, where a `Utf8` column is gathered as `DictUtf8` codes
/// ([`Array::take_rows_as_codes`]): a build row the join repeats moves
/// four bytes per copy, and a GROUP BY over it reads the codes. The batch
/// has a row per pair even when it has no column.
pub(crate) fn assemble_join(
    left: &RecordBatch,
    right: &RecordBatch,
    columns: &[String],
    left_rows: &[u32],
    right_rows: &[u32],
) -> Result<RecordBatch, SqlError> {
    let codes = Array::take_rows_as_codes;
    gather_join(left, right, columns, codes, left_rows, right_rows)
}

/// Gathers `columns` from the matched pairs: a left-side name by
/// `left_rows` as it is, any other from the build side by `right_rows`
/// through `take_build`.
fn gather_join(
    left: &RecordBatch,
    right: &RecordBatch,
    columns: &[String],
    take_build: parallel::Take,
    left_rows: &[u32],
    right_rows: &[u32],
) -> Result<RecordBatch, SqlError> {
    let mut fields: Vec<&Field> = Vec::with_capacity(columns.len());
    let mut sources = Vec::with_capacity(columns.len());
    for name in columns {
        let (side, build, i) = match left.schema().index_of(name) {
            Ok(i) => (left, false, i),
            Err(_) => (right, true, right.schema().index_of(name).map_err(wrap)?),
        };
        fields.push(side.schema().field(i));
        sources.push(parallel::JoinColumn {
            source: side.column(i).clone(),
            build,
            take: if build { take_build } else { Array::take_rows },
        });
    }
    let gathered = parallel::gather_join_columns(sources, left_rows, right_rows);
    let fields = fields.iter().zip(&gathered);
    let fields = fields.map(|(f, col)| Field::new(f.name.clone(), col.data_type(), f.nullable));
    let schema = Schema::new(fields.collect());
    RecordBatch::try_with_rows(schema, gathered, left_rows.len()).map_err(wrap)
}

/// The planned joins' output columns, in the order the statement names
/// the joins (the planner adds them in that order).
fn planned_joins(plan: &FlowGraph) -> impl Iterator<Item = &[String]> {
    plan.vertices().iter().filter_map(|v| match &v.exec {
        Some(ExecOp::Join { columns, .. }) => Some(columns.as_slice()),
        _ => None,
    })
}

/// Grouped aggregation over the query's `GROUP BY` columns and aggregate
/// select items (see [`parallel::aggregate_grouped`]). A global
/// aggregate (no GROUP BY) always yields exactly one row; groups come out
/// in order of first appearance in `input`.
pub fn aggregate(q: &Query, input: &RecordBatch) -> Result<RecordBatch, SqlError> {
    aggregate_with_stats(q, input, &mut ShardStats::default())
}

/// [`aggregate`] with kernel counters accumulated into `stats`.
pub(crate) fn aggregate_with_stats(
    q: &Query,
    input: &RecordBatch,
    stats: &mut ShardStats,
) -> Result<RecordBatch, SqlError> {
    let aggs: Vec<AggItem> = q.aggregates().cloned().collect();
    aggregate_spec(&q.group_by, &aggs, input, stats)
}

/// The aggregation entry point independent of the query: shard execution
/// drives this directly from [`ExecOp::Aggregate`] descriptors. Resolves
/// the group columns and runs [`parallel::aggregate_grouped`].
///
/// [`ExecOp::Aggregate`]: skadi_flowgraph::ExecOp::Aggregate
pub(crate) fn aggregate_spec(
    group_by: &[String],
    aggs: &[AggItem],
    input: &RecordBatch,
    stats: &mut ShardStats,
) -> Result<RecordBatch, SqlError> {
    let group_cols: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema().index_of(g).map_err(wrap))
        .collect::<Result<_, _>>()?;
    parallel::aggregate_grouped(&group_cols, aggs, input, stats)
}

fn sort_order(descending: bool) -> compute::SortOrder {
    if descending {
        compute::SortOrder::Descending
    } else {
        compute::SortOrder::Ascending
    }
}

/// Sorts by one column (via the shared sort kernel; NULLs sort lowest).
pub fn sort_by(
    batch: &RecordBatch,
    column: &str,
    descending: bool,
) -> Result<RecordBatch, SqlError> {
    let col = batch.column_by_name(column).map_err(wrap)?;
    let perm = parallel::sort_permutation(col, sort_order(descending));
    parallel::take_batch(batch, &perm).map_err(wrap)
}

/// ORDER BY `order` and LIMIT `limit`, each where given: the rows a
/// stable sort keeps, cut at the limit. With both, the top-N kernel
/// ([`compute::top_n`]) selects the kept rows and gathers only them; a
/// LIMIT alone is a view of the first rows.
pub(crate) fn order_limit(
    batch: &RecordBatch,
    order: Option<&OrderBy>,
    limit: Option<u64>,
) -> Result<RecordBatch, SqlError> {
    let limit = limit.map(|n| n as usize);
    match (order, limit) {
        (None, None) => Ok(batch.clone()),
        (None, Some(n)) => Ok(batch.slice(0, n.min(batch.num_rows()))),
        (Some(ob), Some(n)) => {
            compute::top_n(batch, &ob.column, sort_order(ob.descending), n).map_err(wrap)
        }
        (Some(ob), None) => sort_by(batch, &ob.column, ob.descending),
    }
}

/// Executes a parsed query against the database.
pub fn execute(q: &Query, db: &MemDb) -> Result<RecordBatch, SqlError> {
    run(q, db).map(|(out, _)| out)
}

/// Executes a parsed query, measuring each operator into its [`Chain`]:
/// the one execution path of [`MemDb::query`] and
/// [`MemDb::query_profiled`].
fn run(q: &Query, db: &MemDb) -> Result<(RecordBatch, Chain), SqlError> {
    // The planner resolves and types every name the query reads, so an
    // ill-typed or misnamed statement fails here, with the text the
    // distributed engine gives, before any kernel runs.
    // The plan also says what each join emits.
    let mut plan = FlowGraph::new();
    plan_query(q, &db.catalog(), &mut plan)?;
    // A scan, a filter either side of the joins, the joins, an aggregate,
    // a projection, a sort and a limit: sized before the query runs, so
    // recording allocates nothing per operator.
    let mut chain = Chain(Vec::with_capacity(7 + q.joins.len()));
    // Tables are scanned dictionary-encoded, as the distributed engine's
    // scan shards read them (`shard::scan_shard`): each column's encoding
    // is made on first use and kept for the life of the table's arrays,
    // so the kernels below group, join and filter on `u32` keys. The
    // output boundary decodes.
    let t0 = Instant::now();
    let mut current = db.table(&q.from)?.dict_encoded();
    let rows = current.num_rows();
    chain.record(Op::Scan, t0, rows, &current, ShardStats::default());

    // Pushdown-equivalent: conjuncts on base-table columns apply before
    // joins; the rest after. Each side fuses into a single mask.
    let (pushed, residual): (Vec<&Comparison>, Vec<&Comparison>) = q
        .filter
        .iter()
        .partition(|c| current.schema().index_of(&c.column).is_ok());
    if !pushed.is_empty() {
        let (t0, rows_in) = (Instant::now(), current.num_rows());
        current = apply_conjuncts(&current, &pushed)?;
        chain.record(Op::Filter, t0, rows_in, &current, ShardStats::default());
    }
    for (j, columns) in q.joins.iter().zip(planned_joins(&plan)) {
        let t0 = Instant::now();
        let right = db.table(&j.table)?.dict_encoded();
        let rows_in = current.num_rows() + right.num_rows();
        let mut stats = ShardStats::default();
        let (lr, rr) = join_rows(&current, &right, &j.left_key, &j.right_key, &mut stats)?;
        current = assemble_join(&current, &right, columns, &lr, &rr)?;
        chain.record(Op::Join, t0, rows_in, &current, stats);
    }
    if !residual.is_empty() {
        let (t0, rows_in) = (Instant::now(), current.num_rows());
        current = apply_conjuncts(&current, &residual)?;
        chain.record(Op::Filter, t0, rows_in, &current, ShardStats::default());
    }

    if q.is_aggregate() {
        let (t0, rows_in) = (Instant::now(), current.num_rows());
        let mut stats = ShardStats::default();
        current = aggregate_with_stats(q, &current, &mut stats)?;
        chain.record(Op::Aggregate, t0, rows_in, &current, stats);
        // Keys then aggregates, as the plan's aggregate emits them: where
        // the select list says otherwise, the plan projects and so do we.
        let names = q.output_names();
        let emitted = current.schema().fields().iter().map(|f| f.name.as_str());
        if emitted.ne(names.iter().copied()) {
            let (t0, rows_in) = (Instant::now(), current.num_rows());
            current = current.project(&names).map_err(wrap)?;
            chain.record(Op::Project, t0, rows_in, &current, ShardStats::default());
        }
    } else {
        let cols = q.projected_columns();
        if !cols.is_empty() && !cols.contains(&"*") {
            let (t0, rows_in) = (Instant::now(), current.num_rows());
            current = current.project(&cols).map_err(wrap)?;
            chain.record(Op::Project, t0, rows_in, &current, ShardStats::default());
        }
    }

    let rows_in = current.num_rows();
    if let Some(ob) = &q.order_by {
        let t0 = Instant::now();
        // The sort reports the sorted relation: a permutation of this
        // one, so the same rows and bytes. Under a LIMIT only the rows the
        // limit keeps are sorted and gathered (the top-N kernel).
        let sorted = order_limit(&current, Some(ob), q.limit)?;
        chain.record(Op::Sort, t0, rows_in, &current, ShardStats::default());
        current = sorted;
    }
    if let Some(n) = q.limit {
        let t0 = Instant::now();
        current = order_limit(&current, None, Some(n))?;
        chain.record(Op::Limit, t0, rows_in, &current, ShardStats::default());
    }
    // Output boundary: results leave the engine as plain columns, so a
    // query over dictionary-encoded tables is byte-identical to one over
    // plain tables.
    Ok((current.dict_decoded(), chain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_arrow::array::Array;

    fn db() -> MemDb {
        let events = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("user_id", DataType::Int64, false),
                Field::new("kind", DataType::Utf8, false),
                Field::new("value", DataType::Float64, true),
            ]),
            vec![
                Array::from_i64(vec![1, 1, 2, 2, 3, 3]),
                Array::from_utf8(&["click", "view", "click", "click", "view", "click"]),
                Array::from_opt_f64(vec![
                    Some(1.0),
                    Some(2.0),
                    Some(3.0),
                    None,
                    Some(5.0),
                    Some(6.0),
                ]),
            ],
        )
        .unwrap();
        let users = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("user_id", DataType::Int64, false),
                Field::new("country", DataType::Utf8, false),
            ]),
            vec![
                Array::from_i64(vec![1, 2, 3]),
                Array::from_utf8(&["DE", "US", "DE"]),
            ],
        )
        .unwrap();
        MemDb::new()
            .register("events", events)
            .register("users", users)
    }

    #[test]
    fn filter_and_project() {
        let out = db()
            .query("SELECT user_id FROM events WHERE kind = 'click'")
            .unwrap();
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.num_columns(), 1);
        assert_eq!(out.column(0).value_at(0), Value::I64(1));
    }

    #[test]
    fn conjunction() {
        let out = db()
            .query("SELECT user_id FROM events WHERE kind = 'click' AND value > 2")
            .unwrap();
        // click rows with value > 2: (2, 3.0), (3, 6.0). Null drops.
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn global_aggregate() {
        let out = db().query("SELECT sum(value) FROM events").unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column(0).value_at(0), Value::F64(17.0));
    }

    #[test]
    fn group_by_with_alias() {
        let out = db()
            .query("SELECT kind, sum(value) AS total, count(*) AS n FROM events GROUP BY kind")
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        // First-appearance order: click (row 0) before view (row 1).
        assert_eq!(
            out.column_by_name("kind").unwrap().value_at(0),
            Value::Str("click".into())
        );
        assert_eq!(
            out.column_by_name("total").unwrap().value_at(0),
            Value::F64(10.0)
        );
        assert_eq!(out.column_by_name("n").unwrap().value_at(0), Value::I64(4));
        assert_eq!(
            out.column_by_name("total").unwrap().value_at(1),
            Value::F64(7.0)
        );
    }

    #[test]
    fn count_skips_nulls_star_does_not() {
        let out = db()
            .query("SELECT count(value) AS vals, count(*) AS rows FROM events")
            .unwrap();
        assert_eq!(
            out.column_by_name("vals").unwrap().value_at(0),
            Value::I64(5)
        );
        assert_eq!(
            out.column_by_name("rows").unwrap().value_at(0),
            Value::I64(6)
        );
    }

    #[test]
    fn min_max_avg() {
        let out = db()
            .query("SELECT min(value) AS lo, max(value) AS hi, avg(value) AS mean FROM events")
            .unwrap();
        assert_eq!(
            out.column_by_name("lo").unwrap().value_at(0),
            Value::F64(1.0)
        );
        assert_eq!(
            out.column_by_name("hi").unwrap().value_at(0),
            Value::F64(6.0)
        );
        assert_eq!(
            out.column_by_name("mean").unwrap().value_at(0),
            Value::F64(3.4)
        );
    }

    #[test]
    fn int_aggregates_stay_int64() {
        let out = db()
            .query("SELECT sum(user_id) AS s, min(user_id) AS lo, max(user_id) AS hi FROM events")
            .unwrap();
        assert_eq!(out.column_by_name("s").unwrap().value_at(0), Value::I64(12));
        assert_eq!(out.column_by_name("lo").unwrap().value_at(0), Value::I64(1));
        assert_eq!(out.column_by_name("hi").unwrap().value_at(0), Value::I64(3));
        // avg over ints still floats.
        let out = db().query("SELECT avg(user_id) AS m FROM events").unwrap();
        assert_eq!(
            out.column_by_name("m").unwrap().value_at(0),
            Value::F64(2.0)
        );
    }

    #[test]
    fn global_aggregate_over_empty_input_is_one_row() {
        let out = db()
            .query("SELECT count(*) AS n, sum(value) AS s FROM events WHERE value > 100")
            .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column_by_name("n").unwrap().value_at(0), Value::I64(0));
        assert_eq!(out.column_by_name("s").unwrap().value_at(0), Value::Null);
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        let out = db()
            .query("SELECT kind, count(*) AS n FROM events WHERE value > 100 GROUP BY kind")
            .unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn join_enriches_rows() {
        let out = db()
            .query(
                "SELECT country, sum(value) AS total FROM events \
                 JOIN users ON user_id = user_id GROUP BY country",
            )
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        // DE: users 1 and 3 -> 1 + 2 + 5 + 6 = 14; US: user 2 -> 3.
        assert_eq!(
            out.column_by_name("country").unwrap().value_at(0),
            Value::Str("DE".into())
        );
        assert_eq!(
            out.column_by_name("total").unwrap().value_at(0),
            Value::F64(14.0)
        );
        assert_eq!(
            out.column_by_name("total").unwrap().value_at(1),
            Value::F64(3.0)
        );
    }

    #[test]
    fn join_skips_null_keys_and_expands_duplicates() {
        let left = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, true),
                Field::new("l", DataType::Utf8, false),
            ]),
            vec![
                Array::from_opt_i64(vec![Some(1), None, Some(2), Some(1)]),
                Array::from_utf8(&["a", "b", "c", "d"]),
            ],
        )
        .unwrap();
        let right = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, true),
                Field::new("r", DataType::Utf8, false),
            ]),
            vec![
                Array::from_opt_i64(vec![Some(1), Some(1), None]),
                Array::from_utf8(&["x", "y", "z"]),
            ],
        )
        .unwrap();
        let out = hash_join(&left, &right, "k", "k").unwrap();
        // Left rows 0 and 3 (k=1) each match right rows 0 and 1; nulls on
        // either side match nothing.
        assert_eq!(out.num_rows(), 4);
        assert_eq!(
            out.column_by_name("l").unwrap().value_at(0),
            Value::Str("a".into())
        );
        assert_eq!(
            out.column_by_name("r").unwrap().value_at(1),
            Value::Str("y".into())
        );
        assert_eq!(
            out.column_by_name("l").unwrap().value_at(2),
            Value::Str("d".into())
        );
    }

    #[test]
    fn join_mixed_int_float_keys() {
        let left = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("l", DataType::Utf8, false),
            ]),
            vec![
                Array::from_i64(vec![1, 2, 3]),
                Array::from_utf8(&["a", "b", "c"]),
            ],
        )
        .unwrap();
        let right = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("fk", DataType::Float64, false),
                Field::new("r", DataType::Utf8, false),
            ]),
            vec![
                Array::from_f64(vec![2.0, 3.5, 1.0]),
                Array::from_utf8(&["x", "y", "z"]),
            ],
        )
        .unwrap();
        let out = hash_join(&left, &right, "k", "fk").unwrap();
        // 1 <-> 1.0 and 2 <-> 2.0 join; 3 vs 3.5 does not.
        assert_eq!(out.num_rows(), 2);
        assert_eq!(
            out.column_by_name("r").unwrap().value_at(0),
            Value::Str("z".into())
        );
        assert_eq!(
            out.column_by_name("r").unwrap().value_at(1),
            Value::Str("x".into())
        );
    }

    #[test]
    fn join_mixed_keys_exact_above_2_53() {
        // 2^53 is the last f64-exact integer: 2^53 + 1 as f64 rounds back
        // down to 2^53. The old coerced equality joined both left rows to
        // the float key; exact equality joins only the representable one.
        let big = 1i64 << 53;
        let left = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("l", DataType::Utf8, false),
            ]),
            vec![
                Array::from_i64(vec![big, big + 1]),
                Array::from_utf8(&["exact", "offbyone"]),
            ],
        )
        .unwrap();
        let right = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("fk", DataType::Float64, false),
                Field::new("r", DataType::Utf8, false),
            ]),
            vec![Array::from_f64(vec![big as f64]), Array::from_utf8(&["f"])],
        )
        .unwrap();
        let out = hash_join(&left, &right, "k", "fk").unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(
            out.column_by_name("l").unwrap().value_at(0),
            Value::Str("exact".into())
        );
        // Same result with the sides flipped.
        let out = hash_join(&right, &left, "fk", "k").unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn dict_tables_compute_identical_results() {
        let plain = db();
        let mut dict = MemDb::new();
        for (name, batch) in plain.tables() {
            dict = dict.register(name, batch.dict_encoded());
        }
        // The events.kind column actually encoded (2 distinct over 6 rows).
        assert_eq!(
            dict.table("events")
                .unwrap()
                .column_by_name("kind")
                .unwrap()
                .data_type(),
            DataType::DictUtf8
        );
        for sql in [
            "SELECT user_id, kind FROM events WHERE kind = 'click'",
            "SELECT kind, sum(value) AS total, count(*) AS n FROM events GROUP BY kind",
            "SELECT country, sum(value) AS total FROM events \
             JOIN users ON user_id = user_id GROUP BY country",
            "SELECT kind FROM events ORDER BY kind DESC LIMIT 3",
        ] {
            assert_eq!(plain.query(sql).unwrap(), dict.query(sql).unwrap(), "{sql}");
        }
    }

    #[test]
    fn order_and_limit() {
        let out = db()
            .query("SELECT user_id, value FROM events ORDER BY value DESC LIMIT 2")
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(
            out.column_by_name("value").unwrap().value_at(0),
            Value::F64(6.0)
        );
        assert_eq!(
            out.column_by_name("value").unwrap().value_at(1),
            Value::F64(5.0)
        );
    }

    #[test]
    fn order_by_string() {
        let out = db()
            .query("SELECT kind FROM events ORDER BY kind DESC LIMIT 1")
            .unwrap();
        assert_eq!(out.column(0).value_at(0), Value::Str("view".into()));
    }

    #[test]
    fn join_respects_filters() {
        let out = db()
            .query(
                "SELECT country FROM events JOIN users ON user_id = user_id \
                 WHERE kind = 'view'",
            )
            .unwrap();
        // Views: user 1 (DE) and user 3 (DE).
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn unknown_table_errors() {
        assert!(db().query("SELECT a FROM missing").is_err());
    }

    #[test]
    fn select_star_passthrough() {
        let out = db().query("SELECT * FROM users").unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 2);
    }

    #[test]
    fn profiled_query_records_each_operator() {
        let sql = "SELECT country, sum(value) AS total FROM events \
                   JOIN users ON user_id = user_id \
                   WHERE kind = 'click' GROUP BY country ORDER BY country LIMIT 5";
        let (out, profile) = db().query_profiled(sql).unwrap();
        assert_eq!(out.num_rows(), 2);
        let names: Vec<&str> = profile.ops.iter().map(|o| o.op.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "rel.scan",
                "rel.filter",
                "rel.join",
                "rel.aggregate",
                "rel.sort",
                "rel.limit"
            ]
        );
        // One shard per operator, each feeding the next, with the rows
        // it read and handed on.
        let rows: Vec<(u64, u64)> = profile
            .ops
            .iter()
            .map(|o| (o.total_rows_in(), o.total_rows_out()))
            .collect();
        assert_eq!(rows, vec![(6, 6), (6, 4), (7, 4), (4, 2), (2, 2), (2, 2)]);
        for (i, op) in profile.ops.iter().enumerate() {
            assert_eq!(op.shards.len(), 1);
            let fed: Vec<(u32, u8)> = (i > 0).then(|| (i as u32 - 1, 0)).into_iter().collect();
            assert_eq!(op.inputs, fed);
        }
        // The unprofiled path computes the identical answer.
        assert_eq!(db().query(sql).unwrap(), out);
    }
}

#[cfg(test)]
mod catalog_bridge_tests {
    use super::*;
    use skadi_arrow::array::Array;

    #[test]
    fn catalog_mirrors_registered_tables() {
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("name", DataType::Utf8, false),
            ]),
            vec![
                Array::from_i64(vec![1, 2, 3]),
                Array::from_utf8(&["a", "b", "c"]),
            ],
        )
        .unwrap();
        let db = MemDb::new().register("people", batch);
        let catalog = db.catalog();
        let def = catalog.get("people").expect("table derived");
        assert_eq!(def.rows, 3);
        assert!(def.bytes > 0);
        // The table's own schema, shared rather than copied.
        assert!(Arc::ptr_eq(
            &def.schema,
            db.table("people").unwrap().schema()
        ));
        // The derived catalog plans real statements.
        let (g, _) = crate::sql::plan_sql("SELECT id FROM people WHERE id > 1", &catalog).unwrap();
        g.validate().unwrap();
    }
}
