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
//! boolean mask ([`compute::and`]) applied once; joins and group-bys key
//! on FNV-1a hashes of the raw column bytes with a typed equality check
//! on collision — no per-row `String` rendering anywhere on the join or
//! group-by key path. Each relational operator also records a
//! wall-clock [`Category::Exec`] span (named by its [`Op`], as the
//! planner's vertices are) so a traced query correlates real compute with
//! the simulated plan.

use std::collections::BTreeMap;
use std::time::Instant;

use skadi_arrow::array::Value;
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::compute::{self, CmpOp};
use skadi_arrow::datatype::DataType;
use skadi_arrow::each_variant;
use skadi_arrow::schema::{Field, Schema};
use skadi_dcsim::span::{Category, SpanId, Trace, Tracer};
use skadi_dcsim::time::SimTime;
use skadi_flowgraph::profile::{QueryProfile, ShardStats};
use skadi_ir::Op;

use crate::catalog::{Catalog, TableDef};
use crate::sql::ast::{Comparison, Expr, Literal, Query};
use crate::sql::{parse, tokenize, SqlError};

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

    /// Like [`MemDb::query`], but also returns a [`Trace`] with one
    /// wall-clock span per relational operator (scan/filter/join/
    /// aggregate/project/sort/limit). Span times are real elapsed
    /// nanoseconds mapped onto the virtual timeline, so callers can set
    /// measured compute beside simulated pricing.
    pub fn query_traced(&self, sql: &str) -> Result<(RecordBatch, Trace), SqlError> {
        let q = parse(&tokenize(sql)?)?;
        let mut tracer = Tracer::new(true);
        let out = execute_traced(&q, self, &mut tracer)?;
        Ok((out, tracer.finish()))
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
        let mut spans = ExecSpans::profiled();
        let out = execute_inner(&q, self, &mut spans)?;
        let chain = spans.profile.take().unwrap_or_default();
        Ok((out, QueryProfile::from_chain(body, 2.0, chain)))
    }

    /// Executes `EXPLAIN ANALYZE <query>` (prefix optional) and renders
    /// the annotated plan tree with measured wall times.
    pub fn explain_analyze(&self, sql: &str) -> Result<String, SqlError> {
        let (_, profile) = self.query_profiled(sql)?;
        Ok(profile.render(true))
    }

    /// Derives a planner [`Catalog`] from the registered tables: column
    /// names from the batches, cardinalities from their actual row counts
    /// and byte sizes — so the same database drives both real execution and
    /// simulated distributed execution.
    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for (name, batch) in &self.tables {
            c = c.table(
                name,
                TableDef {
                    columns: batch
                        .schema()
                        .fields()
                        .iter()
                        .map(|f| f.name.clone())
                        .collect(),
                    rows: batch.num_rows() as u64,
                    bytes: batch.byte_size() as u64,
                },
            );
        }
        c
    }
}

pub(crate) fn wrap(e: skadi_arrow::error::ArrowError) -> SqlError {
    SqlError::Plan(format!("execution: {e}"))
}

fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Int(v) => Value::I64(*v),
        Literal::Float(v) => Value::F64(*v),
        Literal::Str(s) => Value::Str(s.clone()),
    }
}

fn cmp_op(op: &str) -> Result<CmpOp, SqlError> {
    Ok(match op {
        "=" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        other => return Err(SqlError::Plan(format!("unsupported operator {other:?}"))),
    })
}

/// Hash-table measurements from one join or group-by kernel invocation.
/// Zero-valued fields mean "not applicable" (e.g. a filter has no hash
/// table); the profile JSON omits them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Hash-table capacity in slots (join build table or group table).
    pub hash_slots: u64,
    /// Probe steps that visited an occupied slot without matching: chain
    /// walks for the join's bucket chains, linear-probe steps for the
    /// group table. A well-sized table keeps this near zero.
    pub hash_collisions: u64,
    /// Distinct groups produced (group-by only).
    pub groups: u64,
    /// Hash-table growth events: how many times a join or group table had
    /// to double capacity and reinsert. The kernels size tables from exact
    /// row-count hints, so this stays 0 on every planned path; a non-zero
    /// value flags a sizing bug.
    pub rehashes: u64,
}

impl KernelStats {
    /// Accumulates another kernel's counters into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.hash_slots += other.hash_slots;
        self.hash_collisions += other.hash_collisions;
        self.groups += other.groups;
        self.rehashes += other.rehashes;
    }
}

/// Per-operator wall-clock span recorder. Disabled (`inner: None`) it
/// costs one `Instant` read per operator and records nothing. With
/// `profile` set it additionally accumulates a [`ShardStats`] chain for
/// [`QueryProfile::from_chain`].
struct ExecSpans<'a> {
    inner: Option<(&'a mut Tracer, SpanId)>,
    profile: Option<Vec<(String, ShardStats)>>,
    clock: Instant,
}

impl ExecSpans<'_> {
    fn disabled() -> ExecSpans<'static> {
        ExecSpans {
            inner: None,
            profile: None,
            clock: Instant::now(),
        }
    }

    fn profiled() -> ExecSpans<'static> {
        ExecSpans {
            inner: None,
            profile: Some(Vec::new()),
            clock: Instant::now(),
        }
    }

    /// Elapsed wall-clock since the query started, as a virtual time.
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.clock.elapsed().as_nanos() as u64)
    }

    /// Records one completed operator span under the root query span,
    /// with profile detail: measured output bytes, filter selectivity,
    /// and hash-table counters.
    #[allow(clippy::too_many_arguments)]
    fn op_ext(
        &mut self,
        op: Op,
        start: SimTime,
        rows_in: usize,
        rows_out: usize,
        output_bytes: u64,
        selectivity: Option<f64>,
        kernel: KernelStats,
    ) {
        let end = SimTime::from_nanos(self.clock.elapsed().as_nanos() as u64);
        if let Some((tracer, root)) = &mut self.inner {
            tracer.span(
                op.name(),
                "exec",
                Category::Exec,
                Some(*root),
                start,
                end,
                &[
                    ("rows_in", &rows_in.to_string()),
                    ("rows_out", &rows_out.to_string()),
                ],
            );
        }
        if let Some(chain) = &mut self.profile {
            chain.push((
                op.name().to_string(),
                ShardStats {
                    shard: 0,
                    rows_in: rows_in as u64,
                    rows_out: rows_out as u64,
                    output_bytes,
                    wall_nanos: end.as_nanos().saturating_sub(start.as_nanos()),
                    selectivity,
                    hash_slots: kernel.hash_slots,
                    hash_collisions: kernel.hash_collisions,
                    groups: kernel.groups,
                    rehashes: kernel.rehashes,
                },
            ));
        }
    }

    fn close_root(&mut self, rows_out: usize) {
        if let Some((tracer, root)) = &mut self.inner {
            let end = SimTime::from_nanos(self.clock.elapsed().as_nanos() as u64);
            tracer.attr(*root, "rows_out", &rows_out.to_string());
            tracer.close(*root, end);
        }
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
    /// cast, so distinct integers above 2^53 never collide — with the
    /// integer side hashed through its `f64` bit pattern.
    Numeric,
    /// Any other pair of types: no row matches.
    Never,
}

impl JoinKeyRule {
    pub(crate) fn of(left: DataType, right: DataType) -> JoinKeyRule {
        let logical = |t: DataType| match t {
            DataType::DictUtf8 => DataType::Utf8,
            t => t,
        };
        match (logical(left), logical(right)) {
            (l, r) if l == r => JoinKeyRule::Bytes,
            (DataType::Int64, DataType::Float64) | (DataType::Float64, DataType::Int64) => {
                JoinKeyRule::Numeric
            }
            _ => JoinKeyRule::Never,
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
pub fn hash_join(
    left: &RecordBatch,
    right: &RecordBatch,
    left_key: &str,
    right_key: &str,
) -> Result<RecordBatch, SqlError> {
    let mut stats = KernelStats::default();
    let (left_rows, right_rows) = join_rows(left, right, left_key, right_key, &mut stats)?;
    assemble_join(left, right, right_key, &left_rows, &right_rows)
}

/// Resolves the key columns and runs the join kernel
/// ([`parallel::join_rows_partitioned`]), partitioned by the larger
/// side's row count.
pub(crate) fn join_rows(
    left: &RecordBatch,
    right: &RecordBatch,
    left_key: &str,
    right_key: &str,
    stats: &mut KernelStats,
) -> Result<(Vec<usize>, Vec<usize>), SqlError> {
    let lcol = left.column_by_name(left_key).map_err(wrap)?;
    let rcol = right.column_by_name(right_key).map_err(wrap)?;
    let parts = parallel::partition_count(left.num_rows().max(right.num_rows()));
    Ok(parallel::join_rows_partitioned(lcol, rcol, parts, stats))
}

/// Gathers matched pairs into the join's output batch: all left columns,
/// then right columns except the key and any name collisions.
pub(crate) fn assemble_join(
    left: &RecordBatch,
    right: &RecordBatch,
    right_key: &str,
    left_rows: &[usize],
    right_rows: &[usize],
) -> Result<RecordBatch, SqlError> {
    let rk = right.schema().index_of(right_key).map_err(wrap)?;
    let mut fields: Vec<Field> = left.schema().fields().to_vec();
    let mut right_cols: Vec<usize> = Vec::new();
    for (i, f) in right.schema().fields().iter().enumerate() {
        if i == rk || fields.iter().any(|lf| lf.name == f.name) {
            continue;
        }
        fields.push(f.clone());
        right_cols.push(i);
    }

    let columns = parallel::gather_join_columns(left, right, &right_cols, left_rows, right_rows);
    RecordBatch::try_new(Schema::new(fields), columns).map_err(wrap)
}

/// Equality of two rows across the group-key columns, by `key_bytes`:
/// floats compare by bit pattern and, within a group column, null equals
/// null (SQL GROUP BY puts all nulls in one group).
fn group_key_eq(batch: &RecordBatch, cols: &[usize], a: usize, b: usize) -> bool {
    cols.iter()
        .all(|&c| each_variant!(batch.column(c), k => k.key_bytes(a) == k.key_bytes(b)))
}

/// One resolved aggregate: which accumulator runs over which column.
/// Integer sums/mins/maxes stay `Int64`; `count` is `Int64`; everything
/// else (including `avg`) is `Float64`. Non-numeric inputs to
/// `sum`/`min`/`max`/`avg` yield an all-null `Float64` column.
enum AggKind {
    CountStar,
    Count(usize),
    SumI64(usize),
    MinI64(usize),
    MaxI64(usize),
    SumF64(usize),
    MinF64(usize),
    MaxF64(usize),
    Avg(usize),
    NonNumeric,
}

impl AggKind {
    fn data_type(&self) -> DataType {
        match self {
            AggKind::CountStar
            | AggKind::Count(_)
            | AggKind::SumI64(_)
            | AggKind::MinI64(_)
            | AggKind::MaxI64(_) => DataType::Int64,
            _ => DataType::Float64,
        }
    }
}

fn resolve_agg(func: &str, column: &str, input: &RecordBatch) -> Result<AggKind, SqlError> {
    if func == "count" {
        if column == "*" {
            return Ok(AggKind::CountStar);
        }
        return Ok(AggKind::Count(
            input.schema().index_of(column).map_err(wrap)?,
        ));
    }
    let c = input.schema().index_of(column).map_err(wrap)?;
    Ok(match (func, input.column(c).data_type()) {
        ("sum", DataType::Int64) => AggKind::SumI64(c),
        ("min", DataType::Int64) => AggKind::MinI64(c),
        ("max", DataType::Int64) => AggKind::MaxI64(c),
        ("sum", DataType::Float64) => AggKind::SumF64(c),
        ("min", DataType::Float64) => AggKind::MinF64(c),
        ("max", DataType::Float64) => AggKind::MaxF64(c),
        ("avg", DataType::Int64 | DataType::Float64) => AggKind::Avg(c),
        ("sum" | "min" | "max" | "avg", _) => AggKind::NonNumeric,
        (other, _) => return Err(SqlError::Plan(format!("unsupported aggregate {other:?}"))),
    })
}

/// Grouped aggregation over the query's `GROUP BY` columns and aggregate
/// select items (see [`parallel::aggregate_partitioned`]). A global
/// aggregate (no GROUP BY) always yields exactly one row; groups come out
/// in rendered-key order.
pub fn aggregate(q: &Query, input: &RecordBatch) -> Result<RecordBatch, SqlError> {
    aggregate_with_stats(q, input, &mut KernelStats::default())
}

/// [`aggregate`] with kernel counters accumulated into `stats`.
pub(crate) fn aggregate_with_stats(
    q: &Query,
    input: &RecordBatch,
    stats: &mut KernelStats,
) -> Result<RecordBatch, SqlError> {
    let aggs: Vec<(String, String, String)> = q
        .select
        .iter()
        .filter_map(|item| match &item.expr {
            Expr::Agg { func, column } => Some((
                func.clone(),
                column.clone(),
                item.alias
                    .clone()
                    .unwrap_or_else(|| format!("{func}({column})")),
            )),
            Expr::Column(_) => None,
        })
        .collect();
    aggregate_spec(&q.group_by, &aggs, input, stats)
}

/// The aggregation entry point independent of the SQL AST: `aggs` is
/// `(func, column, output_name)` triples. Shard execution drives this
/// directly from [`ExecOp::Aggregate`] descriptors. Resolves the group
/// columns and runs [`parallel::aggregate_partitioned`], partitioned by
/// the input's row count.
///
/// [`ExecOp::Aggregate`]: skadi_flowgraph::ExecOp::Aggregate
pub(crate) fn aggregate_spec(
    group_by: &[String],
    aggs: &[(String, String, String)],
    input: &RecordBatch,
    stats: &mut KernelStats,
) -> Result<RecordBatch, SqlError> {
    let group_cols: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema().index_of(g).map_err(wrap))
        .collect::<Result<_, _>>()?;
    let parts = parallel::partition_count(input.num_rows());
    parallel::aggregate_partitioned(&group_cols, aggs, input, parts, stats)
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

/// ORDER BY `order` (column, descending) and LIMIT `limit`, each where
/// given: the rows a stable sort keeps, cut at the limit. With both, the
/// top-N kernel ([`compute::top_n`]) selects the kept rows and gathers
/// only them; a LIMIT alone is a view of the first rows.
pub(crate) fn order_limit(
    batch: &RecordBatch,
    order: Option<(&str, bool)>,
    limit: Option<usize>,
) -> Result<RecordBatch, SqlError> {
    match (order, limit) {
        (None, None) => Ok(batch.clone()),
        (None, Some(n)) => Ok(batch.slice(0, n.min(batch.num_rows()))),
        (Some((column, desc)), Some(n)) => {
            compute::top_n(batch, column, sort_order(desc), n).map_err(wrap)
        }
        (Some((column, desc)), None) => sort_by(batch, column, desc),
    }
}

/// Executes a parsed query against the database.
pub fn execute(q: &Query, db: &MemDb) -> Result<RecordBatch, SqlError> {
    execute_inner(q, db, &mut ExecSpans::disabled())
}

/// Executes a parsed query, recording per-operator [`Category::Exec`]
/// spans into `tracer` under a root `"query"` span.
pub fn execute_traced(q: &Query, db: &MemDb, tracer: &mut Tracer) -> Result<RecordBatch, SqlError> {
    let clock = Instant::now();
    let root = tracer.open("query", "exec", Category::Exec, None, SimTime::ZERO);
    let mut spans = ExecSpans {
        inner: Some((tracer, root)),
        profile: None,
        clock,
    };
    let out = execute_inner(q, db, &mut spans)?;
    spans.close_root(out.num_rows());
    Ok(out)
}

/// Selectivity of a filter step: fraction of input rows that pass.
fn selectivity(rows_in: usize, rows_out: usize) -> Option<f64> {
    (rows_in > 0).then(|| rows_out as f64 / rows_in as f64)
}

fn execute_inner(q: &Query, db: &MemDb, spans: &mut ExecSpans) -> Result<RecordBatch, SqlError> {
    let t0 = spans.now();
    let mut current = db.table(&q.from)?.clone();
    spans.op_ext(
        Op::Scan,
        t0,
        current.num_rows(),
        current.num_rows(),
        current.byte_size() as u64,
        None,
        KernelStats::default(),
    );

    // Pushdown-equivalent: conjuncts on base-table columns apply before
    // joins; the rest after. Each side fuses into a single mask.
    let (pushed, residual): (Vec<&Comparison>, Vec<&Comparison>) = match &q.predicate {
        Some(p) => p
            .conjuncts
            .iter()
            .partition(|c| current.schema().index_of(&c.column).is_ok()),
        None => (Vec::new(), Vec::new()),
    };
    if !pushed.is_empty() {
        let t0 = spans.now();
        let rows_in = current.num_rows();
        current = apply_conjuncts(&current, &pushed)?;
        spans.op_ext(
            Op::Filter,
            t0,
            rows_in,
            current.num_rows(),
            current.byte_size() as u64,
            selectivity(rows_in, current.num_rows()),
            KernelStats::default(),
        );
    }
    for j in &q.joins {
        let right = db.table(&j.table)?;
        let t0 = spans.now();
        let rows_in = current.num_rows() + right.num_rows();
        let mut ks = KernelStats::default();
        let (lr, rr) = join_rows(&current, right, &j.left_key, &j.right_key, &mut ks)?;
        current = assemble_join(&current, right, &j.right_key, &lr, &rr)?;
        spans.op_ext(
            Op::Join,
            t0,
            rows_in,
            current.num_rows(),
            current.byte_size() as u64,
            None,
            ks,
        );
    }
    if !residual.is_empty() {
        let t0 = spans.now();
        let rows_in = current.num_rows();
        current = apply_conjuncts(&current, &residual)?;
        spans.op_ext(
            Op::Filter,
            t0,
            rows_in,
            current.num_rows(),
            current.byte_size() as u64,
            selectivity(rows_in, current.num_rows()),
            KernelStats::default(),
        );
    }

    if q.is_aggregate() {
        let t0 = spans.now();
        let rows_in = current.num_rows();
        let mut ks = KernelStats::default();
        current = aggregate_with_stats(q, &current, &mut ks)?;
        spans.op_ext(
            Op::Aggregate,
            t0,
            rows_in,
            current.num_rows(),
            current.byte_size() as u64,
            None,
            ks,
        );
    } else {
        let cols = q.projected_columns();
        if !cols.is_empty() && !cols.contains(&"*") {
            let t0 = spans.now();
            current = current.project(&cols).map_err(wrap)?;
            spans.op_ext(
                Op::Project,
                t0,
                current.num_rows(),
                current.num_rows(),
                current.byte_size() as u64,
                None,
                KernelStats::default(),
            );
        }
    }

    let limit = q.limit.map(|n| n.max(0) as usize);
    let rows_in = current.num_rows();
    if let Some(ob) = &q.order_by {
        let t0 = spans.now();
        // The span reports the sorted relation: a permutation of this
        // one, so the same rows and bytes. Under a LIMIT only the rows the
        // limit keeps are sorted and gathered (the top-N kernel).
        let bytes = current.byte_size() as u64;
        current = order_limit(&current, Some((&ob.column, ob.descending)), limit)?;
        spans.op_ext(
            Op::Sort,
            t0,
            rows_in,
            rows_in,
            bytes,
            None,
            KernelStats::default(),
        );
    }
    if let Some(n) = limit {
        let t0 = spans.now();
        current = order_limit(&current, None, Some(n))?;
        spans.op_ext(
            Op::Limit,
            t0,
            rows_in,
            current.num_rows(),
            current.byte_size() as u64,
            None,
            KernelStats::default(),
        );
    }
    // Output boundary: results leave the engine as plain columns, so a
    // query over dictionary-encoded tables is byte-identical to one over
    // plain tables.
    Ok(current.dict_decoded())
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
        // Rendered-key order: click before view.
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
            "SELECT min(kind) AS lo FROM events",
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
    fn traced_query_emits_operator_spans() {
        let (out, trace) = db()
            .query_traced(
                "SELECT country, sum(value) AS total FROM events \
                 JOIN users ON user_id = user_id \
                 WHERE kind = 'click' GROUP BY country ORDER BY country LIMIT 5",
            )
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        trace.validate().unwrap();
        let names: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "query",
                "rel.scan",
                "rel.filter",
                "rel.join",
                "rel.aggregate",
                "rel.sort",
                "rel.limit"
            ]
        );
        assert_eq!(trace.count_category(Category::Exec), names.len());
        // Operator spans nest under the root and carry row counts.
        let root = trace.spans()[0].id;
        for s in &trace.spans()[1..] {
            assert_eq!(s.parent, Some(root));
            assert!(s.attr("rows_in").is_some() && s.attr("rows_out").is_some());
        }
        let agg = trace
            .spans()
            .iter()
            .find(|s| s.name == Op::Aggregate.name())
            .unwrap();
        assert_eq!(agg.attr("rows_out"), Some("2"));
        // The untraced path computes the identical answer.
        assert_eq!(
            db().query(
                "SELECT country, sum(value) AS total FROM events \
                 JOIN users ON user_id = user_id \
                 WHERE kind = 'click' GROUP BY country ORDER BY country LIMIT 5",
            )
            .unwrap(),
            out
        );
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
        assert!(def.has_column("name"));
        // The derived catalog plans real statements.
        let (g, _) = crate::sql::plan_sql("SELECT id FROM people WHERE id > 1", &catalog).unwrap();
        g.validate().unwrap();
    }
}
