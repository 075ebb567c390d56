//! SQL planner: AST -> FlowGraph.
//!
//! The planner applies textbook rules — predicate pushdown below joins,
//! keyed (shuffle) edges for joins and aggregations, column pruning at
//! every scan and join, LIMIT below the final gather — and annotates
//! vertices with cardinality estimates from the catalog so the physical
//! lowering can cost them.
//!
//! Names are flat, as in the reference engine: a join emits every left
//! column, then the right columns except the key and any whose name the
//! left side already has. The planner follows the visible columns, with
//! their types from the catalog's schemas, through the plan by those
//! rules, so a name that does not resolve or an operator that does not
//! fit its column's type is a planning error here rather than a failed
//! task later. Three type rules, each one function the kernel that
//! implements the operator calls too:
//!
//! - a comparison's literal fits its column: `Int64` and `Float64` take an
//!   integer or a float literal, `Utf8` and `DictUtf8` a string, and
//!   nothing else is accepted ([`compared_value`]);
//! - `sum`, `min`, `max` and `avg` take an `Int64` or `Float64` column and
//!   `count` takes any; the output type comes from the same function
//!   ([`aggregate_type`]);
//! - join keys have one logical type, or are `Int64` against `Float64`
//!   ([`JoinKeyRule::of`]).
//!
//! A scanned table may not carry a column with the `"__"` prefix: the
//! data plane threads its hidden bookkeeping columns under those names.

use std::collections::BTreeSet;

use skadi_arrow::schema::Field;
use skadi_flowgraph::{AggItem, Comparison, ExecOp, FlowGraph, VertexId};

use super::ast::Query;
use super::SqlError;
use crate::catalog::{Catalog, TableDef};
use crate::exec::{aggregate_type, compared_value, JoinKeyRule};

/// Assumed selectivity of one predicate conjunct.
const CONJUNCT_SELECTIVITY: f64 = 0.4;
/// Assumed group-count reduction of an aggregation.
const AGG_REDUCTION: f64 = 0.01;

/// The text names of the relational ops, for readers that match on a
/// profile's or a trace's op name. Plans and the local engine's spans name
/// their ops with [`skadi_ir::Op`] itself.
pub mod ops {
    use skadi_ir::Op;

    /// Base-table scan.
    pub const SCAN: &str = Op::Scan.name();
    /// WHERE conjunction.
    pub const FILTER: &str = Op::Filter.name();
    /// Hash equi-join.
    pub const JOIN: &str = Op::Join.name();
    /// GROUP BY / global aggregation.
    pub const AGGREGATE: &str = Op::Aggregate.name();
    /// ORDER BY (local engine only: a distributed plan orders at its sink).
    pub const SORT: &str = Op::Sort.name();
}

/// The column names read above some point of the plan; `None` reads every
/// column (`SELECT *`).
type Reads<'q> = Option<BTreeSet<&'q str>>;

fn reads(above: &Reads, name: &str) -> bool {
    above.as_ref().is_none_or(|names| names.contains(name))
}

fn reads_also<'q>(above: &Reads<'q>, more: impl IntoIterator<Item = &'q str>) -> Reads<'q> {
    above.clone().map(|mut names| {
        names.extend(more);
        names
    })
}

/// The newest vertex of a plan branch, the visible columns it emits (in
/// order, typed) and its cardinality estimate.
struct Head {
    at: VertexId,
    cols: Vec<Field>,
    rows: u64,
    bytes: u64,
}

impl Head {
    fn scan(g: &mut FlowGraph, name: &str, def: &TableDef) -> Result<Head, SqlError> {
        let fields = def.schema.fields();
        if let Some(f) = fields.iter().find(|f| f.name.starts_with("__")) {
            let column = &f.name;
            let text = format!("table {name:?}: column {column:?} uses the reserved \"__\" prefix");
            return Err(SqlError::Plan(text));
        }
        let at = g.add_source(name, def.rows, def.bytes);
        g.set_exec(
            at,
            ExecOp::Scan {
                table: name.to_string(),
            },
        );
        Ok(Head {
            at,
            cols: fields.to_vec(),
            rows: def.rows,
            bytes: def.bytes,
        })
    }

    /// The visible column a name read at this point resolves to.
    fn resolve(&self, name: &str) -> Result<&Field, SqlError> {
        self.cols
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| SqlError::Plan(format!("unknown column {name:?}")))
    }

    /// Appends a single-input operator on a plain data edge, sized by the
    /// current estimate.
    fn push(&mut self, g: &mut FlowGraph, exec: ExecOp) -> Result<(), SqlError> {
        let v = g.add_exec(exec, self.rows, self.bytes);
        g.connect(self.at, v)?;
        self.at = v;
        Ok(())
    }

    fn scale(&mut self, rows: f64, bytes: f64) {
        self.rows = ((self.rows as f64) * rows).max(1.0) as u64;
        self.bytes = ((self.bytes as f64) * bytes).max(1.0) as u64;
    }

    fn project(&mut self, g: &mut FlowGraph, columns: Vec<Field>) -> Result<(), SqlError> {
        self.scale(1.0, columns.len() as f64 / self.cols.len().max(1) as f64);
        let names = columns.iter().map(|c| c.name.clone()).collect();
        self.cols = columns;
        self.push(g, ExecOp::Project { columns: names })
    }

    /// Column pruning: projects down to the columns `keep` accepts, if
    /// that drops any.
    fn prune(&mut self, g: &mut FlowGraph, keep: impl Fn(&str) -> bool) -> Result<(), SqlError> {
        let mut kept = self.cols.clone();
        kept.retain(|c| keep(&c.name));
        if kept.len() == self.cols.len() {
            return Ok(());
        }
        self.project(g, kept)
    }

    fn filter(&mut self, g: &mut FlowGraph, conjuncts: &[&Comparison]) -> Result<(), SqlError> {
        for c in conjuncts {
            compared_value(c, self.resolve(&c.column)?.data_type)?;
        }
        if conjuncts.is_empty() {
            return Ok(());
        }
        let sel = CONJUNCT_SELECTIVITY.powi(conjuncts.len() as i32);
        self.scale(sel, sel);
        let conjuncts = conjuncts.iter().map(|&c| c.clone()).collect();
        self.push(g, ExecOp::Filter { conjuncts })
    }
}

/// Plans a query onto `g`, returning the sink vertex. Every vertex gets
/// an executable shard descriptor ([`ExecOp`]) beside its cost hints, so
/// the lowered physical graph can actually run.
///
/// Each scan is followed by a projection down to the names still read
/// above it, a join emits only those names ([`ExecOp::Join`]'s
/// `columns`), and LIMIT sits on a plain data edge behind the last
/// operator; the optimizer folds projections and LIMIT into the task in
/// front of them, so a shard stores only what the answer reads. ORDER BY
/// is not a stage of its own: no per-shard sort yields a global order, so
/// the sink sorts what it gathers.
pub fn plan_query(q: &Query, catalog: &Catalog, g: &mut FlowGraph) -> Result<VertexId, SqlError> {
    let table = |name: &str| {
        catalog
            .get(name)
            .ok_or_else(|| SqlError::Plan(format!("unknown table {name:?}")))
    };
    let mut head = Head::scan(g, &q.from, table(&q.from)?)?;

    // Predicate pushdown: conjuncts that only touch the base table apply
    // before joins; the rest after.
    let (pushed, residual): (Vec<&Comparison>, Vec<&Comparison>) = q
        .filter
        .iter()
        .partition(|c| head.resolve(&c.column).is_ok());

    // What each stretch of the plan still reads, from the top down: the
    // output stage, then the residual predicate, then each join's left key.
    let aggs: Vec<AggItem> = q.aggregates().cloned().collect();
    let select = q.projected_columns();
    let top: Reads = if q.is_aggregate() {
        // The plain select items are read too, so that one the GROUP BY
        // does not list resolves (and is refused) at the aggregate.
        let args = aggs.iter().filter_map(AggItem::input);
        let plain = select.iter().copied().filter(|c| *c != "*");
        let keys = q.group_by.iter().map(String::as_str);
        Some(keys.chain(args).chain(plain).collect())
    } else if select.is_empty() || select.contains(&"*") {
        None
    } else {
        Some(select.iter().copied().collect())
    };
    // `above[i]`: the names read above the left input of join `i`, and
    // past the last join, above its output.
    let mut here = reads_also(&top, residual.iter().map(|c| c.column.as_str()));
    let mut above = vec![here.clone()];
    for j in q.joins.iter().rev() {
        here = reads_also(&here, [j.left_key.as_str()]);
        above.push(here.clone());
    }
    above.reverse();

    head.prune(g, |c| {
        reads(&above[0], c) || pushed.iter().any(|p| p.column == c)
    })?;
    head.filter(g, &pushed)?;
    head.prune(g, |c| reads(&above[0], c))?;

    // Joins: shuffle both sides on their keys. The probe side arrives on
    // port 0, the build side on port 1, so shard execution can tell them
    // apart.
    for (j, above) in q.joins.iter().zip(&above[1..]) {
        let right_def = table(&j.table)?;
        let mut right = Head::scan(g, &j.table, right_def)?;
        let left_type = head.resolve(&j.left_key)?.data_type;
        JoinKeyRule::of(left_type, right.resolve(&j.right_key)?.data_type)?;
        // The join emits neither the right key nor a right column whose
        // name the left side has; of those only the key is read at all.
        let emitted = |c: &str| c != j.right_key && !head.cols.iter().any(|l| l.name == c);
        right.prune(g, |c| c == j.right_key || (emitted(c) && reads(above, c)))?;
        right.cols.retain(|c| emitted(&c.name));
        // The join gathers only what is read above it, so no projection
        // follows it.
        let joined = head.cols.len() + right.cols.len();
        head.cols.append(&mut right.cols);
        head.cols.retain(|c| reads(above, &c.name));
        let columns = head.cols.iter().map(|c| c.name.clone()).collect();

        head.rows = head.rows.max(right.rows);
        head.bytes += right.bytes / 4;
        if head.cols.len() < joined {
            head.scale(1.0, head.cols.len() as f64 / joined as f64);
        }
        let join = g.add_exec(
            ExecOp::Join {
                left_key: j.left_key.clone(),
                right_key: j.right_key.clone(),
                right_rows: right_def.rows,
                columns,
            },
            head.rows,
            head.bytes,
        );
        g.connect_keyed(head.at, join, &j.left_key)?;
        g.connect_keyed_port(right.at, join, &j.right_key, 1)?;
        head.at = join;
    }

    // Residual predicate after joins.
    head.filter(g, &residual)?;
    head.prune(g, |c| reads(&top, c))?;

    // Aggregation (keyed on the first GROUP BY column) or projection.
    if q.is_aggregate() {
        let mut cols = Vec::with_capacity(q.group_by.len() + aggs.len());
        for k in &q.group_by {
            cols.push(head.resolve(k)?.clone());
        }
        for a in &aggs {
            let input = a.input().map(|c| head.resolve(c)).transpose()?;
            let output = aggregate_type(a, input.map(|f| f.data_type))?;
            cols.push(Field::new(a.name.clone(), output, true));
        }
        // An aggregate answers its keys and aggregates alone: a plain
        // select item must be a known column, and a GROUP BY key.
        for &c in select.iter().filter(|c| **c != "*") {
            head.resolve(c)?;
        }
        if select.contains(&"*") {
            let text = "SELECT * in an aggregate query: list its GROUP BY keys and aggregates";
            return Err(SqlError::Plan(text.to_string()));
        }
        if let Some(c) = select.iter().find(|c| !q.group_by.iter().any(|k| k == *c)) {
            let text = format!("column {c:?} is selected but not a GROUP BY key");
            return Err(SqlError::Plan(text));
        }
        let rows_in = head.rows;
        head.scale(AGG_REDUCTION, AGG_REDUCTION);
        head.bytes = head.bytes.max(64);
        head.cols = cols;
        let agg = g.add_exec(
            ExecOp::Aggregate {
                group_by: q.group_by.clone(),
                aggs,
            },
            rows_in,
            head.bytes,
        );
        match q.group_by.first() {
            Some(k) => g.connect_keyed(head.at, agg, k)?,
            None => g.connect(head.at, agg)?,
        }
        head.at = agg;
        // The answer is the select list in its own order, without a key
        // the list leaves out; the aggregate emits its keys, then its
        // aggregates, so a projection follows it where the two differ.
        let output = q
            .output_names()
            .into_iter()
            .map(|c| head.resolve(c).cloned());
        let output: Vec<Field> = output.collect::<Result<_, _>>()?;
        if head.cols != output {
            head.project(g, output)?;
        }
    } else if top.is_some() {
        let selected = select.iter().map(|name| head.resolve(name).cloned());
        let selected: Vec<Field> = selected.collect::<Result<_, _>>()?;
        if head.cols != selected {
            head.project(g, selected)?;
        }
    }

    if let Some(ob) = &q.order_by {
        if head.resolve(&ob.column).is_err() {
            let text = format!("ORDER BY column {:?} is not an output column", ob.column);
            return Err(SqlError::Plan(text));
        }
    }
    if let Some(n) = q.limit {
        head.rows = head.rows.min(n);
        head.bytes = head.bytes.min(head.rows.saturating_mul(64).max(64));
        let order = q.order_by.clone();
        head.push(g, ExecOp::Limit { n, order })?;
    }

    let sink = g.add_sink("result");
    g.set_exec(
        sink,
        ExecOp::Collect {
            order_by: q.order_by.clone(),
            limit: q.limit,
        },
    );
    g.connect(head.at, sink)?;
    Ok(sink)
}

#[cfg(test)]
mod tests {
    use super::super::plan_sql;
    use super::*;
    use skadi_flowgraph::EdgeKind;
    use skadi_ir::Op;

    fn names(g: &FlowGraph) -> Vec<String> {
        g.vertices()
            .iter()
            .map(|v| v.body.name().to_string())
            .collect()
    }

    #[test]
    fn simple_scan_project() {
        let (g, _sink) = plan_sql("SELECT user_id FROM events", &Catalog::demo()).unwrap();
        let n = names(&g);
        assert_eq!(n, vec!["events", "rel.project", "result"]);
        g.validate().unwrap();
    }

    #[test]
    fn filter_pushed_below_join() {
        let (g, _) = plan_sql(
            "SELECT country FROM events JOIN users ON user_id = user_id WHERE value > 0.5",
            &Catalog::demo(),
        )
        .unwrap();
        let n = names(&g);
        // Filter (on events.value) sits between the events scan and the
        // join.
        let fpos = n.iter().position(|x| x == "rel.filter").unwrap();
        let jpos = n.iter().position(|x| x == "rel.join").unwrap();
        assert!(fpos < jpos, "{n:?}");
        g.validate().unwrap();
    }

    #[test]
    fn join_edges_are_keyed() {
        let (g, _) = plan_sql(
            "SELECT country FROM events JOIN users ON user_id = user_id",
            &Catalog::demo(),
        )
        .unwrap();
        let join = g
            .vertices()
            .iter()
            .find(|v| v.body.ops() == [Op::Join])
            .unwrap()
            .id;
        for input in g.inputs_of(join) {
            match &g.edge_between(input, join).unwrap().kind {
                EdgeKind::Keyed(k) => assert_eq!(k, "user_id"),
                other => panic!("join edge not keyed: {other:?}"),
            }
        }
    }

    #[test]
    fn aggregate_keyed_on_group_by() {
        let (g, _) = plan_sql(
            "SELECT kind, sum(value) FROM events GROUP BY kind",
            &Catalog::demo(),
        )
        .unwrap();
        let agg = g
            .vertices()
            .iter()
            .find(|v| v.body.ops() == [Op::Aggregate])
            .unwrap();
        let input = g.inputs_of(agg.id)[0];
        assert_eq!(
            g.edge_between(input, agg.id).unwrap().kind,
            EdgeKind::Keyed("kind".into())
        );
        // Aggregation shrinks output.
        assert!(agg.output_bytes_hint < g.vertex(input).output_bytes_hint);
    }

    #[test]
    fn limit_follows_the_last_operator_and_order_by_is_the_sinks() {
        let (g, sink) = plan_sql(
            "SELECT kind, sum(value) AS s FROM events GROUP BY kind ORDER BY s DESC LIMIT 5",
            &Catalog::demo(),
        )
        .unwrap();
        let n = names(&g);
        assert_eq!(
            n,
            vec![
                "events",
                "rel.project",
                "rel.aggregate",
                "rel.limit",
                "result"
            ]
        );
        let limit = g.inputs_of(sink)[0];
        let agg = g.inputs_of(limit)[0];
        assert_eq!(g.edge_between(agg, limit).unwrap().kind, EdgeKind::Data);
        let order = Some(skadi_flowgraph::OrderBy {
            column: "s".into(),
            descending: true,
        });
        assert_eq!(
            g.vertex(limit).exec,
            Some(ExecOp::Limit {
                n: 5,
                order: order.clone()
            })
        );
        assert_eq!(
            g.vertex(sink).exec,
            Some(ExecOp::Collect {
                order_by: order,
                limit: Some(5)
            })
        );
        g.validate().unwrap();
    }

    fn projections(g: &FlowGraph) -> Vec<Vec<String>> {
        g.vertices()
            .iter()
            .filter_map(|v| match &v.exec {
                Some(ExecOp::Project { columns }) => Some(columns.clone()),
                _ => None,
            })
            .collect()
    }

    fn join_columns(g: &FlowGraph) -> Vec<Vec<String>> {
        g.vertices()
            .iter()
            .filter_map(|v| match &v.exec {
                Some(ExecOp::Join { columns, .. }) => Some(columns.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn scans_and_joins_are_pruned_to_what_is_read_above_them() {
        // events(user_id, ts, kind, value) JOIN users(user_id, country, age):
        // `value` dies at the pushed filter, the key at the join, `age` at
        // the residual filter; every column of `users` is read.
        let (g, _) = plan_sql(
            "SELECT country, count(*) AS n FROM events JOIN users ON user_id = user_id \
             WHERE value > 0.5 AND age > 30 GROUP BY country",
            &Catalog::demo(),
        )
        .unwrap();
        assert_eq!(
            projections(&g),
            vec![vec!["user_id", "value"], vec!["user_id"], vec!["country"]]
        );
        assert_eq!(join_columns(&g), vec![vec!["country", "age"]]);
        assert_eq!(
            names(&g),
            vec![
                "events",
                "rel.project",
                "rel.filter",
                "rel.project",
                "users",
                "rel.join",
                "rel.filter",
                "rel.project",
                "rel.aggregate",
                "result"
            ]
        );
    }

    #[test]
    fn star_prunes_nothing_and_count_star_prunes_everything() {
        let c = Catalog::demo();
        let (g, _) = plan_sql("SELECT * FROM events WHERE value > 1", &c).unwrap();
        assert!(projections(&g).is_empty());
        let (g, _) = plan_sql("SELECT count(*) AS n FROM events", &c).unwrap();
        assert_eq!(projections(&g), vec![Vec::<String>::new()]);
    }

    #[test]
    fn a_right_column_the_left_side_shadows_is_not_scanned() {
        use skadi_arrow::datatype::DataType;
        use skadi_arrow::schema::Schema;
        let clicks = Schema::new(vec![
            Field::new("uid", DataType::Int64, true),
            Field::new("kind", DataType::Utf8, true),
            Field::new("age", DataType::Int64, true),
        ]);
        let c = Catalog::demo().table("clicks", TableDef::new(clicks, 100, 1000));
        // `kind` resolves to events.kind, so clicks ships its key and `age`.
        let (g, _) = plan_sql(
            "SELECT kind, age FROM events JOIN clicks ON user_id = uid",
            &c,
        )
        .unwrap();
        assert_eq!(
            projections(&g),
            vec![vec!["user_id", "kind"], vec!["uid", "age"]]
        );
        assert_eq!(join_columns(&g), vec![vec!["kind", "age"]]);
    }

    #[test]
    fn unknown_table_and_column_rejected() {
        let c = Catalog::demo();
        for sql in [
            "SELECT a FROM missing",
            "SELECT user_id FROM events JOIN missing ON user_id = user_id",
            "SELECT user_id FROM events WHERE nope = 1",
            "SELECT nope FROM events",
            "SELECT user_id FROM events ORDER BY nope",
            "SELECT user_id FROM events ORDER BY value",
            "SELECT count(*) AS n FROM events GROUP BY nope",
            "SELECT sum(nope) AS s FROM events",
            "SELECT sum(*) AS s FROM events",
            "SELECT kind, count(*) AS n FROM events GROUP BY kind ORDER BY value",
            "SELECT country FROM events JOIN users ON nope = user_id",
            "SELECT country FROM events JOIN users ON user_id = nope",
            // The join drops the right key: `age` is users' only `age`.
            "SELECT country FROM events JOIN users ON user_id = age WHERE age > 3",
        ] {
            assert!(matches!(plan_sql(sql, &c), Err(SqlError::Plan(_))), "{sql}");
        }
        // Names the reference engine resolves, resolve: an aggregate's
        // output name, a residual predicate on the right table, and
        // whatever rides beside `*` (never looked at).
        for sql in [
            "SELECT kind, sum(value) AS s FROM events GROUP BY kind ORDER BY s",
            "SELECT country FROM events JOIN users ON user_id = user_id WHERE age > 3",
            "SELECT nope, * FROM events",
        ] {
            plan_sql(sql, &c).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn filter_shrinks_cardinality() {
        let (g, _) = plan_sql(
            "SELECT user_id FROM events WHERE value > 0.5 AND kind = 'x'",
            &Catalog::demo(),
        )
        .unwrap();
        let scan = g
            .vertices()
            .iter()
            .find(|v| v.body.name() == "events")
            .unwrap();
        let filt = g
            .vertices()
            .iter()
            .find(|v| v.body.ops() == [Op::Filter])
            .unwrap();
        assert!(filt.rows_hint < scan.rows_hint / 5);
    }
}
