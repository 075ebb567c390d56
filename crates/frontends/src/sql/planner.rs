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
//! left side already has. The planner follows the visible column list
//! through the plan by those rules, so a name that does not resolve is a
//! planning error here rather than a failed task later.

use std::collections::BTreeSet;

use skadi_flowgraph::{ExecAgg, ExecCompare, ExecLiteral, ExecOp, FlowGraph, VertexId};

use super::ast::{Comparison, Expr, Literal, Query};
use super::SqlError;
use crate::catalog::{Catalog, TableDef};

/// Assumed selectivity of one predicate conjunct.
const CONJUNCT_SELECTIVITY: f64 = 0.4;
/// Assumed group-count reduction of an aggregation.
const AGG_REDUCTION: f64 = 0.01;

/// Relational operator names, shared between the planner's FlowGraph
/// vertices and the local engine's exec spans so a priced plan and a real
/// execution correlate by name.
pub mod ops {
    /// Base-table scan (planner: the source vertex named after the table).
    pub const SCAN: &str = "rel.scan";
    /// WHERE conjunction.
    pub const FILTER: &str = "rel.filter";
    /// Hash equi-join.
    pub const JOIN: &str = "rel.join";
    /// GROUP BY / global aggregation.
    pub const AGGREGATE: &str = "rel.aggregate";
    /// Column projection.
    pub const PROJECT: &str = "rel.project";
    /// ORDER BY (local engine only: a distributed plan orders at its sink).
    pub const SORT: &str = "rel.sort";
    /// LIMIT.
    pub const LIMIT: &str = "rel.limit";
}

fn exec_literal(l: &Literal) -> ExecLiteral {
    match l {
        Literal::Int(v) => ExecLiteral::Int(*v),
        Literal::Float(v) => ExecLiteral::Float(*v),
        Literal::Str(s) => ExecLiteral::Str(s.clone()),
    }
}

/// The aggregate items of the SELECT list as executable descriptors,
/// named exactly like the local engine names its output columns.
fn exec_aggs(q: &Query) -> Vec<ExecAgg> {
    q.select
        .iter()
        .filter_map(|item| match &item.expr {
            Expr::Agg { func, column } => Some(ExecAgg {
                func: func.clone(),
                column: column.clone(),
                name: item
                    .alias
                    .clone()
                    .unwrap_or_else(|| format!("{func}({column})")),
            }),
            Expr::Column(_) => None,
        })
        .collect()
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
/// order) and its cardinality estimate.
struct Head {
    at: VertexId,
    cols: Vec<String>,
    rows: u64,
    bytes: u64,
}

impl Head {
    fn scan(g: &mut FlowGraph, name: &str, def: &TableDef) -> Head {
        let at = g.add_source(name, def.rows, def.bytes);
        g.set_exec(
            at,
            ExecOp::Scan {
                table: name.to_string(),
            },
        );
        Head {
            at,
            cols: def.columns.iter().map(|(c, _)| c.clone()).collect(),
            rows: def.rows,
            bytes: def.bytes,
        }
    }

    /// A name read at this point must be one of the visible columns.
    fn resolve(&self, name: &str) -> Result<(), SqlError> {
        if self.cols.iter().any(|c| c == name) {
            Ok(())
        } else {
            Err(SqlError::Plan(format!("unknown column {name:?}")))
        }
    }

    /// Appends a single-input operator on a plain data edge, sized by the
    /// current estimate.
    fn push(&mut self, g: &mut FlowGraph, op: &str, exec: ExecOp) -> Result<(), SqlError> {
        let v = g.add_ir_op(op, self.rows, self.bytes);
        g.set_exec(v, exec);
        g.connect(self.at, v)?;
        self.at = v;
        Ok(())
    }

    fn scale(&mut self, rows: f64, bytes: f64) {
        self.rows = ((self.rows as f64) * rows).max(1.0) as u64;
        self.bytes = ((self.bytes as f64) * bytes).max(1.0) as u64;
    }

    fn project(&mut self, g: &mut FlowGraph, columns: Vec<String>) -> Result<(), SqlError> {
        self.scale(1.0, columns.len() as f64 / self.cols.len().max(1) as f64);
        self.cols.clone_from(&columns);
        self.push(g, ops::PROJECT, ExecOp::Project { columns })
    }

    /// Column pruning: projects down to the columns `keep` accepts, if
    /// that drops any.
    fn prune(&mut self, g: &mut FlowGraph, keep: impl Fn(&str) -> bool) -> Result<(), SqlError> {
        let kept: Vec<String> = self.cols.iter().filter(|c| keep(c)).cloned().collect();
        if kept.len() == self.cols.len() {
            return Ok(());
        }
        self.project(g, kept)
    }

    fn filter(&mut self, g: &mut FlowGraph, conjuncts: &[&Comparison]) -> Result<(), SqlError> {
        if conjuncts.is_empty() {
            return Ok(());
        }
        let sel = CONJUNCT_SELECTIVITY.powi(conjuncts.len() as i32);
        self.scale(sel, sel);
        let conjuncts = conjuncts
            .iter()
            .map(|c| ExecCompare {
                column: c.column.clone(),
                op: c.op.clone(),
                value: exec_literal(&c.value),
            })
            .collect();
        self.push(g, ops::FILTER, ExecOp::Filter { conjuncts })
    }
}

/// Plans a query onto `g`, returning the sink vertex. Every vertex gets
/// an executable shard descriptor ([`ExecOp`]) beside its cost hints, so
/// the lowered physical graph can actually run.
///
/// Each scan and join is followed by a projection down to the names
/// still read above it, and LIMIT sits on a plain data edge behind the
/// last operator; the optimizer folds both into the task in front of
/// them, so a shard stores only what the answer reads. ORDER BY is not a
/// stage of its own: no per-shard sort yields a global order, so the sink
/// sorts what it gathers.
pub fn plan_query(q: &Query, catalog: &Catalog, g: &mut FlowGraph) -> Result<VertexId, SqlError> {
    let table = |name: &str| {
        catalog
            .get(name)
            .ok_or_else(|| SqlError::Plan(format!("unknown table {name:?}")))
    };
    let base = table(&q.from)?;

    // Predicate pushdown: conjuncts that only touch the base table apply
    // before joins; the rest after.
    let (pushed, residual): (Vec<&Comparison>, Vec<&Comparison>) = q
        .predicate
        .iter()
        .flat_map(|p| &p.conjuncts)
        .partition(|c| base.has_column(&c.column));

    // What each stretch of the plan still reads, from the top down: the
    // output stage, then the residual predicate, then each join's left key.
    let aggs = exec_aggs(q);
    let select = q.projected_columns();
    let top: Reads = if q.is_aggregate() {
        let args = aggs.iter().map(|a| a.column.as_str());
        Some(q.group_by.iter().map(String::as_str).chain(args).collect())
    } else if select.is_empty() || select.contains(&"*") {
        None
    } else {
        Some(select.iter().copied().collect())
    };
    // `above[i]`: the names read above the left input of join `i`, and
    // past the last join, above its output.
    let mut above = vec![reads_also(&top, residual.iter().map(|c| c.column.as_str()))];
    for j in q.joins.iter().rev() {
        let below = reads_also(above.last().expect("seeded"), [j.left_key.as_str()]);
        above.push(below);
    }
    above.reverse();

    let mut head = Head::scan(g, &q.from, base);
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
        let mut right = Head::scan(g, &j.table, right_def);
        head.resolve(&j.left_key)?;
        right.resolve(&j.right_key)?;
        // The join emits neither the right key nor a right column whose
        // name the left side has; of those only the key is read at all.
        let emitted = |c: &str| c != j.right_key && !head.cols.iter().any(|l| l == c);
        right.prune(g, |c| c == j.right_key || (emitted(c) && reads(above, c)))?;
        right.cols.retain(|c| emitted(c));

        head.rows = head.rows.max(right.rows);
        head.bytes += right.bytes / 4;
        let join = g.add_ir_op(ops::JOIN, head.rows, head.bytes);
        g.set_exec(
            join,
            ExecOp::Join {
                left_key: j.left_key.clone(),
                right_key: j.right_key.clone(),
                right_rows: right_def.rows,
            },
        );
        g.connect_keyed(head.at, join, &j.left_key)?;
        g.connect_keyed_port(right.at, join, &j.right_key, 1)?;
        head.at = join;
        head.cols.append(&mut right.cols);
        head.prune(g, |c| reads(above, c))?;
    }

    // Residual predicate after joins.
    for c in &residual {
        head.resolve(&c.column)?;
    }
    head.filter(g, &residual)?;
    head.prune(g, |c| reads(&top, c))?;

    // Aggregation (keyed on the first GROUP BY column) or projection.
    if q.is_aggregate() {
        for k in &q.group_by {
            head.resolve(k)?;
        }
        for a in &aggs {
            if a.func != "count" || a.column != "*" {
                head.resolve(&a.column)?;
            }
        }
        let rows_in = head.rows;
        head.scale(AGG_REDUCTION, AGG_REDUCTION);
        head.bytes = head.bytes.max(64);
        let agg = g.add_ir_op(ops::AGGREGATE, rows_in, head.bytes);
        head.cols = q.group_by.clone();
        head.cols.extend(aggs.iter().map(|a| a.name.clone()));
        g.set_exec(
            agg,
            ExecOp::Aggregate {
                group_by: q.group_by.clone(),
                aggs,
            },
        );
        match q.group_by.first() {
            Some(k) => g.connect_keyed(head.at, agg, k)?,
            None => g.connect(head.at, agg)?,
        }
        head.at = agg;
    } else if top.is_some() {
        for name in &select {
            head.resolve(name)?;
        }
        if head.cols != select {
            head.project(g, select.iter().map(|c| c.to_string()).collect())?;
        }
    }

    let order = match &q.order_by {
        Some(ob) => {
            head.resolve(&ob.column)?;
            Some((ob.column.clone(), ob.descending))
        }
        None => None,
    };
    let limit = q.limit.map(|n| n.max(0) as u64);
    if let Some(n) = limit {
        head.rows = head.rows.min(n);
        head.bytes = head.bytes.min(head.rows.saturating_mul(64).max(64));
        let order = order.clone();
        head.push(g, ops::LIMIT, ExecOp::Limit { n, order })?;
    }

    let sink = g.add_sink("result");
    g.set_exec(
        sink,
        ExecOp::Collect {
            order_by: order,
            limit,
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
            .find(|v| v.body.name() == "rel.join")
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
            .find(|v| v.body.name() == "rel.aggregate")
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
        let order = Some(("s".to_string(), true));
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
            vec![
                vec!["user_id", "value"],
                vec!["user_id"],
                vec!["country", "age"],
                vec!["country"],
            ]
        );
        assert_eq!(
            names(&g),
            vec![
                "events",
                "rel.project",
                "rel.filter",
                "rel.project",
                "users",
                "rel.join",
                "rel.project",
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
        let c = Catalog::demo().table(
            "clicks",
            TableDef::new(
                &[
                    ("uid", skadi_ir::types::ScalarType::I64),
                    ("kind", skadi_ir::types::ScalarType::Str),
                    ("age", skadi_ir::types::ScalarType::I64),
                ],
                100,
                1000,
            ),
        );
        // `kind` resolves to events.kind, so clicks ships its key and `age`.
        let (g, _) = plan_sql(
            "SELECT kind, age FROM events JOIN clicks ON user_id = uid",
            &c,
        )
        .unwrap();
        assert_eq!(
            projections(&g),
            vec![
                vec!["user_id", "kind"],
                vec!["uid", "age"],
                vec!["kind", "age"]
            ]
        );
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
            .find(|v| v.body.name() == "rel.filter")
            .unwrap();
        assert!(filt.rows_hint < scan.rows_hint / 5);
    }
}
