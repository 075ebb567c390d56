//! SQL abstract syntax.
//!
//! A predicate's comparisons, an aggregate item and an ORDER BY are the
//! plan descriptors' own types ([`skadi_flowgraph::exec`]): the planner
//! moves them from the statement into the plan as they are.

pub use skadi_flowgraph::exec::{AggFunc, AggItem, CmpOp, Comparison, Literal, OrderBy};

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A bare column reference (`*`: every column). An `AS` alias parses
    /// but does not rename the column.
    Column(String),
    /// An aggregate call, named by its `AS` alias or as `func(column)`.
    Agg(AggItem),
}

/// An equi-join clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Right-side table.
    pub table: String,
    /// Left key column.
    pub left_key: String,
    /// Right key column.
    pub right_key: String,
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// SELECT list (empty means `*`).
    pub select: Vec<SelectItem>,
    /// Base table.
    pub from: String,
    /// Joins, in order.
    pub joins: Vec<Join>,
    /// The WHERE clause's comparisons, ANDed (none without a WHERE).
    pub filter: Vec<Comparison>,
    /// GROUP BY columns.
    pub group_by: Vec<String>,
    /// ORDER BY clause.
    pub order_by: Option<OrderBy>,
    /// LIMIT.
    pub limit: Option<u64>,
}

impl Query {
    /// True if the query aggregates (has an aggregate select item or a
    /// GROUP BY).
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty() || self.aggregates().next().is_some()
    }

    /// The aggregate items of the SELECT list, in order.
    pub fn aggregates(&self) -> impl Iterator<Item = &AggItem> {
        self.select.iter().filter_map(|s| match s {
            SelectItem::Agg(a) => Some(a),
            SelectItem::Column(_) => None,
        })
    }

    /// The names the statement answers, in SELECT order: a bare column's
    /// name, an aggregate's output name.
    pub(crate) fn output_names(&self) -> Vec<&str> {
        self.select
            .iter()
            .map(|s| match s {
                SelectItem::Column(c) => c.as_str(),
                SelectItem::Agg(a) => a.name.as_str(),
            })
            .collect()
    }

    /// The bare columns referenced in the SELECT list.
    pub fn projected_columns(&self) -> Vec<&str> {
        self.select
            .iter()
            .filter_map(|s| match s {
                SelectItem::Column(c) => Some(c.as_str()),
                SelectItem::Agg(_) => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let sum = AggItem {
            func: AggFunc::Sum,
            column: "v".into(),
            name: "sum(v)".into(),
        };
        let q = Query {
            select: vec![SelectItem::Agg(sum.clone())],
            from: "t".into(),
            joins: vec![],
            filter: vec![],
            group_by: vec![],
            order_by: None,
            limit: None,
        };
        assert!(q.is_aggregate());
        assert_eq!(q.aggregates().collect::<Vec<_>>(), [&sum]);
        let q2 = Query {
            select: vec![SelectItem::Column("a".into())],
            group_by: vec!["a".into()],
            ..q.clone()
        };
        assert!(q2.is_aggregate());
        assert_eq!(q2.projected_columns(), ["a"]);
        let q3 = Query {
            group_by: vec![],
            ..q2
        };
        assert!(!q3.is_aggregate());
    }
}
