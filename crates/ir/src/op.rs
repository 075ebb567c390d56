//! The op vocabulary.
//!
//! One [`Op`] per hardware-agnostic operation that something in the tree
//! emits: the SQL planner and the local engine's spans (the `rel.*` ops),
//! the estimate-only frontends (relational and `tensor.*` ops) and E13.
//! Every `match` on an op is wildcard-free, so a new variant does not
//! compile until it has a name, a role here and a row in the cost table
//! ([`crate::backend`]).
//!
//! Beside it, the SQL vocabulary an op's arguments carry: [`CmpOp`] for a
//! filter's comparisons and [`AggFunc`] for an aggregate's functions. The
//! lexer and parser produce them, and plans and kernels only match on
//! them, so no layer below the parser reads an operator or function name.

/// A hardware-agnostic op a FlowGraph vertex runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read a base table.
    Scan,
    /// Keep the rows passing a predicate.
    Filter,
    /// Keep some columns.
    Project,
    /// Hash equi-join of two keyed inputs.
    Join,
    /// Grouped or global aggregation.
    Aggregate,
    /// Order rows (the local engine's ORDER BY; a distributed plan orders
    /// at its sink).
    Sort,
    /// Keep the first rows.
    Limit,
    /// Frame → tensor feature extraction.
    FromFrame,
    /// Element-wise tensor map.
    Map,
    /// Matrix multiply.
    MatMul,
    /// One optimizer step over the weights.
    SgdStep,
}

/// An op's place in a fused chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// One input, row by row: may follow its producer inside one task.
    PerRow,
    /// May start a chain that per-row ops follow, but follows nothing.
    Head,
    /// Neither: runs as a task of its own.
    Alone,
}

/// What a vertex running a fused chain of ops is called.
const FUSED: &str = "kernel.fused";

impl Op {
    /// Every op, in declaration order.
    pub const ALL: [Op; 11] = [
        Op::Scan,
        Op::Filter,
        Op::Project,
        Op::Join,
        Op::Aggregate,
        Op::Sort,
        Op::Limit,
        Op::FromFrame,
        Op::Map,
        Op::MatMul,
        Op::SgdStep,
    ];

    /// The op's text name, as plans, traces and profiles print it.
    pub const fn name(self) -> &'static str {
        match self {
            Op::Scan => "rel.scan",
            Op::Filter => "rel.filter",
            Op::Project => "rel.project",
            Op::Join => "rel.join",
            Op::Aggregate => "rel.aggregate",
            Op::Sort => "rel.sort",
            Op::Limit => "rel.limit",
            Op::FromFrame => "tensor.from_frame",
            Op::Map => "tensor.map",
            Op::MatMul => "tensor.matmul",
            Op::SgdStep => "tensor.sgd_step",
        }
    }

    fn role(self) -> Role {
        match self {
            // A per-shard top-N keeps a superset of the global one.
            Op::Filter | Op::Project | Op::Limit | Op::FromFrame | Op::Map => Role::PerRow,
            Op::Scan | Op::Join | Op::Aggregate => Role::Head,
            Op::Sort | Op::MatMul | Op::SgdStep => Role::Alone,
        }
    }

    /// True for ops with one input that work row by row: any of them may
    /// follow its producer inside one task.
    pub fn per_row(self) -> bool {
        self.role() == Role::PerRow
    }

    /// True for ops a fused chain may start with: the per-row ops, a scan,
    /// a join or an aggregate.
    pub fn heads_chain(self) -> bool {
        self.role() != Role::Alone
    }

    /// The name of a vertex that runs `ops` in order: the op's own name,
    /// or `kernel.fused` for a chain of several.
    pub fn label(ops: &[Op]) -> &'static str {
        match ops {
            [op] => op.name(),
            _ => FUSED,
        }
    }
}

/// A comparison a filter applies: the `op` of a `column op literal`
/// conjunct, from the lexer's token to the mask kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// `a op b`.
    #[inline]
    pub fn eval<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// An aggregate function, from the parser to the fold that computes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Rows (`count(*)`) or non-null values.
    Count,
    /// Sum of the non-null values.
    Sum,
    /// Least non-null value.
    Min,
    /// Greatest non-null value.
    Max,
    /// Mean of the non-null values.
    Avg,
}

impl AggFunc {
    /// Every function, in declaration order.
    pub const ALL: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];

    /// The function's name in lower case: how SQL spells it, and how an
    /// unaliased aggregate's output column is named (`sum(v)`).
    pub const fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    /// The function SQL calls `name`, in any letter case.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        AggFunc::ALL
            .into_iter()
            .find(|f| f.name().eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_and_dialect_prefixed() {
        let mut names: Vec<&str> = Op::ALL.iter().map(|op| op.name()).collect();
        assert!(names
            .iter()
            .all(|n| n.starts_with("rel.") || n.starts_with("tensor.")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Op::ALL.len());
    }

    #[test]
    fn roles_match_the_parent_fusion_rules() {
        let per_row: Vec<Op> = Op::ALL.into_iter().filter(|op| op.per_row()).collect();
        assert_eq!(
            per_row,
            [Op::Filter, Op::Project, Op::Limit, Op::FromFrame, Op::Map]
        );
        let heads: Vec<Op> = Op::ALL
            .into_iter()
            .filter(|op| op.heads_chain() && !op.per_row())
            .collect();
        assert_eq!(heads, [Op::Scan, Op::Join, Op::Aggregate]);
    }

    #[test]
    fn a_chain_of_several_is_a_fused_kernel() {
        assert_eq!(Op::label(&[Op::Join]), "rel.join");
        assert_eq!(Op::label(&[Op::Scan, Op::Filter]), "kernel.fused");
    }

    #[test]
    fn aggregate_names_round_trip_in_any_case() {
        for f in AggFunc::ALL {
            assert_eq!(AggFunc::from_name(f.name()), Some(f));
            assert_eq!(AggFunc::from_name(&f.name().to_ascii_uppercase()), Some(f));
        }
        assert_eq!(AggFunc::from_name("AvG"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("nope"), None);
        assert_eq!(AggFunc::from_name("sums"), None);
    }

    #[test]
    fn comparisons_evaluate_like_partial_ord() {
        let truth = |op: CmpOp| [op.eval(1, 2), op.eval(2, 2), op.eval(3, 2)];
        assert_eq!(truth(CmpOp::Eq), [false, true, false]);
        assert_eq!(truth(CmpOp::Ne), [true, false, true]);
        assert_eq!(truth(CmpOp::Lt), [true, false, false]);
        assert_eq!(truth(CmpOp::Le), [true, true, false]);
        assert_eq!(truth(CmpOp::Gt), [false, false, true]);
        assert_eq!(truth(CmpOp::Ge), [false, true, true]);
        // NaN compares unequal to everything, itself included.
        assert!(CmpOp::Ne.eval(f64::NAN, f64::NAN));
        assert!(!CmpOp::Le.eval(f64::NAN, 1.0));
    }
}
