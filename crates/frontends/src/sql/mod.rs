//! SQL frontend: lexer, parser, planner.
//!
//! Supported subset:
//!
//! ```sql
//! SELECT col | agg(col) [, ...]
//! FROM table [JOIN table2 ON t1col = t2col]
//! [WHERE col op literal [AND ...]]
//! [GROUP BY col [, ...]]
//! [ORDER BY col [DESC]]
//! [LIMIT n]
//! ```
//!
//! The planner types every column from the catalog's schemas; the rules
//! for each operator are in [`planner`]'s docs.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod planner;

pub use ast::{Query, SelectItem};
pub use lexer::{tokenize, Token};
pub use parser::parse;
pub use planner::plan_query;

use crate::catalog::Catalog;
use skadi_flowgraph::{FlowGraph, GraphError, VertexId};

/// Errors from the SQL frontend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Lexing failed at the given character offset.
    Lex {
        /// Offset of the bad character.
        offset: usize,
        /// The offending character.
        found: char,
    },
    /// A string literal was opened but never closed. Distinct from
    /// [`SqlError::Lex`] so the message can say what actually went
    /// wrong instead of blaming the opening quote.
    UnterminatedString {
        /// Offset of the opening quote.
        offset: usize,
    },
    /// Parsing failed.
    Parse(String),
    /// Planning failed (unknown table/column or graph error).
    Plan(String),
}

impl std::fmt::Display for SqlError {
    /// Human-readable rendering; this is the message remote clients see
    /// in wire `Exception` packets, so it names the problem rather than
    /// just the offending byte.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Lex { offset, found } => {
                write!(f, "unexpected character {found:?} at offset {offset}")
            }
            SqlError::UnterminatedString { offset } => {
                write!(
                    f,
                    "unterminated string literal starting at offset {offset} \
                     (use '' to write a quote inside a string)"
                )
            }
            SqlError::Parse(msg) => write!(f, "parse error: {msg}"),
            SqlError::Plan(msg) => write!(f, "planning error: {msg}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<GraphError> for SqlError {
    fn from(e: GraphError) -> Self {
        SqlError::Plan(e.to_string())
    }
}

/// If `stmt` starts with `EXPLAIN ANALYZE` (case-insensitive, any
/// whitespace), returns the statement body after the prefix; `None`
/// otherwise. This is how the frontend opts a query into profiled
/// execution without touching the grammar.
pub fn strip_explain_analyze(stmt: &str) -> Option<&str> {
    let rest = stmt.trim_start();
    let after_explain = rest
        .get(.."EXPLAIN".len())
        .filter(|w| w.eq_ignore_ascii_case("EXPLAIN"))
        .map(|_| &rest["EXPLAIN".len()..])?;
    if !after_explain.starts_with(char::is_whitespace) {
        return None;
    }
    let rest = after_explain.trim_start();
    let after_analyze = rest
        .get(.."ANALYZE".len())
        .filter(|w| w.eq_ignore_ascii_case("ANALYZE"))
        .map(|_| &rest["ANALYZE".len()..])?;
    if !after_analyze.starts_with(char::is_whitespace) {
        return None;
    }
    Some(after_analyze.trim_start())
}

/// Parses and plans one SQL statement onto a fresh FlowGraph, returning
/// the graph and its sink vertex.
pub fn plan_sql(sql: &str, catalog: &Catalog) -> Result<(FlowGraph, VertexId), SqlError> {
    let tokens = tokenize(sql)?;
    let query = parse(&tokens)?;
    let mut g = FlowGraph::new();
    let sink = plan_query(&query, catalog, &mut g)?;
    Ok((g, sink))
}

#[cfg(test)]
mod tests {
    use super::strip_explain_analyze;

    #[test]
    fn explain_analyze_prefix_detection() {
        assert_eq!(
            strip_explain_analyze("EXPLAIN ANALYZE SELECT 1"),
            Some("SELECT 1")
        );
        assert_eq!(
            strip_explain_analyze("  explain   Analyze\n SELECT x FROM t"),
            Some("SELECT x FROM t")
        );
        assert_eq!(strip_explain_analyze("SELECT 1"), None);
        assert_eq!(strip_explain_analyze("EXPLAIN SELECT 1"), None);
        assert_eq!(strip_explain_analyze("EXPLAINANALYZE SELECT 1"), None);
        assert_eq!(strip_explain_analyze("EXPLAIN"), None);
    }
}
