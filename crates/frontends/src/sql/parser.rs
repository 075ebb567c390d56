//! Recursive-descent parser for the SQL subset.

use super::ast::{AggFunc, AggItem, CmpOp, Comparison, Join, Literal, OrderBy, Query, SelectItem};
use super::lexer::Token;
use super::SqlError;

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&'a Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        match self.next() {
            Some(Token::Keyword(k)) if k == kw => Ok(()),
            other => Err(SqlError::Parse(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s.clone()),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// `func(column)` after its name. Unless an alias renames it, the
    /// output column is named `func(column)`, the function in lower case.
    fn aggregate_call(&mut self, name: &str) -> Result<AggItem, SqlError> {
        self.pos += 1; // `(`
        let column = match self.next() {
            Some(Token::Ident(c)) => c.clone(),
            Some(Token::Star) => "*".to_string(),
            other => {
                return Err(SqlError::Parse(format!(
                    "expected aggregate argument, found {other:?}"
                )))
            }
        };
        match self.next() {
            Some(Token::RParen) => {}
            other => return Err(SqlError::Parse(format!("expected ')', found {other:?}"))),
        }
        let func = AggFunc::from_name(name).ok_or_else(|| {
            let name = name.to_ascii_lowercase();
            SqlError::Parse(format!("unsupported aggregate {name:?}"))
        })?;
        Ok(AggItem {
            name: format!("{}({column})", func.name()),
            func,
            column,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        let mut item = match self.next() {
            Some(Token::Star) => SelectItem::Column("*".to_string()),
            Some(Token::Ident(name)) if matches!(self.peek(), Some(Token::LParen)) => {
                SelectItem::Agg(self.aggregate_call(name)?)
            }
            Some(Token::Ident(name)) => SelectItem::Column(name.clone()),
            other => {
                return Err(SqlError::Parse(format!(
                    "expected select item, found {other:?}"
                )))
            }
        };
        if self.eat_keyword("AS") {
            let alias = self.ident()?;
            if let SelectItem::Agg(agg) = &mut item {
                agg.name = alias;
            }
        }
        Ok(item)
    }

    fn literal(&mut self) -> Result<Literal, SqlError> {
        match self.next() {
            Some(Token::Int(v)) => Ok(Literal::Int(*v)),
            Some(Token::Float(v)) => Ok(Literal::Float(*v)),
            Some(Token::Str(s)) => Ok(Literal::Str(s.clone())),
            other => Err(SqlError::Parse(format!(
                "expected literal, found {other:?}"
            ))),
        }
    }

    fn comparison(&mut self) -> Result<Comparison, SqlError> {
        let column = self.ident()?;
        let op = match self.next() {
            Some(Token::Op(op)) => *op,
            other => {
                return Err(SqlError::Parse(format!(
                    "expected comparison operator, found {other:?}"
                )))
            }
        };
        let value = self.literal()?;
        Ok(Comparison { column, op, value })
    }

    fn query(&mut self) -> Result<Query, SqlError> {
        self.expect_keyword("SELECT")?;
        let mut select = Vec::new();
        loop {
            select.push(self.select_item()?);
            if matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect_keyword("FROM")?;
        let from = self.ident()?;

        let mut joins = Vec::new();
        while self.eat_keyword("JOIN") {
            let table = self.ident()?;
            self.expect_keyword("ON")?;
            let left_key = self.ident()?;
            match self.next() {
                Some(Token::Op(CmpOp::Eq)) => {}
                other => {
                    return Err(SqlError::Parse(format!(
                        "JOIN requires equality, found {other:?}"
                    )))
                }
            }
            let right_key = self.ident()?;
            joins.push(Join {
                table,
                left_key,
                right_key,
            });
        }

        let mut filter = Vec::new();
        if self.eat_keyword("WHERE") {
            filter.push(self.comparison()?);
            while self.eat_keyword("AND") {
                filter.push(self.comparison()?);
            }
        }

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.ident()?);
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        let order_by = if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            let column = self.ident()?;
            let descending = self.eat_keyword("DESC") || {
                self.eat_keyword("ASC");
                false
            };
            Some(OrderBy { column, descending })
        } else {
            None
        };

        let limit = if self.eat_keyword("LIMIT") {
            match self.next() {
                // The lexer folds a leading minus into the literal, so a
                // negative here is `LIMIT -5` — reject it instead of
                // letting a nonsense bound flow into the plan.
                Some(&Token::Int(n)) if n >= 0 => Some(n as u64),
                Some(Token::Int(n)) => {
                    return Err(SqlError::Parse(format!(
                        "LIMIT must be a non-negative integer, got {n}"
                    )))
                }
                other => {
                    return Err(SqlError::Parse(format!(
                        "LIMIT requires an integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };

        if let Some(t) = self.peek() {
            return Err(SqlError::Parse(format!("trailing tokens from {t:?}")));
        }

        Ok(Query {
            select,
            from,
            joins,
            filter,
            group_by,
            order_by,
            limit,
        })
    }
}

/// Parses a token stream into a [`Query`].
pub fn parse(tokens: &[Token]) -> Result<Query, SqlError> {
    Parser { tokens, pos: 0 }.query()
}

#[cfg(test)]
mod tests {
    use super::super::lexer::tokenize;
    use super::*;

    fn parse_sql(sql: &str) -> Result<Query, SqlError> {
        parse(&tokenize(sql).unwrap())
    }

    #[test]
    fn simple_select() {
        let q = parse_sql("SELECT a, b FROM t").unwrap();
        assert_eq!(q.from, "t");
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.projected_columns(), vec!["a", "b"]);
        assert!(q.filter.is_empty());
    }

    #[test]
    fn full_query() {
        let q = parse_sql(
            "SELECT country, sum(value) AS total FROM events \
             JOIN users ON user_id = user_id \
             WHERE value > 0.5 AND kind = 'click' \
             GROUP BY country ORDER BY total DESC LIMIT 10",
        )
        .unwrap();
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.joins[0].table, "users");
        assert_eq!(q.filter.len(), 2);
        assert_eq!(q.filter[0].op, CmpOp::Gt);
        assert_eq!(q.filter[1].value, Literal::Str("click".into()));
        assert_eq!(q.group_by, vec!["country"]);
        let ob = q.order_by.as_ref().unwrap();
        assert_eq!(ob.column, "total");
        assert!(ob.descending);
        assert_eq!(q.limit, Some(10));
        assert!(q.is_aggregate());
        match &q.select[1] {
            SelectItem::Agg(a) => assert_eq!((a.func, a.name.as_str()), (AggFunc::Sum, "total")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn star_and_count() {
        let q = parse_sql("SELECT count(*) FROM t").unwrap();
        let want = AggItem {
            func: AggFunc::Count,
            column: "*".into(),
            name: "count(*)".into(),
        };
        assert_eq!(q.select, [SelectItem::Agg(want)]);
    }

    #[test]
    fn aggregate_names_are_typed_and_keep_the_lowercase_output_name() {
        // Any letter case names the function; the output column is named
        // by the lowercase function, the argument as written.
        let q = parse_sql("SELECT AVG(x), Max(Y) AS top, k AS ignored FROM t").unwrap();
        let agg = |func, column: &str, name: &str| {
            SelectItem::Agg(AggItem {
                func,
                column: column.into(),
                name: name.into(),
            })
        };
        assert_eq!(
            q.select,
            [
                agg(AggFunc::Avg, "x", "avg(x)"),
                agg(AggFunc::Max, "Y", "top"),
                SelectItem::Column("k".into()),
            ]
        );
    }

    #[test]
    fn unknown_aggregates_are_parse_errors() {
        for sql in [
            "SELECT nope(v) FROM t",
            "SELECT NOPE(*) FROM t",
            "SELECT k, nope(v) AS n FROM t GROUP BY k",
        ] {
            assert_eq!(
                parse_sql(sql),
                Err(SqlError::Parse("unsupported aggregate \"nope\"".into())),
                "{sql}"
            );
        }
        // A malformed call is reported as such before its name is looked up.
        assert!(matches!(
            parse_sql("SELECT nope( FROM t"),
            Err(SqlError::Parse(m)) if m.contains("aggregate argument")
        ));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_sql("SELECT FROM t").is_err());
        assert!(parse_sql("SELECT a t").is_err());
        assert!(parse_sql("SELECT a FROM t WHERE a >").is_err());
        assert!(parse_sql("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_sql("SELECT a FROM t JOIN u ON a > b").is_err());
        assert!(parse_sql("SELECT a FROM t extra junk").is_err());
    }

    #[test]
    fn order_asc_default() {
        let q = parse_sql("SELECT a FROM t ORDER BY a ASC").unwrap();
        assert!(!q.order_by.unwrap().descending);
    }

    #[test]
    fn negative_limit_rejected_with_readable_message() {
        let err = parse_sql("SELECT a FROM t LIMIT -5").unwrap_err();
        match &err {
            SqlError::Parse(msg) => {
                assert!(msg.contains("LIMIT") && msg.contains("-5"), "{msg}")
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn zero_limit_parses() {
        let q = parse_sql("SELECT a FROM t LIMIT 0").unwrap();
        assert_eq!(q.limit, Some(0));
    }

    #[test]
    fn escaped_quote_string_parses_as_one_literal() {
        // Pre-fix, 'O''Brien' lexed as two adjacent Str tokens and died
        // here with a baffling "trailing tokens" error.
        let q = parse_sql("SELECT a FROM t WHERE name = 'O''Brien'").unwrap();
        assert_eq!(q.filter.len(), 1);
        assert_eq!(q.filter[0].value, Literal::Str("O'Brien".into()));
    }
}
