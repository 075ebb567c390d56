//! SQL tokenizer.

use super::ast::CmpOp;
use super::SqlError;

/// One SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A keyword (stored uppercase).
    Keyword(String),
    /// An identifier (table/column name), case preserved.
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A single-quoted string literal.
    Str(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `=`, `!=`, `<`, `<=`, `>`, `>=`
    Op(CmpOp),
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "JOIN", "ON", "AND", "AS", "DESC",
    "ASC",
];

/// Tokenizes a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, SqlError> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '=' => {
                out.push(Token::Op(CmpOp::Eq));
                i += 1;
            }
            '!' if chars.get(i + 1) == Some(&'=') => {
                out.push(Token::Op(CmpOp::Ne));
                i += 2;
            }
            '<' | '>' => {
                let or_equal = chars.get(i + 1) == Some(&'=');
                out.push(Token::Op(match (c, or_equal) {
                    ('<', false) => CmpOp::Lt,
                    ('<', true) => CmpOp::Le,
                    (_, false) => CmpOp::Gt,
                    (_, true) => CmpOp::Ge,
                }));
                i += if or_equal { 2 } else { 1 };
            }
            '\'' => {
                // Standard SQL string literal: '' inside the literal is an
                // escaped single quote ('O''Brien' is the string O'Brien).
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    match chars.get(j) {
                        None => return Err(SqlError::UnterminatedString { offset: i }),
                        Some('\'') if chars.get(j + 1) == Some(&'\'') => {
                            s.push('\'');
                            j += 2;
                        }
                        Some('\'') => {
                            j += 1;
                            break;
                        }
                        Some(c) => {
                            s.push(*c);
                            j += 1;
                        }
                    }
                }
                out.push(Token::Str(s));
                i = j;
            }
            c if c.is_ascii_digit()
                || (c == '-' && matches!(chars.get(i + 1), Some(d) if d.is_ascii_digit())) =>
            {
                let start = i;
                let mut j = if c == '-' { i + 1 } else { i };
                let mut is_float = false;
                while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '.') {
                    if chars[j] == '.' {
                        is_float = true;
                    }
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                if is_float {
                    let v = text.parse::<f64>().map_err(|_| SqlError::Lex {
                        offset: start,
                        found: '.',
                    })?;
                    out.push(Token::Float(v));
                } else {
                    let v = text.parse::<i64>().map_err(|_| SqlError::Lex {
                        offset: start,
                        found: c,
                    })?;
                    out.push(Token::Int(v));
                }
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < chars.len()
                    && (chars[j].is_ascii_alphanumeric() || chars[j] == '_' || chars[j] == '.')
                {
                    j += 1;
                }
                let word: String = chars[start..j].iter().collect();
                let upper = word.to_ascii_uppercase();
                if KEYWORDS.contains(&upper.as_str()) {
                    out.push(Token::Keyword(upper));
                } else {
                    out.push(Token::Ident(word));
                }
                i = j;
            }
            other => {
                return Err(SqlError::Lex {
                    offset: i,
                    found: other,
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statement() {
        let toks = tokenize("SELECT a, sum(b) FROM t WHERE a >= 10").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT".into()));
        assert_eq!(toks[1], Token::Ident("a".into()));
        assert_eq!(toks[2], Token::Comma);
        assert_eq!(toks[3], Token::Ident("sum".into()));
        assert_eq!(toks[4], Token::LParen);
        assert!(toks.contains(&Token::Op(CmpOp::Ge)));
        assert!(toks.contains(&Token::Int(10)));
    }

    #[test]
    fn keywords_case_insensitive_idents_preserved() {
        let toks = tokenize("select MyCol from T").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT".into()));
        assert_eq!(toks[1], Token::Ident("MyCol".into()));
        assert_eq!(toks[3], Token::Ident("T".into()));
    }

    #[test]
    fn literals() {
        let toks = tokenize("WHERE x = 1.5 AND name = 'bob'").unwrap();
        assert!(toks.contains(&Token::Float(1.5)));
        assert!(toks.contains(&Token::Str("bob".into())));
    }

    #[test]
    fn operators() {
        for (src, op) in [
            ("a = b", CmpOp::Eq),
            ("a != b", CmpOp::Ne),
            ("a < b", CmpOp::Lt),
            ("a <= b", CmpOp::Le),
            ("a > b", CmpOp::Gt),
            ("a >= b", CmpOp::Ge),
        ] {
            let toks = tokenize(src).unwrap();
            assert_eq!(toks[1], Token::Op(op), "{src}");
        }
        // `=<` and `=>` are two tokens; a lone `!` is no operator.
        assert_eq!(
            tokenize("a =< b").unwrap()[1..3],
            [Token::Op(CmpOp::Eq), Token::Op(CmpOp::Lt)]
        );
        assert_eq!(
            tokenize("a => b").unwrap()[1..3],
            [Token::Op(CmpOp::Eq), Token::Op(CmpOp::Gt)]
        );
        assert!(matches!(
            tokenize("a ! b"),
            Err(SqlError::Lex { found: '!', .. })
        ));
    }

    #[test]
    fn unterminated_string_errors() {
        let err = tokenize("x = 'oops").unwrap_err();
        assert_eq!(err, SqlError::UnterminatedString { offset: 4 });
        let msg = err.to_string();
        assert!(
            msg.contains("unterminated string literal starting at offset 4"),
            "{msg}"
        );
    }

    #[test]
    fn doubled_quote_escapes() {
        let toks = tokenize("name = 'O''Brien'").unwrap();
        assert!(toks.contains(&Token::Str("O'Brien".into())), "{toks:?}");
    }

    #[test]
    fn empty_string_literal() {
        let toks = tokenize("name = ''").unwrap();
        assert_eq!(toks[2], Token::Str(String::new()));
    }

    #[test]
    fn literal_of_only_a_quote() {
        // '''' is the one-character string consisting of a quote.
        let toks = tokenize("name = ''''").unwrap();
        assert_eq!(toks[2], Token::Str("'".into()));
    }

    #[test]
    fn literal_ending_in_escaped_quote() {
        let toks = tokenize("name = 'tail''' AND a = 1").unwrap();
        assert_eq!(toks[2], Token::Str("tail'".into()));
        // The rest of the statement still lexes: the escape did not eat
        // the closing quote.
        assert!(toks.contains(&Token::Keyword("AND".into())));
        assert!(toks.contains(&Token::Int(1)));
    }

    #[test]
    fn adjacent_literals_stay_separate() {
        // With a space between them these are two strings, not an escape.
        let toks = tokenize("'a' 'b'").unwrap();
        assert_eq!(toks, vec![Token::Str("a".into()), Token::Str("b".into())]);
    }

    #[test]
    fn unterminated_after_escape_errors() {
        // The trailing '' is an escaped quote, so the literal never closes.
        assert_eq!(
            tokenize("'oops''"),
            Err(SqlError::UnterminatedString { offset: 0 })
        );
    }

    #[test]
    fn stray_character_errors() {
        assert!(matches!(
            tokenize("SELECT %"),
            Err(SqlError::Lex { found: '%', .. })
        ));
    }

    #[test]
    fn star_token() {
        let toks = tokenize("SELECT * FROM t").unwrap();
        assert_eq!(toks[1], Token::Star);
    }
}

#[cfg(test)]
mod negative_literal_tests {
    use super::*;

    #[test]
    fn negative_int_and_float() {
        let toks = tokenize("WHERE x > -5 AND y < -2.5").unwrap();
        assert!(toks.contains(&Token::Int(-5)));
        assert!(toks.contains(&Token::Float(-2.5)));
    }

    #[test]
    fn lone_minus_still_errors() {
        assert!(matches!(tokenize("x - y"), Err(SqlError::Lex { .. })));
    }
}
