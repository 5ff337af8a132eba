//! The SQL lexer.

use crate::error::{SqlError, SqlResult};
use std::fmt;

macro_rules! keywords {
    ($($variant:ident => $text:literal,)*) => {
        /// Reserved words. Everything else alphabetic is an
        /// [`Token::Ident`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Keyword {
            $($variant,)*
        }

        /// Each keyword's SQL text, in declaration order: what the lexer
        /// matches a word against and what an error message prints.
        const KEYWORDS: &[(&str, Keyword)] = &[$(($text, Keyword::$variant),)*];
    };
}

keywords! {
    Select => "SELECT",
    From => "FROM",
    Where => "WHERE",
    Group => "GROUP",
    By => "BY",
    Rollup => "ROLLUP",
    Cube => "CUBE",
    Grouping => "GROUPING",
    Sets => "SETS",
    Having => "HAVING",
    Order => "ORDER",
    Asc => "ASC",
    Desc => "DESC",
    Union => "UNION",
    All => "ALL",
    Distinct => "DISTINCT",
    As => "AS",
    And => "AND",
    Or => "OR",
    Not => "NOT",
    In => "IN",
    Between => "BETWEEN",
    Is => "IS",
    Null => "NULL",
    True => "TRUE",
    False => "FALSE",
    Join => "JOIN",
    Using => "USING",
    On => "ON",
    Limit => "LIMIT",
    Explain => "EXPLAIN",
    Set => "SET",
    Insert => "INSERT",
    Into => "INTO",
    Values => "VALUES",
    Delete => "DELETE",
    Update => "UPDATE",
}

impl Keyword {
    fn from_word(w: &str) -> Option<Keyword> {
        let found = KEYWORDS
            .iter()
            .find(|(text, _)| text.eq_ignore_ascii_case(w));
        found.map(|&(_, k)| k)
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(KEYWORDS[*self as usize].0)
    }
}

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    Keyword(Keyword),
    /// Identifier (case preserved; matching is case-insensitive at plan
    /// time for function names, exact for column/table names).
    Ident(String),
    Int(i64),
    Float(f64),
    /// Single-quoted string literal; `''` escapes a quote.
    Str(String),
    /// Punctuation / operators.
    Symbol(Symbol),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symbol {
    LParen,
    RParen,
    Comma,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Neq,
    Lt,
    Lte,
    Gt,
    Gte,
    Dot,
    Semicolon,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Symbol(s) => {
                let t = match s {
                    Symbol::LParen => "(",
                    Symbol::RParen => ")",
                    Symbol::Comma => ",",
                    Symbol::Star => "*",
                    Symbol::Plus => "+",
                    Symbol::Minus => "-",
                    Symbol::Slash => "/",
                    Symbol::Percent => "%",
                    Symbol::Eq => "=",
                    Symbol::Neq => "<>",
                    Symbol::Lt => "<",
                    Symbol::Lte => "<=",
                    Symbol::Gt => ">",
                    Symbol::Gte => ">=",
                    Symbol::Dot => ".",
                    Symbol::Semicolon => ";",
                };
                write!(f, "{t}")
            }
        }
    }
}

/// Tokenize a SQL string. Comments (`-- ...\n`) and whitespace are
/// skipped.
pub fn tokenize(input: &str) -> SqlResult<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                let start = i;
                i += 1;
                loop {
                    match bytes.get(i) {
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                        None => {
                            return Err(SqlError::Lex {
                                pos: start,
                                message: "unterminated string literal".into(),
                            })
                        }
                    }
                }
                tokens.push(Token::Str(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes
                        .get(i + 1)
                        .is_some_and(|b| (*b as char).is_ascii_digit())
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                if is_float {
                    tokens.push(Token::Float(text.parse().map_err(|_| SqlError::Lex {
                        pos: start,
                        message: format!("bad float literal {text}"),
                    })?));
                } else {
                    tokens.push(Token::Int(text.parse().map_err(|_| SqlError::Lex {
                        pos: start,
                        message: format!("bad integer literal {text}"),
                    })?));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && ((bytes[i] as char).is_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                match Keyword::from_word(word) {
                    Some(k) => tokens.push(Token::Keyword(k)),
                    None => tokens.push(Token::Ident(word.to_string())),
                }
            }
            _ => {
                let (sym, len) = match (c, bytes.get(i + 1).map(|b| *b as char)) {
                    ('<', Some('=')) => (Symbol::Lte, 2),
                    ('<', Some('>')) => (Symbol::Neq, 2),
                    ('>', Some('=')) => (Symbol::Gte, 2),
                    ('!', Some('=')) => (Symbol::Neq, 2),
                    ('(', _) => (Symbol::LParen, 1),
                    (')', _) => (Symbol::RParen, 1),
                    (',', _) => (Symbol::Comma, 1),
                    ('*', _) => (Symbol::Star, 1),
                    ('+', _) => (Symbol::Plus, 1),
                    ('-', _) => (Symbol::Minus, 1),
                    ('/', _) => (Symbol::Slash, 1),
                    ('%', _) => (Symbol::Percent, 1),
                    ('=', _) => (Symbol::Eq, 1),
                    ('<', _) => (Symbol::Lt, 1),
                    ('>', _) => (Symbol::Gt, 1),
                    ('.', _) => (Symbol::Dot, 1),
                    (';', _) => (Symbol::Semicolon, 1),
                    _ => {
                        return Err(SqlError::Lex {
                            pos: i,
                            message: format!("unexpected character '{c}'"),
                        })
                    }
                };
                tokens.push(Token::Symbol(sym));
                i += len;
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_the_cube_query() {
        let toks =
            tokenize("SELECT Model, SUM(Sales) FROM Sales GROUP BY CUBE Model, Year;").unwrap();
        assert!(toks.contains(&Token::Keyword(Keyword::Cube)));
        assert!(toks.contains(&Token::Ident("Model".into())));
        assert_eq!(*toks.last().unwrap(), Token::Symbol(Symbol::Semicolon));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let toks = tokenize("select FROM Where rollup").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword(Keyword::Select),
                Token::Keyword(Keyword::From),
                Token::Keyword(Keyword::Where),
                Token::Keyword(Keyword::Rollup),
            ]
        );
    }

    /// The keyword table is in declaration order, so a keyword prints as
    /// the word that lexes to it.
    #[test]
    fn keywords_print_as_sql() {
        for (i, &(text, k)) in KEYWORDS.iter().enumerate() {
            assert_eq!(k as usize, i, "{text}");
            assert_eq!(k.to_string(), text);
            assert_eq!(Keyword::from_word(&text.to_lowercase()), Some(k));
        }
        assert_eq!(Token::Keyword(Keyword::From).to_string(), "FROM");
    }

    #[test]
    fn numbers_and_strings() {
        let toks = tokenize("42 3.5 'Chevy' 'O''Brien'").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(42),
                Token::Float(3.5),
                Token::Str("Chevy".into()),
                Token::Str("O'Brien".into()),
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("a <= b <> c >= d != e").unwrap();
        let syms: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Symbol(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(
            syms,
            vec![Symbol::Lte, Symbol::Neq, Symbol::Gte, Symbol::Neq]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("SELECT -- the select list\n x").unwrap();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn errors_carry_position() {
        match tokenize("SELECT @") {
            Err(SqlError::Lex { pos, .. }) => assert_eq!(pos, 7),
            other => panic!("expected lex error, got {other:?}"),
        }
        assert!(matches!(
            tokenize("'unterminated"),
            Err(SqlError::Lex { .. })
        ));
    }
}
