//! Errors for the SQL layer.

use datacube::CubeError;
use dc_aggregate::AggError;
use dc_relation::RelError;
use std::fmt;

/// Errors raised while lexing, parsing, planning, or executing SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexical error with byte offset.
    Lex { pos: usize, message: String },
    /// Parse error with the offending token text.
    Parse { near: String, message: String },
    /// Semantic error caught at plan time (unknown table/column/function,
    /// type mismatch, illegal select-list item, ...).
    Plan(String),
    /// Underlying cube-operator error.
    Cube(CubeError),
    /// Underlying relational error.
    Rel(RelError),
    /// Underlying aggregate-framework error.
    Agg(AggError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex { pos, message } => write!(f, "lex error at byte {pos}: {message}"),
            SqlError::Parse { near, message } => {
                write!(f, "parse error near '{near}': {message}")
            }
            SqlError::Plan(msg) => write!(f, "plan error: {msg}"),
            SqlError::Cube(e) => write!(f, "{e}"),
            SqlError::Rel(e) => write!(f, "{e}"),
            SqlError::Agg(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<CubeError> for SqlError {
    fn from(e: CubeError) -> Self {
        SqlError::Cube(e)
    }
}

impl From<RelError> for SqlError {
    fn from(e: RelError) -> Self {
        SqlError::Rel(e)
    }
}

impl From<AggError> for SqlError {
    fn from(e: AggError) -> Self {
        SqlError::Agg(e)
    }
}

/// Convenience alias.
pub type SqlResult<T> = Result<T, SqlError>;

/// What a recursive walk over a statement (parse, eval, type inference)
/// returns: the error boxed, so a result is the size of its value and so
/// are a debug build's frame slots ([`MAX_DEPTH`](crate::parser::MAX_DEPTH)).
pub(crate) type Boxed<T> = Result<T, Box<SqlError>>;
