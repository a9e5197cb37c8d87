//! SQL-layer errors.

use std::fmt;
use wh_storage::StorageError;
use wh_types::TypeError;

/// Errors raised while parsing, planning, or executing SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexical or syntactic error, with a byte offset into the input.
    Parse {
        /// Human-readable description.
        message: String,
        /// Byte offset where the problem was noticed.
        offset: usize,
    },
    /// Referenced table does not exist.
    NoSuchTable(String),
    /// Referenced table already exists (CREATE).
    TableExists(String),
    /// Referenced column does not exist.
    NoSuchColumn(String),
    /// A `:name` parameter had no binding at execution time.
    UnboundParam(String),
    /// Aggregates used where they are not allowed (e.g. in WHERE).
    MisplacedAggregate,
    /// Non-aggregated, non-grouped column in an aggregate query.
    NotGrouped(String),
    /// Feature outside the supported subset.
    Unsupported(String),
    /// Type-system error from expression evaluation.
    Type(TypeError),
    /// Storage error.
    Storage(StorageError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            SqlError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            SqlError::TableExists(t) => write!(f, "table already exists: {t}"),
            SqlError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            SqlError::UnboundParam(p) => write!(f, "unbound parameter: :{p}"),
            SqlError::MisplacedAggregate => write!(f, "aggregate not allowed here"),
            SqlError::NotGrouped(c) => {
                write!(f, "column {c} must appear in GROUP BY or an aggregate")
            }
            SqlError::Unsupported(what) => write!(f, "unsupported SQL feature: {what}"),
            SqlError::Type(e) => write!(f, "{e}"),
            SqlError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<TypeError> for SqlError {
    fn from(e: TypeError) -> Self {
        SqlError::Type(e)
    }
}

impl From<StorageError> for SqlError {
    fn from(e: StorageError) -> Self {
        SqlError::Storage(e)
    }
}

/// Result alias for SQL operations.
pub type SqlResult<T> = Result<T, SqlError>;
