//! Errors raised by the 2VNL/nVNL layer.

use crate::version::Operation;
use std::fmt;

/// 2VNL/nVNL errors.
#[derive(Debug, Clone, PartialEq)]
pub enum VnlError {
    /// A maintenance operation hit an "impossible" cell of Tables 2–4 —
    /// the incoming batch is not a valid transaction (e.g. updating a tuple
    /// already deleted in the same transaction).
    InvalidTransition {
        /// The attempted logical operation.
        attempted: Operation,
        /// The tuple's recorded previous operation.
        previous: Operation,
        /// Whether the previous operation belongs to the same maintenance
        /// transaction (`tupleVN = maintenanceVN`).
        same_txn: bool,
    },
    /// The reader session can no longer see a consistent state (Table 1
    /// case 3 / §5 case 3, or the global check of §4.1 failed).
    SessionExpired {
        /// The session's version number.
        session_vn: u64,
        /// `currentVN` when the expiration was detected — how far the
        /// warehouse had moved past the session. Retry policies use the gap
        /// to decide whether re-reading at a fresh VN is worthwhile.
        current_vn: u64,
        /// The relation whose read detected the expiration, when known
        /// (`None` for expirations detected against the bare version state).
        table: Option<String>,
    },
    /// A [`crate::resilience::RetryPolicy`] gave up: every attempt within
    /// its budget expired. This is the *typed terminal* form of
    /// [`VnlError::SessionExpired`] — callers seeing it know the retry layer
    /// already did its job and the workload is outpacing the version window.
    RetryExhausted {
        /// Attempts made (including the first, non-retry execution).
        attempts: u32,
        /// The last attempt's session version.
        session_vn: u64,
        /// `currentVN` at the last detected expiration.
        current_vn: u64,
    },
    /// `begin_maintenance` while another maintenance transaction is active;
    /// the paper's external protocol allows one at a time (§2.2).
    MaintenanceAlreadyActive,
    /// A maintenance operation targeted a key with no live tuple.
    NoSuchTuple(String),
    /// A maintenance batch named the same key twice; it was refused before
    /// any write.
    RepeatedKey(String),
    /// A maintenance batch's insert carried a key other than the one the
    /// batch named for it; refused before the tuple was written.
    KeyMismatch(String),
    /// An operation needed a unique key but the relation declares none.
    KeyRequired(&'static str),
    /// The maintenance transaction was already finished (committed/aborted).
    TxnFinished,
    /// An index with this name already exists.
    DuplicateIndex(String),
    /// No index with this name exists.
    NoSuchIndex(String),
    /// §4.3: secondary indexes are supported on non-updatable attributes
    /// only (updatable attributes live inside CASE expressions after the
    /// rewrite, which a stock optimizer cannot index).
    IndexOnUpdatable(String),
    /// An armed failpoint injected a fault at the named site (fault-injection
    /// testing only; sites compile in under the `failpoints` feature).
    FaultInjected(&'static str),
    /// Storage failure.
    Storage(wh_storage::StorageError),
    /// SQL failure (rewrite or execution).
    Sql(wh_sql::SqlError),
    /// Data-model failure.
    Type(wh_types::TypeError),
}

impl fmt::Display for VnlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VnlError::InvalidTransition {
                attempted,
                previous,
                same_txn,
            } => write!(
                f,
                "impossible maintenance transition: {attempted} after {previous} ({})",
                if *same_txn {
                    "same transaction"
                } else {
                    "earlier transaction"
                }
            ),
            VnlError::SessionExpired {
                session_vn,
                current_vn,
                table,
            } => {
                write!(
                    f,
                    "reader session at version {session_vn} has expired (currentVN {current_vn}"
                )?;
                if let Some(t) = table {
                    write!(f, ", table {t}")?;
                }
                write!(f, "); begin a new session")
            }
            VnlError::RetryExhausted {
                attempts,
                session_vn,
                current_vn,
            } => write!(
                f,
                "retry budget exhausted after {attempts} attempts: session at version \
                 {session_vn} kept expiring (currentVN {current_vn})"
            ),
            VnlError::MaintenanceAlreadyActive => {
                write!(f, "a maintenance transaction is already active (one at a time)")
            }
            VnlError::NoSuchTuple(key) => write!(f, "no live tuple with key {key}"),
            VnlError::RepeatedKey(key) => write!(f, "maintenance batch repeats key {key}"),
            VnlError::KeyMismatch(key) => {
                write!(f, "maintenance batch inserts a row not keyed {key}")
            }
            VnlError::KeyRequired(what) => {
                write!(f, "{what} requires the relation to declare a unique key")
            }
            VnlError::TxnFinished => write!(f, "maintenance transaction already finished"),
            VnlError::DuplicateIndex(name) => write!(f, "index already exists: {name}"),
            VnlError::NoSuchIndex(name) => write!(f, "no such index: {name}"),
            VnlError::IndexOnUpdatable(col) => write!(
                f,
                "cannot index updatable attribute {col} (§4.3: it is hidden inside CASE expressions after the rewrite)"
            ),
            VnlError::FaultInjected(point) => {
                write!(f, "injected fault at failpoint '{point}'")
            }
            VnlError::Storage(e) => write!(f, "{e}"),
            VnlError::Sql(e) => write!(f, "{e}"),
            VnlError::Type(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VnlError {}

impl From<wh_types::fault::FaultError> for VnlError {
    fn from(e: wh_types::fault::FaultError) -> Self {
        VnlError::FaultInjected(e.point)
    }
}

impl From<wh_storage::StorageError> for VnlError {
    fn from(e: wh_storage::StorageError) -> Self {
        VnlError::Storage(e)
    }
}

impl From<wh_sql::SqlError> for VnlError {
    fn from(e: wh_sql::SqlError) -> Self {
        VnlError::Sql(e)
    }
}

impl From<wh_types::TypeError> for VnlError {
    fn from(e: wh_types::TypeError) -> Self {
        VnlError::Type(e)
    }
}

/// Result alias for 2VNL operations.
pub type VnlResult<T> = Result<T, VnlError>;
