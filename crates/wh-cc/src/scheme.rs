//! Common interface over the concurrency-control schemes.
//!
//! All schemes (including the 2VNL adapter in `wh-vnl`) expose the same
//! warehouse-shaped workload surface: long read-only *reader transactions*
//! and a single batch *writer* (the maintenance transaction), over a table of
//! `(key, value)` tuples stored in a real heap. The benches drive this
//! interface identically for every scheme and compare the instrumented
//! blocking ([`crate::CcStats`]) and logical I/O (`wh_storage::IoStats`).

use crate::stats::CcStatsSnapshot;
use std::fmt;
use wh_storage::iostats::IoSnapshot;

/// Errors from concurrency-controlled execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CcError {
    /// The transaction timed out waiting for a lock and must abort.
    Aborted,
    /// The requested key does not exist.
    NoSuchKey(u64),
    /// The version a reader needs is no longer available.
    VersionUnavailable(u64),
    /// Underlying storage failure.
    Storage(String),
}

impl fmt::Display for CcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcError::Aborted => write!(f, "transaction aborted (lock timeout)"),
            CcError::NoSuchKey(k) => write!(f, "no such key: {k}"),
            CcError::VersionUnavailable(k) => {
                write!(f, "required version of key {k} is unavailable")
            }
            CcError::Storage(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for CcError {}

/// Column `i` of a stored `(key, value[, ts])` row: a BIGINT by schema.
pub fn int_col(row: &[wh_types::Value], i: usize) -> CcResult<i64> {
    row[i]
        .as_int()
        .ok_or_else(|| CcError::Storage(format!("column {i} is not BIGINT")))
}

impl From<wh_storage::StorageError> for CcError {
    fn from(e: wh_storage::StorageError) -> Self {
        CcError::Storage(e.to_string())
    }
}

/// Result alias for concurrency-controlled operations.
pub type CcResult<T> = Result<T, CcError>;

/// A read-only transaction (a reader session's unit of work).
pub trait ReaderTxn {
    /// Read the value of `key` as of this transaction's consistent view.
    fn read(&mut self, key: u64) -> CcResult<i64>;
    /// Finish the transaction, releasing any locks/registrations.
    fn finish(self: Box<Self>);
}

/// The (single) update transaction — the maintenance transaction's role.
pub trait WriterTxn {
    /// Set `key` to `value`.
    fn update(&mut self, key: u64, value: i64) -> CcResult<()>;
    /// Commit, making all updates visible. May block (2V2PL certify).
    fn commit(self: Box<Self>) -> CcResult<()>;
    /// Abort, undoing all updates.
    fn abort(self: Box<Self>) -> CcResult<()>;
}

/// A concurrency-control scheme over a populated `(key, value)` store.
pub trait ConcurrencyScheme: Send + Sync {
    /// Scheme name for reports ("S2PL", "2V2PL", "MV2PL", "2VNL").
    fn name(&self) -> &'static str;
    /// Begin a read-only transaction.
    fn begin_reader(&self) -> Box<dyn ReaderTxn + '_>;
    /// Begin the update transaction. Callers enforce the paper's external
    /// protocol: at most one writer at a time.
    fn begin_writer(&self) -> Box<dyn WriterTxn + '_>;
    /// Blocking instrumentation.
    fn cc_stats(&self) -> CcStatsSnapshot;
    /// Logical I/O counters (all heaps the scheme touches).
    fn io_stats(&self) -> IoSnapshot;
    /// Zero both counter sets.
    fn reset_stats(&self);
    /// Bytes of storage currently allocated to live tuples and versions.
    fn storage_bytes(&self) -> u64;
}

/// The `(key, value)` schema every scheme stores: `key BIGINT` unique,
/// `value BIGINT` updatable.
#[expect(clippy::expect_used, reason = "static schema literal")]
pub fn kv_schema() -> wh_types::Schema {
    wh_types::Schema::with_key_names(
        vec![
            wh_types::Column::new("key", wh_types::DataType::Int64),
            wh_types::Column::updatable("value", wh_types::DataType::Int64),
        ],
        &["key"],
    )
    .expect("kv schema is valid")
}
