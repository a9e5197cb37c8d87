//! 2VNL as a [`wh_cc::ConcurrencyScheme`], for the §6 head-to-head runs.
//!
//! Wraps a `(key, value)` [`VnlTable`] behind the same interface the S2PL /
//! 2V2PL / MV2PL baselines implement, so experiment E10 drives all four
//! identically: reader transactions are reader sessions, the writer is the
//! maintenance transaction. 2VNL's promises become measurable: the
//! `CcStats` blocking counters stay at zero by construction (there is no
//! lock to wait on), commit is never delayed by readers, and no version
//! pool or pending heap exists — only the in-tuple pre-update copies.

use crate::error::VnlError;
use crate::maintenance::MaintenanceTxn;
use crate::reader::ReaderSession;
use crate::table::VnlTable;
use wh_cc::scheme::{int_col, CcError, CcResult, ConcurrencyScheme, ReaderTxn, WriterTxn};
use wh_cc::stats::CcStatsSnapshot;
use wh_storage::iostats::IoSnapshot;
use wh_types::{Column, DataType, Row, Schema, Value};

#[expect(clippy::expect_used, reason = "static schema literal")]
fn kv_base_schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("key", DataType::Int64),
            Column::updatable("value", DataType::Int64),
        ],
        &["key"],
    )
    .expect("kv schema is valid")
}

/// A `(key, value)` store maintained under nVNL.
pub struct VnlStore {
    table: VnlTable,
}

impl VnlStore {
    /// Create a store with keys `0..count`, all values zero, under `n`
    /// versions (2 = the paper's 2VNL).
    pub fn populate(count: u64, n: usize) -> Result<Self, VnlError> {
        let table = VnlTable::create_named("kv", kv_base_schema(), n)?;
        let rows: Vec<Row> = (0..count)
            .map(|k| vec![Value::from(k as i64), Value::from(0)])
            .collect();
        table.load_initial(&rows)?;
        Ok(VnlStore { table })
    }

    /// The wrapped table.
    pub fn table(&self) -> &VnlTable {
        &self.table
    }

    fn key_row(key: u64) -> Row {
        vec![Value::from(key as i64), Value::Null]
    }
}

fn to_cc(e: VnlError, key: u64) -> CcError {
    match e {
        // Both the raw expiration and its retry-exhausted terminal form
        // mean the same thing to a CC harness: the version this reader
        // needs is gone. The enriched fields (currentVN, table) only feed
        // the error message, which `CcError` does not carry.
        VnlError::SessionExpired { .. } | VnlError::RetryExhausted { .. } => {
            CcError::VersionUnavailable(key)
        }
        other => CcError::Storage(other.to_string()),
    }
}

struct VnlReader<'s> {
    session: ReaderSession<'s>,
}

impl ReaderTxn for VnlReader<'_> {
    fn read(&mut self, key: u64) -> CcResult<i64> {
        match self.session.read_by_key(&VnlStore::key_row(key)) {
            Ok(Some(row)) => int_col(&row, 1),
            Ok(None) => Err(CcError::NoSuchKey(key)),
            Err(e) => Err(to_cc(e, key)),
        }
    }

    fn finish(self: Box<Self>) {
        self.session.finish();
    }
}

struct VnlWriter<'s> {
    txn: MaintenanceTxn<'s>,
}

impl WriterTxn for VnlWriter<'_> {
    fn update(&mut self, key: u64, value: i64) -> CcResult<()> {
        let row = vec![Value::from(key as i64), Value::from(value)];
        match self.txn.update_row(&row) {
            Ok(()) => Ok(()),
            Err(VnlError::NoSuchTuple(_)) => Err(CcError::NoSuchKey(key)),
            Err(e) => Err(to_cc(e, key)),
        }
    }

    fn commit(self: Box<Self>) -> CcResult<()> {
        self.txn
            .commit()
            .map_err(|e| CcError::Storage(e.to_string()))
    }

    fn abort(self: Box<Self>) -> CcResult<()> {
        self.txn
            .abort()
            .map_err(|e| CcError::Storage(e.to_string()))
    }
}

impl ConcurrencyScheme for VnlStore {
    fn name(&self) -> &'static str {
        "2VNL"
    }

    fn begin_reader(&self) -> Box<dyn ReaderTxn + '_> {
        Box::new(VnlReader {
            session: self.table.begin_session(),
        })
    }

    fn begin_writer(&self) -> Box<dyn WriterTxn + '_> {
        #[expect(clippy::expect_used, reason = "invariant in the expect message")]
        let txn = self
            .table
            .begin_maintenance()
            .expect("benchmarks enforce one writer at a time");
        Box::new(VnlWriter { txn })
    }

    fn cc_stats(&self) -> CcStatsSnapshot {
        // 2VNL takes no locks: nothing ever blocks, by construction.
        CcStatsSnapshot::default()
    }

    fn io_stats(&self) -> IoSnapshot {
        self.table.io().snapshot()
    }

    fn reset_stats(&self) {
        self.table.io().reset();
    }

    fn storage_bytes(&self) -> u64 {
        self.table.storage().len() * self.table.storage().codec().encoded_len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_contract_basics() {
        let store = VnlStore::populate(10, 2).unwrap();
        assert_eq!(store.name(), "2VNL");
        let mut w = store.begin_writer();
        w.update(3, 42).unwrap();
        w.commit().unwrap();
        let mut r = store.begin_reader();
        assert_eq!(r.read(3).unwrap(), 42);
        assert_eq!(r.read(0).unwrap(), 0);
        r.finish();
    }

    #[test]
    fn reader_snapshot_survives_concurrent_commit() {
        let store = VnlStore::populate(10, 2).unwrap();
        let mut old = store.begin_reader();
        assert_eq!(old.read(3).unwrap(), 0);
        let mut w = store.begin_writer();
        w.update(3, 42).unwrap();
        // Uncommitted: old reader still sees 0 (pre-update version).
        assert_eq!(old.read(3).unwrap(), 0);
        w.commit().unwrap();
        // Committed: old reader STILL sees 0 — its session version.
        assert_eq!(old.read(3).unwrap(), 0);
        old.finish();
        let mut new = store.begin_reader();
        assert_eq!(new.read(3).unwrap(), 42);
        new.finish();
    }

    #[test]
    fn session_expiry_surfaces_as_version_unavailable() {
        let store = VnlStore::populate(4, 2).unwrap();
        let mut old = store.begin_reader();
        for round in 0..2 {
            let mut w = store.begin_writer();
            w.update(1, round + 1).unwrap();
            w.commit().unwrap();
        }
        // Two maintenance txns have touched key 1: the old session expired.
        assert_eq!(old.read(1), Err(CcError::VersionUnavailable(1)));
        old.finish();
    }

    #[test]
    fn unknown_key() {
        let store = VnlStore::populate(2, 2).unwrap();
        let mut r = store.begin_reader();
        assert_eq!(r.read(99), Err(CcError::NoSuchKey(99)));
        r.finish();
        let mut w = store.begin_writer();
        assert_eq!(w.update(99, 1), Err(CcError::NoSuchKey(99)));
        w.abort().unwrap();
    }

    #[test]
    fn zero_blocking_by_construction() {
        let store = VnlStore::populate(4, 2).unwrap();
        let mut w = store.begin_writer();
        w.update(0, 7).unwrap();
        let mut r = store.begin_reader();
        r.read(0).unwrap();
        r.finish();
        w.commit().unwrap();
        assert_eq!(store.cc_stats().total_blocks(), 0);
    }

    #[test]
    fn nvnl_store_survives_more_overlaps() {
        let store = VnlStore::populate(4, 3).unwrap();
        let mut old = store.begin_reader();
        for round in 0..2 {
            let mut w = store.begin_writer();
            w.update(1, (round + 1) * 10).unwrap();
            w.commit().unwrap();
        }
        // Under 3VNL the session survives two overlapping maintenance txns.
        assert_eq!(old.read(1).unwrap(), 0);
        old.finish();
    }
}
