//! Strict two-phase locking — the blocking baseline of §1.
//!
//! Readers take S locks held to end-of-transaction; the maintenance writer
//! takes X locks. Under the strict compatibility matrix the two sides block
//! each other, which is exactly why commercial warehouses of the paper's era
//! pushed maintenance to nighttime windows (Figure 1).

use crate::lock::{LockManager, LockMode, LockRequestOutcome};
use crate::scheme::{
    int_col, kv_schema, CcError, CcResult, ConcurrencyScheme, ReaderTxn, WriterTxn,
};
use crate::stats::{CcStats, CcStatsSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;
use wh_storage::iostats::IoSnapshot;
use wh_storage::{IoStats, Rid, Table};
use wh_types::Value;

/// A `(key, value)` store protected by strict 2PL.
pub struct S2plStore {
    table: Table,
    key_map: HashMap<u64, Rid>,
    locks: LockManager,
    stats: CcStats,
    io: Arc<IoStats>,
    next_txn: AtomicU64,
    /// Undo images for the active writer (strict 2PL writes in place).
    undo: Mutex<Vec<(Rid, i64)>>,
}

impl S2plStore {
    /// Create a store with keys `0..n`, all values zero. `timeout` bounds
    /// lock waits; timing out aborts the requesting transaction.
    pub fn populate(n: u64, timeout: Duration) -> CcResult<Self> {
        let io = Arc::new(IoStats::new());
        let table = Table::create("s2pl", kv_schema(), Arc::clone(&io))?;
        let mut key_map = HashMap::with_capacity(n as usize);
        for k in 0..n {
            let rid = table.insert(&[Value::from(k as i64), Value::from(0)])?;
            key_map.insert(k, rid);
        }
        Ok(S2plStore {
            table,
            key_map,
            locks: LockManager::strict(timeout),
            stats: CcStats::for_scheme("s2pl"),
            io,
            next_txn: AtomicU64::new(1),
            undo: Mutex::new(Vec::new()),
        })
    }

    fn rid(&self, key: u64) -> CcResult<Rid> {
        self.key_map
            .get(&key)
            .copied()
            .ok_or(CcError::NoSuchKey(key))
    }

    fn read_value(&self, rid: Rid) -> CcResult<i64> {
        let row = self.table.read(rid)?;
        int_col(&row, 1)
    }
}

struct S2plReader<'s> {
    store: &'s S2plStore,
    txn: u64,
}

impl ReaderTxn for S2plReader<'_> {
    fn read(&mut self, key: u64) -> CcResult<i64> {
        let outcome = self.store.locks.acquire(self.txn, key, LockMode::Shared);
        match outcome {
            LockRequestOutcome::TimedOut => {
                self.store.stats.aborted();
                self.store.locks.release_all(self.txn);
                return Err(CcError::Aborted);
            }
            LockRequestOutcome::GrantedAfterWait(d) => self.store.stats.reader_blocked(d),
            LockRequestOutcome::Granted => {}
        }
        self.store.read_value(self.store.rid(key)?)
    }

    fn finish(self: Box<Self>) {
        self.store.locks.release_all(self.txn);
    }
}

struct S2plWriter<'s> {
    store: &'s S2plStore,
    txn: u64,
}

impl WriterTxn for S2plWriter<'_> {
    fn update(&mut self, key: u64, value: i64) -> CcResult<()> {
        let outcome = self.store.locks.acquire(self.txn, key, LockMode::Exclusive);
        match outcome {
            LockRequestOutcome::TimedOut => {
                self.store.stats.aborted();
                return Err(CcError::Aborted);
            }
            LockRequestOutcome::GrantedAfterWait(d) => self.store.stats.writer_blocked(d),
            LockRequestOutcome::Granted => {}
        }
        let rid = self.store.rid(key)?;
        let old = self.store.read_value(rid)?;
        self.store
            .undo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((rid, old));
        self.store
            .table
            .update(rid, &[Value::from(key as i64), Value::from(value)])?;
        Ok(())
    }

    fn commit(self: Box<Self>) -> CcResult<()> {
        self.store
            .undo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.store.locks.release_all(self.txn);
        Ok(())
    }

    fn abort(self: Box<Self>) -> CcResult<()> {
        let undo: Vec<_> = std::mem::take(
            &mut *self
                .store
                .undo
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for (rid, old) in undo.into_iter().rev() {
            let key = self.store.table.read(rid)?[0].clone();
            self.store.table.update(rid, &[key, Value::from(old)])?;
        }
        self.store.locks.release_all(self.txn);
        Ok(())
    }
}

impl ConcurrencyScheme for S2plStore {
    fn name(&self) -> &'static str {
        "S2PL"
    }

    fn begin_reader(&self) -> Box<dyn ReaderTxn + '_> {
        Box::new(S2plReader {
            store: self,
            txn: self.next_txn.fetch_add(1, Ordering::Relaxed), // ordering: id-alloc Relaxed — unique-ID allocation; only atomicity of the increment matters
        })
    }

    fn begin_writer(&self) -> Box<dyn WriterTxn + '_> {
        Box::new(S2plWriter {
            store: self,
            txn: self.next_txn.fetch_add(1, Ordering::Relaxed), // ordering: id-alloc Relaxed — unique-ID allocation; only atomicity of the increment matters
        })
    }

    fn cc_stats(&self) -> CcStatsSnapshot {
        self.stats.snapshot()
    }

    fn io_stats(&self) -> IoSnapshot {
        self.io.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
        self.io.reset();
    }

    fn storage_bytes(&self) -> u64 {
        self.table.len() * self.table.codec().encoded_len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_writes_after_commit() {
        let store = S2plStore::populate(10, Duration::from_millis(200)).unwrap();
        let mut w = store.begin_writer();
        w.update(3, 42).unwrap();
        w.commit().unwrap();
        let mut r = store.begin_reader();
        assert_eq!(r.read(3).unwrap(), 42);
        r.finish();
    }

    #[test]
    fn reader_blocks_on_active_writer() {
        let store = Arc::new(S2plStore::populate(10, Duration::from_millis(40)).unwrap());
        let mut w = store.begin_writer();
        w.update(3, 42).unwrap();
        // Reader times out while writer holds X.
        let mut r = store.begin_reader();
        assert_eq!(r.read(3), Err(CcError::Aborted));
        r.finish();
        assert_eq!(store.cc_stats().aborts, 1);
        w.commit().unwrap();
        // After commit the key is readable again.
        let mut r = store.begin_reader();
        assert_eq!(r.read(3).unwrap(), 42);
        r.finish();
    }

    #[test]
    fn writer_blocks_on_active_reader() {
        let store = S2plStore::populate(10, Duration::from_millis(40)).unwrap();
        let mut r = store.begin_reader();
        r.read(5).unwrap();
        let mut w = store.begin_writer();
        assert_eq!(w.update(5, 1), Err(CcError::Aborted));
        r.finish();
    }

    #[test]
    fn concurrent_readers_share() {
        let store = S2plStore::populate(10, Duration::from_millis(200)).unwrap();
        let mut r1 = store.begin_reader();
        let mut r2 = store.begin_reader();
        assert_eq!(r1.read(1).unwrap(), 0);
        assert_eq!(r2.read(1).unwrap(), 0);
        r1.finish();
        r2.finish();
        assert_eq!(store.cc_stats().reader_blocks, 0);
    }

    #[test]
    fn abort_restores_old_values() {
        let store = S2plStore::populate(10, Duration::from_millis(200)).unwrap();
        let mut w = store.begin_writer();
        w.update(2, 7).unwrap();
        w.update(4, 9).unwrap();
        w.abort().unwrap();
        let mut r = store.begin_reader();
        assert_eq!(r.read(2).unwrap(), 0);
        assert_eq!(r.read(4).unwrap(), 0);
        r.finish();
    }

    #[test]
    fn unknown_key_errors() {
        let store = S2plStore::populate(3, Duration::from_millis(50)).unwrap();
        let mut r = store.begin_reader();
        assert_eq!(r.read(99), Err(CcError::NoSuchKey(99)));
        r.finish();
    }
}
