//! Two-version two-phase locking (2V2PL, [BHR80, SR81]).
//!
//! The writer builds *new* versions off to the side, so readers keep reading
//! committed data and never block. The price — the one §6 highlights — is at
//! commit: the writer must certify each written key, and certify conflicts
//! with readers' S locks. **Readers delay the writer's commit.** The paper's
//! 2VNL avoids exactly this because expired readers are told to restart
//! rather than being waited for.

use crate::lock::{LockManager, LockMode, LockRequestOutcome};
use crate::scheme::{
    int_col, kv_schema, CcError, CcResult, ConcurrencyScheme, ReaderTxn, WriterTxn,
};
use crate::stats::{CcStats, CcStatsSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use wh_storage::iostats::IoSnapshot;
use wh_storage::{IoStats, Rid, Table};
use wh_types::Value;

/// A `(key, value)` store under 2V2PL.
pub struct TwoV2plStore {
    main: Table,
    /// Side heap holding the writer's uncommitted new versions. A separate
    /// physical area, as in the classical algorithms — writing it costs real
    /// I/O, which the E10 report surfaces.
    pending: Table,
    key_map: HashMap<u64, Rid>,
    /// Uncommitted versions of the active writer: key → pending-heap RID.
    pending_map: Mutex<HashMap<u64, Rid>>,
    locks: LockManager,
    stats: CcStats,
    io: Arc<IoStats>,
    next_txn: AtomicU64,
    writer_priority: bool,
}

impl TwoV2plStore {
    /// Create a store with keys `0..n`, all values zero.
    pub fn populate(n: u64, timeout: Duration) -> CcResult<Self> {
        Self::build(n, timeout, false)
    }

    /// Like [`TwoV2plStore::populate`], but a waiting certify fences off
    /// newly-arriving readers (bounded commit delay; readers cannot starve
    /// the maintenance transaction).
    pub fn populate_writer_priority(n: u64, timeout: Duration) -> CcResult<Self> {
        Self::build(n, timeout, true)
    }

    fn build(n: u64, timeout: Duration, writer_priority: bool) -> CcResult<Self> {
        let io = Arc::new(IoStats::new());
        let main = Table::create("2v2pl_main", kv_schema(), Arc::clone(&io))?;
        let pending = Table::create("2v2pl_pending", kv_schema(), Arc::clone(&io))?;
        let mut key_map = HashMap::with_capacity(n as usize);
        for k in 0..n {
            let rid = main.insert(&[Value::from(k as i64), Value::from(0)])?;
            key_map.insert(k, rid);
        }
        Ok(TwoV2plStore {
            main,
            pending,
            key_map,
            pending_map: Mutex::new(HashMap::new()),
            locks: if writer_priority {
                LockManager::two_version_writer_priority(timeout)
            } else {
                LockManager::two_version(timeout)
            },
            stats: CcStats::for_scheme(if writer_priority { "2v2pl_wp" } else { "2v2pl" }),
            io,
            next_txn: AtomicU64::new(1),
            writer_priority,
        })
    }

    fn rid(&self, key: u64) -> CcResult<Rid> {
        self.key_map
            .get(&key)
            .copied()
            .ok_or(CcError::NoSuchKey(key))
    }
}

struct Reader<'s> {
    store: &'s TwoV2plStore,
    txn: u64,
}

impl ReaderTxn for Reader<'_> {
    fn read(&mut self, key: u64) -> CcResult<i64> {
        // S is compatible with the writer's X, so this never waits for the
        // writer — only a pathological certify overlap could delay it.
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
        let row = self.store.main.read(self.store.rid(key)?)?;
        int_col(&row, 1)
    }

    fn finish(self: Box<Self>) {
        self.store.locks.release_all(self.txn);
    }
}

struct Writer<'s> {
    store: &'s TwoV2plStore,
    txn: u64,
    written: Vec<u64>,
}

impl WriterTxn for Writer<'_> {
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
        self.store.rid(key)?; // validate the key exists
        let mut pending = self
            .store
            .pending_map
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match pending.get(&key) {
            Some(&prid) => {
                // Second write to the same key: overwrite the pending version.
                self.store
                    .pending
                    .update(prid, &[Value::from(key as i64), Value::from(value)])?;
            }
            None => {
                let prid = self
                    .store
                    .pending
                    .insert(&[Value::from(key as i64), Value::from(value)])?;
                pending.insert(key, prid);
                self.written.push(key);
            }
        }
        Ok(())
    }

    fn commit(self: Box<Self>) -> CcResult<()> {
        // Certify phase: upgrade every written key. This is where readers
        // delay the writer.
        let certify_start = Instant::now();
        let mut waited = false;
        for &key in &self.written {
            let outcome = self.store.locks.acquire(self.txn, key, LockMode::Certify);
            match outcome {
                LockRequestOutcome::TimedOut => {
                    self.store.stats.aborted();
                    // Leave pending versions; abort path discards them.
                    let me: Box<dyn WriterTxn + '_> = self;
                    return me.abort().and(Err(CcError::Aborted));
                }
                LockRequestOutcome::GrantedAfterWait(_) => waited = true,
                LockRequestOutcome::Granted => {}
            }
        }
        if waited {
            self.store.stats.commit_delayed(certify_start.elapsed());
        }
        // Apply pending versions to the main table in place.
        let mut pending = self
            .store
            .pending_map
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for (&key, &prid) in pending.iter() {
            let new_row = self.store.pending.read(prid)?;
            self.store.main.update(self.store.rid(key)?, &new_row)?;
            self.store.pending.delete(prid)?;
        }
        pending.clear();
        drop(pending);
        self.store.locks.release_all(self.txn);
        Ok(())
    }

    fn abort(self: Box<Self>) -> CcResult<()> {
        // Discard pending versions; main was never touched.
        let mut pending = self
            .store
            .pending_map
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for (_, prid) in pending.drain() {
            self.store.pending.delete(prid)?;
        }
        drop(pending);
        self.store.locks.release_all(self.txn);
        Ok(())
    }
}

impl ConcurrencyScheme for TwoV2plStore {
    fn name(&self) -> &'static str {
        if self.writer_priority {
            "2V2PL-wp"
        } else {
            "2V2PL"
        }
    }

    fn begin_reader(&self) -> Box<dyn ReaderTxn + '_> {
        Box::new(Reader {
            store: self,
            txn: self.next_txn.fetch_add(1, Ordering::Relaxed), // ordering: id-alloc Relaxed — unique-ID allocation; only atomicity of the increment matters
        })
    }

    fn begin_writer(&self) -> Box<dyn WriterTxn + '_> {
        Box::new(Writer {
            store: self,
            txn: self.next_txn.fetch_add(1, Ordering::Relaxed), // ordering: id-alloc Relaxed — unique-ID allocation; only atomicity of the increment matters
            written: Vec::new(),
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
        (self.main.len() + self.pending.len()) * self.main.codec().encoded_len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_do_not_block_on_writer() {
        let store = TwoV2plStore::populate(10, Duration::from_millis(50)).unwrap();
        let mut w = store.begin_writer();
        w.update(3, 42).unwrap();
        // Concurrent reader sees the old value immediately.
        let mut r = store.begin_reader();
        assert_eq!(r.read(3).unwrap(), 0);
        r.finish();
        assert_eq!(store.cc_stats().reader_blocks, 0);
        w.commit().unwrap();
        let mut r = store.begin_reader();
        assert_eq!(r.read(3).unwrap(), 42);
        r.finish();
    }

    #[test]
    fn readers_delay_writer_commit() {
        let store = Arc::new(TwoV2plStore::populate(10, Duration::from_secs(5)).unwrap());
        let mut r = store.begin_reader();
        r.read(3).unwrap(); // reader holds S on key 3
        let store2 = Arc::clone(&store);
        let committer = std::thread::spawn(move || {
            let mut w = store2.begin_writer();
            w.update(3, 42).unwrap();
            w.commit().unwrap(); // must wait for the reader
            store2.cc_stats()
        });
        std::thread::sleep(Duration::from_millis(60));
        // Writer is still stuck in certify; the value is still old.
        let mut r2 = store.begin_reader();
        assert_eq!(r2.read(3).unwrap(), 0);
        r2.finish();
        r.finish(); // release the reader -> commit proceeds
        let stats = committer.join().unwrap();
        assert_eq!(stats.commit_delays, 1);
        assert!(stats.commit_delay_ns > 0);
    }

    #[test]
    fn certify_timeout_aborts_writer() {
        let store = TwoV2plStore::populate(10, Duration::from_millis(40)).unwrap();
        let mut r = store.begin_reader();
        r.read(3).unwrap();
        let mut w = store.begin_writer();
        w.update(3, 42).unwrap();
        assert_eq!(w.commit(), Err(CcError::Aborted));
        r.finish();
        // Main value untouched; pending discarded.
        let mut r = store.begin_reader();
        assert_eq!(r.read(3).unwrap(), 0);
        r.finish();
        assert_eq!(store.pending.len(), 0);
    }

    #[test]
    fn double_update_overwrites_pending() {
        let store = TwoV2plStore::populate(10, Duration::from_millis(100)).unwrap();
        let mut w = store.begin_writer();
        w.update(3, 1).unwrap();
        w.update(3, 2).unwrap();
        assert_eq!(store.pending.len(), 1);
        w.commit().unwrap();
        let mut r = store.begin_reader();
        assert_eq!(r.read(3).unwrap(), 2);
        r.finish();
    }

    #[test]
    fn abort_discards_pending() {
        let store = TwoV2plStore::populate(10, Duration::from_millis(100)).unwrap();
        let mut w = store.begin_writer();
        w.update(1, 9).unwrap();
        w.abort().unwrap();
        assert_eq!(store.pending.len(), 0);
        let mut r = store.begin_reader();
        assert_eq!(r.read(1).unwrap(), 0);
        r.finish();
    }

    #[test]
    fn writer_priority_prevents_starvation() {
        // Without writer priority, a stream of readers can hold S on a key
        // forever; with it, the waiting certify fences new readers out and
        // the commit completes.
        let store =
            Arc::new(TwoV2plStore::populate_writer_priority(8, Duration::from_secs(5)).unwrap());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let committed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            // Endless stream of short readers on key 3.
            {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                        let mut r = store.begin_reader();
                        // Readers may block behind the fence; both outcomes ok.
                        let _ = r.read(3);
                        r.finish();
                    }
                });
            }
            // The writer updates key 3 and commits.
            {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                let committed = Arc::clone(&committed);
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    let mut w = store.begin_writer();
                    w.update(3, 42).unwrap();
                    w.commit().unwrap();
                    committed.store(true, std::sync::atomic::Ordering::SeqCst);
                    stop.store(true, std::sync::atomic::Ordering::SeqCst);
                });
            }
        });
        assert!(committed.load(std::sync::atomic::Ordering::SeqCst));
        let mut r = store.begin_reader();
        assert_eq!(r.read(3).unwrap(), 42);
        r.finish();
        assert_eq!(store.name(), "2V2PL-wp");
    }

    #[test]
    fn pending_storage_counts_toward_footprint() {
        let store = TwoV2plStore::populate(10, Duration::from_millis(100)).unwrap();
        let before = store.storage_bytes();
        let mut w = store.begin_writer();
        w.update(1, 9).unwrap();
        assert!(store.storage_bytes() > before);
        w.commit().unwrap();
        assert_eq!(store.storage_bytes(), before);
    }
}
