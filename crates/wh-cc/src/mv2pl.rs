//! Multi-version 2PL with a version pool (transient versioning, \[CFL+82\]).
//!
//! Readers never block and never delay the writer: each reader works at its
//! begin-timestamp and, when the main tuple is too new, follows the tuple's
//! version chain into a separate **version pool**. The costs §6 attributes to
//! this family are made measurable here:
//!
//! * the writer's first touch of a tuple copies the old version into the
//!   pool — an extra page write per touched tuple;
//! * a reader needing an old version performs extra page reads chasing the
//!   chain;
//! * pool versions persist until garbage collection proves no active reader
//!   needs them.
//!
//! Writer-writer synchronization would use 2PL in the general algorithm; the
//! warehouse setting has a single maintenance writer (external protocol), so
//! no writer locks are exercised — matching the paper's framing that "all
//! multi-version algorithms use essentially the same technique for
//! synchronizing readers".

use crate::scheme::{int_col, CcError, CcResult, ConcurrencyScheme, ReaderTxn, WriterTxn};
use crate::stats::{CcStats, CcStatsSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, PoisonError};
use wh_storage::iostats::IoSnapshot;
use wh_storage::{IoStats, Rid, Table};
use wh_types::{Column, DataType, Schema, Value};

#[expect(clippy::expect_used, reason = "static schema literal")]
fn versioned_schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("key", DataType::Int64),
            Column::updatable("value", DataType::Int64),
            Column::updatable("ts", DataType::Int64),
        ],
        &["key"],
    )
    .expect("versioned schema is valid")
}

/// A `(key, value)` store under MV2PL-style transient versioning.
pub struct Mv2plStore {
    main: Table,
    /// The version pool: superseded `(key, value, ts)` images.
    pool: Table,
    key_map: HashMap<u64, Rid>,
    /// Per-key chains of pool versions, newest first.
    chains: Mutex<HashMap<u64, Vec<(i64, Rid)>>>,
    /// Timestamp of the last committed writer.
    committed_ts: AtomicI64,
    /// Begin-timestamps of active readers (for GC).
    active_readers: Mutex<Vec<i64>>,
    stats: CcStats,
    io: Arc<IoStats>,
    /// \[BC92b\]'s refinement: a page-resident cache of each tuple's most
    /// recent old version. Serving from it costs no pool I/O (the version
    /// sits on the data page the reader already fetched); only deeper chain
    /// hops touch the pool. `None` = the classic \[CFL+82\] design.
    page_cache: Option<Mutex<HashMap<u64, (i64, i64)>>>,
}

impl Mv2plStore {
    /// Create a store with keys `0..n`, all values zero, at timestamp 0.
    pub fn populate(n: u64) -> CcResult<Self> {
        Self::build(n, false)
    }

    /// Like [`Mv2plStore::populate`] with the \[BC92b\] page-resident version
    /// cache enabled.
    pub fn populate_with_cache(n: u64) -> CcResult<Self> {
        Self::build(n, true)
    }

    fn build(n: u64, cached: bool) -> CcResult<Self> {
        let io = Arc::new(IoStats::new());
        let main = Table::create("mv2pl_main", versioned_schema(), Arc::clone(&io))?;
        let pool = Table::create("mv2pl_pool", versioned_schema(), Arc::clone(&io))?;
        let mut key_map = HashMap::with_capacity(n as usize);
        for k in 0..n {
            let rid = main.insert(&[Value::from(k as i64), Value::from(0), Value::from(0)])?;
            key_map.insert(k, rid);
        }
        Ok(Mv2plStore {
            main,
            pool,
            key_map,
            chains: Mutex::new(HashMap::new()),
            committed_ts: AtomicI64::new(0),
            active_readers: Mutex::new(Vec::new()),
            stats: CcStats::for_scheme(if cached { "mv2pl_cache" } else { "mv2pl" }),
            io,
            page_cache: cached.then(|| Mutex::new(HashMap::new())),
        })
    }

    fn rid(&self, key: u64) -> CcResult<Rid> {
        self.key_map
            .get(&key)
            .copied()
            .ok_or(CcError::NoSuchKey(key))
    }

    /// Number of versions currently parked in the pool.
    pub fn pool_len(&self) -> u64 {
        self.pool.len()
    }

    /// Garbage-collect pool versions no active reader can need: within each
    /// chain, everything older than the newest version visible at the oldest
    /// active begin-timestamp.
    pub fn gc(&self) -> CcResult<u64> {
        let min_ts = {
            let readers = self
                .active_readers
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            readers
                .iter()
                .copied()
                .min()
                .unwrap_or_else(|| self.committed_ts.load(Ordering::SeqCst)) // ordering: mv2pl-ts SeqCst — the MV2PL commit timestamp is a global publication point
        };
        let mut chains = self.chains.lock().unwrap_or_else(PoisonError::into_inner);
        let mut reclaimed = 0;
        let mut dead = Vec::new();
        for (&key, chain) in chains.iter_mut() {
            // If the main tuple itself is visible at min_ts, no pool version
            // of this key can be needed by anyone.
            let main_visible = self
                .rid(key)
                .and_then(|rid| Ok(self.main.read(rid)?))
                .is_ok_and(|row| row[2].as_int().is_some_and(|ts| ts <= min_ts));
            // chain is newest-first; the newest version with ts <= min_ts is
            // still potentially visible (unless main covers it); everything
            // older is dead.
            let cut = if main_visible {
                0
            } else {
                match chain.iter().position(|&(ts, _)| ts <= min_ts) {
                    Some(pos) => pos + 1,
                    None => chain.len(),
                }
            };
            for &(_, rid) in &chain[cut..] {
                if self.pool.delete(rid).is_ok() {
                    reclaimed += 1;
                }
            }
            chain.truncate(cut);
            if chain.is_empty() {
                dead.push(key);
            }
        }
        for key in dead {
            chains.remove(&key);
        }
        Ok(reclaimed)
    }
}

struct Reader<'s> {
    store: &'s Mv2plStore,
    ts: i64,
    finished: bool,
}

impl Reader<'_> {
    fn deregister(&mut self) {
        if !self.finished {
            let mut readers = self
                .store
                .active_readers
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(pos) = readers.iter().position(|&t| t == self.ts) {
                readers.swap_remove(pos);
            }
            self.finished = true;
        }
    }
}

impl ReaderTxn for Reader<'_> {
    fn read(&mut self, key: u64) -> CcResult<i64> {
        let row = self.store.main.read(self.store.rid(key)?)?;
        let tuple_ts = int_col(&row, 2)?;
        if tuple_ts <= self.ts {
            return int_col(&row, 1);
        }
        // Chase the version chain: newest-first, take the first ts <= ours.
        let chain = {
            let chains = self
                .store
                .chains
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            chains.get(&key).cloned().unwrap_or_default()
        };
        for (hop, (ts, rid)) in chain.into_iter().enumerate() {
            if ts <= self.ts {
                // [BC92b]: the newest old version may live on the data page
                // itself — serving it costs no pool I/O.
                if hop == 0 {
                    if let Some(cache) = &self.store.page_cache {
                        if let Some(&(cts, cval)) = cache
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get(&key)
                        {
                            if cts == ts {
                                return Ok(cval);
                            }
                        }
                    }
                }
                let v = self.store.pool.read(rid)?;
                return int_col(&v, 1);
            }
            // Skipped (too-new) hops still cost a pool read in the classic
            // design: the chain is walked through the pool pages.
            let _ = self.store.pool.read(rid)?;
        }
        Err(CcError::VersionUnavailable(key))
    }

    fn finish(mut self: Box<Self>) {
        self.deregister();
    }
}

impl Drop for Reader<'_> {
    fn drop(&mut self) {
        self.deregister();
    }
}

struct Writer<'s> {
    store: &'s Mv2plStore,
    ts: i64,
    touched: Vec<u64>,
}

impl WriterTxn for Writer<'_> {
    fn update(&mut self, key: u64, value: i64) -> CcResult<()> {
        let rid = self.store.rid(key)?;
        let row = self.store.main.read(rid)?;
        let tuple_ts = int_col(&row, 2)?;
        if tuple_ts < self.ts {
            // First touch in this transaction: copy the committed image out
            // to the version pool (the extra write I/O §6 talks about).
            let pool_rid = self.store.pool.insert(&row)?;
            self.store
                .chains
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .entry(key)
                .or_default()
                .insert(0, (tuple_ts, pool_rid));
            // Keep the page-resident copy of the displaced version ([BC92b]);
            // writing it is free — it shares the page write above.
            if let Some(cache) = &self.store.page_cache {
                let old = int_col(&row, 1)?;
                cache
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(key, (tuple_ts, old));
            }
            self.touched.push(key);
        }
        self.store.main.update(
            rid,
            &[
                Value::from(key as i64),
                Value::from(value),
                Value::from(self.ts),
            ],
        )?;
        Ok(())
    }

    fn commit(self: Box<Self>) -> CcResult<()> {
        // Publication is a single timestamp bump: readers that began earlier
        // keep resolving through the pool.
        self.store.committed_ts.store(self.ts, Ordering::SeqCst); // ordering: mv2pl-ts SeqCst — the MV2PL commit timestamp is a global publication point
        Ok(())
    }

    fn abort(self: Box<Self>) -> CcResult<()> {
        // Restore each touched tuple from its newest pool version.
        let mut chains = self
            .store
            .chains
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for key in &self.touched {
            let rid = self.store.rid(*key)?;
            if let Some(chain) = chains.get_mut(key) {
                if let Some((_, pool_rid)) = chain.first().copied() {
                    let old = self.store.pool.read(pool_rid)?;
                    self.store.main.update(rid, &old)?;
                    self.store.pool.delete(pool_rid)?;
                    chain.remove(0);
                }
                if chain.is_empty() {
                    chains.remove(key);
                }
            }
        }
        Ok(())
    }
}

impl ConcurrencyScheme for Mv2plStore {
    fn name(&self) -> &'static str {
        if self.page_cache.is_some() {
            "MV2PL+cache"
        } else {
            "MV2PL"
        }
    }

    fn begin_reader(&self) -> Box<dyn ReaderTxn + '_> {
        let ts = self.committed_ts.load(Ordering::SeqCst); // ordering: mv2pl-ts SeqCst — the MV2PL commit timestamp is a global publication point
        self.active_readers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(ts);
        Box::new(Reader {
            store: self,
            ts,
            finished: false,
        })
    }

    fn begin_writer(&self) -> Box<dyn WriterTxn + '_> {
        Box::new(Writer {
            store: self,
            ts: self.committed_ts.load(Ordering::SeqCst) + 1, // ordering: mv2pl-ts SeqCst — the MV2PL commit timestamp is a global publication point
            touched: Vec::new(),
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
        (self.main.len() + self.pool.len()) * self.main.codec().encoded_len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_isolation_for_readers() {
        let store = Mv2plStore::populate(10).unwrap();
        let mut old_reader = store.begin_reader();
        let mut w = store.begin_writer();
        w.update(3, 42).unwrap();
        w.commit().unwrap();
        // Reader that began before the writer still sees 0 via the pool.
        assert_eq!(old_reader.read(3).unwrap(), 0);
        old_reader.finish();
        // New reader sees the committed value from main.
        let mut new_reader = store.begin_reader();
        assert_eq!(new_reader.read(3).unwrap(), 42);
        new_reader.finish();
    }

    #[test]
    fn uncommitted_writes_invisible() {
        let store = Mv2plStore::populate(10).unwrap();
        let mut w = store.begin_writer();
        w.update(3, 42).unwrap();
        let mut r = store.begin_reader();
        assert_eq!(r.read(3).unwrap(), 0); // resolved through the pool
        r.finish();
        w.commit().unwrap();
    }

    #[test]
    fn writer_first_touch_costs_pool_write() {
        let store = Mv2plStore::populate(10).unwrap();
        store.reset_stats();
        let mut w = store.begin_writer();
        w.update(3, 1).unwrap();
        assert_eq!(store.pool_len(), 1);
        // Second update to the same key reuses the main tuple (no new copy).
        w.update(3, 2).unwrap();
        assert_eq!(store.pool_len(), 1);
        w.commit().unwrap();
    }

    #[test]
    fn old_reader_pays_extra_reads() {
        let store = Mv2plStore::populate(10).unwrap();
        let mut old_reader = store.begin_reader();
        let mut w = store.begin_writer();
        w.update(3, 42).unwrap();
        w.commit().unwrap();
        store.reset_stats();
        old_reader.read(3).unwrap();
        let old_io = store.io_stats().page_reads;
        old_reader.finish();
        store.reset_stats();
        let mut new_reader = store.begin_reader();
        new_reader.read(3).unwrap();
        let new_io = store.io_stats().page_reads;
        new_reader.finish();
        assert!(
            old_io > new_io,
            "chain chase should cost extra reads ({old_io} vs {new_io})"
        );
    }

    #[test]
    fn multiple_generations_resolve_correctly() {
        let store = Mv2plStore::populate(4).unwrap();
        let mut r0 = store.begin_reader(); // ts 0
        for gen in 1..=3 {
            let mut w = store.begin_writer();
            w.update(1, gen * 100).unwrap();
            w.commit().unwrap();
        }
        let mut r3 = store.begin_reader(); // ts 3
        assert_eq!(r0.read(1).unwrap(), 0);
        assert_eq!(r3.read(1).unwrap(), 300);
        r0.finish();
        r3.finish();
        assert_eq!(store.pool_len(), 3);
    }

    #[test]
    fn gc_respects_active_readers() {
        let store = Mv2plStore::populate(4).unwrap();
        let mut r0 = store.begin_reader(); // needs ts<=0 versions
        for gen in 1..=3 {
            let mut w = store.begin_writer();
            w.update(1, gen * 100).unwrap();
            w.commit().unwrap();
        }
        // r0 is active at ts 0: the ts-0 version must survive GC.
        store.gc().unwrap();
        assert_eq!(r0.read(1).unwrap(), 0);
        r0.finish();
        // Now only the newest version matters; GC can drain the chain.
        let reclaimed = store.gc().unwrap();
        assert!(reclaimed > 0);
        assert_eq!(store.pool_len(), 0);
        let mut r = store.begin_reader();
        assert_eq!(r.read(1).unwrap(), 300);
        r.finish();
    }

    #[test]
    fn writer_abort_restores_main() {
        let store = Mv2plStore::populate(4).unwrap();
        let mut w = store.begin_writer();
        w.update(2, 9).unwrap();
        w.abort().unwrap();
        let mut r = store.begin_reader();
        assert_eq!(r.read(2).unwrap(), 0);
        r.finish();
        assert_eq!(store.pool_len(), 0);
    }

    /// Page reads charged to an old reader resolving one superseded tuple.
    fn old_reader_cost(store: &Mv2plStore) -> u64 {
        let mut old = store.begin_reader();
        let mut w = store.begin_writer();
        w.update(3, 42).unwrap();
        w.commit().unwrap();
        store.reset_stats();
        assert_eq!(old.read(3).unwrap(), 0);
        let n = store.io_stats().page_reads;
        old.finish();
        n
    }

    #[test]
    fn page_cache_serves_newest_old_version_without_pool_io() {
        let cached_reads = old_reader_cost(&Mv2plStore::populate_with_cache(8).unwrap());
        let classic_reads = old_reader_cost(&Mv2plStore::populate(8).unwrap());
        assert!(
            cached_reads < classic_reads,
            "cache should save the pool hop ({cached_reads} vs {classic_reads})"
        );
    }

    #[test]
    fn cache_does_not_serve_stale_versions() {
        // Two generations deep: the cache holds only the NEWEST old version;
        // an older reader must still resolve correctly through the pool.
        let store = Mv2plStore::populate_with_cache(4).unwrap();
        let mut r0 = store.begin_reader(); // ts 0
        for gen in 1..=2 {
            let mut w = store.begin_writer();
            w.update(1, gen * 100).unwrap();
            w.commit().unwrap();
        }
        let mut r1_like = store.begin_reader(); // ts 2 -> reads main
        assert_eq!(r0.read(1).unwrap(), 0); // pool, beyond the cache
        assert_eq!(r1_like.read(1).unwrap(), 200);
        r0.finish();
        r1_like.finish();
        assert_eq!(store.name(), "MV2PL+cache");
    }

    #[test]
    fn no_blocking_anywhere() {
        let store = Arc::new(Mv2plStore::populate(100).unwrap());
        std::thread::scope(|s| {
            let st = Arc::clone(&store);
            s.spawn(move || {
                for round in 0..5 {
                    let mut w = st.begin_writer();
                    for k in 0..100 {
                        w.update(k, round * 1000 + k as i64).unwrap();
                    }
                    w.commit().unwrap();
                }
            });
            for _ in 0..4 {
                let st = Arc::clone(&store);
                s.spawn(move || {
                    for _ in 0..20 {
                        let mut r = st.begin_reader();
                        let mut values = Vec::new();
                        for k in 0..100 {
                            values.push(r.read(k).unwrap());
                        }
                        r.finish();
                        // All values from one consistent generation.
                        let gen = values[0] / 1000;
                        for (k, v) in values.iter().enumerate() {
                            assert_eq!(
                                *v,
                                gen * 1000 + if gen == 0 && *v == 0 { 0 } else { k as i64 },
                                "inconsistent read within one reader"
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(store.cc_stats().total_blocks(), 0);
    }
}
