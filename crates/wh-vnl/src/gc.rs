//! Garbage collection of logically-deleted tuples (§3.3, §7).
//!
//! A logical delete keeps the physical tuple so readers of earlier versions
//! can still extract the pre-delete state. Once no active (or future) reader
//! can need it, the tuple is physically removed. A tuple whose newest slot
//! is `(tupleVN, delete)` is needed only by sessions with
//! `sessionVN < tupleVN`; every future session starts at
//! `currentVN ≥ tupleVN`, so the tuple is dead as soon as every *active*
//! session satisfies `sessionVN ≥ tupleVN`.

use crate::error::VnlResult;
use crate::table::{SecondaryIndex, VnlTable};
use crate::version::{Operation, VersionNo};
use std::sync::Arc;
use wh_storage::{Rid, StorageError};
use wh_types::fail_point;

/// Result of one collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Recorded deletes examined: the ones old enough to be dead.
    pub scanned: u64,
    /// Tuples reclaimed this pass: retired from the heap (unlinked from
    /// key directory and indexes, invisible to every scan) and queued for
    /// slot release after the epoch grace period.
    pub reclaimed: u64,
    /// Bytes freed (tuple width × reclaimed).
    pub bytes_reclaimed: u64,
    /// Retired slots whose grace period elapsed and whose pages returned
    /// to the free list this pass (may include retires from earlier
    /// passes; equals `reclaimed` when no reader held an epoch pin).
    pub released: u64,
}

/// Run one garbage-collection pass over `table`.
///
/// A pass visits the table's record of committed deletes, not the relation.
/// It is safe at any time, a maintenance transaction included: an
/// uncommitted delete carries `maintenanceVN > currentVN`, above every bound
/// a pass takes.
pub fn collect(table: &VnlTable) -> VnlResult<GcReport> {
    // trace: each GC pass is its own trace — usually nothing ambient is
    // running on the collector thread, and a pass is a complete story.
    let _ts = wh_obs::timed_span!("vnl.gc.pass", "vnl.gc.pass_ns");
    let snap = table.version().snapshot();
    // The horizon: the oldest version any active session reads. Future
    // sessions begin at currentVN.
    let horizon = table
        .min_active_session_vn()
        .unwrap_or(snap.current_vn)
        .min(snap.current_vn);
    // Durable tables additionally cap reclamation at the last completed
    // checkpoint's VN: a delete not yet durable in the checkpoint image
    // must keep its physical tuple, or a crash would resurrect the tuple
    // from the checkpoint with no newer slot history to re-delete it.
    // In-memory tables see `u64::MAX` here (no constraint).
    let bound = horizon.min(table.gc_reclaim_ceiling());
    // How far the oldest live session holds reclamation behind the present:
    // 0 means GC can reach everything committed, k means k generations of
    // logically-deleted tuples are pinned by readers.
    wh_obs::gauge!("vnl.gc.horizon_lag").set(snap.current_vn.saturating_sub(horizon) as i64);
    let mut report = GcReport::default();
    let tuple_bytes = table.storage().codec().encoded_len() as u64;
    // Registry snapshot taken outside any page latch (see
    // `indexes_snapshot` for the lock-order constraint). An index created
    // mid-pass may keep a stale entry for a reclaimed rid; readers already
    // tolerate those.
    let index_snap = table.indexes_snapshot();
    let mut taken = table.take_deletes(bound).into_iter();
    while let Some((vn, rid)) = taken.next() {
        report.scanned += 1;
        let timer = wh_obs::Timer::start();
        match reclaim(table, rid, bound, &index_snap) {
            Ok(false) => continue,
            Ok(true) => {}
            Err(e) => {
                // A failed pass loses no entry: this one and the rest wait
                // for a later pass.
                table.note_deletes(std::iter::once((vn, rid)).chain(taken));
                return Err(e);
            }
        }
        report.reclaimed += 1;
        report.bytes_reclaimed += tuple_bytes;
        wh_obs::histogram!("vnl.gc.reclaim_ns").record(timer.elapsed_ns());
        wh_obs::counter!("vnl.gc.reclaimed").inc();
        wh_obs::counter!("vnl.gc.bytes_reclaimed").add(tuple_bytes);
    }
    // Delta-log eviction rides the same horizon: a repair window is
    // `(sessionVN, currentVN]`, so batches at or below the oldest active
    // sessionVN can never be part of one again.
    evict_deltas(table, horizon);
    report.released = release_after_grace(table)?;
    Ok(report)
}

/// Retire the recorded delete at `rid` if its slot 0, read under the page
/// latch, is still a delete stamped `≤ bound`; a delete not dead yet goes
/// back into the record. A tuple no longer deleted, or gone, leaves the
/// record: whatever deletes it next records itself.
fn reclaim(
    table: &VnlTable,
    rid: Rid,
    bound: VersionNo,
    index_snap: &[Arc<SecondaryIndex>],
) -> VnlResult<bool> {
    // trace: under the caller's vnl.gc.pass span.
    fail_point!("vnl.gc.reclaim");
    // The key-directory and index entries go inside the same latch hold: a
    // concurrent insert of the same key must find the directory slot free
    // the moment the tuple goes invisible, and a late unregister could tear
    // down the *new* tuple's entries. The tuple is *retired*, not deleted:
    // its slot stays unusable until the epoch grace period proves no reader
    // gathered its RID before the unlink; readers only pin an epoch.
    let mut slot0 = None;
    let retired = table.storage().retire_if_then(
        rid,
        |ext| {
            slot0 = table.layout().slot(ext, 0);
            matches!(slot0, Some((vn, Operation::Delete)) if vn <= bound)
        },
        |ext| {
            table.unregister_key(ext, rid);
            for idx in index_snap {
                idx.remove_entry(ext, rid);
            }
        },
    );
    match retired {
        Ok(true) => {}
        Ok(false) | Err(StorageError::NoSuchSlot { .. }) => {
            if let Some((vn, Operation::Delete)) = slot0 {
                table.note_deletes([(vn, rid)]);
            }
            return Ok(false);
        }
        Err(e) => return Err(e.into()),
    }
    table.epochs().retire(rid);
    table.note_physical_delete();
    // Crash window: reclamation fully applied, stats not yet counted —
    // a fault here under-reports the pass but leaves the table sound.
    // trace: under the caller's vnl.gc.pass span.
    fail_point!("vnl.gc.unregister");
    Ok(true)
}

/// Drop retained delta batches no live session can still replay
/// (`vn ≤ horizon`). Failing to evict is always safe — the log is
/// capacity-bounded regardless — so an injected fault merely skips this
/// pass's eviction.
fn evict_deltas(table: &VnlTable, horizon: VersionNo) {
    wh_obs::trace_event!("vnl.delta.evict", horizon);
    // trace: eviction is part of the GC pass's causal story.
    fail_point!("vnl.delta.evict", ());
    table.version().evict_deltas_below(horizon + 1);
}

/// The epoch half of a pass: advance the global epoch toward the grace
/// bound and physically release every retired slot whose grace period has
/// elapsed. With no reader pinned, the two advances succeed immediately and
/// this pass's own retires release synchronously; a pinned reader holds
/// the epoch back and the retires simply wait for a later pass — the
/// deferred-release analogue of the old "active reader blocks reclamation"
/// rule, but enforced without readers taking any lock.
fn release_after_grace(table: &VnlTable) -> VnlResult<u64> {
    // trace: runs inside `collect`'s pass span on the same thread.
    let _ts = wh_obs::trace_span!("vnl.gc.release");
    if wh_obs::is_enabled() {
        wh_obs::gauge!("vnl.gc.epoch").set(table.epochs().epoch() as i64);
        wh_obs::gauge!("vnl.gc.pinned_readers").set(table.epochs().pinned() as i64);
    }
    let advance = wh_obs::Timer::start();
    table.epochs().advance_for_grace();
    let drained = table.epochs().drain_safe();
    wh_obs::histogram!("vnl.gc.epoch_advance_ns").record(advance.elapsed_ns());
    let mut released = 0u64;
    let mut pending = drained.into_iter();
    while let Some(rid) = pending.next() {
        if let Err(e) = table.storage().release(rid) {
            // The release failpoint sits past the page mutation, so on a
            // fault only the free-list hint is lost for `rid`. Requeue the
            // rest (retagged at the current epoch — release is only ever
            // delayed, never hastened) so a later pass retries them.
            for rest in pending {
                table.epochs().retire(rest);
            }
            return Err(e.into());
        }
        released += 1;
        wh_obs::counter!("vnl.gc.released").inc();
    }
    Ok(released)
}

/// A background collector: §3.3's "periodically running a process to
/// physically delete" logically-deleted tuples, as a stoppable thread.
pub struct Collector {
    shared: std::sync::Arc<CollectorShared>,
    reclaimed: std::sync::Arc<std::sync::atomic::AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Stop flag under a mutex + condvar so `stop()` interrupts the
/// inter-pass wait immediately instead of letting the thread finish a
/// full `interval` sleep.
struct CollectorShared {
    stopped: std::sync::Mutex<bool>,
    wake: std::sync::Condvar,
}

impl Collector {
    /// Spawn a collector over `table`, sweeping every `interval`.
    pub fn spawn(table: std::sync::Arc<VnlTable>, interval: std::time::Duration) -> Self {
        let shared = std::sync::Arc::new(CollectorShared {
            stopped: std::sync::Mutex::new(false),
            wake: std::sync::Condvar::new(),
        });
        let reclaimed = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let shared2 = std::sync::Arc::clone(&shared);
        let reclaimed2 = std::sync::Arc::clone(&reclaimed);
        let handle = std::thread::spawn(move || loop {
            // The pass's count is published before the stop flag is
            // re-checked, so a pass in flight when `stop()` is called is
            // always included (exactly once) in the total that `stop()`
            // returns after joining.
            if let Ok(report) = collect(&table) {
                // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                reclaimed2.fetch_add(report.reclaimed, std::sync::atomic::Ordering::Relaxed);
            }
            let guard = shared2
                .stopped
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if *guard {
                break;
            }
            let (guard, _) = shared2
                .wake
                .wait_timeout(guard, interval)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if *guard {
                break;
            }
        });
        Collector {
            shared,
            reclaimed,
            handle: Some(handle),
        }
    }

    /// Tuples reclaimed so far.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed.load(std::sync::atomic::Ordering::Relaxed) // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
    }

    /// Stop the collector and wait for its thread. The returned total
    /// includes any pass that was in flight at stop time, exactly once:
    /// the worker publishes each pass's count before re-checking the stop
    /// flag, and this joins the thread before reading the total.
    pub fn stop(mut self) -> u64 {
        self.shutdown();
        self.reclaimed()
    }

    fn shutdown(&mut self) {
        {
            let mut stopped = self
                .shared
                .stopped
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *stopped = true;
            self.shared.wake.notify_all();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_types::schema::daily_sales_schema;
    use wh_types::{Date, Row, Value};

    fn row(city: &str, sales: i64) -> Row {
        vec![
            Value::from(city),
            Value::from("CA"),
            Value::from("golf equip"),
            Value::from(Date::ymd(1996, 10, 14)),
            Value::from(sales),
        ]
    }

    #[test]
    fn deleted_tuples_reclaimed_when_no_reader_needs_them() {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        t.load_initial(&[row("San Jose", 1), row("Berkeley", 2)])
            .unwrap();
        let txn = t.begin_maintenance().unwrap();
        txn.delete_row(&row("San Jose", 0)).unwrap();
        txn.commit().unwrap();
        // Tuple still physically present (pre-delete version readable).
        assert_eq!(t.storage().len(), 2);
        let report = collect(&t).unwrap();
        assert_eq!(report.scanned, 1);
        assert_eq!(report.reclaimed, 1);
        assert_eq!(t.storage().len(), 1);
        assert!(report.bytes_reclaimed > 0);
    }

    #[test]
    fn epoch_pin_defers_slot_release_without_blocking_retire() {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        t.load_initial(&[row("San Jose", 1), row("Berkeley", 2)])
            .unwrap();
        let txn = t.begin_maintenance().unwrap();
        txn.delete_row(&row("San Jose", 0)).unwrap();
        txn.commit().unwrap();
        // A pinned reader (no session — just the epoch pin, as a scan
        // holds mid-flight) must not block the logical retire, only the
        // physical slot release.
        let pin = t.epochs().pin();
        let report = collect(&t).unwrap();
        assert_eq!(report.reclaimed, 1, "retire proceeds under a pin");
        assert_eq!(report.released, 0, "slot release waits out the pin");
        assert_eq!(t.retired_backlog(), 1);
        assert_eq!(t.storage().len(), 1, "retired tuple already invisible");
        drop(pin);
        // With the pin gone, the next pass ages the retire past the grace
        // period and returns the slot to the free list.
        let report = collect(&t).unwrap();
        assert_eq!(report.reclaimed, 0);
        assert_eq!(report.released, 1);
        assert_eq!(t.retired_backlog(), 0);
    }

    #[test]
    fn active_old_reader_blocks_reclamation() {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        t.load_initial(&[row("San Jose", 1)]).unwrap();
        let old_session = t.begin_session(); // sessionVN = 1
        let txn = t.begin_maintenance().unwrap();
        txn.delete_row(&row("San Jose", 0)).unwrap();
        txn.commit().unwrap(); // delete at VN 2
        let report = collect(&t).unwrap();
        assert_eq!(
            report.reclaimed, 0,
            "old reader still needs the pre-delete version"
        );
        // The old session can still read it.
        let rows = old_session.scan().unwrap();
        assert_eq!(rows.len(), 1);
        old_session.finish();
        // Now it is collectable.
        assert_eq!(collect(&t).unwrap().reclaimed, 1);
    }

    #[test]
    fn uncommitted_deletes_never_collected() {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        t.load_initial(&[row("San Jose", 1)]).unwrap();
        let txn = t.begin_maintenance().unwrap();
        txn.delete_row(&row("San Jose", 0)).unwrap();
        // GC during the active transaction must not touch its work.
        let report = collect(&t).unwrap();
        assert_eq!(report.reclaimed, 0);
        txn.abort().unwrap();
        assert_eq!(t.storage().len(), 1);
        // After abort the tuple is live again — nothing to collect.
        assert_eq!(collect(&t).unwrap().scanned, 0);
    }

    #[test]
    fn a_pass_examines_the_deletes_not_the_relation() {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        let rows: Vec<Row> = (0..10_000).map(|i| row(&format!("city{i}"), i)).collect();
        t.load_initial(&rows).unwrap();
        let txn = t.begin_maintenance().unwrap();
        txn.delete_row(&row("city4321", 0)).unwrap();
        txn.commit().unwrap();
        let report = collect(&t).unwrap();
        assert_eq!((report.scanned, report.reclaimed), (1, 1));
        assert_eq!(collect(&t).unwrap().scanned, 0, "the record is drained");
    }

    #[test]
    fn a_resurrection_aborted_after_a_pass_is_still_reclaimed() {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        t.load_initial(&[row("San Jose", 1)]).unwrap();
        let txn = t.begin_maintenance().unwrap();
        txn.delete_row(&row("San Jose", 0)).unwrap();
        txn.commit().unwrap();
        // The pass meets the tuple resurrected (slot 0 is the open
        // transaction's insert) and drops its entry; the abort puts the
        // delete back into slot 0 and so back into the record.
        let txn = t.begin_maintenance().unwrap();
        txn.insert(row("San Jose", 7)).unwrap();
        let report = collect(&t).unwrap();
        assert_eq!((report.scanned, report.reclaimed), (1, 0));
        txn.abort().unwrap();
        assert_eq!(collect(&t).unwrap().reclaimed, 1);
        assert_eq!(t.storage().len(), 0);
    }

    #[test]
    fn background_collector_reclaims() {
        let t = std::sync::Arc::new(VnlTable::create(daily_sales_schema(), 2).unwrap());
        t.load_initial(&[row("San Jose", 1), row("Berkeley", 2)])
            .unwrap();
        let collector = Collector::spawn(
            std::sync::Arc::clone(&t),
            std::time::Duration::from_millis(5),
        );
        let txn = t.begin_maintenance().unwrap();
        txn.delete_row(&row("San Jose", 0)).unwrap();
        txn.commit().unwrap();
        // Wait for the daemon to sweep.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while t.storage().len() > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(t.storage().len(), 1);
        assert_eq!(collector.stop(), 1);
    }

    #[test]
    fn stop_during_collect_counts_in_flight_pass_exactly_once() {
        // Many logically-deleted tuples make the first pass substantial;
        // the 30s interval means a correct `stop()` must interrupt the
        // inter-pass wait (a sleep-based loop would hang the test) and the
        // total it returns must match physical reclamation exactly — the
        // in-flight pass is joined and counted once, wherever stop lands.
        let t = std::sync::Arc::new(VnlTable::create(daily_sales_schema(), 2).unwrap());
        let rows: Vec<Row> = (0..40).map(|i| row(&format!("city{i}"), i)).collect();
        t.load_initial(&rows).unwrap();
        let txn = t.begin_maintenance().unwrap();
        for i in 0..39 {
            txn.delete_row(&row(&format!("city{i}"), 0)).unwrap();
        }
        txn.commit().unwrap();
        let physical_before = t.storage().len();
        assert_eq!(physical_before, 40);
        let collector = Collector::spawn(
            std::sync::Arc::clone(&t),
            std::time::Duration::from_secs(30),
        );
        let total = collector.stop();
        assert_eq!(
            total,
            physical_before - t.storage().len(),
            "stop() total must equal tuples physically removed"
        );
    }

    #[test]
    fn collector_stops_cleanly_when_dropped() {
        let t = std::sync::Arc::new(VnlTable::create(daily_sales_schema(), 2).unwrap());
        let collector = Collector::spawn(
            std::sync::Arc::clone(&t),
            std::time::Duration::from_millis(1),
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(collector); // must join without hanging
        t.load_initial(&[row("San Jose", 1)]).unwrap();
    }

    #[test]
    fn collector_races_maintenance_safely() {
        // Delete/re-insert the same key across many transactions while the
        // collector sweeps aggressively: every insert must land, whether it
        // resurrects the tuple or recreates it after reclamation.
        let t = std::sync::Arc::new(VnlTable::create(daily_sales_schema(), 2).unwrap());
        t.load_initial(&[row("San Jose", 0)]).unwrap();
        let collector = Collector::spawn(
            std::sync::Arc::clone(&t),
            std::time::Duration::from_micros(200),
        );
        for i in 1..60i64 {
            let txn = t.begin_maintenance().unwrap();
            txn.delete_row(&row("San Jose", 0)).unwrap();
            txn.commit().unwrap();
            let txn = t.begin_maintenance().unwrap();
            txn.insert(row("San Jose", i)).unwrap();
            txn.commit().unwrap();
        }
        // Deleting a committed-deleted key finds no tuple, whether the
        // collector has not reached it yet, retires it between the key
        // probe and the read, or has already unregistered the key.
        let keys: Vec<Row> = (0..16).map(|i| row(&format!("city{i}"), i)).collect();
        for _ in 0..40 {
            let txn = t.begin_maintenance().unwrap();
            keys.iter().for_each(|k| txn.insert(k.clone()).unwrap());
            txn.commit().unwrap();
            let txn = t.begin_maintenance().unwrap();
            keys.iter().for_each(|k| txn.delete_row(k).unwrap());
            txn.commit().unwrap();
            let txn = t.begin_maintenance().unwrap();
            for k in &keys {
                let err = txn.delete_row(k).unwrap_err();
                assert!(matches!(err, crate::VnlError::NoSuchTuple(_)), "{err:?}");
            }
            txn.commit().unwrap();
        }
        collector.stop();
        let s = t.begin_session();
        let rows = s.scan().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][4], Value::from(59));
        s.finish();
    }

    #[test]
    fn reclaimed_key_is_reinsertable_as_fresh() {
        let t = VnlTable::create(daily_sales_schema(), 2).unwrap();
        t.load_initial(&[row("San Jose", 1)]).unwrap();
        let txn = t.begin_maintenance().unwrap();
        txn.delete_row(&row("San Jose", 0)).unwrap();
        txn.commit().unwrap();
        collect(&t).unwrap();
        // Re-insert goes down Table 2 row 3 (no conflict), not resurrection.
        let txn = t.begin_maintenance().unwrap();
        txn.set_tracing(true);
        txn.insert(row("San Jose", 5)).unwrap();
        let trace = txn.take_trace();
        assert_eq!(trace[0].0, crate::maintenance::PhysicalAction::InsertTuple);
        txn.commit().unwrap();
    }
}
