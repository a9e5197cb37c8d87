//! Disk-backed durability for nVNL tables: fuzzy checkpoints and log-free
//! restart recovery.
//!
//! §7's observation — that a consistent pre-transaction state is always
//! reconstructible from the tuples' own version slots — is usually read as
//! a statement about *crash recovery inside one process*. It is stronger
//! than that: the version slots subsume the undo log entirely, so a
//! disk-backed 2VNL/nVNL table needs **no write-ahead log**. The durable
//! tier here is:
//!
//! * a **steal, no-force** buffer pool ([`wh_storage::BufferPool`]) under
//!   the physical heap — dirty pages may reach disk at any moment
//!   (eviction mid-transaction is fine) and are not forced at commit;
//! * a **fuzzy checkpoint** ([`checkpoint`]) that snapshots the version
//!   state *first*, then flushes dirty pages without quiescing readers or
//!   the maintenance transaction, and finally commits atomically by
//!   renaming the metadata file;
//! * **restart recovery** ([`recover_from_disk`]) that reopens the heap,
//!   restores the `Version` relation from the checkpoint metadata, and
//!   runs the ordinary §7 slot-reconstruction pass — the same code path
//!   used after an in-process abort — to roll back whatever partial
//!   maintenance work the steal policy let reach disk.
//!
//! Why this is sound: the checkpoint records version `V` captured *before*
//! any page was flushed, so every flushed page is at version ≥ `V` — never
//! older. After a crash, tuples stamped `tupleVN > V` are exactly "the
//! crashed maintenance transaction's tuples" from §7's perspective (some
//! may belong to transactions that *committed* after the checkpoint; those
//! commits are lost — a bounded durability lag, not corruption — because
//! rollback restores the consistent state at `V`). Tuples at `tupleVN ≤ V`
//! still physically carry their pre-images in older slots, **provided GC
//! has not reclaimed them** — which is why [`VnlTable::gc_reclaim_ceiling`]
//! caps reclamation at the last completed checkpoint's VN on durable
//! tables: a delete committed after the checkpoint must keep its tombstone
//! until the *next* checkpoint makes it durable.
//!
//! The one-tuple `Version` relation is not persisted as a table; the
//! checkpoint metadata *is* its durable form (two u64 fields in a 56-byte
//! record vs. a page-granularity heap — same information, atomic rename
//! instead of page checksums).

use crate::error::{VnlError, VnlResult};
use crate::recovery::{self, RecoveryReport};
use crate::schema_ext::ExtLayout;
use crate::table::VnlTable;
use crate::version::{VersionNo, VersionState};
use std::path::Path;
use std::sync::Arc;
use wh_storage::{CheckpointMeta, CheckpointStats, IoStats, Table, VersionMeta};
use wh_types::Schema;

/// What [`recover_from_disk`] reconstructed, combining the checkpoint
/// metadata it started from with the §7 slot-reconstruction pass it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRecoveryReport {
    /// The version the checkpoint captured — the state recovery restores.
    pub checkpoint_vn: VersionNo,
    /// Whether the checkpoint recorded an in-flight maintenance
    /// transaction (recovery clears the flag either way).
    pub maintenance_was_active: bool,
    /// Physical pages reopened from the page store.
    pub pages_loaded: u32,
    /// The §7 recovery pass over the reopened tuples.
    pub recovery: RecoveryReport,
}

/// Create an empty disk-backed nVNL table in `dir` with a buffer pool of
/// at most `capacity` resident pages.
///
/// The GC reclamation ceiling starts at 0 — *nothing* may be physically
/// reclaimed until the first [`checkpoint`] completes, because before that
/// no deleted tuple's tombstone is durable.
pub fn create_durable(
    name: impl Into<String>,
    base_schema: Schema,
    n: usize,
    dir: &Path,
    capacity: usize,
) -> VnlResult<VnlTable> {
    let io = Arc::new(IoStats::new());
    let version = Arc::new(VersionState::new(Arc::clone(&io))?);
    let layout = ExtLayout::new(base_schema, n)?;
    let storage = Table::create_backed(
        "ext",
        layout.ext_schema().clone(),
        dir,
        capacity,
        Arc::clone(&io),
    )?;
    let table = VnlTable::from_parts(name, layout, storage, version, io)?;
    table.set_gc_reclaim_ceiling(0);
    Ok(table)
}

/// Take a fuzzy checkpoint of a durable table: flush every dirty page and
/// atomically commit metadata from which [`recover_from_disk`] can restore
/// a consistent state. Readers and the maintenance transaction keep
/// running throughout — no quiescing, no latch held across I/O.
///
/// Ordering is the soundness-critical part: the version snapshot is taken
/// **before** the first page flush. If a maintenance transaction commits
/// mid-flush, some of its pages reach disk and some don't — but its
/// `tupleVN` exceeds the recorded `V`, so restart recovery rolls back
/// whichever half made it. Snapshotting *after* the flush would record a
/// `V` the flushed pages don't fully contain, and recovery would trust
/// tuples that are only partially on disk.
///
/// A crash anywhere inside this function leaves the *previous* checkpoint
/// intact: the metadata commit is a `tmp + fsync + rename`, and the shadow-
/// paired page blocks keep each page's last good image until its
/// replacement is fully written.
pub fn checkpoint(table: &VnlTable) -> VnlResult<CheckpointStats> {
    if !table.is_durable() {
        return Err(VnlError::Storage(wh_storage::StorageError::Io(
            "checkpoint requires a disk-backed table (see durable::create_durable)".into(),
        )));
    }
    // trace: the storage layer's flush spans parent under this one.
    let _ts = wh_obs::trace_span!("vnl.checkpoint");
    // Snapshot first — see the ordering argument above.
    let snap = table.version().snapshot();
    // Reclamation durable through this checkpoint cannot precede the oldest
    // active session's view (GC's own horizon already enforces the live
    // half; this records the durable half for the *next* recovery).
    let gc_horizon = table
        .min_active_session_vn()
        .unwrap_or(snap.current_vn)
        .min(snap.current_vn);
    let stats = table.storage().heap().checkpoint(VersionMeta {
        current_vn: snap.current_vn,
        maintenance_active: snap.maintenance_active,
        recovery_floor: table.version().recovery_floor(),
        gc_horizon,
    })?;
    // Only after the metadata rename is GC allowed to reclaim tombstones up
    // to this checkpoint's VN: their deletion is now durable.
    table.set_gc_reclaim_ceiling(snap.current_vn);
    Ok(stats)
}

/// Reopen a durable table from `dir` after a process restart (or crash),
/// restore the version state from the checkpoint metadata, and run the §7
/// log-free recovery pass to roll back any partially-flushed maintenance
/// work. The recovery fence rises before any reconstructed tuple can be
/// served, so stale leased readers expire rather than read reconstructed
/// values (see [`crate::recovery`]).
///
/// Idempotent: a second call on the same directory finds nothing pending
/// and returns the same state. This makes retry after a transient I/O
/// error during recovery safe.
pub fn recover_from_disk(
    name: impl Into<String>,
    base_schema: Schema,
    n: usize,
    dir: &Path,
    capacity: usize,
) -> VnlResult<(VnlTable, DiskRecoveryReport)> {
    let io = Arc::new(IoStats::new());
    // trace: restart restore + the §7 recovery pass under one root span.
    let _ts = wh_obs::trace_span!("vnl.restart");
    let layout = ExtLayout::new(base_schema, n)?;
    let meta = CheckpointMeta::read(dir)?;
    let storage = Table::open_backed(
        "ext",
        layout.ext_schema().clone(),
        dir,
        capacity,
        Arc::clone(&io),
    )?;
    let version = Arc::new(VersionState::restore(
        Arc::clone(&io),
        meta.current_vn,
        meta.maintenance_active,
        meta.recovery_floor,
    )?);
    let table = VnlTable::from_parts(name, layout, storage, version, io)?;
    // The §7 pass: identical to in-process crash recovery — the slots on
    // the reopened pages are the only "log" consulted.
    let report = recovery::recover(&table)?;
    table.set_gc_reclaim_ceiling(meta.current_vn);
    Ok((
        table,
        DiskRecoveryReport {
            checkpoint_vn: meta.current_vn,
            maintenance_was_active: meta.maintenance_active,
            pages_loaded: meta.page_count,
            recovery: report,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wh_types::{Column, DataType, Value};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed); // ordering: id-alloc Relaxed — unique-name counter only
        let dir = std::env::temp_dir().join(format!("wh-durable-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn schema() -> Schema {
        Schema::with_key_names(
            vec![
                Column::new("k", DataType::Int64),
                Column::updatable("v", DataType::Int64),
            ],
            &["k"],
        )
        .unwrap()
    }

    fn row(k: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(k), Value::Int(v)]
    }

    fn live(table: &VnlTable, svn: VersionNo) -> Vec<(i64, i64)> {
        let session = table.begin_session_at(svn);
        let mut out: Vec<(i64, i64)> = session
            .scan()
            .unwrap()
            .into_iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn committed_state_survives_restart() {
        let dir = temp_dir("commit");
        let table = create_durable("R", schema(), 2, &dir, 4).unwrap();
        {
            let txn = table.begin_maintenance().unwrap();
            txn.insert(row(1, 10)).unwrap();
            txn.insert(row(2, 20)).unwrap();
            txn.commit().unwrap();
        }
        {
            let txn = table.begin_maintenance().unwrap();
            txn.update_row(&row(1, 11)).unwrap();
            txn.delete_row(&row(2, 0)).unwrap();
            txn.insert(row(3, 30)).unwrap();
            txn.commit().unwrap();
        }
        let stats = checkpoint(&table).unwrap();
        assert_eq!(stats.checkpoint_vn, 3);
        drop(table);

        let (reopened, report) = recover_from_disk("R", schema(), 2, &dir, 4).unwrap();
        assert_eq!(report.checkpoint_vn, 3);
        assert!(!report.maintenance_was_active);
        assert_eq!(report.recovery.pending_found, 0, "clean checkpoint");
        assert_eq!(report.recovery.log_writes, 0);
        assert_eq!(live(&reopened, 3), vec![(1, 11), (3, 30)]);
        assert_eq!(reopened.gc_reclaim_ceiling(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_maintenance_restart_rolls_back_to_checkpoint() {
        let dir = temp_dir("midtxn");
        let table = create_durable("R", schema(), 2, &dir, 2).unwrap();
        {
            let txn = table.begin_maintenance().unwrap();
            txn.insert(row(1, 10)).unwrap();
            txn.insert(row(2, 20)).unwrap();
            txn.commit().unwrap();
        }
        // Checkpoint while a maintenance transaction is mid-flight: the
        // steal pool then pushes its partial work to disk.
        let txn = table.begin_maintenance().unwrap();
        txn.update_row(&row(1, 99)).unwrap();
        txn.insert(row(3, 30)).unwrap();
        let stats = checkpoint(&table).unwrap();
        assert_eq!(stats.checkpoint_vn, 2, "snapshot taken before flush");
        table.storage().heap().flush_all().unwrap();
        // Crash: the txn never commits or aborts in this process.
        std::mem::forget(txn);
        drop(table);

        let (reopened, report) = recover_from_disk("R", schema(), 2, &dir, 2).unwrap();
        assert_eq!(report.checkpoint_vn, 2);
        assert!(report.maintenance_was_active);
        assert!(report.recovery.pending_found > 0, "partial work on disk");
        assert_eq!(report.recovery.log_writes, 0);
        assert!(!reopened.version().snapshot().maintenance_active);
        assert_eq!(live(&reopened, 2), vec![(1, 10), (2, 20)]);
        // Recovery is idempotent: a second pass finds nothing pending.
        let second = recovery::recover(&reopened).unwrap();
        assert_eq!(second.pending_found, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rejects_in_memory_tables() {
        let table = VnlTable::create(schema(), 2).unwrap();
        assert!(checkpoint(&table).is_err());
        assert_eq!(table.gc_reclaim_ceiling(), u64::MAX);
    }

    #[test]
    fn gc_ceiling_holds_tombstones_until_next_checkpoint() {
        let dir = temp_dir("ceiling");
        let table = create_durable("R", schema(), 2, &dir, 4).unwrap();
        {
            let txn = table.begin_maintenance().unwrap();
            txn.insert(row(1, 10)).unwrap();
            txn.insert(row(2, 20)).unwrap();
            txn.commit().unwrap();
        }
        checkpoint(&table).unwrap(); // ceiling = 2
        {
            let txn = table.begin_maintenance().unwrap();
            txn.delete_row(&row(2, 0)).unwrap();
            txn.commit().unwrap(); // delete stamped VN 3 > ceiling
        }
        // No sessions are active, so the *live* horizon alone would allow
        // reclamation — only the durable ceiling holds the tombstone.
        let swept = crate::gc::collect(&table).unwrap();
        assert_eq!(
            swept.reclaimed, 0,
            "tombstone newer than the checkpoint must survive GC"
        );
        // After the next checkpoint the deletion is durable; GC may collect,
        // also after a restart: the reopen walk records the delete again.
        checkpoint(&table).unwrap(); // ceiling = 3
        drop(table);
        let (table, _) = recover_from_disk("R", schema(), 2, &dir, 4).unwrap();
        let swept = crate::gc::collect(&table).unwrap();
        assert_eq!(swept.reclaimed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
