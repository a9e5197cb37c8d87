//! Restart recovery: a process dies mid-maintenance with leased readers
//! attached, every in-memory structure is dropped, and the warehouse comes
//! back from the disk artifacts alone — the page store and the checkpoint
//! metadata. No write-ahead log exists to replay: §7's slot reconstruction
//! *is* the redo/undo story, and these tests hold it to the same
//! zero-wrong-answer standard as the in-process recovery suite.
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use wh_types::{Column, DataType, Schema, Value};
use wh_vnl::{checkpoint, create_durable, recover, recover_from_disk};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — unique-name counter only
    let dir = std::env::temp_dir().join(format!("wh-restart-{tag}-{}-{n}", std::process::id()));
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
    vec![Value::from(k), Value::from(v)]
}

/// `(k, v)` pairs a session actually serves, via real reads.
fn served(session: &wh_vnl::ReaderSession<'_>) -> Vec<(i64, i64)> {
    let mut rows: Vec<(i64, i64)> = session
        .scan()
        .unwrap()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    rows.sort_unstable();
    rows
}

/// The headline scenario: leased readers and a maintenance transaction are
/// both live, a fuzzy checkpoint lands mid-maintenance, the steal policy
/// pushes the transaction's dirty pages to disk — and then the process
/// dies. Recovery must serve exactly the checkpointed state: every answer
/// a post-restart reader gets equals the answer the pre-crash reader was
/// entitled to, key by key.
#[test]
fn leased_workload_restarts_with_zero_wrong_answers() {
    let dir = temp_dir("workload");
    let table = create_durable("T", schema(), 3, &dir, 2).unwrap();
    let initial: Vec<Vec<Value>> = (0..8).map(|k| row(k, k * 10)).collect();
    table.load_initial(&initial).unwrap();

    // VN 2 commits and is checkpointed: the durable baseline.
    let txn = table.begin_maintenance().unwrap();
    txn.update_row(&row(0, 1000)).unwrap();
    txn.delete_row(&row(1, 0)).unwrap();
    txn.insert(row(100, 111)).unwrap();
    txn.commit().unwrap();
    checkpoint(&table).unwrap();

    // A leased reader pinned to VN 2 records the answers it is served.
    let reader = table.begin_leased_session(Duration::from_secs(60));
    assert_eq!(reader.session_vn(), 2);
    let entitled = served(&reader);

    // VN 3 in flight: more maintenance, a mid-maintenance fuzzy checkpoint
    // (no quiescing — reader and writer both live), and a steal-policy
    // flush that pushes the uncommitted work to disk.
    let txn = table.begin_maintenance().unwrap();
    txn.update_row(&row(2, 2222)).unwrap();
    txn.delete_row(&row(4, 0)).unwrap();
    txn.insert(row(101, 222)).unwrap();
    let stats = checkpoint(&table).unwrap();
    assert_eq!(stats.checkpoint_vn, 2, "fuzzy snapshot precedes the flush");
    table.storage().heap().flush_all().unwrap();
    assert_eq!(served(&reader), entitled, "reader unperturbed by the flush");

    // Crash: the transaction's undo map, the reader's lease, the buffer
    // pool, the version state — all of it gone. Only the disk remains.
    std::mem::forget(txn);
    drop(reader);
    drop(table);

    // No log file to replay — the page store and checkpoint meta are the
    // *only* artifacts on disk.
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(
        files,
        vec![
            wh_storage::META_FILE.to_string(),
            wh_storage::PAGES_FILE.to_string()
        ],
        "durable tier must consist of pages + checkpoint meta, nothing else"
    );

    let (reopened, report) = recover_from_disk("T", schema(), 3, &dir, 2).unwrap();
    assert_eq!(report.checkpoint_vn, 2);
    assert!(report.maintenance_was_active);
    assert!(
        report.recovery.pending_found > 0,
        "the steal flush must have put rollback work on disk"
    );
    assert_eq!(report.recovery.log_writes, 0, "recovery is log-free");
    assert!(!reopened.version().snapshot().maintenance_active);

    // Zero wrong answers: a reconnecting reader is served exactly what the
    // pre-crash reader was entitled to — scan and key probes agree.
    let reader = reopened.begin_leased_session(Duration::from_secs(60));
    assert_eq!(reader.session_vn(), 2);
    assert_eq!(served(&reader), entitled);
    for &(k, v) in &entitled {
        let got = reader.read_by_key(&row(k, 0)).unwrap().unwrap();
        assert_eq!(got[1], Value::from(v), "key {k}");
    }
    // The crashed transaction's work is invisible in every form.
    assert!(reader.read_by_key(&row(101, 0)).unwrap().is_none());
    assert!(reader.read_by_key(&row(4, 0)).unwrap().is_some());

    // And the recovered table immediately supports a full new cycle:
    // maintenance, checkpoint, restart — the recovered state is a real
    // warehouse, not a read-only reconstruction.
    drop(reader);
    let txn = reopened.begin_maintenance().unwrap();
    txn.update_row(&row(2, 3333)).unwrap();
    txn.commit().unwrap();
    checkpoint(&reopened).unwrap();
    drop(reopened);
    let (again, report) = recover_from_disk("T", schema(), 3, &dir, 2).unwrap();
    assert_eq!(report.checkpoint_vn, 3);
    let reader = again.begin_session();
    assert_eq!(
        reader.read_by_key(&row(2, 0)).unwrap().unwrap()[1],
        Value::from(3333)
    );
    drop(reader);
    drop(again);
    std::fs::remove_dir_all(&dir).ok();
}

/// The recovery fence crosses the restart boundary. In 2VNL a mid-flight
/// update destroys the tuple's only saved slot; restart recovery
/// reconstructs it as `(V, update, PV ← CV)` — exact only at `currentVN` —
/// and must raise the fence so no session below it can be served the
/// reconstructed guess. The fence also round-trips through a subsequent
/// checkpoint: a second restart still refuses what the first could not
/// serve exactly.
#[test]
fn recovery_fence_survives_restart_and_recheckpoint() {
    let dir = temp_dir("fence");
    let table = create_durable("T", schema(), 2, &dir, 2).unwrap();
    table.load_initial(&[row(0, 10), row(1, 11)]).unwrap();
    let txn = table.begin_maintenance().unwrap();
    txn.update_row(&row(0, 100)).unwrap();
    txn.commit().unwrap(); // VN 2: slot 0 holds (2, update, 10)
    checkpoint(&table).unwrap();

    // Crash a VN 3 update after it overwrote the only slot: the true
    // content (2, update, 10) is destroyed on disk too once stolen.
    let txn = table.begin_maintenance().unwrap();
    txn.update_row(&row(0, 200)).unwrap();
    table.storage().heap().flush_all().unwrap();
    std::mem::forget(txn);
    drop(table);

    let (reopened, report) = recover_from_disk("T", schema(), 2, &dir, 2).unwrap();
    assert_eq!(report.recovery.reconstructed_slots, 1);
    assert_eq!(
        report.recovery.exact_horizon, 2,
        "the reconstructed slot serves only sessions at currentVN"
    );
    assert_eq!(
        reopened.version().recovery_floor(),
        2,
        "the fence must rise before the reconstructed tuple is served"
    );
    // A session at the fence reads the rolled-back committed state.
    let session = reopened.begin_session();
    assert_eq!(
        session.read_by_key(&row(0, 0)).unwrap().unwrap()[1],
        Value::from(100)
    );
    drop(session);

    // The fence round-trips: checkpoint the recovered table, restart
    // again, and the floor is still up even though this recovery pass
    // itself found nothing to reconstruct.
    checkpoint(&reopened).unwrap();
    drop(reopened);
    let (again, report) = recover_from_disk("T", schema(), 2, &dir, 2).unwrap();
    assert_eq!(report.recovery.pending_found, 0);
    assert_eq!(
        again.version().recovery_floor(),
        2,
        "a persisted fence survives a clean restart"
    );
    drop(again);
    std::fs::remove_dir_all(&dir).ok();
}

/// Commits after the last checkpoint are lost on restart — a bounded
/// durability lag, never corruption: the recovered state is exactly the
/// checkpointed version, and the lost transaction leaves no trace a reader
/// could observe.
#[test]
fn uncheckpointed_commits_are_lost_cleanly() {
    let dir = temp_dir("lag");
    let table = create_durable("T", schema(), 2, &dir, 4).unwrap();
    table.load_initial(&[row(0, 10), row(1, 11)]).unwrap();
    let txn = table.begin_maintenance().unwrap();
    txn.update_row(&row(0, 100)).unwrap();
    txn.commit().unwrap(); // VN 2
    checkpoint(&table).unwrap();

    // VN 3 commits in memory and its pages even reach disk — but no
    // checkpoint records it, so the commit point was never durable.
    let txn = table.begin_maintenance().unwrap();
    txn.update_row(&row(0, 1000)).unwrap();
    txn.insert(row(2, 22)).unwrap();
    txn.commit().unwrap();
    table.storage().heap().flush_all().unwrap();
    drop(table);

    let (reopened, report) = recover_from_disk("T", schema(), 2, &dir, 4).unwrap();
    assert_eq!(report.checkpoint_vn, 2);
    assert_eq!(reopened.version().snapshot().current_vn, 2);
    assert_eq!(reopened.gc_reclaim_ceiling(), 2);
    let session = reopened.begin_session();
    assert_eq!(
        session.read_by_key(&row(0, 0)).unwrap().unwrap()[1],
        Value::from(100),
        "the VN 3 update is rolled back, not half-applied"
    );
    assert!(
        session.read_by_key(&row(2, 0)).unwrap().is_none(),
        "the VN 3 insert is gone without residue"
    );
    drop(session);
    // A second recovery pass agrees: nothing left pending.
    let second = recover(&reopened).unwrap();
    assert_eq!(second.pending_found, 0);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
