//! The crash matrix: every registered failpoint × every maintenance
//! operation type, for 2VNL and 3VNL, crash-then-recover with model
//! checking. Compiled only under `--features failpoints`; the driver lives
//! in `wh_vnl::crashmatrix` so the `report_fault` binary shares it.
#![cfg(feature = "failpoints")]
#![allow(clippy::unwrap_used)]

use std::sync::Mutex;

use wh_types::{Column, DataType, Row, Schema, Value};
use wh_vnl::crashmatrix::{self, DurableOpKind, OpKind};
use wh_vnl::{DeltaRow, MaintenanceTxn, Operation, VersionNo, VnlResult, VnlTable, Write};

/// The fault registry is process-global; tests in this binary serialize.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The full sweep. Each cell asserts internally (state equals the reference
/// model over the exactness window, recovery idempotent, zero log writes);
/// here we additionally pin the sweep's shape and coverage.
#[test]
fn crash_matrix_covers_every_failpoint_and_op() {
    let _g = gate();
    let report = crashmatrix::run_matrix(&[2, 3]);

    let points = crashmatrix::catalog();
    assert!(
        points.len() >= 20,
        "expected at least 20 registered failpoints, found {}",
        points.len()
    );
    assert_eq!(report.cells.len(), points.len() * OpKind::ALL.len() * 2);

    // run_matrix already asserts fired > 0 per point; double-check through
    // the returned coverage snapshot.
    for p in &points {
        let stats = report
            .coverage
            .iter()
            .find(|s| s.point == *p)
            .unwrap_or_else(|| panic!("no counters recorded for {p}"));
        assert!(stats.fired > 0, "{p} registered but never fired");
    }

    // Every op kind must have produced at least one cell where the armed
    // fault actually fired mid-operation (a crash *inside* the op, not just
    // at its end).
    for op in OpKind::ALL {
        assert!(
            report.cells.iter().any(|c| c.op == op && c.injected),
            "no failpoint fired inside any {op:?} cell"
        );
    }

    // The interesting recovery paths must all have been exercised somewhere
    // in the sweep.
    assert!(report.cells.iter().any(|c| c.recovery.orphans_removed > 0));
    assert!(report
        .cells
        .iter()
        .any(|c| c.recovery.resurrections_reversed > 0));
    assert!(report.cells.iter().any(|c| c.recovery.slots_restored > 0));
    assert!(report
        .cells
        .iter()
        .any(|c| c.n == 2 && c.recovery.reconstructed_slots > 0));
    assert!(report
        .cells
        .iter()
        .any(|c| c.n == 3 && c.recovery.duplicated_oldest_slots > 0));
    assert!(report.cells.iter().any(|c| c.committed));
    assert!(report.cells.iter().all(|c| c.recovery.log_writes == 0));

    // The durability sweep: every durable-tier failpoint × every durable
    // op × each n, each cell restarting from disk artifacts alone.
    assert_eq!(
        report.durability_cells.len(),
        crashmatrix::DURABILITY_POINTS.len() * DurableOpKind::ALL.len() * 2
    );
    for op in DurableOpKind::ALL {
        assert!(
            report
                .durability_cells
                .iter()
                .any(|c| c.op == op && c.injected),
            "no failpoint fired inside any durable {op:?} cell"
        );
    }
    // Restart recovery is log-free in every cell — the paper's §7 claim
    // carried all the way to the disk tier.
    assert!(report
        .durability_cells
        .iter()
        .all(|c| c.recovery.recovery.log_writes == 0));
    // At least one crashed checkpoint lost a commit (durability lag back to
    // VN 2) and at least one completed under an armed-but-unreached fault
    // (VN 3 survived) — both halves of the lag contract.
    assert!(report
        .durability_cells
        .iter()
        .any(|c| c.op == DurableOpKind::Checkpoint && !c.checkpointed && c.recovered_vn == 2));
    assert!(report
        .durability_cells
        .iter()
        .any(|c| c.op == DurableOpKind::Checkpoint && c.checkpointed && c.recovered_vn == 3));
    // Steal-policy cells (mid-transaction flush/evict) always roll back to
    // the checkpoint: partial work on disk never surfaces.
    assert!(report
        .durability_cells
        .iter()
        .filter(|c| matches!(c.op, DurableOpKind::Flush | DurableOpKind::Evict))
        .all(|c| c.recovered_vn == 2));
    // Some steal cell actually put partial work on disk for recovery to
    // roll back (otherwise the matrix never proves the §7 disk rollback).
    assert!(report.durability_cells.iter().any(|c| matches!(
        c.op,
        DurableOpKind::Flush | DurableOpKind::Evict
    ) && c.recovery.recovery.pending_found > 0));
}

/// Targeted durability cells: each durable-tier point must fire inside the
/// op that owns its code path.
#[test]
fn targeted_durability_cells_inject_on_their_own_path() {
    let _g = gate();
    for (point, op) in [
        ("storage.pool.flush", DurableOpKind::Flush),
        ("storage.disk.write", DurableOpKind::Flush),
        ("storage.pool.evict", DurableOpKind::Evict),
        ("storage.ckpt.begin", DurableOpKind::Checkpoint),
        ("storage.ckpt.meta", DurableOpKind::Checkpoint),
        ("storage.disk.read", DurableOpKind::Restart),
    ] {
        wh_types::fault::clear_all();
        let cell = crashmatrix::run_durability_cell(3, point, op);
        assert!(cell.injected, "{point} did not fire during {op:?}");
    }
    wh_types::fault::clear_all();
}

/// The matrix's tables fit in one page, so its scans never run the pool's
/// scan ring. Here a durable table is six times its pool: every scan takes
/// back the pages it faults in, so a scan fires the ring step's eviction
/// and the fault's disk read on the read path. A fault injected there fails
/// that scan only; the next scan answers in full, and the directory
/// recovers to the same answer with no log.
#[test]
fn a_fault_in_a_scans_ring_fails_that_scan_only() {
    use wh_types::fault::{self, FaultAction};
    use wh_types::{Column, DataType, Schema, Value};
    let _g = gate();
    fault::clear_all();
    let schema = || {
        Schema::with_key_names(
            vec![
                Column::new("k", DataType::Int64),
                Column::updatable("v", DataType::Int64),
            ],
            &["k"],
        )
        .unwrap()
    };
    let count = |table: &wh_vnl::VnlTable| {
        let session = table.begin_session();
        let n = session.count();
        session.finish();
        n
    };
    let dir = std::env::temp_dir().join(format!("wh-ring-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let table = wh_vnl::create_durable("T", schema(), 3, &dir, 4).unwrap();
    let rows: Vec<Vec<Value>> = (0..2300)
        .map(|k| vec![Value::from(k), Value::from(-k)])
        .collect();
    table.load_initial(&rows).unwrap();
    wh_vnl::checkpoint(&table).unwrap();
    assert!(table.storage().heap().page_count() >= 24);
    assert_eq!(count(&table).unwrap(), 2300);
    for point in ["storage.pool.evict", "storage.disk.read"] {
        let fired = fault::fired(point);
        fault::configure(point, FaultAction::ErrorTimes(1));
        assert!(
            count(&table).is_err(),
            "{point}: the scan ignored its fault"
        );
        assert_eq!(fault::fired(point), fired + 1, "{point}");
        fault::disarm_all();
        assert_eq!(
            count(&table).unwrap(),
            2300,
            "{point}: a later scan lost rows"
        );
    }
    drop(table);
    let (table, report) = wh_vnl::recover_from_disk("T", schema(), 3, &dir, 4).unwrap();
    assert_eq!(report.recovery.log_writes, 0);
    assert_eq!(count(&table).unwrap(), 2300);
    drop(table);
    std::fs::remove_dir_all(&dir).ok();
    fault::clear_all();
}

/// Deeper nVNL sweep: n = 4 gives the recovery shift two surviving slots to
/// work with.
#[test]
fn crash_matrix_4vnl() {
    let _g = gate();
    let report = crashmatrix::run_matrix(&[4]);
    assert!(report.cells.iter().all(|c| c.recovery.log_writes == 0));
}

/// The session-repair cells standalone: injected faults on the capture /
/// evict / repair-admission paths force the restart fallback (never a wrong
/// answer) and no retained delta window survives a recovery pass.
#[test]
fn repair_cells_fail_closed() {
    let _g = gate();
    wh_types::fault::clear_all();
    crashmatrix::run_repair_cells(&[2, 3]);
    for point in crashmatrix::REPAIR_POINTS {
        assert!(
            wh_types::fault::fired(point) > 0,
            "{point} never fired during the repair cells"
        );
    }
    wh_types::fault::clear_all();
}

/// Targeted cells: the armed point must actually fire for the op that owns
/// its code path (guards against a failpoint silently moving off the path
/// it is named for).
#[test]
fn targeted_cells_inject_on_their_own_path() {
    let _g = gate();
    for (point, op) in [
        ("vnl.txn.insert.fresh", OpKind::Insert),
        ("vnl.txn.insert.register", OpKind::Insert),
        ("vnl.txn.insert.resurrect", OpKind::Insert),
        ("vnl.txn.update.save_pre", OpKind::Update),
        ("vnl.txn.update.in_place", OpKind::Update),
        ("vnl.txn.delete.mark", OpKind::Delete),
        ("vnl.txn.delete.remove_own", OpKind::Delete),
        ("vnl.txn.delete.mark_own_update", OpKind::Delete),
        ("vnl.txn.rollback.step", OpKind::Abort),
        ("vnl.version.begin", OpKind::Update),
        ("vnl.version.publish_commit", OpKind::Commit),
        ("vnl.version.publish_abort", OpKind::Abort),
        ("vnl.gc.reclaim", OpKind::Expire),
        ("vnl.gc.unregister", OpKind::Expire),
        ("vnl.delta.capture", OpKind::Commit),
        ("vnl.delta.evict", OpKind::Expire),
        ("storage.heap.latch", OpKind::Update),
        ("storage.heap.insert", OpKind::Insert),
        ("storage.heap.modify", OpKind::Update),
        ("storage.heap.delete", OpKind::Expire),
        ("storage.heap.free_space", OpKind::Expire),
        ("vnl.txn.batch.page", OpKind::Update),
    ] {
        wh_types::fault::clear_all();
        let cell = crashmatrix::run_cell(3, point, op);
        assert!(cell.injected, "{point} did not fire during {op:?}");
    }
    wh_types::fault::clear_all();
}

/// The reference capture: the net effect of each tuple whose slot 0 is
/// stamped `vn`, decoded from its page, in heap order.
fn decoded_net_effects(table: &VnlTable, vn: VersionNo) -> Vec<DeltaRow> {
    let layout = table.layout();
    let stamped = |(_, ext): &(_, Row)| {
        let (_, op) = layout.slot(ext, 0).filter(|&(w, _)| w == vn)?;
        let current = layout.current_values(ext);
        let pre = (op != Operation::Insert).then(|| layout.pre_values(ext, 0));
        Some(DeltaRow {
            key: layout
                .base_schema()
                .key_of(pre.as_ref().unwrap_or(&current)),
            op,
            pre,
            post: (op != Operation::Delete).then_some(current),
        })
    };
    table
        .scan_raw()
        .unwrap()
        .iter()
        .filter_map(stamped)
        .collect()
}

/// A write that fails at any of its fault sites leaves its tuple as it was
/// and records no net effect: commit publishes what a decode of the
/// stamped tuples finds, and GC's record gets no delete that did not land.
#[test]
fn a_failed_write_publishes_nothing() {
    use wh_types::fault::{self, FaultAction};
    let _g = gate();
    fault::clear_all();
    fn row(k: i64, v: i64) -> Row {
        vec![Value::from(k), Value::from(v)]
    }
    type Write = fn(&MaintenanceTxn<'_>) -> VnlResult<()>;
    let resurrect_3: Write = |txn| txn.insert(row(3, 30));
    let update_1: Write = |txn| txn.update_row(&row(1, 10));
    let delete_1: Write = |txn| txn.delete_row(&row(1, 0));
    // (point, a write before arming, the write that meets the point)
    let cases: [(&str, Option<Write>, Write); 6] = [
        ("vnl.txn.insert.resurrect", None, resurrect_3),
        ("vnl.txn.update.save_pre", None, update_1),
        ("vnl.txn.update.in_place", Some(update_1), update_1),
        ("vnl.txn.delete.mark", None, delete_1),
        ("vnl.txn.delete.mark_own_update", Some(update_1), delete_1),
        ("storage.heap.modify", None, delete_1),
    ];
    for (point, before, armed) in cases {
        let schema = Schema::with_key_names(
            vec![
                Column::new("k", DataType::Int64),
                Column::updatable("v", DataType::Int64),
            ],
            &["k"],
        )
        .unwrap();
        let table = VnlTable::create_named("T", schema, 2).unwrap();
        table
            .load_initial(&(0..4).map(|k| row(k, k)).collect::<Vec<_>>())
            .unwrap();
        // Key 3 is deleted; keys 1 and 2 are live.
        let txn = table.begin_maintenance().unwrap();
        txn.delete_row(&row(3, 0)).unwrap();
        txn.commit().unwrap();

        let txn = table.begin_maintenance().unwrap();
        let vn = txn.maintenance_vn();
        if let Some(write) = before {
            write(&txn).unwrap();
        }
        fault::configure(point, FaultAction::ErrorTimes(1));
        let failed = armed(&txn);
        fault::configure(point, FaultAction::Off);
        assert!(failed.is_err(), "{point} did not fail the write");
        txn.update_row(&row(2, 20)).unwrap();
        let oracle = decoded_net_effects(&table, vn);
        txn.commit().unwrap();
        let window = table.version().delta_window(vn - 1, vn).unwrap();
        let published: Vec<DeltaRow> = window[0].rows_for("T").cloned().collect();
        assert_eq!(published, oracle, "{point}");
        // With no session open, a pass reclaims every recorded delete that
        // landed; key 3's is the only one.
        let gc = wh_vnl::gc::collect(&table).unwrap();
        assert_eq!((gc.scanned, gc.reclaimed), (1, 1), "{point}");
    }
    fault::clear_all();
}

/// A batch over several pages that fails between them leaves its first
/// page written and recorded: an abort restores every tuple, and so does
/// recovery after a crash that forgets the transaction.
#[test]
fn a_batch_failing_between_pages_rolls_back() {
    use wh_types::fault::{self, FaultAction};
    let _g = gate();
    fault::clear_all();
    fn row(k: i64, v: i64) -> Row {
        vec![Value::from(k), Value::from(v)]
    }
    for crash in [false, true] {
        let schema = Schema::with_key_names(
            vec![
                Column::new("k", DataType::Int64),
                Column::updatable("v", DataType::Int64),
            ],
            &["k"],
        )
        .unwrap();
        let table = VnlTable::create_named("T", schema, 2).unwrap();
        table
            .load_initial(&(0..300).map(|k| row(k, k)).collect::<Vec<_>>())
            .unwrap();
        assert!(table.storage().heap().page_count() > 1);
        let visible = |table: &VnlTable| {
            let session = table.begin_session();
            let rows = session.scan().unwrap();
            session.finish();
            rows
        };
        let before = visible(&table);
        let txn = table.begin_maintenance().unwrap();
        let keys: Vec<[Value; 1]> = (0..300).map(|k| [Value::from(k)]).collect();
        fault::configure("vnl.txn.batch.page", FaultAction::ErrorTimes(1));
        let failed = txn.apply_batch(&keys, |i, _| Ok(Some(Write::Update(row(i as i64, -1)))));
        fault::configure("vnl.txn.batch.page", FaultAction::Off);
        assert!(failed.is_err());
        let written = txn
            .scan_current()
            .unwrap()
            .iter()
            .filter(|r| r[1] == Value::from(-1))
            .count();
        assert!(
            written > 0 && written < 300,
            "one page written, got {written}"
        );
        if crash {
            std::mem::forget(txn);
            wh_vnl::recover(&table).unwrap();
        } else {
            txn.abort().unwrap();
        }
        assert_eq!(visible(&table), before, "crash={crash}");
    }
    fault::clear_all();
}
