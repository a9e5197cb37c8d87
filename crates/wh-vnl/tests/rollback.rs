//! §7's log-free rollback: aborting a maintenance transaction restores the
//! exact pre-transaction state by reverting tuples from their own version
//! slots (plus the transaction-private undo map).
#![allow(clippy::unwrap_used)]

use wh_sql::Params;
use wh_types::schema::daily_sales_schema;
use wh_types::{Date, Row, Value};
use wh_vnl::{MaintenanceTxn, VnlError, VnlTable, WarehouseBuilder};

fn row(city: &str, pl: &str, day: u8, sales: i64) -> Row {
    vec![
        Value::from(city),
        Value::from("CA"),
        Value::from(pl),
        Value::from(Date::ymd(1996, 10, day)),
        Value::from(sales),
    ]
}

/// Canonicalized physical state for equality checks.
fn state(t: &VnlTable) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = t
        .scan_raw()
        .unwrap()
        .into_iter()
        .map(|(_, ext)| ext.iter().map(std::string::ToString::to_string).collect())
        .collect();
    rows.sort();
    rows
}

fn load(t: &VnlTable) {
    t.load_initial(&[
        row("San Jose", "golf equip", 14, 10_000),
        row("Berkeley", "racquetball", 14, 12_000),
        row("Novato", "rollerblades", 13, 8_000),
    ])
    .unwrap();
}

fn seeded(n: usize) -> VnlTable {
    let t = VnlTable::create_named("DailySales", daily_sales_schema(), n).unwrap();
    load(&t);
    t
}

/// Update∘delete leaves the updated values current and the delete's slot 0
/// holding the pre-transaction ones; the rollback must make those current
/// again, however the transaction ends unfinished.
#[test]
fn abort_of_update_then_delete_restores_the_pre_transaction_value() {
    let key = row("San Jose", "golf equip", 14, 0);
    let update_then_delete = |txn: &MaintenanceTxn<'_>| {
        txn.update_row(&row("San Jose", "golf equip", 14, 77_777))
            .unwrap();
        txn.delete_row(&key).unwrap();
    };
    let assert_restored = |t: &VnlTable, before: &[Vec<String>], how: &str| {
        assert_eq!(state(t), before, "{how}");
        let s = t.begin_session();
        let current = s.read_by_key(&key).unwrap().expect("key restored");
        assert_eq!(current[4], Value::from(10_000), "{how}");
        s.finish();
    };
    for n in [2, 3, 4] {
        let t = seeded(n);
        let before = state(&t);
        let txn = t.begin_maintenance().unwrap();
        update_then_delete(&txn);
        txn.abort().unwrap();
        assert_restored(&t, &before, &format!("abort, n={n}"));

        {
            let txn = t.begin_maintenance().unwrap();
            update_then_delete(&txn);
        }
        assert_restored(&t, &before, &format!("dropped txn, n={n}"));

        let wh = WarehouseBuilder::new()
            .unwrap()
            .table("DailySales", daily_sales_schema(), n)
            .unwrap()
            .build();
        let t = wh.table("DailySales").unwrap();
        load(t);
        let before = state(t);
        let txn = wh.begin_maintenance().unwrap();
        update_then_delete(txn.on("DailySales").unwrap());
        txn.abort().unwrap();
        assert_restored(t, &before, &format!("warehouse abort, n={n}"));
    }
}

#[test]
fn abort_restores_exact_state_after_mixed_batch() {
    let t = seeded(2);
    let before = state(&t);
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("Oakland", "swimming", 15, 3_000)).unwrap();
    txn.update_row(&row("San Jose", "golf equip", 14, 11_111))
        .unwrap();
    txn.update_row(&row("San Jose", "golf equip", 14, 22_222))
        .unwrap();
    txn.delete_row(&row("Berkeley", "racquetball", 14, 0))
        .unwrap();
    txn.execute_sql(
        "UPDATE DailySales SET total_sales = total_sales + 5 WHERE city = 'Novato'",
        &Params::new(),
    )
    .unwrap();
    txn.abort().unwrap();
    assert_eq!(state(&t), before);
    // The system is fully usable: next maintenance gets the same VN.
    let txn = t.begin_maintenance().unwrap();
    assert_eq!(txn.maintenance_vn(), 2);
    txn.commit().unwrap();
}

#[test]
fn abort_of_insert_then_delete_leaves_nothing() {
    let t = seeded(2);
    let before = state(&t);
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("Oakland", "swimming", 15, 1)).unwrap();
    txn.delete_row(&row("Oakland", "swimming", 15, 0)).unwrap();
    txn.abort().unwrap();
    assert_eq!(state(&t), before);
}

#[test]
fn abort_restores_resurrected_tuple() {
    // The hardest 2VNL case: the resurrection overwrote the deleted tuple's
    // slot; abort must bring the logically-deleted tuple back, pre-delete
    // version intact.
    let t = seeded(2);
    let txn = t.begin_maintenance().unwrap();
    txn.delete_row(&row("Novato", "rollerblades", 13, 0))
        .unwrap();
    txn.commit().unwrap(); // Novato deleted at VN 2
    let before = state(&t);
    let old_session = t.begin_session(); // VN 2: Novato absent for it
    let txn = t.begin_maintenance().unwrap(); // VN 3
    txn.insert(row("Novato", "rollerblades", 13, 4_242))
        .unwrap(); // resurrect
    txn.update_row(&row("San Jose", "golf equip", 14, 1))
        .unwrap();
    txn.abort().unwrap();
    assert_eq!(state(&t), before);
    // The old session's view is unperturbed.
    let rows = old_session.scan().unwrap();
    assert_eq!(rows.len(), 2); // San Jose + Berkeley; Novato deleted
    old_session.finish();
}

#[test]
fn abort_preserves_concurrent_reader_view_throughout() {
    let t = seeded(2);
    let session = t.begin_session();
    let baseline = session.scan().unwrap();
    let txn = t.begin_maintenance().unwrap();
    txn.update_row(&row("San Jose", "golf equip", 14, 999))
        .unwrap();
    txn.delete_row(&row("Novato", "rollerblades", 13, 0))
        .unwrap();
    // Mid-transaction the reader's view is unchanged.
    assert_eq!(session.scan().unwrap(), baseline);
    txn.abort().unwrap();
    // After abort, still unchanged.
    assert_eq!(session.scan().unwrap(), baseline);
    session.finish();
    // And a brand-new session agrees.
    let s2 = t.begin_session();
    assert_eq!(s2.scan().unwrap(), baseline);
    s2.finish();
}

#[test]
fn nvnl_abort_restores_pushed_back_slots() {
    let t = seeded(3);
    // Build two generations of history on San Jose.
    for sales in [11_000, 12_000] {
        let txn = t.begin_maintenance().unwrap();
        txn.update_row(&row("San Jose", "golf equip", 14, sales))
            .unwrap();
        txn.commit().unwrap();
    }
    let before = state(&t);
    let txn = t.begin_maintenance().unwrap();
    txn.update_row(&row("San Jose", "golf equip", 14, 99_999))
        .unwrap();
    txn.delete_row(&row("Berkeley", "racquetball", 14, 0))
        .unwrap();
    txn.abort().unwrap();
    assert_eq!(state(&t), before);
    // Historical sessions still resolve correctly after the abort:
    // VN 3 reader sees 12,000; VN 2 reader would see 11,000.
    let s = t.begin_session(); // VN 3
    let r = s
        .query("SELECT total_sales FROM DailySales WHERE city = 'San Jose'")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::from(12_000));
    s.finish();
}

#[test]
fn dropped_maintenance_txn_auto_aborts() {
    let t = seeded(2);
    let before = state(&t);
    {
        let txn = t.begin_maintenance().unwrap();
        txn.update_row(&row("San Jose", "golf equip", 14, 1))
            .unwrap();
        // Dropped without commit/abort.
    }
    assert_eq!(state(&t), before);
    assert!(!t.version().snapshot().maintenance_active);
    // A new maintenance transaction can begin.
    let txn = t.begin_maintenance().unwrap();
    txn.commit().unwrap();
}

#[test]
fn operations_after_commit_or_abort_fail() {
    let t = seeded(2);
    let txn = t.begin_maintenance().unwrap();
    txn.update_row(&row("San Jose", "golf equip", 14, 1))
        .unwrap();
    // We cannot call methods on a moved txn after commit(), but execute_sql
    // on a *reference* after internal finish is exercised via
    // commit_when_quiescent's self-consumption. Here, verify abort() on an
    // already-dropped state cannot be reached and that a fresh txn works.
    txn.abort().unwrap();
    let txn = t.begin_maintenance().unwrap();
    assert!(matches!(
        txn.execute_sql("SELECT * FROM DailySales", &Params::new()),
        Err(VnlError::Sql(_))
    ));
    txn.commit().unwrap();
}
