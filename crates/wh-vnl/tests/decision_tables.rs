//! Exhaustive reproduction of the paper's decision tables (Tables 2–4) and
//! the Example 3.3 golden sequence (Figures 4 → 5 → 6).
#![allow(clippy::unwrap_used)]

use wh_sql::Params;
use wh_types::schema::daily_sales_schema;
use wh_types::{Date, Row, Value};
use wh_vnl::{MaintenanceTxn, Operation, PhysicalAction, VnlError, VnlTable};

fn row(city: &str, pl: &str, day: u8, sales: i64) -> Row {
    vec![
        Value::from(city),
        Value::from("CA"),
        Value::from(pl),
        Value::from(Date::ymd(1996, 10, day)),
        Value::from(sales),
    ]
}

/// Drive the table to the exact Figure 4 state:
/// (3,i San Jose golf 10/14 10000 -), (4,i San Jose golf 10/15 1500 -),
/// (4,u Berkeley racq 10/14 12000 10000), (4,d Novato roller 10/13 8000 8000)
fn figure_4_table() -> VnlTable {
    let t = VnlTable::create_named("DailySales", daily_sales_schema(), 2).unwrap();
    // VN 2: seed Berkeley and Novato.
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("Berkeley", "racquetball", 14, 10_000))
        .unwrap();
    txn.insert(row("Novato", "rollerblades", 13, 8_000))
        .unwrap();
    txn.commit().unwrap();
    // VN 3: San Jose 10/14.
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("San Jose", "golf equip", 14, 10_000))
        .unwrap();
    txn.commit().unwrap();
    // VN 4: San Jose 10/15 insert, Berkeley update, Novato delete.
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("San Jose", "golf equip", 15, 1_500))
        .unwrap();
    txn.update_row(&row("Berkeley", "racquetball", 14, 12_000))
        .unwrap();
    txn.delete_row(&row("Novato", "rollerblades", 13, 0))
        .unwrap();
    txn.commit().unwrap();
    assert_eq!(t.version().snapshot().current_vn, 4);
    t
}

/// Extract (tupleVN, op, city, day, total_sales, pre_total_sales) rows,
/// sorted, for golden comparison.
fn physical_state(t: &VnlTable) -> Vec<(i64, String, String, u8, Value, Value)> {
    let l = t.layout();
    let mut out: Vec<_> = t
        .scan_raw()
        .unwrap()
        .into_iter()
        .map(|(_, ext)| {
            let (vn, op) = l.slot(&ext, 0).unwrap();
            let city = ext[l.base_col(0)].as_str().unwrap().to_string();
            let day = ext[l.base_col(3)].as_date().unwrap().day();
            (
                vn as i64,
                op.to_string(),
                city,
                day,
                ext[l.base_col(4)].clone(),
                ext[l.pre_set(0)[0]].clone(),
            )
        })
        .collect();
    out.sort_by(|a, b| (&a.2, a.3, a.0).cmp(&(&b.2, b.3, b.0)));
    out
}

#[test]
fn figure_4_state_is_reached() {
    let t = figure_4_table();
    assert_eq!(
        physical_state(&t),
        vec![
            (
                4,
                "update".into(),
                "Berkeley".into(),
                14,
                Value::from(12_000),
                Value::from(10_000)
            ),
            (
                4,
                "delete".into(),
                "Novato".into(),
                13,
                Value::from(8_000),
                Value::from(8_000)
            ),
            (
                3,
                "insert".into(),
                "San Jose".into(),
                14,
                Value::from(10_000),
                Value::Null
            ),
            (
                4,
                "insert".into(),
                "San Jose".into(),
                15,
                Value::from(1_500),
                Value::Null
            ),
        ]
    );
}

#[test]
fn example_3_3_figure_5_to_figure_6() {
    // Apply the Figure 5 maintenance transaction (VN 5) and check the
    // resulting relation matches Figure 6 exactly.
    let t = figure_4_table();
    let txn = t.begin_maintenance().unwrap();
    assert_eq!(txn.maintenance_vn(), 5);
    txn.insert(row("San Jose", "golf equip", 16, 11_000))
        .unwrap();
    txn.insert(row("Novato", "rollerblades", 13, 6_000))
        .unwrap(); // resurrection
    txn.update_row(&row("San Jose", "golf equip", 14, 10_200))
        .unwrap();
    txn.delete_row(&row("Berkeley", "racquetball", 14, 0))
        .unwrap();
    txn.commit().unwrap();

    assert_eq!(
        physical_state(&t),
        vec![
            // Figure 6 rows, sorted by (city, day):
            (
                5,
                "delete".into(),
                "Berkeley".into(),
                14,
                Value::from(12_000),
                Value::from(12_000)
            ),
            (
                5,
                "insert".into(),
                "Novato".into(),
                13,
                Value::from(6_000),
                Value::Null
            ),
            (
                5,
                "update".into(),
                "San Jose".into(),
                14,
                Value::from(10_200),
                Value::from(10_000)
            ),
            (
                4,
                "insert".into(),
                "San Jose".into(),
                15,
                Value::from(1_500),
                Value::Null
            ),
            (
                5,
                "insert".into(),
                "San Jose".into(),
                16,
                Value::from(11_000),
                Value::Null
            ),
        ]
    );
}

#[test]
fn readers_across_the_example_3_3_boundary() {
    let t = figure_4_table();
    let session4 = t.begin_session(); // sees the Figure 4 current state
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("San Jose", "golf equip", 16, 11_000))
        .unwrap();
    txn.update_row(&row("San Jose", "golf equip", 14, 10_200))
        .unwrap();
    txn.delete_row(&row("Berkeley", "racquetball", 14, 0))
        .unwrap();
    // Mid-transaction: session 4 sees the old state.
    let rows = session4.scan().unwrap();
    let total: i64 = rows.iter().map(|r| r[4].as_int().unwrap()).sum();
    assert_eq!(total, 10_000 + 1_500 + 12_000); // Novato already deleted at VN4
    txn.commit().unwrap();
    // Post-commit: session 4 STILL sees the same state.
    let rows = session4.scan().unwrap();
    let total2: i64 = rows.iter().map(|r| r[4].as_int().unwrap()).sum();
    assert_eq!(total, total2);
    session4.finish();
    // A new session sees the Figure 6 current state.
    let session5 = t.begin_session();
    let rows = session5.scan().unwrap();
    let total5: i64 = rows.iter().map(|r| r[4].as_int().unwrap()).sum();
    assert_eq!(total5, 10_200 + 1_500 + 11_000);
    session5.finish();
}

// ---------------------------------------------------------------------
// Table 2 (insert): every cell.
// ---------------------------------------------------------------------

fn fresh_keyed(n: usize) -> VnlTable {
    let t = VnlTable::create_named("DailySales", daily_sales_schema(), n).unwrap();
    t.load_initial(&[row("Seed", "seed", 1, 100)]).unwrap();
    t
}

#[test]
fn table_2_insert_over_live_tuple_is_impossible() {
    // Row 1, previous insert/update: impossible.
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    let err = txn.insert(row("Seed", "seed", 1, 5)).unwrap_err();
    assert_eq!(
        err,
        VnlError::InvalidTransition {
            attempted: Operation::Insert,
            previous: Operation::Insert,
            same_txn: false,
        }
    );
    // ... and over a previously *updated* tuple.
    txn.update_row(&row("Seed", "seed", 1, 200)).unwrap();
    txn.commit().unwrap();
    let txn = t.begin_maintenance().unwrap();
    let err = txn.insert(row("Seed", "seed", 1, 5)).unwrap_err();
    assert_eq!(
        err,
        VnlError::InvalidTransition {
            attempted: Operation::Insert,
            previous: Operation::Update,
            same_txn: false,
        }
    );
    txn.abort().unwrap();
}

#[test]
fn table_2_insert_resurrects_deleted_tuple() {
    // Row 1, previous delete: update in place, op <- insert, PV <- nulls.
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.delete_row(&row("Seed", "seed", 1, 0)).unwrap();
    txn.commit().unwrap(); // deleted at VN 2
    let txn = t.begin_maintenance().unwrap(); // VN 3
    txn.set_tracing(true);
    txn.insert(row("Seed", "seed", 1, 777)).unwrap();
    assert_eq!(txn.take_trace()[0].0, PhysicalAction::ResurrectTuple);
    txn.commit().unwrap();
    // Still one physical tuple; current value 777; pre nulls.
    let state = physical_state(&t);
    assert_eq!(state.len(), 1);
    assert_eq!(state[0].0, 3);
    assert_eq!(state[0].1, "insert");
    assert_eq!(state[0].4, Value::from(777));
    assert_eq!(state[0].5, Value::Null);
}

#[test]
fn table_2_insert_after_own_delete_nets_to_update() {
    // Row 2, previous delete (same txn): CV <- MV, op <- update.
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.set_tracing(true);
    txn.delete_row(&row("Seed", "seed", 1, 0)).unwrap();
    txn.insert(row("Seed", "seed", 1, 900)).unwrap();
    let trace = txn.take_trace();
    assert_eq!(trace[1].0, PhysicalAction::UpdateAfterOwnDelete);
    txn.commit().unwrap();
    let state = physical_state(&t);
    assert_eq!(state[0].1, "update"); // net effect
    assert_eq!(state[0].4, Value::from(900));
    assert_eq!(state[0].5, Value::from(100)); // pre-txn value preserved
                                              // A reader at the previous version sees the pre-update value.
                                              // (currentVN is now 2; the change was at VN 2; session at 1 reads pre.)
                                              // Simulate by a new maintenance txn + old-session check:
    let s = t.begin_session(); // VN 2
    assert_eq!(s.scan().unwrap()[0][4], Value::from(900));
    s.finish();
}

#[test]
fn table_2_insert_after_own_insert_or_update_is_impossible() {
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("New", "p", 2, 1)).unwrap();
    let err = txn.insert(row("New", "p", 2, 2)).unwrap_err();
    assert_eq!(
        err,
        VnlError::InvalidTransition {
            attempted: Operation::Insert,
            previous: Operation::Insert,
            same_txn: true,
        }
    );
    txn.update_row(&row("Seed", "seed", 1, 5)).unwrap();
    let err = txn.insert(row("Seed", "seed", 1, 2)).unwrap_err();
    assert_eq!(
        err,
        VnlError::InvalidTransition {
            attempted: Operation::Insert,
            previous: Operation::Update,
            same_txn: true,
        }
    );
    txn.abort().unwrap();
}

#[test]
fn table_2_keyless_relations_always_physically_insert() {
    // Row 3 for relations without a unique key.
    let schema = wh_types::Schema::new(vec![
        wh_types::Column::new("tag", wh_types::DataType::Char(8)),
        wh_types::Column::updatable("v", wh_types::DataType::Int64),
    ])
    .unwrap();
    let t = VnlTable::create_named("T", schema, 2).unwrap();
    let txn = t.begin_maintenance().unwrap();
    txn.set_tracing(true);
    txn.insert(vec![Value::from("a"), Value::from(1)]).unwrap();
    txn.insert(vec![Value::from("a"), Value::from(1)]).unwrap(); // duplicate fine
    let trace = txn.take_trace();
    assert!(trace.iter().all(|(a, _)| *a == PhysicalAction::InsertTuple));
    txn.commit().unwrap();
    assert_eq!(t.storage().len(), 2);
}

// ---------------------------------------------------------------------
// Table 3 (update): every cell.
// ---------------------------------------------------------------------

#[test]
fn table_3_first_update_saves_pre_values() {
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.set_tracing(true);
    txn.update_row(&row("Seed", "seed", 1, 150)).unwrap();
    assert_eq!(txn.take_trace()[0].0, PhysicalAction::UpdateSavingPre);
    txn.commit().unwrap();
    let state = physical_state(&t);
    assert_eq!(state[0].4, Value::from(150));
    assert_eq!(state[0].5, Value::from(100));
}

#[test]
fn table_3_second_update_in_same_txn_keeps_pre_values() {
    // Row 2: CV <- MV only; PV keeps the pre-transaction value.
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.set_tracing(true);
    txn.update_row(&row("Seed", "seed", 1, 150)).unwrap();
    txn.update_row(&row("Seed", "seed", 1, 175)).unwrap();
    let trace = txn.take_trace();
    assert_eq!(trace[1].0, PhysicalAction::UpdateInPlace);
    txn.commit().unwrap();
    let state = physical_state(&t);
    assert_eq!(state[0].4, Value::from(175));
    assert_eq!(state[0].5, Value::from(100)); // NOT 150
}

#[test]
fn table_3_update_after_own_insert_keeps_insert_as_net_effect() {
    // Row 2, previous insert: CV <- MV, operation stays insert.
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("New", "p", 2, 10)).unwrap();
    txn.update_row(&row("New", "p", 2, 20)).unwrap();
    txn.commit().unwrap();
    let state = physical_state(&t);
    let new_row = state.iter().find(|s| s.2 == "New").unwrap();
    assert_eq!(new_row.1, "insert"); // net effect: still an insert
    assert_eq!(new_row.4, Value::from(20));
    assert_eq!(new_row.5, Value::Null); // pre stays null -> old readers ignore
}

#[test]
fn table_3_update_of_deleted_tuple_is_impossible() {
    let t = fresh_keyed(2);
    // Earlier-txn delete.
    let txn = t.begin_maintenance().unwrap();
    txn.delete_row(&row("Seed", "seed", 1, 0)).unwrap();
    txn.commit().unwrap();
    let txn = t.begin_maintenance().unwrap();
    let err = txn.update_row(&row("Seed", "seed", 1, 5)).unwrap_err();
    assert_eq!(
        err,
        VnlError::InvalidTransition {
            attempted: Operation::Update,
            previous: Operation::Delete,
            same_txn: false,
        }
    );
    txn.abort().unwrap();
    // Same-txn delete.
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.delete_row(&row("Seed", "seed", 1, 0)).unwrap();
    let err = txn.update_row(&row("Seed", "seed", 1, 5)).unwrap_err();
    assert_eq!(
        err,
        VnlError::InvalidTransition {
            attempted: Operation::Update,
            previous: Operation::Delete,
            same_txn: true,
        }
    );
    txn.abort().unwrap();
}

#[test]
fn sql_update_cursor_skips_deleted_tuples() {
    // The §4.2.2 cursor only visits visible tuples, so a set-oriented UPDATE
    // never hits the impossible cell.
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.delete_row(&row("Seed", "seed", 1, 0)).unwrap();
    let affected = txn
        .execute_sql(
            "UPDATE DailySales SET total_sales = total_sales + 1",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(affected, 0);
    txn.abort().unwrap();
}

// ---------------------------------------------------------------------
// Table 4 (delete): every cell.
// ---------------------------------------------------------------------

#[test]
fn table_4_logical_delete_preserves_both_versions() {
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.set_tracing(true);
    txn.delete_row(&row("Seed", "seed", 1, 0)).unwrap();
    assert_eq!(txn.take_trace()[0].0, PhysicalAction::MarkDeleted);
    txn.commit().unwrap();
    let state = physical_state(&t);
    assert_eq!(state[0].1, "delete");
    assert_eq!(state[0].4, Value::from(100)); // CV untouched
    assert_eq!(state[0].5, Value::from(100)); // PV <- CV
    assert_eq!(t.storage().len(), 1); // physically retained
}

#[test]
fn table_4_delete_after_own_update_nets_to_delete() {
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.set_tracing(true);
    txn.update_row(&row("Seed", "seed", 1, 150)).unwrap();
    txn.delete_row(&row("Seed", "seed", 1, 0)).unwrap();
    let trace = txn.take_trace();
    assert_eq!(trace[1].0, PhysicalAction::MarkOwnUpdateDeleted);
    txn.commit().unwrap();
    let state = physical_state(&t);
    assert_eq!(state[0].1, "delete");
    assert_eq!(state[0].5, Value::from(100)); // pre-txn value, not 150
}

#[test]
fn table_4_delete_of_own_insert_physically_deletes() {
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.set_tracing(true);
    txn.insert(row("New", "p", 2, 1)).unwrap();
    txn.delete_row(&row("New", "p", 2, 0)).unwrap();
    let trace = txn.take_trace();
    assert_eq!(trace[1].0, PhysicalAction::RemoveOwnInsert);
    txn.commit().unwrap();
    assert_eq!(t.storage().len(), 1); // only the seed remains
                                      // The key is free again.
    let txn = t.begin_maintenance().unwrap();
    txn.insert(row("New", "p", 2, 2)).unwrap();
    txn.commit().unwrap();
}

#[test]
fn table_4_delete_of_resurrection_restores_old_tuple() {
    // delete -> commit -> (insert, delete) in one txn: the resurrected
    // tuple's pre-delete version must survive for old readers.
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.delete_row(&row("Seed", "seed", 1, 0)).unwrap();
    txn.commit().unwrap(); // deleted at VN 2
    let before = physical_state(&t);
    let txn = t.begin_maintenance().unwrap(); // VN 3
    txn.set_tracing(true);
    txn.insert(row("Seed", "seed", 1, 999)).unwrap(); // resurrect
    txn.delete_row(&row("Seed", "seed", 1, 0)).unwrap(); // change of heart
    let trace = txn.take_trace();
    assert_eq!(trace[1].0, PhysicalAction::RestoreResurrected);
    txn.commit().unwrap();
    // Net effect of resurrect+delete = nothing: physical state unchanged.
    assert_eq!(physical_state(&t), before);
}

#[test]
fn table_4_double_delete_is_impossible() {
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    txn.delete_row(&row("Seed", "seed", 1, 0)).unwrap();
    // Same txn: impossible transition.
    let err = txn.delete_row(&row("Seed", "seed", 1, 0)).unwrap_err();
    assert_eq!(
        err,
        VnlError::InvalidTransition {
            attempted: Operation::Delete,
            previous: Operation::Delete,
            same_txn: true,
        }
    );
    txn.commit().unwrap();
    // Later txn: the tuple is logically absent.
    let txn = t.begin_maintenance().unwrap();
    let err = txn.delete_row(&row("Seed", "seed", 1, 0)).unwrap_err();
    assert!(matches!(err, VnlError::NoSuchTuple(_)));
    txn.abort().unwrap();
}

// ---------------------------------------------------------------------
// §4.2 SQL-level maintenance (Examples 4.2–4.4) traces.
// ---------------------------------------------------------------------

fn paper_update_sql_table() -> (VnlTable, u64) {
    let t = VnlTable::create_named("DailySales", daily_sales_schema(), 2).unwrap();
    t.load_initial(&[
        row("San Jose", "golf equip", 13, 10_000),
        row("San Jose", "racquetball", 13, 2_000),
        row("Berkeley", "golf equip", 13, 5_000),
    ])
    .unwrap();
    (t, 2)
}

#[test]
fn example_4_3_update_statement() {
    // UPDATE DailySales SET total_sales = total_sales + 1000
    // WHERE city = 'San Jose' AND date = '10/13/96'
    let (t, _) = paper_update_sql_table();
    let txn = t.begin_maintenance().unwrap();
    txn.set_tracing(true);
    let affected = txn
        .execute_sql(
            "UPDATE DailySales SET total_sales = total_sales + 1000 \
             WHERE city = 'San Jose' AND date = DATE '1996-10-13'",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(affected, 2);
    let trace = txn.take_trace();
    assert!(trace
        .iter()
        .all(|(a, _)| *a == PhysicalAction::UpdateSavingPre));
    txn.commit().unwrap();
    let s = t.begin_session();
    let r = s
        .query("SELECT SUM(total_sales) FROM DailySales WHERE city = 'San Jose'")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::from(14_000));
    s.finish();
}

#[test]
fn example_4_3_update_twice_takes_second_branch() {
    // Running the same UPDATE twice in one txn exercises the tupleVN =
    // maintenanceVN branch (the "Else" of the paper's pseudocode).
    let (t, _) = paper_update_sql_table();
    let txn = t.begin_maintenance().unwrap();
    txn.set_tracing(true);
    for _ in 0..2 {
        txn.execute_sql(
            "UPDATE DailySales SET total_sales = total_sales + 1000 \
             WHERE city = 'San Jose' AND date = DATE '1996-10-13'",
            &Params::new(),
        )
        .unwrap();
    }
    let trace = txn.take_trace();
    let first: Vec<_> = trace.iter().take(2).map(|(a, _)| *a).collect();
    let second: Vec<_> = trace.iter().skip(2).map(|(a, _)| *a).collect();
    assert!(first.iter().all(|a| *a == PhysicalAction::UpdateSavingPre));
    assert!(second.iter().all(|a| *a == PhysicalAction::UpdateInPlace));
    txn.commit().unwrap();
    // Pre-update values reflect the transaction start, not the first UPDATE.
    let l = t.layout();
    for (_, ext) in t.scan_raw().unwrap() {
        if ext[l.base_col(0)] == Value::from("San Jose") {
            let pre = &ext[l.pre_set(0)[0]];
            let cur = &ext[l.base_col(4)];
            assert_eq!(
                cur.as_int().unwrap() - pre.as_int().unwrap(),
                2000,
                "PV must hold the pre-transaction value"
            );
        }
    }
}

#[test]
fn example_4_4_delete_statement() {
    let (t, _) = paper_update_sql_table();
    let txn = t.begin_maintenance().unwrap();
    txn.set_tracing(true);
    let affected = txn
        .execute_sql(
            "DELETE FROM DailySales WHERE city = 'San Jose' AND date = DATE '1996-10-13'",
            &Params::new(),
        )
        .unwrap();
    assert_eq!(affected, 2);
    assert!(txn
        .take_trace()
        .iter()
        .all(|(a, _)| *a == PhysicalAction::MarkDeleted));
    txn.commit().unwrap();
    // Logically gone for new sessions, physically retained for old ones.
    let s = t.begin_session();
    let r = s
        .query("SELECT COUNT(*) FROM DailySales WHERE city = 'San Jose'")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::from(0));
    s.finish();
    assert_eq!(t.storage().len(), 3);
}

#[test]
fn example_4_2_insert_statement_with_conflicts() {
    let (t, _) = paper_update_sql_table();
    // Delete one key so the insert can resurrect it.
    let txn = t.begin_maintenance().unwrap();
    txn.delete_row(&row("San Jose", "golf equip", 13, 0))
        .unwrap();
    txn.commit().unwrap();
    let txn = t.begin_maintenance().unwrap();
    txn.set_tracing(true);
    txn.execute_sql(
        "INSERT INTO DailySales VALUES \
         ('San Jose', 'CA', 'golf equip', DATE '1996-10-13', 123), \
         ('Novato', 'CA', 'swimming', DATE '1996-10-13', 456)",
        &Params::new(),
    )
    .unwrap();
    let trace = txn.take_trace();
    assert_eq!(trace[0].0, PhysicalAction::ResurrectTuple);
    assert_eq!(trace[1].0, PhysicalAction::InsertTuple);
    txn.commit().unwrap();
}

#[test]
fn maintenance_reads_see_own_changes() {
    // §3.3: "a maintenance transaction always reads the current version".
    let (t, _) = paper_update_sql_table();
    let txn = t.begin_maintenance().unwrap();
    txn.update_row(&row("Berkeley", "golf equip", 13, 9_999))
        .unwrap();
    txn.delete_row(&row("San Jose", "racquetball", 13, 0))
        .unwrap();
    txn.insert(row("Oakland", "golf equip", 13, 1)).unwrap();
    let rows = txn.scan_current().unwrap();
    let mut cities: Vec<String> = rows
        .iter()
        .map(|r| format!("{}:{}", r[0].as_str().unwrap(), r[4]))
        .collect();
    cities.sort();
    assert_eq!(cities, vec!["Berkeley:9999", "Oakland:1", "San Jose:10000"]);
    txn.abort().unwrap();
}

#[test]
fn finished_txn_rejects_operations() {
    let t = fresh_keyed(2);
    let txn = t.begin_maintenance().unwrap();
    let txn2: &MaintenanceTxn = &txn;
    let _ = txn2;
    txn.commit().unwrap();
    // A new txn works fine afterwards — covered elsewhere. Here: using the
    // moved-out txn is prevented by ownership; instead check double-commit
    // via a fresh txn aborted then reused is impossible by construction.
    let txn = t.begin_maintenance().unwrap();
    txn.abort().unwrap();
}
