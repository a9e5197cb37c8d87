//! Edge cases around the 2VNL lifecycle: empty relations, empty
//! transactions, keyless relations, and boundary schemas.
#![allow(clippy::unwrap_used)]

use wh_sql::Params;
use wh_types::{Column, DataType, Schema, Value};
use wh_vnl::{gc, ReadOutcome, VnlError, VnlTable};

fn keyless_schema() -> Schema {
    Schema::new(vec![
        Column::new("tag", DataType::Char(4)),
        Column::updatable("v", DataType::Int64),
    ])
    .unwrap()
}

#[test]
fn empty_table_supports_everything() {
    let t = VnlTable::create_named("T", keyless_schema(), 2).unwrap();
    let s = t.begin_session();
    assert!(s.scan().unwrap().is_empty());
    assert_eq!(
        s.query("SELECT COUNT(*) FROM T").unwrap().rows[0][0],
        Value::from(0)
    );
    assert_eq!(
        s.query_via_rewrite("SELECT SUM(v) FROM T").unwrap().rows[0][0],
        Value::Null
    );
    s.finish();
    assert_eq!(gc::collect(&t).unwrap().scanned, 0);
}

#[test]
fn empty_maintenance_transaction_still_advances_the_version() {
    let t = VnlTable::create_named("T", keyless_schema(), 2).unwrap();
    let old = t.begin_session();
    let txn = t.begin_maintenance().unwrap();
    txn.commit().unwrap();
    assert_eq!(t.version().snapshot().current_vn, 2);
    // The old session is still live (one overlap) and sees nothing change.
    assert_eq!(old.status(), ReadOutcome::Live);
    old.finish();
}

#[test]
fn load_initial_with_no_rows_is_fine() {
    let t = VnlTable::create_named("T", keyless_schema(), 2).unwrap();
    t.load_initial(&[]).unwrap();
    assert_eq!(t.storage().len(), 0);
}

#[test]
fn keyless_relation_full_dml_cycle() {
    let t = VnlTable::create_named("T", keyless_schema(), 2).unwrap();
    let txn = t.begin_maintenance().unwrap();
    for i in 0..4i64 {
        txn.insert(vec![Value::from("a"), Value::from(i)]).unwrap();
    }
    txn.commit().unwrap();
    // Set-oriented update and delete work without a key.
    let txn = t.begin_maintenance().unwrap();
    let updated = txn
        .execute_sql("UPDATE T SET v = v * 10 WHERE v >= 2", &Params::new())
        .unwrap();
    assert_eq!(updated, 2);
    let deleted = txn
        .execute_sql("DELETE FROM T WHERE v = 0", &Params::new())
        .unwrap();
    assert_eq!(deleted, 1);
    txn.commit().unwrap();
    let s = t.begin_session();
    let mut vs: Vec<i64> = s
        .scan()
        .unwrap()
        .iter()
        .map(|r| r[1].as_int().unwrap())
        .collect();
    vs.sort_unstable();
    assert_eq!(vs, vec![1, 20, 30]);
    s.finish();
    // Key-based ops are rejected on keyless relations.
    let txn = t.begin_maintenance().unwrap();
    assert!(matches!(
        txn.read_current(&[Value::from("a"), Value::Null]),
        Ok(None)
    ));
    txn.abort().unwrap();
    let s = t.begin_session();
    assert!(matches!(
        s.read_by_key(&[Value::from("a"), Value::Null]),
        Err(VnlError::KeyRequired(_))
    ));
    s.finish();
}

#[test]
fn session_vn_accessor_and_multiple_sessions() {
    let t = VnlTable::create_named("T", keyless_schema(), 2).unwrap();
    let s1 = t.begin_session();
    assert_eq!(s1.session_vn(), 1);
    let txn = t.begin_maintenance().unwrap();
    txn.commit().unwrap();
    let s2 = t.begin_session();
    assert_eq!(s2.session_vn(), 2);
    assert_eq!(t.active_session_count(), 2);
    assert_eq!(t.min_active_session_vn(), Some(1));
    s1.finish();
    s2.finish();
}

#[test]
fn single_column_all_updatable_schema() {
    // Degenerate: every attribute updatable, no key.
    let schema = Schema::new(vec![Column::updatable("x", DataType::Int64)]).unwrap();
    let t = VnlTable::create_named("T", schema, 2).unwrap();
    let o = t.layout().overhead();
    assert_eq!(o.base_tuple_bytes, 8);
    assert_eq!(o.ext_tuple_bytes, 8 + 8 + 4 + 1); // + pre_x + tupleVN + op
    let txn = t.begin_maintenance().unwrap();
    txn.insert(vec![Value::from(1)]).unwrap();
    txn.commit().unwrap();
    let old = t.begin_session();
    let txn = t.begin_maintenance().unwrap();
    txn.execute_sql("UPDATE T SET x = 2", &Params::new())
        .unwrap();
    txn.commit().unwrap();
    assert_eq!(old.scan().unwrap()[0][0], Value::from(1));
    old.finish();
}

#[test]
fn wide_char_columns_round_trip_through_versions() {
    let schema = Schema::with_key_names(
        vec![
            Column::new("k", DataType::Int64),
            Column::updatable("name", DataType::Char(64)),
        ],
        &["k"],
    )
    .unwrap();
    let t = VnlTable::create_named("T", schema, 2).unwrap();
    let long = "x".repeat(64);
    t.load_initial(&[vec![Value::from(0), Value::from(long.clone())]])
        .unwrap();
    let old = t.begin_session();
    let txn = t.begin_maintenance().unwrap();
    txn.update_row(&vec![Value::from(0), Value::from("short")])
        .unwrap();
    txn.commit().unwrap();
    // Pre-update version preserves the full 64-byte string.
    assert_eq!(old.scan().unwrap()[0][1], Value::from(long));
    old.finish();
    // Oversized values are rejected cleanly.
    let txn = t.begin_maintenance().unwrap();
    let err = txn
        .update_row(&vec![Value::from(0), Value::from("y".repeat(65))])
        .unwrap_err();
    assert!(matches!(err, VnlError::Storage(_) | VnlError::Type(_)));
    txn.abort().unwrap();
}

#[test]
fn rewriter_rejects_unknown_updatable_column_gracefully() {
    let t = VnlTable::create_named("T", keyless_schema(), 2).unwrap();
    let s = t.begin_session();
    // Unknown column flows through as a SQL error, not a panic.
    assert!(matches!(
        s.query("SELECT nope FROM T"),
        Ok(_) | Err(VnlError::Sql(_))
    ));
    assert!(s.query("SELECT nope FROM T WHERE v = 1").is_err() || t.storage().is_empty());
    s.finish();
}

#[test]
fn many_small_maintenance_rounds_only_two_versions_survive() {
    // Storage stays bounded: versions are recycled in place, never chained.
    let t = VnlTable::create_named("T", keyless_schema(), 2).unwrap();
    let txn = t.begin_maintenance().unwrap();
    txn.insert(vec![Value::from("a"), Value::from(0)]).unwrap();
    txn.commit().unwrap();
    let width = t.storage().codec().encoded_len() as u64;
    for i in 1..=50i64 {
        let txn = t.begin_maintenance().unwrap();
        txn.execute_sql(&format!("UPDATE T SET v = {i}"), &Params::new())
            .unwrap();
        txn.commit().unwrap();
    }
    // One physical tuple, constant footprint, despite 50 generations.
    assert_eq!(t.storage().len(), 1);
    assert_eq!(t.storage().len() * width, width);
    let s = t.begin_session();
    assert_eq!(s.scan().unwrap()[0][1], Value::from(50));
    s.finish();
}

fn two_updatable_columns() -> VnlTable {
    let schema = Schema::with_key(
        vec![
            Column::new("k", DataType::Int32),
            Column::updatable("a", DataType::Int32),
            Column::updatable("b", DataType::Int32),
        ],
        vec![0],
    )
    .unwrap();
    VnlTable::create_named("T", schema, 2).unwrap()
}

#[test]
fn update_right_hand_sides_see_pre_update_values() {
    let t = two_updatable_columns();
    let txn = t.begin_maintenance().unwrap();
    txn.execute_sql("INSERT INTO T VALUES (1, 1, 2)", &Params::new())
        .unwrap();
    // Simultaneous swap semantics: both RHS evaluate against the old row.
    txn.execute_sql("UPDATE T SET a = b, b = a", &Params::new())
        .unwrap();
    txn.commit().unwrap();
    let s = t.begin_session();
    assert_eq!(
        s.scan().unwrap(),
        vec![vec![Value::from(1), Value::from(2), Value::from(1)]]
    );
    s.finish();
}

#[test]
fn insert_column_list_fills_nulls_and_values_see_no_columns() {
    let t = two_updatable_columns();
    let txn = t.begin_maintenance().unwrap();
    txn.execute_sql("INSERT INTO T (k, b) VALUES (7, 9)", &Params::new())
        .unwrap();
    // VALUES expressions are evaluated against no row at all.
    let err = txn
        .execute_sql("INSERT INTO T VALUES (8, a, 1)", &Params::new())
        .unwrap_err();
    assert!(
        matches!(err, VnlError::Sql(wh_sql::SqlError::NoSuchColumn(_))),
        "{err}"
    );
    txn.commit().unwrap();
    let s = t.begin_session();
    assert_eq!(
        s.scan().unwrap(),
        vec![vec![Value::from(7), Value::Null, Value::from(9)]]
    );
    s.finish();
}
