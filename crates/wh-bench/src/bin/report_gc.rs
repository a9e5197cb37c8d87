//! Experiment E13 — garbage collection of logically-deleted tuples (§7):
//! space reclaimed as a function of the delete fraction and of the oldest
//! active reader.
#![allow(clippy::unwrap_used)]

use wh_bench::print_table;
use wh_types::{Column, DataType, Row, Schema, Value};
use wh_vnl::{gc, VnlTable};

fn kv_schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("key", DataType::Int64),
            Column::updatable("value", DataType::Int64),
        ],
        &["key"],
    )
    .unwrap()
}

fn build(n_tuples: i64, delete_pct: i64) -> VnlTable {
    let t = VnlTable::create_named("kv", kv_schema(), 2).unwrap();
    let rows: Vec<Row> = (0..n_tuples)
        .map(|k| vec![Value::from(k), Value::from(0)])
        .collect();
    t.load_initial(&rows).unwrap();
    let txn = t.begin_maintenance().unwrap();
    for k in 0..n_tuples {
        if k % 100 < delete_pct {
            txn.delete_row(&vec![Value::from(k), Value::Null]).unwrap();
        }
    }
    txn.commit().unwrap();
    t
}

fn main() {
    println!("E13: garbage collection of logically-deleted tuples (10,000 tuples)\n");
    println!("-- no active readers: everything logically deleted is reclaimable --");
    let mut rows = Vec::new();
    for delete_pct in [1i64, 10, 25, 50] {
        let t = build(10_000, delete_pct);
        let before = t.storage().len();
        let report = gc::collect(&t).unwrap();
        rows.push(vec![
            format!("{delete_pct}%"),
            before.to_string(),
            report.scanned.to_string(),
            report.reclaimed.to_string(),
            report.bytes_reclaimed.to_string(),
            t.storage().len().to_string(),
        ]);
    }
    print_table(
        &[
            "deleted",
            "tuples before",
            "examined",
            "reclaimed",
            "bytes freed",
            "tuples after",
        ],
        &rows,
    );

    println!("\n-- an old reader pins the pre-delete versions (§7's condition) --");
    let mut rows = Vec::new();
    for delete_pct in [10i64, 50] {
        // The deletes happen while a session is pinned at the earlier
        // version: GC must reclaim nothing until it ends.
        let t = VnlTable::create_named("kv", kv_schema(), 2).unwrap();
        let rows_init: Vec<Row> = (0..10_000i64)
            .map(|k| vec![Value::from(k), Value::from(0)])
            .collect();
        t.load_initial(&rows_init).unwrap();
        let pinned = t.begin_session(); // VN 1
        let txn = t.begin_maintenance().unwrap();
        for k in 0..10_000i64 {
            if k % 100 < delete_pct {
                txn.delete_row(&vec![Value::from(k), Value::Null]).unwrap();
            }
        }
        txn.commit().unwrap();
        let blocked = gc::collect(&t).unwrap();
        pinned.finish();
        let freed = gc::collect(&t).unwrap();
        rows.push(vec![
            format!("{delete_pct}%"),
            blocked.reclaimed.to_string(),
            freed.reclaimed.to_string(),
        ]);
    }
    print_table(
        &[
            "deleted",
            "reclaimed while reader pinned",
            "reclaimed after reader ends",
        ],
        &rows,
    );
    println!(
        "\n(§7: a deleted tuple is removable once no active reader can see its\n\
         pre-delete version; the pass is safe to run at any time, including during\n\
         an active maintenance transaction)"
    );
}
