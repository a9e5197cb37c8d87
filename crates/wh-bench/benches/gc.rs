//! E13 — garbage collection of logically-deleted tuples (§7).
#![allow(clippy::unwrap_used)]

use wh_bench::micro::Micro;
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

/// A table of `n` tuples where half have been logically deleted.
fn half_deleted(n: i64) -> VnlTable {
    let table = VnlTable::create_named("kv", kv_schema(), 2).unwrap();
    let rows: Vec<Row> = (0..n)
        .map(|k| vec![Value::from(k), Value::from(0)])
        .collect();
    table.load_initial(&rows).unwrap();
    let txn = table.begin_maintenance().unwrap();
    for k in (0..n).step_by(2) {
        txn.delete_row(&vec![Value::from(k), Value::Null]).unwrap();
    }
    txn.commit().unwrap();
    table
}

fn bench_gc(m: &mut Micro) {
    for &n in &[1_000i64, 10_000] {
        m.bench_batched(
            format!("gc_pass/collect_half_of_{n}"),
            || half_deleted(n),
            move |table| {
                let report = gc::collect(&table).unwrap();
                assert_eq!(report.reclaimed as i64, n / 2);
                report
            },
        );
        // A pass with nothing to collect (all tuples pinned by a session).
        let table = half_deleted(n);
        // Drain the garbage once; subsequent passes find nothing.
        gc::collect(&table).unwrap();
        m.bench(format!("gc_pass/noop_pass_of_{n}"), || {
            gc::collect(&table).unwrap()
        });
    }
}

fn main() {
    let mut m = Micro::new();
    bench_gc(&mut m);
    m.finish();
}
