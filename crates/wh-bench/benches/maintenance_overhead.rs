//! E15 — maintenance-side overhead: applying a daily delta batch through
//! the 2VNL decision tables vs updating a plain table directly, plus the
//! full view-maintenance pipeline.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;
use wh_bench::micro::Micro;
use wh_storage::{IoStats, Table};
use wh_types::{Date, Row, Value};
use wh_view::{SummaryViewDef, ViewMaintainer};
use wh_vnl::VnlTable;
use wh_workload::{SalesConfig, SalesGenerator};

fn view_def() -> SummaryViewDef {
    SummaryViewDef::new(
        SalesGenerator::source_schema(),
        &["city", "state", "product_line", "date"],
        "amount",
        "total_sales",
    )
    .unwrap()
}

fn generator() -> SalesGenerator {
    SalesGenerator::new(
        SalesConfig {
            cities: 40,
            product_lines: 8,
            sales_per_day: 1_000,
            correction_per_mille: 20,
            seed: 7,
        },
        Date::ymd(1996, 10, 1),
    )
}

fn bench_maintenance(m: &mut Micro) {
    let def = view_def();

    // Seed data: 5 days of history.
    let mut gen = generator();
    let mut history = Vec::new();
    for batch in gen.days(5) {
        history.extend(batch.into_iter().filter_map(|d| match d {
            wh_view::SourceDelta::Insert(r) => Some(r),
            wh_view::SourceDelta::Delete(_) => None,
        }));
    }
    let initial = def.initial_rows(&history);
    let next_batch = gen.next_day();

    // Plain-table baseline: apply the same group deltas with raw updates.
    m.bench_batched(
        "maintenance_batch/plain_table_apply",
        || {
            let table = Table::create("DailySales", def.summary_schema(), Arc::new(IoStats::new()))
                .unwrap();
            let mut rids = std::collections::HashMap::new();
            for r in &initial {
                let rid = table.insert(r).unwrap();
                rids.insert(format!("{:?}", &r[..4]), rid);
            }
            (table, rids)
        },
        |(table, rids)| {
            let deltas = wh_view::summarize(&next_batch, &[0, 1, 2, 3], 4);
            for d in deltas {
                let key = format!("{:?}", &d.key[..]);
                match rids.get(&key) {
                    Some(&rid) => {
                        let mut row: Row = table.read(rid).unwrap();
                        row[4] = row[4].add(&Value::from(d.sum_delta)).unwrap();
                        row[5] = row[5].add(&Value::from(d.count_delta)).unwrap();
                        table.update(rid, &row).unwrap();
                    }
                    None => {
                        let mut row = d.key.clone();
                        row.push(Value::from(d.sum_delta));
                        row.push(Value::from(d.count_delta));
                        table.insert(&row).unwrap();
                    }
                }
            }
            table.len()
        },
    );

    // 2VNL path: the full decision-table machinery.
    m.bench_batched(
        "maintenance_batch/vnl_apply",
        || {
            let table = def.create_table("DailySales", 2).unwrap();
            table.load_initial(&initial).unwrap();
            table
        },
        |table| {
            let maintainer = ViewMaintainer::new(def.clone());
            let txn = table.begin_maintenance().unwrap();
            maintainer.propagate(&txn, &next_batch).unwrap();
            txn.commit().unwrap();
            table.storage().len()
        },
    );

    // nVNL cost growth (§5): same batch under n = 4.
    m.bench_batched(
        "maintenance_batch/nvnl4_apply",
        || {
            let table = def.create_table("DailySales", 4).unwrap();
            table.load_initial(&initial).unwrap();
            table
        },
        |table| {
            let maintainer = ViewMaintainer::new(def.clone());
            let txn = table.begin_maintenance().unwrap();
            maintainer.propagate(&txn, &next_batch).unwrap();
            txn.commit().unwrap();
            table.storage().len()
        },
    );
}

fn bench_rollback(m: &mut Micro) {
    // §7: abort via log-free rollback.
    let def = view_def();
    let mut gen = generator();
    let mut history = Vec::new();
    for batch in gen.days(3) {
        history.extend(batch.into_iter().filter_map(|d| match d {
            wh_view::SourceDelta::Insert(r) => Some(r),
            wh_view::SourceDelta::Delete(_) => None,
        }));
    }
    let initial = def.initial_rows(&history);
    let next_batch = gen.next_day();
    m.bench_batched(
        "logfree_rollback",
        || {
            let table = def.create_table("DailySales", 2).unwrap();
            table.load_initial(&initial).unwrap();
            table
        },
        |table| {
            let maintainer = ViewMaintainer::new(def.clone());
            let txn = table.begin_maintenance().unwrap();
            maintainer.propagate(&txn, &next_batch).unwrap();
            txn.abort().unwrap();
            table.storage().len()
        },
    );
}

fn bench_single_ops(m: &mut Micro) {
    // Per-tuple decision-table cost, isolated.
    let table = VnlTable::create_named(
        "kv",
        wh_types::Schema::with_key_names(
            vec![
                wh_types::Column::new("key", wh_types::DataType::Int64),
                wh_types::Column::updatable("value", wh_types::DataType::Int64),
            ],
            &["key"],
        )
        .unwrap(),
        2,
    )
    .unwrap();
    let rows: Vec<Row> = (0..10_000i64)
        .map(|k| vec![Value::from(k), Value::from(0)])
        .collect();
    table.load_initial(&rows).unwrap();
    let txn = table.begin_maintenance().unwrap();
    let mut k = 0i64;
    m.bench("single_op/vnl_update_by_key", || {
        k = (k + 1) % 10_000;
        txn.update_row(&vec![Value::from(k), Value::from(k)])
            .unwrap();
    });
    txn.commit().unwrap();
}

fn main() {
    let mut m = Micro::new();
    bench_maintenance(&mut m);
    bench_rollback(&mut m);
    bench_single_ops(&mut m);
    m.finish();
}
