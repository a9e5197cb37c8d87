//! E15 — §4.1 claims the rewrite overhead for readers is "small".
//!
//! Measures the Example 2.1 roll-up query three ways over the same data:
//! a plain (non-versioned) table, a 2VNL table via the SQL rewrite path,
//! and a 2VNL table via programmatic extraction.
#![allow(clippy::unwrap_used, clippy::unreachable)]

use std::sync::Arc;
use wh_bench::micro::Micro;
use wh_sql::{exec::execute_select, parse_statement, Params, Statement};
use wh_storage::{IoStats, Table};
use wh_types::schema::daily_sales_schema;
use wh_types::{Date, Row, Value};
use wh_vnl::VnlTable;

const TUPLES: usize = 2_000;

fn rows() -> Vec<Row> {
    // Mixed-radix digits keep the (city, product_line, date) key unique for
    // up to 40 * 8 * 28 = 8,960 tuples.
    (0..TUPLES)
        .map(|i| {
            vec![
                Value::from(format!("city{:03}", i % 40)),
                Value::from("CA"),
                Value::from(format!("pl{}", (i / 40) % 8)),
                Value::from(Date::ymd(1996, 10, 1).plus_days((i / 320 % 28) as u32)),
                Value::from((i * 13 % 997) as i64),
            ]
        })
        .collect()
}

const QUERY: &str = "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state";

fn bench_reader(m: &mut Micro) {
    // Plain table baseline.
    let plain =
        Table::create("DailySales", daily_sales_schema(), Arc::new(IoStats::new())).unwrap();
    for r in rows() {
        plain.insert(&r).unwrap();
    }
    let Statement::Select(stmt) = parse_statement(QUERY).unwrap() else {
        unreachable!()
    };
    m.bench("reader_rollup_query/plain_table", || {
        execute_select(&plain, &stmt, &Params::new(), 1).unwrap()
    });

    // 2VNL table, half the tuples updated by a later maintenance txn so the
    // CASE expressions actually discriminate.
    let vnl = VnlTable::create_named("DailySales", daily_sales_schema(), 2).unwrap();
    vnl.load_initial(&rows()).unwrap();
    let txn = vnl.begin_maintenance().unwrap();
    txn.execute_sql(
        "UPDATE DailySales SET total_sales = total_sales + 1 WHERE product_line = 'pl0'",
        &Params::new(),
    )
    .unwrap();
    txn.commit().unwrap();
    let session = vnl.begin_session();
    m.bench("reader_rollup_query/vnl_rewritten_sql", || {
        session.query_via_rewrite(QUERY).unwrap()
    });
    m.bench("reader_rollup_query/vnl_extraction", || {
        session.query(QUERY).unwrap()
    });
    session.finish();
}

/// Ablation: the generalized nVNL rewrite's CASE chains grow with n (§5's
/// run-time cost claim). Same data, same query, n ∈ {2, 3, 4}.
fn bench_nvnl_ablation(m: &mut Micro) {
    for n in [2usize, 3, 4] {
        let vnl = VnlTable::create_named("DailySales", daily_sales_schema(), n).unwrap();
        vnl.load_initial(&rows()).unwrap();
        // Touch every tuple once per extra version so the slots are full.
        for round in 0..(n - 1) as i64 {
            let txn = vnl.begin_maintenance().unwrap();
            txn.execute_sql(
                &format!("UPDATE DailySales SET total_sales = total_sales + {round}"),
                &Params::new(),
            )
            .unwrap();
            txn.commit().unwrap();
        }
        let session = vnl.begin_session();
        m.bench(format!("rewrite_cost_vs_n/n{n}_rewritten"), || {
            session.query_via_rewrite(QUERY).unwrap()
        });
        m.bench(format!("rewrite_cost_vs_n/n{n}_extraction"), || {
            session.query(QUERY).unwrap()
        });
        session.finish();
    }
}

/// §4.3: index-assisted point reads vs full-scan filtering inside a session.
fn bench_index_vs_scan(m: &mut Micro) {
    let vnl = VnlTable::create_named("DailySales", daily_sales_schema(), 2).unwrap();
    vnl.load_initial(&rows()).unwrap();
    vnl.create_index("by_city", &["city"]).unwrap();
    let session = vnl.begin_session();
    let key = [Value::from("city007")];
    m.bench("session_point_lookup/via_index", || {
        session.lookup_eq("by_city", &key).unwrap()
    });
    m.bench("session_point_lookup/via_scan", || {
        let rows: Vec<_> = session
            .scan()
            .unwrap()
            .into_iter()
            .filter(|r| r[0] == key[0])
            .collect();
        rows
    });
    session.finish();
}

fn main() {
    let mut m = Micro::new();
    bench_reader(&mut m);
    bench_nvnl_ablation(&mut m);
    bench_index_vs_scan(&mut m);
    m.finish();
}
