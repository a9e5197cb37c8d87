//! Quickstart: a 2VNL warehouse table, one maintenance transaction, one
//! reader session — the whole algorithm in forty lines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
#![allow(clippy::unwrap_used)]

use warehouse_2vnl::types::{schema::daily_sales_schema, Date, Value};
use warehouse_2vnl::vnl::{ReadOutcome, VnlTable};

fn main() {
    // DailySales(city, state, product_line, date, total_sales) with the
    // group-by attributes as unique key and total_sales updatable — the
    // paper's running example (Example 2.1 / Figure 3).
    let table = VnlTable::create_named("DailySales", daily_sales_schema(), 2).unwrap();

    // Bulk-load yesterday's state.
    table
        .load_initial(&[
            vec![
                Value::from("San Jose"),
                Value::from("CA"),
                Value::from("golf equip"),
                Value::from(Date::ymd(1996, 10, 14)),
                Value::from(10_000),
            ],
            vec![
                Value::from("Berkeley"),
                Value::from("CA"),
                Value::from("racquetball"),
                Value::from(Date::ymd(1996, 10, 14)),
                Value::from(12_000),
            ],
        ])
        .unwrap();

    // An analyst begins a session...
    let session = table.begin_session();
    let before = session
        .query("SELECT city, SUM(total_sales) FROM DailySales GROUP BY city ORDER BY city")
        .unwrap();
    println!(
        "analyst sees (before maintenance):\n{}",
        before.to_table_string()
    );

    // ...and the maintenance transaction runs CONCURRENTLY: no locks, no
    // blocking, on either side.
    let txn = table.begin_maintenance().unwrap();
    txn.execute_sql(
        "UPDATE DailySales SET total_sales = total_sales + 5000 WHERE city = 'San Jose'",
        &warehouse_2vnl::sql::Params::new(),
    )
    .unwrap();
    txn.commit().unwrap();

    // The analyst's view is unchanged — same session, same answers.
    let after = session
        .query("SELECT city, SUM(total_sales) FROM DailySales GROUP BY city ORDER BY city")
        .unwrap();
    assert_eq!(before.rows, after.rows);
    assert!(matches!(session.status(), ReadOutcome::Live));
    println!(
        "analyst still sees (after concurrent maintenance commit):\n{}",
        after.to_table_string()
    );
    session.finish();

    // A new session picks up the committed state.
    let fresh = table.begin_session();
    let now = fresh
        .query("SELECT city, SUM(total_sales) FROM DailySales GROUP BY city ORDER BY city")
        .unwrap();
    println!("a NEW session sees:\n{}", now.to_table_string());
    fresh.finish();
}
