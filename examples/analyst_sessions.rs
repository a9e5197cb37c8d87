//! The Example 2.1 scenario, end to end: an analyst rolls up sales by city,
//! drills down into San Jose, and — because a maintenance transaction
//! commits between the two queries — would see *inconsistent* totals on any
//! system without session-consistent reads. Under 2VNL the drill-down
//! always adds up.
//!
//! ```sh
//! cargo run --example analyst_sessions
//! ```
#![allow(clippy::unwrap_used)]

use warehouse_2vnl::sql::Params;
use warehouse_2vnl::types::{schema::daily_sales_schema, Date, Row, Value};
use warehouse_2vnl::vnl::VnlTable;

fn sale(city: &str, pl: &str, day: u8, sales: i64) -> Row {
    vec![
        Value::from(city),
        Value::from("CA"),
        Value::from(pl),
        Value::from(Date::ymd(1996, 10, day)),
        Value::from(sales),
    ]
}

fn main() {
    let table = VnlTable::create_named("DailySales", daily_sales_schema(), 2).unwrap();
    table
        .load_initial(&[
            sale("San Jose", "golf equip", 14, 10_000),
            sale("San Jose", "racquetball", 14, 2_500),
            sale("San Jose", "rollerblades", 14, 1_200),
            sale("Berkeley", "racquetball", 14, 12_000),
            sale("Novato", "rollerblades", 13, 8_000),
        ])
        .unwrap();

    // ---- Query 1: the roll-up -------------------------------------------
    let session = table.begin_session();
    let rollup = session
        .query("SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state ORDER BY city")
        .unwrap();
    println!(
        "Roll-up (total sales by city):\n{}",
        rollup.to_table_string()
    );
    let san_jose_total = rollup
        .rows
        .iter()
        .find(|r| r[0] == Value::from("San Jose"))
        .unwrap()[2]
        .as_int()
        .unwrap();

    // ---- Maintenance lands mid-analysis ---------------------------------
    println!("... a maintenance transaction now loads today's sales and commits ...\n");
    let txn = table.begin_maintenance().unwrap();
    txn.execute_sql(
        "UPDATE DailySales SET total_sales = total_sales + 7777 WHERE city = 'San Jose'",
        &Params::new(),
    )
    .unwrap();
    txn.insert(sale("San Jose", "swimming", 15, 999)).unwrap();
    txn.commit().unwrap();

    // ---- Query 2: the drill-down -----------------------------------------
    let drill = session
        .query(
            "SELECT product_line, SUM(total_sales) FROM DailySales \
             WHERE city = 'San Jose' AND state = 'CA' GROUP BY product_line ORDER BY product_line",
        )
        .unwrap();
    println!(
        "Drill-down (San Jose by product line):\n{}",
        drill.to_table_string()
    );
    let drill_total: i64 = drill.rows.iter().map(|r| r[1].as_int().unwrap()).sum();

    println!("roll-up said San Jose = {san_jose_total}");
    println!("drill-down adds up to  = {drill_total}");
    assert_eq!(
        san_jose_total, drill_total,
        "2VNL guarantees the session-consistent view"
    );
    println!("consistent ✓ — the analyst never noticed the maintenance transaction");
    session.finish();

    // The same drill-down in a new session shows the refreshed warehouse.
    let fresh = table.begin_session();
    let drill_new = fresh
        .query(
            "SELECT product_line, SUM(total_sales) FROM DailySales \
             WHERE city = 'San Jose' GROUP BY product_line ORDER BY product_line",
        )
        .unwrap();
    println!(
        "\nA new session sees today's numbers:\n{}",
        drill_new.to_table_string()
    );
    fresh.finish();
}
