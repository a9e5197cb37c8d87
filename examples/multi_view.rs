//! A warehouse with TWO materialized views over the same source feed —
//! a fine-grained daily summary and a coarse city roll-up — refreshed by a
//! single warehouse-wide maintenance transaction. Sessions pin both views
//! at the same version, so cross-view queries always reconcile, even while
//! maintenance runs.
//!
//! ```sh
//! cargo run --release --example multi_view
//! ```
#![allow(clippy::unwrap_used)]

use warehouse_2vnl::types::Date;
use warehouse_2vnl::view::{SummaryViewDef, ViewMaintainer};
use warehouse_2vnl::vnl::WarehouseBuilder;
use warehouse_2vnl::workload::{SalesConfig, SalesGenerator};

fn main() {
    // Two view definitions over the same source-fact schema.
    let daily = SummaryViewDef::new(
        SalesGenerator::source_schema(),
        &["city", "state", "product_line", "date"],
        "amount",
        "total_sales",
    )
    .unwrap();
    let by_city = SummaryViewDef::new(
        SalesGenerator::source_schema(),
        &["city", "state"],
        "amount",
        "total_sales",
    )
    .unwrap();

    let warehouse = WarehouseBuilder::new()
        .unwrap()
        .table("DailySales", daily.summary_schema(), 2)
        .unwrap()
        .table("CitySales", by_city.summary_schema(), 2)
        .unwrap()
        .build();

    let daily_maintainer = ViewMaintainer::new(daily);
    let city_maintainer = ViewMaintainer::new(by_city);
    let mut generator = SalesGenerator::new(
        SalesConfig {
            cities: 12,
            product_lines: 5,
            sales_per_day: 300,
            correction_per_mille: 20,
            seed: 4242,
        },
        Date::ymd(1996, 10, 1),
    );

    for day in 0..5 {
        let session = warehouse.begin_session();
        // Cross-view invariant: summing the fine view by city must equal the
        // coarse view, within one session — even while a maintenance txn is
        // mid-flight below.
        let batch = generator.next_day();
        let txn = warehouse.begin_maintenance().unwrap();
        daily_maintainer
            .propagate(txn.on("DailySales").unwrap(), &batch)
            .unwrap();
        // Check BEFORE the second view is maintained: the session must not
        // see the half-updated warehouse.
        let fine = session
            .query("SELECT SUM(total_sales) FROM DailySales")
            .unwrap();
        let coarse = session
            .query("SELECT SUM(total_sales) FROM CitySales")
            .unwrap();
        assert_eq!(
            fine.rows[0][0], coarse.rows[0][0],
            "views must reconcile inside a session even mid-maintenance"
        );
        city_maintainer
            .propagate(txn.on("CitySales").unwrap(), &batch)
            .unwrap();
        txn.commit().unwrap();
        session.finish();

        // A fresh session sees both views advanced together.
        let s = warehouse.begin_session();
        let fine = s.query("SELECT SUM(total_sales) FROM DailySales").unwrap();
        let coarse = s.query("SELECT SUM(total_sales) FROM CitySales").unwrap();
        assert_eq!(fine.rows[0][0], coarse.rows[0][0]);
        println!(
            "day {day}: both views agree, warehouse total = {}",
            fine.rows[0][0]
        );
        s.finish();
        warehouse.collect_garbage().unwrap();
    }

    // Show a cross-view analysis at the end.
    let s = warehouse.begin_session();
    let top = s
        .query(
            "SELECT city, SUM(total_sales) FROM CitySales GROUP BY city \
             ORDER BY SUM(total_sales) DESC LIMIT 3",
        )
        .unwrap();
    println!("\ntop cities after five days:\n{}", top.to_table_string());
    s.finish();
}
