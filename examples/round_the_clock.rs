//! A 24h-available warehouse, simulated over two weeks: daily source
//! batches flow through incremental view maintenance into a 2VNL summary
//! table while analyst sessions read around the clock; logically-deleted
//! tuples are garbage-collected; session expirations are counted and then
//! eliminated by switching to 3VNL.
//!
//! ```sh
//! cargo run --release --example round_the_clock
//! ```
#![allow(clippy::unwrap_used, clippy::panic)]

use warehouse_2vnl::types::Date;
use warehouse_2vnl::view::{SummaryViewDef, ViewMaintainer};
use warehouse_2vnl::vnl::{gc, VnlError};
use warehouse_2vnl::workload::{SalesConfig, SalesGenerator};

fn run(n: usize) -> (u64, u64) {
    let def = SummaryViewDef::new(
        SalesGenerator::source_schema(),
        &["city", "state", "product_line", "date"],
        "amount",
        "total_sales",
    )
    .unwrap();
    let table = def.create_table("DailySales", n).unwrap();
    let maintainer = ViewMaintainer::new(def);
    let mut generator = SalesGenerator::new(
        SalesConfig {
            cities: 30,
            product_lines: 6,
            sales_per_day: 400,
            correction_per_mille: 40,
            seed: 1997,
        },
        Date::ymd(1996, 10, 1),
    );

    let mut expired = 0u64;
    let mut completed = 0u64;
    let mut reclaimed = 0u64;
    // One long-lived analyst session is (re)opened as needed; each "day"
    // interleaves maintenance with reads.
    let mut session = table.begin_session();
    for _day in 0..14 {
        // Morning analysis: two queries that must be mutually consistent.
        for _ in 0..3 {
            let q1 = session
                .query("SELECT city, SUM(total_sales) FROM DailySales GROUP BY city ORDER BY city");
            match q1 {
                Ok(rollup) => {
                    let total: i64 = rollup.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
                    let q2 = session
                        .query("SELECT SUM(total_sales) FROM DailySales")
                        .unwrap();
                    assert_eq!(q2.rows[0][0].as_int().unwrap_or(0), total);
                    completed += 1;
                }
                Err(VnlError::SessionExpired { .. }) => {
                    expired += 1;
                    session.finish();
                    session = table.begin_session();
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        // The daily maintenance transaction propagates the day's batch.
        let batch = generator.next_day();
        let txn = table.begin_maintenance().unwrap();
        maintainer.propagate(&txn, &batch).unwrap();
        txn.commit().unwrap();
        // Nightly garbage collection.
        reclaimed += gc::collect(&table).unwrap().reclaimed;
    }
    session.finish();
    println!(
        "n={n}: {completed} consistent analyses, {expired} session renewals, \
         {} tuples live, {reclaimed} reclaimed by GC",
        table.storage().len(),
    );
    (completed, expired)
}

fn main() {
    println!("two simulated weeks of round-the-clock operation\n");
    let (_, expired2) = run(2);
    let (_, expired3) = run(3);
    println!(
        "\nswitching 2VNL -> 3VNL reduced session renewals from {expired2} to {expired3} \
         (§5: more versions, longer guaranteed sessions)"
    );
    assert!(expired3 <= expired2);
}
