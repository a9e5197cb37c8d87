//! Cross-crate integration: the full warehouse pipeline — synthetic source
//! feed → net-effect deltas → incremental view maintenance → 2VNL summary
//! table — exercised with concurrent analyst sessions, garbage collection,
//! and rollback, across multiple simulated days.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;
use warehouse_2vnl::types::{Date, Value};
use warehouse_2vnl::view::{SourceDelta, SummaryViewDef, ViewMaintainer};
use warehouse_2vnl::vnl::{gc, VnlError};
use warehouse_2vnl::workload::{SalesConfig, SalesGenerator};

fn view_def() -> SummaryViewDef {
    SummaryViewDef::new(
        SalesGenerator::source_schema(),
        &["city", "state", "product_line", "date"],
        "amount",
        "total_sales",
    )
    .unwrap()
}

fn generator(seed: u64) -> SalesGenerator {
    SalesGenerator::new(
        SalesConfig {
            cities: 20,
            product_lines: 5,
            sales_per_day: 300,
            correction_per_mille: 30,
            seed,
        },
        Date::ymd(1996, 10, 1),
    )
}

/// Apply a batch directly to an in-memory model for cross-checking.
fn model_apply(model: &mut std::collections::HashMap<String, (i64, i64)>, batch: &[SourceDelta]) {
    for d in batch {
        let (row, sign) = match d {
            SourceDelta::Insert(r) => (r, 1i64),
            SourceDelta::Delete(r) => (r, -1i64),
        };
        let key = format!("{}|{}|{}|{}", row[0], row[1], row[2], row[3]);
        let e = model.entry(key.clone()).or_insert((0, 0));
        e.0 += sign * row[4].as_int().unwrap();
        e.1 += sign;
        if e.1 <= 0 {
            model.remove(&key);
        }
    }
}

#[test]
fn week_of_maintenance_matches_reference_model() {
    let def = view_def();
    let table = def.create_table("DailySales", 2).unwrap();
    let maintainer = ViewMaintainer::new(def);
    let mut gen = generator(11);
    let mut model = std::collections::HashMap::new();
    for _day in 0..7 {
        let batch = gen.next_day();
        let txn = table.begin_maintenance().unwrap();
        maintainer.propagate(&txn, &batch).unwrap();
        txn.commit().unwrap();
        model_apply(&mut model, &batch);
        // Cross-check the warehouse against the reference model.
        let session = table.begin_session();
        let rows = session.scan().unwrap();
        assert_eq!(rows.len(), model.len(), "group count diverged");
        for r in rows {
            let key = format!("{}|{}|{}|{}", r[0], r[1], r[2], r[3]);
            let (sum, count) = model[&key];
            assert_eq!(r[4].as_int().unwrap(), sum, "sum diverged for {key}");
            assert_eq!(r[5].as_int().unwrap(), count, "count diverged for {key}");
        }
        session.finish();
    }
}

#[test]
fn gc_reclaims_without_disturbing_history() {
    let def = view_def();
    let table = def.create_table("DailySales", 2).unwrap();
    let maintainer = ViewMaintainer::new(def);
    let mut gen = generator(23);
    let mut total_reclaimed = 0;
    for _day in 0..10 {
        let batch = gen.next_day();
        let txn = table.begin_maintenance().unwrap();
        maintainer.propagate(&txn, &batch).unwrap();
        txn.commit().unwrap();
        total_reclaimed += gc::collect(&table).unwrap().reclaimed;
        // After GC, a fresh session still reads a consistent state.
        let s = table.begin_session();
        let total: i64 = s
            .scan()
            .unwrap()
            .iter()
            .map(|r| r[4].as_int().unwrap())
            .sum();
        assert!(total > 0);
        s.finish();
    }
    // With corrections in the feed, some groups must have emptied & been
    // reclaimed along the way.
    assert!(total_reclaimed > 0, "expected the GC to find garbage");
}

#[test]
fn aborted_day_leaves_no_trace_in_the_pipeline() {
    let def = view_def();
    let table = def.create_table("DailySales", 2).unwrap();
    let maintainer = ViewMaintainer::new(def);
    let mut gen = generator(31);
    // Day 1 commits.
    let txn = table.begin_maintenance().unwrap();
    maintainer.propagate(&txn, &gen.next_day()).unwrap();
    txn.commit().unwrap();
    let reference: Vec<_> = {
        let s = table.begin_session();
        let r = s.scan().unwrap();
        s.finish();
        r
    };
    // Day 2 aborts mid-flight.
    let txn = table.begin_maintenance().unwrap();
    maintainer.propagate(&txn, &gen.next_day()).unwrap();
    txn.abort().unwrap();
    let s = table.begin_session();
    let mut after = s.scan().unwrap();
    s.finish();
    let mut want = reference.clone();
    after.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    want.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    assert_eq!(after, want);
    // Day 2 retried then commits cleanly.
    let txn = table.begin_maintenance().unwrap();
    maintainer.propagate(&txn, &gen.next_day()).unwrap();
    txn.commit().unwrap();
}

#[test]
fn analysts_stay_consistent_through_a_week_with_threads() {
    let def = view_def();
    let table = Arc::new(def.create_table("DailySales", 3).unwrap());
    let maintainer = ViewMaintainer::new(def);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    std::thread::scope(|s| {
        // Maintenance thread: 7 daily batches.
        {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut gen = generator(47);
                for _ in 0..7 {
                    let txn = table.begin_maintenance().unwrap();
                    maintainer.propagate(&txn, &gen.next_day()).unwrap();
                    txn.commit().unwrap();
                }
                stop.store(true, std::sync::atomic::Ordering::SeqCst);
            });
        }
        // Analyst threads: sum-by-city must equal the grand total within a
        // session, forever.
        for _ in 0..3 {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let session = table.begin_session();
                    let per_city = session
                        .query("SELECT city, SUM(total_sales) FROM DailySales GROUP BY city");
                    let grand = session.query("SELECT SUM(total_sales) FROM DailySales");
                    // The session can honestly expire between the two
                    // queries (the detector fires at query time); only an
                    // expiration-free pair must agree.
                    match (per_city, grand) {
                        (Ok(rollup), Ok(grand)) => {
                            let total: i64 =
                                rollup.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
                            assert_eq!(
                                grand.rows[0][0],
                                if total == 0 {
                                    Value::Null
                                } else {
                                    Value::from(total)
                                },
                                "drill-down must match roll-up inside one session"
                            );
                        }
                        (Err(VnlError::SessionExpired { .. }), _)
                        | (_, Err(VnlError::SessionExpired { .. })) => {}
                        (Err(e), _) | (_, Err(e)) => panic!("unexpected: {e}"),
                    }
                    session.finish();
                }
            });
        }
    });
}

#[test]
fn query_rewrite_agrees_with_extraction_at_scale() {
    let def = view_def();
    let table = def.create_table("DailySales", 2).unwrap();
    let maintainer = ViewMaintainer::new(def);
    let mut gen = generator(59);
    let txn = table.begin_maintenance().unwrap();
    maintainer.propagate(&txn, &gen.next_day()).unwrap();
    txn.commit().unwrap();
    let session = table.begin_session();
    // Second batch in flight while we compare paths.
    let txn = table.begin_maintenance().unwrap();
    maintainer.propagate(&txn, &gen.next_day()).unwrap();
    for sql in [
        "SELECT city, SUM(total_sales) FROM DailySales GROUP BY city ORDER BY city",
        "SELECT COUNT(*) FROM DailySales",
        "SELECT product_line, MIN(total_sales), MAX(total_sales) FROM DailySales GROUP BY product_line ORDER BY product_line",
    ] {
        let a = session.query(sql).unwrap();
        let b = session.query_via_rewrite(sql).unwrap();
        assert_eq!(a.rows, b.rows, "paths diverged for {sql}");
    }
    txn.commit().unwrap();
    session.finish();
}

#[test]
fn nvnl_keeps_a_session_alive_across_three_days() {
    let def = view_def();
    let table = def.create_table("DailySales", 4).unwrap();
    let maintainer = ViewMaintainer::new(def);
    let mut gen = generator(61);
    let txn = table.begin_maintenance().unwrap();
    maintainer.propagate(&txn, &gen.next_day()).unwrap();
    txn.commit().unwrap();

    let session = table.begin_session();
    let day1_total = session
        .query("SELECT SUM(total_sales) FROM DailySales")
        .unwrap()
        .rows[0][0]
        .clone();
    // Three more maintenance days under 4VNL: the session survives all of
    // them and keeps answering with day-1 numbers.
    for _ in 0..3 {
        let txn = table.begin_maintenance().unwrap();
        maintainer.propagate(&txn, &gen.next_day()).unwrap();
        txn.commit().unwrap();
        let again = session
            .query("SELECT SUM(total_sales) FROM DailySales")
            .unwrap()
            .rows[0][0]
            .clone();
        assert_eq!(again, day1_total);
    }
    session.finish();
}
